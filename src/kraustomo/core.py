"""Quantum channel representations, the forward model and process fidelity.

Conventions used throughout the package:

* All matrix flattening is row-major (C order).
* The Choi matrix acts on H_in (x) H_out, first tensor factor input,
  second output.  A Kraus operator K maps to the vector
  |K> = (I (x) K) sum_i |i>|i>, i.e. |K>[i*N + m] = K[m, i].

Tolerances are module constants.

The forward model: every state stack is factored once, rho_i = A_i S_i
A_i^dag (:func:`factor_states`; the pure Pauli and coherent probes are
built from their kets, which are their factors with R = 1), every
Hermitian observable stack is flattened once to the real (Q, N^2) matrix
T_j = Re M_j + Im M_j (:func:`real_observables`), and expectations
Tr[M_j sum_l K_l rho_i K_l^dag] are computed from phi_li = K_l A_i and T
(:func:`factored_expectations`), as is their gradient
(:func:`factored_pullback`).  Synthesis, the GD loss and the GD gradient
all run on it.  It is probe-major: phi is one product of the (P R, N)
probe rows with the Kraus blocks, laid out (P, N, k R).  It reads the
probes only as their :func:`probe_terms`, built once per set of probes.

Process fidelity (:func:`process_fidelity`) takes either form, Kraus
stack or Choi matrix, for each side, and has one formula: the nuclear
norm of the overlap X^dag Y of the two sides' factors.  A Kraus side is
its own factor (its stacked |K_l>), so it runs no N^2 x N^2 eigh and
builds no Choi matrix; a Choi side costs one eigh.  No matrix square
root is formed.
"""

from __future__ import annotations

import numpy as np

# Exactness tolerance for identities that hold to machine precision.
EXACT_TOL = 1e-10
# Validity tolerance for constraints maintained by iterative algorithms.
VALID_TOL = 1e-8


def _as_complex(mat):
    return np.ascontiguousarray(np.asarray(mat, dtype=np.complex128))


class KrausStack:
    """An ordered set of k Kraus operators, also viewed as a kN x N stack.

    The stack is trace-preserving (TP) when sum_l K_l^dag K_l = I.  Raw
    intermediate estimates are allowed to violate this; use :meth:`is_tp`
    or :func:`tp_defect` to check.
    """

    def __init__(self, blocks):
        blocks = _as_complex(blocks)
        if blocks.ndim == 2:
            blocks = blocks[None]
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
            raise ValueError(f"expected (k, N, N) blocks, got {blocks.shape}")
        self.blocks = blocks

    @property
    def dim(self):
        return self.blocks.shape[1]

    @property
    def count(self):
        return self.blocks.shape[0]

    @property
    def stacked(self):
        """The kN x N matrix obtained by stacking the blocks vertically."""
        return self.blocks.reshape(-1, self.dim)

    def is_tp(self):
        return tp_defect(self) <= VALID_TOL


class ChoiMatrix:
    """The N^2 x N^2 Choi representation on H_in (x) H_out."""

    def __init__(self, mat):
        mat = _as_complex(mat)
        n2 = mat.shape[0]
        dim = round(np.sqrt(n2))
        if mat.ndim != 2 or mat.shape[1] != n2 or dim * dim != n2:
            raise ValueError(f"Choi matrix must be N^2 x N^2, got {mat.shape}")
        self.mat = mat
        self.dim = dim


class ProcessMetric:
    """A process fidelity in [0, 1] and its complement."""

    def __init__(self, fidelity):
        self.fidelity = float(fidelity)

    @property
    def infidelity(self):
        return 1.0 - self.fidelity

    def __repr__(self):
        return f"ProcessMetric(fidelity={self.fidelity:.6f})"


def _hermitian_stack(ops, what, symbol):
    """ops as an array; ValueError if any is not Hermitian or holds a NaN."""
    ops = np.asarray(ops)
    herm = np.max(np.abs(ops - ops.conj().swapaxes(-1, -2)), initial=0.0)
    if not herm <= EXACT_TOL:
        raise ValueError(f"{what} must be Hermitian: max |{symbol} - "
                         f"{symbol}^dag| = {herm:.3e}")
    return ops


def factor_states(states):
    """Factor a (P, N, N) stack of Hermitian states as rho_i = A_i S_i A_i^dag.

    One batched eigh.  A_i (N x R) holds the eigenvectors scaled by
    sqrt|w| and S_i = diag(s_i) their signs.  Eigenvalues at or below
    NumPy's matrix_rank cut, max|w| * N * eps, are dropped; R is the
    largest remaining rank, and a state of lower rank is padded with zero
    columns of sign 0.  A pure state has R = 1; mixed or indefinite states
    keep R <= N and stay exact.  Returns (amps (P, N, R), signs (P, R)).
    A state that is not Hermitian raises ValueError.
    """
    states = _hermitian_stack(states, "states", "rho")
    w, v = np.linalg.eigh(states)
    mag = np.abs(w)
    n = states.shape[-1]
    keep = mag > mag.max(axis=-1, keepdims=True) * n * np.finfo(float).eps
    rank = max(int(keep.sum(axis=-1).max(initial=0)), 1)
    order = np.argsort(mag, axis=-1)[:, n - rank:]
    w = np.take_along_axis(w, order, axis=-1)
    keep = np.take_along_axis(keep, order, axis=-1)
    amps = (np.take_along_axis(v, order[:, None, :], axis=-1)
            * np.sqrt(np.abs(w) * keep)[:, None, :])
    return amps, np.where(keep, np.sign(w), 0.0)


def real_observables(observables):
    """The real (Q, N^2) form T_j = Re M_j + Im M_j of a Hermitian stack.

    For Hermitian M and sigma, Tr[M sigma] = sum_ab T_ab U_ab with U =
    Re sigma + Im sigma: Re is symmetric and Im antisymmetric, so the
    cross terms cancel.  The forward model reads observables in this form
    only.  An observable that is not Hermitian raises ValueError.
    """
    obs = _hermitian_stack(observables, "measurements", "M")
    flat = obs.reshape(len(obs), -1)
    return np.ascontiguousarray(flat.real + flat.imag)


def probe_terms(factors):
    """(rows, coef, conj_rows), the forward model's one probe-side input:
    the (P R, N) rows A_i^T of factors (A, S), (1 - i) S_i shaped
    (P, 1, 1, R) for the Kraus index and the (N, P R) conjugate rows
    (A_i S_i / 2)^*."""
    amps, signs = factors
    p, n, r = amps.shape
    conj = (amps.conj() * (0.5 * signs)[:, None, :]).swapaxes(1, 2)
    return (amps.swapaxes(1, 2).reshape(p * r, n),
            ((1 - 1j) * signs)[:, None, None, :], conj.reshape(p * r, n).T)


def factored_expectations(blocks, terms, obs_real, paired=False):
    """The package's one forward model, on factored states.

    With phi_li = K_l A_i for the probes' :func:`probe_terms`, the output
    state is sigma_i = sum_l phi_li S_i phi_li^dag and e[i, j] = Tr[M_j
    sigma_i] = U_i . T_j, with U = Re sigma + Im sigma = Re[(1 - i) sigma]
    and T from :func:`real_observables`, a (P, Q) array; when paired,
    state b goes with observable b only and e is (B,).  phi, the probe
    rows A_i^T times [K_l^T] (N, N k), is copied only to order its columns
    (l, r) when R > 1.  Returns (e, phi (P, N, k R)).
    """
    rows, coef, _ = terms
    k, n = blocks.shape[0], blocks.shape[-1]
    p, r = coef.shape[0], coef.shape[-1]
    phi = rows @ blocks.transpose(2, 1, 0).reshape(n, n * k)
    phi = np.ascontiguousarray(phi.reshape(p, r, n, k).transpose(0, 2, 3, 1))
    left = (phi * coef).reshape(p, n, k * r)
    phi = phi.reshape(p, n, k * r)
    # Re(z w*) = Re z Re w + Im z Im w: a real product of [re, im] views.
    u = np.matmul(left.view(float), phi.view(float).swapaxes(1, 2))
    u = u.reshape(p, n * n)
    if paired:
        return np.einsum("bm,bm->b", u, obs_real), phi
    return u @ obs_real.T, phi


def factored_pullback(phi, terms, obs_real, coeffs, paired=False):
    """Conjugate derivative of sum c * e w.r.t. each K_l.

    Block l is sum_i W_i K_l rho_i = sum_i (W_i phi_li) S_i A_i^dag, with
    W_i = sum_j c_ij M_j (c of shape (P, Q)), or W_b = c_b M_b when
    paired (c of shape (B,)); phi is the second return value of
    :func:`factored_expectations` on the same terms.  For real c, w = c T
    is Re W + Im W flattened, so 2 W = (w + w^T) + i (w - w^T), formed on
    phi from the real products w phi and w^T phi.  The sum over probes is
    one product of the signed conjugate rows of :func:`probe_terms` with
    the (P R, N k) rows of 2 W phi.  Returns a (k, N, N) transposed view.
    """
    _, coef, conj = terms
    (p, n, kr), r = phi.shape, coef.shape[-1]
    k = kr // r
    w = (coeffs[:, None] * obs_real if paired
         else coeffs @ obs_real).reshape(p, n, n)
    phi_ri = phi.view(float)
    x = np.matmul(w, phi_ri).view(complex)
    y = np.matmul(w.swapaxes(1, 2), phi_ri).view(complex)
    wphi = ((x + y) + 1j * (x - y)).reshape(p, n, k, r)      # 2 W phi
    wphi = wphi.transpose(0, 3, 1, 2).reshape(p * r, n * k)
    return (conj @ wphi).reshape(n, n, k).transpose(2, 1, 0)


def channel_expectations(blocks, states, observables):
    """e[i, j] = Tr[M_j sum_l K_l rho_i K_l^dag] by factoring the states and
    flattening the observables for :func:`factored_expectations`.

    The package does not call it; the benchmark's tracer (perfbench) names
    it, and its self-test fails when a named function is absent.
    """
    return factored_expectations(blocks, probe_terms(factor_states(states)),
                                 real_observables(observables))[0]


def kraus_to_choi(kraus):
    """Build the Choi matrix Phi = sum_l |K_l><K_l|.

    With the row-major convention, |K_l> is the flattening of K_l^T.
    The result is Hermitian PSD for any stack and has trace N when TP.
    """
    n = kraus.dim
    vecs = kraus.blocks.transpose(0, 2, 1).reshape(kraus.count, n * n)
    return ChoiMatrix(np.einsum("la,lb->ab", vecs, vecs.conj()))


def partial_trace_out(choi):
    """Trace out the output (second) factor; equals I for a TP Choi matrix."""
    n = choi.dim
    return np.einsum("iaja->ij", choi.mat.reshape(n, n, n, n))


def tp_defect(kraus):
    """Frobenius norm of sum_l K_l^dag K_l - I (zero iff trace-preserving),
    the one product K^dag K of a KrausStack's or raw kN x N stacked matrix."""
    stack = kraus.stacked if isinstance(kraus, KrausStack) else kraus
    gram = stack.conj().T @ stack
    gram.reshape(-1)[::stack.shape[1] + 1] -= 1.0
    return float(np.sqrt(np.vdot(gram, gram).real))


def _psd_rank(w, n, what):
    """Mask of ascending eigenvalues w above NumPy's matrix_rank cut for N^2
    rows, max w * N^2 * eps; one below -VALID_TOL raises ValueError."""
    if np.min(w, initial=0.0) < -VALID_TOL:
        raise ValueError(f"{what} is not PSD: eigenvalue {w[0]:.3e} "
                         f"below -{VALID_TOL:.0e}")
    # N^2 eps first: max w * N^2 overflows when the trace does.
    return w > w[-1:] * (n * n * np.finfo(float).eps)


def _factor(channel, n):
    """X with X X^dag = Phi / N: a Kraus stack's |K_l> / sqrt(N) as columns,
    or a Choi matrix's V_r sqrt(w_r) on the eigenvalues :func:`_psd_rank`
    keeps."""
    if isinstance(channel, KrausStack):
        vecs = channel.blocks.transpose(2, 1, 0).reshape(n * n, -1)
        return vecs / np.sqrt(n)
    w, v = np.linalg.eigh(0.5 * (channel.mat + channel.mat.conj().T) / n)
    keep = _psd_rank(w, n, "matrix")
    return v[:, keep] * np.sqrt(w[keep])


@np.errstate(over="ignore", invalid="ignore")
def process_fidelity(choi_a, choi_b):
    """Fidelity F = Tr sqrt(sqrt(A) B sqrt(A)) of two channels, each given as
    a KrausStack or a ChoiMatrix.

    A and B are the Choi matrices divided by N (unit trace for TP
    channels).  With A = X X^dag and B = Y Y^dag from :func:`_factor`, F
    is the nuclear norm of X^dag Y (Uhlmann), the sum of its singular
    values, whatever the forms; it is symmetric in its arguments.  A
    non-finite entry raises ValueError, and a norm that overflows
    np.linalg.LinAlgError.  Returns a ProcessMetric with F capped at 1.
    """
    if choi_a.dim != choi_b.dim:
        raise ValueError(f"dimension mismatch: {choi_a.dim} vs {choi_b.dim}")
    for side in (choi_a, choi_b):
        mat = side.blocks if isinstance(side, KrausStack) else side.mat
        if not np.isfinite(mat).all():
            raise ValueError("channel entries must be finite")
    n = choi_a.dim
    overlap = _factor(choi_a, n).conj().T @ _factor(choi_b, n)
    fid = float(np.linalg.svd(overlap, compute_uv=False).sum())
    if not np.isfinite(fid):
        raise np.linalg.LinAlgError(f"process fidelity is {fid}: the "
                                    f"channels overflow")
    return ProcessMetric(min(fid, 1.0))
