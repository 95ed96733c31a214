"""The dense forward model and the per-point CV builders, kept as oracles.

The forward model is the one the package ran before probes were factored
as rho_i = A_i S_i A_i^dag: every output state K_l rho_i K_l^dag is formed
with two N x N x N products per probe and Kraus block.  The CV builders
run one eigh per phase-space point, as the package did before
:mod:`kraustomo.cv` shared one eigh among all the points of a call.  The
process fidelity is the N^2 x N^2 sqrt(A) B sqrt(A) sandwich the package
computed before it took the nuclear norm of its factors' overlap X^dag Y.

The state wrapper, the two channel actions, the per-label Pauli
projectors and the TP projection below are references the package does
not run: its forward model, fits and CLI read kets and Kraus stacks
only, and its CPTP projection carries the TP step as one N x N dual.  ``pauli_projector``
builds from its own copy of the single-qubit ket table, so comparing it
with :func:`kraustomo.dv.pauli_kets` checks one table against the other.
"""

import numpy as np

from kraustomo.core import (EXACT_TOL, ChoiMatrix, _as_complex,
                            _hermitian_stack, partial_trace_out)
from kraustomo.cv import annihilation, snap
from kraustomo.dv import PAULI_LABELS, pauli_kets

# Single-qubit eigenstate kets, rows in PAULI_LABELS order (z rows exact).
_KETS = np.array([[1, 1], [1, -1], [1, 1j], [1, -1j], [np.sqrt(2), 0],
                  [0, np.sqrt(2)]]) / np.sqrt(2)


def dense_expectations(blocks, states, observables):
    """e[i, j] = Tr[M_j sum_l K_l rho_i K_l^dag] from dense products."""
    left = np.matmul(blocks[:, None], states[None])
    out = np.matmul(left, blocks.conj().swapaxes(1, 2)[:, None]).sum(axis=0)
    p, n = out.shape[0], out.shape[1]
    obs_flat = observables.reshape(observables.shape[0], n * n)
    return np.real(out.swapaxes(1, 2).reshape(p, n * n) @ obs_flat.T)


def dense_value_and_grad(blocks, tomogram, batch=None, lam=1e-3):
    """Loss and conjugate gradient, -2 sum_i W_i K_l rho_i + lam sign(K_l),
    with every K_l rho_i formed densely; returns (float, (k, N, N))."""
    mod = np.abs(blocks)
    sign = np.zeros_like(blocks)
    mask = mod >= 1e-15
    sign[mask] = blocks[mask] / mod[mask]
    value, grad = lam * float(np.sum(mod)), lam * sign
    if batch is None:
        rho, meas, d = tomogram.probes, tomogram.measurements, tomogram.data
    else:
        idx = np.asarray(batch, dtype=int).reshape(-1, 2)
        if idx.size == 0:
            return value, grad
        i, j = idx[:, 0], idx[:, 1]
        rho, meas = tomogram.probes[i], tomogram.measurements[j]
        d = tomogram.data[i, j]
    n = blocks.shape[-1]
    left = np.matmul(blocks[:, None], rho[None])
    out = np.matmul(left, blocks.conj().swapaxes(1, 2)[:, None]).sum(axis=0)
    out_flat = out.swapaxes(1, 2).reshape(-1, n * n)
    meas_flat = meas.reshape(-1, n * n)
    if batch is None:
        res = d - np.real(out_flat @ meas_flat.T)
        weighted = (res @ meas_flat).reshape(-1, n, n)
    else:
        res = d - np.real(np.sum(out_flat * meas_flat, axis=1))
        weighted = res[:, None, None] * meas
    value += float(np.sum(res ** 2))
    grad = grad - 2.0 * np.matmul(weighted[None], left).sum(axis=1)
    return value, grad


def displacement_per_point(alpha, dim):
    """D(alpha) from the eigh of its own generator i(alpha a^dag - alpha^* a),
    one per point: the construction the batched cv builders replaced."""
    a = annihilation(dim)
    h = 1j * (alpha * a.conj().T - np.conj(alpha) * a)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def coherent_kets_per_point(points, dim):
    """D(alpha)|0>, renormalized, one displacement per point; (P, N)."""
    kets = np.array([displacement_per_point(a, dim)[:, 0] for a in points])
    return kets / np.linalg.norm(kets, axis=1, keepdims=True)


def displaced_parities_per_point(points, dim):
    """D(beta) (-1)^n D(beta)^dag, one displacement per point; (P, N, N)."""
    parity = (-1.0) ** np.arange(dim)
    return np.array([(d * parity) @ d.conj().T for d in
                     (displacement_per_point(b, dim) for b in points)])


def snap_displace_per_point(alpha, phases, dim):
    """The unitary D(alpha) S(phases) D(-alpha), one displacement each."""
    return (displacement_per_point(alpha, dim) @ snap(phases, dim)
            @ displacement_per_point(-alpha, dim))


def dense_process_fidelity(choi_a, choi_b):
    """Tr sqrt(sqrt(A) B sqrt(A)) of the trace-normalized Choi matrices with
    the dense matrix square root; eigenvalues below zero are clipped.  The
    full-rank oracle: on a rank-deficient side it square-roots the
    eigenvalue noise, so it reads high by up to ~5e-7 there."""
    n = choi_a.dim
    a = 0.5 * (choi_a.mat + choi_a.mat.conj().T) / n
    b = 0.5 * (choi_b.mat + choi_b.mat.conj().T) / n
    w, v = np.linalg.eigh(a)
    ra = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = ra @ b @ ra
    w = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


class DensityMatrix:
    """An N x N Hermitian, unit-trace, PSD matrix (probe or output state)."""

    def __init__(self, mat):
        mat = _as_complex(mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"density matrix must be square, got {mat.shape}")
        _hermitian_stack(mat, "a density matrix", "rho")
        tr = mat.trace()
        if abs(tr - 1.0) > EXACT_TOL:
            raise ValueError(f"trace is {tr}, expected 1")
        lo = np.linalg.eigvalsh(mat)[0]
        if lo < -EXACT_TOL:
            raise ValueError(f"negative eigenvalue {lo:.3e}")
        self.mat = mat

    @property
    def dim(self):
        return self.mat.shape[0]


def apply_kraus(kraus, rho):
    """Apply the channel sum_l K_l rho K_l^dag to a density matrix.

    Accepts a DensityMatrix or a raw N x N array for ``rho``; returns a raw
    complex N x N array (for a TP stack it is again a valid state).
    """
    mat = rho.mat if isinstance(rho, DensityMatrix) else _as_complex(rho)
    if kraus.dim != mat.shape[0]:
        raise ValueError(f"dimension mismatch: Kraus dim {kraus.dim}, "
                         f"state dim {mat.shape[0]}")
    k = kraus.blocks
    return np.matmul(k @ mat, k.conj().swapaxes(1, 2)).sum(axis=0)


def choi_apply(choi, rho):
    """Apply a channel in Choi form: rho' = Tr_in[(rho^T (x) I) Phi]."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else _as_complex(rho)
    n = choi.dim
    if mat.shape[0] != n:
        raise ValueError(f"dimension mismatch: Choi dim {n}, state dim {mat.shape[0]}")
    phi = choi.mat.reshape(n, n, n, n)  # [in, out, in', out']
    return np.einsum("ik,kaib->ab", mat.T, phi, optimize=True)


def pauli_label(index, n):
    """The per-qubit label tuple of entry index in the lexicographic 6^n order."""
    return tuple(PAULI_LABELS[d] for d in np.unravel_index(index, (6,) * n))


def pauli_projector(labels):
    """Tensor product of single-qubit eigenstate projectors for a label tuple."""
    ket = np.array([1.0 + 0j])
    for lab in labels:
        ket = np.kron(ket, _KETS[PAULI_LABELS.index(lab)])
    return np.outer(ket, ket.conj())


def pauli_projectors(n, indices=None):
    """Stacked (P, 2^n, 2^n) projectors |k><k| of :func:`pauli_kets`."""
    kets = pauli_kets(n, indices)
    return kets[:, :, None] * kets[:, None, :].conj()


def project_tp(choi):
    """Orthogonal projection onto the trace-preserving affine subspace.

    Adds X (x) I_out with X = (I - Tr_out Phi) / N, which makes the
    output partial trace exactly the identity.
    """
    n = choi.dim
    x = (np.eye(n) - partial_trace_out(choi)) / n
    return ChoiMatrix(choi.mat + np.kron(x, np.eye(n)))
