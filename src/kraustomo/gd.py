"""Kraus-operator reconstruction by gradient descent on the Stiefel manifold.

The stacked Kraus matrix is updated along the normalized conjugate
(Wirtinger) gradient of a least-squares + L1 loss, with a Cayley
retraction in the low-rank Wen-Yin form keeping the stack orthonormal
(hence the channel trace-preserving) after every step.

One forward pass per iteration: :func:`value_and_grad` runs the
package's forward model (:func:`core.factored_expectations`) once, on
the probe factors rho_i = A_i S_i A_i^dag the tomogram holds, and its
products phi_li = K_l A_i serve both the residuals (hence the loss) and
the gradient (:func:`core.factored_pullback`); no N^3 product per probe
is formed.  :func:`loss` and :func:`wirtinger_gradient` are its two
halves, built on the same residual helper in full-batch and per-pair
(minibatch) mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (KrausStack, factored_expectations, factored_pullback,
                   tp_defect)
from .data import batches as batch_stream
from .dv import random_unitary

_SIGN_EPS = 1e-15


@dataclass
class GdConfig:
    """Hyperparameters for the Stiefel-manifold fit."""

    k: int = 1
    eta0: float = 0.1
    decay: float = 0.999
    lam: float = 1e-3
    max_iters: int = 200
    batch_size: int | None = None     # None = full batch
    seed: int = 0
    grad_norm_floor: float = 1e-12
    plateau_tol: float = 1e-10
    plateau_window: int = 20

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.eta0 <= 0:
            raise ValueError(f"eta0 must be > 0, got {self.eta0}")
        if not 0 < self.decay <= 1:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.plateau_window < 1:
            raise ValueError(
                f"plateau_window must be >= 1, got {self.plateau_window}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    def to_dict(self):
        return {"k": self.k, "eta0": self.eta0, "decay": self.decay,
                "lambda": self.lam, "max_iters": self.max_iters,
                "batch_size": self.batch_size, "seed": self.seed,
                "grad_norm_floor": self.grad_norm_floor,
                "plateau_tol": self.plateau_tol,
                "plateau_window": self.plateau_window}


@dataclass
class FitTrace:
    """Per-iteration history of a fit."""

    loss: list = field(default_factory=list)
    tp_defect: list = field(default_factory=list)
    iter_time_s: list = field(default_factory=list)
    full_loss: list = field(default_factory=list)   # (iteration, value) pairs
    n_iters: int = 0
    stop_reason: str = "max_iters"


def _residual(blocks, tomogram, batch):
    """The fit's residuals from the forward model, and what they share.

    Full batch (batch None): r[i, j] = d_ij - Tr[M_j sum_l K_l rho_i K_l^dag]
    over all probes and measurements.  Otherwise batch holds (i, j) pairs
    and r[b] is the residual of pair b, with rho_b = rho_i and M_b = M_j.
    Returns (r, phi, factors, meas): the forward model's phi and the probe
    factors and measurements r is taken against, as
    :func:`core.factored_pullback` takes them; None for an empty batch.
    """
    factors, meas, d = (tomogram.probe_factors, tomogram.measurements,
                        tomogram.data)
    if batch is not None:
        idx = np.asarray(batch, dtype=int)
        if idx.size == 0:
            return None
        i, j = idx[:, 0], idx[:, 1]
        factors = (factors[0][i], factors[1][i])
        meas, d = meas[j], d[i, j]
    pred, phi = factored_expectations(blocks, factors, meas, batch is not None)
    return d - pred, phi, factors, meas


def _complex_sign(mat):
    out = np.zeros_like(mat)
    mod = np.abs(mat)
    mask = mod >= _SIGN_EPS
    out[mask] = mat[mask] / mod[mask]
    return out


def value_and_grad(kraus, tomogram, batch=None, lam=1e-3):
    """The loss and its conjugate (Wirtinger) gradient from one forward pass.

    The loss is the squared-residual sum over the batch plus lam * sum of
    entry moduli; batch is an iterable of (i, j) index pairs, None meaning
    all entries.  Gradient block l is -2 sum_i W_i K_l rho_i + lam *
    sign(K_l), with W_i = sum_j r_ij M_j (r the residual, sign the
    elementwise phase, 0 at 0); it reuses the forward pass's K_l A_i.
    Returns (float, kN x N array).
    """
    blocks = kraus.blocks
    value = lam * float(np.sum(np.abs(blocks)))
    grad = lam * _complex_sign(blocks)
    forward = _residual(blocks, tomogram, batch)
    if forward is not None:
        res, phi, factors, meas = forward
        value += float(np.sum(res ** 2))
        grad -= 2.0 * factored_pullback(phi, factors, meas, res,
                                        batch is not None)
    return value, grad.reshape(-1, kraus.dim)


def loss(kraus, tomogram, batch=None, lam=1e-3):
    """Squared-residual sum over the batch plus lam * sum of entry moduli.

    batch is an iterable of (i, j) index pairs; None means all entries.
    """
    value = lam * float(np.sum(np.abs(kraus.blocks)))
    forward = _residual(kraus.blocks, tomogram, batch)
    if forward is not None:
        value += float(np.sum(forward[0] ** 2))
    return value


def wirtinger_gradient(kraus, tomogram, batch=None, lam=1e-3):
    """Conjugate gradient of the loss w.r.t. the stacked Kraus matrix.

    The gradient half of :func:`value_and_grad`; a kN x N array,
    validated against central finite differences in tests.
    """
    return value_and_grad(kraus, tomogram, batch, lam)[1]


_TP_TOL = 1e-8


def cayley_step(kraus, grad, eta, *, tp_tol=_TP_TOL, max_halvings=10):
    """One Cayley-retraction update K' = K - eta A (I + eta/2 B^dag A)^-1 B^dag K.

    A = [G K] and B = [K -G] (kN x 2N), the Sherman-Morrison-Woodbury form
    of the Cayley transform; the result stays orthonormal.  A singular
    inner system triggers step halving, up to max_halvings times.  A
    stack with tp_defect above tp_tol is rejected.
    """
    if tp_defect(kraus) > tp_tol:
        raise ValueError("cayley_step requires an orthonormal (TP) stack")
    return _cayley(kraus, grad, eta, max_halvings)


def _cayley(kraus, grad, eta, max_halvings=10):
    """:func:`cayley_step` without the TP guard, for a stack known to be TP."""
    stack = kraus.stacked
    n = kraus.dim
    grad = np.asarray(grad)
    if grad.shape != stack.shape:
        raise ValueError(f"gradient shape {grad.shape} != stack {stack.shape}")
    a = np.hstack([grad, stack])
    b = np.hstack([stack, -grad])
    bh_a = b.conj().T @ a
    bh_k = b.conj().T @ stack
    eye = np.eye(2 * n)
    for _ in range(max_halvings + 1):
        try:
            inner = np.linalg.solve(eye + 0.5 * eta * bh_a, bh_k)
        except np.linalg.LinAlgError:
            eta *= 0.5
            continue
        return KrausStack.from_stacked(stack - eta * (a @ inner), n)
    raise np.linalg.LinAlgError(
        f"Cayley inner system singular after {max_halvings} step halvings")


def init_kraus(k, dim, rng):
    """Random TP starting point: k random unitaries scaled by 1/sqrt(k)."""
    blocks = np.array([random_unitary(dim, rng) for _ in range(k)])
    return KrausStack(blocks / np.sqrt(k))


def fit(tomogram, cfg, init=None):
    """Reconstruct a Kraus stack from tomogram data.

    Iterates normalized-gradient Cayley steps with a decaying learning
    rate until max_iters, a vanishing gradient, or a loss plateau
    (relative change of the full-batch loss below plateau_tol between
    evaluations spaced plateau_window iterations apart).

    Each iteration makes one forward pass (:func:`value_and_grad`) at the
    current stack: its value is the loss after the previous step, which
    is recorded and plateau-checked there, and its gradient drives the
    next step.  One value-only pass closes the trace after the last step.
    ``trace.loss[t]`` is the loss after step t on the batch of step t + 1
    (the full loss in full-batch mode).

    ``init`` overrides the random starting point; it must be a TP stack
    with cfg.k blocks of the tomogram's dimension.  The TP defect recorded
    after each step is the check the next step relies on: above 1e-8 the
    fit raises ValueError, as :func:`cayley_step` does.

    Returns (KrausStack, FitTrace).
    """
    rng = np.random.default_rng(cfg.seed)
    if init is None:
        kraus = init_kraus(cfg.k, tomogram.dim, rng)
    else:
        if init.count != cfg.k or init.dim != tomogram.dim:
            raise ValueError(f"init has {init.count} blocks of dim {init.dim}; "
                             f"expected {cfg.k} of dim {tomogram.dim}")
        if not init.is_tp():
            raise ValueError("init stack is not trace-preserving")
        kraus = init
    trace = FitTrace()
    full_batch = (cfg.batch_size is None
                  or cfg.batch_size >= tomogram.num_entries)
    stream = None if full_batch else batch_stream(tomogram, cfg.batch_size, rng)
    eta = cfg.eta0
    prev_full = None
    for it in range(cfg.max_iters + 1):
        t0 = time.perf_counter()
        batch = None if full_batch else next(stream)
        last = it == cfg.max_iters
        if last:
            value = loss(kraus, tomogram, batch, cfg.lam)
        else:
            value, grad = value_and_grad(kraus, tomogram, batch, cfg.lam)
        if it:
            # value is the loss after the step taken in iteration it - 1
            trace.loss.append(value)
            if it % cfg.plateau_window == 0:
                full = (value if full_batch
                        else loss(kraus, tomogram, None, cfg.lam))
                trace.full_loss.append((it, full))
                if prev_full is not None:
                    rel = abs(prev_full - full) / max(abs(full), 1e-300)
                    if rel < cfg.plateau_tol:
                        trace.stop_reason = "plateau"
                        break
                prev_full = full
        if last:
            break
        gnorm = float(np.linalg.norm(grad))
        if gnorm < cfg.grad_norm_floor:
            trace.stop_reason = "gradient_floor"
            break
        kraus = _cayley(kraus, grad / gnorm, eta)
        defect = tp_defect(kraus)
        if defect > _TP_TOL:
            raise ValueError(f"step {it} left the orthonormal (TP) manifold: "
                             f"tp_defect {defect:.3e}")
        trace.tp_defect.append(defect)
        trace.iter_time_s.append(time.perf_counter() - t0)
        trace.n_iters = it + 1
        eta *= cfg.decay
    return kraus, trace
