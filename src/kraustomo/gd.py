"""Kraus-operator reconstruction by gradient descent on the Stiefel manifold.

The stacked Kraus matrix is updated along the normalized conjugate
(Wirtinger) gradient of a least-squares + L1 loss, with a Cayley
retraction in the low-rank Wen-Yin form keeping the stack orthonormal
(hence the channel trace-preserving) after every step.

One forward pass per iteration: :func:`value_and_grad` runs the
package's forward model (:func:`core.factored_expectations`) once, on
the probe factors rho_i = A_i S_i A_i^dag and the real measurement form
T_j = Re M_j + Im M_j the tomogram holds; its products phi_li = K_l A_i
serve the residuals (hence the loss) and the gradient
(:func:`core.factored_pullback`).  :func:`loss` and
:func:`wirtinger_gradient` are its two halves.  :func:`fit` runs it on
the raw kN x N stack with :func:`core.probe_terms` built once per fit
(per step for minibatches), so a full-batch iteration builds none.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (VALID_TOL, KrausStack, factored_expectations,
                   factored_pullback, probe_terms, tp_defect)
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
        if not 0 < self.eta0 < np.inf:
            raise ValueError(f"eta0 must be finite and > 0, got {self.eta0}")
        if not 0 < self.decay <= 1:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
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
    """Per-iteration history of a fit.

    Entry t of grad_norm, eta, tp_defect and the times belongs to step t:
    the norm of the gradient it followed, its step size eta0 * decay^t, the
    TP defect after it and its wall time, split into three phases that add
    up to no more than iter_time_s: the loss and gradient pass (with the
    plateau check), the normalized Cayley step and the TP check.
    """

    loss: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    eta: list = field(default_factory=list)
    tp_defect: list = field(default_factory=list)
    iter_time_s: list = field(default_factory=list)
    pass_time_s: list = field(default_factory=list)
    cayley_time_s: list = field(default_factory=list)
    tp_check_time_s: list = field(default_factory=list)
    full_loss: list = field(default_factory=list)   # (iteration, value) pairs
    n_iters: int = 0
    stop_reason: str = "max_iters"


def _terms(tomogram, batch):
    """(probe terms, meas_real, d) for the residuals of a batch of (i, j)
    pairs (pair b: rho_i and M_j), all probes and measurements if batch
    is None, or None for an empty batch."""
    (amps, signs), meas, d = (tomogram.probe_factors, tomogram.meas_real,
                              tomogram.data)
    if batch is not None:
        idx = np.asarray(batch, dtype=int)
        if idx.size == 0:
            return None
        i, j = idx[:, 0], idx[:, 1]
        amps, signs, meas, d = amps[i], signs[i], meas[j], d[i, j]
    return probe_terms((amps, signs)), meas, d


def _objective(stack, terms, lam, with_grad):
    """The loss at a raw kN x N stack, and its gradient if with_grad, on
    :func:`_terms` of the batch.  One |K| serves the L1 value and the
    elementwise phase.  Returns (float, kN x N array or None)."""
    n = stack.shape[1]
    blocks = stack.reshape(-1, n, n)
    mod = np.abs(blocks)
    value = lam * float(mod.sum())
    grad = None
    if with_grad:
        grad = np.divide(blocks, mod, out=np.zeros_like(blocks),
                         where=mod >= _SIGN_EPS)
        grad *= lam
    if terms is not None:
        probes, meas, d = terms
        res, phi = factored_expectations(blocks, probes, meas, d.ndim == 1)
        res -= d                                    # e - d, in place
        value += float((res * res).sum())
        if with_grad:
            res += res              # sum r^2 pulls back as 2 r, exactly
            grad += factored_pullback(phi, probes, meas, res, d.ndim == 1)
    return value, None if grad is None else grad.reshape(-1, n)


def value_and_grad(kraus, tomogram, batch=None, lam=1e-3):
    """The loss and its conjugate (Wirtinger) gradient from one forward pass.

    The loss is the squared-residual sum over the batch (an iterable of
    (i, j) index pairs, None meaning all entries) plus lam * sum of entry
    moduli.  Gradient block l is -2 sum_i W_i K_l rho_i + lam * sign(K_l),
    with W_i = sum_j r_ij M_j (r the residual, sign the elementwise phase,
    0 at 0).  Returns (float, kN x N array).
    """
    return _objective(kraus.stacked, _terms(tomogram, batch), lam, True)


def loss(kraus, tomogram, batch=None, lam=1e-3):
    """Squared-residual sum over the batch plus lam * sum of entry moduli.

    batch is an iterable of (i, j) index pairs; None means all entries.
    """
    return _objective(kraus.stacked, _terms(tomogram, batch), lam, False)[0]


def wirtinger_gradient(kraus, tomogram, batch=None, lam=1e-3):
    """Conjugate gradient of the loss w.r.t. the stacked Kraus matrix.

    The gradient half of :func:`value_and_grad`; a kN x N array,
    validated against central finite differences in tests.
    """
    return value_and_grad(kraus, tomogram, batch, lam)[1]


def cayley_step(kraus, grad, eta):
    """One Cayley-retraction update K' = K - eta A (I + eta/2 B^dag A)^-1 B^dag K.

    A = [G K] and B = [K -G] (kN x 2N), the Sherman-Morrison-Woodbury form
    of the Cayley transform; the result stays orthonormal.  The inner
    system is never singular: by Sylvester's identity its determinant is
    det(I + eta/2 W) with W = G K^dag - K G^dag skew-Hermitian.  A stack
    that is not TP (:meth:`KrausStack.is_tp`) is rejected.
    """
    if not kraus.is_tp():
        raise ValueError("cayley_step requires an orthonormal (TP) stack")
    stack = kraus.stacked
    grad = np.asarray(grad)
    if grad.shape != stack.shape:
        raise ValueError(f"gradient shape {grad.shape} != stack {stack.shape}")
    return KrausStack.from_stacked(_cayley(stack, grad, eta), kraus.dim)


def _cayley(stack, grad, eta):
    """:func:`cayley_step` on a raw kN x N stack known to be TP; B^dag K is
    the right half of B^dag A, so one product serves both."""
    n = stack.shape[1]
    a = np.concatenate([grad, stack], axis=1)
    bh = np.concatenate([stack, -grad], axis=1).conj().T
    bha = bh @ a
    inner = 0.5 * eta * bha
    inner.reshape(-1)[::2 * n + 1] += 1.0          # I + eta/2 B^dag A
    return stack - eta * (a @ np.linalg.solve(inner, bha[:, n:]))


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
    current stack: its value, the loss after the previous step, is recorded
    and plateau-checked there, and its gradient drives the next step; one
    value-only pass closes the trace.  ``trace.loss[t]`` is the loss after
    step t on the batch of step t + 1 (the full loss in full batch).  The
    loop runs on the raw kN x N stack; only the result is wrapped.

    cfg.k above N^2, the largest Choi rank, raises ValueError.  ``init``
    overrides the random starting point; it must be a TP stack with cfg.k
    blocks of the tomogram's dimension.  The TP defect recorded after each
    step is the check the next step relies on: above 1e-8 or NaN, the fit
    raises np.linalg.LinAlgError, a numerical failure (a ValueError too).

    Returns (KrausStack, FitTrace).
    """
    if cfg.k > tomogram.dim ** 2:
        raise ValueError(f"k = {cfg.k} exceeds the Choi rank bound "
                         f"N^2 = {tomogram.dim ** 2}")
    rng = np.random.default_rng(cfg.seed)
    if init is None:
        init = init_kraus(cfg.k, tomogram.dim, rng)
    else:
        if init.count != cfg.k or init.dim != tomogram.dim:
            raise ValueError(f"init has {init.count} blocks of dim {init.dim}; "
                             f"expected {cfg.k} of dim {tomogram.dim}")
        if not init.is_tp():
            raise ValueError("init stack is not trace-preserving")
    stack = init.stacked
    trace = FitTrace()
    full_batch = (cfg.batch_size is None
                  or cfg.batch_size >= tomogram.num_entries)
    stream = None if full_batch else batch_stream(tomogram, cfg.batch_size, rng)
    full_terms = _terms(tomogram, None)
    eta = cfg.eta0
    prev_full = None
    for it in range(cfg.max_iters + 1):
        t0 = time.perf_counter()
        terms = full_terms if full_batch else _terms(tomogram, next(stream))
        last = it == cfg.max_iters
        value, grad = _objective(stack, terms, cfg.lam, not last)
        if it:
            # value is the loss after the step taken in iteration it - 1
            trace.loss.append(value)
            if it % cfg.plateau_window == 0:
                full = (value if full_batch else
                        _objective(stack, full_terms, cfg.lam, False)[0])
                trace.full_loss.append((it, full))
                if prev_full is not None:
                    rel = abs(prev_full - full) / max(abs(full), 1e-300)
                    if rel < cfg.plateau_tol:
                        trace.stop_reason = "plateau"
                        break
                prev_full = full
        if last:
            break
        t1 = time.perf_counter()
        gnorm = float(np.linalg.norm(grad))
        if gnorm < cfg.grad_norm_floor:
            trace.stop_reason = "gradient_floor"
            break
        stack = _cayley(stack, grad / gnorm, eta)
        t2 = time.perf_counter()
        defect = tp_defect(stack)
        if not defect <= VALID_TOL:  # NaN fails too
            raise np.linalg.LinAlgError(f"step {it} left the orthonormal "
                                        f"manifold: tp_defect {defect:.3e}")
        t3 = time.perf_counter()
        trace.grad_norm.append(gnorm)
        trace.eta.append(eta)
        trace.tp_defect.append(defect)
        trace.pass_time_s.append(t1 - t0)
        trace.cayley_time_s.append(t2 - t1)
        trace.tp_check_time_s.append(t3 - t2)
        trace.iter_time_s.append(time.perf_counter() - t0)
        trace.n_iters = it + 1
        eta *= cfg.decay
    return KrausStack.from_stacked(stack, tomogram.dim), trace
