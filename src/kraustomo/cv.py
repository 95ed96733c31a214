"""Continuous-variable building blocks in a truncated Fock space.

Operators are constructed directly in the truncated space (dimension N,
default cutoff 32).  Displacements are accurate while |alpha|^2 << N.
The displacement builders take one point (one operator) or an array of
points (the stack, of shape points.shape + the operator's) and run one
eigh per call, i(a^dag - a) = V diag(w) V^dag, with D(r e^{i phi}) =
R V e^{-i r w} V^dag R^dag, R = diag(e^{i n phi}); a call warns once if
its largest |alpha|^2 exceeds N/4.
"""

from __future__ import annotations

import math
import numbers
import warnings

import numpy as np

from .core import KrausStack

DEFAULT_CUTOFF = 32
DEFAULT_ALPHA = 1.5
DEFAULT_PHASES = (np.pi / 2, np.pi / 2, -np.pi / 2, -np.pi / 2,
                  np.pi / 2, np.pi / 2)


class CvGrid:
    """A rectangular grid of complex phase-space points.

    Points are ordered row-major: index = r * cols + c, where r runs over
    the real part and c over the imaginary part, endpoints included.  The
    bounds must be finite reals and rows and cols integers >= 1 (NumPy
    scalars included, bool and str not); ValueError otherwise.
    """

    def __init__(self, re_min, re_max, im_min, im_max, rows, cols):
        bounds = (re_min, re_max, im_min, im_max)
        if not all(isinstance(b, numbers.Real) and not isinstance(b, bool)
                   and math.isfinite(b) for b in bounds):
            raise ValueError(f"grid bounds must be finite real numbers, "
                             f"got {bounds!r}")
        if not all(isinstance(m, numbers.Integral) and not isinstance(m, bool)
                   and m >= 1 for m in (rows, cols)):
            raise ValueError(f"grid rows and cols must be integers, at "
                             f"least one each; got {rows!r} and {cols!r}")
        self.re_min, self.re_max = float(re_min), float(re_max)
        self.im_min, self.im_max = float(im_min), float(im_max)
        self.rows, self.cols = int(rows), int(cols)

    @property
    def points(self):
        return self.points_at(np.arange(self.rows * self.cols))

    def points_at(self, indices):
        """The points at the given indices, from the two axes alone."""
        r, c = np.divmod(np.asarray(indices, dtype=int), self.cols)
        re = np.linspace(self.re_min, self.re_max, self.rows)
        im = np.linspace(self.im_min, self.im_max, self.cols)
        return re[r] + 1j * im[c]

    def to_dict(self):
        return {"re_min": self.re_min, "re_max": self.re_max,
                "im_min": self.im_min, "im_max": self.im_max,
                "rows": self.rows, "cols": self.cols}

    @classmethod
    def from_dict(cls, d):
        return cls(d["re_min"], d["re_max"], d["im_min"], d["im_max"],
                   d["rows"], d["cols"])


def probe_grid():
    """Default coherent-probe grid: Re, Im in [-2.5, 2.5], 10 x 10."""
    return CvGrid(-2.5, 2.5, -2.5, 2.5, 10, 10)


def measurement_grid():
    """Default displaced-parity grid: Re, Im in [-3, 3], 10 x 10."""
    return CvGrid(-3.0, 3.0, -3.0, 3.0, 10, 10)


def annihilation(dim):
    """The truncated annihilation operator, a|n> = sqrt(n)|n-1>."""
    if dim < 2:
        raise ValueError(f"cutoff must be at least 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def _polar_parts(alpha, dim):
    """(e, rot, V) with D(alpha) = diag(rot) V diag(e) V^dag diag(rot)^*;
    e and rot have shape alpha.shape + (N,).  The cutoff is checked
    before the truncation warning."""
    a = annihilation(dim)
    alpha = np.asarray(alpha, dtype=complex)
    # Compared unsquared, and squared for the message as a Python float,
    # which overflows to inf without a warning.
    big = float(np.max(np.abs(alpha), initial=0.0))
    if big > np.sqrt(dim / 4):
        warnings.warn(
            f"|alpha|^2 = {big * big:.2f} is large for cutoff {dim}; "
            f"truncation errors may be significant", stacklevel=3)
    w, v = np.linalg.eigh(1j * (a.conj().T - a))
    e = np.exp(-1j * np.abs(alpha)[..., None] * w)
    rot = np.exp(1j * np.angle(alpha)[..., None] * np.arange(dim))
    return e, rot, v


def displacement(alpha, dim):
    """The displacement unitary D(alpha) = exp(alpha a^dag - alpha^* a).

    Computed from the eigendecomposition of the Hermitian generator, so
    the result is exactly unitary in the truncated space.
    """
    e, rot, v = _polar_parts(alpha, dim)
    d = (v * e[..., None, :]) @ v.conj().T
    return rot[..., :, None] * d * rot.conj()[..., None, :]


def coherent_ket(alpha, dim):
    """The coherent ket |alpha> = D(alpha)|0>, renormalized to unit norm
    to absorb the (tiny) truncation loss; only column 0 of D is formed."""
    e, rot, v = _polar_parts(alpha, dim)
    # A row product per point: a ket does not depend on the call's size.
    ket = rot * ((e * v[0].conj())[..., None, :] @ v.T)[..., 0, :]
    return ket / np.linalg.norm(ket, axis=-1, keepdims=True)


def displaced_parity(beta, dim):
    """The displaced-parity observable D(beta) (-1)^n D(-beta)."""
    e, rot, v = _polar_parts(beta, dim)
    parity = (-1.0) ** np.arange(dim)
    u = rot[..., :, None] * v * e[..., None, :]      # R V E
    return u @ ((v.conj().T * parity) @ v) @ u.conj().swapaxes(-1, -2)


def snap(phases, dim):
    """Diagonal unitary adding phase theta_n to Fock state |n>.

    Missing phases (len(phases) < dim) are treated as zero.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.size > dim:
        raise ValueError(f"{phases.size} phases exceed cutoff {dim}")
    full = np.zeros(dim)
    full[:phases.size] = phases
    return np.diag(np.exp(1j * full))


def snap_displace_process(alpha=DEFAULT_ALPHA, phases=DEFAULT_PHASES,
                          dim=DEFAULT_CUTOFF):
    """The unitary target process D(alpha) S(phases) D(-alpha) as a k=1 stack."""
    d_plus, d_minus = displacement(np.array([alpha, -alpha]), dim)
    return KrausStack((d_plus @ snap(phases, dim) @ d_minus)[None])
