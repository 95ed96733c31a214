"""Projected-least-squares baseline: linear inversion + CPTP projection.

The unconstrained Choi estimate is a factored linear inversion: every
tomogram is a probe set x measurement set, so the sensing matrix is
S = (R (x) M) P with P a column permutation, and its pseudo-inverse
factors as P^T (pinv R (x) pinv M) (Surawy-Stepney et al., Quantum 6,
844 (2022)); R is the flattened probe stack and M is formed straight
from the tomogram's real measurement matrix T.  The dense S
(``data.sensing_matrix``) is never built; it remains only as a reference
oracle.  The estimate is then projected onto the CPTP set with Dykstra's
alternating projections between the PSD cone (CP) and the TP affine
subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ChoiMatrix, partial_trace_out


class InformationIncompleteError(ValueError):
    """Raised when the data cannot determine the process uniquely."""


@dataclass
class PlsConfig:
    dykstra_max_iters: int = 1000
    dykstra_tol: float = 1e-7

    def __post_init__(self):
        if self.dykstra_max_iters < 1 or not 0 < self.dykstra_tol < np.inf:
            raise ValueError("iterations and tolerance must be finite and > 0")

    def to_dict(self):
        return {"dykstra_max_iters": self.dykstra_max_iters,
                "dykstra_tol": self.dykstra_tol,
                "projection": "dykstra-alternating"}


@dataclass
class PlsResult:
    choi: ChoiMatrix
    converged: bool
    cycles: int


def linear_inversion(tomogram):
    """Unconstrained least-squares Choi estimate, Hermitized.

    With R holding the conjugated, flattened rho_i^T and M the
    conjugated, flattened M_j, the data are d = R X M^T for X a
    reshuffle of the Choi matrix, so X = pinv(R) d pinv(M)^T.  Probes
    are Hermitian, so R is the flattened rho_i; for Hermitian M_j,
    conj(M_j) = (T + T^T)/2 - i (T - T^T)/2 from the real T.  Requires
    an informationally complete tomogram (rank R = rank M = N^2);
    raises InformationIncompleteError otherwise.
    """
    n = tomogram.dim
    n2 = n * n
    r = tomogram.probes.reshape(-1, n2)
    t = tomogram.meas_real.reshape(-1, n, n)
    m = (0.5 * (t + t.swapaxes(1, 2))
         - 0.5j * (t - t.swapaxes(1, 2))).reshape(-1, n2)
    ranks = np.linalg.matrix_rank(r), np.linalg.matrix_rank(m)
    if min(ranks) < n2:
        raise InformationIncompleteError(
            f"probe rank {ranks[0]} and measurement rank {ranks[1]} must both "
            f"be {n2}: the probe and measurement sets are not informationally "
            f"complete (subsampled or too few operators); linear inversion "
            f"has no unique solution")
    x = np.linalg.pinv(r) @ tomogram.data @ np.linalg.pinv(m).T
    # x[(i, k), (j, l)] = Choi[(i, j), (k, l)]
    est = x.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n2, n2)
    return ChoiMatrix(0.5 * (est + est.conj().T))


def project_cp(choi):
    """Frobenius-nearest PSD matrix: clip negative eigenvalues to zero."""
    mat = 0.5 * (choi.mat + choi.mat.conj().T)
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, 0.0, None)
    return ChoiMatrix((v * w) @ v.conj().T)


def project_tp(choi):
    """Orthogonal projection onto the trace-preserving affine subspace.

    Adds X (x) I_out with X = (I - Tr_out Phi) / N, which makes the
    output partial trace exactly the identity.
    """
    n = choi.dim
    x = (np.eye(n) - partial_trace_out(choi)) / n
    return ChoiMatrix(choi.mat + np.kron(x, np.eye(n)))


def tp_violation(choi):
    """Frobenius distance of Tr_out(Phi) from the identity."""
    return float(np.linalg.norm(partial_trace_out(choi) - np.eye(choi.dim)))


def cp_violation(choi):
    """Magnitude of the most negative eigenvalue (0 if PSD)."""
    w = np.linalg.eigvalsh(0.5 * (choi.mat + choi.mat.conj().T))
    return float(max(0.0, -w[0]))


def project_cptp(choi, cfg=None):
    """Project onto the CPTP set with Dykstra's alternating projections.

    Only the CP step needs a correction term: the TP set is affine, and
    project_tp discards the X (x) I terms a TP correction would add.
    Stops when the Frobenius change per cycle drops below dykstra_tol;
    past dykstra_max_iters the last iterate is returned flagged
    non-converged.
    """
    cfg = cfg or PlsConfig()
    x = ChoiMatrix(0.5 * (choi.mat + choi.mat.conj().T))
    p = np.zeros_like(x.mat)
    cycles = 0
    converged = False
    for cycles in range(1, cfg.dykstra_max_iters + 1):
        y = project_cp(ChoiMatrix(x.mat + p))
        p = x.mat + p - y.mat
        x_new = project_tp(y)
        delta = float(np.linalg.norm(x_new.mat - x.mat))
        x = x_new
        if delta < cfg.dykstra_tol:
            converged = True
            break
    return PlsResult(x, converged, cycles)


def fit_pls(tomogram, cfg=None):
    """Estimate-then-project reconstruction: linear inversion + CPTP projection."""
    return project_cptp(linear_inversion(tomogram), cfg)
