"""Projected-least-squares baseline: linear inversion + CPTP projection.

The unconstrained Choi estimate is a factored linear inversion: every
tomogram is a probe set x measurement set, so the sensing matrix is
S = (R (x) M) P with P a column permutation, and its pseudo-inverse
factors as P^T (pinv R (x) pinv M) (Surawy-Stepney et al., Quantum 6,
844 (2022)); R is the flattened probe stack and M the conjugated,
flattened measurement stack, both from the tomogram's dense views.  The
dense S (``data.sensing_matrix``) is never built; it remains only as a
reference oracle.  The estimate C is projected onto the CPTP set by
Dykstra's projections between the PSD cone (CP) and the TP subspace, as
ascent on the dual X(Y) = [C + Y (x) I]_+ (Knee et al., PRA 98, 062336
(2018)); the result is exactly CP and TP to the stopping tolerance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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
        return {**asdict(self), "projection": "dykstra-alternating"}


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
    are Hermitian, so R is the flattened rho_i.  Requires an
    informationally complete tomogram (rank R = rank M = N^2); raises
    InformationIncompleteError otherwise.
    """
    n = tomogram.dim
    n2 = n * n
    r = tomogram.probes.reshape(-1, n2)
    m = tomogram.measurements.conj().reshape(-1, n2)
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


def tp_violation(choi):
    """Frobenius distance of Tr_out(Phi) from the identity."""
    return float(np.linalg.norm(partial_trace_out(choi) - np.eye(choi.dim)))


def cp_violation(choi):
    """Magnitude of the most negative eigenvalue (0 if PSD)."""
    w = np.linalg.eigvalsh(0.5 * (choi.mat + choi.mat.conj().T))
    return float(max(0.0, -w[0]))


@np.errstate(over="ignore", invalid="ignore")
def project_cptp(choi, cfg=None):
    """Project onto the CPTP set with Dykstra's alternating projections.

    The TP step only adds terms Y (x) I, so every CP step's input is
    C + Y (x) I and the loop carries one N x N Y: a cycle is X =
    [C + Y (x) I]_+ and Y += (I - Tr_out X) / N.  Stops when
    ||I - Tr_out X||_F < dykstra_tol and returns X, which is PSD; past
    dykstra_max_iters the last X is returned flagged non-converged.  An
    overflow ends in a non-finite violation: np.linalg.LinAlgError.
    """
    cfg = cfg or PlsConfig()
    n = choi.dim
    c = 0.5 * (choi.mat + choi.mat.conj().T)
    eye = np.eye(n)
    y = np.zeros((n, n), dtype=complex)
    for cycles in range(1, cfg.dykstra_max_iters + 1):
        x = project_cp(ChoiMatrix(c + np.kron(y, eye)))
        gap = eye - partial_trace_out(x)
        violation = float(np.linalg.norm(gap))
        if not np.isfinite(violation):
            raise np.linalg.LinAlgError(
                f"projection cycle {cycles}: TP violation is {violation}")
        if violation < cfg.dykstra_tol:
            return PlsResult(x, True, cycles)
        y += gap / n
    return PlsResult(x, False, cycles)


def fit_pls(tomogram, cfg=None):
    """Estimate-then-project reconstruction: linear inversion + CPTP projection."""
    return project_cptp(linear_inversion(tomogram), cfg)
