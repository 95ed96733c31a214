"""Discrete-variable probe/measurement ensembles and random CPTP processes.

Probes and measurements are tensor products of single-qubit Pauli
eigenstate projectors, ordered lexicographically over the per-qubit labels
(x+, x-, y+, y-, z+, z-).
"""

from __future__ import annotations

import numpy as np

from .core import KrausStack

PAULI_LABELS = ("x+", "x-", "y+", "y-", "z+", "z-")

# Memory guard for a stack of Pauli projectors: P * 4^n * 16 bytes.
_MAX_ENSEMBLE_BYTES = 2 << 30

# Single-qubit eigenstate kets, rows in PAULI_LABELS order (z rows exact).
_KETS = np.array([[1, 1], [1, -1], [1, 1j], [1, -1j], [np.sqrt(2), 0],
                  [0, np.sqrt(2)]]) / np.sqrt(2)


def pauli_label(index, n):
    """The per-qubit label tuple of entry index in the lexicographic 6^n order."""
    return tuple(PAULI_LABELS[d] for d in np.unravel_index(index, (6,) * n))


def pauli_projector(labels):
    """Tensor product of single-qubit eigenstate projectors for a label tuple."""
    ket = np.array([1.0 + 0j])
    for lab in labels:
        ket = np.kron(ket, _KETS[PAULI_LABELS.index(lab)])
    return np.outer(ket, ket.conj())


def pauli_kets(n, indices=None):
    """Stacked (P, 2^n) kets for indices into the 6^n label order.

    indices default to all.  The kets are built as a Kronecker product, one
    qubit at a time: each multiplies in the (6, 2) single-qubit table, row
    chosen by that qubit's base-6 digit of the index.  A selection whose
    projector stack (P * 4^n * 16 bytes) is too large for memory raises
    MemoryError before anything is allocated.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    count = 6 ** n if indices is None else len(indices)
    if count * 4 ** n * 16 > _MAX_ENSEMBLE_BYTES:
        raise MemoryError(
            f"the selected Pauli projectors for n={n} need more than "
            f"{_MAX_ENSEMBLE_BYTES >> 30} GiB; select fewer indices")
    digits = np.unravel_index(np.arange(count) if indices is None
                              else np.asarray(indices, dtype=int), (6,) * n)
    kets = np.ones((count, 1), dtype=complex)
    for digit in digits:
        kets = (kets[:, :, None] * _KETS[digit][:, None, :]).reshape(
            count, 2 * kets.shape[1])
    return kets


def pauli_projectors(n, indices=None):
    """Stacked (P, 2^n, 2^n) projectors |k><k| of :func:`pauli_kets`."""
    kets = pauli_kets(n, indices)
    return kets[:, :, None] * kets[:, None, :].conj()


def random_unitary(dim, rng):
    """A random unitary U = exp(-iH), H = (X + X^dag)/2.

    X has independent real and imaginary parts, each uniform on [-1, 1].
    The exponential is computed from the eigendecomposition of H, so U is
    unitary to machine precision.
    """
    x = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
    h = 0.5 * (x + x.conj().T)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def random_process(dim, rank, rng):
    """A random CPTP process as a weighted combination of random unitaries.

    K_l = w_l U_l with weights drawn uniform on (0, 1] and normalized so
    that sum_l w_l^2 = 1, which makes the stack trace-preserving.
    """
    if not 1 <= rank <= dim * dim:
        raise ValueError(f"rank must be in [1, {dim * dim}], got {rank}")
    weights = 1.0 - rng.random(rank)
    weights /= np.sqrt(np.sum(weights ** 2))
    blocks = np.array([w * random_unitary(dim, rng) for w in weights])
    return KrausStack(blocks)
