"""Tomogram synthesis, subsampling, batching, sensing matrices, and file I/O.

A tomogram bundles probes and measurements in the forward model's forms,
the (noisy) expectation data d[i, j], and provenance metadata.  Files are
single JSON documents with a mandatory schema_version; complex matrices
are stored as nested arrays of [re, im] pairs.
"""

from __future__ import annotations

import csv
import itertools
import json

import numpy as np

from .core import (KrausStack, factor_states, factored_expectations,
                   probe_terms, real_observables)
from . import cv, dv

SCHEMA_VERSION = 1

# Guard for the (P*Q) x N^4 sensing matrix.
_MAX_SENSING_BYTES = 4 << 30
# Guard for building a phase-space grid of P points, against the 2 GiB of
# dv's Pauli guard.  Displaced parities hold four (P, N, N) complex stacks at
# once (tracemalloc: 4.01 P + 1 N x N arrays at N = 256), and the one eigh
# about six N x N arrays (three counted by tracemalloc, three for LAPACK's
# copy and workspace); 4 P + 6 <= _GRID_WORK_ARRAYS * (P + 1) N x N arrays.
_MAX_GRID_BYTES = 2 << 30
_GRID_WORK_ARRAYS = 5


class SchemaError(ValueError):
    """Raised for unknown or malformed tomogram/reconstruction files."""


def complex_to_json(mat):
    """Encode a complex array as nested lists of [re, im] pairs."""
    mat = np.asarray(mat)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def complex_from_json(obj):
    """Decode nested [re, im] lists back into a complex array; SchemaError
    if the innermost lists are not pairs."""
    arr = np.asarray(obj, dtype=float)
    if arr.shape[-1:] != (2,):
        raise SchemaError(f"expected nested [re, im] pairs, got an array "
                          f"of shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _forms(probes, measurements):
    """The probe factors (A, S) and the real measurement matrix T of two
    (P, N, N) stacks, sequences of N x N arrays or (P, N) kets of pure
    states, which are their own factors (R = 1, S = 1)."""
    rho = np.ascontiguousarray(probes, dtype=complex)
    meas = np.ascontiguousarray(measurements, dtype=complex)
    factors = (factor_states(rho) if rho.ndim == 3
               else (rho[:, :, None], np.ones((len(rho), 1))))
    if meas.ndim == 2:
        meas = meas[:, :, None] * meas[:, None, :].conj()
    return factors, real_observables(meas)


class Tomogram:
    """Probes, measurements, data matrix, and metadata for one experiment.

    The forward model's forms are all it stores of each side: the probe
    factors (A, S) of :func:`core.factor_states` (pure probes: their kets)
    and the real (Q, N^2) measurement matrix T of
    :func:`core.real_observables`.  ``probes`` and ``measurements`` rebuild
    the dense stacks on each access.  Data, noise_sigma and the truth's
    Kraus entries must be finite, and the truth must have dimension dim.
    """

    def __init__(self, kind, dim, probe_factors, meas_real, data, noise_sigma,
                 seed=None, probe_spec=None, meas_spec=None, truth=None):
        self.kind = kind
        self.dim = int(dim)
        amps, signs = probe_factors
        self.data = np.asarray(data, dtype=float)
        p, q = len(amps), len(meas_real)
        if (amps.shape[1:2] != (self.dim,) or self.data.shape != (p, q)
                or meas_real.shape != (q, self.dim ** 2)):
            raise ValueError(
                f"probe factors {amps.shape}, measurements {meas_real.shape} "
                f"and data {self.data.shape} do not match dim {self.dim}")
        if not 0 <= noise_sigma < np.inf:
            raise ValueError(f"noise_sigma {noise_sigma} must be finite, >= 0")
        if not np.isfinite(self.data).all():
            raise ValueError("data must be finite")
        if truth is not None and truth.dim != self.dim:
            raise ValueError(f"truth has dim {truth.dim}, expected {self.dim}")
        if truth is not None and not np.isfinite(truth.blocks).all():
            raise ValueError("truth must be finite")
        self.noise_sigma = float(noise_sigma)
        self.seed = seed
        self.probe_spec = probe_spec or {"type": "explicit"}
        self.meas_spec = meas_spec or {"type": "explicit"}
        self.truth = truth
        self.probe_factors = (amps, signs)
        self.meas_real = meas_real

    @property
    def probes(self):
        """The dense (P, N, N) probe stack rho_i = A_i S_i A_i^dag."""
        amps, signs = self.probe_factors
        return (amps * signs[:, None, :]) @ amps.conj().swapaxes(1, 2)

    @property
    def measurements(self):
        """The dense (Q, N, N) measurement stack: for Hermitian M, Re M =
        (T + T^T) / 2 and Im M = (T - T^T) / 2."""
        t = self.meas_real.reshape(-1, self.dim, self.dim)
        return 0.5 * (t + t.swapaxes(1, 2)) + 0.5j * (t - t.swapaxes(1, 2))

    @property
    def num_probes(self):
        return len(self.probe_factors[0])

    @property
    def num_measurements(self):
        return len(self.meas_real)

    @property
    def num_entries(self):
        return self.data.size


def synthesize(process, probes, measurements, noise_sigma, rng=None, *,
               kind="dv", seed=None, probe_spec=None, meas_spec=None,
               keep_truth=True):
    """Simulate a tomography experiment with i.i.d. Gaussian noise.

    Noise eta ~ N(0, noise_sigma) is added to every entry; values are not
    clipped to the physical range of the observables.  Each side is a
    (P, N, N) stack, a sequence of N x N arrays or the (P, N) kets of pure
    states, and is turned once into the forms of the returned tomogram.
    """
    factors, meas_real = _forms(probes, measurements)
    data = factored_expectations(process.blocks, probe_terms(factors),
                                 meas_real)[0]
    if noise_sigma > 0:
        if rng is None:
            raise ValueError("rng is required when noise_sigma > 0")
        data = data + rng.normal(0.0, noise_sigma, data.shape)
    return Tomogram(kind, process.dim, factors, meas_real, data,
                    noise_sigma, seed=seed, probe_spec=probe_spec,
                    meas_spec=meas_spec, truth=process if keep_truth else None)


def _subsample_spec(spec, indices):
    spec = dict(spec)
    if "indices" in spec:
        spec["indices"] = [spec["indices"][i] for i in indices]
    else:
        spec["indices"] = [int(i) for i in indices]
    return spec


def subsample(tomogram, gamma, rng):
    """Keep a random sqrt(gamma) fraction of probes and of measurements.

    The retained fraction of data entries is then approximately gamma.
    Selection is without replacement and deterministic for a given rng.
    """
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    n_p = round(np.sqrt(gamma) * tomogram.num_probes)
    n_m = round(np.sqrt(gamma) * tomogram.num_measurements)
    if n_p < 1 or n_m < 1:
        raise ValueError(f"gamma={gamma} retains an empty probe or "
                         f"measurement selection")
    pi = np.sort(rng.choice(tomogram.num_probes, n_p, replace=False))
    mi = np.sort(rng.choice(tomogram.num_measurements, n_m, replace=False))
    amps, signs = tomogram.probe_factors
    return Tomogram(tomogram.kind, tomogram.dim, (amps[pi], signs[pi]),
                    tomogram.meas_real[mi], tomogram.data[np.ix_(pi, mi)],
                    tomogram.noise_sigma, seed=tomogram.seed,
                    probe_spec=_subsample_spec(tomogram.probe_spec, pi),
                    meas_spec=_subsample_spec(tomogram.meas_spec, mi),
                    truth=tomogram.truth)


def batches(tomogram, batch_size, rng):
    """Infinite stream of (i, j) index batches, uniform without replacement.

    If batch_size covers the whole dataset, every batch is the full index
    set in row-major order (full-batch mode).
    """
    total = tomogram.num_entries
    n_m = tomogram.num_measurements
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if batch_size >= total:
        full = np.array(list(itertools.product(range(tomogram.num_probes),
                                               range(n_m))))
        while True:
            yield full
    while True:
        flat = rng.choice(total, batch_size, replace=False)
        yield np.column_stack([flat // n_m, flat % n_m])


def sensing_matrix(probes, measurements):
    """The matrix S with S @ flatten(Choi) = predicted data vector.

    One row per (probe, measurement) pair in row-major pair order.  Row
    (i, j) is the conjugated row-major flattening of rho_i^T (x) M_j,
    which reproduces the partial-trace channel action exactly.  A dense
    reference: ``pls.linear_inversion`` uses its Kronecker factors
    instead, and tests check it against ``pinv(S)``.
    """
    rho = np.ascontiguousarray(probes, dtype=complex)
    meas = np.ascontiguousarray(measurements, dtype=complex)
    p, n = rho.shape[0], rho.shape[1]
    q = meas.shape[0]
    nbytes = p * q * n ** 4 * 16
    if nbytes > _MAX_SENSING_BYTES:
        raise MemoryError(f"sensing matrix would need ~{nbytes / 2**30:.1f} GiB")
    s = np.einsum("pik,qjl->pqijkl", rho.transpose(0, 2, 1), meas)
    return s.reshape(p * q, n ** 4).conj()


def _indices(spec, size):
    """The descriptor's optional indices, each checked to be in [0, size)."""
    idx = spec.get("indices")
    if idx is not None and not (isinstance(idx, list) and all(
            isinstance(i, int) and 0 <= i < size for i in idx)):
        raise SchemaError(f"indices must be a list of integers in [0, {size})")
    return idx


def materialize_probes(spec, dim):
    """The operators of an explicit, pauli, coherent_grid or
    displaced_parity_grid descriptor: the (P, N) kets of the pure Pauli
    and coherent states, the stacked (P, N, N) operators of the other
    types.  :func:`synthesize` takes either, and :func:`load` turns them
    into a tomogram's forms.  The one place a descriptor is validated: a
    malformed field, an index out of range, 2**n_qubits != dim or an
    unknown type is a SchemaError, and a stack too large to build in
    memory a MemoryError.
    """
    kind = expect_object(spec, "a probe/measurement descriptor").get("type")
    try:
        if kind == "explicit":
            mats = complex_from_json(spec["matrices"])
            if mats.shape[1:] != (dim, dim):
                raise SchemaError(f"matrices of shape {mats.shape}, dim {dim}")
            return mats
        if kind == "pauli":
            n = spec["n_qubits"]
            # bit_length first, so 2**n is never formed for a huge n.
            if not (isinstance(n, int) and n == int(dim).bit_length() - 1
                    and 2 ** n == dim):
                raise SchemaError(f"n_qubits {n!r} does not match dim {dim}")
            return dv.pauli_kets(n, _indices(spec, 6 ** n))
        if kind in ("coherent_grid", "displaced_parity_grid"):
            # Sized from rows x cols or the indices: no point is built yet.
            grid = cv.CvGrid.from_dict(spec["grid"])
            idx = _indices(spec, grid.rows * grid.cols)
            count = grid.rows * grid.cols if idx is None else len(idx)
            if ((count + 1) * _GRID_WORK_ARRAYS * dim ** 2 * 16
                    > _MAX_GRID_BYTES):
                raise MemoryError(
                    f"a {kind} of {count} points at dim {dim} needs more "
                    f"than {_MAX_GRID_BYTES >> 30} GiB")
            pts = grid.points if idx is None else grid.points_at(idx)
            if kind == "coherent_grid":
                return cv.coherent_ket(pts, dim)
            return cv.displaced_parity(pts, dim)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"malformed {kind} descriptor: {exc}") from exc
    raise SchemaError(f"unknown probe/measurement descriptor: {kind!r}")


def save(tomogram, path):
    """Write a tomogram as a JSON document (lossless for data and metadata;
    explicit sets are rebuilt from the stored forms, exact to rounding)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": tomogram.kind,
        "dim": tomogram.dim,
        "probes": tomogram.probe_spec,
        "measurements": tomogram.meas_spec,
        "data": tomogram.data.tolist(),
        "noise_sigma": tomogram.noise_sigma,
        "seed": tomogram.seed,
    }
    for side in ("probes", "measurements"):     # the dense views' names
        if doc[side].get("type", "explicit") == "explicit":
            doc[side] = {**doc[side], "type": "explicit",
                         "matrices": complex_to_json(getattr(tomogram, side))}
    if tomogram.truth is not None:
        doc["truth"] = {"kraus": [complex_to_json(k)
                                  for k in tomogram.truth.blocks]}
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))


def expect_object(value, what):
    """Return value if it is a JSON object (dict); SchemaError otherwise."""
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be a JSON object, "
                          f"got {type(value).__name__}")
    return value


def read_document(path):
    """Parse a JSON file holding an object with the current schema_version."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"malformed JSON in {path}: {exc}") from exc
    expect_object(doc, f"the document in {path}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version!r} in {path}")
    return doc


def load(path):
    """Read a tomogram written by :func:`save`."""
    doc = read_document(path)
    try:
        dim = doc["dim"]
        if not isinstance(dim, int) or dim < 1:
            raise SchemaError(f"dim must be a positive integer, got {dim!r}")
        truth = None
        if "truth" in doc:
            kraus = expect_object(doc["truth"], "truth")["kraus"]
            truth = KrausStack(complex_from_json(kraus))
        factors, meas_real = _forms(
            materialize_probes(doc["probes"], dim),
            materialize_probes(doc["measurements"], dim))
        return Tomogram(doc["kind"], dim, factors, meas_real, doc["data"],
                        doc["noise_sigma"], seed=doc.get("seed"),
                        probe_spec={k: v for k, v in doc["probes"].items()
                                    if k != "matrices"},
                        meas_spec={k: v for k, v in doc["measurements"].items()
                                   if k != "matrices"},
                        truth=truth)
    except KeyError as exc:
        raise SchemaError(f"missing key {exc} in {path}") from exc


def export_csv(tomogram, path):
    """Dump the data matrix as probe_index,measurement_index,value rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["probe_index", "measurement_index", "value"])
        for i in range(tomogram.num_probes):
            for j in range(tomogram.num_measurements):
                writer.writerow([i, j, repr(float(tomogram.data[i, j]))])
