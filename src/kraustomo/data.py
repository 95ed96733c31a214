"""Tomogram synthesis, subsampling, batching, sensing matrices, and file I/O.

A tomogram bundles probes, measurement operators, the (noisy) expectation
data d[i, j], and provenance metadata.  Files are single JSON documents
with a mandatory schema_version; complex matrices are stored as nested
arrays of [re, im] pairs.
"""

from __future__ import annotations

import csv
import itertools
import json

import numpy as np

from .core import (DensityMatrix, KrausStack, factor_states,
                   factored_expectations, real_observables)
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
    """Decode nested [re, im] lists back into a complex array."""
    arr = np.asarray(obj, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _stack_states(states):
    if isinstance(states, np.ndarray):  # already a stack: no copy
        return np.ascontiguousarray(states, dtype=complex)
    mats = [s.mat if isinstance(s, DensityMatrix) else np.asarray(s, dtype=complex)
            for s in states]
    return np.ascontiguousarray(mats)


class Tomogram:
    """Probes, measurements, data matrix, and metadata for one experiment.

    ``probes`` and ``measurements`` are the dense (P, N, N) and (Q, N, N)
    stacks, which PLS and file I/O read.  The forward model reads
    ``probe_factors``, the probes' factorization
    (:func:`core.factor_states`), and ``meas_real``, the measurements' real
    (Q, N^2) form (:func:`core.real_observables`).  Both are computed here
    unless the caller already holds them (synthesis, subsampling, Pauli and
    coherent probes built from their kets); probes and measurements must be
    Hermitian.
    """

    def __init__(self, kind, dim, probes, measurements, data, noise_sigma,
                 seed=None, probe_spec=None, meas_spec=None, truth=None,
                 probe_factors=None, meas_real=None):
        self.kind = kind
        self.dim = int(dim)
        self.probes = _stack_states(probes)
        self.measurements = _stack_states(measurements)
        self.data = np.asarray(data, dtype=float)
        if self.data.shape != (len(self.probes), len(self.measurements)):
            raise ValueError(
                f"data shape {self.data.shape} does not match "
                f"{len(self.probes)} probes x {len(self.measurements)} measurements")
        if noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
        self.noise_sigma = float(noise_sigma)
        self.seed = seed
        self.probe_spec = probe_spec or {"type": "explicit"}
        self.meas_spec = meas_spec or {"type": "explicit"}
        self.truth = truth
        self.probe_factors = (factor_states(self.probes)
                              if probe_factors is None else probe_factors)
        self.meas_real = (real_observables(self.measurements)
                          if meas_real is None else meas_real)

    @property
    def num_probes(self):
        return len(self.probes)

    @property
    def num_measurements(self):
        return len(self.measurements)

    @property
    def num_entries(self):
        return self.data.size


def synthesize(process, probes, measurements, noise_sigma, rng=None, *,
               kind="dv", seed=None, probe_spec=None, meas_spec=None,
               keep_truth=True, probe_factors=None):
    """Simulate a tomography experiment with i.i.d. Gaussian noise.

    Noise eta ~ N(0, noise_sigma) is added to every entry; values are not
    clipped to the physical range of the observables.  The probes are
    factored (unless probe_factors already holds their factors), and the
    measurements flattened to their real form, once, for the data and for
    the returned tomogram.
    """
    rho, meas = _stack_states(probes), _stack_states(measurements)
    factors = factor_states(rho) if probe_factors is None else probe_factors
    meas_real = real_observables(meas)
    data = factored_expectations(process.blocks, factors, meas_real)[0]
    if noise_sigma > 0:
        if rng is None:
            raise ValueError("rng is required when noise_sigma > 0")
        data = data + rng.normal(0.0, noise_sigma, data.shape)
    return Tomogram(kind, process.dim, rho, meas, data,
                    noise_sigma, seed=seed, probe_spec=probe_spec,
                    meas_spec=meas_spec, truth=process if keep_truth else None,
                    probe_factors=factors, meas_real=meas_real)


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
    return Tomogram(tomogram.kind, tomogram.dim,
                    tomogram.probes[pi], tomogram.measurements[mi],
                    tomogram.data[np.ix_(pi, mi)], tomogram.noise_sigma,
                    seed=tomogram.seed,
                    probe_spec=_subsample_spec(tomogram.probe_spec, pi),
                    meas_spec=_subsample_spec(tomogram.meas_spec, mi),
                    truth=tomogram.truth, probe_factors=(amps[pi], signs[pi]),
                    meas_real=tomogram.meas_real[mi])


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
    rho = _stack_states(probes)
    meas = _stack_states(measurements)
    p, n = rho.shape[0], rho.shape[1]
    q = meas.shape[0]
    nbytes = p * q * n ** 4 * 16
    if nbytes > _MAX_SENSING_BYTES:
        raise MemoryError(f"sensing matrix would need ~{nbytes / 2**30:.1f} GiB")
    s = np.einsum("pik,qjl->pqijkl", rho.transpose(0, 2, 1), meas)
    return s.reshape(p * q, n ** 4).conj()


def predict_from_choi(s, choi):
    """Predicted (real) data vector for a Choi matrix under sensing matrix s."""
    return np.real(s @ choi.mat.ravel())


def _spec_with_matrices(spec, mats):
    if spec.get("type", "explicit") != "explicit":
        return spec
    return {**spec, "type": "explicit", "matrices": complex_to_json(mats)}


def _indices(spec, size):
    """The descriptor's optional indices, each checked to be in [0, size)."""
    idx = spec.get("indices")
    if idx is not None and not (isinstance(idx, list) and all(
            isinstance(i, int) and 0 <= i < size for i in idx)):
        raise SchemaError(f"indices must be a list of integers in [0, {size})")
    return idx


def _pure_states(kets):
    """The projectors |k><k| of (P, N) kets, and the kets as their factors
    (A, S) with R = 1 and S = 1 (see :func:`core.factor_states`)."""
    kets = kets[:, :, None]
    return (kets * kets.swapaxes(1, 2).conj(),
            (kets, np.ones((len(kets), 1))))


def materialize_probes(spec, dim):
    """The stacked (P, N, N) operators of an explicit, pauli, coherent_grid
    or displaced_parity_grid descriptor, and their factors where the build
    gives them.

    Returns (stack, factors): for Pauli states and a coherent grid, factors
    are the kets the projectors are built from (:func:`_pure_states`); for
    the other types, None.  The one place a descriptor is validated: a
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
            return mats, None
        if kind == "pauli":
            n = spec["n_qubits"]
            # bit_length first, so 2**n is never formed for a huge n.
            if not (isinstance(n, int) and n == int(dim).bit_length() - 1
                    and 2 ** n == dim):
                raise SchemaError(f"n_qubits {n!r} does not match dim {dim}")
            return _pure_states(dv.pauli_kets(n, _indices(spec, 6 ** n)))
        if kind in ("coherent_grid", "displaced_parity_grid"):
            pts = cv.CvGrid.from_dict(spec["grid"]).points
            idx = _indices(spec, len(pts))
            if idx is not None:
                pts = pts[idx]
            if ((len(pts) + 1) * _GRID_WORK_ARRAYS * dim ** 2 * 16
                    > _MAX_GRID_BYTES):
                raise MemoryError(
                    f"a {kind} of {len(pts)} points at dim {dim} needs more "
                    f"than {_MAX_GRID_BYTES >> 30} GiB")
            if kind == "coherent_grid":
                return _pure_states(cv.coherent_ket(pts, dim))
            return cv.displaced_parity(pts, dim), None
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"malformed {kind} descriptor: {exc}") from exc
    raise SchemaError(f"unknown probe/measurement descriptor: {kind!r}")


def save(tomogram, path):
    """Write a tomogram as a JSON document (lossless for data and metadata)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": tomogram.kind,
        "dim": tomogram.dim,
        "probes": _spec_with_matrices(tomogram.probe_spec, tomogram.probes),
        "measurements": _spec_with_matrices(tomogram.meas_spec,
                                            tomogram.measurements),
        "data": tomogram.data.tolist(),
        "noise_sigma": tomogram.noise_sigma,
        "seed": tomogram.seed,
    }
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
            truth = KrausStack(np.array([complex_from_json(k) for k in kraus]))
        probes, factors = materialize_probes(doc["probes"], dim)
        return Tomogram(doc["kind"], dim, probes,
                        materialize_probes(doc["measurements"], dim)[0],
                        doc["data"], doc["noise_sigma"], seed=doc.get("seed"),
                        probe_spec={k: v for k, v in doc["probes"].items()
                                    if k != "matrices"},
                        meas_spec={k: v for k, v in doc["measurements"].items()
                                   if k != "matrices"},
                        truth=truth, probe_factors=factors)
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
