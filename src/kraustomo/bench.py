"""Benchmark harness: noise, data-fraction, and timing sweeps.

Each sweep cell (sweep value x seed x method) is an independent,
reproducible job: all randomness is derived from the cell's seed and the
sweep-value index.  Rows go to CSV; per-point mean/std summaries to JSON.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .core import ChoiMatrix, kraus_to_choi, process_fidelity
from .data import SchemaError, expect_object, subsample, synthesize
from .dv import pauli_kets, random_process
from .gd import GdConfig, fit
from .pls import InformationIncompleteError, fit_pls, project_cp

CSV_HEADER = ["sweep_value", "seed", "method", "k", "infidelity",
              "iterations", "wall_time_s", "error"]

# Probe/measurement subset size used for timing cells where the full
# ensemble is unnecessary (per-iteration cost is batch-size bound).
_TIMING_SUBSET = 64


def _count_in(x, lo, hi=math.inf):
    """Whether x is an integer (not a bool) in [lo, hi]."""
    return (isinstance(x, numbers.Integral) and not isinstance(x, bool)
            and lo <= x <= hi)


@dataclass
class SweepSpec:
    sweep: str                       # noise | gamma | timing
    values: list
    seeds: list
    n_qubits: int = 2
    rank: int = 16
    kraus: list = field(default_factory=lambda: [16])
    methods: list = field(default_factory=lambda: ["gd"])
    noise: float = 1e-2              # fixed level for gamma/timing sweeps
    gd: dict = field(default_factory=dict)   # GdConfig overrides

    def __post_init__(self):
        if self.sweep not in ("noise", "gamma", "timing"):
            raise ValueError(f"unknown sweep kind {self.sweep!r}")
        if not self.values or not self.seeds:
            raise ValueError("sweep needs a non-empty value grid and seed list")
        # Keys each cell sets itself: a gd entry for one would be dropped.
        owned = ({"k", "seed", "batch_size", "max_iters"}
                 if self.sweep == "timing" else {"k", "seed"})
        if owned & set(self.gd):
            raise ValueError(f"gd may not set {sorted(owned & set(self.gd))}: "
                             f"the {self.sweep} sweep sets them per cell")
        GdConfig(**self.gd)            # GdConfig checks the other keys
        if set(self.methods) - {"gd", "pls"}:
            raise ValueError(f"unknown methods in {self.methods}: gd or pls")
        if not all(_count_in(s, 0) for s in self.seeds):
            raise ValueError(f"seeds must be non-negative integers, "
                             f"got {self.seeds}")
        if self.sweep == "timing":
            if not all(_count_in(n, 1) for n in self.values):
                raise ValueError(f"timing values are qubit counts >= 1, "
                                 f"got {self.values}")
            k, top = self.timing_kraus, 4 ** min(self.values)
            if not _count_in(k, 1, top):
                raise ValueError(f"a timing sweep's kraus[0] must be an "
                                 f"integer in [1, {top}], got {k!r}")
            return
        if not _count_in(self.n_qubits, 1):
            raise ValueError(f"n_qubits must be an integer >= 1, "
                             f"got {self.n_qubits}")
        top = 4 ** self.n_qubits       # N^2, the largest Choi rank
        if not _count_in(self.rank, 1, top):
            raise ValueError(f"rank must be in [1, {top}], got {self.rank}")
        if "gd" in self.methods and not (
                self.kraus and all(_count_in(k, 1, top) for k in self.kraus)):
            raise ValueError(f"a gd sweep needs a non-empty kraus list with "
                             f"entries in [1, {top}], got {self.kraus}")

    @property
    def timing_kraus(self):
        """The Kraus count of a timing cell's fit: kraus[0], or 3."""
        return self.kraus[0] if self.kraus else 3

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            doc = expect_object(json.load(fh), f"the spec in {path}")
        try:
            return cls(**doc)
        except TypeError as exc:  # unknown or missing keys
            raise SchemaError(f"bad sweep spec in {path}: {exc}") from exc


def _row(value, seed, method, k, infid, iters, wall, error=""):
    return {"sweep_value": value, "seed": seed, "method": method, "k": k,
            "infidelity": infid, "iterations": iters, "wall_time_s": wall,
            "error": error}


def _reconstruct_rows(spec, value, seed, tomogram, truth):
    rows = []
    for method in spec.methods:
        if method == "gd":
            for k in spec.kraus:
                t0 = time.perf_counter()
                est, trace = fit(tomogram,
                                 GdConfig(k=k, seed=seed, **spec.gd))
                wall = time.perf_counter() - t0
                infid = process_fidelity(truth, est).infidelity
                rows.append(_row(value, seed, "gd", k, infid,
                                 trace.n_iters, wall))
        else:
            t0 = time.perf_counter()
            try:
                res = fit_pls(tomogram)
            except InformationIncompleteError:
                rows.append(_row(value, seed, "pls", "", math.nan, 0,
                                 time.perf_counter() - t0))
                continue
            wall = time.perf_counter() - t0
            infid = process_fidelity(truth, res.choi).infidelity
            rows.append(_row(value, seed, "pls", "", infid, res.cycles, wall))
    return rows


def _noise_cell(spec, idx, eps, seed):
    ops = pauli_kets(spec.n_qubits)
    process = random_process(2 ** spec.n_qubits, spec.rank,
                             np.random.default_rng([seed, 1000]))
    tomogram = synthesize(process, ops, ops, eps,
                          np.random.default_rng([seed, 2000 + idx]),
                          kind="dv", seed=seed)
    return _reconstruct_rows(spec, eps, seed, tomogram, process)


def _gamma_cell(spec, idx, gamma, seed):
    ops = pauli_kets(spec.n_qubits)
    process = random_process(2 ** spec.n_qubits, spec.rank,
                             np.random.default_rng([seed, 1000]))
    # One noisy dataset per seed, shared across the gamma grid.
    tomogram = synthesize(process, ops, ops, spec.noise,
                          np.random.default_rng([seed, 2000]),
                          kind="dv", seed=seed)
    sub = subsample(tomogram, gamma, np.random.default_rng([seed, 3000 + idx]))
    return _reconstruct_rows(spec, gamma, seed, sub, process)


def _timing_cell(spec, idx, n, seed):
    rng = np.random.default_rng([seed, 4000 + idx])
    total = 6 ** n
    ops = pauli_kets(n, rng.choice(total, min(total, _TIMING_SUBSET),
                                   replace=False))
    process = random_process(2 ** n, 3, rng)
    tomogram = synthesize(process, ops, ops, spec.noise, rng, kind="dv",
                          seed=seed)
    k = spec.timing_kraus
    _, trace = fit(tomogram, GdConfig(k=k, seed=seed, **spec.gd,
                                      batch_size=256, max_iters=6))
    # The first iteration runs cold (first allocations, cold caches); time
    # the rest.
    gd_time = float(np.mean(trace.iter_time_s[1:]))
    rows = [_row(n, seed, "gd", k, math.nan, trace.n_iters, gd_time)]

    noisy = kraus_to_choi(process).mat
    herm = rng.normal(0, 1e-2, noisy.shape) + 1j * rng.normal(0, 1e-2, noisy.shape)
    noisy = noisy + 0.5 * (herm + herm.conj().T)
    t0 = time.perf_counter()
    project_cp(ChoiMatrix(noisy))
    rows.append(_row(n, seed, "cp_projection", "", math.nan, 1,
                     time.perf_counter() - t0))
    return rows


_CELL_RUNNERS = {"noise": _noise_cell, "gamma": _gamma_cell,
                 "timing": _timing_cell}


def run_sweep(spec):
    """Run every (sweep value, seed) cell; returns the flat list of rows.

    Cell failures are recorded as rows with method "error" and the
    exception message in "error", and the run continues.
    """
    runner = _CELL_RUNNERS[spec.sweep]
    rows = []
    for idx, value in enumerate(spec.values):
        for seed in spec.seeds:
            try:
                rows.extend(runner(spec, idx, value, seed))
            except Exception as exc:  # recorded per-row, sweep continues
                rows.append(_row(value, seed, "error", "", math.nan, 0,
                                 math.nan, str(exc)))
    return rows


def summarize(rows):
    """Mean and sample standard deviation per (sweep_value, method, k)."""
    groups = {}
    for row in rows:
        if row["method"] == "error":
            continue
        groups.setdefault((row["sweep_value"], row["method"], row["k"]),
                          []).append(row)
    summary = []
    for (value, method, k), members in sorted(groups.items(),
                                              key=lambda kv: str(kv[0])):
        infids = [r["infidelity"] for r in members
                  if not math.isnan(r["infidelity"])]
        walls = [r["wall_time_s"] for r in members]
        entry = {"sweep_value": value, "method": method, "k": k,
                 "n_runs": len(members),
                 "mean_wall_time_s": float(np.mean(walls))}
        if infids:
            entry["mean_infidelity"] = float(np.mean(infids))
            entry["std_infidelity"] = (float(np.std(infids, ddof=1))
                                       if len(infids) > 1 else 0.0)
        summary.append(entry)
    return summary


def write_rows(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([row[col] for col in CSV_HEADER])


def write_summary(summary, path):
    with open(path, "w") as fh:
        json.dump({"schema_version": 1, "summary": summary}, fh, indent=2)


def run_benchmark(spec, csv_path, summary_path):
    rows = run_sweep(spec)
    write_rows(rows, csv_path)
    summary = summarize(rows)
    write_summary(summary, summary_path)
    return rows, summary
