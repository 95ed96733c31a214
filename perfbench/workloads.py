"""The benchmark's workloads: set-up, requests and output checks.

Every workload is a closed loop with one caller.  All inputs derive from the
workload seed; the package only sees the generated datasets and arguments.
Requests go through entry points the package keeps: ``bench.run_sweep`` and
``cli.main``.  No request passes ``jobs``, ``--lr``, ``--decay``, ``eta0``,
``decay`` or ``solver``, so options planned for removal are never relied on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

NOISE = 1e-2
# A GD stack must stay trace-preserving to this Frobenius defect.
TP_TOL = 1e-8
# A PLS Choi matrix may miss TP and CP by this much (Dykstra stops on a
# change below 1e-7 per cycle).
PLS_TOL = 1e-6
# Reported and recomputed fidelities must agree this closely.
FID_TOL = 1e-9
WARMUP_SEED = 1_000_000


class CheckError(Exception):
    """An output failed a correctness check."""


class Request:
    """One request: its kind (``gd`` or ``pls``), a key naming its inputs
    (identical keys give identical outputs) and the call that runs it."""

    def __init__(self, kind, key, call):
        self.kind, self.key, self.call = kind, key, call


def derive(seed, *keys):
    """A 32-bit seed derived from the workload seed and integer keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _tap(module, name, sink):
    """Record the return value of ``module.name`` in ``sink``."""
    fn = getattr(module, name, None)
    if fn is None:
        raise CheckError(f"cannot observe outputs: {module.__name__}.{name} "
                         f"is absent")

    def tapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        sink.append((name, out))
        return out
    setattr(module, name, tapped)


def _fidelity_matches(reported_infid, truth, est_choi, what):
    from kraustomo import core
    own = core.process_fidelity(core.kraus_to_choi(truth), est_choi).infidelity
    if not abs(own - reported_infid) <= FID_TOL:
        raise CheckError(f"{what}: reported infidelity {reported_infid!r} but "
                         f"recomputed {own!r}")
    return own


def check_kraus(blocks, truth, reported_infid, what):
    """A GD estimate: TP stack whose reported fidelity is the true one."""
    from kraustomo import core
    est = core.KrausStack(blocks)
    defect = core.tp_defect(est)
    if not defect <= TP_TOL:
        raise CheckError(f"{what}: tp_defect {defect:.3e} > {TP_TOL:.0e}")
    return _fidelity_matches(reported_infid, truth, core.kraus_to_choi(est),
                             what)


def check_choi(mat, truth, reported_infid, what):
    """A PLS estimate: CPTP within tolerance, reported fidelity true."""
    from kraustomo import core, pls
    choi = core.ChoiMatrix(mat)
    tp, cp = pls.tp_violation(choi), pls.cp_violation(choi)
    if not (tp <= PLS_TOL and cp <= PLS_TOL):
        raise CheckError(f"{what}: tp_violation {tp:.3e}, cp_violation "
                         f"{cp:.3e} (tolerance {PLS_TOL:.0e})")
    return _fidelity_matches(reported_infid, truth, choi, what)


def check_output_file(path, truth):
    """Check a ``qpt reconstruct --out`` file; returns the infidelity."""
    from kraustomo import data
    with open(path) as fh:
        doc = json.load(fh)
    if "fidelity" not in doc:
        raise CheckError(f"{path}: no fidelity reported")
    infid = 1.0 - doc["fidelity"]
    if "kraus" in doc:
        blocks = np.array([data.complex_from_json(k) for k in doc["kraus"]])
        return check_kraus(blocks, truth, infid, path)
    if "choi" in doc:
        return check_choi(data.complex_from_json(doc["choi"]), truth, infid,
                          path)
    raise CheckError(f"{path}: neither a Kraus nor a Choi payload")


def reference_kernel(k, n, p, m, loops):
    """A fixed NumPy computation that measures the machine's current speed.

    ``loops`` times the operations of one full-batch GD iteration at the
    workload's shapes (k Kraus blocks of size n, p probes, m measurements)
    on fixed random arrays: batched matmuls, a flat matmul, an elementwise
    reduction and a small solve.  It calls nothing of the package, so a
    change to the package leaves its time alone, while a slower host (a
    busy neighbour on the shared core or memory) slows it about as much as
    a request.  Returns the zero-argument callable to time.
    """
    rng = np.random.default_rng(0)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    blocks, states, obs = cplx(k, n, n), cplx(p, n, n), cplx(m, n, n)
    obs_flat = obs.reshape(m, n * n)
    target = rng.standard_normal((p, m))
    eye = np.eye(2 * n)

    def run():
        for _ in range(loops):
            left = np.matmul(blocks[:, None], states[None])
            out = np.matmul(left, blocks.conj().swapaxes(1, 2)[:, None])
            out = out.sum(axis=0).swapaxes(1, 2).reshape(p, n * n)
            res = target - np.real(out @ obs_flat.T)
            weighted = (res @ obs_flat).reshape(p, n, n)
            grad = np.matmul(weighted[None], left).sum(axis=1).reshape(-1, n)
            a = np.hstack([grad, grad])
            np.linalg.solve(eye + 0.1 * (a.conj().T @ a), a.conj().T @ grad)
    return run


class Workload:
    """Base: subclasses define set-up, the request sequence and checks.

    ``passes`` requests make one pass over every distinct input; the timed
    phase always completes at least one pass so that the accuracy metrics
    are the same for a seed however fast the machine is.  ``reference``
    is the workload's reference kernel, built from ``ref_shape`` (the
    arguments of ``reference_kernel``).
    """

    name = ""
    passes = 1
    ref_shape = ()

    def __init__(self, seed, size, workdir):
        self.seed, self.size, self.workdir = seed, size, workdir
        self.tiny = size == "tiny"
        self.reference = reference_kernel(*self.ref_shape)

    def setup(self):
        raise NotImplementedError

    def request(self, i):
        raise NotImplementedError

    def failure(self, out):
        """An error message if the request's result reports a failure."""
        return None

    def check(self, req, out):
        """Raise CheckError on a wrong output; return its infidelity."""
        raise NotImplementedError


class Dv2Sweep(Workload):
    """DV n=2, rank 16, one noise cell per ``bench.run_sweep`` request.

    Requests alternate GD (k=16, 200 full-batch iterations) and PLS, and
    cycle over a fixed set of cells, so every run measures the same inputs
    however many requests it completes.  The cell's dataset is synthesized
    inside the request, as the sweep harness does.  PLS requests hit the
    pinv cache filled in set-up.
    """

    name = "dv2-sweep"
    # GD k=16 at N=4 over the 36x36 ensemble.
    ref_shape = (16, 4, 36, 36, 60)

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.cells = 2 if self.tiny else 16
        self.passes = 2 * self.cells
        self.iters = 5 if self.tiny else 200

    def setup(self):
        from kraustomo import bench
        self.bench = bench
        self.captured = []
        for attr in ("random_process", "fit", "fit_pls"):
            _tap(bench, attr, self.captured)
        # Builds the Pauli ensemble and fills the pinv cache.
        for method in ("gd", "pls"):
            self._sweep(self._spec(derive(self.seed, WARMUP_SEED), method))

    def _spec(self, cell_seed, method):
        return self.bench.SweepSpec(
            sweep="noise", values=[NOISE], seeds=[cell_seed], n_qubits=2,
            rank=16, kraus=[16], methods=[method],
            gd={"max_iters": self.iters})

    def _sweep(self, spec):
        self.captured.clear()
        rows = self.bench.run_sweep(spec)
        return rows, list(self.captured)

    def request(self, i):
        cell, odd = divmod(i % self.passes, 2)
        method = "pls" if odd else "gd"
        spec = self._spec(derive(self.seed, cell), method)
        return Request(method, (cell, method), lambda: self._sweep(spec))

    def failure(self, out):
        rows, _ = out
        if len(rows) != 1:
            return f"expected one row, got {len(rows)}"
        if rows[0]["method"] == "error":
            return rows[0].get("error", "error row without a message")
        return None

    def check(self, req, out):
        (row,), captured = out
        got = {}
        for name, value in captured:
            got.setdefault(name, value)
        if "random_process" not in got:
            raise CheckError(f"{req.key}: the sweep drew no process")
        truth = got["random_process"]
        if req.kind == "gd":
            if "fit" not in got:
                raise CheckError(f"{req.key}: no GD fit was run")
            return check_kraus(got["fit"][0].blocks, truth,
                               row["infidelity"], f"cell {req.key}")
        if "fit_pls" not in got:
            raise CheckError(f"{req.key}: no PLS fit was run")
        return check_choi(got["fit_pls"].choi.mat, truth, row["infidelity"],
                          f"cell {req.key}")


class Cv16Cli(Workload):
    """CV SNAP+displacement target at N=16, coherent 10x10 probes,
    displaced-parity 10x10 measurements, noise 1e-2.

    Set-up writes two datasets with ``qpt synth --kind cv``; requests are
    in-process ``qpt reconstruct --method gd --kraus 3 --iters 200`` cycling
    over them.  N=16 rather than the N=32 of the paper's CV example: on a
    shared host a 6 s N=32 request, whose 1024^2 Choi matrices do not fit
    in cache, varied between runs by more than any bound of at most 0.25
    allows; a 1 s N=16 request gives thirty samples a run and varied a
    third as much.
    """

    name = "cv16-cli"
    datasets = 2
    # GD k=3 at N=16 over 10x10 probes and 10x10 measurements.
    ref_shape = (3, 16, 100, 100, 30)

    def synth_args(self, ds_seed):
        if self.tiny:
            return ["--kind", "cv", "--dim", "8",
                    "--probe-grid=-1,1,-1,1,4,4", "--meas-grid=-1,1,-1,1,4,4",
                    "--noise", str(NOISE), "--seed", str(ds_seed)]
        return ["--kind", "cv", "--dim", "16", "--noise", str(NOISE),
                "--seed", str(ds_seed)]

    def setup(self):
        from kraustomo import cli, data
        self.cli = cli
        n = 1 if self.tiny else self.datasets
        self.passes = n
        self.paths, self.truths = [], []
        for d in range(n):
            path = os.path.join(self.workdir, f"data{d}.json")
            self._main(["synth", *self.synth_args(derive(self.seed, d)),
                        "--out", path])
            self.paths.append(path)
            self.truths.append(data.load(path).truth)
        self.verified = {}
        self.out_bytes = []
        # Pays first-call costs (cold loads, BLAS and eigh workspaces) with
        # a short fit, so that timed requests see a warm process.
        self._main(self._gd_argv(0, iters=2))

    def _main(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cli.main(argv)
        return code, sink

    def _gd_argv(self, d, iters=None):
        iters = iters or (5 if self.tiny else 200)
        out = os.path.join(self.workdir, f"gd{d}.json")
        return ["reconstruct", "--method", "gd", "--data", self.paths[d],
                "--kraus", "3", "--iters", str(iters),
                "--seed", str(derive(self.seed, d)), "--out", out]

    def request(self, i):
        d = i % len(self.paths)
        argv = self._gd_argv(d)
        return Request("gd", (d, "gd"), lambda: (self._main(argv), argv[-1]))

    def failure(self, out):
        (code, sink), _ = out
        if code != 0:
            text = sink.getvalue().strip().splitlines()
            return f"exit code {code}: {text[-1] if text else ''}"
        return None

    def check(self, req, out):
        path = out[1]
        with open(path, "rb") as fh:
            raw = fh.read()
        self.out_bytes.append(len(raw))
        # Re-running a request on the same dataset reproduces the output
        # byte for byte; an identical output was already checked in full.
        key = f"{req.key[0]}:{hashlib.sha256(raw).hexdigest()}"
        if key not in self.verified:
            self.verified[key] = check_output_file(path,
                                                   self.truths[req.key[0]])
        return self.verified[key]


WORKLOADS = {w.name: w for w in (Dv2Sweep, Cv16Cli)}
