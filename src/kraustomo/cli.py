"""Command-line front end: synth, reconstruct, fidelity, benchmark.

Exit codes: 0 success, 2 usage error (including an unreadable or
unwritable file and an input too large for memory), 3 method/data
incompatibility, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

from . import bench, cv, data, dv, gd, pls
from .core import ChoiMatrix, KrausStack, process_fidelity

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCOMPATIBLE = 3
EXIT_NUMERICAL = 4


def _parse_grid(text):
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(
            "grid must be re_min,re_max,im_min,im_max,rows,cols")
    try:
        return cv.CvGrid(*map(float, parts[:4]), *map(int, parts[4:]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_phases(text):
    return [float(p) for p in text.split(",")]


def _parse_seed(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


@contextlib.contextmanager
def _claimed(*paths):
    """Check that each given path is writable before any work is done.

    Two paths that resolve to one file, or an unwritable path, fail here.
    A path that exists is opened in append mode and left as it is until
    the result replaces it; one that does not is created, and removed
    again if the command then fails.
    """
    real = [os.path.realpath(path) for path in paths if path]
    if len(set(real)) < len(real):
        raise ValueError(f"{' and '.join(filter(None, paths))} name one file")
    created = []
    try:
        for path in filter(None, paths):
            try:
                open(path, "x").close()
                created.append(path)
            except FileExistsError:
                open(path, "a").close()
        yield
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def cmd_synth(args):
    with _claimed(args.out, args.csv):
        return _synth(args)


def _synth(args):
    # Checked here, before the grids, whose truncation warnings come first.
    if not (0 <= args.noise < np.inf
            and np.isfinite([args.alpha, *args.theta]).all()):
        raise ValueError("--noise must be finite and >= 0, and --alpha and "
                         "--theta finite")
    if args.kind == "cv" and len(args.theta) > args.dim:
        raise ValueError(f"{len(args.theta)} --theta phases exceed the "
                         f"cutoff --dim {args.dim}")
    rng = np.random.default_rng(args.seed)
    if args.kind == "dv":
        dim = 2 ** args.qubits
        probe_spec = meas_spec = {"type": "pauli", "n_qubits": args.qubits}
    else:
        dim = args.dim
        probe_grid = args.probe_grid or cv.probe_grid()
        meas_grid = args.meas_grid or cv.measurement_grid()
        probe_spec = {"type": "coherent_grid", "grid": probe_grid.to_dict()}
        meas_spec = {"type": "displaced_parity_grid",
                     "grid": meas_grid.to_dict()}
    # Built (and validated) before the target, whose cost grows with dim.
    probes = data.materialize_probes(probe_spec, dim)
    meas = data.materialize_probes(meas_spec, dim)
    rank = min(16, dim * dim) if args.rank is None else args.rank
    process = (dv.random_process(dim, rank, rng) if args.kind == "dv"
               else cv.snap_displace_process(args.alpha, args.theta, dim))
    tomogram = data.synthesize(process, probes, meas, args.noise, rng,
                               kind=args.kind, seed=args.seed,
                               probe_spec=probe_spec, meas_spec=meas_spec)
    if args.gamma is not None:
        tomogram = data.subsample(tomogram, args.gamma, rng)
    data.save(tomogram, args.out)
    if args.csv:
        data.export_csv(tomogram, args.csv)
    print(f"wrote {args.out}: {tomogram.num_probes} probes x "
          f"{tomogram.num_measurements} measurements, noise {args.noise}")
    return EXIT_OK


def cmd_reconstruct(args):
    tomogram = data.load(args.data)
    # An unwritable --out fails here, not after the fit.
    with _claimed(args.out):
        return _reconstruct(args, tomogram)


def _reconstruct(args, tomogram):
    t0 = time.perf_counter()
    if args.method == "gd":
        cfg = gd.GdConfig(k=args.kraus, eta0=args.lr, decay=args.decay,
                          lam=args.l1, max_iters=args.iters,
                          batch_size=args.batch, seed=args.seed)
        est, trace = gd.fit(tomogram, cfg)
        result = {"kraus": [data.complex_to_json(k) for k in est.blocks],
                  "trace": vars(trace)}
    else:
        cfg = pls.PlsConfig(dykstra_max_iters=args.proj_iters,
                            dykstra_tol=args.proj_tol)
        est = pls.fit_pls(tomogram, cfg)
        result = {"choi": data.complex_to_json(est.choi.mat),
                  "converged": est.converged, "projection_cycles": est.cycles}
    doc = {"schema_version": data.SCHEMA_VERSION, "method": args.method,
           "config": cfg.to_dict(), **result,
           "wall_time_s": time.perf_counter() - t0}
    if tomogram.truth is not None:
        metric = process_fidelity(tomogram.truth,
                                  est if args.method == "gd" else est.choi)
        doc["fidelity"] = metric.fidelity
        print(f"fidelity {metric.fidelity:.6f}  "
              f"infidelity {metric.infidelity:.6e}")
    if args.method == "pls":
        print(f"converged: {str(est.converged).lower()} "
              f"({est.cycles} projection cycles)")
    if args.out:
        text = json.dumps(doc, allow_nan=False)  # strict JSON: no NaN token
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return EXIT_OK


def _channel_from_file(path):
    """The channel a reconstruction or dataset file stores, in the form it
    stores it: a KrausStack (``kraus``, or a dataset's ``truth``) or a
    ChoiMatrix (``choi``).  A non-finite entry raises SchemaError."""
    doc = data.read_document(path)
    try:
        if doc.get("method") == "gd" or "kraus" in doc:
            form, payload = KrausStack, doc["kraus"]
        elif doc.get("method") == "pls" or "choi" in doc:
            form, payload = ChoiMatrix, doc["choi"]
        elif "truth" in doc:
            form = KrausStack
            payload = data.expect_object(doc["truth"], "truth")["kraus"]
        else:
            raise data.SchemaError(f"no Kraus or Choi payload in {path}")
    except KeyError as exc:
        raise data.SchemaError(f"missing key {exc} in {path}") from exc
    mat = data.complex_from_json(payload)
    if not np.isfinite(mat).all():
        raise data.SchemaError(f"non-finite channel entry in {path}")
    return form(mat)


def cmd_fidelity(args):
    metric = process_fidelity(_channel_from_file(args.file_a),
                              _channel_from_file(args.file_b))
    print(f"{metric.fidelity:.12f}")
    print(f"{metric.infidelity:.12e}")
    return EXIT_OK


def cmd_benchmark(args):
    spec = bench.SweepSpec.from_json(args.spec)
    with _claimed(args.out_csv, args.out_json):
        rows, summary = bench.run_benchmark(spec, args.out_csv, args.out_json)
    failed = sum(1 for r in rows if r["method"] == "error")
    print(f"{len(rows)} rows -> {args.out_csv} ({failed} failed cells), "
          f"summary -> {args.out_json}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qpt", description="Quantum process tomography toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a tomogram dataset")
    p.add_argument("--kind", choices=["dv", "cv"], required=True)
    p.add_argument("--qubits", type=int, default=2)
    p.add_argument("--rank", type=int, help="default min(16, 4**qubits)")
    p.add_argument("--dim", type=int, default=cv.DEFAULT_CUTOFF)
    p.add_argument("--alpha", type=float, default=cv.DEFAULT_ALPHA)
    p.add_argument("--theta", type=_parse_phases, default=cv.DEFAULT_PHASES,
                   help="comma-separated SNAP phases")
    p.add_argument("--probe-grid", type=_parse_grid)
    p.add_argument("--meas-grid", type=_parse_grid)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--gamma", type=float, help="keep a fraction of the data")
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also export the data matrix as CSV")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("reconstruct", help="reconstruct a process from data")
    p.add_argument("--method", choices=["gd", "pls"], required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--kraus", type=int, default=3)
    p.add_argument("--lr", type=float, default=gd.GdConfig.eta0)
    p.add_argument("--decay", type=float, default=gd.GdConfig.decay)
    p.add_argument("--l1", type=float, default=gd.GdConfig.lam)
    p.add_argument("--iters", type=int, default=gd.GdConfig.max_iters)
    p.add_argument("--batch", type=int)
    p.add_argument("--seed", type=_parse_seed, default=gd.GdConfig.seed)
    p.add_argument("--proj-iters", type=int,
                   default=pls.PlsConfig.dykstra_max_iters)
    p.add_argument("--proj-tol", type=float, default=pls.PlsConfig.dykstra_tol)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("fidelity", help="process fidelity between two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("benchmark", help="run a sweep from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-json", required=True)
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except pls.InformationIncompleteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    # Before ValueError, of which LinAlgError is a subclass.
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
