"""kraustomo benchmark: one workload, every metric, output checks.

Usage, from the repository root:

    python3 perfbench/run.py --workload dv2-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end metrics;
``--trace 1`` runs it once untraced and once traced and prints the
per-layer metrics.  Each run happens in child processes (``worker.py``)
under an address-space cap, with BLAS on one thread.  The metrics that
BENCHMARK.json declares go on the last line of standard output as one JSON
object; every other measurement, the environment and the failures are
printed above it and kept in ``.perfbench/report-*.json``.  The exit code
is 0 when every output passed its checks, 1 when one did not, 2 when the
package sources are missing and 3 when a worker crashed or ran out of time.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("dv2-sweep", "cv16-cli")

# Address-space cap of every worker.  An allocation beyond it, such as the
# 2.85 GiB dense sensing matrix of n=3 PLS, then fails as a MemoryError
# inside the worker instead of getting the process killed for lack of memory.
AS_CAP_BYTES = 2 << 30
# An untraced run is split into WORKERS measuring workers, each preceded by
# SETUP_ONLY workers that only set up, so that the run's fresh set-ups are
# spread over the whole run; setup_s is their median.
WORKERS = 5
SETUP_ONLY = 2
# The whole invocation must end within this many seconds.
TIME_LIMIT_S = 170
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class WorkerError(Exception):
    """A worker crashed, was killed or ran out of time."""


def _cap():
    resource.setrlimit(resource.RLIMIT_AS, (AS_CAP_BYTES, AS_CAP_BYTES))


def run_worker(args, mode, deadline, tag, seconds=None, spans=None):
    workdir = WORKDIR / f"{args.workload}-{args.seed}-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    result = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds or args.seconds), "--mode", mode,
           "--size", args.size, "--workdir", str(workdir),
           "--result", str(result)]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **BLAS_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, preexec_fn=_cap,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            raise WorkerError(f"{mode} worker exited with code "
                              f"{proc.returncode}:\n{tail}")
        with open(result) as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker did not finish in time") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def median(values):
    return statistics.median(values) if values else None


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None, None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def git_commit():
    """The checkout's commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, run, setups, workers):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_bytes": os.sysconf("SC_PAGE_SIZE")
        * os.sysconf("SC_PHYS_PAGES"),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": run["blas"]["vendor"],
        "blas_threads": run["blas"]["threads"],
        "as_cap_bytes": run["as_cap_bytes"],
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_repeats": setups,
        "workers": workers,
        "requests": run["attempted"],
        "size": args.size,
    }


def merge(runs):
    """One result from the measuring workers of a run."""
    out = dict(runs[0])
    for key in ("attempted", "failed", "busy_s"):
        out[key] = sum(r[key] for r in runs)
    for key in ("check_errors", "out_bytes", "gd_ref_s"):
        out[key] = [x for r in runs for x in r[key]]
    out["samples"] = {kind: [x for r in runs for x in r["samples"][kind]]
                      for kind in runs[0]["samples"]}
    out["failures"] = {}
    for r in runs:
        for message, count in r["failures"].items():
            out["failures"][message] = out["failures"].get(message, 0) + count
    out["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
    return out


def end_to_end(main, setups):
    """Metrics of an untraced run: {name: (value, unit, n)}."""
    out = {}
    out["setup_s"] = (median(setups), "s", len(setups))
    out["setup_s.min"] = (min(setups), "s", len(setups))
    samples = main["samples"]
    infid = main["first_pass_infidelity"]
    # Each GD request's time over that of the reference kernel timed just
    # before it in the same worker.  A shared host's speed drifts by tens of
    # percent over seconds to minutes, which no statistic of raw request
    # times within one run removes; it slows both timings alike, so their
    # ratio keeps the package's cost.
    rel = [s / r for s, r in zip(samples["gd"], main["gd_ref_s"])]
    out["gd_rel"] = (median(rel), "ref", len(rel))
    out["gd_ref_s"] = (median(main["gd_ref_s"]), "s", len(rel))
    for kind in ("gd", "pls"):
        values = samples[kind]
        out[f"{kind}_s_min"] = (min(values) if values else None, "s",
                                len(values))
        out[f"{kind}_s_p50"] = (median(values), "s", len(values))
        value, pct = tail(values)
        out[f"{kind}_s_tail"] = (value, "s", len(values))
        out[f"{kind}_s_tail.percentile"] = (pct, "%", len(values))
    done = sum(len(v) for v in main["samples"].values())
    out["recon_per_s"] = (done / main["busy_s"], "1/s", done)
    out["failed_frac"] = (main["failed"] / main["attempted"], "ratio",
                          main["attempted"])
    for kind in ("gd", "pls"):
        values = infid[kind]
        out[f"{kind}_infidelity"] = (
            sum(values) / len(values) if values else None, "1-F", len(values))
    out["peak_rss_mb"] = (main["peak_rss_mb"], "MB", 1)
    return out


def per_layer(reference, traced):
    """Metrics of the traced run, plus the cost of tracing itself."""
    out = {name: tuple(value) for name, value in traced["per_layer"].items()}
    # Accuracy of the layer's output: deterministic for a seed, but too
    # dependent on the seed's datasets to bound as an end-to-end metric.
    for kind in ("gd", "pls"):
        values = traced["first_pass_infidelity"][kind]
        out[f"{kind}.infidelity"] = (
            sum(values) / len(values) if values else None, "1-F", len(values))
    ref, tr = median(reference["samples"]["gd"]), median(traced["samples"]["gd"])
    out["trace_overhead_frac"] = (tr / ref - 1.0 if ref and tr else None,
                                  "ratio", len(traced["samples"]["gd"]))
    return out


def fmt(value):
    return "null" if value is None else f"{value:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: the self-test's small inputs")
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "kraustomo" / "__init__.py").is_file():
        print(f"error: package sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    WORKDIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace == 0:
            setups, runs = [], []
            for k in range(WORKERS):
                setups += [run_worker(args, "setup", deadline,
                                      f"setup{k}.{j}")["setup_s"]
                           for j in range(SETUP_ONLY)]
                runs.append(run_worker(args, "run", deadline, f"run{k}",
                                       seconds=args.seconds / WORKERS))
                setups.append(runs[-1]["setup_s"])
            main_run = merge(runs)
            metrics = end_to_end(main_run, setups)
            wanted = declared["end_to_end"]
        else:
            reference = run_worker(args, "run", deadline, "run")
            main_run = run_worker(args, "trace", deadline, "trace",
                                  spans=WORKDIR / f"spans-{tag}.json")
            runs = [reference, main_run]
            setups = [main_run["setup_s"]]
            metrics = per_layer(reference, main_run)
            wanted = declared["per_layer"]
    except WorkerError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 3

    check_errors = [e for r in runs for e in r.get("check_errors", [])]
    correct = not check_errors
    report = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args, main_run, len(setups),
                                           len(runs)),
              "correct": correct, "check_errors": check_errors,
              "attempted": main_run["attempted"],
              "failed": main_run["failed"],
              "failures": main_run["failures"],
              "setups_s": setups,
              "samples_s": main_run["samples"],
              "gd_ref_s": main_run["gd_ref_s"],
              "absent": main_run.get("absent", []),
              "metrics": {k: {"value": v, "unit": u, "n": n}
                          for k, (v, u, n) in metrics.items()}}
    with open(WORKDIR / f"report-{tag}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("# environment " + json.dumps(report["environment"]))
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {fmt(value)} {unit} (n={n})")
    print(f"requests: {main_run['attempted']} attempted, "
          f"{main_run['failed']} failed")
    for message, count in main_run["failures"].items():
        print(f"failure x{count}: {message}")
    for name in report["absent"]:
        print(f"absent: {name}")
    for message in check_errors:
        print(f"CHECK FAILED: {message}")

    final = {}
    absent = set(report["absent"])
    for spec in wanted:
        value, unit, _ = metrics.get(spec["name"], (None, spec["unit"], 0))
        # A per-layer figure of a function this workload never calls reads
        # 0; one of a function the package no longer has stays null.
        if (value is None and args.trace == 1
                and not tracer.sources(spec["name"]) & absent):
            value = 0
        final[spec["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": main_run["attempted"],
                      "failed": main_run["failed"], "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
