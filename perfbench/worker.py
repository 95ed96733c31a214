"""One workload in one process: set-up, timed closed loop, output checks.

Started by ``run.py`` under an address-space cap with BLAS limited to one
thread.  Writes a JSON result file; ``run.py`` turns it into metrics.

Modes: ``setup`` stops after set-up (repeated set-ups give ``setup_s``),
``run`` measures requests untraced, ``trace`` does the same with every
public function of the package wrapped in a span (see ``tracer.py``).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402


def blas_info():
    """BLAS vendor string and the thread count the library reports."""
    import numpy as np
    info = {"vendor": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                info["threads"] = int(getattr(lib, fn)())
                return info
    return info


def time_reference(wl):
    """Wall time of one call of the workload's reference kernel."""
    t0 = time.perf_counter()
    wl.reference()
    return time.perf_counter() - t0


def timed_phase(wl, seconds, tracer):
    """Closed loop: next request after the previous one, for ``seconds`` of
    request time and at least one pass over the workload's inputs.  Checks
    run between requests, outside the timed sections.  The reference kernel
    is timed just before each GD request, also outside its timed section."""
    samples = {"gd": [], "pls": []}
    gd_ref_s = []
    first_pass = {"gd": [], "pls": []}
    failures = {}
    attempted = failed = 0
    busy = 0.0
    check_errors = []
    i = 0
    while busy < seconds or i < wl.passes:
        req = wl.request(i)
        ref = time_reference(wl) if req.kind == "gd" else None
        name = f"request.{req.kind}"
        token = tracer.open(name, i) if tracer else None
        t0 = time.perf_counter()
        try:
            out = req.call()
            error = wl.failure(out)
        except Exception as exc:  # a failed request is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.close(token, name, error is None)
            tracer.request = tracing.CHECK
        busy += elapsed
        attempted += 1
        if error is not None:
            failed += 1
            key = f"{req.kind}: {error}"[:400]
            failures[key] = failures.get(key, 0) + 1
        else:
            samples[req.kind].append(elapsed)
            if ref is not None:
                gd_ref_s.append(ref)
            try:
                infid = wl.check(req, out)
            except CheckError as exc:
                check_errors.append(str(exc))
                break
            if i < wl.passes:
                first_pass[req.kind].append(infid)
        i += 1
    return {"samples": samples, "gd_ref_s": gd_ref_s,
            "first_pass_infidelity": first_pass,
            "failures": failures, "attempted": attempted, "failed": failed,
            "busy_s": busy, "check_errors": check_errors}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"],
                    required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install()
        # Count every truncation warning, not only the first per call site.
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = tracer.count_warning
    wl = WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    wl.setup()
    result = {"setup_s": time.perf_counter() - T0}
    if args.mode != "setup":
        result.update(timed_phase(wl, args.seconds, tracer))
        result["out_bytes"] = getattr(wl, "out_bytes", [])
    if tracer:
        metrics = tracing.summarize(tracer.spans, tracer.absent,
                                    tracer.warnings)
        if result.get("out_bytes"):
            sizes = result["out_bytes"]
            metrics["cli.out_bytes"] = (sum(sizes) / len(sizes), "B",
                                        len(sizes))
        result["per_layer"] = metrics
        result["absent"] = tracer.absent
        if args.spans:
            tracer.dump(args.spans)
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024)
    result["as_cap_bytes"] = resource.getrlimit(resource.RLIMIT_AS)[0]
    result["blas"] = blas_info()
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
