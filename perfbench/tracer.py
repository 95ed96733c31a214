"""Spans around calls into kraustomo's public functions, recorded from outside.

The tracer replaces every public function of each layer module with a
wrapper, in every module namespace that binds it (``gd.channel_expectations``
is the same object as ``core.channel_expectations``), so the package itself
is not edited.  One span is kept per call: name, start, end, parent span,
request id, success flag and a small info dict for a few functions whose
return value says what they did.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import time

LAYERS = ("dv", "cv", "data", "gd", "pls", "core", "bench", "cli")

# Functions the per-layer metrics are built from; any of them missing from
# the package is reported as absent instead of failing the run.
NAMED = ("gd.fit", "gd.wirtinger_gradient", "gd.loss", "gd.cayley_step",
         "core.channel_expectations", "core.tp_defect", "core.process_fidelity",
         "core.kraus_to_choi", "pls.fit_pls", "pls.linear_inversion",
         "pls.project_cptp", "pls.project_cp", "pls.project_tp",
         "data.sensing_matrix", "data.synthesize", "data.save", "data.load",
         "cv.displacement", "cv.coherent_state", "cv.displaced_parity",
         "dv.pauli_ensemble", "dv.random_process", "cli.main",
         "bench.run_sweep")

# Per-layer metrics whose name does not start with the function they
# are computed from.
_SOURCES = {"pls.dykstra_cycle_ms": {"pls.project_cptp"},
            "pls.pinv_hit_ratio": {"pls.linear_inversion",
                                   "data.sensing_matrix"},
            "cli.out_bytes": {"cli.main"}}


def sources(metric):
    """The named functions a per-layer metric is computed from."""
    found = set(_SOURCES.get(metric, ()))
    found.update(name for name in NAMED if metric.startswith(name + "."))
    if ".calls_per_iter" in metric:
        found.add("gd.fit")
    return found


# Request ids that are not timed requests.
SETUP = "setup"
CHECK = "check"


def _fit_info(args, kwargs, out):
    trace = out[1]
    return {"iters": trace.n_iters, "stop": trace.stop_reason}


def _cptp_info(args, kwargs, out):
    return {"cycles": out.cycles, "converged": bool(out.converged)}


def _sensing_info(args, kwargs, out):
    probes, meas = args[0], args[1]
    n = len(probes[0])
    return {"bytes": len(probes) * len(meas) * n ** 4 * 16}


def _save_info(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1])}


_INFO = {"gd.fit": _fit_info, "pls.project_cptp": _cptp_info,
         "data.save": _save_info}
# Computed before the call: the allocation it asks for may be what fails.
_PRE_INFO = {"data.sensing_matrix": _sensing_info}


class Tracer:
    """Installs span-recording wrappers and holds the spans of one process."""

    def __init__(self):
        self.spans = []       # (name, t0, t1, parent, request, ok, info)
        self.stack = []
        self.request = SETUP
        self.wrapped = set()
        self.absent = []
        self.warnings = 0

    def install(self, package="kraustomo"):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"{package}.{layer}")
            except ImportError:
                continue
        namespaces = [importlib.import_module(package), *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)
                self.wrapped.add(name)
        self.absent = [name for name in NAMED if name not in self.wrapped]

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        info_of, pre_info_of = _INFO.get(name), _PRE_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            info = _safe(pre_info_of, args, kwargs, None)
            ok = False
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                if ok and info_of is not None:
                    info = _safe(info_of, args, kwargs, out)
                spans[idx] = (name, t0, t1, parent, self.request, ok, info)
        return traced

    def open(self, name, request):
        """Start a span of the benchmark's own (a request root)."""
        self.request = request
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx, time.perf_counter()

    def close(self, token, name, ok):
        idx, t0 = token
        t1 = time.perf_counter()
        self.stack.pop()
        self.spans[idx] = (name, t0, t1, -1, self.request, ok, None)

    def count_warning(self, message, category, filename, lineno, file=None,
                      line=None):
        """A ``warnings.showwarning`` replacement that only counts."""
        if "truncation" in str(message):
            self.warnings += 1

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3],
                 s[4], s[5], s[6]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request",
                                  "ok", "info"],
                       "names": names, "spans": rows}, fh)


def _safe(fn, args, kwargs, out):
    if fn is None:
        return None
    try:
        return fn(args, kwargs, out)
    except (AttributeError, IndexError, KeyError, TypeError, OSError):
        return None


def _layer(name):
    return name.split(".", 1)[0]


def _median(values):
    return statistics.median(values) if values else None


def summarize(spans, absent, warnings=0):
    """Per-layer metrics from one traced run: {name: (value, unit, n)}.

    ``.ms`` is the median duration of one call over the whole run (set-up
    and requests, not checks); ``.calls_per_request`` counts calls made
    inside timed requests per request; ``calls_per_iter`` counts calls made
    inside ``gd.fit`` per fit iteration; ``gd.fit.stop.<reason>`` is the
    share of timed fits that stopped for that reason; ``.share`` is the
    part of request time spent in the function; ``.self_ms`` is a span's
    duration minus the time covered by the spans of other layers it calls
    (the layer's own work).
    """
    dur = [s[2] - s[1] for s in spans]
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    self_time = [dur[i] - sum(dur[c] for c in children[i])
                 for i in range(len(spans))]
    roots = {i for i, s in enumerate(spans)
             if s[0].startswith("request.") and s[3] < 0}
    in_request = [s[4] not in (SETUP, CHECK) for s in spans]
    by_name = {}
    for i, s in enumerate(spans):
        if s[4] != CHECK:
            by_name.setdefault(s[0], []).append(i)

    def foreign_cover(i, layer):
        total = 0.0
        for c in children[i]:
            total += (dur[c] if _layer(spans[c][0]) != layer
                      else foreign_cover(c, layer))
        return total

    def layer_self_ms(name):
        idx = [i for i in by_name.get(name, []) if in_request[i]]
        return (_median([(dur[i] - foreign_cover(i, _layer(name))) * 1e3
                         for i in idx]), len(idx))

    def per_call_ms(name):
        idx = by_name.get(name, [])
        return _median([dur[i] * 1e3 for i in idx]), len(idx)

    # Calls made inside each timed fit, per iteration of that fit.
    fits = [i for i in by_name.get("gd.fit", []) if in_request[i]]
    fit_set = set(fits)
    inside = {}
    for i, s in enumerate(spans):
        p = s[3]
        while p >= 0 and p not in fit_set:
            p = spans[p][3]
        if p >= 0:
            inside[s[0]] = inside.get(s[0], 0) + 1
    iters = sum((spans[i][6] or {}).get("iters", 0) for i in fits)
    stops = {}
    for i in fits:
        reason = (spans[i][6] or {}).get("stop", "unknown")
        stops[reason] = stops.get(reason, 0) + 1

    request_time = sum(dur[i] for i in roots)

    def share(name):
        t = sum(dur[i] for i in by_name.get(name, []) if in_request[i])
        return t / request_time if request_time else None

    def calls(name):
        return sum(in_request[i] for i in by_name.get(name, []))

    out = {}

    def put(name, value, unit, n):
        out[name] = (value, unit, n)

    fit_s = [dur[i] for i in fits]
    put("gd.fit.s", _median(fit_s), "s", len(fit_s))
    put("gd.fit.iters", iters / len(fits) if fits else None, "count",
        len(fits))
    put("gd.fit.iter_ms", sum(fit_s) / iters * 1e3 if iters else None, "ms",
        iters)
    for reason in sorted({"max_iters", "plateau", "gradient_floor", *stops}):
        put(f"gd.fit.stop.{reason}",
            stops.get(reason, 0) / len(fits) if fits else None, "ratio",
            len(fits))
    for name in ("gd.wirtinger_gradient", "gd.loss", "gd.cayley_step",
                 "core.channel_expectations", "core.tp_defect"):
        value, n = per_call_ms(name)
        put(f"{name}.ms", value, "ms", n)
        put(f"{name}.calls_per_iter",
            inside.get(name, 0) / iters if iters else None, "count", iters)
    for name in ("core.process_fidelity", "core.kraus_to_choi",
                 "pls.linear_inversion", "data.sensing_matrix",
                 "pls.project_cptp", "pls.project_cp", "pls.project_tp",
                 "cv.displacement", "cv.coherent_state",
                 "cv.displaced_parity", "dv.pauli_ensemble",
                 "dv.random_process", "data.synthesize", "data.save",
                 "data.load"):
        value, n = per_call_ms(name)
        put(f"{name}.ms", value, "ms", n)
    for name in ("core.process_fidelity", "pls.linear_inversion",
                 "data.sensing_matrix", "cv.displacement"):
        put(f"{name}.calls_per_request",
            calls(name) / len(roots) if roots else None, "count", len(roots))
    put("core.process_fidelity.share", share("core.process_fidelity"),
        "ratio", len(roots))

    pls_fits = [dur[i] for i in by_name.get("pls.fit_pls", []) if in_request[i]]
    put("pls.fit_pls.s", _median(pls_fits), "s", len(pls_fits))
    sensing = [spans[i][6] for i in by_name.get("data.sensing_matrix", [])]
    sizes = [info["bytes"] for info in sensing if info]
    put("data.sensing_matrix.bytes", max(sizes) if sizes else None, "B",
        len(sizes))
    inversions = calls("pls.linear_inversion")
    put("pls.pinv_hit_ratio",
        1.0 - calls("data.sensing_matrix") / inversions if inversions else None,
        "ratio", inversions)
    cptp = by_name.get("pls.project_cptp", [])
    infos = [spans[i][6] for i in cptp if spans[i][6]]
    cycles = sum(info["cycles"] for info in infos)
    put("pls.project_cptp.cycles", cycles / len(infos) if infos else None,
        "count", len(infos))
    put("pls.project_cptp.converged_frac",
        (sum(info["converged"] for info in infos) / len(infos)
         if infos else None), "ratio", len(infos))
    put("pls.dykstra_cycle_ms",
        (sum(dur[i] for i in cptp) / cycles * 1e3 if cycles else None),
        "ms", cycles)
    put("cv.truncation_warnings", warnings, "count", warnings)
    saves = [spans[i][6] for i in by_name.get("data.save", [])]
    save_bytes = [info["bytes"] for info in saves if info]
    put("data.save.bytes", _median(save_bytes), "B", len(save_bytes))
    for name in ("data.load", "cli.main", "bench.run_sweep"):
        value, n = layer_self_ms(name)
        put(f"{name}.self_ms", value, "ms", n)

    # Own work of each layer per request, and how much of the request
    # time the package spans account for (the rest is benchmark glue).
    layer_self = {}
    for i, s in enumerate(spans):
        if in_request[i] and i not in roots:
            layer_self[_layer(s[0])] = layer_self.get(_layer(s[0]), 0.0) \
                + self_time[i]
    for layer in LAYERS:
        put(f"layer.{layer}.self_share",
            layer_self.get(layer, 0.0) / request_time if request_time else None,
            "ratio", len(roots))
    covered = sum(layer_self.values())
    put("trace.unattributed_frac",
        1.0 - covered / request_time if request_time else None, "ratio",
        len(roots))
    put("trace.spans", len(spans), "count", len(spans))
    put("trace.absent", len(absent), "count", len(absent))
    return out
