"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload at tiny size, untraced and traced, and checks that the
last line holds exactly the declared metrics with their units, that the
readable lines name each of them and that no declared per-layer metric is
computed from a function the package no longer has.  Then checks that the
output checks reject a corrupted ``qpt reconstruct`` file (a non-TP Kraus
stack, a wrong fidelity), and that the benchmark fails without printing a
result when the package sources are missing.  Exits 0 when every check passes.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracer  # noqa: E402
from run import WORKDIR, WORKLOADS  # noqa: E402
from workloads import CheckError, check_output_file  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics_printed():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{workload} --trace {trace}"
            proc = run_bench(workload, trace)
            lines = proc.stdout.strip().splitlines()
            expect(proc.returncode == 0 and lines,
                   f"{what}: exit 0 ({proc.returncode}) {proc.stderr[-300:]}")
            if not lines:
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{what}: result keys")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"{what}: correct, attempted >= 1")
            wanted = {m["name"]: m["unit"] for m in declared[key]}
            got = result["metrics"]
            expect(set(got) == set(wanted), f"{what}: exactly the declared "
                   f"metrics (missing {set(wanted) - set(got)}, extra "
                   f"{set(got) - set(wanted)})")
            absent = {line[len("absent: "):] for line in lines[:-1]
                      if line.startswith("absent: ")}
            for name in wanted:
                missing = tracer.sources(name) & absent
                expect(not missing, f"{what}: {name} is measured on "
                       f"functions the package has (absent: {missing})")
            for name, unit in wanted.items():
                entry = got.get(name, {})
                value = entry.get("value")
                number = (isinstance(value, (int, float))
                          and not isinstance(value, bool))
                expect(number and entry.get("unit") == unit,
                       f"{what}: {name} = {value} {entry.get('unit')}")
                expect(any(line.startswith(f"{name} = ") and
                           f" {unit} (n=" in line for line in lines[:-1]),
                       f"{what}: {name} printed with its unit")


def check_corrupted_output():
    from kraustomo import cli, data
    work = WORKDIR / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        dataset, out = work / "data.json", work / "gd.json"
        cli.main(["synth", "--kind", "dv", "--qubits", "1", "--rank", "2",
                  "--noise", "1e-2", "--out", str(dataset)])
        cli.main(["reconstruct", "--method", "gd", "--data", str(dataset),
                  "--kraus", "2", "--iters", "20", "--out", str(out)])
        truth = data.load(str(dataset)).truth
        infid = check_output_file(out, truth)
        expect(0 <= infid <= 1, "a genuine GD output passes its checks")

        doc = json.loads(out.read_text())
        blocks = np.array([data.complex_from_json(k) for k in doc["kraus"]])
        for name, change in (
                ("non-TP Kraus stack",
                 {"kraus": [data.complex_to_json(1.1 * k) for k in blocks]}),
                ("fidelity off by 1e-6",
                 {"fidelity": doc["fidelity"] - 1e-6})):
            bad = work / "bad.json"
            bad.write_text(json.dumps({**doc, **change}))
            try:
                check_output_file(bad, truth)
                rejected = False
            except CheckError as exc:
                rejected = True
                print(f"     rejected: {exc}")
            expect(rejected, f"a corrupted output ({name}) fails the check")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_fails_without_sources():
    bare = WORKDIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench")
        proc = run_bench(WORKLOADS[0], 0, cwd=bare)
        printed = proc.stdout.strip().splitlines()
        expect(proc.returncode != 0 and not any(
            line.startswith("{") for line in printed),
            f"without sources: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    check_corrupted_output()
    check_fails_without_sources()
    check_metrics_printed()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
