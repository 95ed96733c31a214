import csv
import json
import math

import numpy as np
import pytest

from kraustomo import bench, core, data
from kraustomo.bench import (CSV_HEADER, SweepSpec, run_benchmark, run_sweep,
                             summarize)


def small_spec(**overrides):
    base = dict(sweep="noise", seeds=[0, 1], n_qubits=1, rank=2, kraus=[2],
                methods=["gd"])
    base.update(overrides)
    # A timing cell's value is its qubit count, and it sets max_iters
    # itself; the other sweeps cap it at 20.
    timing = base["sweep"] == "timing"
    base.setdefault("values", [1] if timing else [1e-2])
    base.setdefault("gd", {} if timing else {"max_iters": 20})
    return SweepSpec(**base)


def failing_fit(monkeypatch):
    def fail(tomogram, cfg):
        raise ValueError(f"no fit at k = {cfg.k}")
    monkeypatch.setattr(bench, "fit", fail)


class TestSweepSpec:
    def test_rejects_unknown_sweep(self):
        with pytest.raises(ValueError, match="sweep"):
            small_spec(sweep="voltage")

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            small_spec(values=[])

    @pytest.mark.parametrize("sweep, gd", [
        ("noise", {"k": 1}), ("gamma", {"seed": 3}),
        ("timing", {"k": 1}), ("timing", {"max_iters": 50}),
        ("timing", {"batch_size": 8})])
    def test_rejects_gd_keys_the_cells_set(self, sweep, gd):
        # A cell's own k, seed (and a timing cell's batch_size and
        # max_iters) would replace the entry, or the row would mislabel it.
        with pytest.raises(ValueError, match="gd may not set"):
            small_spec(sweep=sweep, gd=gd)

    @pytest.mark.parametrize("methods", [["gd", "GD"], ["pls", "bogus"]])
    def test_rejects_unknown_method(self, methods):
        with pytest.raises(ValueError, match="unknown methods"):
            small_spec(methods=methods)

    @pytest.mark.parametrize("sweep", ["noise", "gamma"])
    def test_rejects_gd_without_kraus(self, sweep):
        with pytest.raises(ValueError, match="non-empty kraus"):
            small_spec(sweep=sweep, kraus=[])
        # PLS alone and the timing sweep (3 operators) read no kraus list.
        assert small_spec(sweep=sweep, kraus=[], methods=["pls"]).kraus == []
        assert small_spec(sweep="timing", kraus=[]).kraus == []

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="non-negative"):
            small_spec(seeds=[0, -1])

    @pytest.mark.parametrize("seed", [1.5, True, "0"])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="non-negative integers"):
            small_spec(seeds=[0, seed])

    @pytest.mark.parametrize("values", [[0], [1.5], [True]])
    def test_rejects_timing_values_that_are_not_qubit_counts(self, values):
        with pytest.raises(ValueError, match="qubit counts"):
            small_spec(sweep="timing", values=values)

    @pytest.mark.parametrize("values, kraus, top", [
        ([1], [5], 4), ([2, 1], [5, 1], 4), ([2], [17], 16), ([1], [0], 4),
        ([1], [2.0], 4), ([1], [True], 4)])
    def test_rejects_timing_kraus_out_of_range(self, values, kraus, top):
        # kraus[0] is every timing cell's k, so the smallest value bounds it.
        with pytest.raises(ValueError,
                           match=rf"kraus\[0\] must be an integer in \[1, {top}\]"):
            small_spec(sweep="timing", values=values, kraus=kraus)
        assert small_spec(sweep="timing", values=values,
                          kraus=[top, 99]).timing_kraus == top

    @pytest.mark.parametrize("sweep", ["noise", "gamma"])
    @pytest.mark.parametrize("fields, match", [
        ({"n_qubits": 0}, "n_qubits"), ({"n_qubits": 1.0}, "n_qubits"),
        ({"rank": 0}, r"rank must be in \[1, 4\]"),
        ({"rank": 5}, r"rank must be in \[1, 4\]"),
        ({"n_qubits": 1, "rank": 16}, r"rank must be in \[1, 4\]"),
        ({"kraus": [2, 0]}, r"kraus list with entries in \[1, 4\]"),
        ({"kraus": [5]}, r"kraus list with entries in \[1, 4\]"),
        ({"kraus": [1.5]}, r"kraus list with entries in \[1, 4\]")])
    def test_rejects_sizes_out_of_range(self, sweep, fields, match):
        with pytest.raises(ValueError, match=match):
            small_spec(sweep=sweep, **fields)

    def test_checks_only_the_fields_a_sweep_reads(self):
        # PLS alone reads no kraus list; a timing sweep reads neither
        # n_qubits nor rank.
        assert small_spec(kraus=[5], methods=["pls"]).kraus == [5]
        assert small_spec(sweep="timing", n_qubits=0, rank=0).n_qubits == 0

    @pytest.mark.parametrize("gd, error, match", [
        ({"max_iters": -1}, ValueError, "max_iters"),
        ({"eta0": 0.0}, ValueError, "eta0"),
        ({"bogus": 1}, TypeError, "bogus"),
        ({"plateau_tol": 1e-2}, TypeError, "plateau_tol")])
    def test_gd_entries_checked_by_gd_config(self, gd, error, match):
        with pytest.raises(error, match=match):
            small_spec(gd=gd)

    def test_keeps_gd_keys_the_cells_leave(self):
        assert small_spec(gd={"max_iters": 5, "batch_size": 8}).gd == {
            "max_iters": 5, "batch_size": 8}
        assert small_spec(sweep="timing", gd={"lam": 0.0}).gd == {"lam": 0.0}

    def test_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"sweep": "gamma", "values": [0.5],
                                    "seeds": [3], "n_qubits": 1, "rank": 2,
                                    "kraus": [2]}))
        spec = SweepSpec.from_json(path)
        assert spec.sweep == "gamma"
        assert spec.seeds == [3]


class TestRunSweep:
    def test_noise_sweep_rows(self):
        rows = run_sweep(small_spec())
        assert len(rows) == 2
        for row in rows:
            assert row["method"] == "gd"
            assert row["sweep_value"] == 1e-2
            assert 0.0 <= row["infidelity"] <= 1.0
            assert row["iterations"] == 20

    def test_reproducible(self):
        a = run_sweep(small_spec())
        b = run_sweep(small_spec())
        assert [r["infidelity"] for r in a] == [r["infidelity"] for r in b]

    def test_gamma_sweep_with_pls_incomplete(self):
        spec = small_spec(sweep="gamma", values=[0.1, 1.0], seeds=[0],
                          methods=["pls"])
        rows = run_sweep(spec)
        by_value = {row["sweep_value"]: row for row in rows}
        assert math.isnan(by_value[0.1]["infidelity"])
        assert by_value[1.0]["infidelity"] < 0.1

    def test_timing_sweep(self):
        spec = small_spec(sweep="timing", values=[1], seeds=[0],
                          methods=["gd"], kraus=[3])
        rows = run_sweep(spec)
        methods = {row["method"] for row in rows}
        assert methods == {"gd", "cp_projection"}
        for row in rows:
            assert row["wall_time_s"] > 0

    @pytest.mark.parametrize("sweep, values, methods", [
        ("noise", [1e-2], ["gd", "pls"]), ("gamma", [1.0], ["gd", "pls"]),
        ("timing", [2], ["gd"])])
    def test_cells_synthesize_from_pauli_kets(self, monkeypatch, sweep,
                                              values, methods):
        # The Pauli sets enter as their kets: none is eigendecomposed.
        def fail(states):
            raise AssertionError("a Pauli set was eigendecomposed")
        monkeypatch.setattr(core, "factor_states", fail)
        monkeypatch.setattr(data, "factor_states", fail)
        rows = run_sweep(small_spec(sweep=sweep, values=values, seeds=[0],
                                    methods=methods))
        assert [row["error"] for row in rows] == [""] * len(rows)
        assert {row["method"] for row in rows} >= set(methods)

    def test_failed_cell_recorded(self, monkeypatch):
        failing_fit(monkeypatch)
        rows = run_sweep(small_spec())
        assert len(rows) == 2
        assert all(row["method"] == "error" for row in rows)


class TestSummarize:
    def test_mean_and_std(self):
        rows = run_sweep(small_spec())
        summary = summarize(rows)
        assert len(summary) == 1
        entry = summary[0]
        infids = [r["infidelity"] for r in rows]
        assert entry["n_runs"] == 2
        assert entry["mean_infidelity"] == pytest.approx(np.mean(infids))
        assert entry["std_infidelity"] == pytest.approx(np.std(infids, ddof=1))

    def test_error_rows_excluded(self):
        rows = [{"sweep_value": 1, "seed": 0, "method": "error", "k": "",
                 "infidelity": math.nan, "iterations": 0,
                 "wall_time_s": math.nan}]
        assert summarize(rows) == []


class TestRunBenchmark:
    def test_writes_csv_and_summary(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        rows, summary = run_benchmark(small_spec(), csv_path, json_path)
        with open(csv_path) as fh:
            reader = list(csv.reader(fh))
        assert reader[0] == CSV_HEADER
        assert len(reader) == len(rows) + 1
        assert float(reader[1][4]) == pytest.approx(rows[0]["infidelity"])
        assert reader[1][CSV_HEADER.index("error")] == ""
        doc = json.loads(json_path.read_text())
        assert doc["schema_version"] == 1
        assert doc["summary"] == summary

    def test_failed_cell_error_message_in_csv(self, tmp_path, monkeypatch):
        failing_fit(monkeypatch)
        csv_path = tmp_path / "rows.csv"
        rows, _ = run_benchmark(small_spec(), csv_path,
                                tmp_path / "summary.json")
        with open(csv_path) as fh:
            reader = list(csv.DictReader(fh))
        assert [r["method"] for r in reader] == ["error", "error"]
        for written, row in zip(reader, rows):
            assert written["error"] == "no fit at k = 2"
            assert written["error"] == row["error"]
