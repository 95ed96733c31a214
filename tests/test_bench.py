import csv
import json
import math

import numpy as np
import pytest

from kraustomo import core, data
from kraustomo.bench import (CSV_HEADER, SweepSpec, run_benchmark, run_sweep,
                             summarize)


def small_spec(**overrides):
    base = dict(sweep="noise", values=[1e-2], seeds=[0, 1], n_qubits=1,
                rank=2, kraus=[2], methods=["gd"],
                gd={"max_iters": 20})
    base.update(overrides)
    return SweepSpec(**base)


class TestSweepSpec:
    def test_rejects_unknown_sweep(self):
        with pytest.raises(ValueError, match="sweep"):
            small_spec(sweep="voltage")

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            small_spec(values=[])

    def test_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"sweep": "gamma", "values": [0.5],
                                    "seeds": [3], "n_qubits": 1, "rank": 2}))
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

    def test_failed_cell_recorded(self):
        spec = small_spec(rank=2)
        spec.methods = ["bogus"]
        rows = run_sweep(spec)
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

    def test_failed_cell_error_message_in_csv(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        spec = small_spec(methods=["bogus"])
        rows, _ = run_benchmark(spec, csv_path, tmp_path / "summary.json")
        with open(csv_path) as fh:
            reader = list(csv.DictReader(fh))
        assert [r["method"] for r in reader] == ["error", "error"]
        for written, row in zip(reader, rows):
            assert "bogus" in written["error"]
            assert written["error"] == row["error"]
