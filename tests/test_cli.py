import dataclasses
import json
import time
import warnings

import numpy as np
import pytest

from kraustomo import data as data_module
from kraustomo import bench, gd, pls
from kraustomo.cli import (EXIT_INCOMPATIBLE, EXIT_NUMERICAL, EXIT_OK,
                           EXIT_USAGE, main)
from kraustomo.core import ChoiMatrix
from kraustomo.cv import DEFAULT_ALPHA, snap_displace_process
from kraustomo.data import complex_from_json, load
from kraustomo.pls import cp_violation, tp_violation


# 2 x 2 CV grids, cheaper than the 10 x 10 defaults.
SMALL_GRIDS = ("--probe-grid=-1,1,-1,1,2,2", "--meas-grid=-1,1,-1,1,2,2")


@pytest.fixture()
def dv_dataset(tmp_path):
    path = tmp_path / "dv.json"
    code = main(["synth", "--kind", "dv", "--qubits", "1", "--rank", "2",
                 "--noise", "0.01", "--seed", "7", "--out", str(path)])
    assert code == EXIT_OK
    return path


class TestSynth:
    def test_dv_dataset_contents(self, dv_dataset):
        tomogram = load(dv_dataset)
        assert tomogram.kind == "dv"
        assert tomogram.dim == 2
        assert tomogram.data.shape == (6, 6)
        assert tomogram.noise_sigma == 0.01
        assert tomogram.truth is not None

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--kind", "dv"])
        assert exc.value.code == EXIT_USAGE

    def test_csv_export(self, tmp_path):
        out = tmp_path / "d.json"
        csv_path = tmp_path / "d.csv"
        main(["synth", "--kind", "dv", "--qubits", "1", "--rank", "1",
              "--out", str(out), "--csv", str(csv_path)])
        first = csv_path.read_text().splitlines()[0]
        assert first == "probe_index,measurement_index,value"

    def test_gamma_subsampling(self, tmp_path):
        out = tmp_path / "sub.json"
        main(["synth", "--kind", "dv", "--qubits", "1", "--rank", "2",
              "--gamma", "0.25", "--out", str(out)])
        tomogram = load(out)
        assert tomogram.data.shape == (3, 3)

    def test_cv_dataset(self, tmp_path):
        out = tmp_path / "cv.json"
        code = main(["synth", "--kind", "cv", "--dim", "12",
                     "--probe-grid=-1,1,-1,1,3,3",
                     "--meas-grid=-1,1,-1,1,3,3",
                     "--out", str(out)])
        assert code == EXIT_OK
        tomogram = load(out)
        assert tomogram.kind == "cv"
        assert tomogram.dim == 12
        assert tomogram.data.shape == (9, 9)

    def test_unknown_cv_process(self, tmp_path, capsys):
        # There is one CV target; --process is not an option.
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--kind", "cv", "--process", "mystery",
                  "--out", str(tmp_path / "x.json")])
        assert exc.value.code == EXIT_USAGE

    def test_bad_grid_spec(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--kind", "cv", "--probe-grid", "1,2,3",
                  "--out", str(tmp_path / "x.json")])
        assert exc.value.code == EXIT_USAGE

    def test_theta_phases(self, tmp_path, capsys):
        out = tmp_path / "cv.json"
        args = ["synth", "--kind", "cv", "--dim", "6",
                "--probe-grid=-1,1,-1,1,2,2", "--meas-grid=-1,1,-1,1,2,2"]
        assert main(args + ["--theta", "0.5,-0.5", "--out", str(out)]) == 0
        expected = snap_displace_process(DEFAULT_ALPHA, [0.5, -0.5], 6)
        assert np.array_equal(load(out).truth.blocks, expected.blocks)
        with pytest.raises(SystemExit) as exc:
            main(args + ["--theta", "0.5,x", "--out", str(out)])
        assert exc.value.code == EXIT_USAGE

    def test_env_seed_override(self, tmp_path, monkeypatch):
        # QPT_SEED is not read: --seed alone decides the output.
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("QPT_SEED", "99")
        main(["synth", "--kind", "dv", "--qubits", "1", "--rank", "2",
              "--seed", "0", "--out", str(a)])
        monkeypatch.delenv("QPT_SEED")
        main(["synth", "--kind", "dv", "--qubits", "1", "--rank", "2",
              "--seed", "0", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_too_many_qubits_exits_2(self, tmp_path, capsys):
        code = main(["synth", "--kind", "dv", "--qubits", "6",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE
        assert "GiB" in capsys.readouterr().err

    def test_out_in_missing_directory_exits_2(self, tmp_path, monkeypatch,
                                              capsys):
        # --out and --csv are checked before anything is built.
        def fail(*args):
            raise AssertionError("the ensembles were built")
        monkeypatch.setattr(data_module, "materialize_probes", fail)
        missing = str(tmp_path / "nowhere" / "x")
        for paths in ([missing, str(tmp_path / "x.csv")],
                      [str(tmp_path / "x.json"), missing]):
            code = main(["synth", "--kind", "cv", "--dim", "64",
                         "--out", paths[0], "--csv", paths[1]])
            assert code == EXIT_USAGE
            assert "nowhere" in capsys.readouterr().err

    def test_bare_memory_error_names_its_type(self, tmp_path, capsys,
                                              monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError()
        monkeypatch.setattr(data_module, "synthesize", out_of_memory)
        code = main(["synth", "--kind", "dv", "--qubits", "1", "--rank", "2",
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.splitlines() == ["error: MemoryError"]

    def test_huge_cv_cutoff_exits_2(self, tmp_path, capsys):
        t0 = time.perf_counter()
        code = main(["synth", "--kind", "cv", "--dim", "20000",
                     "--out", str(tmp_path / "x.json")])
        assert time.perf_counter() - t0 < 1.0
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "GiB" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        pytest.param(("--kind", "dv", "--noise", "nan", *SMALL_GRIDS),
                     id="dv-noise-nan"),
        pytest.param(("--kind", "dv", "--noise", "inf", *SMALL_GRIDS),
                     id="dv-noise-inf"),
        pytest.param(("--kind", "cv", "--alpha", "nan", *SMALL_GRIDS),
                     id="cv-alpha-nan"),
        pytest.param(("--kind", "cv", "--alpha", "inf", *SMALL_GRIDS),
                     id="cv-alpha-inf"),
        pytest.param(("--kind", "cv", "--theta", "0,nan", *SMALL_GRIDS),
                     id="cv-theta-0,nan"),
        pytest.param(("--kind", "cv", "--alpha", "nan"),
                     id="cv-alpha-nan-default-grids"),
        pytest.param(("--kind", "cv", "--noise", "nan"),
                     id="cv-noise-nan-default-grids"),
        pytest.param(("--kind", "cv", "--noise", "-1"),
                     id="cv-noise-negative-default-grids"),
        pytest.param(("--kind", "cv", "--theta", "0,inf"),
                     id="cv-theta-0,inf-default-grids"),
    ])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, argv):
        out, csv_path = tmp_path / "d.json", tmp_path / "d.csv"
        # Both grid sets warn at N = 8 (|alpha|^2 reaches N / 4 = 2, the
        # small one by rounding); the input is rejected before any grid is
        # built, so nothing warns and stderr holds one line.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["synth", *argv, "--dim", "8", "--out", str(out),
                         "--csv", str(csv_path)])
        assert code == EXIT_USAGE
        assert [str(w.message) for w in caught] == []
        assert not out.exists() and not csv_path.exists()
        err = capsys.readouterr().err
        assert "finite" in err and len(err.splitlines()) == 1

    def test_failed_synth_removes_the_files_it_created(self, tmp_path,
                                                       capsys):
        out, csv = tmp_path / "new.json", tmp_path / "new.csv"
        code = main(["synth", "--kind", "cv", "--dim", "20000",
                     "--out", str(out), "--csv", str(csv)])
        assert code == EXIT_USAGE
        assert "GiB" in capsys.readouterr().err
        assert not out.exists() and not csv.exists()

    def test_failed_synth_keeps_existing_files(self, tmp_path, capsys):
        out, csv = tmp_path / "old.json", tmp_path / "old.csv"
        out.write_text("previous")
        csv.write_text("previous csv")
        code = main(["synth", "--kind", "cv", "--dim", "20000",
                     "--out", str(out), "--csv", str(csv)])
        assert code == EXIT_USAGE
        assert out.read_text() == "previous"
        assert csv.read_text() == "previous csv"


class TestReconstruct:
    def test_gd_round_trip(self, dv_dataset, tmp_path, capsys):
        out = tmp_path / "est.json"
        code = main(["reconstruct", "--method", "gd", "--data",
                     str(dv_dataset), "--kraus", "2", "--iters", "50",
                     "--out", str(out)])
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "fidelity" in captured
        doc = json.loads(out.read_text())
        assert doc["method"] == "gd"
        assert len(doc["kraus"]) == 2
        assert len(doc["trace"]["loss"]) == 50
        assert doc["trace"]["stop_reason"] == "max_iters"
        assert doc["trace"]["n_iters"] == 50
        assert 0.0 <= doc["fidelity"] <= 1.0

    def test_pls_round_trip(self, dv_dataset, tmp_path, capsys):
        out = tmp_path / "est.json"
        code = main(["reconstruct", "--method", "pls", "--data",
                     str(dv_dataset), "--out", str(out)])
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "converged: true" in captured
        doc = json.loads(out.read_text())
        assert doc["method"] == "pls"
        assert doc["converged"] is True

    def test_pls_on_subsampled_data_exits_3(self, tmp_path, capsys):
        data_path = tmp_path / "sub.json"
        main(["synth", "--kind", "dv", "--qubits", "1", "--rank", "2",
              "--gamma", "0.1", "--out", str(data_path)])
        code = main(["reconstruct", "--method", "pls", "--data",
                     str(data_path)])
        assert code == EXIT_INCOMPATIBLE
        assert "complete" in capsys.readouterr().err

    def test_malformed_data_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = main(["reconstruct", "--method", "gd", "--data", str(bad)])
        assert code == EXIT_USAGE

    def test_missing_key_exits_2(self, dv_dataset, capsys):
        doc = json.loads(dv_dataset.read_text())
        del doc["dim"]
        dv_dataset.write_text(json.dumps(doc))
        code = main(["reconstruct", "--method", "pls", "--data",
                     str(dv_dataset)])
        assert code == EXIT_USAGE
        assert "dim" in capsys.readouterr().err

    def test_non_object_data_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        code = main(["reconstruct", "--method", "pls", "--data", str(bad)])
        assert code == EXIT_USAGE
        assert "JSON object" in capsys.readouterr().err

    def test_probes_list_exits_2(self, dv_dataset, capsys):
        doc = json.loads(dv_dataset.read_text())
        doc["probes"] = [1, 2]
        dv_dataset.write_text(json.dumps(doc))
        code = main(["reconstruct", "--method", "gd", "--data",
                     str(dv_dataset), "--iters", "1"])
        assert code == EXIT_USAGE
        assert "JSON object" in capsys.readouterr().err

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        code = main(["reconstruct", "--method", "gd", "--data",
                     str(tmp_path / "absent.json")])
        assert code == EXIT_USAGE
        assert "absent.json" in capsys.readouterr().err

    def test_out_in_missing_directory_exits_2(self, dv_dataset, tmp_path,
                                              capsys):
        code = main(["reconstruct", "--method", "gd", "--data",
                     str(dv_dataset), "--iters", "1",
                     "--out", str(tmp_path / "nowhere" / "est.json")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("method, fit_name", [("gd", "fit"),
                                                  ("pls", "fit_pls")])
    def test_bad_out_fails_before_the_fit(self, dv_dataset, tmp_path, capsys,
                                          monkeypatch, method, fit_name):
        module = gd if method == "gd" else pls

        def no_fit(*args, **kwargs):
            raise AssertionError("the fit ran before --out was checked")
        monkeypatch.setattr(module, fit_name, no_fit)
        code = main(["reconstruct", "--method", method, "--data",
                     str(dv_dataset),
                     "--out", str(tmp_path / "nowhere" / "est.json")])
        assert code == EXIT_USAGE
        assert "nowhere" in capsys.readouterr().err

    def test_existing_out_kept_when_the_fit_fails(self, dv_dataset, tmp_path,
                                                  monkeypatch):
        out = tmp_path / "est.json"
        out.write_text("previous")

        def failing_fit(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")
        monkeypatch.setattr(gd, "fit", failing_fit)
        code = main(["reconstruct", "--method", "gd", "--data",
                     str(dv_dataset), "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert out.read_text() == "previous"

    def test_new_out_removed_when_the_fit_fails(self, dv_dataset, tmp_path,
                                                monkeypatch):
        out = tmp_path / "est.json"

        def failing_fit(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")
        monkeypatch.setattr(gd, "fit", failing_fit)
        code = main(["reconstruct", "--method", "gd", "--data",
                     str(dv_dataset), "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert not out.exists()

    def test_step_off_the_manifold_exits_4(self, dv_dataset, tmp_path,
                                           capsys, monkeypatch):
        # The fit's TP guard is a numerical failure, not a usage error.
        monkeypatch.setattr(gd, "_cayley",
                            lambda stack, grad, eta: np.nan * stack)
        out = tmp_path / "est.json"
        code = main(["reconstruct", "--method", "gd", "--data",
                     str(dv_dataset), "--iters", "5", "--out", str(out)])
        assert code == EXIT_NUMERICAL and not out.exists()
        err = capsys.readouterr().err
        assert "tp_defect nan" in err and len(err.splitlines()) == 1

    def test_gd_trace_has_grad_norm_and_eta(self, dv_dataset, tmp_path):
        out = tmp_path / "est.json"
        code = main(["reconstruct", "--method", "gd", "--data",
                     str(dv_dataset), "--kraus", "2", "--iters", "20",
                     "--lr", "0.2", "--decay", "0.9", "--out", str(out)])
        assert code == EXIT_OK
        trace = json.loads(out.read_text())["trace"]
        assert len(trace["grad_norm"]) == len(trace["eta"]) == 20
        assert trace["eta"][0] == 0.2
        assert trace["eta"][-1] == pytest.approx(0.2 * 0.9 ** 19, rel=1e-12)
        assert min(trace["grad_norm"]) > 0
        for phase in ("pass_time_s", "cayley_time_s", "tp_check_time_s"):
            assert len(trace[phase]) == len(trace["iter_time_s"]) == 20

    def test_gd_trace_has_every_fit_trace_field(self, dv_dataset, tmp_path,
                                                monkeypatch):
        fit, fits = gd.fit, []

        def recording_fit(*args):
            fits.append(fit(*args))
            return fits[-1]
        monkeypatch.setattr(gd, "fit", recording_fit)
        out = tmp_path / "est.json"
        assert main(["reconstruct", "--method", "gd", "--data",
                     str(dv_dataset), "--kraus", "2", "--iters", "20",
                     "--out", str(out)]) == EXIT_OK
        trace = json.loads(out.read_text())["trace"]
        assert set(trace) == {f.name for f in dataclasses.fields(gd.FitTrace)}
        # Written as the dataclass's own fields, equal to its deep copy.
        assert trace == json.loads(json.dumps(dataclasses.asdict(fits[0][1])))
        # One full-batch plateau check, every plateau_window = 20 steps.
        assert trace["full_loss"] == [[20, trace["loss"][19]]]

    def test_kraus_above_the_choi_rank_exits_2(self, dv_dataset, tmp_path,
                                               capsys):
        out = tmp_path / "est.json"
        code = main(["reconstruct", "--method", "gd", "--data",
                     str(dv_dataset), "--kraus", "5", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "N^2 = 4" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_iterations_exit_2(self, dv_dataset, capsys):
        code = main(["reconstruct", "--method", "gd", "--data",
                     str(dv_dataset), "--iters", "-3"])
        assert code == EXIT_USAGE
        assert "max_iters" in capsys.readouterr().err

    @pytest.mark.parametrize("probes", [
        {"type": "pauli", "n_qubits": 11},
        {"type": "pauli", "n_qubits": 1, "indices": [6]},
        {"type": "pauli", "n_qubits": "1"},
        {"type": "pauli", "n_qubits": 2},
        {"type": "coherent_grid", "grid": {"rows": 3}},
    ])
    def test_crafted_descriptor_exits_2(self, dv_dataset, capsys, probes):
        doc = json.loads(dv_dataset.read_text())
        doc["probes"] = probes
        dv_dataset.write_text(json.dumps(doc))
        code = main(["reconstruct", "--method", "gd", "--data",
                     str(dv_dataset), "--iters", "1"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("key, value", [
        ("data", float("nan")), ("data", float("inf")),
        ("noise_sigma", float("nan")), ("noise_sigma", float("inf")),
    ], ids=["data-nan", "data-inf", "noise_sigma-nan", "noise_sigma-inf"])
    def test_non_finite_file_entry_exits_2(self, dv_dataset, tmp_path,
                                           capsys, key, value):
        # JSON readers accept NaN and Infinity tokens; load rejects them.
        doc = json.loads(dv_dataset.read_text())
        if key == "data":
            doc["data"][0][0] = value
        else:
            doc[key] = value
        dv_dataset.write_text(json.dumps(doc))
        out = tmp_path / "est.json"
        code = main(["reconstruct", "--method", "pls", "--data",
                     str(dv_dataset), "--out", str(out)])
        assert code == EXIT_USAGE and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("method, fit", [("gd", "fit"),
                                             ("pls", "fit_pls")])
    def test_non_finite_truth_exits_2_before_the_fit(
            self, dv_dataset, tmp_path, capsys, monkeypatch, method, fit):
        doc = json.loads(dv_dataset.read_text())
        doc["truth"]["kraus"][1][0][1][0] = float("nan")
        dv_dataset.write_text(json.dumps(doc))
        module = gd if method == "gd" else pls
        monkeypatch.setattr(module, fit, lambda *a, **k: pytest.fail("fit"))
        out = tmp_path / "est.json"
        code = main(["reconstruct", "--method", method, "--data",
                     str(dv_dataset), "--out", str(out)])
        assert code == EXIT_USAGE and not out.exists()
        err = capsys.readouterr().err
        assert "truth must be finite" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ("--method", "gd", "--lr", "nan"),
        ("--method", "gd", "--lr", "inf"),
        ("--method", "gd", "--l1", "nan"),
        ("--method", "gd", "--l1", "inf"),
        ("--method", "pls", "--proj-tol", "nan"),
        ("--method", "pls", "--proj-tol", "inf"),
    ], ids=lambda argv: "-".join(a.lstrip("-") for a in argv[1:]))
    def test_non_finite_option_exits_2(self, dv_dataset, tmp_path, capsys,
                                       argv):
        out = tmp_path / "est.json"
        code = main(["reconstruct", "--data", str(dv_dataset), "--out",
                     str(out), *argv])
        assert code == EXIT_USAGE and not out.exists()
        err = capsys.readouterr().err
        assert "finite" in err and len(err.splitlines()) == 1

    def test_pls_three_qubits(self, tmp_path, capsys):
        data_path = tmp_path / "dv3.json"
        out = tmp_path / "est3.json"
        assert main(["synth", "--kind", "dv", "--qubits", "3", "--rank", "8",
                     "--noise", "1e-2", "--out", str(data_path)]) == EXIT_OK
        code = main(["reconstruct", "--method", "pls", "--data",
                     str(data_path), "--out", str(out)])
        assert code == EXIT_OK
        choi = ChoiMatrix(complex_from_json(json.loads(out.read_text())["choi"]))
        assert choi.dim == 8
        assert tp_violation(choi) <= 1e-6
        assert cp_violation(choi) <= 1e-6


class TestFidelity:
    def test_dataset_truth_vs_itself(self, dv_dataset, capsys):
        code = main(["fidelity", str(dv_dataset), str(dv_dataset)])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert float(lines[0]) == pytest.approx(1.0, abs=1e-8)
        assert float(lines[1]) == pytest.approx(0.0, abs=1e-8)

    def test_gd_estimate_vs_truth(self, dv_dataset, tmp_path, capsys):
        est = tmp_path / "est.json"
        main(["reconstruct", "--method", "gd", "--data", str(dv_dataset),
              "--kraus", "2", "--iters", "100", "--out", str(est)])
        capsys.readouterr()
        code = main(["fidelity", str(dv_dataset), str(est)])
        assert code == EXIT_OK
        fid = float(capsys.readouterr().out.splitlines()[0])
        assert 0.8 <= fid <= 1.0

    def test_kraus_vs_choi_payload_consistency(self, dv_dataset, tmp_path,
                                               capsys):
        gd_est = tmp_path / "gd.json"
        pls_est = tmp_path / "pls.json"
        main(["reconstruct", "--method", "gd", "--data", str(dv_dataset),
              "--kraus", "2", "--iters", "100", "--out", str(gd_est)])
        main(["reconstruct", "--method", "pls", "--data", str(dv_dataset),
              "--out", str(pls_est)])
        capsys.readouterr()
        assert main(["fidelity", str(gd_est), str(pls_est)]) == EXIT_OK
        fid = float(capsys.readouterr().out.splitlines()[0])
        assert 0.5 <= fid <= 1.0

    @pytest.mark.parametrize("payload", ["kraus", "choi", "truth"])
    def test_non_finite_payload_exits_2(self, dv_dataset, tmp_path, capsys,
                                        payload):
        bad = dv_dataset
        if payload != "truth":
            bad = tmp_path / f"{payload}.json"
            method = "gd" if payload == "kraus" else "pls"
            main(["reconstruct", "--method", method, "--data",
                  str(dv_dataset), "--iters", "5", "--out", str(bad)])
        doc = json.loads(bad.read_text())
        # Rows of the Choi matrix or of the first Kraus block.
        rows = (doc["choi"] if payload == "choi" else doc["kraus"][0]
                if payload == "kraus" else doc["truth"]["kraus"][0])
        rows[0][1] = [float("inf"), float("nan")]
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["fidelity", str(dv_dataset), str(bad)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("non-finite" in captured.err
                and len(captured.err.splitlines()) == 1)

    @pytest.mark.parametrize("doc", [
        {"kraus": []}, {"kraus": [1, 2]}, {"kraus": [[[1]]]}, {"choi": []}],
        ids=["kraus-empty", "kraus-flat", "kraus-no-pairs", "choi-empty"])
    def test_malformed_payload_exits_2(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, **doc}))
        assert main(["fidelity", str(bad), str(bad)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_truth_payload_missing_kraus(self, dv_dataset, capsys):
        doc = json.loads(dv_dataset.read_text())
        del doc["truth"]["kraus"]
        dv_dataset.write_text(json.dumps(doc))
        code = main(["fidelity", str(dv_dataset), str(dv_dataset)])
        assert code == EXIT_USAGE

    def test_non_object_file_exits_2(self, dv_dataset, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        code = main(["fidelity", str(dv_dataset), str(bad)])
        assert code == EXIT_USAGE
        assert "JSON object" in capsys.readouterr().err

    def test_payload_without_kraus_or_choi(self, tmp_path, capsys):
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps({"schema_version": 1}))
        code = main(["fidelity", str(bad), str(bad)])
        assert code == EXIT_USAGE


class TestBenchmarkCommand:
    def test_end_to_end(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "sweep": "noise", "values": [1e-2], "seeds": [0],
            "n_qubits": 1, "rank": 2, "kraus": [2], "methods": ["gd"],
            "gd": {"max_iters": 10}}))
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        code = main(["benchmark", "--spec", str(spec),
                     "--out-csv", str(csv_path), "--out-json", str(json_path)])
        assert code == EXIT_OK
        assert "0 failed cells" in capsys.readouterr().out
        assert csv_path.exists() and json_path.exists()

    @pytest.mark.parametrize("doc, match", [
        ([1, 2], "JSON object"),
        ({"sweep": "noise", "values": [1], "seeds": [0], "colour": 1},
         "colour"),
        ({"sweep": "noise", "values": [1e-2], "seeds": [0], "kraus": [4],
          "gd": {"k": 1}}, "gd may not set"),
    ])
    def test_bad_spec_exits_2(self, tmp_path, capsys, doc, match):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        code = main(["benchmark", "--spec", str(spec), "--out-csv",
                     str(tmp_path / "r.csv"), "--out-json",
                     str(tmp_path / "s.json")])
        assert code == EXIT_USAGE
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["--out-csv", "--out-json"])
    def test_bad_out_fails_before_the_sweep(self, tmp_path, capsys,
                                            monkeypatch, bad):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"sweep": "noise", "values": [1e-2],
                                    "seeds": [0]}))

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before its outputs were "
                                 "checked")
        monkeypatch.setattr(bench, "run_sweep", no_sweep)
        outs = {"--out-csv": tmp_path / "r.csv",
                "--out-json": tmp_path / "s.json"}
        outs[bad] = tmp_path / "nowhere" / "out"
        code = main(["benchmark", "--spec", str(spec),
                     *(str(x) for pair in outs.items() for x in pair)])
        assert code == EXIT_USAGE
        assert "nowhere" in capsys.readouterr().err
        # A file claimed before the failing one is removed again.
        assert not any(path.exists() for path in outs.values())

    def test_missing_spec_exits_2(self, tmp_path, capsys):
        code = main(["benchmark", "--spec", str(tmp_path / "absent.json"),
                     "--out-csv", str(tmp_path / "r.csv"),
                     "--out-json", str(tmp_path / "s.json")])
        assert code == EXIT_USAGE
        assert "absent.json" in capsys.readouterr().err
