import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kraustomo
from kraustomo import cv
from kraustomo import data as data_module
from kraustomo.cli import main
from kraustomo.core import KrausStack, kraus_to_choi
from kraustomo.cv import CvGrid, coherent_ket, displaced_parity
from kraustomo.data import (SchemaError, Tomogram, complex_from_json,
                            complex_to_json, export_csv, load,
                            materialize_probes, save, sensing_matrix,
                            subsample, synthesize)
from kraustomo.dv import random_process
from dense_oracle import (coherent_kets_per_point, dense_expectations,
                          displaced_parities_per_point, pauli_projector,
                          pauli_projectors, snap_displace_per_point)


@pytest.fixture(scope="module")
def ensemble():
    return pauli_projectors(2)


@pytest.fixture()
def noisy_tomogram(ensemble, rng):
    process = random_process(4, 3, rng)
    return synthesize(process, ensemble, ensemble,
                      1e-2, rng, kind="dv", seed=42,
                      probe_spec={"type": "pauli", "n_qubits": 2},
                      meas_spec={"type": "pauli", "n_qubits": 2})


class TestComplexJson:
    def test_round_trip(self, rng):
        mat = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        back = complex_from_json(json.loads(json.dumps(complex_to_json(mat))))
        assert np.array_equal(back, mat)

    def test_encoding_shape(self):
        enc = complex_to_json(np.array([[1 + 2j]]))
        assert enc == [[[1.0, 2.0]]]


class TestSynthesize:
    def test_noiseless_identity_channel(self):
        ens = pauli_projectors(1)
        ident = KrausStack(np.eye(2)[None])
        tomogram = synthesize(ident, ens, ens, 0.0)
        # z+ probe, z+ measurement -> 1; z+ probe, x+ measurement -> 1/2.
        assert tomogram.data[4, 4] == pytest.approx(1.0, abs=1e-12)
        assert tomogram.data[4, 0] == pytest.approx(0.5, abs=1e-12)
        assert tomogram.data[4, 5] == pytest.approx(0.0, abs=1e-12)

    def test_requires_rng_for_noise(self, ensemble, rng):
        process = random_process(4, 2, rng)
        with pytest.raises(ValueError, match="rng"):
            synthesize(process, ensemble, ensemble, 1e-2)

    def test_rejects_negative_noise(self, ensemble, rng):
        process = random_process(4, 2, rng)
        with pytest.raises(ValueError, match="noise_sigma"):
            synthesize(process, ensemble, ensemble, -1e-3, rng)

    def test_noise_statistics(self, ensemble, rng):
        process = random_process(4, 16, rng)
        clean = synthesize(process, ensemble, ensemble, 0.0).data
        noisy = synthesize(process, ensemble, ensemble, 1e-2, rng)
        delta = noisy.data - clean
        assert abs(delta.mean()) < 5e-4                 # ~3 sigma of the mean
        assert delta.std() == pytest.approx(1e-2, rel=0.1)

    def test_truth_embedding_optional(self, ensemble, rng, tmp_path):
        # synthesize keeps its process; a tomogram built without one, as
        # load builds a file that stores none, has no truth.
        process = random_process(4, 2, rng)
        with_truth = synthesize(process, ensemble, ensemble, 0.0)
        without = Tomogram("dv", 4, with_truth.probe_factors,
                           with_truth.meas_real, with_truth.data, 0.0)
        assert with_truth.truth is process
        assert without.truth is None
        save(without, tmp_path / "t.json")
        assert load(tmp_path / "t.json").truth is None


class TestSubsample:
    def test_quarter_fraction_counts(self, noisy_tomogram, rng):
        sub = subsample(noisy_tomogram, 0.25, rng)
        assert sub.num_probes == 18
        assert sub.num_measurements == 18
        assert sub.data.shape == (18, 18)

    def test_values_come_from_parent(self, noisy_tomogram, rng):
        sub = subsample(noisy_tomogram, 0.5, rng)
        pi = sub.probe_spec["indices"]
        mi = sub.meas_spec["indices"]
        assert np.array_equal(sub.data,
                              noisy_tomogram.data[np.ix_(pi, mi)])
        assert np.array_equal(sub.probes, noisy_tomogram.probes[pi])

    def test_full_gamma_keeps_everything(self, noisy_tomogram, rng):
        sub = subsample(noisy_tomogram, 1.0, rng)
        assert sub.num_entries == noisy_tomogram.num_entries

    def test_rejects_bad_gamma(self, noisy_tomogram, rng):
        with pytest.raises(ValueError, match="gamma"):
            subsample(noisy_tomogram, 0.0, rng)
        with pytest.raises(ValueError, match="gamma"):
            subsample(noisy_tomogram, 1.5, rng)

    def test_tiny_gamma_fails(self, noisy_tomogram, rng):
        with pytest.raises(ValueError, match="empty"):
            subsample(noisy_tomogram, 1e-4, rng)


class TestSensingMatrix:
    def test_shape_two_qubits(self, ensemble):
        s = sensing_matrix(ensemble, ensemble)
        assert s.shape == (1296, 256)

    def test_reproduces_channel_action(self, ensemble, rng):
        process = random_process(4, 5, rng)
        s = sensing_matrix(ensemble, ensemble)
        via_choi = np.real(s @ kraus_to_choi(process).mat.ravel())
        direct = synthesize(process, ensemble, ensemble, 0.0).data.ravel()
        assert np.abs(via_choi - direct).max() <= 1e-10

    def test_predictions_are_real(self, ensemble, rng):
        process = random_process(4, 2, rng)
        s = sensing_matrix(ensemble, ensemble)
        raw = s @ kraus_to_choi(process).mat.ravel()
        assert np.abs(raw.imag).max() <= 1e-10


class TestTomogramValidation:
    def test_shape_mismatch(self, noisy_tomogram, tmp_path):
        path = tmp_path / "tomo.json"
        save(noisy_tomogram, path)
        doc = json.loads(path.read_text())
        doc["data"] = np.zeros((3, 3)).tolist()
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"data \(3, 3\) do not match"):
            load(path)

    def test_forms_checked_against_dim(self, noisy_tomogram):
        amps, signs = noisy_tomogram.probe_factors
        meas = noisy_tomogram.meas_real
        data = noisy_tomogram.data
        for factors, real in [((amps[:, :2], signs), meas),
                              ((amps, signs), meas[:, :9])]:
            with pytest.raises(ValueError, match="do not match dim 4"):
                Tomogram("dv", 4, factors, real, data, 0.0)

    @pytest.mark.parametrize("noise", [np.nan, np.inf, -1.0])
    def test_rejects_bad_noise_sigma(self, noisy_tomogram, noise):
        with pytest.raises(ValueError, match="noise_sigma"):
            Tomogram("dv", 4, noisy_tomogram.probe_factors,
                     noisy_tomogram.meas_real, noisy_tomogram.data, noise)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_data(self, noisy_tomogram, value):
        data = noisy_tomogram.data.copy()
        data[3, 5] = value
        with pytest.raises(ValueError, match="finite"):
            Tomogram("dv", 4, noisy_tomogram.probe_factors,
                     noisy_tomogram.meas_real, data, 0.0)

    @pytest.mark.parametrize("truth", [
        np.full((1, 4, 4), np.nan),
        np.array([np.eye(4), np.full((4, 4), np.inf)]),
        np.eye(2)[None]], ids=["nan", "inf", "dim-2"])
    def test_rejects_bad_truth(self, noisy_tomogram, truth):
        with pytest.raises(ValueError, match="truth"):
            Tomogram("dv", 4, noisy_tomogram.probe_factors,
                     noisy_tomogram.meas_real, noisy_tomogram.data, 0.0,
                     truth=KrausStack(truth))


class TestSaveLoad:
    def test_round_trip_bit_exact(self, noisy_tomogram, tmp_path):
        path = tmp_path / "tomo.json"
        save(noisy_tomogram, path)
        back = load(path)
        assert np.array_equal(back.data, noisy_tomogram.data)
        assert np.abs(back.probes - noisy_tomogram.probes).max() <= 1e-15
        assert np.abs(back.measurements
                      - noisy_tomogram.measurements).max() <= 1e-15
        assert back.kind == "dv"
        assert back.dim == 4
        assert back.noise_sigma == 1e-2
        assert back.seed == 42
        assert np.array_equal(back.truth.blocks, noisy_tomogram.truth.blocks)

    def test_subsampled_round_trip(self, noisy_tomogram, tmp_path, rng):
        sub = subsample(noisy_tomogram, 0.5, rng)
        path = tmp_path / "sub.json"
        save(sub, path)
        back = load(path)
        assert np.array_equal(back.data, sub.data)
        assert np.abs(back.probes - sub.probes).max() <= 1e-15

    def test_rejects_bad_schema_version(self, noisy_tomogram, tmp_path):
        path = tmp_path / "tomo.json"
        save(noisy_tomogram, path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="schema_version"):
            load(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="malformed"):
            load(path)

    def test_rejects_unknown_descriptor(self, noisy_tomogram, tmp_path):
        path = tmp_path / "tomo.json"
        save(noisy_tomogram, path)
        doc = json.loads(path.read_text())
        doc["probes"] = {"type": "mystery"}
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="descriptor"):
            load(path)


class TestMaterializeProbes:
    def test_pauli_matches_ensemble_order(self, ensemble):
        # Pauli states are given by their kets, as pure states' factors.
        kets = materialize_probes({"type": "pauli", "n_qubits": 2}, 4)
        assert kets.shape == (36, 4)
        assert np.array_equal(kets[:, :, None] * kets[:, None, :].conj(),
                              ensemble)

    def test_pauli_indices_decode_labels(self):
        kets = materialize_probes({"type": "pauli", "n_qubits": 3,
                                   "indices": [0, 215, 43]}, 8)
        # 43 = 1*36 + 1*6 + 1 in base 6: (x-, x-, x-).
        for ket, lab in zip(kets, [("x+",) * 3, ("z-",) * 3, ("x-",) * 3]):
            assert np.array_equal(np.outer(ket, ket.conj()),
                                  pauli_projector(lab))

    def test_grids_match_cv_builders(self):
        grid = CvGrid(-1, 1, -1, 1, 2, 3)
        pts = grid.points
        kets = materialize_probes({"type": "coherent_grid",
                                   "grid": grid.to_dict(),
                                   "indices": [4, 1]}, 6)
        par = materialize_probes({"type": "displaced_parity_grid",
                                  "grid": grid.to_dict()}, 6)
        assert np.array_equal(kets, coherent_ket(pts[[4, 1]], 6))
        assert np.array_equal(par, [displaced_parity(b, 6) for b in pts])

    def test_explicit_shape_checked(self):
        mats = complex_to_json(np.eye(2)[None])
        assert materialize_probes({"type": "explicit", "matrices": mats},
                                  2).shape == (1, 2, 2)
        with pytest.raises(SchemaError, match="dim 3"):
            materialize_probes({"type": "explicit", "matrices": mats}, 3)

    @pytest.mark.parametrize("spec, match", [
        ({"type": "pauli", "n_qubits": 2, "indices": [36]}, "indices"),
        ({"type": "pauli", "n_qubits": 2, "indices": [-1]}, "indices"),
        ({"type": "pauli", "n_qubits": 2, "indices": [1.0]}, "indices"),
        ({"type": "pauli", "n_qubits": 2, "indices": 3}, "indices"),
        ({"type": "pauli", "n_qubits": "2"}, "n_qubits"),
        ({"type": "pauli", "n_qubits": 2.0}, "n_qubits"),
        ({"type": "pauli", "n_qubits": True}, "n_qubits"),
        ({"type": "pauli", "n_qubits": 0}, "n_qubits"),
        ({"type": "pauli", "n_qubits": 3}, "does not match"),
        ({"type": "pauli", "n_qubits": 10 ** 30}, "does not match"),
        ({"type": "pauli"}, "n_qubits"),
        ({"type": "coherent_grid", "grid": {"rows": 2}}, "grid"),
        ({"type": "coherent_grid", "grid": [1, 2]}, "grid"),
        ({"type": "coherent_grid",
          "grid": CvGrid(-1, 1, -1, 1, 2, 2).to_dict(), "indices": [4]},
         "indices"),
        ({"type": "explicit", "matrices": [[1, 2]]}, "explicit"),
        ({"type": "mystery"}, "descriptor"),
        ({}, "descriptor"),
    ])
    def test_malformed_descriptor(self, spec, match):
        with pytest.raises(SchemaError, match=match):
            materialize_probes(spec, 4)

    def test_memory_guard_lists_no_labels(self):
        t0 = time.perf_counter()
        with pytest.raises(MemoryError, match="GiB"):
            materialize_probes({"type": "pauli", "n_qubits": 11}, 2 ** 11)
        assert time.perf_counter() - t0 < 1.0

    def test_cv_memory_guard_allocates_nothing(self):
        grid = {"type": "coherent_grid", "grid": CvGrid(0, 0, 0, 0, 1, 1)
                .to_dict()}
        t0 = time.perf_counter()
        for kind in ("coherent_grid", "displaced_parity_grid"):
            with pytest.raises(MemoryError, match="GiB"):
                materialize_probes({**grid, "type": kind}, 20000)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("kind", ["coherent_grid",
                                      "displaced_parity_grid"])
    def test_cv_grid_is_sized_before_it_is_built(self, monkeypatch, kind):
        # A 20000 x 20000 grid is 6.4 GB of points: the guard reads rows x
        # cols, or the indices, before any point exists.
        def built(*args):
            raise AssertionError("grid points built before the guard")
        monkeypatch.setattr(CvGrid, "points", property(built))
        big = CvGrid(0, 1, 0, 1, 20000, 20000).to_dict()
        with pytest.raises(MemoryError, match="GiB"):
            materialize_probes({"type": kind, "grid": big}, 8)
        monkeypatch.setattr(CvGrid, "points_at", built)
        with pytest.raises(MemoryError, match="GiB"):
            materialize_probes({"type": kind, "grid": big, "indices": [0]},
                               20000)

    def test_cv_grid_subset_builds_only_its_points(self, monkeypatch):
        grid = CvGrid(-1, 1, -2, 2, 5, 7)
        idx = [0, 6, 17, 34, 17]
        assert np.array_equal(grid.points_at(idx), grid.points[idx])
        monkeypatch.setattr(CvGrid, "points", property(
            lambda self: pytest.fail("the full grid was built")))
        big = CvGrid(0, 1, 0, 1, 20000, 20000)
        kets = materialize_probes({"type": "coherent_grid",
                                   "grid": big.to_dict(), "indices": [0, 5]},
                                  8)
        assert np.allclose(kets, cv.coherent_ket(big.points_at([0, 5]), 8))

    @pytest.mark.parametrize("kind", ["coherent_grid",
                                      "displaced_parity_grid"])
    def test_cv_grid_under_the_guard_fits_it(self, monkeypatch, kind):
        # The guard scaled down from 2 GiB so that the grid it just admits
        # (50 points at N = 32) is cheap to build; tracemalloc does not see
        # LAPACK's workspace, which the guard's per-call arrays include.
        dim = 32
        cap = (50 + 1) * data_module._GRID_WORK_ARRAYS * dim ** 2 * 16
        monkeypatch.setattr(data_module, "_MAX_GRID_BYTES", cap)
        grid = {"type": kind, "grid": CvGrid(-1, 1, -1, 1, 5, 10).to_dict()}
        tracemalloc.start()
        try:
            ops = materialize_probes(grid, dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Coherent states come as kets, displaced parities as a stack.
        assert ops.shape == {"coherent_grid": (50, dim),
                             "displaced_parity_grid": (50, dim, dim)}[kind]
        assert peak <= cap
        with pytest.raises(MemoryError, match="GiB"):
            materialize_probes({**grid, "indices": list(range(50)) + [0]},
                               dim)

    def test_selected_entries_pass_the_guard(self):
        kets = materialize_probes({"type": "pauli", "n_qubits": 6,
                                   "indices": list(range(0, 6 ** 6, 997))},
                                  64)
        assert kets.shape == (47, 64)


def _synth(tmp_path, name, *args):
    path = tmp_path / name
    assert main(["synth", *args, "--out", str(path)]) == 0
    return path


class TestSynthLoadRoundTrip:
    """qpt synth and data.load build operators through the same builder."""

    @pytest.mark.parametrize("args", [
        ("--kind", "dv", "--qubits", "2", "--rank", "4", "--noise", "1e-2"),
        ("--kind", "dv", "--qubits", "2", "--rank", "4", "--gamma", "0.3"),
        ("--kind", "cv", "--dim", "6", "--probe-grid=-1,1,-1,1,3,3",
         "--meas-grid=-1,1,-1,1,2,4", "--noise", "1e-2"),
        ("--kind", "cv", "--dim", "6", "--probe-grid=-1,1,-1,1,3,3",
         "--meas-grid=-1,1,-1,1,2,4", "--gamma", "0.5"),
    ])
    def test_load_reproduces_synthesized_arrays(self, tmp_path, monkeypatch,
                                                args):
        written = []
        monkeypatch.setattr(data_module, "save", lambda tomo, path: (
            written.append(tomo), save(tomo, path)))
        back = load(_synth(tmp_path, "d.json", *args))
        (tomo,) = written
        assert np.array_equal(back.probes, tomo.probes)
        assert np.array_equal(back.measurements, tomo.measurements)
        assert np.array_equal(back.data, tomo.data)

    # SHA-256 of the little-endian float64 data matrix, computed with the
    # factored forward model on real measurements (T = Re M + Im M), the
    # probes factored by their kets and, for cv8, one eigh per CV builder
    # call.  The command runs in a child process with OpenBLAS on one
    # thread, as CI and the benchmark run it: at cv8 the (100, 64) x
    # (64, 100) product rounds differently on two threads (by ~3e-16).
    # test_golden_commands_match_dense_oracle bounds both commands' data
    # against the dense model and the per-point CV builders.  The case ids
    # name the dataset, not the digest, so a re-pin keeps them.
    @pytest.mark.parametrize("args, digest", [
        pytest.param(
            ("--kind", "dv", "--qubits", "2", "--rank", "16", "--noise",
             "1e-2", "--seed", "3"),
            "c9616021ec07cd0bed30637ba1167acae0e995dbb514f0800905fd15d738db36",
            id="dv2"),
        pytest.param(
            ("--kind", "cv", "--dim", "8", "--seed", "5"),
            "807f502885279937906fd1040012d9407a30dd31cbef2b5c1847b815c1e5ecba",
            id="cv8"),
    ])
    def test_golden_data(self, tmp_path, args, digest):
        path = tmp_path / "g.json"
        package_root = str(Path(kraustomo.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [package_root,
                                     os.environ.get("PYTHONPATH")])))
        subprocess.run(
            [sys.executable, "-c", "import sys; from kraustomo.cli import "
             "main; sys.exit(main(sys.argv[1:]))", "synth", *args, "--out",
             str(path)], env=env, check=True, capture_output=True)
        data = np.asarray(json.loads(path.read_text())["data"], "<f8")
        assert hashlib.sha256(data.tobytes()).hexdigest() == digest

    def test_golden_commands_match_dense_oracle(self, tmp_path):
        # qpt synth draws the target and then the noise from one seeded rng.
        tomo = load(_synth(tmp_path, "dv.json", "--kind", "dv", "--qubits",
                           "2", "--rank", "16", "--noise", "1e-2", "--seed",
                           "3"))
        rng = np.random.default_rng(3)
        process = random_process(4, 16, rng)
        assert np.array_equal(tomo.truth.blocks, process.blocks)
        want = dense_expectations(process.blocks, tomo.probes,
                                  tomo.measurements)
        want += rng.normal(0.0, 1e-2, want.shape)
        assert np.abs(tomo.data - want).max() <= 1e-12
        # The CV target, probes and measurements from one eigh per point.
        tomo = load(_synth(tmp_path, "cv.json", "--kind", "cv", "--dim", "8",
                           "--seed", "5"))
        target = snap_displace_per_point(cv.DEFAULT_ALPHA, cv.DEFAULT_PHASES, 8)
        kets = coherent_kets_per_point(cv.probe_grid().points, 8)
        probes = kets[:, :, None] * kets[:, None, :].conj()
        meas = displaced_parities_per_point(cv.measurement_grid().points, 8)
        assert np.abs(tomo.truth.blocks[0] - target).max() <= 1e-12
        want = dense_expectations(target[None], probes, meas)
        assert np.abs(tomo.data - want).max() <= 1e-12


class TestExportCsv:
    def test_header_and_values(self, noisy_tomogram, tmp_path):
        path = tmp_path / "data.csv"
        export_csv(noisy_tomogram, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "probe_index,measurement_index,value"
        assert len(lines) == 1 + 36 * 36
        i, j, value = lines[1].split(",")
        assert (int(i), int(j)) == (0, 0)
        assert float(value) == noisy_tomogram.data[0, 0]
