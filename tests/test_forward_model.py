"""The factored forward model against the dense oracle it replaced."""

import json

import numpy as np
import pytest

from dense_oracle import dense_expectations, dense_value_and_grad
from kraustomo import cv
from kraustomo.cli import EXIT_USAGE, main
from kraustomo.core import factor_states
from kraustomo.data import (Tomogram, complex_to_json, expectations,
                            materialize_probes, subsample, synthesize)
from kraustomo.dv import pauli_projectors, random_process
from kraustomo.gd import init_kraus, value_and_grad

RTOL = 1e-12


def _pure(dim, rng):
    ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    ket /= np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def _explicit_probes(kind, dim, count, rng):
    if kind == "rank2":
        return np.array([0.3 * _pure(dim, rng) + 0.7 * _pure(dim, rng)
                         for _ in range(count)])
    if kind == "full":
        g = rng.normal(size=(count, dim, dim)) \
            + 1j * rng.normal(size=(count, dim, dim))
        rho = g @ g.conj().swapaxes(1, 2)
        return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    x = rng.normal(size=(count, dim, dim)) \
        + 1j * rng.normal(size=(count, dim, dim))
    return 0.5 * (x + x.conj().swapaxes(1, 2))       # Hermitian, indefinite


def _cv_stacks(dim, half_width, points):
    grid = cv.CvGrid(-half_width, half_width, -half_width, half_width,
                     points, points).to_dict()
    return (materialize_probes({"type": "coherent_grid", "grid": grid}, dim),
            materialize_probes({"type": "displaced_parity_grid",
                                "grid": grid}, dim))


# name -> (tomogram builder, k, expected factor rank R)
def _setting(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name.startswith("dv"):
        n = int(name[2])
        ops = pauli_projectors(n)
        process = random_process(2 ** n, 3, rng)
        return synthesize(process, ops, ops, 1e-2, rng), 2, 1
    if name.startswith("cv"):
        dim = int(name[2:])
        # Grids inside |alpha|^2 <= dim / 4: no truncation warning.
        probes, meas = _cv_stacks(dim, 0.9 if dim == 8 else 1.4, 4)
        process = cv.snap_displace_process(1.0, cv.DEFAULT_PHASES, dim)
        return synthesize(process, probes, meas, 1e-2, rng), 3, 1
    kind = name.split("-")[1]
    probes = _explicit_probes(kind, 4, 6, rng)
    process = random_process(4, 3, rng)
    meas = pauli_projectors(2)
    rank = 2 if kind == "rank2" else 4
    return synthesize(process, probes, meas, 1e-2, rng), 2, rank


SETTINGS = ["dv1", "dv2", "dv3", "cv8", "cv16", "explicit-rank2",
            "explicit-full", "explicit-indefinite"]
BATCHES = {"full": None, "repeated-pair": [(0, 1), (3, 2), (0, 1), (5, 0)],
           "empty": []}


@pytest.fixture(scope="module", params=SETTINGS)
def setting(request):
    return _setting(request.param)


class TestFactorStates:
    def test_reconstructs_the_states(self, setting):
        tomogram, _, rank = setting
        amps, signs = tomogram.probe_factors
        assert amps.shape == (tomogram.num_probes, tomogram.dim, rank)
        rebuilt = np.matmul(amps * signs[:, None, :],
                            amps.conj().swapaxes(1, 2))
        assert np.abs(rebuilt - tomogram.probes).max() <= 1e-14

    def test_indefinite_keeps_negative_signs(self):
        tomogram, _, _ = _setting("explicit-indefinite")
        signs = tomogram.probe_factors[1]
        assert (signs < 0).any() and (signs > 0).any()

    def test_pure_coherent_probes_have_rank_one(self):
        with pytest.warns(UserWarning):
            probes, _ = _cv_stacks(32, 2.5, 10)
        assert factor_states(probes)[0].shape == (100, 32, 1)

    def test_lower_rank_states_are_padded(self, rng):
        states = np.array([_pure(3, rng), np.eye(3) / 3, np.zeros((3, 3))])
        amps, signs = factor_states(states)
        assert amps.shape == (3, 3, 3)
        assert np.count_nonzero(signs, axis=1).tolist() == [1, 3, 0]
        rebuilt = np.matmul(amps * signs[:, None, :],
                            amps.conj().swapaxes(1, 2))
        assert np.abs(rebuilt - states).max() <= 1e-15

    def test_subsample_slices_the_factors(self, rng):
        tomogram, _, _ = _setting("explicit-indefinite")
        sub = subsample(tomogram, 0.5, rng)
        amps, signs = sub.probe_factors
        rebuilt = np.matmul(amps * signs[:, None, :],
                            amps.conj().swapaxes(1, 2))
        assert np.abs(rebuilt - sub.probes).max() <= 1e-14


class TestMatchesDenseOracle:
    @pytest.mark.parametrize("batch", BATCHES.values(), ids=BATCHES.keys())
    def test_value_and_gradient(self, setting, batch):
        tomogram, k, _ = setting
        kraus = init_kraus(k, tomogram.dim, np.random.default_rng(7))
        value, grad = value_and_grad(kraus, tomogram, batch)
        want_value, want_grad = dense_value_and_grad(kraus.blocks, tomogram,
                                                     batch)
        assert abs(value - want_value) <= RTOL * abs(want_value)
        want = want_grad.reshape(grad.shape)
        assert np.abs(grad - want).max() <= RTOL * np.abs(want).max()

    def test_synthesis(self, setting):
        tomogram, _, _ = setting
        got = expectations(tomogram.truth, tomogram.probes,
                           tomogram.measurements)
        want = dense_expectations(tomogram.truth.blocks, tomogram.probes,
                                  tomogram.measurements)
        assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


class TestNonHermitianProbes:
    def _probes(self):
        probes = pauli_projectors(1)
        probes[2, 0, 1] += 0.5
        return probes

    def test_tomogram_rejects(self):
        ops = pauli_projectors(1)
        with pytest.raises(ValueError, match="Hermitian"):
            Tomogram("dv", 2, self._probes(), ops, np.zeros((6, 6)), 0.0)

    def test_synthesis_rejects(self, rng):
        with pytest.raises(ValueError, match="Hermitian"):
            synthesize(random_process(2, 1, rng), self._probes(),
                       pauli_projectors(1), 0.0)

    def test_cli_exits_2(self, tmp_path, capsys):
        path = tmp_path / "dv.json"
        assert main(["synth", "--kind", "dv", "--qubits", "1", "--rank", "2",
                     "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["probes"] = {"type": "explicit",
                         "matrices": complex_to_json(self._probes())}
        path.write_text(json.dumps(doc))
        code = main(["reconstruct", "--method", "gd", "--data", str(path),
                     "--iters", "1"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Hermitian" in err and len(err.splitlines()) == 1
