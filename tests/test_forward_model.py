"""The factored forward model against the dense oracle it replaced."""

import json

import numpy as np
import pytest

from dense_oracle import dense_expectations, dense_value_and_grad
from kraustomo import cv
from kraustomo import data as data_module
from kraustomo.cli import EXIT_USAGE, main
from kraustomo.core import (factor_states, factored_expectations,
                            factored_pullback, probe_terms, real_observables)
from kraustomo.data import (complex_to_json, load, materialize_probes, save,
                            subsample, synthesize)
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


def _projectors(kets):
    return kets[:, :, None] * kets[:, None, :].conj()


def _cv_sets(dim, half_width, points):
    """The coherent kets and the displaced-parity stack of a square grid."""
    grid = cv.CvGrid(-half_width, half_width, -half_width, half_width,
                     points, points).to_dict()
    return tuple(materialize_probes({"type": kind, "grid": grid}, dim)
                 for kind in ("coherent_grid", "displaced_parity_grid"))


# name -> (tomogram, k, expected factor rank R, the builders' dense probe
# and measurement stacks)
def _setting(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name.startswith("dv"):
        n = int(name[2])
        ops = pauli_projectors(n)
        process = random_process(2 ** n, 3, rng)
        return synthesize(process, ops, ops, 1e-2, rng), 2, 1, ops, ops
    if name.startswith("cv"):
        dim = int(name[2:])
        # Grids inside |alpha|^2 <= dim / 4: no truncation warning.
        kets, meas = _cv_sets(dim, 0.9 if dim == 8 else 1.4, 4)
        process = cv.snap_displace_process(1.0, cv.DEFAULT_PHASES, dim)
        return (synthesize(process, kets, meas, 1e-2, rng), 3, 1,
                _projectors(kets), meas)
    kind = name.split("-")[1]
    subsampled = name.endswith("-subsampled")
    probes = _explicit_probes(kind, 4, 12 if subsampled else 6, rng)
    process = random_process(4, 3, rng)
    meas = pauli_projectors(2)
    rank = 2 if kind == "rank2" else 4
    tomogram = synthesize(process, probes, meas, 1e-2, rng)
    if subsampled:      # R > 1 factors that are fancy-indexed copies
        tomogram = subsample(tomogram, 0.5, rng)
        probes = probes[tomogram.probe_spec["indices"]]
        meas = meas[tomogram.meas_spec["indices"]]
    return tomogram, 2, rank, probes, meas


def _view_tol(stack):
    """1e-15 for states and observables of spectral norm at most 1; eigh
    rebuilds a stack of larger norm to about 1e-15 N times that norm."""
    norm = np.linalg.norm(stack, 2, axis=(1, 2)).max()
    return 1e-15 * (1.0 if norm <= 1 + 1e-12 else stack.shape[-1] * norm)


SETTINGS = ["dv1", "dv2", "dv3", "cv8", "cv16", "cv32", "explicit-rank2",
            "explicit-rank2-subsampled", "explicit-full",
            "explicit-indefinite"]
BATCHES = {"full": None, "repeated-pair": [(0, 1), (3, 2), (0, 1), (5, 0)],
           "empty": []}


@pytest.fixture(scope="module", params=SETTINGS)
def setting(request):
    return _setting(request.param)


class TestFactorStates:
    def test_reconstructs_the_states(self, setting):
        # The dense view A S A^dag against the builder's stack.
        tomogram, _, rank, probes, _ = setting
        amps, signs = tomogram.probe_factors
        assert amps.shape == (tomogram.num_probes, tomogram.dim, rank)
        assert np.abs(tomogram.probes - probes).max() <= _view_tol(probes)

    def test_save_load_round_trip(self, setting, tmp_path):
        # The settings carry explicit sets: written from the stored forms,
        # and factored again on load.
        tomogram, _, _, probes, meas = setting
        save(tomogram, tmp_path / "t.json")
        back = load(tmp_path / "t.json")
        assert np.array_equal(back.data, tomogram.data)
        assert np.abs(back.probes - probes).max() <= 2 * _view_tol(probes)
        assert np.abs(back.measurements - meas).max() <= 2 * _view_tol(meas)

    def test_indefinite_keeps_negative_signs(self):
        tomogram = _setting("explicit-indefinite")[0]
        signs = tomogram.probe_factors[1]
        assert (signs < 0).any() and (signs > 0).any()

    def test_pure_coherent_probes_have_rank_one(self):
        with pytest.warns(UserWarning):
            kets, _ = _cv_sets(32, 2.5, 10)
        assert factor_states(_projectors(kets))[0].shape == (100, 32, 1)

    @staticmethod
    def _kets_match_the_eigh_factors(probes, kets):
        # The kets a pure stack is built from serve as its factors (R = 1,
        # S = 1); U = Re sigma + Im sigma is e against T = I.
        p, dim = probes.shape[:2]
        assert kets.shape == (p, dim)
        assert np.abs(_projectors(kets) - probes).max() <= 1e-15
        terms = probe_terms((kets[:, :, None], np.ones((p, 1))))
        eigh_terms = probe_terms(factor_states(probes))
        blocks = init_kraus(3, dim, np.random.default_rng(7)).blocks
        ident = np.eye(dim * dim)
        u, phi = factored_expectations(blocks, terms, ident)
        want, want_phi = factored_expectations(blocks, eigh_terms, ident)
        assert np.abs(u - want).max() <= RTOL * np.abs(want).max()
        coeffs = np.random.default_rng(8).normal(size=u.shape)
        got = factored_pullback(phi, terms, ident, coeffs)
        want = factored_pullback(want_phi, eigh_terms, ident, coeffs)
        assert np.abs(got - want).max() <= RTOL * np.abs(want).max()

    @pytest.mark.parametrize("dim, half_width", [(8, 0.9), (16, 1.4),
                                                 (32, 2.0)])
    def test_coherent_kets_match_the_eigh_factors(self, dim, half_width):
        grid = cv.CvGrid(-half_width, half_width, -half_width, half_width,
                         5, 4).to_dict()
        kets = materialize_probes({"type": "coherent_grid", "grid": grid},
                                  dim)
        k = cv.coherent_ket(cv.CvGrid.from_dict(grid).points, dim)
        probes = k[:, :, None] * k[:, None, :].conj()
        assert len(probes) == 20
        self._kets_match_the_eigh_factors(probes, kets)

    @pytest.mark.parametrize("spec", [
        {"type": "pauli", "n_qubits": 1},
        {"type": "pauli", "n_qubits": 2},
        {"type": "pauli", "n_qubits": 3},
        {"type": "pauli", "n_qubits": 4, "indices": list(range(0, 1296, 7))},
    ], ids=["n1", "n2", "n3", "n4-subset"])
    def test_pauli_kets_match_the_eigh_factors(self, spec):
        n = spec["n_qubits"]
        kets = materialize_probes(spec, 2 ** n)
        self._kets_match_the_eigh_factors(
            pauli_projectors(n, spec.get("indices")), kets)

    def test_load_factors_coherent_probes_from_their_kets(self, tmp_path,
                                                          monkeypatch):
        # Coherent and Pauli probes alike, through synth and load.
        def fail(states):
            raise AssertionError("pure probes were eigendecomposed")
        monkeypatch.setattr(data_module, "factor_states", fail)
        for name, args, shape in [
                ("cv.json", ("--kind", "cv", "--dim", "8"), (100, 8, 1)),
                ("dv.json", ("--kind", "dv", "--qubits", "2"), (36, 4, 1)),
                ("sub.json", ("--kind", "dv", "--qubits", "2", "--gamma",
                              "0.5"), (25, 4, 1))]:
            path = tmp_path / name
            assert main(["synth", *args, "--out", str(path)]) == 0
            tomogram = load(path)
            amps, signs = tomogram.probe_factors
            assert amps.shape == shape and (signs == 1).all()
            rebuilt = amps * amps.swapaxes(1, 2).conj()
            assert np.abs(rebuilt - tomogram.probes).max() <= 1e-15

    def test_lower_rank_states_are_padded(self, rng):
        states = np.array([_pure(3, rng), np.eye(3) / 3, np.zeros((3, 3))])
        amps, signs = factor_states(states)
        assert amps.shape == (3, 3, 3)
        assert np.count_nonzero(signs, axis=1).tolist() == [1, 3, 0]
        rebuilt = np.matmul(amps * signs[:, None, :],
                            amps.conj().swapaxes(1, 2))
        assert np.abs(rebuilt - states).max() <= 1e-15

    def test_subsample_slices_the_factors(self, rng):
        tomogram, _, _, probes, _ = _setting("explicit-indefinite")
        sub = subsample(tomogram, 0.5, rng)
        want = probes[sub.probe_spec["indices"]]
        assert np.abs(sub.probes - want).max() <= _view_tol(want)

    def test_subsample_slices_the_real_observables(self, rng):
        tomogram, _, _, _, meas = _setting("cv8")
        sub = subsample(tomogram, 0.5, rng)
        mi = sub.meas_spec["indices"]
        assert np.array_equal(sub.meas_real, real_observables(meas[mi]))
        assert np.array_equal(sub.meas_real, tomogram.meas_real[mi])
        assert np.abs(sub.measurements - meas[mi]).max() <= 1e-15


def _dense_pullback(blocks, states, observables, coeffs, paired):
    """sum_i W_i K_l rho_i with W_i = sum_j c_ij M_j (or c_b M_b)."""
    if paired:
        weights = coeffs[:, None, None] * observables
    else:
        weights = np.einsum("pq,qab->pab", coeffs, observables)
    left = np.matmul(blocks[:, None], states[None])
    return np.matmul(weights[None], left).sum(axis=1)


class TestRealObservables:
    """The real form T = Re M + Im M against the dense complex model."""

    def test_shape_and_values(self, setting):
        tomogram, _, _, _, meas = setting
        assert tomogram.meas_real.shape == (len(meas), tomogram.dim ** 2)
        want = (meas.real + meas.imag).reshape(len(meas), -1)
        assert np.array_equal(tomogram.meas_real, want)

    def test_dense_view_matches_the_builder(self, setting):
        tomogram, _, _, _, meas = setting
        assert np.abs(tomogram.measurements - meas).max() <= _view_tol(meas)

    @pytest.mark.parametrize("batch", BATCHES.values(), ids=BATCHES.keys())
    def test_forward_and_pullback(self, setting, batch):
        tomogram, k, _, _, _ = setting
        blocks = init_kraus(k, tomogram.dim, np.random.default_rng(7)).blocks
        amps, signs = tomogram.probe_factors
        rho, meas, obs = (tomogram.probes, tomogram.measurements,
                          tomogram.meas_real)
        paired = batch is not None
        if paired:
            idx = np.asarray(batch, dtype=int).reshape(-1, 2)
            i, j = idx[:, 0], idx[:, 1]
            amps, signs, rho = amps[i], signs[i], rho[i]
            meas, obs = meas[j], obs[j]
        terms = probe_terms((amps, signs))
        e, phi = factored_expectations(blocks, terms, obs, paired)
        want = dense_expectations(blocks, rho, meas)
        if paired:
            want = want[np.arange(len(i)), np.arange(len(i))]
        assert e.shape == want.shape
        assert np.abs(e - want).max(initial=0.0) \
            <= RTOL * np.abs(want).max(initial=1.0)
        coeffs = np.random.default_rng(8).normal(size=e.shape)
        got = factored_pullback(phi, terms, obs, coeffs, paired)
        want = _dense_pullback(blocks, rho, meas, coeffs, paired)
        assert got.shape == want.shape == blocks.shape
        assert np.abs(got - want).max() <= RTOL * np.abs(want).max(initial=1.0)


class TestMatchesDenseOracle:
    @pytest.mark.parametrize("batch", BATCHES.values(), ids=BATCHES.keys())
    def test_value_and_gradient(self, setting, batch):
        tomogram, k, _, _, _ = setting
        kraus = init_kraus(k, tomogram.dim, np.random.default_rng(7))
        value, grad = value_and_grad(kraus, tomogram, batch)
        want_value, want_grad = dense_value_and_grad(kraus.blocks, tomogram,
                                                     batch)
        assert abs(value - want_value) <= RTOL * abs(want_value)
        want = want_grad.reshape(grad.shape)
        assert np.abs(grad - want).max() <= RTOL * np.abs(want).max()

    def test_synthesis(self, setting):
        tomogram = setting[0]
        got = synthesize(tomogram.truth, tomogram.probes,
                         tomogram.measurements, 0.0).data
        want = dense_expectations(tomogram.truth.blocks, tomogram.probes,
                                  tomogram.measurements)
        assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


def _dataset_with_explicit(tmp_path, side, mats):
    """A dv n=1 dataset file whose probes or measurements are mats."""
    path = tmp_path / "dv.json"
    assert main(["synth", "--kind", "dv", "--qubits", "1", "--rank", "2",
                 "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc[side] = {"type": "explicit", "matrices": complex_to_json(mats)}
    path.write_text(json.dumps(doc))
    return path


class TestNonHermitianMeasurements:
    def _meas(self):
        meas = pauli_projectors(1)
        meas[4, 1, 0] += 0.5j
        return meas

    def test_real_form_rejects(self):
        with pytest.raises(ValueError, match="Hermitian"):
            real_observables(self._meas())

    def test_tomogram_rejects(self, tmp_path):
        path = _dataset_with_explicit(tmp_path, "measurements", self._meas())
        with pytest.raises(ValueError, match="Hermitian"):
            load(path)

    def test_synthesis_rejects(self, rng):
        with pytest.raises(ValueError, match="Hermitian"):
            synthesize(random_process(2, 1, rng), pauli_projectors(1),
                       self._meas(), 0.0)

    def test_cli_exits_2(self, tmp_path, capsys):
        path = _dataset_with_explicit(tmp_path, "measurements", self._meas())
        code = main(["reconstruct", "--method", "gd", "--data", str(path),
                     "--iters", "1"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Hermitian" in err and len(err.splitlines()) == 1


class TestNonHermitianProbes:
    def _probes(self):
        probes = pauli_projectors(1)
        probes[2, 0, 1] += 0.5
        return probes

    def test_tomogram_rejects(self, tmp_path):
        path = _dataset_with_explicit(tmp_path, "probes", self._probes())
        with pytest.raises(ValueError, match="Hermitian"):
            load(path)

    def test_synthesis_rejects(self, rng):
        with pytest.raises(ValueError, match="Hermitian"):
            synthesize(random_process(2, 1, rng), self._probes(),
                       pauli_projectors(1), 0.0)

    @pytest.mark.parametrize("side", ["probes", "measurements"])
    def test_nan_entry_rejects(self, tmp_path, side):
        ops = pauli_projectors(1)
        ops[3, 1, 1] = np.nan
        path = _dataset_with_explicit(tmp_path, side, ops)
        with pytest.raises(ValueError, match="Hermitian.*nan"):
            load(path)

    def test_cli_exits_2(self, tmp_path, capsys):
        path = _dataset_with_explicit(tmp_path, "probes", self._probes())
        code = main(["reconstruct", "--method", "gd", "--data", str(path),
                     "--iters", "1"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Hermitian" in err and len(err.splitlines()) == 1
