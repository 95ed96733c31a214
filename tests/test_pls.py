import numpy as np
import pytest

from kraustomo.core import ChoiMatrix, kraus_to_choi, process_fidelity
from kraustomo.data import sensing_matrix, subsample, synthesize
from kraustomo.dv import pauli_projectors, random_process
from kraustomo.pls import (InformationIncompleteError, PlsConfig,
                           cp_violation, fit_pls, linear_inversion,
                           project_cp, project_cptp, project_tp,
                           tp_violation)


@pytest.fixture(scope="module")
def ensemble():
    return pauli_projectors(2)


class TestPlsConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlsConfig(dykstra_max_iters=0)
        with pytest.raises(ValueError):
            PlsConfig(dykstra_tol=0.0)
        for tol in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                PlsConfig(dykstra_tol=tol)


class TestLinearInversion:
    def test_exact_recovery_noiseless(self, ensemble, rng):
        process = random_process(4, 4, rng)
        tomogram = synthesize(process, ensemble, ensemble, 0.0)
        est = linear_inversion(tomogram)
        truth = kraus_to_choi(process)
        rel = (np.linalg.norm(est.mat - truth.mat)
               / np.linalg.norm(truth.mat))
        assert rel <= 1e-7

    def test_hermitian_output(self, ensemble, rng):
        process = random_process(4, 2, rng)
        tomogram = synthesize(process, ensemble, ensemble, 1e-2, rng)
        est = linear_inversion(tomogram)
        assert np.abs(est.mat - est.mat.conj().T).max() <= 1e-12

    def test_incomplete_data_raises(self, ensemble, rng):
        process = random_process(4, 2, rng)
        tomogram = synthesize(process, ensemble, ensemble, 1e-2, rng)
        small = subsample(tomogram, 0.1, rng)
        with pytest.raises(InformationIncompleteError, match="complete"):
            linear_inversion(small)


def _dense_oracle(tomogram):
    """Hermitized pinv(S) @ d over the dense sensing matrix, or None when
    S lacks full column rank."""
    s = sensing_matrix(tomogram.probes, tomogram.measurements)
    if np.linalg.matrix_rank(s) < tomogram.dim ** 4:
        return None
    est = (np.linalg.pinv(s) @ tomogram.data.ravel()).reshape(
        tomogram.dim ** 2, tomogram.dim ** 2)
    return 0.5 * (est + est.conj().T)


class TestFactoredInversionMatchesDense:
    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("gamma", [1.0, 0.7, 0.5, 0.3, 0.1])
    def test_matches_oracle(self, n_qubits, gamma, rng):
        ens = pauli_projectors(n_qubits)
        process = random_process(2 ** n_qubits, 3, rng)
        tomogram = synthesize(process, ens, ens, 1e-2, rng)
        if gamma < 1:
            tomogram = subsample(tomogram, gamma, rng)
        oracle = _dense_oracle(tomogram)
        if oracle is None:
            with pytest.raises(InformationIncompleteError, match="complete"):
                linear_inversion(tomogram)
        else:
            est = linear_inversion(tomogram)
            assert np.abs(est.mat - oracle).max() <= 1e-12


class TestProjectCp:
    def test_psd_input_unchanged(self, rng):
        phi = kraus_to_choi(random_process(2, 2, rng))
        out = project_cp(phi)
        assert np.abs(out.mat - phi.mat).max() <= 1e-12

    def test_clips_negative_eigenvalue(self):
        out = project_cp(ChoiMatrix(np.diag([1.0, 0.0, 0.0, -1.0])))
        assert np.allclose(out.mat, np.diag([1.0, 0.0, 0.0, 0.0]))

    def test_two_by_two_closed_form(self):
        # diag(3, -1) has nearest PSD matrix diag(3, 0); embed in a
        # 4 x 4 Choi.
        mat = np.diag([3.0, -1.0, 0.5, 0.0])
        out = project_cp(ChoiMatrix(mat))
        assert np.allclose(out.mat, np.diag([3.0, 0.0, 0.5, 0.0]))

    def test_result_is_psd(self, rng):
        herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = 0.5 * (herm + herm.conj().T)
        out = project_cp(ChoiMatrix(herm))
        assert cp_violation(out) <= 1e-12


class TestProjectTp:
    def test_makes_partial_trace_identity(self, rng):
        herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = 0.5 * (herm + herm.conj().T)
        out = project_tp(ChoiMatrix(herm))
        assert tp_violation(out) <= 1e-12

    def test_idempotent(self, rng):
        herm = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        herm = 0.5 * (herm + herm.conj().T)
        once = project_tp(ChoiMatrix(herm))
        twice = project_tp(once)
        assert np.abs(twice.mat - once.mat).max() <= 1e-12

    def test_tp_input_unchanged(self, rng):
        phi = kraus_to_choi(random_process(2, 3, rng))
        out = project_tp(phi)
        assert np.abs(out.mat - phi.mat).max() <= 1e-12


class TestProjectCptp:
    def test_constraints_satisfied(self, rng):
        herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        start = kraus_to_choi(random_process(2, 2, rng)).mat
        noisy = ChoiMatrix(start + 0.1 * (herm + herm.conj().T))
        result = project_cptp(noisy)
        assert result.converged
        assert tp_violation(result.choi) <= 1e-6
        assert cp_violation(result.choi) <= 1e-6

    def test_cptp_input_nearly_unchanged(self, rng):
        phi = kraus_to_choi(random_process(2, 3, rng))
        result = project_cptp(phi)
        assert np.abs(result.choi.mat - phi.mat).max() <= 1e-9

    def test_iteration_budget_respected(self, rng):
        herm = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        noisy = ChoiMatrix(kraus_to_choi(random_process(4, 4, rng)).mat
                           + 0.5 * (herm + herm.conj().T))
        result = project_cptp(noisy, PlsConfig(dykstra_max_iters=3))
        assert result.cycles <= 3

    def test_violations_shrink(self, rng):
        herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        noisy = ChoiMatrix(kraus_to_choi(random_process(2, 2, rng)).mat
                           + 0.3 * (herm + herm.conj().T))
        before = max(tp_violation(noisy), cp_violation(noisy))
        result = project_cptp(noisy)
        after = max(tp_violation(result.choi), cp_violation(result.choi))
        assert after < before


def _dykstra_with_tp_correction(choi, cfg):
    """The projection with a Dykstra correction on the TP step as well."""
    x = ChoiMatrix(0.5 * (choi.mat + choi.mat.conj().T))
    p = np.zeros_like(x.mat)
    q = np.zeros_like(x.mat)
    cycles, converged = 0, False
    for cycles in range(1, cfg.dykstra_max_iters + 1):
        y = project_cp(ChoiMatrix(x.mat + p))
        p = x.mat + p - y.mat
        x_new = project_tp(ChoiMatrix(y.mat + q))
        q = y.mat + q - x_new.mat
        delta = float(np.linalg.norm(x_new.mat - x.mat))
        x = x_new
        if delta < cfg.dykstra_tol:
            converged = True
            break
    return x, cycles, converged


class TestTpCorrectionIsDead:
    """The TP correction only adds terms X (x) I, which project_tp drops."""

    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    @pytest.mark.parametrize("noise", [1e-1, 1e-2, 1e-3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_corrected_loop(self, n_qubits, noise, seed):
        rng = np.random.default_rng([seed, n_qubits])
        dim = 2 ** n_qubits
        truth = kraus_to_choi(random_process(dim, rng.integers(1, dim * dim),
                                             rng)).mat
        herm = (rng.normal(size=truth.shape)
                + 1j * rng.normal(size=truth.shape))
        noisy = ChoiMatrix(truth + noise * (herm + herm.conj().T))
        cfg = PlsConfig()
        result = project_cptp(noisy, cfg)
        oracle, cycles, converged = _dykstra_with_tp_correction(noisy, cfg)
        assert np.abs(result.choi.mat - oracle.mat).max() <= 1e-12
        assert (result.cycles, result.converged) == (cycles, converged)


class TestFitPls:
    def test_noiseless_high_fidelity(self, ensemble, rng):
        process = random_process(4, 3, rng)
        tomogram = synthesize(process, ensemble, ensemble, 0.0)
        result = fit_pls(tomogram)
        fid = process_fidelity(kraus_to_choi(process), result.choi)
        assert fid.fidelity >= 0.999

    def test_noisy_output_is_cptp(self, ensemble, rng):
        process = random_process(4, 16, rng)
        tomogram = synthesize(process, ensemble, ensemble, 1e-2, rng)
        result = fit_pls(tomogram)
        assert tp_violation(result.choi) <= 1e-6
        assert cp_violation(result.choi) <= 1e-6

    def test_subsampled_raises(self, ensemble, rng):
        process = random_process(4, 2, rng)
        tomogram = synthesize(process, ensemble, ensemble, 1e-2, rng)
        with pytest.raises(InformationIncompleteError):
            fit_pls(subsample(tomogram, 0.1, rng))
