import inspect
import json

import numpy as np
import pytest

import kraustomo
from kraustomo import bench, cli, core, cv
from kraustomo.core import (ChoiMatrix, KrausStack, kraus_to_choi,
                            partial_trace_out, process_fidelity, tp_defect)
from kraustomo.data import SCHEMA_VERSION, complex_to_json, synthesize
from kraustomo.dv import pauli_kets, random_process, random_unitary
from kraustomo.gd import GdConfig, fit
from kraustomo.pls import fit_pls

from dense_oracle import (DensityMatrix, apply_kraus, choi_apply,
                          dense_process_fidelity)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def random_state(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def test_package_root_exports_nothing():
    # Each public name has one import path: its submodule.
    assert [name for name, value in vars(kraustomo).items()
            if inspect.isfunction(value) or inspect.isclass(value)] == []


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix([[0.5, 0.1], [0.3, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))


class TestApplyKraus:
    def test_identity_channel(self, rng):
        ident = KrausStack(np.eye(3)[None])
        rho = random_state(3, rng)
        assert np.allclose(apply_kraus(ident, rho), rho.mat)

    def test_bit_flip_channel(self):
        flip = KrausStack(np.array([np.sqrt(0.5) * np.eye(2),
                                    np.sqrt(0.5) * SX]))
        out = apply_kraus(flip, np.diag([1.0, 0.0]).astype(complex))
        assert np.allclose(out, np.eye(2) / 2)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_kraus(KrausStack(np.eye(2)[None]), random_state(4, rng))

    def test_trace_preserved_on_random_channels(self, rng):
        for _ in range(100):
            kraus = random_process(3, 4, rng)
            out = apply_kraus(kraus, random_state(3, rng))
            assert abs(np.trace(out) - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(out)[0] >= -1e-10


class TestKrausToChoi:
    def test_identity_choi(self):
        phi = kraus_to_choi(KrausStack(np.eye(2)[None])).mat
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 3], [0, 3])] = 1
        assert np.allclose(phi, expected)

    def test_sigma_x_choi(self):
        phi = kraus_to_choi(KrausStack(SX[None])).mat
        expected = np.zeros((4, 4))
        expected[np.ix_([1, 2], [1, 2])] = 1
        assert np.allclose(phi, expected)

    def test_trace_and_partial_trace_for_tp(self, rng):
        for _ in range(100):
            phi = kraus_to_choi(random_process(2, 3, rng))
            assert np.trace(phi.mat).real == pytest.approx(2.0, abs=1e-9)
            assert np.abs(partial_trace_out(phi) - np.eye(2)).max() <= 1e-10

    def test_hermitian_psd_even_for_non_tp(self, rng):
        raw = KrausStack(rng.normal(size=(3, 2, 2))
                         + 1j * rng.normal(size=(3, 2, 2)))
        phi = kraus_to_choi(raw).mat
        assert np.allclose(phi, phi.conj().T)
        assert np.linalg.eigvalsh(phi)[0] >= -1e-10

    def test_choi_rank_bounded_by_kraus_count(self, rng):
        for k in (1, 3, 7):
            phi = kraus_to_choi(random_process(4, k, rng))
            eigs = np.linalg.eigvalsh(phi.mat)
            assert np.sum(eigs > 1e-8) <= k


class TestChoiApply:
    def test_identity(self, rng):
        phi = kraus_to_choi(KrausStack(np.eye(2)[None]))
        rho = random_state(2, rng)
        assert np.allclose(choi_apply(phi, rho), rho.mat)

    def test_sigma_x_on_ground_state(self):
        phi = kraus_to_choi(KrausStack(SX[None]))
        out = choi_apply(phi, np.diag([1.0, 0.0]).astype(complex))
        assert np.allclose(out, np.diag([0.0, 1.0]))

    def test_matches_kraus_application(self, rng):
        for _ in range(100):
            kraus = random_process(4, 5, rng)
            rho = random_state(4, rng)
            via_choi = choi_apply(kraus_to_choi(kraus), rho)
            via_kraus = apply_kraus(kraus, rho)
            assert np.linalg.norm(via_choi - via_kraus) <= 1e-9


class TestPartialTraceOut:
    def test_identity_channel(self):
        phi = kraus_to_choi(KrausStack(np.eye(2)[None]))
        assert np.allclose(partial_trace_out(phi), np.eye(2))

    def test_tensor_product_identity(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        out = partial_trace_out(ChoiMatrix(np.kron(a, b)))
        assert np.allclose(out, np.trace(b) * a)

    def test_two_qubit_tp_process(self, rng):
        phi = kraus_to_choi(random_process(4, 6, rng))
        assert np.abs(partial_trace_out(phi) - np.eye(4)).max() <= 1e-10


class TestTpDefect:
    def test_identity_is_zero(self):
        assert tp_defect(KrausStack(np.eye(2)[None])) == 0.0

    def test_double_identity(self):
        stack = KrausStack(np.array([np.eye(3), np.eye(3)]))
        assert tp_defect(stack) == pytest.approx(np.sqrt(3))

    def test_is_tp_flag(self, rng):
        assert random_process(2, 2, rng).is_tp()
        assert not KrausStack(2 * np.eye(2)[None]).is_tp()


class TestProcessFidelity:
    def test_self_fidelity(self, rng):
        phi = kraus_to_choi(random_process(4, 3, rng))
        assert process_fidelity(phi, phi).fidelity == pytest.approx(1.0, abs=1e-8)

    def test_orthogonal_unitaries(self):
        f = process_fidelity(kraus_to_choi(KrausStack(np.eye(2)[None])),
                             kraus_to_choi(KrausStack(SX[None])))
        assert f.fidelity == pytest.approx(0.0, abs=1e-8)
        assert f.infidelity == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("unitary", [SX, HADAMARD, np.diag([1, 1j])])
    def test_unitary_overlap_formula(self, unitary, rng):
        # For unitary channels the analytic value is |Tr(U^dag V)| / N.
        from kraustomo.dv import random_unitary
        u = random_unitary(2, rng)
        f = process_fidelity(kraus_to_choi(KrausStack(u[None])),
                             kraus_to_choi(KrausStack(unitary[None])))
        exact = abs(np.trace(u.conj().T @ unitary)) / 2
        assert f.fidelity == pytest.approx(exact, abs=1e-8)

    def test_symmetry(self, rng):
        a = kraus_to_choi(random_process(2, 2, rng))
        b = kraus_to_choi(random_process(2, 3, rng))
        assert process_fidelity(a, b).fidelity == pytest.approx(
            process_fidelity(b, a).fidelity, abs=1e-8)

    def test_rank_one_equality_iff(self, rng):
        from kraustomo.dv import random_unitary
        u = random_unitary(3, rng)
        same = process_fidelity(kraus_to_choi(KrausStack(u[None])),
                                kraus_to_choi(KrausStack((u * np.exp(0.3j))[None])))
        assert same.fidelity == pytest.approx(1.0, abs=1e-8)
        other = process_fidelity(kraus_to_choi(KrausStack(u[None])),
                                 kraus_to_choi(KrausStack(random_unitary(3, rng)[None])))
        assert other.fidelity < 1.0 - 1e-3

    def test_rejects_non_psd(self):
        bad = ChoiMatrix(np.diag([1.0, 1.0, 1.0, -0.5]).astype(complex))
        good = kraus_to_choi(KrausStack(np.eye(2)[None]))
        with pytest.raises(ValueError, match="PSD"):
            process_fidelity(bad, good)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            process_fidelity(kraus_to_choi(KrausStack(np.eye(2)[None])),
                             kraus_to_choi(KrausStack(np.eye(3)[None])))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, rng, value):
        good = random_process(2, 2, rng)
        bad = KrausStack(good.blocks.copy())
        bad.blocks[1, 0, 1] = value
        for x in forms(bad):
            for a, b in [(x, good), (good, x), (x, kraus_to_choi(good))]:
                with pytest.raises(ValueError, match="finite"):
                    process_fidelity(a, b)


def forms(channel):
    """The forms process_fidelity takes of a channel: a Kraus stack and its
    Choi matrix, or a Choi matrix alone."""
    if isinstance(channel, KrausStack):
        return [channel, kraus_to_choi(channel)]
    return [channel]


def fidelities(a, b):
    """process_fidelity of every form of a against every form of b, in both
    orders."""
    pairs = [(x, y) for x in forms(a) for y in forms(b)]
    pairs += [(y, x) for x, y in pairs]
    return np.array([process_fidelity(x, y).fidelity for x, y in pairs])


def kraus_form_fidelity(kraus_a, kraus_b):
    """||V^dag W||_1 / N for the stacked |K_l> of two Kraus stacks."""
    def vecs(kraus):
        return kraus.blocks.transpose(0, 2, 1).reshape(kraus.count, -1)
    overlap = vecs(kraus_a).conj() @ vecs(kraus_b).T
    return float(np.linalg.svd(overlap, compute_uv=False).sum()) / kraus_a.dim


def eigen_kraus(choi):
    """The Kraus stack sqrt(w_l) |v_l> of a Choi matrix's eigenpairs above
    _psd_rank's cut (|K> is the flattening of K^T)."""
    n = choi.dim
    w, v = np.linalg.eigh(choi.mat / n)
    keep = core._psd_rank(w, n, "estimate")
    vecs = (v[:, keep] * np.sqrt(n * w[keep])).T
    return KrausStack(vecs.reshape(-1, n, n).transpose(0, 2, 1))


class TestFidelityOracles:
    """process_fidelity against the dense sqrt(A) B sqrt(A) oracle at full
    rank, and against the analytic and Kraus-form values at low rank, with
    each side given in every form it takes."""

    @pytest.fixture(scope="class")
    def dv2_pairs(self):
        ops, pairs = pauli_kets(2), []
        for seed in range(3):
            process = random_process(4, 16, np.random.default_rng([seed, 1000]))
            tomogram = synthesize(process, ops, ops, 1e-2,
                                  np.random.default_rng([seed, 2000]))
            est, _ = fit(tomogram, GdConfig(k=16, seed=seed))
            pairs += [(process, est), (process, fit_pls(tomogram).choi)]
        return pairs

    def test_full_rank_matches_dense_oracle(self, dv2_pairs):
        for truth, est in dv2_pairs:
            if isinstance(est, KrausStack):
                oracle = dense_process_fidelity(forms(truth)[-1],
                                                forms(est)[-1])
                assert np.abs(fidelities(truth, est) - oracle).max() <= 1e-12

    def test_pls_estimate_matches_kraus_form(self, dv2_pairs):
        # A PLS estimate is exactly rank-deficient, and the dense oracle
        # square-roots the noise of its zero eigenvalues, so the estimate
        # is checked in Kraus form, on its eigenpairs above the cut.
        for truth, est in dv2_pairs:
            if isinstance(est, ChoiMatrix):
                exact = kraus_form_fidelity(truth, eigen_kraus(est))
                assert np.abs(fidelities(truth, est) - exact).max() <= 1e-12

    def test_every_form_reads_the_uncut_nuclear_norm(self):
        # A dv2 GD fit (a benchmark sweep cell) whose overlap X^dag Y has a
        # singular value of ~1.6e-8, its square (~2.5e-16) below a
        # matrix_rank cut: every form keeps its share of F.
        seed, ops = 1695817160, pauli_kets(2)
        process = random_process(4, 16, np.random.default_rng([seed, 1000]))
        tomogram = synthesize(process, ops, ops, 1e-2,
                              np.random.default_rng([seed, 2000]))
        est, _ = fit(tomogram, GdConfig(k=16, seed=seed))
        f = fidelities(process, est)
        assert len(f) == 8
        assert np.abs(f - kraus_form_fidelity(process, est)).max() <= 1e-12
        oracle = dense_process_fidelity(kraus_to_choi(process),
                                        kraus_to_choi(est))
        assert np.abs(f - oracle).max() <= 1e-10

    @pytest.mark.parametrize("dim", [2, 8, 16])
    def test_unitary_pairs_match_trace_overlap(self, dim):
        rng = np.random.default_rng(dim)
        u, v = random_unitary(dim, rng), random_unitary(dim, rng)
        exact = abs(np.trace(u.conj().T @ v)) / dim
        f = fidelities(KrausStack(u[None]), KrausStack(v[None]))
        assert len(f) == 8 and np.abs(f - exact).max() <= 1e-12

    @pytest.mark.filterwarnings("ignore:.*truncation")
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_low_rank_cv_fit_matches_kraus_form(self, seed):
        process = cv.snap_displace_process(dim=16)
        tomogram = synthesize(
            process, cv.coherent_ket(cv.probe_grid().points, 16),
            cv.displaced_parity(cv.measurement_grid().points, 16), 1e-2,
            np.random.default_rng([seed, 1]), kind="cv")
        est, _ = fit(tomogram, GdConfig(k=3, seed=seed))
        exact = kraus_form_fidelity(process, est)
        assert np.abs(fidelities(process, est) - exact).max() <= 1e-12

    def test_rank_deficient_kraus_side_matches_choi_form(self, rng):
        u = random_unitary(4, rng) / np.sqrt(2)
        repeated = KrausStack(np.array([u, u]))     # rank 1, k = 2
        other = random_process(4, 3, rng)
        exact = kraus_form_fidelity(repeated, other)
        assert np.abs(fidelities(repeated, other) - exact).max() <= 1e-12

    def test_zero_choi_first_gives_zero(self, rng):
        good = random_process(2, 2, rng)
        for zero in (ChoiMatrix(np.zeros((4, 4))),
                     KrausStack(np.zeros((2, 2, 2)))):
            for other in forms(good):
                assert process_fidelity(zero, other).fidelity == 0.0
        assert dense_process_fidelity(ChoiMatrix(np.zeros((4, 4))),
                                      kraus_to_choi(good)) == 0.0

    def test_kraus_choi_dimension_mismatch_raises(self):
        two, three = KrausStack(np.eye(2)[None]), KrausStack(np.eye(3)[None])
        for a, b in [(two, kraus_to_choi(three)), (kraus_to_choi(two), three),
                     (two, three)]:
            for x, y in [(a, b), (b, a)]:
                with pytest.raises(ValueError, match="dimension"):
                    process_fidelity(x, y)

    def test_cli_and_sweep_build_no_choi_matrix(self, tmp_path, monkeypatch):
        data_path, out = tmp_path / "dv.json", tmp_path / "est.json"
        assert cli.main(["synth", "--kind", "dv", "--qubits", "1", "--rank",
                         "2", "--noise", "0.01", "--out",
                         str(data_path)]) == cli.EXIT_OK
        to_choi, calls = core.kraus_to_choi, []

        def recorded(a, b):
            metric = core.process_fidelity(a, b)
            calls.append((a, b, metric.fidelity))
            return metric

        def refuse(kraus):
            raise RuntimeError("kraus_to_choi on a fidelity path")

        for module in (core, bench, cli):
            monkeypatch.setattr(module, "kraus_to_choi", refuse, raising=False)
        monkeypatch.setattr(cli, "process_fidelity", recorded)
        monkeypatch.setattr(bench, "process_fidelity", recorded)
        assert cli.main(["reconstruct", "--method", "gd", "--data",
                         str(data_path), "--iters", "20", "--out",
                         str(out)]) == cli.EXIT_OK
        rows = bench.run_sweep(bench.SweepSpec(
            sweep="noise", values=[1e-2], seeds=[0], n_qubits=1, rank=2,
            kraus=[2], methods=["gd", "pls"], gd={"max_iters": 20}))
        monkeypatch.undo()

        assert [r["method"] for r in rows] == ["gd", "pls"]
        assert json.loads(out.read_text())["fidelity"] == calls[0][2]
        assert [1.0 - r["infidelity"] for r in rows] == [
            f for _, _, f in calls[1:]]
        for a, b, fid in calls:
            a, b = (to_choi(c) if isinstance(c, KrausStack) else c
                    for c in (a, b))
            assert abs(process_fidelity(a, b).fidelity - fid) <= 1e-12

    def test_cli_fidelity_of_kraus_files_matches_choi_forms(self, tmp_path,
                                                            capsys):
        data_path, est = tmp_path / "dv.json", tmp_path / "est.json"
        cli.main(["synth", "--kind", "dv", "--qubits", "2", "--rank", "4",
                  "--noise", "0.01", "--out", str(data_path)])
        cli.main(["reconstruct", "--method", "gd", "--data", str(data_path),
                  "--kraus", "4", "--iters", "50", "--out", str(est)])
        chois = []
        for path in (data_path, est):
            choi = kraus_to_choi(cli._channel_from_file(path))
            chois.append(tmp_path / f"choi-{path.name}")
            chois[-1].write_text(json.dumps({
                "schema_version": SCHEMA_VERSION,
                "choi": complex_to_json(choi.mat)}))
        capsys.readouterr()
        infid = []
        for files in [(data_path, est), (est, data_path), chois,
                      (data_path, chois[1]), (chois[0], est)]:
            assert cli.main(["fidelity", *map(str, files)]) == cli.EXIT_OK
            infid.append(float(capsys.readouterr().out.splitlines()[1]))
        assert 0 < infid[0] < 0.5
        assert np.abs(np.array(infid) - infid[2]).max() <= 1e-12
