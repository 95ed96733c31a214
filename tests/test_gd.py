import warnings

import numpy as np
import pytest

from kraustomo import gd as gd_module
from kraustomo.core import KrausStack, tp_defect
from kraustomo.data import synthesize
from kraustomo.dv import pauli_kets, random_process
from kraustomo.gd import (FitTrace, GdConfig, cayley_step, fit, init_kraus,
                          loss, value_and_grad, wirtinger_gradient)
from dense_oracle import pauli_projectors


@pytest.fixture(scope="module")
def ensemble():
    return pauli_projectors(1)


@pytest.fixture()
def clean_tomogram(ensemble, rng):
    process = random_process(2, 2, rng)
    return synthesize(process, ensemble, ensemble, 0.0)


def fd_directional(kraus, tomogram, direction, lam, h=1e-6):
    """Central finite difference of the loss along a complex direction."""
    up = KrausStack(kraus.blocks + h * direction)
    dn = KrausStack(kraus.blocks - h * direction)
    return (loss(up, tomogram, None, lam) - loss(dn, tomogram, None, lam)) / (2 * h)


class TestGdConfig:
    def test_defaults(self):
        cfg = GdConfig()
        assert cfg.k == 1
        assert cfg.eta0 == 0.1
        assert cfg.decay == 0.999
        assert cfg.lam == 1e-3
        assert cfg.batch_size is None

    @pytest.mark.parametrize("kwargs", [{"k": 0}, {"eta0": 0.0},
                                        {"decay": 0.0}, {"decay": 1.5},
                                        {"lam": -1.0}, {"max_iters": -1},
                                        {"decay": np.nan},
                                        {"batch_size": 0},
                                        {"eta0": np.nan}, {"eta0": np.inf},
                                        {"lam": np.nan}, {"lam": np.inf}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GdConfig(**kwargs)

    def test_seven_fields(self):
        assert list(GdConfig().to_dict()) == [
            "k", "eta0", "decay", "lambda", "max_iters", "batch_size", "seed"]

    @pytest.mark.parametrize("key", ["grad_norm_floor", "plateau_tol",
                                     "plateau_window"])
    def test_stop_rule_is_not_a_field(self, key):
        # The stop rule is the module constants'; no config sets it.
        with pytest.raises(TypeError, match=key):
            GdConfig(**{key: 1})


class TestLoss:
    def test_l1_only_for_perfect_fit(self, ensemble):
        ident = KrausStack(np.eye(2)[None])
        tomogram = synthesize(ident, ensemble, ensemble, 0.0)
        # Residuals vanish at the truth; only the L1 term remains:
        # 1e-3 * (|1| + |1|) = 2e-3.
        assert loss(ident, tomogram) == pytest.approx(2e-3, abs=1e-15)

    def test_empty_batch_is_l1_term(self, clean_tomogram):
        ident = KrausStack(np.eye(2)[None])
        assert loss(ident, clean_tomogram, batch=[]) == pytest.approx(2e-3)

    def test_brute_force_oracle(self, clean_tomogram, rng):
        est = init_kraus(2, 2, rng)
        lam = 1e-3
        expected = lam * np.sum(np.abs(est.blocks))
        for i in range(clean_tomogram.num_probes):
            for j in range(clean_tomogram.num_measurements):
                out = sum(k @ clean_tomogram.probes[i] @ k.conj().T
                          for k in est.blocks)
                pred = np.real(np.trace(clean_tomogram.measurements[j] @ out))
                expected += (clean_tomogram.data[i, j] - pred) ** 2
        assert loss(est, clean_tomogram, None, lam) == pytest.approx(
            expected, rel=1e-12)

    def test_batch_matches_subset_of_full(self, clean_tomogram, rng):
        est = init_kraus(1, 2, rng)
        batch = [(0, 0), (2, 3), (5, 5)]
        expected = 1e-3 * np.sum(np.abs(est.blocks))
        for i, j in batch:
            out = est.blocks[0] @ clean_tomogram.probes[i] @ est.blocks[0].conj().T
            pred = np.real(np.trace(clean_tomogram.measurements[j] @ out))
            expected += (clean_tomogram.data[i, j] - pred) ** 2
        assert loss(est, clean_tomogram, batch) == pytest.approx(expected,
                                                                 rel=1e-12)


class TestWirtingerGradient:
    def test_shape(self, clean_tomogram, rng):
        est = init_kraus(3, 2, rng)
        assert wirtinger_gradient(est, clean_tomogram).shape == (6, 2)

    def test_residual_gradient_vanishes_at_truth(self, ensemble, rng):
        process = random_process(2, 2, rng)
        tomogram = synthesize(process, ensemble, ensemble, 0.0)
        grad = wirtinger_gradient(process, tomogram, None, lam=0.0)
        assert np.abs(grad).max() <= 1e-10

    @pytest.mark.parametrize("n_qubits,k", [(1, 1), (1, 3), (2, 2)])
    def test_finite_difference_contract(self, n_qubits, k, rng):
        # [L(K + h D) - L(K - h D)] / 2h must equal 2 Re<G, D>.
        ens = pauli_projectors(n_qubits)
        dim = 2 ** n_qubits
        process = random_process(dim, 2, rng)
        tomogram = synthesize(process, ens, ens, 1e-2, rng)
        est = init_kraus(k, dim, rng)
        grad = wirtinger_gradient(est, tomogram, None, lam=0.0)
        for _ in range(5):
            direction = (rng.normal(size=est.blocks.shape)
                         + 1j * rng.normal(size=est.blocks.shape))
            direction /= np.linalg.norm(direction)
            fd = fd_directional(est, tomogram, direction, 0.0)
            analytic = 2.0 * np.real(np.sum(
                grad.conj() * direction.reshape(-1, dim)))
            assert fd == pytest.approx(analytic, rel=1e-5)

    def test_finite_difference_contract_cv(self, rng):
        from kraustomo import cv
        from kraustomo.data import synthesize as synth
        dim = 8
        proc = cv.snap_displace_process(alpha=0.5, phases=[0.3, -0.2], dim=dim)
        kets = cv.coherent_ket(np.array([0.2, -0.5 + 0.3j, 0.8j]), dim)
        probes = kets[:, :, None] * kets[:, None, :].conj()
        meas = [cv.displaced_parity(b, dim) for b in (0.0, 0.4 - 0.2j)]
        tomogram = synth(proc, probes, meas, 0.0)
        est = init_kraus(2, dim, rng)
        grad = wirtinger_gradient(est, tomogram, None, lam=0.0)
        direction = (rng.normal(size=est.blocks.shape)
                     + 1j * rng.normal(size=est.blocks.shape))
        direction /= np.linalg.norm(direction)
        fd = fd_directional(est, tomogram, direction, 0.0)
        analytic = 2.0 * np.real(np.sum(grad.conj() * direction.reshape(-1, dim)))
        assert fd == pytest.approx(analytic, rel=1e-5)

    def test_l1_term_gradient(self, clean_tomogram, rng):
        # With an empty batch only the L1 penalty contributes; its
        # gradient is lam times the elementwise phase (0 at 0).
        est = KrausStack(np.array([[[0.6, -0.8j], [0.0, 0.6 + 0.8j]]]) / 1.0)
        lam = 1e-3
        grad = wirtinger_gradient(est, clean_tomogram, batch=[], lam=lam)
        expected = lam * np.array([[1.0, -1.0j], [0.0, 0.6 + 0.8j]])
        assert np.abs(grad - expected.reshape(-1, 2)).max() <= 1e-15

    def test_batch_gradient_matches_restricted_full(self, ensemble, rng):
        process = random_process(2, 2, rng)
        tomogram = synthesize(process, ensemble, ensemble, 1e-2, rng)
        est = init_kraus(2, 2, rng)
        full_batch = [(i, j) for i in range(6) for j in range(6)]
        a = wirtinger_gradient(est, tomogram, None)
        b = wirtinger_gradient(est, tomogram, full_batch)
        assert np.abs(a - b).max() <= 1e-10


class TestValueAndGrad:
    @pytest.mark.parametrize("batch", [None, [(0, 0), (2, 3), (5, 5), (2, 3)],
                                       []])
    def test_matches_loss_and_gradient(self, ensemble, rng, batch):
        process = random_process(2, 2, rng)
        tomogram = synthesize(process, ensemble, ensemble, 1e-2, rng)
        est = init_kraus(3, 2, rng)
        value, grad = value_and_grad(est, tomogram, batch, 1e-3)
        assert value == pytest.approx(loss(est, tomogram, batch, 1e-3),
                                      abs=1e-12)
        assert np.abs(grad - wirtinger_gradient(est, tomogram, batch,
                                                1e-3)).max() <= 1e-12


class TestCayleyStep:
    def test_zero_step_is_identity(self, rng):
        est = init_kraus(2, 3, rng)
        grad = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        out = cayley_step(est, grad, 0.0)
        assert np.abs(out.stacked - est.stacked).max() <= 1e-12

    def test_preserves_orthonormality(self, rng):
        for _ in range(100):
            est = init_kraus(2, 2, rng)
            grad = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            out = cayley_step(est, grad / np.linalg.norm(grad), 0.1)
            assert tp_defect(out) <= 1e-8

    def test_matches_dense_cayley_transform(self, rng):
        # Oracle: K' = (I + eta/2 W)^-1 (I - eta/2 W) K with
        # W = G K^dag - K G^dag on the full kN x kN space.
        for _ in range(20):
            est = init_kraus(2, 3, rng)
            grad = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
            grad /= np.linalg.norm(grad)
            eta = 0.1
            stack = est.stacked
            w = grad @ stack.conj().T - stack @ grad.conj().T
            eye = np.eye(6)
            dense = np.linalg.solve(eye + 0.5 * eta * w,
                                    (eye - 0.5 * eta * w) @ stack)
            out = cayley_step(est, grad, eta)
            assert np.abs(out.stacked - dense).max() <= 1e-9

    @pytest.mark.parametrize("eta", [10.0, 1e4, 1e8])
    def test_inner_system_never_singular(self, rng, eta):
        # det(I + eta/2 B^dag A) = det(I + eta/2 W), W skew-Hermitian, so
        # |det| >= 1 at any step size and no step needs halving.
        est = init_kraus(2, 3, rng)
        grad = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        stack = est.stacked
        a, b = np.hstack([grad, stack]), np.hstack([stack, -grad])
        inner = np.eye(6) + 0.5 * eta * (b.conj().T @ a)
        assert abs(np.linalg.det(inner)) >= 1.0
        assert tp_defect(cayley_step(est, grad, eta)) <= 1e-8

    def test_rejects_non_tp_start(self, rng):
        bad = KrausStack(2 * np.eye(2)[None])
        with pytest.raises(ValueError, match="orthonormal"):
            cayley_step(bad, np.zeros((2, 2)), 0.1)

    def test_rejects_shape_mismatch(self, rng):
        est = init_kraus(1, 2, rng)
        with pytest.raises(ValueError, match="shape"):
            cayley_step(est, np.zeros((4, 2)), 0.1)


class TestInitKraus:
    def test_trace_preserving(self, rng):
        for k in (1, 3, 16):
            assert tp_defect(init_kraus(k, 4, rng)) <= 1e-10

    def test_deterministic(self):
        a = init_kraus(3, 2, np.random.default_rng(5))
        b = init_kraus(3, 2, np.random.default_rng(5))
        assert np.array_equal(a.blocks, b.blocks)

    def test_equal_block_weights(self, rng):
        est = init_kraus(4, 2, rng)
        for block in est.blocks:
            norm2 = np.real(np.trace(block.conj().T @ block))
            assert norm2 == pytest.approx(2 / 4, abs=1e-12)


class TestFit:
    def test_loss_decreases_and_stays_tp(self, ensemble, rng):
        process = random_process(2, 2, rng)
        tomogram = synthesize(process, ensemble, ensemble, 1e-2, rng)
        cfg = GdConfig(k=2, max_iters=100, seed=1)
        est, trace = fit(tomogram, cfg)
        assert isinstance(trace, FitTrace)
        assert trace.n_iters == 100
        assert trace.loss[-1] < trace.loss[0]
        assert max(trace.tp_defect) <= 1e-8
        assert tp_defect(est) <= 1e-8

    def test_truth_init_noiseless_stays_put(self, ensemble, rng):
        # From the exact solution with no noise and no L1 penalty, the
        # loss can never rise above its starting value.
        process = random_process(2, 2, rng)
        tomogram = synthesize(process, ensemble, ensemble, 0.0)
        cfg = GdConfig(k=2, max_iters=50, lam=0.0, seed=0)
        initial = loss(process, tomogram, None, 0.0)
        est, trace = fit(tomogram, cfg, init=process)
        assert all(val <= initial + 1e-12 for val in trace.loss)

    def test_init_validation(self, clean_tomogram, rng):
        cfg = GdConfig(k=2)
        with pytest.raises(ValueError, match="init"):
            fit(clean_tomogram, cfg, init=init_kraus(3, 2, rng))
        with pytest.raises(ValueError, match="trace-preserving"):
            fit(clean_tomogram, cfg,
                init=KrausStack(np.stack([np.eye(2), np.eye(2)])))

    def test_rejects_more_blocks_than_the_choi_rank(self, clean_tomogram,
                                                    monkeypatch):
        # N = 2: four blocks span every channel, a fifth is refused before
        # any block is drawn.
        assert fit(clean_tomogram, GdConfig(k=4, max_iters=1))[0].count == 4

        def no_init(*args):
            raise AssertionError("blocks were drawn for k > N^2")
        monkeypatch.setattr(gd_module, "init_kraus", no_init)
        with pytest.raises(ValueError, match=r"N\^2 = 4"):
            fit(clean_tomogram, GdConfig(k=5))

    def test_minibatch_mode(self, ensemble, rng):
        process = random_process(2, 2, rng)
        tomogram = synthesize(process, ensemble, ensemble, 1e-2, rng)
        init = init_kraus(2, 2, rng)
        cfg = GdConfig(k=2, max_iters=60, batch_size=8, seed=3)
        est, trace = fit(tomogram, cfg, init=init)
        assert trace.n_iters == 60
        assert tp_defect(est) <= 1e-8
        assert trace.loss[-1] < loss(init, tomogram, None, cfg.lam)

    def test_deterministic_given_config(self, ensemble, rng):
        process = random_process(2, 2, rng)
        tomogram = synthesize(process, ensemble, ensemble, 1e-2, rng)
        cfg = GdConfig(k=2, max_iters=30, seed=11)
        a, _ = fit(tomogram, cfg)
        b, _ = fit(tomogram, cfg)
        assert np.array_equal(a.blocks, b.blocks)

    def test_recovers_unitary_channel(self, ensemble, rng):
        from kraustomo.core import kraus_to_choi, process_fidelity
        process = random_process(2, 1, rng)
        tomogram = synthesize(process, ensemble, ensemble, 0.0)
        cfg = GdConfig(k=1, max_iters=200, seed=2)
        est, _ = fit(tomogram, cfg)
        fid = process_fidelity(kraus_to_choi(process), kraus_to_choi(est))
        assert fid.fidelity > 0.99


class TestBatches:
    """The minibatches a fit draws, as its passes hand them to _terms."""

    @pytest.fixture()
    def two_qubit_tomogram(self, rng):
        ops = pauli_kets(2)
        return synthesize(random_process(4, 3, rng), ops, ops, 1e-2, rng)

    @staticmethod
    def drawn(monkeypatch, tomogram, cfg):
        batches = []
        original = gd_module._terms

        def spy(tomogram, batch):
            if batch is not None:
                batches.append(np.asarray(batch))
            return original(tomogram, batch)
        with monkeypatch.context() as patched:
            patched.setattr(gd_module, "_terms", spy)
            fit(tomogram, cfg)
        return batches

    def test_batch_shape_and_uniqueness(self, monkeypatch,
                                        two_qubit_tomogram):
        batches = self.drawn(monkeypatch, two_qubit_tomogram, GdConfig(
            k=2, max_iters=3, batch_size=256, seed=0))
        assert len(batches) == 3     # three steps; the closing pass is full
        for batch in batches:
            assert batch.shape == (256, 2)
            assert len({(i, j) for i, j in batch}) == 256
            assert batch.min() >= 0
            assert batch[:, 0].max() < 36 and batch[:, 1].max() < 36

    def test_deterministic_for_seed(self, monkeypatch, two_qubit_tomogram):
        def draws(seed):
            return self.drawn(monkeypatch, two_qubit_tomogram, GdConfig(
                k=2, max_iters=3, batch_size=64, seed=seed))
        a, b, other = draws(3), draws(3), draws(4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))
        assert not np.array_equal(a[0], other[0])


def _golden_tomogram():
    rng = np.random.default_rng(12345)
    process = random_process(2, 2, rng)
    ens = pauli_projectors(1)
    return synthesize(process, ens, ens, 1e-2, rng)


class TestFitStops:
    """Stop decisions and traces, pinned to the two-pass fit they replace."""

    def test_full_batch_trace_ends_with_final_loss(self):
        tomogram = _golden_tomogram()
        est, trace = fit(tomogram, GdConfig(k=2, max_iters=30, seed=1))
        assert trace.loss[-1] == loss(est, tomogram, None, 1e-3)

    def test_minibatch_trace_ends_with_full_data_loss(self):
        # The closing pass scores the returned stack on every entry.
        tomogram = _golden_tomogram()
        cfg = GdConfig(k=2, max_iters=30, seed=1, batch_size=10)
        est, trace = fit(tomogram, cfg)
        assert len(trace.loss) == trace.n_iters == 30
        assert trace.loss[-1] == loss(est, tomogram, None, cfg.lam)

    def test_gradient_floor(self, monkeypatch):
        monkeypatch.setattr(gd_module, "GRAD_NORM_FLOOR", 0.05)
        tomogram = _golden_tomogram()
        _, trace = fit(tomogram, GdConfig(k=2, max_iters=200, seed=1))
        assert trace.stop_reason == "gradient_floor"
        assert trace.n_iters == 26
        assert len(trace.loss) == len(trace.tp_defect) == 26

    def test_one_forward_pass_per_iteration(self, monkeypatch):
        # 30 passes that also pull the gradient back, and one value-only
        # pass that closes the trace.
        import kraustomo.gd as gd_module
        calls = {"factored_expectations": 0, "factored_pullback": 0}

        def counting(name):
            original = getattr(gd_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper
        for name in calls:
            monkeypatch.setattr(gd_module, name, counting(name))
        fit(_golden_tomogram(), GdConfig(k=2, max_iters=30, seed=1))
        assert calls == {"factored_expectations": 31, "factored_pullback": 30}

    @pytest.mark.parametrize("batch_size", [None, 10],
                             ids=["full-batch", "minibatch"])
    def test_probe_terms_built_once_per_set(self, monkeypatch, batch_size):
        # Full batch: one set per fit.  Minibatch: one per step and the
        # full set, which the closing pass scores.
        calls = []
        original = gd_module.probe_terms

        def counting(factors):
            calls.append(1)
            return original(factors)
        monkeypatch.setattr(gd_module, "probe_terms", counting)
        _, trace = fit(_golden_tomogram(), GdConfig(
            k=2, max_iters=30, seed=1, batch_size=batch_size))
        assert trace.n_iters == 30
        assert len(calls) == (1 if batch_size is None else 31)

    def test_one_tp_defect_per_iteration(self, monkeypatch):
        import kraustomo.gd as gd_module
        calls = []
        original = gd_module.tp_defect
        monkeypatch.setattr(gd_module, "tp_defect",
                            lambda kraus: calls.append(1) or original(kraus))
        _, trace = fit(_golden_tomogram(), GdConfig(k=2, max_iters=30, seed=1))
        assert len(calls) == trace.n_iters == 30

    def test_step_off_the_manifold_raises(self, monkeypatch):
        import kraustomo.gd as gd_module
        monkeypatch.setattr(gd_module, "_cayley",
                            lambda stack, grad, eta: 1.01 * stack)
        with pytest.raises(ValueError, match="orthonormal"):
            fit(_golden_tomogram(), GdConfig(k=2, max_iters=5, seed=1))

    def test_nan_step_raises(self, monkeypatch):
        # A NaN TP defect fails the guard as a large one does.
        monkeypatch.setattr(gd_module, "_cayley",
                            lambda stack, grad, eta: np.nan * stack)
        with pytest.raises(ValueError, match="tp_defect nan"):
            fit(_golden_tomogram(), GdConfig(k=2, max_iters=5, seed=1))

    @pytest.mark.parametrize("lam, entries, batch_size, seed, match", [
        (1e300, None, None, 1, "the gradient norm is inf at iteration 0"),
        (1e-3, np.s_[:], None, 1, "the loss is inf at iteration 0"),
        (1e-3, np.s_[:], 10, 1, "the loss is inf at iteration 0"),
        # Entry (0, 0) is in none of seed 2's 25 one-pair batches: the
        # closing pass on the full data finds it.
        (1e-3, np.s_[0, 0], 1, 2, "the full loss is inf at iteration 25")])
    def test_overflow_raises_without_warning(self, lam, entries, batch_size,
                                             seed, match):
        # Data or lam past the float range: a numerical failure, not a
        # fit that steps by grad / inf = 0 and records inf.
        tomogram = _golden_tomogram()
        if entries is not None:
            tomogram.data[entries] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match=match):
                fit(tomogram, GdConfig(k=2, lam=lam, max_iters=25, seed=seed,
                                       batch_size=batch_size))
        # The fit's error state does not outlive it.
        assert np.geterr()["over"] != "ignore"

    @pytest.mark.parametrize("cfg, floor", [
        (GdConfig(k=2, max_iters=12, seed=1, eta0=0.3, decay=0.9),
         gd_module.GRAD_NORM_FLOOR),
        (GdConfig(k=2, max_iters=200, seed=1), 0.05),
    ], ids=["max_iters", "gradient_floor"])
    def test_grad_norm_and_eta_per_step(self, monkeypatch, cfg, floor):
        monkeypatch.setattr(gd_module, "GRAD_NORM_FLOOR", floor)
        tomogram = _golden_tomogram()
        _, trace = fit(tomogram, cfg)
        assert len(trace.grad_norm) == len(trace.eta) == trace.n_iters
        for t, eta in enumerate(trace.eta):
            assert eta == pytest.approx(cfg.eta0 * cfg.decay ** t, rel=1e-12)
        # grad_norm[t] is the norm of the gradient at the stack step t
        # started from: the result of a fit stopped after t steps.
        for t in (0, 1, trace.n_iters - 1):
            start, _ = fit(tomogram, GdConfig(k=cfg.k, max_iters=t,
                                              seed=cfg.seed, eta0=cfg.eta0,
                                              decay=cfg.decay))
            want = np.linalg.norm(value_and_grad(start, tomogram)[1])
            assert trace.grad_norm[t] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("cfg, floor", [
        (GdConfig(k=2, max_iters=30, seed=1), gd_module.GRAD_NORM_FLOOR),
        (GdConfig(k=2, max_iters=200, seed=1), 0.05),
        (GdConfig(k=2, max_iters=45, seed=1, batch_size=10),
         gd_module.GRAD_NORM_FLOOR),
    ], ids=["max_iters", "gradient_floor", "minibatch"])
    def test_phase_times_per_step(self, monkeypatch, cfg, floor):
        monkeypatch.setattr(gd_module, "GRAD_NORM_FLOOR", floor)
        _, trace = fit(_golden_tomogram(), cfg)
        phases = (trace.pass_time_s, trace.cayley_time_s,
                  trace.tp_check_time_s)
        assert [len(p) for p in phases] == [trace.n_iters] * 3
        assert len(trace.iter_time_s) == trace.n_iters
        for t, total in enumerate(trace.iter_time_s):
            parts = [p[t] for p in phases]
            assert min(parts) >= 0 and sum(parts) <= total

    def test_no_iterations(self):
        tomogram = _golden_tomogram()
        _, trace = fit(tomogram, GdConfig(k=2, max_iters=0, seed=1))
        assert trace.n_iters == 0
        assert trace.loss == []
        assert trace.grad_norm == [] and trace.eta == []
        assert trace.pass_time_s == trace.cayley_time_s == []
        assert trace.stop_reason == "max_iters"

    def test_golden_full_batch_fit(self):
        # Values of the fit that ran the forward model separately for the
        # loss and for the gradient.
        tomogram = _golden_tomogram()
        est, trace = fit(tomogram, GdConfig(k=2, max_iters=30, seed=1))
        assert trace.n_iters == 30 and trace.stop_reason == "max_iters"
        assert np.allclose(trace.loss[:3], [2.1328106467751597,
                                            1.610249280890246,
                                            1.1208119421616547],
                           rtol=0, atol=1e-12)
        assert trace.loss[-1] == pytest.approx(0.01877169333753221, abs=1e-12)
        expected = np.array([
            [[0.3943131509333254 - 0.5273764372334925j,
              -0.30568368354473274 + 0.13052825185103756j],
             [0.289612177039176 - 0.16369447808230603j,
              0.6573322130103929 + 0.0048737562236325915j]],
            [[0.538651360428933 - 0.14174846787812584j,
              0.0856508113509069 - 0.3714790629458855j],
             [-0.1488166972350432 - 0.3511919868024446j,
              0.5567454270322031 + 0.04595914608515332j]]])
        assert np.abs(est.blocks - expected).max() <= 1e-12
