"""End-to-end acceptance suite.

Each criterion test appends one PASS/FAIL summary line to REPORT_LINES
(echoed in the terminal summary) and then asserts, so a red criterion is
both visible and failing.  Heavy datasets are shared via module fixtures.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from kraustomo import cv
from kraustomo.bench import SweepSpec, run_sweep
from kraustomo.core import (KrausStack, apply_kraus, choi_apply,
                            kraus_to_choi, process_fidelity, tp_defect)
from kraustomo.data import sensing_matrix, subsample, synthesize
from kraustomo.dv import pauli_projectors, random_process
from kraustomo.gd import (GdConfig, cayley_step, fit, init_kraus, loss,
                          wirtinger_gradient)
from kraustomo.pls import (InformationIncompleteError, fit_pls,
                           linear_inversion, project_cp, project_tp)

pytestmark = pytest.mark.slow

REPORT_LINES = []

N_SEEDS = 30
NOISE = 1e-2


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}"
    REPORT_LINES.append(line)
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# Criterion 1: CV reconstruction of the SNAP+displacement process.
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cv_runs():
    process = cv.snap_displace_process()
    dim = cv.DEFAULT_CUTOFF
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        kets = cv.coherent_ket(cv.probe_grid().points, dim)
        probes = kets[:, :, None] * kets[:, None, :].conj()
        meas = [cv.displaced_parity(b, dim)
                for b in cv.measurement_grid().points]
    runs = []
    for seed in range(N_SEEDS):
        rng = np.random.default_rng([seed, 1])
        tomogram = synthesize(process, probes, meas, NOISE, rng, kind="cv")
        cfg = GdConfig(k=3, seed=seed)
        t0 = time.perf_counter()
        est, trace = fit(tomogram, cfg)
        wall = time.perf_counter() - t0
        fid = process_fidelity(process, est).fidelity
        if seed == 0:  # the Kraus form against the Choi path, once
            choi_fid = process_fidelity(kraus_to_choi(process),
                                        kraus_to_choi(est)).fidelity
            assert abs(fid - choi_fid) <= 1e-12, (fid, choi_fid)
        runs.append({"fidelity": fid, "loss": trace.loss, "wall": wall})
    return runs


def test_criterion_1_cv_snap_displacement(cv_runs):
    fids = [r["fidelity"] for r in cv_runs]
    mean_fid = float(np.mean(fids))
    fid_ok = mean_fid > 0.97

    # "Plateaus by iteration 50": at least 95% of the total loss decrease
    # achieved within the first 50 iterations, for >= 80% of seeds.
    plateaued = 0
    for r in cv_runs:
        curve = r["loss"]
        total = curve[0] - min(curve)
        by_50 = curve[0] - min(curve[:50])
        if total <= 0 or by_50 / total >= 0.95:
            plateaued += 1
    plateau_frac = plateaued / len(cv_runs)
    plateau_ok = plateau_frac >= 0.80

    max_wall = max(r["wall"] for r in cv_runs)
    wall_ok = max_wall <= 120.0

    report(1, fid_ok and plateau_ok and wall_ok,
           f"mean fidelity {mean_fid:.4f} (need > 0.97), "
           f"plateau-by-50 fraction {plateau_frac:.2f} (need >= 0.80), "
           f"max runtime {max_wall:.1f} s (need <= 120)")


# --------------------------------------------------------------------------
# Criteria 2-3: noise sweep at n = 2, r = 16.
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def noise_rows():
    spec = SweepSpec(sweep="noise",
                     values=list(np.logspace(-1, -3, 5)),
                     seeds=list(range(N_SEEDS)),
                     n_qubits=2, rank=16, kraus=[1, 4, 16],
                     methods=["gd", "pls"])
    return run_sweep(spec)


def mean_infidelity(rows, method, k=None, value=None):
    sel = [r["infidelity"] for r in rows
           if r["method"] == method
           and (k is None or r["k"] == k)
           and (value is None or math.isclose(r["sweep_value"], value))
           and not math.isnan(r["infidelity"])]
    return float(np.mean(sel))


def test_criterion_2_noise_sweep_trend(noise_rows):
    values = sorted({r["sweep_value"] for r in noise_rows}, reverse=True)
    means16 = [mean_infidelity(noise_rows, "gd", 16, v) for v in values]
    # Mean infidelity must fall monotonically as eps goes 1e-1 -> 1e-3.
    rho, _ = spearmanr(range(len(values)), means16)
    trend_ok = rho <= -0.9

    ordering_ok = True
    for v in values:
        m1 = mean_infidelity(noise_rows, "gd", 1, v)
        m4 = mean_infidelity(noise_rows, "gd", 4, v)
        m16 = mean_infidelity(noise_rows, "gd", 16, v)
        if not (m16 <= m4 <= m1):
            ordering_ok = False

    report(2, trend_ok and ordering_ok,
           f"Spearman(eps rank 1e-1->1e-3, k=16 mean infidelity) = {rho:+.3f} "
           f"(need <= -0.9); "
           f"k ordering 16 <= 4 <= 1 at every eps: {ordering_ok}")


def test_criterion_3_gd_vs_pls_parity(noise_rows):
    gd = mean_infidelity(noise_rows, "gd", 16, 1e-2)
    pls = mean_infidelity(noise_rows, "pls", value=1e-2)
    ratio = max(gd, pls) / min(gd, pls)
    report(3, ratio <= 2.0,
           f"mean infidelity at eps=1e-2: gd(k=16) {gd:.2e}, pls {pls:.2e}, "
           f"ratio {ratio:.2f} (need <= 2)")


# --------------------------------------------------------------------------
# Criterion 4: data-fraction behavior.
# --------------------------------------------------------------------------

def test_criterion_4_data_fraction():
    spec = SweepSpec(sweep="gamma", values=[0.5, 1.0],
                     seeds=list(range(N_SEEDS)), n_qubits=2, rank=16,
                     kraus=[16], methods=["gd"], noise=NOISE)
    rows = run_sweep(spec)
    fid_half = 1.0 - mean_infidelity(rows, "gd", 16, 0.5)
    fid_full = 1.0 - mean_infidelity(rows, "gd", 16, 1.0)
    gap = abs(fid_full - fid_half)
    gap_ok = gap <= 0.05

    ens = pauli_projectors(2)
    process = random_process(4, 16, np.random.default_rng(0))
    tomogram = synthesize(process, ens, ens, NOISE, np.random.default_rng(1))
    small = subsample(tomogram, 0.1, np.random.default_rng(2))
    try:
        fit_pls(small)
        pls_fails = False
    except InformationIncompleteError:
        pls_fails = True

    report(4, gap_ok and pls_fails,
           f"gd(k=16) mean fidelity gamma=0.5 {fid_half:.4f} vs "
           f"gamma=1.0 {fid_full:.4f}, gap {gap:.4f} (need <= 0.05); "
           f"pls at gamma=0.1 raises incompleteness error: {pls_fails}")


# --------------------------------------------------------------------------
# Criterion 5: per-iteration timing ordering at n = 5.
# --------------------------------------------------------------------------

def test_criterion_5_timing_ordering():
    spec = SweepSpec(sweep="timing", values=[5], seeds=[0, 1, 2],
                     kraus=[3], methods=["gd"], noise=NOISE,
                     gd={"lam": 1e-3})
    rows = run_sweep(spec)
    gd_time = float(np.mean([r["wall_time_s"] for r in rows
                             if r["method"] == "gd"]))
    cp_time = float(np.mean([r["wall_time_s"] for r in rows
                             if r["method"] == "cp_projection"]))
    report(5, gd_time < cp_time,
           f"n=5 per-iteration: gd(k=3, batch 256) {gd_time:.3f} s < "
           f"cp projection {cp_time:.3f} s: {gd_time < cp_time}")


# --------------------------------------------------------------------------
# Criterion 6: always-on property suites.
# --------------------------------------------------------------------------

def _suite_a_cayley(rng):
    worst_tp, worst_dense = 0.0, 0.0
    for _ in range(100):
        est = init_kraus(2, 3, rng)
        grad = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        grad /= np.linalg.norm(grad)
        eta = 0.1
        out = cayley_step(est, grad, eta)
        worst_tp = max(worst_tp, tp_defect(out))
        stack = est.stacked
        w = grad @ stack.conj().T - stack @ grad.conj().T
        eye = np.eye(6)
        dense = np.linalg.solve(eye + 0.5 * eta * w,
                                (eye - 0.5 * eta * w) @ stack)
        worst_dense = max(worst_dense, float(np.abs(out.stacked - dense).max()))
    return worst_tp <= 1e-8 and worst_dense <= 1e-9


def _suite_b_gradient(rng):
    ens = pauli_projectors(1)
    process = random_process(2, 2, rng)
    tomogram = synthesize(process, ens, ens, NOISE, rng)
    est = init_kraus(2, 2, rng)
    grad = wirtinger_gradient(est, tomogram, None, lam=0.0)
    h = 1e-6
    for _ in range(10):
        d = rng.normal(size=est.blocks.shape) + 1j * rng.normal(size=est.blocks.shape)
        d /= np.linalg.norm(d)
        up = loss(KrausStack(est.blocks + h * d), tomogram, None, 0.0)
        dn = loss(KrausStack(est.blocks - h * d), tomogram, None, 0.0)
        fd = (up - dn) / (2 * h)
        analytic = 2.0 * np.real(np.sum(grad.conj() * d.reshape(-1, 2)))
        if abs(fd - analytic) > 1e-5 * max(abs(fd), abs(analytic)):
            return False
    return True


def _suite_c_kraus_choi(rng):
    for _ in range(100):
        kraus = random_process(4, 5, rng)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        delta = np.linalg.norm(choi_apply(kraus_to_choi(kraus), rho)
                               - apply_kraus(kraus, rho))
        if delta > 1e-9:
            return False
    return True


def _suite_d_projections(rng):
    from kraustomo.core import ChoiMatrix
    herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    noisy = ChoiMatrix(0.5 * (herm + herm.conj().T))
    cp1 = project_cp(noisy)
    tp1 = project_tp(noisy)
    idem = (np.abs(project_cp(cp1).mat - cp1.mat).max() <= 1e-12
            and np.abs(project_tp(tp1).mat - tp1.mat).max() <= 1e-12)
    closed = np.allclose(
        project_cp(ChoiMatrix(np.diag([3.0, -1.0, 0.5, 0.0]))).mat,
        np.diag([3.0, 0.0, 0.5, 0.0]), atol=1e-12)
    return idem and closed


def _suite_e_coherent_amplitudes():
    from math import factorial
    dim = cv.DEFAULT_CUTOFF
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, 25))]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        points = cv.probe_grid().points
        kets = cv.coherent_ket(points, dim)
        for alpha, ket in zip(points, kets):
            rho = np.outer(ket, ket.conj())
            a2 = abs(alpha) ** 2
            for n in range(25):
                expected = (np.exp(-a2 + n * np.log(a2) - log_fact[n])
                            if a2 > 0 else float(n == 0))
                if abs(rho[n, n].real - expected) > 1e-6:
                    return False
    return True


def _suite_f_linear_inversion(rng):
    ens = pauli_projectors(2)
    for _ in range(5):
        process = random_process(4, rng.integers(1, 17), rng)
        tomogram = synthesize(process, ens, ens, 0.0)
        est = linear_inversion(tomogram)
        truth = kraus_to_choi(process)
        rel = np.linalg.norm(est.mat - truth.mat) / np.linalg.norm(truth.mat)
        if rel > 1e-7:
            return False
    return True


def test_criterion_6_property_suites():
    rng = np.random.default_rng(2024)
    results = {
        "a:cayley": _suite_a_cayley(rng),
        "b:gradient-fd": _suite_b_gradient(rng),
        "c:kraus-choi": _suite_c_kraus_choi(rng),
        "d:projections": _suite_d_projections(rng),
        "e:coherent-amplitudes": _suite_e_coherent_amplitudes(),
        "f:linear-inversion": _suite_f_linear_inversion(rng),
    }
    detail = ", ".join(f"{name} {'ok' if ok else 'FAIL'}"
                       for name, ok in results.items())
    report(6, all(results.values()), detail)
