import warnings

import numpy as np
import pytest

from kraustomo.core import DensityMatrix
from kraustomo.cv import (DEFAULT_ALPHA, DEFAULT_PHASES, CvGrid, annihilation,
                          coherent_ket, displaced_parity, displacement,
                          measurement_grid, probe_grid, snap,
                          snap_displace_process)
from dense_oracle import (coherent_kets_per_point, displaced_parities_per_point,
                          displacement_per_point, snap_displace_per_point)


class TestCvGrid:
    def test_point_ordering(self):
        grid = CvGrid(-1, 1, -2, 2, 3, 2)
        pts = grid.points
        assert pts.shape == (6,)
        assert pts[0] == -1 - 2j
        assert pts[1] == -1 + 2j
        assert pts[2] == 0 - 2j
        assert pts[-1] == 1 + 2j

    def test_default_grids(self):
        assert probe_grid().points.shape == (100,)
        assert measurement_grid().points.shape == (100,)
        assert probe_grid().points[0] == -2.5 - 2.5j
        assert measurement_grid().points[-1] == 3 + 3j

    def test_round_trip_dict(self):
        grid = CvGrid(-3, 3, -3, 3, 10, 10)
        assert np.array_equal(CvGrid.from_dict(grid.to_dict()).points,
                              grid.points)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            CvGrid(0, 1, 0, 1, 0, 5)


class TestAnnihilation:
    def test_matrix_elements(self):
        a = annihilation(4)
        expected = np.zeros((4, 4))
        expected[0, 1] = 1.0
        expected[1, 2] = np.sqrt(2)
        expected[2, 3] = np.sqrt(3)
        assert np.allclose(a, expected)

    def test_number_operator(self):
        a = annihilation(5)
        assert np.allclose(a.conj().T @ a, np.diag([0, 1, 2, 3, 4]))

    def test_commutator_truncation_artifact(self):
        # [a, a^dag] = I except in the last Fock level, where the cutoff
        # forces the diagonal entry to -(N-1).
        dim = 6
        a = annihilation(dim)
        comm = a @ a.conj().T - a.conj().T @ a
        expected = np.eye(dim)
        expected[-1, -1] = -(dim - 1)
        assert np.allclose(comm, expected)

    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError, match="cutoff"):
            annihilation(1)


class TestDisplacement:
    def test_zero_is_identity(self):
        assert np.allclose(displacement(0.0, 8), np.eye(8))

    def test_unitary(self):
        d = displacement(1.0 + 0.5j, 32)
        assert np.abs(d @ d.conj().T - np.eye(32)).max() <= 1e-12

    def test_inverse_is_negative_displacement(self):
        d = displacement(0.7 - 0.3j, 32)
        dm = displacement(-0.7 + 0.3j, 32)
        assert np.abs(d @ dm - np.eye(32)).max() <= 1e-10

    def test_vacuum_overlap(self):
        # <0|D(alpha)|0> = exp(-|alpha|^2 / 2).
        alpha = 1.2 + 0.4j
        d = displacement(alpha, 64)
        assert d[0, 0] == pytest.approx(np.exp(-abs(alpha) ** 2 / 2), abs=1e-10)

    def test_truncation_warning(self):
        with pytest.warns(UserWarning, match="truncation"):
            displacement(4.0, 32)


class TestCoherentState:
    def test_vacuum(self):
        ket = coherent_ket(0.0, 8)
        rho = np.outer(ket, ket.conj())
        assert np.allclose(rho, np.diag([1.0] + [0.0] * 7))

    def test_fock_amplitudes(self):
        # |<n|alpha>|^2 = e^{-|alpha|^2} |alpha|^{2n} / n!
        alpha = 0.8 + 0.3j
        ket = coherent_ket(alpha, 48)
        rho = np.outer(ket, ket.conj())
        from math import factorial
        for n in range(6):
            expected = (np.exp(-abs(alpha) ** 2) * abs(alpha) ** (2 * n)
                        / factorial(n))
            assert abs(rho[n, n].real - expected) <= 1e-6

    def test_unit_trace_even_near_cutoff(self):
        ket = coherent_ket(2.5 + 2.5j, 32)
        rho = np.outer(ket, ket.conj())
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        DensityMatrix(rho)      # Hermitian, trace 1, PSD

    def test_mean_photon_number(self):
        alpha = 1.1 - 0.6j
        ket = coherent_ket(alpha, 64)
        rho = np.outer(ket, ket.conj())
        nbar = np.real(np.trace(np.diag(np.arange(64)) @ rho))
        assert nbar == pytest.approx(abs(alpha) ** 2, abs=1e-8)


class TestDisplacedParity:
    def test_zero_displacement_is_parity(self):
        pi0 = displaced_parity(0.0, 6)
        assert np.allclose(pi0, np.diag([1, -1, 1, -1, 1, -1]))

    def test_hermitian_involution(self):
        op = displaced_parity(0.9 + 0.2j, 32)
        assert np.abs(op - op.conj().T).max() <= 1e-12
        assert np.abs(op @ op - np.eye(32)).max() <= 1e-10

    def test_coherent_state_expectation(self):
        # <alpha|Pi(beta)|alpha> = exp(-2|alpha - beta|^2).
        alpha, beta = 0.5 - 0.4j, -0.3 + 0.6j
        ket = coherent_ket(alpha, 48)
        rho = np.outer(ket, ket.conj())
        val = np.real(np.trace(displaced_parity(beta, 48) @ rho))
        assert val == pytest.approx(np.exp(-2 * abs(alpha - beta) ** 2),
                                    abs=1e-8)

    def test_displacement_covariance(self):
        beta = 0.4 + 0.7j
        d = displacement(beta, 32)
        lhs = displaced_parity(beta, 32)
        rhs = d @ displaced_parity(0.0, 32) @ d.conj().T
        assert np.abs(lhs - rhs).max() <= 1e-10


# The origin, a real, an imaginary and a negative real point.
SPECIAL_POINTS = np.array([0.0, 1.3, 1.1j, -0.7])


@pytest.mark.filterwarnings("ignore:.*truncation")
@pytest.mark.parametrize("dim", [8, 16, 32])
@pytest.mark.parametrize("points", [
    pytest.param(probe_grid().points, id="probe-grid"),
    pytest.param(measurement_grid().points, id="measurement-grid"),
    pytest.param(SPECIAL_POINTS, id="special"),
])
class TestArrayBuildersMatchPerPoint:
    """One eigh per call against one eigh per point (dense_oracle)."""

    def test_displacement(self, dim, points):
        stack = displacement(points, dim)
        want = np.array([displacement_per_point(a, dim) for a in points])
        assert stack.shape == (len(points), dim, dim)
        assert np.abs(stack - want).max() <= 1e-12

    def test_coherent_ket(self, dim, points):
        kets = coherent_ket(points, dim)
        assert kets.shape == (len(points), dim)
        assert np.abs(kets - coherent_kets_per_point(points, dim)).max() \
            <= 1e-12

    def test_displaced_parity(self, dim, points):
        ops = displaced_parity(points, dim)
        assert ops.shape == (len(points), dim, dim)
        assert np.abs(ops - displaced_parities_per_point(points, dim)).max() \
            <= 1e-12

    def test_scalar_is_its_row(self, dim, points):
        for build in (displacement, coherent_ket, displaced_parity):
            stack = build(points, dim)
            for i in (0, len(points) - 1):
                assert np.array_equal(build(points[i], dim), stack[i])


class TestArrayBuilders:
    @pytest.mark.filterwarnings("ignore:.*truncation")
    def test_points_keep_their_shape(self):
        pts = SPECIAL_POINTS.reshape(2, 2)
        assert displacement(pts, 6).shape == (2, 2, 6, 6)
        assert coherent_ket(pts, 6).shape == (2, 2, 6)
        assert displaced_parity(pts, 6).shape == (2, 2, 6, 6)

    @pytest.mark.parametrize("build", [displacement, coherent_ket,
                                       displaced_parity])
    def test_one_warning_per_call(self, build):
        # Two points past |alpha|^2 > N/4; the largest is named.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build(np.array([0.1, 3.5, -4.0j, 0.2]), 32)
            build(np.array([0.1, 0.2]), 32)
        assert len(caught) == 1
        assert "16.00" in str(caught[0].message)

    @pytest.mark.filterwarnings("ignore:.*truncation")
    @pytest.mark.parametrize("dim", [8, 16, 32])
    def test_snap_displace_process(self, dim):
        want = snap_displace_per_point(DEFAULT_ALPHA, DEFAULT_PHASES, dim)
        got = snap_displace_process(DEFAULT_ALPHA, DEFAULT_PHASES, dim)
        assert np.abs(got.blocks[0] - want).max() <= 1e-12


class TestSnap:
    def test_phases(self):
        u = snap([0.0, np.pi / 2, np.pi], 5)
        assert np.allclose(np.diag(u), [1, 1j, -1, 1, 1])

    def test_identity_with_no_phases(self):
        assert np.allclose(snap([], 4), np.eye(4))

    def test_rejects_too_many_phases(self):
        with pytest.raises(ValueError, match="exceed"):
            snap(np.zeros(5), 4)


class TestSnapDisplaceProcess:
    def test_unitary_single_kraus(self):
        proc = snap_displace_process()
        assert proc.count == 1
        assert proc.dim == 32
        u = proc.blocks[0]
        assert np.abs(u @ u.conj().T - np.eye(32)).max() <= 1e-10

    def test_zero_phases_is_identity(self):
        proc = snap_displace_process(alpha=1.0, phases=[], dim=16)
        assert np.abs(proc.blocks[0] - np.eye(16)).max() <= 1e-10

    def test_vacuum_maps_to_displaced_snap_state(self):
        # D(a) S D(-a) |0> should differ from |0> for nonzero phases.
        proc = snap_displace_process(dim=32)
        ket = proc.blocks[0][:, 0]
        assert abs(abs(ket[0]) - 1.0) > 0.1
        assert np.linalg.norm(ket) == pytest.approx(1.0, abs=1e-10)
