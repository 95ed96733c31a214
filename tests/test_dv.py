import itertools

import numpy as np
import pytest

from kraustomo.core import DensityMatrix, apply_kraus, tp_defect
from kraustomo.dv import (PAULI_LABELS, pauli_kets, pauli_label,
                          pauli_projector, pauli_projectors, random_process,
                          random_unitary)


class TestPauliProjector:
    def test_zplus(self):
        assert np.allclose(pauli_projector(("z+",)), np.diag([1.0, 0.0]))

    def test_xplus(self):
        assert np.allclose(pauli_projector(("x+",)),
                           np.full((2, 2), 0.5))

    def test_yplus(self):
        expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        assert np.allclose(pauli_projector(("y+",)), expected)

    def test_two_qubit_tensor_structure(self):
        single_a = pauli_projector(("x-",))
        single_b = pauli_projector(("y+",))
        assert np.allclose(pauli_projector(("x-", "y+")),
                           np.kron(single_a, single_b))

    def test_projector_properties(self):
        for lab in PAULI_LABELS:
            p = pauli_projector((lab,))
            assert np.allclose(p @ p, p)
            assert np.trace(p).real == pytest.approx(1.0)

    def test_opposite_eigenstates_sum_to_identity(self):
        for axis in "xyz":
            total = (pauli_projector((axis + "+",))
                     + pauli_projector((axis + "-",)))
            assert np.allclose(total, np.eye(2))


class TestPauliEnsemble:
    def test_counts_and_dim(self):
        ops = pauli_projectors(2)
        assert ops.shape == (36, 4, 4)
        assert pauli_kets(2).shape == (36, 4)

    def test_lexicographic_label_order(self):
        assert pauli_label(0, 2) == ("x+", "x+")
        assert pauli_label(1, 2) == ("x+", "x-")
        assert pauli_label(6, 2) == ("x-", "x+")
        assert pauli_label(35, 2) == ("z-", "z-")

    def test_probes_match_labels(self):
        ops = pauli_projectors(2)
        for idx in (0, 7, 35):
            assert np.allclose(ops[idx], pauli_projector(pauli_label(idx, 2)))

    def test_single_qubit(self):
        ops = pauli_projectors(1)
        assert len(ops) == 6
        assert np.allclose(ops[4], np.diag([1.0, 0.0]))

    def test_rejects_zero_qubits(self):
        for build in (pauli_kets, pauli_projectors):
            with pytest.raises(ValueError, match="at least one"):
                build(0)

    def test_memory_guard(self):
        for build in (pauli_kets, pauli_projectors):
            with pytest.raises(MemoryError, match="GiB"):
                build(12)


class TestPauliProjectors:
    def test_labels_decode_lexicographic_order(self):
        for n in (1, 2, 3):
            expected = list(itertools.product(PAULI_LABELS, repeat=n))
            assert [pauli_label(i, n) for i in range(6 ** n)] == expected

    def test_full_stack_matches_ensemble(self):
        ops = pauli_projectors(2)
        labels = itertools.product(PAULI_LABELS, repeat=2)
        assert np.array_equal(ops, [pauli_projector(lab) for lab in labels])
        for op in ops:      # a valid state: Hermitian, trace 1, PSD
            DensityMatrix(op)

    def test_indices_select_in_given_order(self):
        ops = pauli_projectors(2, [35, 0, 7])
        assert np.array_equal(ops, pauli_projectors(2)[[35, 0, 7]])

    @pytest.mark.parametrize("n, indices", [(1, None), (2, None), (3, None),
                                            (3, [215, 0, 43, 43]),
                                            (5, range(0, 6 ** 5, 97))])
    def test_every_entry_matches_its_label(self, n, indices):
        ops = pauli_projectors(n, indices)
        chosen = range(6 ** n) if indices is None else indices
        assert len(ops) == len(chosen)
        for op, i in zip(ops, chosen):
            assert np.array_equal(op, pauli_projector(pauli_label(i, n)))

    def test_projectors_are_outer_products_of_the_kets(self):
        kets = pauli_kets(3, [7, 200])
        assert kets.shape == (2, 8)
        assert np.abs(np.linalg.norm(kets, axis=1) - 1).max() <= 1e-15
        assert np.array_equal(pauli_projectors(3, [7, 200]),
                              kets[:, :, None] * kets[:, None, :].conj())
        assert pauli_kets(2, []).shape == (0, 4)

    def test_guard_counts_selected_entries(self):
        with pytest.raises(MemoryError, match="GiB"):
            pauli_projectors(6)
        assert pauli_projectors(6, range(64)).shape == (64, 64, 64)


class TestRandomUnitary:
    def test_unitarity(self, rng):
        for dim in (2, 4, 7):
            u = random_unitary(dim, rng)
            assert np.abs(u @ u.conj().T - np.eye(dim)).max() <= 1e-12

    def test_deterministic_given_seed(self):
        a = random_unitary(4, np.random.default_rng(7))
        b = random_unitary(4, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_zero_generator_gives_identity(self):
        class ZeroRng:
            def uniform(self, lo, hi, size):
                return np.zeros(size)

        assert np.allclose(random_unitary(3, ZeroRng()), np.eye(3))

    def test_ensemble_spreads_over_the_group(self, rng):
        # Traces of independent draws should not cluster at one value.
        traces = [np.trace(random_unitary(2, rng)) for _ in range(100)]
        assert np.std(np.real(traces)) > 0.1


class TestRandomProcess:
    def test_trace_preserving(self, rng):
        for _ in range(100):
            assert tp_defect(random_process(4, 5, rng)) <= 1e-10

    def test_block_count_and_dim(self, rng):
        proc = random_process(2, 3, rng)
        assert proc.count == 3
        assert proc.dim == 2

    def test_rank_bounds(self, rng):
        with pytest.raises(ValueError, match="rank"):
            random_process(2, 0, rng)
        with pytest.raises(ValueError, match="rank"):
            random_process(2, 5, rng)

    def test_rank_one_is_unitary_channel(self, rng):
        proc = random_process(3, 1, rng)
        u = proc.blocks[0]
        assert np.abs(u @ u.conj().T - np.eye(3)).max() <= 1e-10

    def test_weights_squared_sum_to_one(self, rng):
        proc = random_process(2, 4, rng)
        norms2 = [np.real(np.trace(k.conj().T @ k)) / 2 for k in proc.blocks]
        assert sum(norms2) == pytest.approx(1.0, abs=1e-12)

    def test_outputs_are_states(self, rng):
        proc = random_process(4, 6, rng)
        for probe in pauli_projectors(2)[:5]:
            out = apply_kraus(proc, probe)
            assert abs(np.trace(out) - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(out)[0] >= -1e-10
