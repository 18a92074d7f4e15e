import copy
import itertools
import math

import numpy as np
import pytest

from twirlsim import (
    ChiDiagonal,
    CollectiveCoefficients,
    QuantumChannel,
    chi_diagonal,
    cnot_gate,
    UnitaryMatrix,
    collective_coefficients,
    max_weight_coefficient,
    zz_coupling,
)
from twirlsim.states import dense
from conftest import random_kraus_channel, random_unitary, random_unitary_ensemble
from reference import collective_by_labels, pauli, pauli_strings

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestPauliString:
    def test_identity_matrix(self):
        assert np.array_equal(pauli("II"), np.eye(4))

    def test_zz_matrix(self):
        assert np.array_equal(pauli("ZZ"), np.diag([1, -1, -1, 1]))

    def test_xz_against_kron_oracle(self):
        assert np.array_equal(pauli("XZ"), np.kron(SX, SZ))

    def test_matrices_hermitian_and_unitary(self):
        for s in pauli_strings(2):
            mat = dense(UnitaryMatrix(pauli(s)))  # constructor enforces unitarity
            assert np.array_equal(mat, mat.conj().T)

    def test_orthogonality_exhaustive_small(self):
        for n in (1, 2):
            strings = pauli_strings(n)
            dim = 2**n
            for a, b in itertools.product(strings, repeat=2):
                tr = np.trace(pauli(a) @ pauli(b))
                expect = dim if a == b else 0.0
                assert abs(tr - expect) < 1e-12

    def test_orthogonality_randomized_larger(self, rng):
        for n in (3, 4):
            strings = pauli_strings(n)
            dim = 2**n
            for _ in range(50):
                a, b = rng.choice(len(strings), size=2)
                tr = np.trace(pauli(strings[a]) @ pauli(strings[b]))
                expect = dim if a == b else 0.0
                assert abs(tr - expect) < 1e-12

    def test_completeness_random_unitary(self, rng):
        for n in (1, 2, 3):
            dim = 2**n
            u = random_unitary(dim, rng)
            total = sum(abs(np.trace(pauli(s) @ u)) ** 2 / dim**2
                        for s in pauli_strings(n))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_enumeration_is_lexicographic(self, rng):
        labels = pauli_strings(2)
        assert labels[:5] == ["II", "IX", "IY", "IZ", "XI"]
        assert labels == sorted(labels)
        chi = chi_diagonal(random_unitary_ensemble(2, 3, rng))
        assert chi.values.shape == (16,)
        assert chi.values.tolist() == [chi[lab] for lab in labels]


class TestChiDiagonal:
    def test_identity_channel(self):
        chi = chi_diagonal(QuantumChannel.identity(2))
        assert chi["II"] == pytest.approx(1.0, abs=1e-12)
        assert chi.values[0] == chi["II"]
        assert all(v < 1e-12 for v in chi.values[1:])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_definition(self, n, rng):
        # sum_k w_k |Tr[P_s A_k]|^2 / D^2 for every string, by dense traces
        for make in (random_kraus_channel, random_unitary_ensemble):
            for _ in range(3):
                ch = make(n, 4, rng)
                chi = chi_diagonal(ch)
                for s in pauli_strings(n):
                    p = pauli(s)
                    want = sum(w * abs(np.trace(p @ dense(op))) ** 2 for w, op in ch.terms) / 4**n
                    assert abs(chi[s] - want) <= 1e-14, (make.__name__, s)

    @pytest.mark.parametrize("beta", [0.1, 0.4, 1.3])
    def test_zz_phase_gate_closed_form(self, beta):
        chi = chi_diagonal(QuantumChannel.from_unitary(zz_coupling(beta, (1, 2), n=2)))
        assert chi["II"] == pytest.approx(math.cos(beta) ** 2, abs=1e-12)
        assert chi["ZZ"] == pytest.approx(math.sin(beta) ** 2, abs=1e-12)
        others = [v for lab, v in zip(pauli_strings(2), chi.values) if lab not in ("II", "ZZ")]
        assert max(others) < 1e-12

    def test_zz_small_angle_rounds_to_hundredth(self):
        chi = chi_diagonal(QuantumChannel.from_unitary(zz_coupling(0.1, (1, 2), n=2)))
        assert chi["ZZ"] == pytest.approx(0.00997, abs=5e-6)

    def test_cnot_four_quarters(self):
        chi = chi_diagonal(QuantumChannel.from_unitary(cnot_gate(1, 2, n=2)))
        for lab in ("II", "ZI", "IX", "ZX"):
            assert chi[lab] == pytest.approx(0.25, abs=1e-12)
        assert chi.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_linearity_in_ensemble(self, rng):
        u1 = random_unitary(4, rng)
        u2 = random_unitary(4, rng)
        mixed = chi_diagonal(QuantumChannel.unitary_ensemble([(0.3, u1), (0.7, u2)]))
        part1 = chi_diagonal(QuantumChannel.from_unitary(u1))
        part2 = chi_diagonal(QuantumChannel.from_unitary(u2))
        for lab in pauli_strings(2):
            assert mixed[lab] == pytest.approx(0.3 * part1[lab] + 0.7 * part2[lab],
                                               abs=1e-12)

    def test_small_negative_clamped(self):
        chi = ChiDiagonal(1, [1.0, -1e-13, 0.0, 0.0])
        assert chi["X"] == 0.0

    def test_large_negative_rejected(self):
        with pytest.raises(ValueError, match="entry X is negative"):
            ChiDiagonal(1, [1.0, -1e-6, 0.0, 0.0])

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="sums"):
            ChiDiagonal(1, [0.5, 0.0, 0.0, 0.0])

    def test_oracle_enforces_normalization(self):
        # a channel copied past its constructor with weights summing to 0.5:
        # the oracle's diagonal sums to 0.5 and must be refused, not flagged
        # as not trace preserving
        channel = copy.copy(QuantumChannel.identity(2))
        object.__setattr__(channel, "terms", ((0.5, channel.terms[0][1]),))
        with pytest.raises(ValueError, match="chi diagonal sums to 0.5, expected 1"):
            chi_diagonal(channel)

    @pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf],
                             ids=["inf", "nan", "-inf"])
    def test_non_finite_entry_refused(self, value):
        with pytest.raises(ValueError, match=f"entry Y: {value} is not finite"):
            ChiDiagonal(1, [1.0, 0.0, value, 0.0])

    @pytest.mark.parametrize("values", [[1.0, 0.0, 0.0], [1.0] + [0.0] * 15,
                                        [[1.0, 0.0], [0.0, 0.0]], {"I": 1.0}],
                             ids=["short", "long", "square", "dict"])
    def test_needs_four_to_the_n_entries(self, values):
        with pytest.raises(ValueError, match="needs 4 entries"):
            ChiDiagonal(1, values)

    def test_values_are_a_read_only_copy(self):
        given = np.array([0.5, 0.5, 0.0, 0.0])
        chi = ChiDiagonal(1, given)
        assert chi.values.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            chi.values[0] = 1.0
        given[0] = 0.0
        assert chi["I"] == 0.5

    @pytest.mark.parametrize("n", [0, 11, -1])
    def test_register_size_in_range(self, n):
        with pytest.raises(ValueError, match="out of range 1..10"):
            ChiDiagonal(n, [])

    @pytest.mark.parametrize("label", ["QQ", "XXX", "X", "", "xx", 12, None])
    def test_lookup_refuses_label_naming_nothing(self, label):
        chi = chi_diagonal(QuantumChannel.identity(2))
        with pytest.raises(ValueError, match="Pauli string|does not span"):
            chi[label]


class TestCollectiveCoefficients:
    def test_identity_channel_all_zero(self):
        cc = collective_coefficients(chi_diagonal(QuantumChannel.identity(2)))
        assert sum(cc.values.values()) < 1e-12

    def test_cnot(self):
        cc = collective_coefficients(chi_diagonal(QuantumChannel.from_unitary(cnot_gate(1, 2, n=2))))
        assert cc[(1,)] == pytest.approx(0.25, abs=1e-12)
        assert cc[(2,)] == pytest.approx(0.25, abs=1e-12)
        assert cc[(1, 2)] == pytest.approx(0.25, abs=1e-12)

    def test_directions_coarse_grained(self):
        values = dict.fromkeys(pauli_strings(3), 0.0) | {"III": 0.5, "XIX": 0.3, "XIZ": 0.2}
        chi = ChiDiagonal(3, list(values.values()))
        cc = collective_coefficients(chi)
        assert cc[(1, 3)] == pytest.approx(0.5, abs=1e-12)

    def test_total_conserved(self, rng):
        u = random_unitary(8, rng)
        chi = chi_diagonal(QuantumChannel.from_unitary(u))
        cc = collective_coefficients(chi)
        off_identity = sum(chi.values[1:])
        assert sum(cc.values.values()) == pytest.approx(off_identity, abs=1e-12)
        assert sum(cc.values.values()) == pytest.approx(1.0 - chi["III"], abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_label_loop(self, n, rng):
        # bit for bit: bincount adds each subset's entries in label order
        for make in (random_kraus_channel, random_unitary_ensemble):
            for _ in range(3):
                chi = chi_diagonal(make(n, 3, rng))
                labels = pauli_strings(n)
                assert all(chi.values[k] == chi[labels[k]] for k in range(4**n))
                want = collective_by_labels(chi)
                got = collective_coefficients(chi).values
                assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_value_refused(self, value):
        with pytest.raises(ValueError, match="is not finite"):
            CollectiveCoefficients(3, {(1, 2): value})

    @pytest.mark.parametrize("values, message", [
        ({(1, 1): 0.5}, "duplicate qubit"),
        ({(): 0.5}, "nonempty"),
        ({(1, 4): 0.5}, "out of range"),
        ({(1, 3): 0.5, (3, 1): 0.2}, "given twice"),
    ], ids=["repeated-qubit", "empty", "out-of-range", "same-subset-twice"])
    def test_bad_subset_refused(self, values, message):
        with pytest.raises(ValueError, match=message):
            CollectiveCoefficients(3, values)

    # The two tests below keep the rows of the deleted text table; such rows
    # now reach the constructor as subset keys and must be refused there,
    # each with the subset it names.
    def test_from_text_repeated_qubit(self):
        with pytest.raises(ValueError, match=r"duplicate qubit labels in \(1, 1\)"):
            CollectiveCoefficients(3, {(2,): 0.1, (1, 1): 0.5})

    @pytest.mark.parametrize("first, second, sorted_subset", [
        ((1, 3), (3, 1), r"\(1, 3\)"),
        ((1, 2, 3), (3, 1, 2), r"\(1, 2, 3\)"),
    ], ids=["reordered", "reordered-triple"])
    def test_from_text_repeated_subset(self, first, second, sorted_subset):
        with pytest.raises(ValueError, match=rf"subset {sorted_subset} is given twice"):
            CollectiveCoefficients(3, {first: 0.5, second: 0.2})

    def test_negative_value_names_its_subset(self):
        with pytest.raises(ValueError, match=r"entry \(2, 3\) is negative"):
            CollectiveCoefficients(3, {(1,): 0.1, (3, 2): -0.1})
        assert CollectiveCoefficients(3, {(1,): -1e-13})[(1,)] == 0.0

    @pytest.mark.parametrize("n", [0, 11])
    def test_register_size_in_range(self, n):
        with pytest.raises(ValueError, match="out of range 1..10"):
            CollectiveCoefficients(n, {})

    @pytest.mark.parametrize("subset, message", [
        ((1, 1), "duplicate qubit"),
        ((5,), "out of range"),
        ((), "nonempty"),
        ((0, 2), "out of range"),
        ((1.5,), "qubit label 1.5 is not an integer"),
    ], ids=["repeated-qubit", "out-of-range", "empty", "zero", "non-integer"])
    def test_lookup_refuses_subset_naming_nothing(self, subset, message):
        cc = collective_coefficients(chi_diagonal(QuantumChannel.identity(2)))
        with pytest.raises(ValueError, match=message):
            cc[subset]

    def test_valid_subset_missing_from_table_reads_zero(self):
        cc = CollectiveCoefficients(3, {(1, 3): 0.5})
        assert cc[(3, 1)] == 0.5
        assert cc[(2, 3)] == 0.0


class TestMaxWeightCoefficient:
    def test_identity(self):
        chi = chi_diagonal(QuantumChannel.identity(2))
        assert max_weight_coefficient(chi, 0) == 0.0

    def test_cnot_has_no_three_body(self):
        chi = chi_diagonal(QuantumChannel.from_unitary(cnot_gate(1, 2, n=2)))
        assert max_weight_coefficient(chi, 2) == 0.0

    def test_cutoff_below_support(self):
        chi = chi_diagonal(QuantumChannel.from_unitary(cnot_gate(1, 2, n=2)))
        assert max_weight_coefficient(chi, 1) == pytest.approx(0.25, abs=1e-12)

    def test_out_of_range_cutoff(self):
        chi = chi_diagonal(QuantumChannel.identity(2))
        with pytest.raises(ValueError):
            max_weight_coefficient(chi, 5)
        for above in (1.5, True):
            with pytest.raises(ValueError, match=f"weight cutoff {above!r} is not an integer"):
                max_weight_coefficient(chi, above)
