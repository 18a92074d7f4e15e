import itertools
import math

import numpy as np
import pytest

from twirlsim import (
    ChiDiagonal,
    CollectiveCoefficients,
    PauliString,
    QuantumChannel,
    chi_diagonal,
    cnot_gate,
    UnitaryMatrix,
    collective_coefficients,
    max_weight_coefficient,
    pauli_weight,
    zz_coupling,
)
from conftest import random_kraus_channel, random_unitary, random_unitary_ensemble
from reference import pauli, pauli_strings

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestPauliString:
    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            PauliString("XQ")
        with pytest.raises(ValueError):
            PauliString("")

    @pytest.mark.parametrize("letters,weight", [
        ("IIII", 0),
        ("XIZI", 2),
        ("XYZX", 4),
    ])
    def test_weight(self, letters, weight):
        assert pauli_weight(letters) == weight
        assert PauliString(letters).weight == weight

    def test_support(self):
        assert PauliString("IXIZ").support == (2, 4)

    def test_identity_matrix(self):
        assert np.array_equal(pauli("II"), np.eye(4))

    def test_zz_matrix(self):
        assert np.array_equal(pauli("ZZ"), np.diag([1, -1, -1, 1]))

    def test_xz_against_kron_oracle(self):
        assert np.array_equal(pauli("XZ"), np.kron(SX, SZ))

    def test_matrices_hermitian_and_unitary(self):
        for s in pauli_strings(2):
            mat = UnitaryMatrix(pauli(s)).data  # constructor enforces unitarity
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

    def test_enumeration_is_lexicographic(self):
        labels = list(chi_diagonal(QuantumChannel.identity(2)).values)
        assert labels[:5] == ["II", "IX", "IY", "IZ", "XI"]
        assert labels == sorted(labels) == pauli_strings(2)


class TestChiDiagonal:
    def test_identity_channel(self):
        chi = chi_diagonal(QuantumChannel.identity(2))
        assert chi["II"] == pytest.approx(1.0, abs=1e-12)
        assert all(v < 1e-12 for lab, v in chi.values.items() if lab != "II")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_definition(self, n, rng):
        # sum_k w_k |Tr[P_s A_k]|^2 / D^2 for every string, by dense traces
        for make in (random_kraus_channel, random_unitary_ensemble):
            for _ in range(3):
                ch = make(n, 4, rng)
                chi = chi_diagonal(ch)
                for s in pauli_strings(n):
                    p = pauli(s)
                    want = sum(w * abs(np.trace(p @ op)) ** 2 for w, op in ch.terms) / 4**n
                    assert abs(chi[s] - want) <= 1e-14, (make.__name__, s)

    @pytest.mark.parametrize("beta", [0.1, 0.4, 1.3])
    def test_zz_phase_gate_closed_form(self, beta):
        chi = chi_diagonal(QuantumChannel.from_unitary(zz_coupling(beta, (1, 2), n=2)))
        assert chi["II"] == pytest.approx(math.cos(beta) ** 2, abs=1e-12)
        assert chi["ZZ"] == pytest.approx(math.sin(beta) ** 2, abs=1e-12)
        others = {lab: v for lab, v in chi.values.items() if lab not in ("II", "ZZ")}
        assert max(others.values()) < 1e-12

    def test_zz_small_angle_rounds_to_hundredth(self):
        chi = chi_diagonal(QuantumChannel.from_unitary(zz_coupling(0.1, (1, 2), n=2)))
        assert chi["ZZ"] == pytest.approx(0.00997, abs=5e-6)

    def test_cnot_four_quarters(self):
        chi = chi_diagonal(QuantumChannel.from_unitary(cnot_gate(1, 2, n=2)))
        for lab in ("II", "ZI", "IX", "ZX"):
            assert chi[lab] == pytest.approx(0.25, abs=1e-12)
        assert chi.total() == pytest.approx(1.0, abs=1e-12)

    def test_linearity_in_ensemble(self, rng):
        u1 = random_unitary(4, rng)
        u2 = random_unitary(4, rng)
        mixed = chi_diagonal(QuantumChannel.unitary_ensemble([(0.3, u1), (0.7, u2)]))
        part1 = chi_diagonal(QuantumChannel.from_unitary(u1))
        part2 = chi_diagonal(QuantumChannel.from_unitary(u2))
        for lab in mixed.values:
            assert mixed[lab] == pytest.approx(0.3 * part1[lab] + 0.7 * part2[lab],
                                               abs=1e-12)

    def test_small_negative_clamped(self):
        chi = ChiDiagonal(1, {"I": 1.0, "X": -1e-13}, trace_preserving=True)
        assert chi["X"] == 0.0

    def test_large_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ChiDiagonal(1, {"I": 1.0, "X": -1e-6}, trace_preserving=False)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="sums"):
            ChiDiagonal(1, {"I": 0.5}, trace_preserving=True)

    def test_text_round_trip(self):
        chi = ChiDiagonal(2, {"II": 0.75, "ZX": 0.25})
        text = chi.to_text()
        assert text.splitlines()[0] == "n 2"
        assert any(line.startswith("ZX 2.5") for line in text.splitlines())
        back = ChiDiagonal.from_text(text)
        assert back["ZX"] == pytest.approx(0.25, abs=1e-12)
        assert back.trace_preserving

    @pytest.mark.parametrize("text, value", [
        ("", None),
        ("n\nI 1.0\n", None),
        ("I 1.0\n", None),
        ("n 1\nI 1.0  # note\n", 1.0),
        ("n 1\n  # note\nI 1.0\n", 1.0),
    ], ids=["empty", "header-without-count", "no-header", "inline-comment",
            "indented-comment"])
    def test_from_text_comments_and_header(self, text, value):
        if value is None:
            with pytest.raises(ValueError):
                ChiDiagonal.from_text(text)
        else:
            assert ChiDiagonal.from_text(text)["I"] == value

    @pytest.mark.parametrize("row", ["I 1.0 extra", "I"])
    def test_from_text_row_needs_two_tokens(self, row):
        with pytest.raises(ValueError, match=f"chi row '{row}' is not '<key> <value>'"):
            ChiDiagonal.from_text(f"n 1\n{row}\n")

    @pytest.mark.parametrize("text, row, form", [
        ("n 1\nI abc\n", "I abc", "<key> <value>"),
        ("n x\nI 1.0\n", "n x", "n <count>"),
        ("n 1.5\nI 1.0\n", "n 1.5", "n <count>"),
    ])
    def test_from_text_bad_number_names_row(self, text, row, form):
        with pytest.raises(ValueError, match=f"chi row '{row}' is not '{form}'"):
            ChiDiagonal.from_text(text)

    @pytest.mark.parametrize("text", ["n 1\nI 1\nX inf\n", "n 1\nI nan\n", "n 1\nI -inf\n"],
                             ids=["inf", "nan", "-inf"])
    def test_from_text_refuses_non_finite(self, text):
        with pytest.raises(ValueError, match="is not finite"):
            ChiDiagonal.from_text(text)

    @pytest.mark.parametrize("n, text", [(0, "n 0\n"), (11, "n 11\n"), (-1, "n -1\nI 1\n")])
    def test_register_size_in_range(self, n, text):
        with pytest.raises(ValueError, match="out of range 1..10"):
            ChiDiagonal.from_text(text)
        with pytest.raises(ValueError, match="out of range 1..10"):
            ChiDiagonal(n, {}, trace_preserving=False)

    def test_from_text_repeated_row(self):
        with pytest.raises(ValueError, match="repeated chi row 'I 0.5'"):
            ChiDiagonal.from_text("n 1\nI 0.5\nX 0.5\nI 0.5\n")


class TestCollectiveCoefficients:
    def test_identity_channel_all_zero(self):
        cc = collective_coefficients(chi_diagonal(QuantumChannel.identity(2)))
        assert cc.total() < 1e-12

    def test_cnot(self):
        cc = collective_coefficients(chi_diagonal(QuantumChannel.from_unitary(cnot_gate(1, 2, n=2))))
        assert cc[(1,)] == pytest.approx(0.25, abs=1e-12)
        assert cc[(2,)] == pytest.approx(0.25, abs=1e-12)
        assert cc[(1, 2)] == pytest.approx(0.25, abs=1e-12)

    def test_directions_coarse_grained(self):
        chi = ChiDiagonal(3, {"III": 0.5, "XIX": 0.3, "XIZ": 0.2},
                          trace_preserving=True)
        cc = collective_coefficients(chi)
        assert cc[(1, 3)] == pytest.approx(0.5, abs=1e-12)

    def test_total_conserved(self, rng):
        u = random_unitary(8, rng)
        chi = chi_diagonal(QuantumChannel.from_unitary(u))
        cc = collective_coefficients(chi)
        off_identity = sum(v for lab, v in chi.values.items() if lab != "III")
        assert cc.total() == pytest.approx(off_identity, abs=1e-12)
        assert cc.total() == pytest.approx(1.0 - chi["III"], abs=1e-9)

    def test_text_round_trip(self):
        cc = CollectiveCoefficients(3, {(1, 3): 0.5, (2,): 0.1})
        text = cc.to_text()
        assert "1,3 5" in text
        back = CollectiveCoefficients.from_text(text)
        assert back[(1, 3)] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("rows", ["1,3 0.5\n1,3 0.2", "1,3 0.5\n3,1 0.2"],
                             ids=["same", "reordered"])
    def test_from_text_repeated_subset(self, rows):
        with pytest.raises(ValueError, match="repeated collective row"):
            CollectiveCoefficients.from_text(f"n 3\n{rows}\n")

    def test_from_text_row_needs_two_tokens(self):
        with pytest.raises(ValueError, match="collective row '1,3' is not"):
            CollectiveCoefficients.from_text("n 3\n1,3\n")

    @pytest.mark.parametrize("text, row", [
        ("n 3\n1,x 0.5\n", "1,x 0.5"),
        ("n 3\n1,3 half\n", "1,3 half"),
        ("n x\n1,3 0.5\n", "n x"),
    ])
    def test_from_text_bad_token_names_row(self, text, row):
        with pytest.raises(ValueError, match=f"collective row '{row}' is not"):
            CollectiveCoefficients.from_text(text)


    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_value_refused(self, value):
        with pytest.raises(ValueError, match="is not finite"):
            CollectiveCoefficients(3, {(1, 2): value})
        with pytest.raises(ValueError, match="is not finite"):
            CollectiveCoefficients.from_text(f"n 3\n1,2 {value}\n")

    @pytest.mark.parametrize("values, message", [
        ({(1, 1): 0.5}, "duplicate qubit"),
        ({(): 0.5}, "nonempty"),
        ({(1, 4): 0.5}, "out of range"),
        ({(1, 3): 0.5, (3, 1): 0.2}, "given twice"),
    ], ids=["repeated-qubit", "empty", "out-of-range", "same-subset-twice"])
    def test_bad_subset_refused(self, values, message):
        with pytest.raises(ValueError, match=message):
            CollectiveCoefficients(3, values)

    def test_from_text_repeated_qubit(self):
        with pytest.raises(ValueError, match="duplicate qubit"):
            CollectiveCoefficients.from_text("n 3\n1,1 0.5\n")

    @pytest.mark.parametrize("n", [0, 11])
    def test_register_size_in_range(self, n):
        with pytest.raises(ValueError, match="out of range 1..10"):
            CollectiveCoefficients.from_text(f"n {n}\n")


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
