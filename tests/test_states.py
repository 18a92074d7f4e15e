import re
import tracemalloc

import numpy as np
import pytest

from twirlsim import (
    DecayEstimate, Delay, DimensionError, ErrorBudget, NmrHamiltonian, Pulse, QuantumChannel,
    SamplePlan, UnitaryMatrix, cnot_gate, run_campaign, time_suspension_sequence, zz_coupling)
from twirlsim.states import (
    ATOL, Monomial, _validate_subset, apply_local, checked_probability, dense, outcome_codes)
from conftest import random_density, random_kraus_channel, random_unitary
from reference import apply_channel, check_density, kron, partial_trace, projection

I2 = np.eye(2, dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
KET0 = np.diag([1.0, 0.0]).astype(complex)


def brute_force_partial_trace(rho: np.ndarray, n: int, keep: tuple[int, ...]) -> np.ndarray:
    """Independent oracle: explicit index-pair summation, qubit 1 = MSB."""
    traced = [q for q in range(1, n + 1) if q not in keep]
    m = len(keep)
    out = np.zeros((2**m, 2**m), dtype=complex)
    for row in range(2**n):
        for col in range(2**n):
            if any(((row >> (n - q)) & 1) != ((col >> (n - q)) & 1) for q in traced):
                continue
            r_out = 0
            c_out = 0
            for pos, q in enumerate(keep):
                r_out |= ((row >> (n - q)) & 1) << (m - 1 - pos)
                c_out |= ((col >> (n - q)) & 1) << (m - 1 - pos)
            out[r_out, c_out] += rho[row, col]
    return out


class TestTensor:
    """The reference's Kronecker product: the first factor is qubit 1."""

    def test_identity_case(self):
        assert np.array_equal(kron([I2, I2]), np.eye(4))

    def test_zz(self):
        assert np.array_equal(kron([SZ, SZ]), np.diag([1, -1, -1, 1]).astype(complex))

    def test_projector_times_mixed(self):
        assert np.allclose(kron([KET0, I2 / 2]), np.diag([0.5, 0.5, 0.0, 0.0]))


class TestDensityMatrix:
    """The checks the reference twirl makes on every state it returns."""

    def test_valid(self):
        check_density(np.diag([0.25, 0.75]).astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(AssertionError, match="Hermitian"):
            check_density(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(AssertionError, match="trace"):
            check_density(np.diag([0.5, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(AssertionError, match="negative eigenvalue"):
            check_density(np.diag([1.5, -0.5]))

    def test_rejects_nan_entry(self):
        with pytest.raises(AssertionError, match="Hermitian"):
            check_density(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_product_constructor(self):
        rho = check_density(kron([KET0, I2 / 2, KET0]))
        assert projection(rho, [1, 3]) == pytest.approx(1.0)


class TestUnitaryMatrix:
    def test_valid(self):
        UnitaryMatrix(np.array([[0, 1], [1, 0]], dtype=complex))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            UnitaryMatrix(np.array([[1, 0], [0, 2]], dtype=complex))

    def test_rejects_nan_entry(self):
        with pytest.raises(ValueError, match="unitary"):
            UnitaryMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_monomial_verdict_matches_dense_formula(self, n):
        rng = np.random.default_rng(100 + n)
        dim = 2**n
        verdicts = set()
        for scale in (1e-11, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8):
            for _ in range(4):
                # moduli 1 + delta_k, delta_k of either sign, on a random permutation
                moduli = 1.0 + scale * rng.uniform(-1.0, 1.0, dim) / np.sqrt(dim)
                u = np.zeros((dim, dim), dtype=complex)
                u[rng.permutation(dim), np.arange(dim)] = moduli * np.exp(
                    2j * np.pi * rng.random(dim))
                accept = np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= ATOL
                verdicts.add(accept)
                if accept:
                    UnitaryMatrix(u)
                else:
                    with pytest.raises(ValueError, match="not unitary"):
                        UnitaryMatrix(u)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0])
    def test_monomial_rejects_bad_entry(self, bad):
        u = np.eye(8, dtype=complex)[::-1].copy()
        u[2, 5] = bad
        # conj(inf) * inf has a NaN imaginary part, as in the dense product
        with pytest.raises(ValueError, match="not unitary"), np.errstate(invalid="ignore"):
            UnitaryMatrix(u)

    def test_permutation_pattern_with_zero_row_rejected(self):
        u = np.eye(8, dtype=complex)[[1, 0, 3, 2, 5, 4, 7, 6]]
        u[3] = 0.0
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryMatrix(u)

    def test_branch_follows_nonzero_pattern(self, monkeypatch):
        # only the dense branch forms the identity it compares U^dag U with
        perm = np.eye(8, dtype=complex)[[1, 0, 3, 2, 5, 4, 7, 6]]
        sizes = []
        eye = np.eye

        def counting_eye(dim, *args, **kwargs):
            sizes.append(dim)
            return eye(dim, *args, **kwargs)

        monkeypatch.setattr(np, "eye", counting_eye)
        UnitaryMatrix(perm)
        assert sizes == []
        perm[0, 7] = 1e-13
        UnitaryMatrix(perm)
        assert sizes == [8]

    def test_permutation_check_memory(self):
        # the dense check's conj, product and identity would each be 8-16 MB at n = 10
        p = dense(cnot_gate(1, 2, 10))
        tracemalloc.start()
        try:
            UnitaryMatrix(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * p.nbytes, peak

    @pytest.mark.parametrize("build", [lambda: cnot_gate(1, 2, 10),
                                       lambda: zz_coupling(0.3, (1, 2), 10),
                                       lambda: UnitaryMatrix.identity(10)],
                             ids=["cnot", "zz", "identity"])
    def test_built_gate_frozen_in_place(self, build):
        # a gate the package builds is stored as (rows, phases), 48 KB at n = 10,
        # marked read-only and kept: the 16 MB matrix is never allocated
        tracemalloc.start()
        try:
            ch = QuantumChannel.from_unitary(build())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(ch.terms[0][1], Monomial)
        assert peak <= 256 * 2**10, peak

    def test_caller_arrays_still_copied(self):
        # a monomial array is stored as new (rows, phases), any other one as a copy
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
        for want in (np.eye(2, dtype=complex), hadamard):
            a = want.copy()
            u = UnitaryMatrix(a)
            a[0, 0] = -1.0
            stored = (u.data.rows, u.data.phases) if isinstance(u.data, Monomial) else (u.data,)
            assert np.array_equal(dense(u), want)
            assert not any(arr.flags.writeable for arr in stored)
            # a read-only view can still change through its writable base
            base = want.copy()
            view = base.view()
            view.setflags(write=False)
            u = UnitaryMatrix(view)
            base[0, 0] = -1.0
            assert np.array_equal(dense(u), want)

    def test_monomial_arrays_converted(self):
        # a permutation times a phase diagonal is stored once, as its rows and phases
        u = np.zeros((8, 8), dtype=complex)
        rows = np.array([3, 0, 6, 1, 7, 2, 5, 4])
        u[rows, np.arange(8)] = np.exp(1j * np.arange(8))
        op = UnitaryMatrix(u).data
        assert isinstance(op, Monomial)
        assert np.array_equal(op.rows, rows) and np.array_equal(op.phases, u[rows, np.arange(8)])
        assert np.array_equal(dense(op), u) and not dense(op).flags.writeable
        assert not isinstance(UnitaryMatrix(u + 1e-13 * u[:, ::-1]).data, Monomial)

    @pytest.mark.parametrize("rows", [[0, 1, 1, 3], [0, 1, 2, 4], [-1, 1, 2, 3]])
    def test_monomial_rows_must_permute(self, rows):
        with pytest.raises(ValueError, match="not a permutation"):
            Monomial(np.array(rows), np.ones(4))

    def test_monomial_shape_checked(self):
        with pytest.raises(DimensionError, match="one length"):
            Monomial(np.arange(4), np.ones(2))
        with pytest.raises(DimensionError, match="power of two"):
            Monomial(np.arange(3), np.ones(3))
        with pytest.raises(DimensionError, match="limit"):
            Monomial(np.arange(2**11), np.ones(2**11))

    def test_monomial_rows_must_be_integers(self):
        with pytest.raises(ValueError, match="integers"):
            Monomial(np.array([0.0, 1.5]), np.ones(2))

    def test_monomial_phase_deviation_refused(self):
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryMatrix(Monomial(np.arange(4), np.array([1.0, 1.0, 1.0, 1.0 + 1e-6])))


class TestQuantumChannel:
    def test_ensemble_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            QuantumChannel.unitary_ensemble([(0.5, I2), (0.4, SZ)])

    def test_ensemble_operators_must_be_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            QuantumChannel.unitary_ensemble([(1.0, np.diag([1.0, 2.0]))])

    def test_kraus_must_resolve_identity(self):
        with pytest.raises(ValueError, match="identity"):
            QuantumChannel.from_kraus([np.diag([0.5, 0.5])])

    def test_kraus_nan_entry_rejected(self):
        with pytest.raises(ValueError, match="identity"):
            QuantumChannel.from_kraus([np.array([[np.nan, 0.0], [0.0, 1.0]])])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            QuantumChannel.unitary_ensemble([(0.5, I2), (0.5, np.eye(4))])

    @pytest.mark.parametrize("w", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, w):
        with pytest.raises(ValueError, match="finite"):
            QuantumChannel.unitary_ensemble([(w, I2), (0.5, SZ)])

    def test_raw_non_unitary_array_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            QuantumChannel.from_unitary(np.diag([1.0, 2.0]))

    def test_unitary_matrix_not_checked_again(self, monkeypatch):
        u = UnitaryMatrix(SZ)

        def recheck(self):
            raise AssertionError("UnitaryMatrix rebuilt")

        monkeypatch.setattr(UnitaryMatrix, "__post_init__", recheck)
        ch = QuantumChannel.from_unitary(u)
        assert ch.terms[0][1] is u.data
        ens = QuantumChannel.unitary_ensemble([(0.5, u), (0.5, u)])
        assert all(op is u.data for _, op in ens.terms)

    def test_raw_operator_checked_once(self):
        # a raw permutation is read into (rows, phases); a frozen copy would add 16 MB
        p = np.array(dense(cnot_gate(1, 2, 10)))
        tracemalloc.start()
        try:
            QuantumChannel.from_unitary(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * p.nbytes, peak

    def test_monomial_kraus_operators(self):
        # sqrt(1/2) X and sqrt(1/2) Z as (rows, phases): A^dag A read from the phases
        half = np.sqrt(0.5)
        ops = [Monomial(np.array([1, 0]), np.full(2, half)),
               Monomial(np.arange(2), np.array([half, -half]))]
        ch = QuantumChannel.from_kraus(ops)
        assert all(op is given for (_, op), given in zip(ch.terms, ops))
        want = QuantumChannel.from_kraus([dense(op) for op in ops])
        assert run_campaign(ch, (1,)) == run_campaign(want, (1,))
        with pytest.raises(ValueError, match="identity"):
            QuantumChannel.from_kraus(ops[:1])

    def test_valid_kraus(self):
        k0 = np.diag([1.0, np.sqrt(0.5)]).astype(complex)
        k1 = np.array([[0, np.sqrt(0.5)], [0, 0]], dtype=complex)
        ch = QuantumChannel.from_kraus([k0, k1])
        assert ch.kind == "kraus"
        assert ch.n == 1


class TestPartialTrace:
    def test_product_state_recovers_factor(self, rng):
        rho_a = random_density(1, rng)
        rho_b = random_density(2, rng)
        reduced = partial_trace(np.kron(rho_a, rho_b), [1])
        assert np.max(np.abs(reduced - rho_a)) < 1e-12

    def test_bell_state_reduces_to_mixed(self):
        v = np.array([1, 0, 0, 1]) / np.sqrt(2)
        bell = np.outer(v, v.conj())
        for q in (1, 2):
            assert np.allclose(partial_trace(bell, [q]), I2 / 2)

    def test_against_bruteforce_oracle(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        reduced = partial_trace(rho, [2])
        expected = brute_force_partial_trace(rho, 2, (2,))
        assert np.allclose(reduced, expected)
        assert np.allclose(reduced, np.diag([0.5, 0.5]))

    def test_random_states_match_oracle(self, rng):
        for _ in range(5):
            rho = random_density(3, rng)
            for keep in [(1,), (2,), (3,), (1, 3), (3, 1), (2, 3)]:
                got = partial_trace(rho, keep)
                want = brute_force_partial_trace(rho, 3, keep)
                assert np.max(np.abs(got - want)) < 1e-12

    def test_trace_preserved(self, rng):
        rho = random_density(3, rng)
        assert abs(np.trace(partial_trace(rho, [2])) - 1.0) < 1e-12


class TestApplyChannel:
    def test_identity_channel(self, rng):
        rho = random_density(2, rng)
        out = apply_channel(QuantumChannel.identity(2), rho)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_bit_flip_mixing(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        ch = QuantumChannel.unitary_ensemble([(0.5, I2), (0.5, sx)])
        assert np.allclose(apply_channel(ch, KET0), I2 / 2)

    def test_diagonal_gate_fixes_basis_state(self):
        ch = QuantumChannel.from_unitary(zz_coupling(0.7, (1, 2), n=2))
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        out = apply_channel(ch, rho)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_channel(QuantumChannel.identity(2), I2 / 2)

    def test_random_kraus_channels_preserve_trace(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 4))
            ch = random_kraus_channel(n, 4, rng)
            out = check_density(apply_channel(ch, random_density(n, rng)))
            assert abs(np.trace(out).real - 1.0) < 1e-9


class TestProjectionProbability:
    def test_all_zeros_state(self):
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        assert projection(rho, [1, 2]) == pytest.approx(1.0)

    def test_uniform(self):
        assert projection(np.eye(4) / 4, [1, 2]) == pytest.approx(0.25)

    def test_separable_projector(self):
        assert projection(np.kron(I2 / 2, KET0), [2]) == pytest.approx(1.0)

    def test_linear_in_state(self, rng):
        for _ in range(5):
            a = random_density(2, rng)
            b = random_density(2, rng)
            lam = rng.random()
            direct = projection(lam * a + (1 - lam) * b, [1])
            parts = lam * projection(a, [1]) + (1 - lam) * projection(b, [1])
            assert direct == pytest.approx(parts, abs=1e-12)

    def test_invalid_subset(self):
        with pytest.raises(ValueError):
            projection(np.eye(4) / 4, [3])


class TestQubitLabels:
    @pytest.mark.parametrize("label", [1.5, 2.0, "1", None],
                             ids=["fraction", "integral-float", "text", "none"])
    def test_non_integer_label_refused(self, label):
        with pytest.raises(ValueError, match=f"qubit label {re.escape(repr(label))} is not"):
            _validate_subset((label,), 3)

    def test_integer_types_read_as_int(self):
        labels = _validate_subset((np.int64(2), 3), 3)
        assert labels == (2, 3)
        assert all(type(q) is int for q in labels)

    def test_labels_returned_in_ascending_order(self):
        # the one canonical form of a target: callers do not sort it again
        assert _validate_subset((3, np.int64(1), 2), 3) == (1, 2, 3)


class TestNumberRule:
    # a bool is refused as a number, as the integer rule refuses it as a count
    @pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "numpy-bool"])
    @pytest.mark.parametrize("make", [
        lambda v: ErrorBudget(v),
        lambda v: DecayEstimate((1,), v),
        lambda v: Delay(v),
        lambda v: Pulse((1,), "+x", v),
        lambda v: NmrHamiltonian(1, {1: v}, {}),
        lambda v: time_suspension_sequence(v),
        lambda v: SamplePlan(v),
        lambda v: SamplePlan(0.1, v),
    ], ids=["budget", "decay", "delay", "pulse", "shift", "sequence", "plan-delta",
            "plan-epsilon"])
    def test_bools_are_not_numbers(self, make, value):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(value))} is not a number$"):
            make(value)


class TestLocalKernel:
    def test_matches_dense_kron(self, rng):
        for n in range(1, 6):
            qubits = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)),
                                replace=False)
            ops = {int(q): random_unitary(2, rng) for q in qubits}
            factors = [ops.get(q, I2) for q in range(1, n + 1)]
            dense = np.eye(1)
            for factor in factors:
                dense = np.kron(dense, factor)
            batch = rng.normal(size=(2**n, 3)) + 1j * rng.normal(size=(2**n, 3))
            # the column axis is untouched, so it leads the result
            assert np.allclose(apply_local(factors, batch).reshape(3, 2**n).T, dense @ batch,
                               atol=1e-12)
            assert np.allclose(apply_local(factors, batch[:, 0]).reshape(-1),
                               dense @ batch[:, 0], atol=1e-12)

    @pytest.mark.parametrize("m, spec", [
        (1, "pa,az->zp"), (2, "pa,qb,abz->zpq"), (3, "pa,qb,rc,abcz->zpqr")])
    def test_non_square_factors(self, rng, m, spec):
        # 2K x 16 factors, the shape of a six-element pool's local superoperators
        mats = [rng.normal(size=(12, 16)) for _ in range(m)]
        arr = rng.normal(size=(16,) * m + (5,))
        expect = np.einsum(spec, *mats, arr)
        assert np.allclose(apply_local(mats, arr).reshape(expect.shape), expect, atol=1e-12)

    def test_fewer_factors_than_axes(self, rng):
        a, b = rng.normal(size=(6, 4)), rng.normal(size=(2, 3))
        arr = rng.normal(size=(4, 3, 5, 2)) + 1j * rng.normal(size=(4, 3, 5, 2))
        expect = np.einsum("pi,qj,ijkl->klpq", a, b, arr)
        assert np.allclose(apply_local([a, b], arr).reshape(5, 2, 6, 2), expect, atol=1e-12)

    def test_outcome_codes_bit_order(self):
        # basis index 0b011 on 3 qubits: qubit 1 reads 0, qubits 2 and 3 read 1
        assert outcome_codes(3, [1, 3])[0b011] == 0b01
        assert outcome_codes(3, [3, 1])[0b011] == 0b10
        assert list(outcome_codes(2, [1, 2])) == [0, 1, 2, 3]

    def test_checked_probability(self):
        assert checked_probability(-1e-12) == 0.0
        assert checked_probability(1.0 + 1e-12) == 1.0
        assert checked_probability(0.25) == 0.25
        for bad in (-1e-6, 1.0 + 1e-6, float("nan")):
            with pytest.raises(ValueError, match="outside"):
                checked_probability(bad)
