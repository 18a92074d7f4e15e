import itertools
import math

import numpy as np
import pytest

from twirlsim import (
    Delay,
    NmrHamiltonian,
    Pulse,
    PulseSequence,
    QuantumChannel,
    chi_diagonal,
    cnot_gate,
    collective_coefficients,
    compile_sequence,
    crotonic_preset,
    free_evolution,
    hamiltonian_diagonal,
    hamiltonian_matrix,
    max_weight_coefficient,
    time_suspension_sequence,
    zz_coupling,
)


def bit_pattern_eigenvalue(h: NmrHamiltonian, state: int) -> float:
    """Independent oracle: sum sign contributions straight from the bits."""
    signs = {q: 1.0 if ((state >> (h.n - q)) & 1) == 0 else -1.0
             for q in range(1, h.n + 1)}
    total = 0.0
    for q, f in h.shifts_hz.items():
        total += math.pi * f * signs[q]
    for (j, k), coupling in h.couplings_hz.items():
        total += (math.pi * coupling / 2.0) * signs[j] * signs[k]
    return total


def toggling_sign_sums(seq: PulseSequence, n: int) -> dict[tuple[int, ...], float]:
    """Independent refocusing oracle for a commuting z/zz Hamiltonian.

    Tracks the sign of each qubit's z term through the pi pulses and
    integrates it over the delays; a z (or zz) term refocuses exactly when
    its signed duration sums to zero. Only exact pi pulses flip signs, so
    this oracle only applies to sequences built from them.
    """
    sums: dict[tuple[int, ...], float] = {}
    for r in (1, 2):
        for qs in itertools.combinations(range(1, n + 1), r):
            sums[qs] = 0.0
    sign = {q: 1.0 for q in range(1, n + 1)}
    for ev in seq.events:
        if isinstance(ev, Delay):
            for qs in sums:
                prod = 1.0
                for q in qs:
                    prod *= sign[q]
                sums[qs] += prod * ev.tau
        else:
            assert abs(ev.angle - math.pi) < 1e-12, "oracle needs exact pi pulses"
            for q in ev.qubits:
                sign[q] = -sign[q]
    return sums


class TestHamiltonian:
    def test_zero_parameters_zero_matrix(self):
        h = NmrHamiltonian(2, {}, {})
        assert np.count_nonzero(hamiltonian_matrix(h)) == 0

    def test_single_qubit_unit_shift(self):
        h = NmrHamiltonian(1, {1: 1.0}, {})
        assert np.allclose(hamiltonian_matrix(h), np.diag([math.pi, -math.pi]))

    def test_crotonic_traceless_and_diagonal(self):
        h = crotonic_preset()
        mat = hamiltonian_matrix(h)
        assert np.count_nonzero(mat - np.diag(np.diag(mat))) == 0
        scale = np.max(np.abs(np.diag(mat)))
        assert abs(np.diag(mat).sum()) / scale < 1e-12

    def test_eigenvalues_match_bit_pattern_oracle(self):
        h = crotonic_preset()
        diag = hamiltonian_diagonal(h)
        for state in range(16):
            assert diag[state] == pytest.approx(bit_pattern_eigenvalue(h, state),
                                                rel=1e-12)

    def test_commutes_with_z_strings(self):
        # diagonal by construction, so it commutes with every z string
        h = crotonic_preset()
        mat = hamiltonian_matrix(h)
        zz = np.diag([1.0, -1.0, -1.0, 1.0])
        z14 = np.kron(np.kron(np.diag([1.0, -1.0]), np.eye(4)), np.diag([1.0, -1.0]))
        for other in (np.kron(zz, np.eye(4)), z14):
            assert np.max(np.abs(mat @ other - other @ mat)) < 1e-9

    def test_coupling_validation(self):
        with pytest.raises(ValueError, match="itself"):
            NmrHamiltonian(2, {}, {(1, 1): 5.0})
        with pytest.raises(ValueError, match="out of range"):
            NmrHamiltonian(2, {3: 1.0}, {})
        with pytest.raises(ValueError, match="out of range"):
            NmrHamiltonian(2, {}, {(1, 3): 5.0})

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "register.txt"
        path.write_text(
            "# comment line\n"
            "shift 1 6650.6\n"
            "shift 2 1695.8\n"
            "coupling 1 2 72.6\n")
        h = NmrHamiltonian.from_file(path)
        assert h.n == 2
        assert h.shifts_hz[1] == 6650.6
        assert h.couplings_hz[(1, 2)] == 72.6

    def test_file_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("frequency 1 2\n")
        with pytest.raises(ValueError, match="parse"):
            NmrHamiltonian.from_file(path)


class TestFreeEvolution:
    def test_short_delay_near_identity(self):
        u = free_evolution(crotonic_preset(), 1e-12)
        assert np.max(np.abs(u.data - np.eye(16))) < 1e-6

    def test_quarter_coupling_period_gives_zz_phase(self):
        coupling = 50.0
        h = NmrHamiltonian(2, {}, {(1, 2): coupling})
        u = free_evolution(h, 1.0 / (4.0 * coupling))
        expect = zz_coupling(math.pi / 8, (1, 2), n=2).data
        overlap = abs(np.trace(u.data.conj().T @ expect)) / 4
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_crotonic_propagator_unitary(self):
        u = free_evolution(crotonic_preset(), 1.525e-3)
        dev = np.linalg.norm(u.data.conj().T @ u.data - np.eye(16))
        assert dev < 1e-12

    def test_nonpositive_delay_rejected(self):
        with pytest.raises(ValueError):
            free_evolution(crotonic_preset(), 0.0)


class TestPulseSequence:
    def test_empty_sequence_compiles_to_identity(self):
        u = compile_sequence(PulseSequence(()), crotonic_preset())
        assert np.allclose(u.data, np.eye(16))

    def test_event_validation(self):
        with pytest.raises(ValueError):
            Delay(-1.0)
        with pytest.raises(ValueError):
            Pulse((), "+x", math.pi)
        with pytest.raises(ValueError):
            Pulse((1,), "z", math.pi)
        with pytest.raises(TypeError):
            PulseSequence(("delay",))

    def test_total_duration(self):
        seq = time_suspension_sequence(total_duration=8e-3)
        assert seq.total_duration == pytest.approx(8e-3)
        assert len(seq.events) == 16

    def test_sequence_file_round_trip(self, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text(
            "delay 0.001525\n"
            "pulse 3,4 +x 3.141592653589793\n"
            "delay 0.001525\n"
            "pulse 2 -x 3.141592653589793\n")
        seq = PulseSequence.from_file(path)
        assert len(seq.events) == 4
        assert seq.events[1] == Pulse((3, 4), "+x", math.pi)
        assert seq.events[3].axis == "-x"

    def test_sequence_file_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("wait 0.1\n")
        with pytest.raises(ValueError, match="parse"):
            PulseSequence.from_file(path)

    def test_pulse_order_matters(self):
        h = NmrHamiltonian(1, {1: 1000.0}, {})
        seq_a = PulseSequence((Delay(1e-4), Pulse((1,), "+x", math.pi / 2)))
        seq_b = PulseSequence((Pulse((1,), "+x", math.pi / 2), Delay(1e-4)))
        ua = compile_sequence(seq_a, h).data
        ub = compile_sequence(seq_b, h).data
        assert np.max(np.abs(ua - ub)) > 1e-3


class TestTimeSuspension:
    def test_sign_sums_vanish(self):
        seq = time_suspension_sequence()
        sums = toggling_sign_sums(seq, 4)
        for qs, total in sums.items():
            assert abs(total) < 1e-18, qs

    def test_ideal_sequence_is_identity_up_to_phase(self):
        u = compile_sequence(time_suspension_sequence(), crotonic_preset())
        assert abs(np.trace(u.data)) / 16 == pytest.approx(1.0, abs=1e-9)

    def test_ideal_refocusing_any_duration_any_couplings(self, rng):
        for _ in range(5):
            h = NmrHamiltonian(
                4,
                {q: float(rng.uniform(-9000, 9000)) for q in range(1, 5)},
                {pair: float(rng.uniform(0, 80))
                 for pair in itertools.combinations(range(1, 5), 2)},
            )
            seq = time_suspension_sequence(total_duration=float(rng.uniform(1e-3, 3e-2)))
            chi = chi_diagonal(QuantumChannel.from_unitary(compile_sequence(seq, h)))
            cc = collective_coefficients(chi)
            assert cc.total() < 1e-10

    def test_pulse_error_creates_low_weight_terms(self):
        h = crotonic_preset()
        previous = 0.0
        for eps in (0.02, 0.05, 0.1):
            seq = time_suspension_sequence(pulse_error=eps)
            chi = chi_diagonal(QuantumChannel.from_unitary(compile_sequence(seq, h)))
            cc = collective_coefficients(chi)
            low = cc.max_at_weight(1, 2)
            assert low > previous  # grows with the miscalibration
            previous = low

    def test_weight_hierarchy_under_pulse_error(self, rng):
        # three-plus-body terms stay an order below one/two-body ones
        h = crotonic_preset()
        for _ in range(6):
            eps = float(rng.uniform(0.01, 0.1))
            seq = time_suspension_sequence(pulse_error=eps)
            chi = chi_diagonal(QuantumChannel.from_unitary(compile_sequence(seq, h)))
            cc = collective_coefficients(chi)
            low = cc.max_at_weight(1, 2)
            high = max_weight_coefficient(chi, 2)
            assert high < 0.1 * low

    def test_coupling_delay_product_small(self):
        # the hierarchy regime: J tau stays well under a quarter turn
        seq = time_suspension_sequence()
        tau = seq.events[0].tau
        max_j = max(crotonic_preset().couplings_hz.values())
        assert max_j * tau / (math.pi / 2) < 0.14


class TestGateLibrary:
    def test_zz_zero_angle_is_identity(self):
        assert np.allclose(zz_coupling(0.0, (1, 2), n=2).data, np.eye(4))

    def test_zz_small_angle_pair_coefficient(self):
        chi = chi_diagonal(QuantumChannel.from_unitary(zz_coupling(0.1, (1, 2), n=4)))
        cc = collective_coefficients(chi)
        assert cc[(1, 2)] == pytest.approx(0.01, abs=5e-5)
        assert cc[(1, 2)] == pytest.approx(math.sin(0.1) ** 2, abs=1e-12)

    def test_zz_composition_exact(self):
        four_small = np.linalg.matrix_power(zz_coupling(0.1, (1, 2), n=4).data, 4)
        assert np.max(np.abs(four_small - zz_coupling(0.4, (1, 2), n=4).data)) < 1e-12

    def test_zz_requires_distinct_pair(self):
        with pytest.raises(ValueError):
            zz_coupling(0.1, (2, 2), n=4)

    def test_cnot_truth_table(self):
        u = cnot_gate(1, 2, n=2).data
        basis = np.eye(4)
        assert np.allclose(u @ basis[:, 0], basis[:, 0])  # |00> -> |00>
        assert np.allclose(u @ basis[:, 2], basis[:, 3])  # |10> -> |11>
        assert np.allclose(u @ basis[:, 3], basis[:, 2])  # |11> -> |10>

    def test_cnot_pauli_expansion(self):
        # 0.5 (II + ZI + IX - ZX)
        sz = np.diag([1.0, -1.0])
        sx = np.array([[0, 1], [1, 0]])
        expect = 0.5 * (np.eye(4) + np.kron(sz, np.eye(2)) + np.kron(np.eye(2), sx)
                        - np.kron(sz, sx))
        assert np.allclose(cnot_gate(1, 2, n=2).data, expect)

    def test_cnot_chi_quarters(self):
        chi = chi_diagonal(QuantumChannel.from_unitary(cnot_gate(1, 2, n=2)))
        for lab in ("II", "ZI", "IX", "ZX"):
            assert chi[lab] == pytest.approx(0.25, abs=1e-12)

    def test_cnot_squared_identity(self):
        u = cnot_gate(1, 2, n=4).data
        assert np.allclose(u @ u, np.eye(16))
        chi = chi_diagonal(QuantumChannel.from_unitary(u @ u))
        cc = collective_coefficients(chi)
        assert cc.total() < 1e-12

    def test_cnot_matches_loop_reference(self):
        for n in range(2, 6):
            for control, target in itertools.permutations(range(1, n + 1), 2):
                ref = np.zeros((2**n, 2**n))
                for x in range(2**n):
                    ref[x ^ (1 << (n - target)) if (x >> (n - control)) & 1 else x, x] = 1.0
                assert np.array_equal(cnot_gate(control, target, n).data, ref)

    def test_cnot_validation(self):
        with pytest.raises(ValueError):
            cnot_gate(1, 1, n=2)

    def test_embedded_gate_acts_on_named_qubits(self):
        u = cnot_gate(2, 4, n=4).data
        # |0100> flips qubit 4: -> |0101>
        state = np.zeros(16)
        state[0b0100] = 1.0
        out = u @ state
        assert out[0b0101] == pytest.approx(1.0)
