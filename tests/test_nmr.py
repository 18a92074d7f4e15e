import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from twirlsim import (
    Delay,
    NmrHamiltonian,
    Pulse,
    QuantumChannel,
    chi_diagonal,
    cnot_gate,
    collective_coefficients,
    compile_sequence,
    crotonic_preset,
    hamiltonian_diagonal,
    max_weight_coefficient,
    time_suspension_sequence,
    zz_coupling,
)
from twirlsim.nmr import PULSE_AXES
from twirlsim.states import dense
from reference import compile_by_factors


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


def toggling_sign_sums(events, n: int) -> dict[tuple[int, ...], float]:
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
    for ev in events:
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


def assert_same_bits(a, b) -> None:
    """``a`` and ``b`` hold the same float bits, zero signs included."""
    fa, fb = (np.ascontiguousarray(dense(u)).view(np.float64) for u in (a, b))
    assert np.array_equal(fa, fb)
    assert np.array_equal(np.signbit(fa), np.signbit(fb))


def random_register_and_events(n: int, rng: np.random.Generator):
    """A register with random offsets and couplings, and 1-11 events that mix
    delays with pulses on random qubit subsets, about every axis, by pi, pi/2
    or a random angle."""
    h = NmrHamiltonian(
        n,
        {q: float(rng.uniform(-9000, 9000)) for q in range(1, n + 1)},
        {pair: float(rng.uniform(0, 80))
         for pair in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.7},
    )
    events = []
    for _ in range(int(rng.integers(1, 12))):
        if rng.random() < 0.4:
            events.append(Delay(float(rng.uniform(1e-5, 2e-3))))
            continue
        qubits = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)), replace=False)
        angle = (math.pi, math.pi / 2, float(rng.uniform(-2 * math.pi, 2 * math.pi)))[
            int(rng.integers(3))]
        events.append(Pulse(tuple(int(q) for q in qubits), PULSE_AXES[int(rng.integers(4))],
                            angle))
    return h, tuple(events)


def delay_propagator(h: NmrHamiltonian, tau: float) -> np.ndarray:
    """Propagator of one delay of ``tau`` seconds under ``h``."""
    return dense(compile_sequence((Delay(tau),), h))


class TestHamiltonian:
    def test_zero_parameters_zero_matrix(self):
        h = NmrHamiltonian(2, {}, {})
        assert np.count_nonzero(hamiltonian_diagonal(h)) == 0

    def test_single_qubit_unit_shift(self):
        h = NmrHamiltonian(1, {1: 1.0}, {})
        assert np.allclose(hamiltonian_diagonal(h), [math.pi, -math.pi])

    def test_crotonic_traceless(self):
        diag = hamiltonian_diagonal(crotonic_preset())
        assert abs(diag.sum()) / np.max(np.abs(diag)) < 1e-12

    def test_eigenvalues_match_bit_pattern_oracle(self):
        h = crotonic_preset()
        diag = hamiltonian_diagonal(h)
        for state in range(16):
            assert diag[state] == pytest.approx(bit_pattern_eigenvalue(h, state),
                                                rel=1e-12)

    def test_coupling_validation(self):
        with pytest.raises(ValueError, match="duplicate qubit"):
            NmrHamiltonian(2, {}, {(1, 1): 5.0})
        with pytest.raises(ValueError, match="out of range"):
            NmrHamiltonian(2, {3: 1.0}, {})
        with pytest.raises(ValueError, match="out of range"):
            NmrHamiltonian(2, {}, {(1, 3): 5.0})

    def test_reversed_coupling_conflict(self):
        with pytest.raises(ValueError, match=re.escape("conflicting values for coupling (1, 2)")):
            NmrHamiltonian(2, {}, {(1, 2): 5.0, (2, 1): 7.0})
        assert NmrHamiltonian(2, {}, {(1, 2): 5.0, (2, 1): 5.0}).couplings_hz == {(1, 2): 5.0}

    @pytest.mark.parametrize("shifts, couplings", [
        ({1: math.inf}, {}),
        ({}, {(1, 2): math.nan}),
        ({2: -math.inf}, {}),
    ], ids=["shift-inf", "coupling-nan", "shift-minus-inf"])
    def test_refuses_non_finite(self, shifts, couplings):
        with pytest.raises(ValueError, match="is not finite"):
            NmrHamiltonian(2, shifts, couplings)

    def test_register_size_in_range(self):
        with pytest.raises(ValueError, match=re.escape("register size 11 out of range 1..10")):
            NmrHamiltonian(11, {1: 5.0}, {})

    @pytest.mark.parametrize("make", [
        lambda: NmrHamiltonian(2, {"1": 5.0}, {}),
        lambda: NmrHamiltonian(2, {}, {(1.0, 2): 5.0}),
        lambda: Pulse((1.5,), "+x", math.pi),
    ], ids=["text-shift", "float-coupling", "float-pulse"])
    def test_refuses_non_integer_label(self, make):
        with pytest.raises(ValueError, match="is not an integer"):
            make()


class TestFreeEvolution:
    def test_short_delay_near_identity(self):
        u = delay_propagator(crotonic_preset(), 1e-12)
        assert np.max(np.abs(u - np.eye(16))) < 1e-6

    def test_quarter_coupling_period_gives_zz_phase(self):
        coupling = 50.0
        h = NmrHamiltonian(2, {}, {(1, 2): coupling})
        u = delay_propagator(h, 1.0 / (4.0 * coupling))
        expect = dense(zz_coupling(math.pi / 8, (1, 2), n=2))
        overlap = abs(np.trace(u.conj().T @ expect)) / 4
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_crotonic_propagator_unitary(self):
        u = delay_propagator(crotonic_preset(), 1.525e-3)
        dev = np.linalg.norm(u.conj().T @ u - np.eye(16))
        assert dev < 1e-12

    def test_nonpositive_delay_rejected(self):
        with pytest.raises(ValueError):
            delay_propagator(crotonic_preset(), 0.0)


class TestPulseSequence:
    def test_empty_sequence_compiles_to_identity(self):
        u = compile_sequence((), crotonic_preset())
        assert np.allclose(dense(u), np.eye(16))

    def test_event_validation(self):
        with pytest.raises(ValueError):
            Delay(-1.0)
        with pytest.raises(ValueError, match="delay must be positive"):
            Delay(0.0)
        with pytest.raises(ValueError):
            Pulse((), "+x", math.pi)
        with pytest.raises(ValueError):
            Pulse((1,), "z", math.pi)
        with pytest.raises(TypeError, match="sequence events must be Delay or Pulse"):
            compile_sequence(("delay",), crotonic_preset())
        with pytest.raises(TypeError, match="sequence events must be Delay or Pulse"):
            compile_sequence(iter((Delay(1e-3), "delay")), crotonic_preset())

    def test_pulse_outside_register_refused(self):
        with pytest.raises(ValueError, match=re.escape("qubit label 3 out of range 1..2")):
            compile_sequence((Pulse((3,), "+x", math.pi),), NmrHamiltonian(2, {}, {}))

    @pytest.mark.parametrize("make, text, number", [
        (lambda v: (Delay(v),), "1e-3", 1e-3),
        (lambda v: (Pulse((1,), "+x", v),), "3.14", 3.14),
        (lambda v: time_suspension_sequence(pulse_error=v), "0.05", 0.05),
        (lambda v: time_suspension_sequence(total_duration=v), "0.01", 0.01),
    ], ids=["delay", "pulse", "pulse-error", "total-duration"])
    def test_numeric_text_reads_as_its_float(self, make, text, number):
        events = make(text)
        assert events == make(number)
        for ev in events:
            assert type(ev.tau if isinstance(ev, Delay) else ev.angle) is float
        h = crotonic_preset()
        assert_same_bits(compile_sequence(events, h), compile_sequence(make(number), h))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_compiler_keeps_reference_bits(self, n):
        # each pulse rotates only its own qubits; the reference multiplies
        # identities into the rest, and the float bits must not differ
        rng = np.random.default_rng(20261019 + n)
        for _ in range(100):
            h, events = random_register_and_events(n, rng)
            assert_same_bits(compile_sequence(events, h), compile_by_factors(events, h))

    @pytest.mark.parametrize("eps", [0.0, 0.02, 0.05, 0.1])
    def test_ie_sequence_keeps_reference_bits(self, eps):
        events, h = time_suspension_sequence(pulse_error=eps), crotonic_preset()
        assert_same_bits(compile_sequence(events, h), compile_by_factors(events, h))

    def test_total_duration(self):
        events = time_suspension_sequence(total_duration=8e-3)
        delays = [ev.tau for ev in events if isinstance(ev, Delay)]
        assert len(events) == 16 and len(delays) == 8
        assert sum(delays) == pytest.approx(8e-3)

    @pytest.mark.parametrize("qubits", [(0,), (11,)], ids=["zero", "beyond-max-qubits"])
    def test_pulse_refuses_label_out_of_range(self, qubits):
        with pytest.raises(ValueError, match="out of range 1..10"):
            Pulse(qubits, "+x", 1.0)

    @pytest.mark.parametrize("make", [
        lambda: Delay(math.inf),
        lambda: Delay(math.nan),
        lambda: Pulse((1,), "+x", math.nan),
        lambda: Pulse((1,), "+x", math.inf),
    ], ids=["delay-inf", "delay-nan", "pulse-nan", "pulse-inf"])
    def test_event_refuses_non_finite(self, make):
        with pytest.raises(ValueError, match="is not finite"):
            make()

    def test_pulse_order_matters(self):
        h = NmrHamiltonian(1, {1: 1000.0}, {})
        ua = dense(compile_sequence((Delay(1e-4), Pulse((1,), "+x", math.pi / 2)), h))
        ub = dense(compile_sequence((Pulse((1,), "+x", math.pi / 2), Delay(1e-4)), h))
        assert np.max(np.abs(ua - ub)) > 1e-3


class TestTimeSuspension:
    def test_sign_sums_vanish(self):
        seq = time_suspension_sequence()
        sums = toggling_sign_sums(seq, 4)
        for qs, total in sums.items():
            assert abs(total) < 1e-18, qs

    def test_ideal_sequence_is_identity_up_to_phase(self):
        u = compile_sequence(time_suspension_sequence(), crotonic_preset())
        assert abs(np.trace(dense(u))) / 16 == pytest.approx(1.0, abs=1e-9)

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
            assert sum(cc.values.values()) < 1e-10

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
        tau = seq[0].tau
        max_j = max(crotonic_preset().couplings_hz.values())
        assert max_j * tau / (math.pi / 2) < 0.14


class TestGateLibrary:
    def test_zz_zero_angle_is_identity(self):
        assert np.allclose(dense(zz_coupling(0.0, (1, 2), n=2)), np.eye(4))

    def test_zz_small_angle_pair_coefficient(self):
        chi = chi_diagonal(QuantumChannel.from_unitary(zz_coupling(0.1, (1, 2), n=4)))
        cc = collective_coefficients(chi)
        assert cc[(1, 2)] == pytest.approx(0.01, abs=5e-5)
        assert cc[(1, 2)] == pytest.approx(math.sin(0.1) ** 2, abs=1e-12)

    def test_zz_composition_exact(self):
        four_small = np.linalg.matrix_power(dense(zz_coupling(0.1, (1, 2), n=4)), 4)
        assert np.max(np.abs(four_small - dense(zz_coupling(0.4, (1, 2), n=4)))) < 1e-12

    def test_zz_requires_distinct_pair(self):
        with pytest.raises(ValueError):
            zz_coupling(0.1, (2, 2), n=4)

    def test_cnot_truth_table(self):
        u = dense(cnot_gate(1, 2, n=2))
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
        assert np.allclose(dense(cnot_gate(1, 2, n=2)), expect)

    def test_cnot_chi_quarters(self):
        chi = chi_diagonal(QuantumChannel.from_unitary(cnot_gate(1, 2, n=2)))
        for lab in ("II", "ZI", "IX", "ZX"):
            assert chi[lab] == pytest.approx(0.25, abs=1e-12)

    def test_cnot_squared_identity(self):
        u = dense(cnot_gate(1, 2, n=4))
        assert np.allclose(u @ u, np.eye(16))
        chi = chi_diagonal(QuantumChannel.from_unitary(u @ u))
        cc = collective_coefficients(chi)
        assert sum(cc.values.values()) < 1e-12

    def test_cnot_matches_loop_reference(self):
        for n in range(2, 6):
            for control, target in itertools.permutations(range(1, n + 1), 2):
                ref = np.zeros((2**n, 2**n))
                for x in range(2**n):
                    ref[x ^ (1 << (n - target)) if (x >> (n - control)) & 1 else x, x] = 1.0
                assert np.array_equal(dense(cnot_gate(control, target, n)), ref)

    def test_cnot_validation(self):
        with pytest.raises(ValueError):
            cnot_gate(1, 1, n=2)

    def test_cnot_refuses_register_size_before_allocating(self):
        # the 2^11 x 2^11 matrix would take 64 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape("register size 11 out of range 1..10")):
                cnot_gate(1, 2, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_embedded_gate_acts_on_named_qubits(self):
        u = dense(cnot_gate(2, 4, n=4))
        # |0100> flips qubit 4: -> |0101>
        state = np.zeros(16)
        state[0b0100] = 1.0
        out = u @ state
        assert out[0b0101] == pytest.approx(1.0)
