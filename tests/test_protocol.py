import itertools
import math
import re

import numpy as np
import pytest

from twirlsim import (
    DecayEstimate,
    ErrorBudget,
    QuantumChannel,
    SamplePlan,
    chi_diagonal,
    cnot_gate,
    combine_subset,
    decay_error_bound,
    fidelity_decay_from_chi,
    parse_pool,
    run_campaign,
    subset_coefficient_error,
    zz_coupling,
)
from conftest import (
    dedicated_decays,
    exact_decay,
    random_kraus_channel,
    random_unitary,
    random_unitary_ensemble,
)
from reference import decay_by_labels, initial_state, projection, twirl


def cnot_channel(n=2):
    return QuantumChannel.from_unitary(cnot_gate(1, 2, n=n))


def sampled_decay(channel, subset, plan, **options):
    """Sampled decay of ``subset``: the full-subset entry of its campaign."""
    qs = tuple(sorted(subset))
    return run_campaign(channel, qs, plan, **options)[qs]


def zzz_channel(theta):
    signs = np.array([1.0, -1.0])
    z3 = np.kron(np.kron(signs, signs), signs)
    return QuantumChannel.from_unitary(np.diag(np.exp(-1j * theta * z3)))


class TestInitialState:
    def test_structure(self):
        rho = initial_state(3, [2])
        # qubit 2 pinned to |0>, the rest maximally mixed
        diag = np.diag(rho).real
        assert diag[0] == pytest.approx(0.25)
        assert projection(rho, [2]) == pytest.approx(1.0)
        assert projection(rho, [1]) == pytest.approx(0.5)

    def test_all_measured(self):
        rho = initial_state(2, [1, 2])
        assert rho[0, 0] == pytest.approx(1.0)


class TestFidelityDecayExact:
    def test_non_integer_label_rejected(self):
        with pytest.raises(ValueError, match="qubit label 1.7 is not an integer"):
            run_campaign(cnot_channel(), [1.7])

    def test_identity_channel(self):
        est = exact_decay(QuantumChannel.identity(2), [1, 2])
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.std_error == 0.0
        assert est.realizations == 0

    def test_cnot_values(self):
        ch = cnot_channel()
        assert exact_decay(ch, [1]).value == pytest.approx(1 / 3, abs=1e-12)
        assert exact_decay(ch, [2]).value == pytest.approx(1 / 3, abs=1e-12)
        assert exact_decay(ch, [1, 2]).value == pytest.approx(5 / 9, abs=1e-12)

    def test_zz_gate_closed_form(self):
        ch = QuantumChannel.from_unitary(zz_coupling(0.4, (1, 2), n=2))
        expect = (8 / 9) * math.sin(0.4) ** 2
        assert exact_decay(ch, [1, 2]).value == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.1348, abs=5e-5)

    def test_subset_size_cap(self):
        with pytest.raises(ValueError, match="at most 3"):
            exact_decay(QuantumChannel.identity(4), [1, 2, 3, 4])


class TestFidelityDecayFromChi:
    def test_identity_concentrated(self):
        chi = chi_diagonal(QuantumChannel.identity(2))
        assert fidelity_decay_from_chi(chi, {1: 1.0, 2: 1.0}, [1, 2]) == pytest.approx(
            0.0, abs=1e-12)

    def test_matches_exact_for_cnot(self):
        ch = cnot_channel()
        chi = chi_diagonal(ch)
        for subset in ([1], [2], [1, 2]):
            want = exact_decay(ch, subset).value
            got = fidelity_decay_from_chi(chi, {q: 1.0 for q in subset}, subset)
            assert got == pytest.approx(want, abs=1e-12)

    def test_mixed_measured_qubit_reads_nothing(self):
        chi = chi_diagonal(cnot_channel())
        assert fidelity_decay_from_chi(chi, {1: 0.5}, [1]) == pytest.approx(0.0, abs=1e-12)

    def test_purity_out_of_range(self):
        chi = chi_diagonal(QuantumChannel.identity(1))
        with pytest.raises(ValueError, match="purity"):
            fidelity_decay_from_chi(chi, {1: 0.4}, [1])
        with pytest.raises(ValueError, match="missing purity"):
            fidelity_decay_from_chi(chi, {}, [1])

    def test_oracle_equivalence_random_channels(self, rng):
        # the twirl simulation and the chi algebra must agree on every subset
        for _ in range(4):
            ch = random_unitary_ensemble(2, 4, rng)
            chi = chi_diagonal(ch)
            for subset in ([1], [2], [1, 2]):
                want = exact_decay(ch, subset).value
                got = fidelity_decay_from_chi(chi, {q: 1.0 for q in subset}, subset)
                assert abs(want - got) < 1e-9
        ch = random_kraus_channel(2, 4, rng)
        chi = chi_diagonal(ch)
        for subset in ([1], [2], [1, 2]):
            want = exact_decay(ch, subset).value
            got = fidelity_decay_from_chi(chi, {q: 1.0 for q in subset}, subset)
            assert abs(want - got) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_label_loop(self, n, rng):
        # the sum runs in another order: allow one rounding per string
        for make in (random_kraus_channel, random_unitary_ensemble):
            chi = chi_diagonal(make(n, 3, rng))
            for r in range(1, min(n, 3) + 1):
                for subset in itertools.combinations(range(1, n + 1), r):
                    purities = {q: float(rng.uniform(0.5, 1.0)) for q in subset}
                    want = decay_by_labels(chi, purities, subset)
                    got = fidelity_decay_from_chi(chi, purities, subset)
                    assert abs(got - want) <= 4**n * np.finfo(float).eps

    def test_decay_within_unit_interval(self, rng):
        for _ in range(5):
            ch = random_kraus_channel(2, 3, rng)
            for subset in ([1], [1, 2]):
                v = exact_decay(ch, subset).value
                assert -1e-9 <= v <= 1.0 + 1e-9

    def test_linear_in_mixing_weight(self, rng):
        u = random_unitary(4, rng)
        eye = np.eye(4, dtype=complex)
        vals = []
        for p in (0.1, 0.2, 0.4):
            ch = QuantumChannel.unitary_ensemble([(1 - p, eye), (p, u)])
            vals.append(exact_decay(ch, [1, 2]).value)
        assert vals[1] == pytest.approx(2 * vals[0], abs=1e-9)
        assert vals[2] == pytest.approx(4 * vals[0], abs=1e-9)


class TestJointReadout:
    def test_marginals_match_dedicated_twirls(self, rng):
        # one twirl of the pair determines the single-qubit decays too
        for ch in (cnot_channel(), random_unitary_ensemble(2, 3, rng)):
            rho1 = twirl(ch, [1, 2], initial_state(2, [1, 2]), parse_pool())
            for subset in ((1,), (2,), (1, 2)):
                dedicated = exact_decay(ch, subset).value
                assert 1.0 - projection(rho1, subset) == pytest.approx(dedicated, abs=1e-9)


class TestCombination:
    def test_pair_cnot(self):
        ch = cnot_channel()
        got = combine_subset(dedicated_decays(ch, [(1,), (2,), (1, 2)]))
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_pair_zz_gate(self):
        ch = QuantumChannel.from_unitary(zz_coupling(0.4, (1, 2), n=2))
        got = combine_subset(dedicated_decays(ch, [(1,), (2,), (1, 2)]))
        assert got == pytest.approx(math.sin(0.4) ** 2, abs=1e-12)
        assert got == pytest.approx(0.15, abs=2e-3)

    def test_pair_identity(self):
        assert combine_subset({(1,): 0.0, (2,): 0.0, (1, 2): 0.0}) == 0.0

    def test_subset_matches_pair(self):
        ch = cnot_channel()
        g = {s: est.value for s, est in dedicated_decays(ch, [(1,), (2,), (1, 2)]).items()}
        # the pair case written out: 9/4 (g_1 + g_2 - g_12)
        assert combine_subset(g) == pytest.approx(
            2.25 * (g[(1,)] + g[(2,)] - g[(1, 2)]), abs=1e-12)

    def test_triple_recovers_three_body_weight(self):
        # brute-force route: all seven decays of the zzz phase channel
        theta = 0.3
        ch = zzz_channel(theta)
        decays = {}
        for r in (1, 2, 3):
            for sub in itertools.combinations((1, 2, 3), r):
                decays[sub] = exact_decay(ch, sub)
        got = combine_subset(decays)
        assert got == pytest.approx(math.sin(theta) ** 2, abs=1e-9)
        assert got == pytest.approx(0.0873, abs=5e-5)

    def test_triple_cancels_low_weight_channel(self, rng):
        # terms touching at most two qubits leave no three-qubit coefficient
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        one_body = np.kron(np.kron(
            math.cos(0.37) * np.eye(2) - 1j * math.sin(0.37) * sx,
            np.eye(2)), np.eye(2))
        signs = np.array([1.0, -1.0])
        zz12 = np.diag(np.exp(-1j * 0.23 * np.kron(np.kron(signs, signs), np.ones(2))))
        ch = QuantumChannel.unitary_ensemble(
            [(0.5, np.eye(8)), (0.3, one_body), (0.2, zz12)])
        decays = {}
        for r in (1, 2, 3):
            for sub in itertools.combinations((1, 2, 3), r):
                decays[sub] = exact_decay(ch, sub)
        assert combine_subset(decays) == pytest.approx(0.0, abs=1e-9)

    def test_missing_subset_rejected(self):
        with pytest.raises(ValueError, match="missing decay"):
            combine_subset({(1,): 0.1, (1, 2): 0.2})

    @pytest.mark.parametrize("stray", [(3,), (3, 4), (2, 3)],
                             ids=["other-qubit", "tying-pair", "overlapping-pair"])
    def test_decay_outside_target_rejected(self, stray):
        decays = {(1,): 0.1, (2,): 0.1, (1, 2): 0.2, stray: 0.9}
        with pytest.raises(ValueError, match=rf"decay for {re.escape(str(stray))} is not a part"):
            combine_subset(decays)

    def test_no_decays_rejected(self):
        with pytest.raises(ValueError, match="at least one decay"):
            combine_subset({})

    def test_subset_given_twice_rejected(self):
        # (2, 1) sorts to (1, 2): neither value may silently win
        decays = {(1,): 0.1, (2,): 0.1, (1, 2): 0.2, (2, 1): 0.5}
        with pytest.raises(ValueError, match=re.escape("subset (1, 2) is given twice")):
            combine_subset(decays)

    @pytest.mark.parametrize("decays, message", [
        ({(): 0.3, (1,): 0.1}, "qubit subset must be nonempty"),
        ({(1, 1): 0.2, (1,): 0.1}, re.escape("duplicate qubit labels in (1, 1)")),
        ({(0,): 0.1}, "qubit label 0 out of range 1..10"),
        ({(11,): 0.1}, "qubit label 11 out of range 1..10"),
        ({(1,): float("nan")}, "nan is not finite"),
        ({(1,): float("inf")}, "inf is not finite"),
    ], ids=["empty", "repeated-qubit", "zero", "eleven", "nan", "inf"])
    def test_refuses_bad_subset_or_number(self, decays, message):
        # each entry passes DecayEstimate's subset and number rules
        with pytest.raises(ValueError, match=message):
            combine_subset(decays)

    def test_non_integer_label_rejected(self):
        with pytest.raises(ValueError, match="qubit label 1.5 is not an integer"):
            combine_subset({(1.5,): 0.1})


class TestSamplePlanning:
    def test_chernoff_dominated(self):
        plan = SamplePlan(0.01, 0.05)
        assert plan.realizations == 18445
        assert plan.realizations > 1 / 0.01**2  # the central-limit count

    def test_clt_dominated(self):
        plan = SamplePlan(0.3, 0.5)
        assert plan.realizations == 12
        assert math.ceil(math.log(4) / (2 * 0.3**2)) == 8

    def test_bounds_coincide(self):
        # requirement flips exactly where log(2/eps) = 2
        eps = 2 * math.exp(-2)
        plan = SamplePlan(2 * math.exp(-2), eps)
        chernoff = math.ceil(math.log(2 / eps) / (2 * (2 * math.exp(-2)) ** 2))
        clt = math.ceil(1 / (2 * math.exp(-2)) ** 2)
        assert chernoff == clt == plan.realizations

    @pytest.mark.parametrize("delta,eps", [(0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.5),
                                           (1e-6, 0.1)])
    def test_domain_errors(self, delta, eps):
        with pytest.raises(ValueError):
            SamplePlan(delta, eps)

    @pytest.mark.parametrize("delta", [1e-160, 1e-300], ids=["overflowing", "underflowing"])
    def test_unrepresentable_counts_are_value_errors(self, delta):
        with pytest.raises(ValueError, match="too many realizations"):
            SamplePlan(delta, 0.5)
        with pytest.raises(ValueError, match="too many realizations"):
            SamplePlan(delta, 0.5, 100)

    def test_floor_beyond_limit_names_the_limit(self):
        with pytest.raises(ValueError) as info:
            SamplePlan(1e-150, 0.5)
        message = str(info.value)
        assert len(message) < 120
        assert message == ("delta 1e-150 and epsilon 0.5 need more than the limit of "
                           "10000000 realizations")

    def test_count_alone(self):
        plan = SamplePlan(realizations=40000)
        assert plan.realizations == 40000
        assert plan.delta == pytest.approx(1 / 200)
        assert plan.epsilon == 2 * math.exp(-2)
        # N = 1 would imply delta = 1, outside (0, 1): the count is refused by name
        for count in (1, 0, -5):
            with pytest.raises(ValueError,
                               match=f"^realization count must be at least 2, got {count}$"):
                SamplePlan(realizations=count)
        assert SamplePlan(realizations=2).delta == 1 / math.sqrt(2)
        # a float, text or bool count is refused before any plan is built
        for count in (100.0, "5", True):
            with pytest.raises(ValueError, match=f"realization count {count!r} is not an integer"):
                SamplePlan(realizations=count)
            with pytest.raises(ValueError, match=f"realization count {count!r} is not an integer"):
                SamplePlan(0.1, 0.5, count)
        assert type(SamplePlan(0.1, 0.5, np.int64(100)).realizations) is int

    def test_sample_plan_invariant(self):
        with pytest.raises(ValueError, match="below"):
            SamplePlan(delta=0.01, epsilon=0.05, realizations=100)

    def test_sample_plan_enforces_clt_floor(self):
        # eps = 0.5 needs 56 shots by Chernoff, but 100 by the central-limit count
        with pytest.raises(ValueError, match="floor of 100"):
            SamplePlan(0.1, 0.5, 80)
        assert SamplePlan(0.1, 0.5, 100).realizations == 100

    def test_numeric_text_kept_as_float(self):
        plan = SamplePlan(0.1, "0.05", 10000)
        assert plan == SamplePlan(0.1, 0.05, 10000) and type(plan.epsilon) is float
        plan = SamplePlan("0.1", 0.05)
        assert plan == SamplePlan(0.1, 0.05) and type(plan.delta) is float

    @pytest.mark.parametrize("make, message", [
        (lambda: SamplePlan(0.1, [0.5], 100), re.escape("[0.5] is not a number")),
        (lambda: SamplePlan("abc", 0.5, 100), "could not convert string to float: 'abc'"),
        (lambda: SamplePlan("nan", 0.5), "'nan' is not finite"),
    ], ids=["list-epsilon", "text-delta", "nan-text-delta"])
    def test_non_numbers_refused(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("given, expect", [
        ((None, 0.5, 100), "epsilon needs delta"),
        ((0.1, None), (0.1, 2 * math.exp(-2), 100)),
        ((None, None, 400), (1 / 20, 2 * math.exp(-2), 400)),
        ((), "a plan needs delta or realizations"),
    ], ids=["epsilon-without-delta", "delta-without-epsilon", "count-without-delta", "nothing"])
    def test_none_is_an_omitted_input(self, given, expect):
        # None leaves a field to the plan rule: epsilon defaults to 2 e^-2 and
        # delta to 1/sqrt(N); epsilon alone, or nothing, names no precision
        if isinstance(expect, str):
            with pytest.raises(ValueError, match=f"^{expect}$"):
                SamplePlan(*given)
        else:
            plan = SamplePlan(*given)
            assert (plan.delta, plan.epsilon, plan.realizations) == expect

    def test_count_alone_accepts_every_count(self):
        # a count always meets its own precision 1/sqrt(N), up to the 10^7 cap
        rng = np.random.default_rng(8)
        counts = np.unique(np.concatenate([
            np.arange(2, 2000), rng.integers(2, 10**7 + 1, 20000),
            np.rint(np.geomspace(2, 10**7, 20000)).astype(np.int64),
            [3138376, 3174027, 10**7]]))
        for count in counts.tolist():
            assert SamplePlan(realizations=count).realizations == count
        with pytest.raises(ValueError, match="limit"):
            SamplePlan(realizations=10**7 + 1)


class TestDecayEstimateInvariants:
    def test_exact_mode_zero_error(self):
        with pytest.raises(ValueError, match="zero standard error"):
            DecayEstimate((1,), 0.5, std_error=0.01, realizations=0)

    @pytest.mark.parametrize("args, message", [
        (((), 0.2), "qubit subset must be nonempty"),
        (((1, 1), 0.2), re.escape("duplicate qubit labels in (1, 1)")),
        (((0,), 0.2), "qubit label 0 out of range 1..10"),
        (((11,), 0.2), "qubit label 11 out of range 1..10"),
        (((1,), float("nan")), "nan is not finite"),
        (((1,), float("-inf")), "-inf is not finite"),
        (((1,), 0.5, float("nan"), 10), "nan is not finite"),
        (((1,), 0.5, float("inf"), 10), "inf is not finite"),
        (((1,), 0.5, -0.1, 10), re.escape("standard error -0.1 lies outside the bound")),
        (((1,), 0.5, 0.1, 2.5), "realization count 2.5 is not an integer"),
        (((1,), 0.5, 0.1, True), "realization count True is not an integer"),
        (((1,), 0.5, 0.0, 0.0), "realization count 0.0 is not an integer"),
        (((1,), 0.5, 0.1, float("nan")), "realization count nan is not an integer"),
        (((1,), 0.5, 0.1, "10"), "realization count '10' is not an integer"),
    ], ids=["empty", "repeated-qubit", "zero", "eleven", "nan-value", "inf-value",
            "nan-std-error", "inf-std-error", "negative-std-error", "fractional-count",
            "bool-count", "float-zero-count", "nan-count", "text-count"])
    def test_refuses_bad_subset_or_number(self, args, message):
        with pytest.raises(ValueError, match=message):
            DecayEstimate(*args)

    def test_non_integer_label_rejected(self):
        with pytest.raises(ValueError, match="qubit label 2.9 is not an integer"):
            DecayEstimate((2.9,), 0.1)

    def test_integer_count_kept_as_int(self):
        est = DecayEstimate((1,), 0.5, 0.01, np.int64(10000))
        assert est.realizations == 10000 and type(est.realizations) is int

    def test_numeric_text_kept_as_float(self):
        est = DecayEstimate((1,), "0.1", "0.01", 100)
        assert est == DecayEstimate((1,), 0.1, 0.01, 100)
        assert type(est.value) is float and type(est.std_error) is float

    def test_sampled_error_bound(self):
        DecayEstimate((1,), 0.5, std_error=0.005, realizations=10000)
        with pytest.raises(ValueError, match="bound"):
            DecayEstimate((1,), 0.5, std_error=0.02, realizations=10000)


class TestSampledProtocol:
    def test_identity_channel_exactly_zero(self):
        est = sampled_decay(QuantumChannel.identity(2), [1, 2],
                                   SamplePlan(realizations=1000), seed=5)
        assert est.value == 0.0
        assert est.std_error == 0.0
        assert est.realizations == 1000

    def test_cnot_within_clt_envelope(self):
        plan = SamplePlan(realizations=40000)
        est = sampled_decay(cnot_channel(), [1, 2], plan, seed=11)
        assert abs(est.value - 5 / 9) <= 3 / math.sqrt(plan.realizations)
        assert est.std_error <= 1 / math.sqrt(plan.realizations)

    def test_zz_gate_within_clt_envelope(self):
        plan = SamplePlan(realizations=40000)
        ch = QuantumChannel.from_unitary(zz_coupling(0.1, (1, 2), n=2))
        est = sampled_decay(ch, [1, 2], plan, seed=11)
        expect = (8 / 9) * math.sin(0.1) ** 2
        assert abs(est.value - expect) <= 3 / math.sqrt(plan.realizations)

    def test_seeded_determinism(self):
        plan = SamplePlan(realizations=2000)
        a = sampled_decay(cnot_channel(), [1, 2], plan, seed=123)
        b = sampled_decay(cnot_channel(), [1, 2], plan, seed=123)
        c = sampled_decay(cnot_channel(), [1, 2], plan, seed=124)
        assert a == b
        assert a != c

    def test_campaign_covers_all_subsets(self):
        camp = run_campaign(cnot_channel(), [1, 2], SamplePlan(realizations=2000), seed=9)
        assert set(camp) == {(1,), (2,), (1, 2)}

    def test_campaign_marginals_near_exact(self):
        camp = run_campaign(cnot_channel(), [1, 2], SamplePlan(realizations=40000), seed=21)
        assert abs(camp[(1,)].value - 1 / 3) <= 3 / 200
        assert abs(camp[(2,)].value - 1 / 3) <= 3 / 200

    def test_complement_qubits_randomized(self):
        # 4-qubit register, measure the pair: spectators are flipped per shot
        ch = QuantumChannel.from_unitary(cnot_gate(1, 2, n=4))
        camp = run_campaign(ch, [1, 2], SamplePlan(realizations=20000), seed=3)
        assert abs(camp[(1, 2)].value - 5 / 9) <= 3 / math.sqrt(20000)

    def test_convergence_over_seeds(self):
        plan = SamplePlan(realizations=5000)
        bound = 3 / math.sqrt(plan.realizations)
        hits = sum(
            abs(sampled_decay(cnot_channel(), [1, 2], plan, seed=s).value - 5 / 9) <= bound
            for s in range(20))
        assert hits >= 19

    def test_cyclic_assignments(self):
        plan = SamplePlan(realizations=3600)  # multiple of the 36-assignment pool
        est = sampled_decay(cnot_channel(), [1, 2], plan, seed=2,
                                   assignment_order="cyclic")
        # cycling covers the pool uniformly, so only shot noise remains
        assert abs(est.value - 5 / 9) <= 3 / math.sqrt(plan.realizations)

    def test_invalid_options(self):
        plan = SamplePlan(realizations=100)
        with pytest.raises(ValueError, match="assignment order"):
            sampled_decay(cnot_channel(), [1, 2], plan, seed=0,
                                 assignment_order="alphabetical")
        with pytest.raises(ValueError, match="seed"):
            sampled_decay(cnot_channel(), [1, 2], plan, seed=-1)
        # the Philox key is an integer, not a bool or a number that rounds to one
        for seed in (True, 1.5, 2.0, "3"):
            with pytest.raises(ValueError, match=r"seed .* is not an integer"):
                sampled_decay(cnot_channel(), [1, 2], plan, seed=seed)


class TestErrorPropagation:
    def test_zero_budget(self):
        assert decay_error_bound(ErrorBudget(0.0, 0.0), 0.7) == 0.0

    def test_both_terms(self):
        got = decay_error_bound(ErrorBudget(0.01, 0.01), 0.25)
        assert got == pytest.approx(math.sqrt(0.0001 * 2 + 0.0001), abs=1e-12)
        assert got == pytest.approx(0.01732, abs=5e-6)

    def test_single_term(self):
        assert decay_error_bound(ErrorBudget(0.02, 0.0), 0.0) == pytest.approx(0.02)

    def test_decay_range_checked(self):
        with pytest.raises(ValueError):
            decay_error_bound(ErrorBudget(0.01, 0.01), 1.5)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ErrorBudget(-0.1, 0.0)
        with pytest.raises(ValueError):
            ErrorBudget(0.0, float("inf"))

    def test_pair_error_zero(self):
        assert subset_coefficient_error((0.0, 0.0, 0.0)) == 0.0

    def test_pair_error_equal_inputs(self):
        got = subset_coefficient_error((0.02, 0.02, 0.02))
        assert got == pytest.approx(2.25 * 0.02 * math.sqrt(3), abs=1e-12)
        assert got == pytest.approx(0.0779, abs=5e-5)

    def test_pair_error_composed_with_decay_bound(self):
        sigma = 0.0173
        got = subset_coefficient_error((sigma, sigma, sigma))
        assert got == pytest.approx(0.0674, abs=5e-5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_error_helpers_refuse_non_finite_input(self, value):
        with pytest.raises(ValueError, match="is not finite"):
            subset_coefficient_error([value])
        with pytest.raises(ValueError, match="is not finite"):
            subset_coefficient_error([0.1, value, 0.1])

    def test_subset_error_requires_full_cover(self):
        with pytest.raises(ValueError, match="cover"):
            subset_coefficient_error([0.1, 0.1])
        with pytest.raises(ValueError, match="negative"):
            subset_coefficient_error([-0.1, 0.1, 0.1])

    @pytest.mark.parametrize("call, message", [
        (lambda: subset_coefficient_error([]), "0 errors do not cover the subsets of any set"),
    ], ids=["no-errors"])
    def test_error_helpers_refuse_unusable_input(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("call, expect", [
        (lambda: zz_coupling("0.3", (1, 2), 2).data.phases,
         lambda: zz_coupling(0.3, (1, 2), 2).data.phases),
        (lambda: zz_coupling(math.inf), "inf is not finite"),
        (lambda: zz_coupling(True), "True is not a number"),
        (lambda: decay_error_bound(ErrorBudget(0.1), "0.5"),
         lambda: decay_error_bound(ErrorBudget(0.1), 0.5)),
        (lambda: decay_error_bound(ErrorBudget(0.1), None), "None is not a number"),
        (lambda: fidelity_decay_from_chi(chi_diagonal(cnot_channel()), {1: "1.0"}, (1,)),
         lambda: fidelity_decay_from_chi(chi_diagonal(cnot_channel()), {1: 1.0}, (1,))),
        (lambda: fidelity_decay_from_chi(chi_diagonal(cnot_channel()), {1: "nan"}, (1,)),
         "'nan' is not finite"),
    ], ids=["zz-text-beta", "zz-infinite-beta", "zz-bool-beta", "bound-text-decay",
            "bound-none-decay", "chi-text-purity", "chi-nan-purity"])
    def test_public_functions_read_numbers_by_the_rule(self, call, expect):
        # numeric text reads as its float, bit for bit; anything else is a ValueError
        if isinstance(expect, str):
            with pytest.raises(ValueError, match=re.escape(expect)):
                call()
        else:
            assert np.array_equal(call(), expect())

    def test_budget_keeps_numbers(self):
        budget = ErrorBudget("0.1")
        assert budget == ErrorBudget(0.1, 0.0) and type(budget.preparation) is float
        for bad in (None, "abc", [0.1], float("nan")):
            with pytest.raises(ValueError):
                ErrorBudget(0.0, bad)


class TestDerivedSeeds:
    def test_stable_and_distinct(self):
        from twirlsim import derive_seed

        assert derive_seed(7, 0) == derive_seed(7, 0)
        assert derive_seed(7, 0) != derive_seed(7, 1)
        assert derive_seed(7, 0) != derive_seed(8, 0)
