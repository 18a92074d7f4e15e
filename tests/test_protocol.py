import itertools
import math

import numpy as np
import pytest

from twirlsim import (
    DecayEstimate,
    ErrorBudget,
    QuantumChannel,
    SamplePlan,
    build_pool,
    chi_diagonal,
    cnot_gate,
    combine_pair,
    combine_subset,
    decay_error_bound,
    decays_from_twirled_state,
    experiment_counts,
    fidelity_decay_exact,
    fidelity_decay_from_chi,
    plan_from_count,
    plan_realizations,
    projection_probability,
    protocol_initial_state,
    run_sampled_campaign,
    run_sampled_protocol,
    sampled_coefficient_error,
    subset_coefficient_error,
    twirl_exact,
    zz_coupling,
)
from conftest import random_kraus_channel, random_unitary, random_unitary_ensemble


def cnot_channel(n=2):
    return QuantumChannel.from_unitary(cnot_gate(1, 2, n=n))


def zzz_channel(theta):
    signs = np.array([1.0, -1.0])
    z3 = np.kron(np.kron(signs, signs), signs)
    return QuantumChannel.from_unitary(np.diag(np.exp(-1j * theta * z3)))


class TestInitialState:
    def test_structure(self):
        rho = protocol_initial_state(3, [2])
        # qubit 2 pinned to |0>, the rest maximally mixed
        diag = np.diag(rho.data).real
        assert diag[0] == pytest.approx(0.25)
        assert projection_probability(rho, [2]) == pytest.approx(1.0)
        assert projection_probability(rho, [1]) == pytest.approx(0.5)

    def test_all_measured(self):
        rho = protocol_initial_state(2, [1, 2])
        assert rho.data[0, 0] == pytest.approx(1.0)


class TestFidelityDecayExact:
    def test_identity_channel(self):
        est = fidelity_decay_exact(QuantumChannel.identity(2), [1, 2])
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.std_error == 0.0
        assert est.realizations == 0

    def test_cnot_values(self):
        ch = cnot_channel()
        assert fidelity_decay_exact(ch, [1]).value == pytest.approx(1 / 3, abs=1e-12)
        assert fidelity_decay_exact(ch, [2]).value == pytest.approx(1 / 3, abs=1e-12)
        assert fidelity_decay_exact(ch, [1, 2]).value == pytest.approx(5 / 9, abs=1e-12)

    def test_zz_gate_closed_form(self):
        ch = QuantumChannel.from_unitary(zz_coupling(0.4, (1, 2), n=2))
        expect = (8 / 9) * math.sin(0.4) ** 2
        assert fidelity_decay_exact(ch, [1, 2]).value == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.1348, abs=5e-5)

    def test_subset_size_cap(self):
        with pytest.raises(ValueError, match="at most 3"):
            fidelity_decay_exact(QuantumChannel.identity(4), [1, 2, 3, 4])


class TestFidelityDecayFromChi:
    def test_identity_concentrated(self):
        chi = chi_diagonal(QuantumChannel.identity(2))
        assert fidelity_decay_from_chi(chi, {1: 1.0, 2: 1.0}, [1, 2]) == pytest.approx(
            0.0, abs=1e-12)

    def test_matches_exact_for_cnot(self):
        ch = cnot_channel()
        chi = chi_diagonal(ch)
        for subset in ([1], [2], [1, 2]):
            want = fidelity_decay_exact(ch, subset).value
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
                want = fidelity_decay_exact(ch, subset).value
                got = fidelity_decay_from_chi(chi, {q: 1.0 for q in subset}, subset)
                assert abs(want - got) < 1e-9
        ch = random_kraus_channel(2, 4, rng)
        chi = chi_diagonal(ch)
        for subset in ([1], [2], [1, 2]):
            want = fidelity_decay_exact(ch, subset).value
            got = fidelity_decay_from_chi(chi, {q: 1.0 for q in subset}, subset)
            assert abs(want - got) < 1e-9

    def test_decay_within_unit_interval(self, rng):
        for _ in range(5):
            ch = random_kraus_channel(2, 3, rng)
            for subset in ([1], [1, 2]):
                v = fidelity_decay_exact(ch, subset).value
                assert -1e-9 <= v <= 1.0 + 1e-9

    def test_linear_in_mixing_weight(self, rng):
        u = random_unitary(4, rng)
        eye = np.eye(4, dtype=complex)
        vals = []
        for p in (0.1, 0.2, 0.4):
            ch = QuantumChannel.unitary_ensemble([(1 - p, eye), (p, u)])
            vals.append(fidelity_decay_exact(ch, [1, 2]).value)
        assert vals[1] == pytest.approx(2 * vals[0], abs=1e-9)
        assert vals[2] == pytest.approx(4 * vals[0], abs=1e-9)


class TestJointReadout:
    def test_marginals_match_dedicated_twirls(self, rng):
        # one twirl of the pair determines the single-qubit decays too
        for ch in (cnot_channel(), random_unitary_ensemble(2, 3, rng)):
            rho0 = protocol_initial_state(2, [1, 2])
            rho1 = twirl_exact(ch, [1, 2], rho0, build_pool())
            joint = decays_from_twirled_state(rho1, [1, 2])
            for subset in ((1,), (2,), (1, 2)):
                dedicated = fidelity_decay_exact(ch, subset).value
                assert joint[subset] == pytest.approx(dedicated, abs=1e-9)


class TestCombination:
    def test_pair_cnot(self):
        ch = cnot_channel()
        got = combine_pair(fidelity_decay_exact(ch, [1]),
                           fidelity_decay_exact(ch, [2]),
                           fidelity_decay_exact(ch, [1, 2]))
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_pair_zz_gate(self):
        ch = QuantumChannel.from_unitary(zz_coupling(0.4, (1, 2), n=2))
        got = combine_pair(fidelity_decay_exact(ch, [1]),
                           fidelity_decay_exact(ch, [2]),
                           fidelity_decay_exact(ch, [1, 2]))
        assert got == pytest.approx(math.sin(0.4) ** 2, abs=1e-12)
        assert got == pytest.approx(0.15, abs=2e-3)

    def test_pair_identity(self):
        assert combine_pair(0.0, 0.0, 0.0) == 0.0

    def test_subset_matches_pair(self):
        ch = cnot_channel()
        decays = {s: fidelity_decay_exact(ch, s)
                  for s in ((1,), (2,), (1, 2))}
        assert combine_subset(decays) == pytest.approx(
            combine_pair(decays[(1,)], decays[(2,)], decays[(1, 2)]), abs=1e-12)

    def test_triple_recovers_three_body_weight(self):
        # brute-force route: all seven decays of the zzz phase channel
        theta = 0.3
        ch = zzz_channel(theta)
        decays = {}
        for r in (1, 2, 3):
            for sub in itertools.combinations((1, 2, 3), r):
                decays[sub] = fidelity_decay_exact(ch, sub)
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
                decays[sub] = fidelity_decay_exact(ch, sub)
        assert combine_subset(decays) == pytest.approx(0.0, abs=1e-9)

    def test_missing_subset_rejected(self):
        with pytest.raises(ValueError, match="missing decay"):
            combine_subset({(1,): 0.1, (1, 2): 0.2})


class TestSamplePlanning:
    def test_chernoff_dominated(self):
        plan = plan_realizations(0.01, 0.05)
        assert plan.realizations == 18445
        assert plan.dominant_bound == "chernoff"

    def test_clt_dominated(self):
        plan = plan_realizations(0.3, 0.5)
        assert plan.realizations == 12
        assert plan.dominant_bound == "clt"
        assert math.ceil(math.log(4) / (2 * 0.3**2)) == 8

    def test_bounds_coincide(self):
        # requirement flips exactly where log(2/eps) = 2
        eps = 2 * math.exp(-2)
        plan = plan_realizations(2 * math.exp(-2), eps)
        chernoff = math.ceil(math.log(2 / eps) / (2 * (2 * math.exp(-2)) ** 2))
        clt = math.ceil(1 / (2 * math.exp(-2)) ** 2)
        assert chernoff == clt == plan.realizations
        assert plan.dominant_bound == "tie"

    @pytest.mark.parametrize("delta,eps", [(0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.5),
                                           (1e-6, 0.1)])
    def test_domain_errors(self, delta, eps):
        with pytest.raises(ValueError):
            plan_realizations(delta, eps)

    def test_plan_from_count(self):
        plan = plan_from_count(40000)
        assert plan.realizations == 40000
        assert plan.delta == pytest.approx(1 / 200)
        with pytest.raises(ValueError):
            plan_from_count(0)

    def test_sample_plan_invariant(self):
        with pytest.raises(ValueError, match="below"):
            SamplePlan(delta=0.01, epsilon=0.05, realizations=100)


class TestDecayEstimateInvariants:
    def test_exact_mode_zero_error(self):
        with pytest.raises(ValueError, match="zero standard error"):
            DecayEstimate((1,), 0.5, std_error=0.01, realizations=0)

    def test_sampled_error_bound(self):
        DecayEstimate((1,), 0.5, std_error=0.005, realizations=10000)
        with pytest.raises(ValueError, match="bound"):
            DecayEstimate((1,), 0.5, std_error=0.02, realizations=10000)


class TestSampledProtocol:
    def test_identity_channel_exactly_zero(self):
        est = run_sampled_protocol(QuantumChannel.identity(2), [1, 2],
                                   plan_from_count(1000), seed=5)
        assert est.value == 0.0
        assert est.std_error == 0.0
        assert est.realizations == 1000

    def test_cnot_within_clt_envelope(self):
        plan = plan_from_count(40000)
        est = run_sampled_protocol(cnot_channel(), [1, 2], plan, seed=11)
        assert abs(est.value - 5 / 9) <= 3 / math.sqrt(plan.realizations)
        assert est.std_error <= 1 / math.sqrt(plan.realizations)

    def test_zz_gate_within_clt_envelope(self):
        plan = plan_from_count(40000)
        ch = QuantumChannel.from_unitary(zz_coupling(0.1, (1, 2), n=2))
        est = run_sampled_protocol(ch, [1, 2], plan, seed=11)
        expect = (8 / 9) * math.sin(0.1) ** 2
        assert abs(est.value - expect) <= 3 / math.sqrt(plan.realizations)

    def test_seeded_determinism(self):
        plan = plan_from_count(2000)
        a = run_sampled_protocol(cnot_channel(), [1, 2], plan, seed=123)
        b = run_sampled_protocol(cnot_channel(), [1, 2], plan, seed=123)
        c = run_sampled_protocol(cnot_channel(), [1, 2], plan, seed=124)
        assert a == b
        assert a != c

    def test_campaign_covers_all_subsets(self):
        camp = run_sampled_campaign(cnot_channel(), [1, 2], plan_from_count(2000), seed=9)
        assert set(camp) == {(1,), (2,), (1, 2)}
        # the protocol entry point is the full-subset row of the campaign
        est = run_sampled_protocol(cnot_channel(), [1, 2], plan_from_count(2000), seed=9)
        assert est == camp[(1, 2)]

    def test_campaign_marginals_near_exact(self):
        camp = run_sampled_campaign(cnot_channel(), [1, 2], plan_from_count(40000), seed=21)
        assert abs(camp[(1,)].value - 1 / 3) <= 3 / 200
        assert abs(camp[(2,)].value - 1 / 3) <= 3 / 200

    def test_complement_qubits_randomized(self):
        # 4-qubit register, measure the pair: spectators are flipped per shot
        ch = QuantumChannel.from_unitary(cnot_gate(1, 2, n=4))
        camp = run_sampled_campaign(ch, [1, 2], plan_from_count(20000), seed=3)
        assert abs(camp[(1, 2)].value - 5 / 9) <= 3 / math.sqrt(20000)

    def test_convergence_over_seeds(self):
        plan = plan_from_count(5000)
        bound = 3 / math.sqrt(plan.realizations)
        hits = sum(
            abs(run_sampled_protocol(cnot_channel(), [1, 2], plan, seed=s).value - 5 / 9) <= bound
            for s in range(20))
        assert hits >= 19

    def test_cyclic_assignments(self):
        plan = plan_from_count(3600)  # multiple of the 36-assignment pool
        est = run_sampled_protocol(cnot_channel(), [1, 2], plan, seed=2,
                                   assignment_order="cyclic")
        # cycling covers the pool uniformly, so only shot noise remains
        assert abs(est.value - 5 / 9) <= 3 / math.sqrt(plan.realizations)

    def test_per_shot_ensemble_mode(self, rng):
        ch = random_unitary_ensemble(2, 3, rng)
        exact = fidelity_decay_exact(ch, [1, 2]).value
        plan = plan_from_count(40000)
        est = run_sampled_protocol(ch, [1, 2], plan, seed=17,
                                   channel_sampling="per-shot-ensemble")
        assert abs(est.value - exact) <= 4 / math.sqrt(plan.realizations)

    def test_per_shot_requires_ensemble(self, rng):
        ch = random_kraus_channel(2, 3, rng)
        with pytest.raises(ValueError, match="unitary-ensemble"):
            run_sampled_protocol(ch, [1, 2], plan_from_count(100), seed=0,
                                 channel_sampling="per-shot-ensemble")

    def test_invalid_options(self):
        plan = plan_from_count(100)
        with pytest.raises(ValueError, match="assignment order"):
            run_sampled_protocol(cnot_channel(), [1, 2], plan, seed=0,
                                 assignment_order="alphabetical")
        with pytest.raises(ValueError, match="seed"):
            run_sampled_protocol(cnot_channel(), [1, 2], plan, seed=-1)


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

    def test_sampled_error_binomial_in_all_ones_fraction(self):
        # eta = (3/2)^m q for the shared shots; q = 0.112 of N = 2000 here
        got = sampled_coefficient_error(0.252, 2, 2000)
        assert got == pytest.approx(2.25 * math.sqrt(0.112 * 0.888 / 2000), rel=1e-12)
        assert sampled_coefficient_error(0.0, 3, 2000) == 0.0
        # q is clamped to [0, 1]: sampling noise can push eta past either end
        assert sampled_coefficient_error(-0.01, 2, 100) == 0.0
        assert sampled_coefficient_error(2.3, 2, 100) == 0.0

    def test_subset_error_requires_full_cover(self):
        with pytest.raises(ValueError, match="cover"):
            subset_coefficient_error([0.1, 0.1])
        with pytest.raises(ValueError, match="negative"):
            subset_coefficient_error([-0.1, 0.1, 0.1])


class TestDerivedSeeds:
    def test_stable_and_distinct(self):
        from twirlsim import derive_seed

        assert derive_seed(7, 0) == derive_seed(7, 0)
        assert derive_seed(7, 0) != derive_seed(7, 1)
        assert derive_seed(7, 0) != derive_seed(8, 0)


class TestExperimentCounts:
    def test_pair_count(self):
        assert experiment_counts(4, 2, 1).protocol == 6

    def test_single_full_set(self):
        assert experiment_counts(4, 4, 1).protocol == 1

    def test_tomography_comparison(self):
        counts = experiment_counts(4, 2, 18445)
        assert counts.protocol == 110670
        assert counts.process_tomography == 18445 * 2**16

    def test_large_register_exact_integers(self):
        counts = experiment_counts(50, 2, 10)
        assert counts.protocol == 10 * 50 * 49 // 2
        assert counts.process_tomography == 10 * 2**200

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            experiment_counts(4, 0, 1)
        with pytest.raises(ValueError):
            experiment_counts(4, 5, 1)
