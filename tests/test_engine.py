"""The decay engine against its references, closed forms and recorded pins.

The exact engine must agree with the chi-diagonal prediction and with the
dense density-matrix twirl of ``reference`` for every part of a target. ``PINNED`` holds sampled-campaign results (decay value, standard
error) for the assignment orders and channel-sampling modes the golden files
do not cover. They were recorded before the engine moved to outcome tables,
and every engine since must reproduce each one bit for bit. A monomial
operator, stored as (rows, phases), must give the same decays bit for bit
as the same operator stored as a dense array.
"""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from twirlsim import (
    QuantumChannel,
    build_pool,
    chi_diagonal,
    cnot_gate,
    compile_sequence,
    crotonic_preset,
    fidelity_decay_from_chi,
    parse_pool,
    plan_from_count,
    run_exact_campaign,
    run_sampled_campaign,
    time_suspension_sequence,
)
from twirlsim import protocol
from twirlsim.cli import ExperimentConfig, run_experiment
from twirlsim.states import Monomial, dense
from conftest import random_kraus_channel, random_unitary, random_unitary_ensemble
from reference import TEN_POOLS, initial_state, projection, twirl


def channel_on_leading_qubits(kind: str, k: int, n: int, rng) -> QuantumChannel:
    """A random channel on qubits 1..k, the identity on qubits k+1..n."""
    if kind == "kraus":
        inner = random_kraus_channel(k, 3, rng)
    else:
        inner = random_unitary_ensemble(k, 3, rng)
    pad = np.eye(2 ** (n - k))
    return QuantumChannel(tuple((w, np.kron(dense(op), pad)) for w, op in inner.terms), inner.kind)


@pytest.mark.parametrize("kind", ["kraus", "unitary-ensemble"])
@pytest.mark.parametrize("index", range(len(TEN_POOLS)), ids=lambda i: TEN_POOLS[i].label)
def test_exact_engine_matches_density_matrix_twirl(index, kind):
    # every part is checked against the chi diagonal; the density-matrix
    # twirl is summed over K^m dense products, so the triples of the 12-
    # and 24-element pools (1728 and 13824 assignments) skip it
    pool = TEN_POOLS[index]
    rng = np.random.default_rng([index, len(kind)])
    for m in (1, 2, 3):
        n = m + 1
        # the channel leaves qubit n alone; the target always measures it
        channel = channel_on_leading_qubits(kind, n - 1, n, rng)
        others = rng.choice(np.arange(1, n), size=m - 1, replace=False)
        target = tuple(sorted(int(q) for q in others)) + (n,)
        got = run_exact_campaign(channel, target, pool)
        chi = chi_diagonal(channel)
        assert len(got) == 2**m - 1
        for sub, est in got.items():
            want = fidelity_decay_from_chi(chi, dict.fromkeys(sub, 1.0), sub)
            assert abs(est.value - want) <= 1e-12, (sub, est.value, want)
            if m < 3 or pool.size == 6:
                rho = twirl(channel, sub, initial_state(n, sub), pool)
                want = 1.0 - projection(rho, sub)
                assert abs(est.value - want) <= 1e-12, (sub, est.value, want)
            assert est.std_error == 0.0 and est.realizations == 0
        assert got[(n,)].value == 0.0


@pytest.mark.parametrize("target", [(1, 2, 3), (2, 3, 4)], ids=["1-2-3", "2-3-4"])
def test_exact_closed_forms_at_ten_qubits(target):
    # c12(beta): decay 0 off the pair, 2/3 sin^2 beta with one pair qubit
    # measured, 8/9 sin^2 beta with both; no three-body coefficient
    beta = 0.7
    config = ExperimentConfig(gate=f"c12({beta})", n=10, subsets=(target,))
    (result,) = run_experiment(config).results
    s2 = math.sin(beta) ** 2
    for sub, est in result.decays.items():
        hits = len({1, 2} & set(sub))
        if hits:
            assert abs(est.value - (0.0, 2 / 3 * s2, 8 / 9 * s2)[hits]) <= 1e-12, sub
        else:
            assert est.value == 0.0, sub
    assert abs(result.eta_col) <= 1e-12


def test_sampled_memory_stays_per_block():
    # a sampled full-24 triple at n = 8 has 13824 assignments and 32
    # complement states; tables for all of them at once would take 28 MB,
    # one state's table and its reordered copy take 1.8 MB. The budget is
    # 3 MiB, three times the 1 MiB dense CNOT matrix of an 8-qubit register
    channel = QuantumChannel.from_unitary(cnot_gate(1, 2, 8))
    pool = build_pool("full-24")
    run_sampled_campaign(channel, (1, 2, 3), plan_from_count(50), pool, seed=1)
    tracemalloc.start()
    try:
        run_sampled_campaign(channel, (1, 2, 3), plan_from_count(2000), pool, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20, peak


def crotonic_channel(*pulse_errors: float) -> QuantumChannel:
    """The time-suspension gate on the crotonic register, an equal mixture over
    the given pulse errors."""
    ops = [compile_sequence(time_suspension_sequence(pulse_error=e), crotonic_preset())
           for e in pulse_errors]
    return QuantumChannel.unitary_ensemble([(1 / len(ops), op) for op in ops])


@pytest.mark.parametrize("sampling, arrays", [("exact", 4.2), ("per-shot-ensemble", 5.1)])
def test_sampled_peak_in_shot_arrays(sampling, arrays):
    # the bound that MAX_REALIZATIONS is set by: the traced peak of a campaign
    # is a few N-long 8-byte arrays, whatever the register and the block count
    channel = crotonic_channel(0.05, 0.02)
    N = 10**6
    run_sampled_campaign(channel, (1, 2), plan_from_count(1000), seed=1,
                         channel_sampling=sampling)
    tracemalloc.start()
    try:
        run_sampled_campaign(channel, (1, 2), plan_from_count(N), seed=1,
                             channel_sampling=sampling)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * N, peak / (8 * N)


@pytest.mark.parametrize("case", ["cnot-n7-pair", "full24-n8-triple-cyclic",
                                  "ensemble-n5-per-shot"])
def test_sampled_estimates_independent_of_blocks(case, monkeypatch):
    # one flip per block, the default blocks and one block for every drawn flip
    # must draw every shot from the same table row
    rng = np.random.default_rng(15)
    if case == "cnot-n7-pair":
        args = (QuantumChannel.from_unitary(cnot_gate(1, 2, 7)), (1, 2), plan_from_count(3000))
        options = {"seed": 4}
    elif case == "full24-n8-triple-cyclic":
        args = (QuantumChannel.from_unitary(cnot_gate(1, 2, 8)), (1, 2, 3),
                plan_from_count(3000), build_pool("full-24"))
        options = {"seed": 5, "assignment_order": "cyclic"}
    else:
        channel = QuantumChannel.unitary_ensemble(
            [(0.7, random_unitary(32, rng)), (0.3, random_monomial(5, rng))])
        args = (channel, (2, 4), plan_from_count(3000))
        options = {"seed": 6, "channel_sampling": "per-shot-ensemble"}
    want = bits(run_sampled_campaign(*args, **options))
    for block in (1, 2**30):
        monkeypatch.setattr(protocol, "SAMPLED_BLOCK", block)
        assert bits(run_sampled_campaign(*args, **options)) == want, block


def test_sampled_shots_neither_hashed_nor_sorted(monkeypatch):
    # the shot pass counts and indexes the N draws; np.unique or a sort over
    # them costs more than the whole physics of a small register
    N = 20000
    config = ExperimentConfig(gate="ie-sequence", n=4, mode="sampled", realizations=N,
                              subsets=((1, 2), (1, 2, 3)), ie_pulse_error=0.05, seed=9)

    def refuse(*args, **kwargs):
        raise AssertionError("the shot pass hashed its draws")

    def small(fn):
        def wrapped(a, *args, **kwargs):
            assert np.size(a) < N, "the shot pass sorted its draws"
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np, "unique", refuse)
    monkeypatch.setattr(np, "sort", small(np.sort))
    monkeypatch.setattr(np, "argsort", small(np.argsort))
    run_experiment(config)


def test_sampled_ten_qubit_cnot_never_densified():
    # the CNOT is stored as (rows, phases) and read through its compact factor;
    # writing it out as a matrix anywhere on the way would trace 16 MB
    config = ExperimentConfig(gate="cnot", n=10, subsets=((1, 2),), mode="sampled",
                              realizations=4000)
    run_experiment(config)
    tracemalloc.start()
    try:
        run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def random_monomial(n: int, rng) -> Monomial:
    """A random permutation of 2^n basis states with random unit phases."""
    return Monomial(rng.permutation(2**n), np.exp(2j * np.pi * rng.random(2**n)))


def dense_twin(channel: QuantumChannel) -> QuantumChannel:
    """``channel`` with every operator stored as a dense array, so that the engine
    reads each term through its dense factor. Built past the constructor, which
    would store a monomial unitary as a ``Monomial`` again."""
    twin = copy.copy(channel)
    object.__setattr__(twin, "terms", tuple((w, dense(op)) for w, op in channel.terms))
    return twin


def bits(decays) -> dict:
    return {s: (e.value.hex(), e.std_error.hex(), e.realizations) for s, e in decays.items()}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_monomial_terms_match_dense_storage(n):
    # the compact factor of a monomial term must give the dense factor's decays
    # bit for bit, in both modes, alone or mixed with a generic unitary
    rng = np.random.default_rng([n, 14])
    pool = build_pool()
    for m in (1, 2, 3):
        target = tuple(sorted(int(q) for q in rng.choice(np.arange(1, n + 1), m, replace=False)))
        single = QuantumChannel.from_unitary(random_monomial(n, rng))
        assert isinstance(single.terms[0][1], Monomial)
        kraus = QuantumChannel.from_kraus([dense(single.terms[0][1])])
        mixed = QuantumChannel.unitary_ensemble([
            (0.5, random_monomial(n, rng)), (0.3, random_monomial(n, rng)),
            (0.2, random_unitary(2**n, rng))])
        for channel, twins in ((single, (kraus, dense_twin(single))),
                               (mixed, (dense_twin(mixed),))):
            plan = plan_from_count(400)
            want = [bits(run_exact_campaign(channel, target, pool)),
                    bits(run_sampled_campaign(channel, target, plan, pool, seed=n))]
            if channel.kind == "unitary-ensemble" and len(channel.terms) > 1:
                want.append(bits(run_sampled_campaign(
                    channel, target, plan, pool, seed=n, channel_sampling="per-shot-ensemble")))
            for twin in twins:
                got = [bits(run_exact_campaign(twin, target, pool)),
                       bits(run_sampled_campaign(twin, target, plan, pool, seed=n))]
                if len(want) == 3:
                    got.append(bits(run_sampled_campaign(
                        twin, target, plan, pool, seed=n, channel_sampling="per-shot-ensemble")))
                assert got == want, (n, target, twin.kind)


def pinned_channel() -> QuantumChannel:
    """A generic three-qubit unitary mixed with CNOT(1, 2)."""
    rng = np.random.default_rng(7)
    return QuantumChannel.unitary_ensemble(
        [(0.6, random_unitary(8, rng)), (0.4, cnot_gate(1, 2, 3).data)])


PINNED = {
    ("S1:I:X", "random", "per-shot-ensemble", (2,)): {
        (2,): (0.44999999999999996, 0.022248595461286987),
    },
    ("S1:I:X", "random", "per-shot-ensemble", (1, 3)): {
        (1,): (0.44599999999999995, 0.022229889788300795),
        (3,): (0.29200000000000004, 0.0203340109176719),
        (1, 3): (0.5760000000000001, 0.02210085971178497),
    },
    ("S1:I:X", "random", "per-shot-ensemble", (1, 2, 3)): {
        (1,): (0.402, 0.021926969694875762),
        (2,): (0.44999999999999996, 0.022248595461286987),
        (3,): (0.30200000000000005, 0.02053270561811083),
        (1, 2): (0.6659999999999999, 0.02109236828807993),
        (1, 3): (0.5700000000000001, 0.022140460699813815),
        (2, 3): (0.5700000000000001, 0.022140460699813815),
        (1, 2, 3): (0.738, 0.01966499427917537),
    },
    ("S1:I:X", "cyclic", "exact", (2,)): {
        (2,): (0.43200000000000005, 0.022152923057691506),
    },
    ("S1:I:X", "cyclic", "exact", (1, 3)): {
        (1,): (0.41000000000000003, 0.02199545407578575),
        (3,): (0.272, 0.019900552756142227),
        (1, 3): (0.5640000000000001, 0.02217674457624473),
    },
    ("S1:I:X", "cyclic", "exact", (1, 2, 3)): {
        (1,): (0.44399999999999995, 0.022219990999098087),
        (2,): (0.41800000000000004, 0.02205792374635473),
        (3,): (0.258, 0.019567115270269147),
        (1, 2): (0.6679999999999999, 0.02106067425321421),
        (1, 3): (0.548, 0.022257403262734853),
        (2, 3): (0.544, 0.022273930950777416),
        (1, 2, 3): (0.714, 0.020209106858047932),
    },
    ("S1:I:X", "cyclic", "per-shot-ensemble", (2,)): {
        (2,): (0.42800000000000005, 0.022127629787213995),
    },
    ("S1:I:X", "cyclic", "per-shot-ensemble", (1, 3)): {
        (1,): (0.42800000000000005, 0.022127629787213995),
        (3,): (0.28600000000000003, 0.020209106858047932),
        (1, 3): (0.5760000000000001, 0.02210085971178497),
    },
    ("S1:I:X", "cyclic", "per-shot-ensemble", (1, 2, 3)): {
        (1,): (0.374, 0.021639038795658184),
        (2,): (0.40800000000000003, 0.021978898971513564),
        (3,): (0.29400000000000004, 0.020374690181693564),
        (1, 2): (0.626, 0.021639038795658184),
        (1, 3): (0.53, 0.022320394261750844),
        (2, 3): (0.552, 0.02223942445298439),
        (1, 2, 3): (0.704, 0.02041489652190282),
    },
    ("full-24", "random", "per-shot-ensemble", (2,)): {
        (2,): (0.41000000000000003, 0.02199545407578575),
    },
    ("full-24", "random", "per-shot-ensemble", (1, 3)): {
        (1,): (0.43200000000000005, 0.022152923057691506),
        (3,): (0.30200000000000005, 0.02053270561811083),
        (1, 3): (0.5680000000000001, 0.022152923057691506),
    },
    ("full-24", "random", "per-shot-ensemble", (1, 2, 3)): {
        (1,): (0.41200000000000003, 0.02201163328787757),
        (2,): (0.44199999999999995, 0.022209727598509622),
        (3,): (0.29200000000000004, 0.0203340109176719),
        (1, 2): (0.6679999999999999, 0.02106067425321421),
        (1, 3): (0.5640000000000001, 0.02217674457624473),
        (2, 3): (0.5700000000000001, 0.022140460699813815),
        (1, 2, 3): (0.734, 0.019760769215797242),
    },
    ("full-24", "cyclic", "exact", (2,)): {
        (2,): (0.42200000000000004, 0.02208691920571993),
    },
    ("full-24", "cyclic", "exact", (1, 3)): {
        (1,): (0.43200000000000005, 0.022152923057691506),
        (3,): (0.28, 0.020079840636817812),
        (1, 3): (0.5800000000000001, 0.02207260745811423),
    },
    ("full-24", "cyclic", "exact", (1, 2, 3)): {
        (1,): (0.356, 0.021413266915629666),
        (2,): (0.272, 0.019900552756142227),
        (3,): (0.28400000000000003, 0.020166506886419373),
        (1, 2): (0.46799999999999997, 0.022314838112789434),
        (1, 3): (0.476, 0.02233490541730589),
        (2, 3): (0.41400000000000003, 0.0220274374360705),
        (1, 2, 3): (0.522, 0.0223390241505756),
    },
    ("full-24", "cyclic", "per-shot-ensemble", (2,)): {
        (2,): (0.396, 0.02187162545399861),
    },
    ("full-24", "cyclic", "per-shot-ensemble", (1, 3)): {
        (1,): (0.44199999999999995, 0.022209727598509622),
        (3,): (0.31599999999999995, 0.020791536739741004),
        (1, 3): (0.6, 0.021908902300206645),
    },
    ("full-24", "cyclic", "per-shot-ensemble", (1, 2, 3)): {
        (1,): (0.31399999999999995, 0.020755914819636352),
        (2,): (0.31799999999999995, 0.020826713614970557),
        (3,): (0.28600000000000003, 0.020209106858047932),
        (1, 2): (0.46599999999999997, 0.022308921982023246),
        (1, 3): (0.47, 0.022320394261750844),
        (2, 3): (0.42400000000000004, 0.022100859711784968),
        (1, 2, 3): (0.526, 0.022330427671677047),
    },
}


@pytest.mark.parametrize("case", sorted(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_sampled_campaign_pinned(case):
    pool, order, sampling, subset = case
    got = run_sampled_campaign(pinned_channel(), subset, plan_from_count(500),
                               parse_pool(pool), seed=2024, assignment_order=order,
                               channel_sampling=sampling)
    assert {s: (e.value, e.std_error) for s, e in got.items()} == PINNED[case]
