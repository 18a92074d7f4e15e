"""The decay engine against its references, closed forms and recorded pins.

The exact engine must agree with the chi-diagonal prediction and with the
dense density-matrix twirl of ``reference`` for every part of a target.
``PINNED`` holds per-shot sampling results (decay value, standard error) for
assignment orders and per-term draws the golden files do not cover, recorded
from a per-shot engine; ``reference.per_shot_counts`` must reproduce each one
bit for bit. The sampled engine draws one multinomial from exact mode's
table, so it must follow the same law as that per-shot reference. A monomial
operator, stored as (rows, phases), must give the same decays bit for bit
as the same operator stored as a dense array.
"""

import copy
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from twirlsim import (
    QuantumChannel,
    SamplePlan,
    chi_diagonal,
    cnot_gate,
    compile_sequence,
    crotonic_preset,
    fidelity_decay_from_chi,
    parse_pool,
    run_campaign,
    time_suspension_sequence,
    zz_coupling,
)
from twirlsim import cli, protocol
from twirlsim.cli import ExperimentConfig, run_experiment
from twirlsim.states import Monomial, dense
from conftest import random_kraus_channel, random_unitary, random_unitary_ensemble
from reference import (TEN_POOLS, initial_state, per_shot_counts, projection, shot_probabilities,
                       twirl)


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
        got = run_campaign(channel, target, pool=pool)
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
    # complement states; a table for each state would take 28 MB, the one
    # summed table takes 0.9 MB. The budget is 3 MiB, three times the 1 MiB
    # dense CNOT matrix of an 8-qubit register
    channel = QuantumChannel.from_unitary(cnot_gate(1, 2, 8))
    pool = parse_pool("full-24")
    run_campaign(channel, (1, 2, 3), SamplePlan(realizations=50), pool, seed=1)
    tracemalloc.start()
    try:
        run_campaign(channel, (1, 2, 3), SamplePlan(realizations=2000), pool, seed=2)
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
    # the traced peak of a campaign stays under a few N-long 8-byte arrays,
    # whether the channel is held as Kraus operators ("exact") or as the
    # unitary ensemble that the retired per-shot-ensemble option drew from
    channel = crotonic_channel(0.05, 0.02)
    if sampling == "exact":
        channel = QuantumChannel.from_kraus(np.sqrt(w) * op for w, op in channel.terms)
    N = 10**6
    run_campaign(channel, (1, 2), SamplePlan(realizations=1000), seed=1)
    tracemalloc.start()
    try:
        run_campaign(channel, (1, 2), SamplePlan(realizations=N), seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * N, peak / (8 * N)


def test_sampled_peak_independent_of_shots():
    # one multinomial draw builds no N-long array: 10^7 shots trace the peak
    # of 10^3 shots, up to 64 KiB
    channel = crotonic_channel(0.05, 0.02)
    run_campaign(channel, (1, 2), SamplePlan(realizations=1000), seed=1)
    peaks = []
    for N in (10**3, 10**7):
        tracemalloc.start()
        try:
            run_campaign(channel, (1, 2), SamplePlan(realizations=N), seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 64 * 2**10, peaks


@pytest.mark.parametrize("case", ["cnot-n7-pair", "full24-n8-triple-cyclic",
                                  "ensemble-n5-per-shot", "cnot-n7-pair-dense",
                                  "full24-n8-triple-cyclic-dense"])
def test_sampled_estimates_independent_of_blocks(case, monkeypatch):
    # one flip per block, the default blocks and one block for every flip add
    # the per-flip maps in the same order, so both modes give the same bits;
    # the ensemble case keeps its name from the retired per-shot-ensemble option.
    # A monomial term is reduced without blocks, so the CNOT cases also run
    # stored dense ("-dense"), where several blocks cover n = 7 and 8
    rng = np.random.default_rng(15)
    if case.startswith("cnot-n7-pair"):
        args = (QuantumChannel.from_unitary(cnot_gate(1, 2, 7)), (1, 2),
                SamplePlan(realizations=3000))
        options = {"seed": 4}
    elif case.startswith("full24-n8-triple-cyclic"):
        args = (QuantumChannel.from_unitary(cnot_gate(1, 2, 8)), (1, 2, 3),
                SamplePlan(realizations=3000), parse_pool("full-24"))
        options = {"seed": 5, "assignment_order": "cyclic"}
    else:
        channel = QuantumChannel.unitary_ensemble(
            [(0.7, random_unitary(32, rng)), (0.3, random_monomial(5, rng))])
        args = (channel, (2, 4), SamplePlan(realizations=3000))
        options = {"seed": 6}
    if case.endswith("-dense"):
        args = (dense_twin(args[0]),) + args[1:]
    exact_args = args[:2] + (None,) + args[3:]  # no plan: exact
    want = bits(run_campaign(*args, **options)), bits(run_campaign(*exact_args))
    for block in (1, 2**30):
        monkeypatch.setattr(protocol, "BLOCK", block)
        got = bits(run_campaign(*args, **options)), bits(run_campaign(*exact_args))
        assert got == want, block


@pytest.mark.parametrize("mode, order", [("exact", "random"), ("sampled", "cyclic")])
def test_reports_independent_of_batches_and_passes(mode, order, monkeypatch):
    # one (target, flip) pair per block, the default blocks and one block for
    # everything split the targets of one size into batches and passes in
    # different ways; none moves a bit of the report. A dense and a monomial
    # term at n = 7, every pair and three triples
    rng = np.random.default_rng(21)
    channel = QuantumChannel.unitary_ensemble(
        [(0.6, random_unitary(2**7, rng)), (0.4, random_monomial(7, rng))])
    monkeypatch.setattr(cli, "build_channel", lambda config: channel)
    targets = tuple(itertools.combinations(range(1, 8), 2)) + ((1, 2, 3), (2, 4, 6), (3, 5, 7))
    config = ExperimentConfig(gate="ensemble", n=7, subsets=targets, mode=mode,
                              assignment_order=order, seed=8,
                              realizations=2000 if mode == "sampled" else None)
    want = run_experiment(config).to_report_text()
    for block in (1, 2**30):
        monkeypatch.setattr(protocol, "BLOCK", block)
        assert run_experiment(config).to_report_text() == want, block


def test_sampled_shots_neither_hashed_nor_sorted(monkeypatch):
    # a campaign draws its N shots as one histogram; np.unique or a sort over
    # N draws would cost more than the whole physics of a small register
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
    # the CNOT is stored as (rows, phases) and reduced from its 2^10 nonzeros,
    # one 2^m x 2^m Gram product per basis state of the other qubits; writing
    # it out as a matrix anywhere on the way would trace 16 MB
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


@pytest.mark.parametrize("pairs", [2, 28])
def test_exact_memory_bounded_by_block_over_targets(pairs, monkeypatch):
    # one engine pass takes every pair of an 8-qubit register, stored dense:
    # BLOCK bounds the batch's largest array, so 28 pairs keep the budget of
    # 2, about four BLOCK-entry complex arrays of the Gram pass and a little
    # more; a per-target bound would let the batch grow with the target count
    channel = dense_twin(QuantumChannel.from_unitary(cnot_gate(1, 2, 8)))
    monkeypatch.setattr(cli, "build_channel", lambda config: channel)
    targets = ((1, 2), (3, 4)) if pairs == 2 else tuple(itertools.combinations(range(1, 9), 2))
    config = ExperimentConfig(gate="cnot", n=8, subsets=targets)
    assert len(targets) == pairs
    run_experiment(config)
    tracemalloc.start()
    try:
        run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 16 * protocol.BLOCK, peak / (16 * protocol.BLOCK)


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
    pool = parse_pool()
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
            plan = SamplePlan(realizations=400)
            want = [bits(run_campaign(channel, target, pool=pool)),
                    bits(run_campaign(channel, target, plan, pool, seed=n))]
            for twin in twins:
                got = [bits(run_campaign(twin, target, pool=pool)),
                       bits(run_campaign(twin, target, plan, pool, seed=n))]
                assert got == want, (n, target, twin.kind)


@pytest.mark.parametrize("n, ms", [(8, (1, 2, 3)), (10, (1, 2))], ids=["n8", "n10"])
def test_monomial_terms_match_dense_storage_at_benchmark_shapes(n, ms):
    # the benchmark's registers: cnot and c12 on targets that hold their pair,
    # and a random monomial on a random target, each give the decays of their
    # dense and Kraus twins bit for bit, in both modes. The summed tables are
    # compared byte for byte as well, since readout rounding can hide a 1-ulp
    # drift of a table entry
    rng = np.random.default_rng([n, 19])
    pool, plan = parse_pool(), SamplePlan(realizations=400)
    for op, drawn in ((cnot_gate(1, 2, n).data, False),
                      (zz_coupling(0.3, (1, 2), n).data, False), (random_monomial(n, rng), True)):
        single = QuantumChannel.from_unitary(op)
        assert isinstance(single.terms[0][1], Monomial)
        twins = (QuantumChannel.from_kraus([dense(op)]), dense_twin(single))
        for m in ms:
            qubits = rng.choice(np.arange(1, n + 1), m, replace=False) if drawn else range(1, m + 1)
            target = tuple(sorted(int(q) for q in qubits))
            table = protocol._outcome_tables(single, [target], pool)[0].tobytes()
            want = [bits(run_campaign(single, target, pool=pool)),
                    bits(run_campaign(single, target, plan, pool, seed=n))]
            for twin in twins:
                assert protocol._outcome_tables(twin, [target], pool)[0].tobytes() == table, (
                    n, target, twin.kind)
                got = [bits(run_campaign(twin, target, pool=pool)),
                       bits(run_campaign(twin, target, plan, pool, seed=n))]
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
    # "per-shot-ensemble" draws one channel term per shot, "exact" applies them all
    pool, order, sampling, subset = case
    counts = per_shot_counts(pinned_channel(), subset, 500, parse_pool(pool), 2024, order,
                             per_term=sampling == "per-shot-ensemble")
    got, ones = protocol._readout(np.array([counts]), [subset], 500)[0]
    assert {s: (e.value, e.std_error) for s, e in got.items()} == PINNED[case]
    assert ones == counts[-1] / 500  # the all-ones cell, last in outcome order


def test_sampled_law_matches_per_shot_reference():
    # the one multinomial draw must have the law of shots taken one at a time,
    # each with its own flip, assignment, channel term and uniform: over 300
    # seeds each decay's mean and variance agree within binomial bands, here
    # for a two-term ensemble, cyclic order and a full-24 triple with a flip
    rng = np.random.default_rng(18)
    channel = QuantumChannel.unitary_ensemble(
        [(0.6, random_unitary(16, rng)), (0.4, cnot_gate(1, 2, 4).data)])
    target, pool, N, seeds = (1, 2, 3), parse_pool("full-24"), 500, 300
    rows = np.arange(pool.size ** len(target))
    want = np.concatenate([  # 1024 dense states at a time
        sum(shot_probabilities(channel.terms, 4, target, pool, rows[lo:lo + 1024],
                               np.full(len(rows[lo:lo + 1024]), f)) for f in (0, 1))
        for lo in range(0, len(rows), 1024)])
    table = protocol._outcome_tables(channel, [target], pool)[0]
    assert np.abs(table / table.sum(axis=1, keepdims=True)
                  - want / want.sum(axis=1, keepdims=True)).max() <= 1e-15
    engine, shots = [], []
    for seed in range(seeds):
        engine.append(run_campaign(channel, target, SamplePlan(realizations=N), pool, seed=seed,
                                   assignment_order="cyclic"))
        counts = per_shot_counts(channel, target, N, pool, seed, "cyclic", per_term=True)
        shots.append(protocol._readout(np.array([counts]), [target], N)[0][0])
    for sub in engine[0]:
        a = np.array([e[sub].value for e in engine])
        b = np.array([e[sub].value for e in shots])
        p = (a.mean() + b.mean()) / 2
        var = p * (1 - p) / N  # binomial; cycling the assignments only lowers it
        assert abs(a.mean() - b.mean()) <= 4 * math.sqrt(2 * var / seeds), sub
        assert abs(a.var(ddof=1) - b.var(ddof=1)) <= 4 * var * math.sqrt(4 / (seeds - 1)), sub
