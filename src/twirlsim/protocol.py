"""Fidelity-decay measurement and its combination into correlation coefficients.

The workflow: prepare |0> on the measured qubits and maximally mixed
elsewhere, twirl the channel under test with a Clifford pool, and read the
probability that every measured qubit still returns 0. One minus that
probability is the decay for the measured subset. Decays taken over all
nonempty sub-subsets of a target set combine, inclusion-exclusion style,
into the channel's collective coefficient on exactly that set (plus any
higher-weight tail the channel carries).

Both modes share one engine and one table per target, and every target of
one size m goes through one engine pass. One table of outcome bits and one
stable sort order every target's basis states. One Gram product per basis
state of the other qubits, summed over those states, reduces each channel
operator to a 4^m x 4^m map per target: a dense array's product runs over its
columns, a ``Monomial``'s over its 2^m nonzeros only, and gives the same map
bit for bit. Twirling the stack of maps one qubit at a time gives each
target's outcome table of every assignment, and one readout turns one outcome
histogram per target into every sub-decay and into q, the share of the
histogram in which every target qubit reads 1; the collective coefficient is
(3/2)^m q. Exact mode sums each table over all assignments. Sampled mode draws
the histogram of N independent shots from a target's table as one multinomial,
from a counter-based generator keyed by that target's seed. A target reads
the same bits alone as among others; ``BLOCK`` bounds the memory of a pass,
whatever the number of targets. ``run_campaign`` runs one target in either
mode: exact without a plan, sampled with one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cliffords import PAULI_PAIRS, CliffordPool, parse_pool
from .paulis import ChiDiagonal, _letters
from .states import (
    ATOL, MAX_QUBITS, Monomial, QuantumChannel, _finite, _integer, _validate_subset,
    apply_local, checked_probability, outcome_codes)

#: decays with |M| beyond this are out of scope, in both modes
MAX_EXACT_SUBSET = 3

#: shots per target. A campaign's memory does not grow with N; the cap makes
#: a tiny delta, or a mistyped count, a plan error instead of a run
MAX_REALIZATIONS = 10**7

#: how sampled mode picks each shot's twirl assignment
ASSIGNMENT_ORDERS = ("random", "cyclic")


@dataclass(frozen=True)
class DecayEstimate:
    """A fidelity-decay value for one measured subset, which passes the subset rule.

    The value is finite. ``realizations`` is an integer count, not a bool: 0
    for exact-mode values (std_error 0); sampled values carry the binomial
    standard error, a finite number in [0, 1/sqrt(N)].
    """

    subset: tuple[int, ...]
    value: float
    std_error: float = 0.0
    realizations: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "subset", _validate_subset(self.subset, MAX_QUBITS))
        object.__setattr__(self, "value", _finite(self.value))
        object.__setattr__(self, "realizations", _integer(self.realizations, "realization count"))
        if self.realizations < 0:
            raise ValueError("realization count cannot be negative")
        object.__setattr__(self, "std_error", _finite(self.std_error))
        if self.realizations == 0:
            if self.std_error != 0.0:
                raise ValueError("exact estimates carry zero standard error")
        elif not 0.0 <= self.std_error <= 1.0 / math.sqrt(self.realizations) + 1e-12:
            raise ValueError(
                f"standard error {self.std_error} lies outside the bound [0, 1/sqrt(N)]")


#: failure probability at which the Chernoff count equals the 1/delta^2 floor
CLT_EPSILON = 2.0 * math.exp(-2.0)


def _required_counts(delta: float, epsilon: float) -> tuple[int, int]:
    """(Chernoff, central-limit) counts ln(2/eps)/(2 delta^2) and 1/delta^2, rounded
    up after a relative slack of 1e-12 so that N meets its own precision 1/sqrt(N)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"precision delta must lie in (0, 1), got {delta}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"failure probability must lie in (0, 1), got {epsilon}")
    try:
        clt = 1.0 / delta**2
        chernoff = math.log(2.0 / epsilon) / 2.0 * clt
        return math.ceil(chernoff * (1.0 - 1e-12)), math.ceil(clt * (1.0 - 1e-12))
    except ArithmeticError as exc:
        raise ValueError(f"delta {delta}, epsilon {epsilon}: too many realizations") from exc


@dataclass(frozen=True)
class SamplePlan:
    """A realization count N for precision ``delta`` at failure rate ``epsilon``,
    every field filled in by the package's one plan rule: N is at least the larger
    of the Chernoff count ln(2/eps)/(2 delta^2) and the central-limit count 1/delta^2
    (equal at eps = ``CLT_EPSILON`` = 2 e^-2, Chernoff larger below it), and at most
    ``MAX_REALIZATIONS``. Without N the plan takes the smallest such N; N alone
    is at least 2 and implies delta = 1/sqrt(N). ``epsilon`` defaults to
    ``CLT_EPSILON`` and needs ``delta``."""

    delta: float | None = None
    epsilon: float | None = None
    realizations: int | None = None

    def __post_init__(self) -> None:
        if self.delta is None and self.epsilon is not None:
            raise ValueError("epsilon needs delta")
        count = self.realizations
        if count is not None:
            count = _integer(count, "realization count")
        if self.delta is None:
            if count is None:
                raise ValueError("a plan needs delta or realizations")
            if count < 2:
                raise ValueError(f"realization count must be at least 2, got {count}")
        delta = 1.0 / math.sqrt(count) if self.delta is None else _finite(self.delta)
        epsilon = CLT_EPSILON if self.epsilon is None else _finite(self.epsilon)
        floor = max(_required_counts(delta, epsilon))
        count = floor if count is None else count
        if floor > MAX_REALIZATIONS:
            raise ValueError(f"delta {delta} and epsilon {epsilon} need more than "
                             f"the limit of {MAX_REALIZATIONS} realizations")
        if count > MAX_REALIZATIONS:
            raise ValueError(f"{count} realizations exceed the limit of {MAX_REALIZATIONS}")
        if count < floor:
            raise ValueError(f"{count} realizations fall below the floor of {floor} "
                             f"for delta {delta} and epsilon {epsilon}")
        for name, value in (("delta", delta), ("epsilon", epsilon), ("realizations", count)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ErrorBudget:
    """Systematic error levels: state preparation and twirl-gate accuracy."""

    preparation: float = 0.0
    clifford: float = 0.0

    def __post_init__(self) -> None:
        for name in ("preparation", "clifford"):
            v = _finite(getattr(self, name))
            if v < 0.0:
                raise ValueError(f"{name} error must be nonnegative, got {v}")
            object.__setattr__(self, name, v)


#: entries of the largest array a Gram pass builds per block of targets and
#: complement states: 256 KB bounds its peak memory; no block size changes a bit
BLOCK = 2**14


def _dense_map(op: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The 4^m x 4^m map of ``_outcome_tables`` for a dense term, per target,
    from x[t, f, r, (a, i)] = A[(a, r), (i, f)]: target t's columns (i, f),
    their rows split into target bits a and the others' bits r. A flip f's
    factor has R x M^2 entries and its map M^2 x M^2; a block holds as many
    (target, flip) pairs as ``BLOCK`` allows, all flips of a target first."""
    T, M, R = index.shape
    per = max(1, BLOCK // max(M**4, M * M * R))
    batch, step = max(1, per // R), min(per, R)
    out = np.empty((T, M * M, M * M), dtype=complex)
    for t in range(0, T, batch):
        idx = index[t:t + batch]
        b = len(idx)
        rows, total = idx.transpose(0, 2, 1).reshape(b, -1), 0.0
        for f in range(0, R, step):
            # columns first, so that rows are read in runs
            x = op.take(idx[:, :, f:f + step].transpose(0, 2, 1).ravel(), axis=1)
            x = x.reshape(M * R, b, -1)[rows, np.arange(b)[:, None]]
            x = x.reshape(b, R, M, -1, M).transpose(0, 3, 1, 2, 4).reshape(-1, R, M * M)
            gram = (x.transpose(0, 2, 1) @ x.conj()).reshape(b, -1, M * M, M * M)
            gram[:, 0] += total
            total = gram.sum(axis=1)
        out[t:t + batch] = total
    return out


def _monomial_map(op: Monomial, index: np.ndarray) -> np.ndarray:
    """The 4^m x 4^m map of ``_outcome_tables`` for a monomial term, per target;
    target t's flip f has M = 2^m nonzeros: column (i, f) holds one in row (a_i, r_i).

    Column i goes to row slot i', the first column of the flip whose nonzero
    has the same r. The slots keep every pair of columns that shares an r and
    nothing else, so the flip's M x M Gram product over its slots holds each
    nonzero product of the map, added at ((a_i, i), (a_j, j)). The factor is
    padded to 4 columns at m = 1: OpenBLAS rounds a 2 x 2 complex product in
    another kernel than a wider one, up to 1 ulp off the dense factor's bits.
    A batch holds as many targets as ``BLOCK`` allows entries of their factors.
    """
    T, M, R = index.shape
    batch = max(1, BLOCK // (R * M * max(M, 4)))
    if T > batch:
        return np.concatenate([_monomial_map(op, index[t:t + batch]) for t in range(0, T, batch)])
    # every target's basis states and positions in one range, target t's from t D
    D = M * R
    shift = np.arange(0, T * D, D)[:, None, None]
    place = np.empty(T * D, dtype=np.int64)
    place[(index + shift).ravel()] = np.arange(T * D)
    cols = index.transpose(0, 2, 1)
    a, r = np.divmod(place[op.rows[cols] + shift], R)
    slot = (r[..., :, None] == r[..., None, :]).argmax(axis=-1)
    x = np.zeros((T * R, M, max(M, 4)), dtype=complex)
    x[np.arange(T * R)[:, None], slot.reshape(-1, M), np.arange(M)] = op.phases[cols].reshape(-1, M)
    gram = (x.transpose(0, 2, 1) @ x.conj())[:, :M, :M]
    # a counts target t's rows from t M, so row counts them from t M^2 and
    # target t's entries start at t M^4; flip-major within each target, so
    # that each entry adds its flips' products in flip order
    row = a * M + np.arange(M)
    at = (row[..., :, None] * (M * M) + (row - shift // R * M)[..., None, :]).ravel()
    total = [np.bincount(at, part.ravel(), T * M**4) for part in (gram.real, gram.imag)]
    return np.stack(total, axis=-1).view(complex).reshape(T, M * M, M * M)


def _twirl_table(reduced: np.ndarray, superops: np.ndarray, m: int) -> np.ndarray:
    """(T, K^m, 2^m) outcome tables of every assignment, from T reduced maps.

    Row k is the assignment whose pool element on the i-th target qubit is
    digit i of k in base K, first qubit most significant (the order of
    itertools.product over the pool); column x holds the target's outcome
    bits (first most significant) after C^dag S(C |0, f><0, f| C^dag) C.
    A map is Hermitian: its coefficients on products of ``PAULI_PAIRS`` are real.
    """
    T, K = len(reduced), superops.shape[0] // 2
    # per-qubit groups (a_q, i_q, b_q, j_q) first, targets last
    t = reduced.reshape((T,) + (2,) * (4 * m))
    t = t.transpose([1 + p + g * m for p in range(m) for g in range(4)] + [0])
    t = apply_local([PAULI_PAIRS.conj()] * m, t).real.reshape(T, -1).T
    t = apply_local([superops] * m, t).reshape((T,) + (K, 2) * m)
    return t.transpose(0, *range(1, 2 * m, 2), *range(2, 2 * m + 1, 2)).reshape(T, K**m, 2**m)


def _outcome_tables(channel: QuantumChannel, targets: list[tuple[int, ...]],
                    pool: CliffordPool) -> np.ndarray:
    """(T, K^m, 2^m) outcome tables of ``_twirl_table`` for T targets of one size
    m, each summed over every basis state f of the qubits outside it: the twirl
    of |0> on the target with the rest maximally mixed, unnormalized (each row
    sums to 2^(n-m)).

    Each term reduces to the 4^m x 4^m map sum_f sum_r A[(a, r), (i, f)]
    conj(A[(b, r), (j, f)]) on each target, one Gram product per flip f
    (``_dense_map``, ``_monomial_map``), with ``index[t, i, f]`` the basis state
    of bits i on target t and f on the others. The per-flip products are added
    one after another, whatever the block or batch, and each term's sum is
    weighted once, so a monomial term gives the same tables as its dense twin,
    and a target the same table alone as among others, bit for bit.
    """
    n, m = channel.n, len(targets[0])
    # basis states by target bits, then by the other qubits' bits
    index = np.argsort(outcome_codes(n, np.array(targets)), axis=1, kind="stable")
    index = index.reshape(len(targets), 2**m, -1)
    reduced = 0.0
    for w, op in channel.terms:
        reduce = _monomial_map if isinstance(op, Monomial) else _dense_map
        reduced = reduced + w * reduce(op, index)
    return _twirl_table(reduced, pool.superops, m)


def _parts(qs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every nonempty part of ``qs``, by size, then in ``itertools.combinations`` order."""
    return [sub for r in range(1, len(qs) + 1) for sub in itertools.combinations(qs, r)]


def _readout(weights: np.ndarray, targets: list[tuple[int, ...]], realizations: int
             ) -> list[tuple[dict[tuple[int, ...], DecayEstimate], float]]:
    """Decay of every nonempty part of each target, in ``_parts`` order, and
    the share q of its histogram in which every target qubit reads 1 (the last
    column), from one histogram per target.

    ``weights`` are shot counts (``realizations`` = N) or summed outcome
    tables (0), one row per target, indexed like ``_twirl_table`` columns.
    """
    m = len(targets[0])
    parts = _parts(tuple(range(m)))
    # zeros[k, x]: outcome x reads 0 at each position i of part k, its bit m - 1 - i
    masks = np.array([[sum(1 << (m - 1 - i) for i in part)] for part in parts])
    zeros = (np.arange(2**m) & masks) == 0
    out: list[dict[tuple[int, ...], DecayEstimate]] = [{} for _ in targets]
    for part, zero in zip(parts, zeros):
        hits, misses = weights[:, zero].sum(axis=1).tolist(), weights[:, ~zero].sum(axis=1).tolist()
        for qs, decays, hit, miss in zip(targets, out, hits, misses):
            p = checked_probability(hit / (hit + miss))
            std = math.sqrt(p * (1.0 - p) / realizations) if realizations else 0.0
            sub = tuple(qs[i] for i in part)
            decays[sub] = DecayEstimate(sub, 1.0 - p, std, realizations)
    ones = (weights[:, -1] / weights.sum(axis=1)).tolist()
    return [(decays, checked_probability(q)) for decays, q in zip(out, ones)]


def _decays(channel: QuantumChannel, targets: list[tuple[int, ...]], pool: CliffordPool,
            plan: SamplePlan | None = None, seeds: Sequence[int] = (),
            assignment_order: str = "random"
            ) -> list[tuple[dict[tuple[int, ...], DecayEstimate], float]]:
    """Decays of every part of each target, all of one size m, and its all-ones
    share q (``_readout``), from one engine pass.

    The targets are checked by the caller: sorted labels of one register, at
    most ``MAX_EXACT_SUBSET`` of them. Without a plan the decays are exact;
    with one, target t's shots come from a Philox stream keyed by ``seeds[t]``,
    so each target reads as it would alone. A pass takes as many targets as
    ``BLOCK`` allows entries of their stacked maps (16^m each) and tables
    (K^m 2^m each); more targets take more passes, which changes no bit.
    """
    m = len(targets[0])
    step = max(1, BLOCK // max(16**m, pool.size**m * 2**m))
    if len(targets) > step:
        return [d for t in range(0, len(targets), step)
                for d in _decays(channel, targets[t:t + step], pool, plan, seeds[t:t + step],
                                 assignment_order)]
    tables = _outcome_tables(channel, targets, pool)
    if plan is None:
        return _readout(tables.sum(axis=1), targets, 0)
    tables = np.maximum(tables, 0.0)  # rounding can leave an entry just below 0
    N, rows = plan.realizations, tables.shape[1]
    counts = []
    for table, seed in zip(tables, seeds):
        rng = np.random.Generator(np.random.Philox(key=seed))
        if assignment_order == "random":
            p = table.sum(axis=0)
            counts.append(rng.multinomial(N, p / p.sum()))
        else:
            shots = np.full(rows, N // rows)
            shots[:N % rows] += 1
            counts.append(rng.multinomial(shots, table / table.sum(axis=1, keepdims=True))
                          .sum(axis=0))
    return _readout(np.array(counts), targets, N)


def fidelity_decay_from_chi(
    chi: ChiDiagonal, purities: Mapping[int, float], subset
) -> float:
    """Decay predicted directly from the chi diagonal.

    Each string contributes its chi weight times the gap between the
    product of initial purities over the measured qubits and the product of
    per-qubit depolarizing factors: 2/3 (1 - P/2) where the string acts,
    P itself where it is the identity. The identity string contributes
    nothing by construction.
    """
    qs = _validate_subset(subset, chi.n)
    purity = {}
    for q in qs:
        if q not in purities:
            raise ValueError(f"missing purity for qubit {q}")
        purity[q] = _finite(purities[q])
        if not 0.5 - ATOL <= purity[q] <= 1.0 + ATOL:
            raise ValueError(f"purity {purity[q]} for qubit {q} outside [1/2, 1]")
    pure_product = 1.0
    twirled = np.ones(4**chi.n)
    letters = _letters(np.arange(4**chi.n), chi.n)
    for q in qs:
        pure_product *= purity[q]
        acts = letters[q - 1] != 0
        twirled *= np.where(acts, (2.0 / 3.0) * (1.0 - purity[q] / 2.0), purity[q])
    return float(np.sum(chi.values * (pure_product - twirled)))


def combine_subset(decays: Mapping) -> float:
    """Collective coefficient of a set M from the decays of all its subsets.

    Requires a decay for each of the 2^|M| - 1 nonempty subsets of M, with
    pure preparation. The combination is

        (3/2)^|M| * sum_S (-1)^(|S|+1) decay(S)

    which cancels every term supported on fewer than all of M and returns
    the coefficient on M plus the coefficients of its strict supersets.
    The alternating-sign pattern is pinned by the brute-force oracle tests
    before anything downstream relies on it; for a pair it reduces to
    9/4 (g_a + g_b - g_ab). It serves callers who hold decays; the CLI reads
    the same number off the histogram as (3/2)^|M| q (``_readout``). Each
    entry passes ``DecayEstimate``'s checks: a number v under key k is read as
    ``DecayEstimate(k, v)``, and an estimate whose subset is not its key
    likewise; one whose subset is its key has passed them already.
    """
    table: dict[tuple[int, ...], float] = {}
    for key, val in decays.items():
        if isinstance(val, DecayEstimate):
            est = val if val.subset == key else DecayEstimate(key, val.value)
        else:
            est = DecayEstimate(key, val)
        if est.subset in table:
            raise ValueError(f"subset {est.subset} is given twice")
        table[est.subset] = est.value
    if not table:
        raise ValueError("combine_subset needs at least one decay")
    target = max(table, key=len)
    for key in table:
        if not set(key) <= set(target):
            raise ValueError(f"decay for {key} is not a part of the target {target}")
    total = 0.0
    for sub in _parts(target):
        if sub not in table:
            raise ValueError(f"missing decay for subset {sub}")
        total += (-1.0) ** (len(sub) + 1) * table[sub]
    return (1.5 ** len(target)) * total


def subset_coefficient_error(std_errors: Iterable[float]) -> float:
    """Propagated error of a combined coefficient: (3/2)^m sqrt(sum sigma^2).

    The sum runs over all 2^m - 1 subset decays, taken as independent (the
    systematic bounds of ``decay_error_bound``), so the error of a combined
    coefficient grows with the square root of that count: isolating
    coefficients on large subsets amplifies per-decay errors, which is why
    a weight cutoff is chosen before measuring anything.
    """
    sigmas = [_finite(s) for s in std_errors]
    for s in sigmas:
        if s < 0.0:
            raise ValueError(f"standard error cannot be negative, got {s}")
    m = round(math.log2(len(sigmas) + 1))
    if not sigmas or 2**m - 1 != len(sigmas):
        raise ValueError(f"{len(sigmas)} errors do not cover the subsets of any set")
    return (1.5**m) * math.sqrt(sum(s * s for s in sigmas))


def decay_error_bound(budget: ErrorBudget, decay: float) -> float:
    """Systematic error bound on one decay from the implementation budget.

    sqrt(e_prep^2 (1 + 4 g) + e_clifford^2) for decay value g; infinite when
    a square overflows.
    """
    decay = _finite(decay)
    if not -ATOL <= decay <= 1.0 + ATOL:
        raise ValueError(f"decay value {decay} outside [0, 1]")
    try:
        return math.sqrt(budget.preparation**2 * (1.0 + 4.0 * decay) + budget.clifford**2)
    except OverflowError:
        return math.inf


def derive_seed(seed: int, index: int) -> int:
    """Stable child seed for stream ``index`` of a campaign family."""
    words = np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(2, np.uint64)
    return (int(words[0]) << 64) | int(words[1])


def run_campaign(
    channel: QuantumChannel,
    subset,
    plan: SamplePlan | None = None,
    pool: CliffordPool | None = None,
    seed: int = 0,
    assignment_order: str = "random",
) -> dict[tuple[int, ...], DecayEstimate]:
    """Decays of a subset and of all its sub-subsets from one twirl of ``pool``
    (``DEFAULT_POOL`` if none): exact without a plan, sampled with one.

    Summing the outcome table over every assignment twirls |0> on the subset
    with the rest maximally mixed; exact mode reads each part's decay off that
    one twirl. A sampled realization prepares a computational-basis state (|0>
    on the measured qubits, an independent uniformly random bit on each of the
    others), conjugates the channel by a twirl assignment, and reads one outcome
    bit per measured qubit, so the same realizations give the decay of every
    part. Shots are independent, so the outcome histogram is drawn in one go
    from exact mode's table: Multinomial(N, p), p the table summed over
    assignments and normalized. ``assignment_order`` picks each shot's
    assignment uniformly at random (``random``) or cycles the pool
    deterministically (``cyclic``): assignment a then gets
    c_a = floor(N / K^m) + [a < N mod K^m] shots, and the histogram is
    sum_a Multinomial(c_a, p_a), p_a row a of the table normalized. The draw
    comes from a Philox stream keyed by ``seed``, so estimates are reproducible.
    """
    qs = _validate_subset(subset, channel.n)
    if len(qs) > MAX_EXACT_SUBSET:
        raise ValueError(f"decays support at most {MAX_EXACT_SUBSET} measured qubits")
    if _integer(seed, "seed") < 0:
        raise ValueError("seed must be nonnegative")
    if assignment_order not in ASSIGNMENT_ORDERS:
        raise ValueError(f"unknown assignment order {assignment_order!r}")
    return _decays(channel, [qs], parse_pool() if pool is None else pool, plan, [seed],
                   assignment_order)[0][0]
