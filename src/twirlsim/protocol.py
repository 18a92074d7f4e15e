"""Fidelity-decay measurement and its combination into correlation coefficients.

The workflow: prepare |0> on the measured qubits and maximally mixed
elsewhere, twirl the channel under test with a Clifford pool, and read the
probability that every measured qubit still returns 0. One minus that
probability is the decay for the measured subset. Decays taken over all
nonempty sub-subsets of a target set combine, inclusion-exclusion style,
into the channel's collective coefficient on exactly that set (plus any
higher-weight tail the channel carries).

Both modes share one engine and one table. One Gram product per basis state
of the other qubits, summed over those states, reduces each channel operator
to a 4^m x 4^m map on the m measured qubits: a dense array's product runs
over its columns, a ``Monomial``'s over its 2^m nonzeros only, and gives the
same map bit for bit. Twirling the map one qubit at a time gives the outcome
table of every assignment, and one readout turns an outcome histogram into
every sub-decay. Exact mode sums the table over all assignments. Sampled mode
draws the histogram of N independent shots from that table as one
multinomial, from a counter-based generator keyed by the seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .cliffords import PAULI_PAIRS, CliffordPool, build_pool
from .paulis import ChiDiagonal, _letters
from .states import (
    ATOL, MAX_QUBITS, Monomial, QuantumChannel, _finite, _integer, _validate_subset,
    apply_local, checked_probability, outcome_codes)

#: decays with |M| beyond this are out of scope, in both modes
MAX_EXACT_SUBSET = 3

#: shots per target. A campaign's memory does not grow with N; the cap makes
#: a tiny delta, or a mistyped count, a plan error instead of a run
MAX_REALIZATIONS = 10**7

#: how ``run_sampled_campaign`` picks twirl assignments
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
        if self.realizations == 0:
            if self.std_error != 0.0:
                raise ValueError("exact estimates carry zero standard error")
        elif not 0.0 <= _finite(self.std_error) <= 1.0 / math.sqrt(self.realizations) + 1e-12:
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
    """A realization count for precision ``delta`` at failure rate ``epsilon``: at
    least the larger of the Chernoff and central-limit counts (equal at eps = 2 e^-2,
    Chernoff larger below it) and at most ``MAX_REALIZATIONS``."""

    delta: float
    epsilon: float
    realizations: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "realizations", _integer(self.realizations, "realization count"))
        floor = max(_required_counts(self.delta, self.epsilon))
        if floor > MAX_REALIZATIONS:
            raise ValueError(f"delta {self.delta} and epsilon {self.epsilon} need more than "
                             f"the limit of {MAX_REALIZATIONS} realizations")
        if self.realizations > MAX_REALIZATIONS:
            raise ValueError(
                f"{self.realizations} realizations exceed the limit of {MAX_REALIZATIONS}")
        if self.realizations < floor:
            raise ValueError(
                f"{self.realizations} realizations fall below the floor of {floor} "
                f"for delta {self.delta} and epsilon {self.epsilon}")


def plan_realizations(delta: float, epsilon: float) -> SamplePlan:
    """The smallest plan for precision ``delta`` at failure rate ``epsilon``."""
    return SamplePlan(delta, epsilon, max(_required_counts(delta, epsilon)))


def plan_from_count(realizations: int) -> SamplePlan:
    """Plan for an explicitly chosen N; implies precision 1/sqrt(N)."""
    realizations = _integer(realizations, "realization count")
    if realizations <= 0:
        raise ValueError(f"realization count must be positive, got {realizations}")
    return SamplePlan(1.0 / math.sqrt(realizations), CLT_EPSILON, realizations)


@dataclass(frozen=True)
class ErrorBudget:
    """Systematic error levels: state preparation and twirl-gate accuracy."""

    preparation: float = 0.0
    clifford: float = 0.0

    def __post_init__(self) -> None:
        for name, v in (("preparation", self.preparation), ("clifford", self.clifford)):
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} error must be finite and nonnegative, got {v}")


#: entries of the largest array a dense term's Gram pass builds per block of
#: complement states: 256 KB bounds its peak memory; no block size changes a bit
BLOCK = 2**14


def _dense_map(op: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The 4^m x 4^m map of ``_summed_table`` for a dense term, from
    x[f, r, (a, i)] = A[(a, r), (i, f)]: the columns (i, f), their rows split
    into target bits a and the others' bits r. A flip f's factor has R x M^2
    entries and its map M^2 x M^2; a block holds as many flips as ``BLOCK`` allows."""
    M, R = index.shape
    step, total = max(1, BLOCK // max(M**4, M * M * R)), 0.0
    for f in range(0, R, step):
        # columns first, so that rows are read in runs
        x = op.take(index[:, f:f + step].T.ravel(), axis=1)[index.T.ravel()]
        x = x.reshape(R, M, -1, M).transpose(2, 0, 1, 3).reshape(-1, R, M * M)
        gram = x.transpose(0, 2, 1) @ x.conj()
        gram[0] += total
        total = gram.sum(axis=0)
    return total


def _monomial_map(op: Monomial, index: np.ndarray) -> np.ndarray:
    """The 4^m x 4^m map of ``_summed_table`` for a monomial term, whose flip f
    has M = 2^m nonzeros: column (i, f) holds one in row (a_i, r_i).

    Column i goes to row slot i', the first column of the flip whose nonzero
    has the same r. The slots keep every pair of columns that shares an r and
    nothing else, so the flip's M x M Gram product over its slots holds each
    nonzero product of the map, added at ((a_i, i), (a_j, j)). The factor is
    padded to 4 columns at m = 1: OpenBLAS rounds a 2 x 2 complex product in
    another kernel than a wider one, up to 1 ulp off the dense factor's bits.
    """
    M, R = index.shape
    place = np.empty(index.size, dtype=np.int64)
    place[index.ravel()] = np.arange(index.size)
    a, r = np.divmod(place[op.rows[index.T]], R)
    slot = (r[:, :, None] == r[:, None, :]).argmax(axis=2)
    x = np.zeros((R, M, max(M, 4)), dtype=complex)
    x[np.arange(R)[:, None], slot, np.arange(M)] = op.phases[index.T]
    gram = (x.transpose(0, 2, 1) @ x.conj())[:, :M, :M]
    row = a * M + np.arange(M)
    # flip-major, so that each entry adds its flips' products in flip order
    at = (row[:, :, None] * M * M + row[:, None, :]).ravel()
    total = [np.bincount(at, part.ravel(), M**4) for part in (gram.real, gram.imag)]
    return np.stack(total, axis=-1).view(complex).reshape(M * M, M * M)


def _twirl_table(reduced: np.ndarray, superops: np.ndarray, m: int) -> np.ndarray:
    """(K^m, 2^m) outcome table of every assignment, from one reduced map.

    Row k is the assignment whose pool element on the i-th target qubit is
    digit i of k in base K, first qubit most significant (the order of
    itertools.product over the pool); column x holds the target's outcome
    bits (first most significant) after C^dag S(C |0, f><0, f| C^dag) C.
    A map is Hermitian: its coefficients on products of ``PAULI_PAIRS`` are real.
    """
    K = superops.shape[0] // 2
    # per-qubit groups (a_q, i_q, b_q, j_q) first
    t = reduced.reshape((2,) * (4 * m))
    t = t.transpose([p + g * m for p in range(m) for g in range(4)])
    t = apply_local([PAULI_PAIRS.conj()] * m, t).real
    t = apply_local([superops] * m, t).reshape((K, 2) * m)
    return t.transpose(*range(0, 2 * m, 2), *range(1, 2 * m, 2)).reshape(K**m, 2**m)


def _summed_table(channel: QuantumChannel, qs: tuple[int, ...], pool: CliffordPool
                  ) -> np.ndarray:
    """(K^m, 2^m) outcome table of ``_twirl_table``, summed over every basis
    state f of the qubits outside ``qs``: the twirl of |0> on ``qs`` with the
    rest maximally mixed, unnormalized (each row sums to 2^(n-m)).

    Each term reduces to the 4^m x 4^m map sum_f sum_r A[(a, r), (i, f)]
    conj(A[(b, r), (j, f)]) on the target, one Gram product per flip f
    (``_dense_map``, ``_monomial_map``), with ``index[i, f]`` the basis state of
    bits i on the target and f on the others. The per-flip products are added
    one after another, whatever the block, and each term's sum is weighted
    once, so a monomial term gives the same table as its dense twin, bit for bit.
    """
    if len(qs) > MAX_EXACT_SUBSET:
        raise ValueError(f"decays support at most {MAX_EXACT_SUBSET} measured qubits")
    n, m = channel.n, len(qs)
    # basis states by target bits, then by the other qubits' bits
    index = np.argsort(outcome_codes(n, qs), kind="stable").reshape(2**m, -1)
    reduced = 0.0
    for w, op in channel.terms:
        reduce = _monomial_map if isinstance(op, Monomial) else _dense_map
        reduced = reduced + w * reduce(op, index)
    return _twirl_table(reduced, pool.superops, m)


def _parts(qs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every nonempty part of ``qs``, by size, then in ``itertools.combinations`` order."""
    return [sub for r in range(1, len(qs) + 1) for sub in itertools.combinations(qs, r)]


def _readout(weights: np.ndarray, qs: tuple[int, ...], realizations: int
             ) -> dict[tuple[int, ...], DecayEstimate]:
    """Decay of every nonempty part of ``qs``, in ``_parts`` order, from one histogram.

    ``weights`` are shot counts (``realizations`` = N) or summed outcome
    tables (0), indexed like ``_twirl_table`` columns.
    """
    out = {}
    for sub in _parts(qs):
        zero = outcome_codes(len(qs), [qs.index(q) + 1 for q in sub]) == 0
        hit, miss = float(weights[zero].sum()), float(weights[~zero].sum())
        p = checked_probability(hit / (hit + miss))
        std = math.sqrt(p * (1.0 - p) / realizations) if realizations else 0.0
        out[sub] = DecayEstimate(sub, 1.0 - p, std, realizations)
    return out


def run_exact_campaign(
    channel: QuantumChannel, subset, pool: CliffordPool | None = None
) -> dict[tuple[int, ...], DecayEstimate]:
    """Exact decays of a subset and of all its sub-subsets from one twirl.

    Summing the outcome table over every assignment twirls |0> on the
    subset with the rest maximally mixed; each part's decay reads off that
    one twirl.
    """
    qs = _validate_subset(subset, channel.n)
    table = _summed_table(channel, qs, build_pool() if pool is None else pool)
    return _readout(table.sum(axis=0), qs, 0)


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
    for q in qs:
        if q not in purities:
            raise ValueError(f"missing purity for qubit {q}")
        if not 0.5 - ATOL <= purities[q] <= 1.0 + ATOL:
            raise ValueError(f"purity {purities[q]} for qubit {q} outside [1/2, 1]")
    pure_product = 1.0
    twirled = np.ones(4**chi.n)
    letters = _letters(np.arange(4**chi.n), chi.n)
    for q in qs:
        pure_product *= purities[q]
        acts = letters[q - 1] != 0
        twirled *= np.where(acts, (2.0 / 3.0) * (1.0 - purities[q] / 2.0), purities[q])
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
    9/4 (g_a + g_b - g_ab). Sampling noise can push the result slightly
    negative; it is reported unclamped. Each entry passes ``DecayEstimate``'s
    checks: a number v under key k is read as ``DecayEstimate(k, v)``.
    """
    table: dict[tuple[int, ...], float] = {}
    for key, val in decays.items():
        est = DecayEstimate(key, val.value if isinstance(val, DecayEstimate) else val)
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
    if 2**m - 1 != len(sigmas):
        raise ValueError(f"{len(sigmas)} errors do not cover the subsets of any set")
    return (1.5**m) * math.sqrt(sum(s * s for s in sigmas))


def sampled_coefficient_error(eta: float, m: int, realizations: int) -> float:
    """(3/2)^m sqrt(q (1 - q) / N): error of a sampled m-qubit coefficient.

    The shared-shot decays combine to eta = (3/2)^m q, q the fraction of
    shots reading 1 on every measured qubit; q is clamped to [0, 1].
    """
    q = min(max(_finite(eta) / 1.5**m, 0.0), 1.0)
    return 1.5**m * math.sqrt(q * (1.0 - q) / realizations)


def decay_error_bound(budget: ErrorBudget, decay: float) -> float:
    """Systematic error bound on one decay from the implementation budget.

    sqrt(e_prep^2 (1 + 4 g) + e_clifford^2) for decay value g; infinite when
    a square overflows.
    """
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


def run_sampled_campaign(
    channel: QuantumChannel,
    subset,
    plan: SamplePlan,
    pool: CliffordPool | None = None,
    seed: int = 0,
    assignment_order: str = "random",
) -> dict[tuple[int, ...], DecayEstimate]:
    """Monte-Carlo decay estimates for a subset and all its sub-subsets.

    Each realization prepares a computational-basis state (|0> on the
    measured qubits, an independent uniformly random bit on each of the
    others), conjugates the channel by a twirl assignment, and reads one
    outcome bit per measured qubit. The recorded bit-vectors yield the decay
    of the full subset and of every smaller subset from the same
    realizations.

    Shots are independent, so the outcome histogram is drawn in one go from
    exact mode's summed table: Multinomial(N, p), p the table summed over
    assignments and normalized. ``assignment_order`` picks each shot's
    assignment uniformly at random (``random``) or cycles the pool
    deterministically (``cyclic``): assignment a then gets
    c_a = floor(N / K^m) + [a < N mod K^m] shots, and the histogram is
    sum_a Multinomial(c_a, p_a), p_a row a of the table normalized.

    The draw comes from a Philox stream keyed by ``seed``, so estimates are
    reproducible.
    """
    qs = _validate_subset(subset, channel.n)
    if _integer(seed, "seed") < 0:
        raise ValueError("seed must be nonnegative")
    if assignment_order not in ASSIGNMENT_ORDERS:
        raise ValueError(f"unknown assignment order {assignment_order!r}")
    table = _summed_table(channel, qs, build_pool() if pool is None else pool)
    table = np.maximum(table, 0.0)  # rounding can leave an entry just below 0
    rng = np.random.Generator(np.random.Philox(key=seed))
    N, rows = plan.realizations, table.shape[0]
    if assignment_order == "random":
        p = table.sum(axis=0)
        counts = rng.multinomial(N, p / p.sum())
    else:
        shots = np.full(rows, N // rows)
        shots[:N % rows] += 1
        counts = rng.multinomial(shots, table / table.sum(axis=1, keepdims=True)).sum(axis=0)
    return _readout(counts, qs, N)
