"""Fidelity-decay measurement and its combination into correlation coefficients.

The workflow: prepare |0> on the measured qubits and maximally mixed
elsewhere, twirl the channel under test with a Clifford pool, and read the
probability that every measured qubit still returns 0. One minus that
probability is the decay for the measured subset. Decays taken over all
nonempty sub-subsets of a target set combine, inclusion-exclusion style,
into the channel's collective coefficient on exactly that set (plus any
higher-weight tail the channel carries).

Both modes share one engine. One pass over the channel operators reduces
the channel to a 4^m x 4^m map on the m measured qubits, per basis state of
the others or summed over them; twirling it one qubit at a time gives the
outcome table of every assignment, and one readout turns an outcome
histogram into every sub-decay. Exact mode sums the tables over all
assignments; sampled mode draws shot by shot from them, with Bernoulli
statistics, from a counter-based generator keyed by the seed, so
realization i sees the same randomness however the work is scheduled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .cliffords import CliffordPool, MAX_EXACT_ASSIGNMENTS, build_pool
from .paulis import SINGLE_QUBIT_PAULIS, ChiDiagonal
from .states import (
    ATOL,
    DensityMatrix,
    QuantumChannel,
    _validate_subset,
    checked_probability,
    outcome_codes,
    protocol_initial_state,  # noqa: F401  (part of this module's API)
)

#: decays with |M| beyond this are out of exact-mode scope
MAX_EXACT_SUBSET = 3

#: shots per target: a sampled campaign holds five N-long 8-byte arrays of
#: draws and outcomes, so this caps them at 400 MB
MAX_REALIZATIONS = 10**7

#: how ``run_sampled_campaign`` picks twirl assignments and channel terms
ASSIGNMENT_ORDERS = ("random", "cyclic")
CHANNEL_SAMPLING_MODES = ("exact", "per-shot-ensemble")


@dataclass(frozen=True)
class DecayEstimate:
    """A fidelity-decay value for one measured subset.

    ``realizations`` is 0 for exact-mode values (std_error 0); sampled
    values carry the binomial standard error, which never exceeds
    1/sqrt(N).
    """

    subset: tuple[int, ...]
    value: float
    std_error: float = 0.0
    realizations: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "subset", tuple(sorted(int(q) for q in self.subset)))
        if self.realizations < 0:
            raise ValueError("realization count cannot be negative")
        if self.realizations == 0:
            if self.std_error != 0.0:
                raise ValueError("exact estimates carry zero standard error")
        elif self.std_error > 1.0 / math.sqrt(self.realizations) + 1e-12:
            raise ValueError(
                f"standard error {self.std_error} exceeds the 1/sqrt(N) bound")


@dataclass(frozen=True)
class SamplePlan:
    """Realization count for a target precision and failure probability."""

    delta: float
    epsilon: float
    realizations: int
    dominant_bound: str = "chernoff"

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"precision delta must lie in (0, 1), got {self.delta}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"failure probability must lie in (0, 1), got {self.epsilon}")
        if self.realizations > MAX_REALIZATIONS:
            raise ValueError(
                f"{self.realizations} realizations exceed the limit of {MAX_REALIZATIONS}")
        floor = math.log(2.0 / self.epsilon) / (2.0 * self.delta**2)
        if self.realizations < math.ceil(floor - 1e-9):
            raise ValueError(
                f"{self.realizations} realizations fall below the "
                f"concentration bound {math.ceil(floor)}")


#: failure probability at which the Chernoff count equals the 1/delta^2 floor
CLT_EPSILON = 2.0 * math.exp(-2.0)


def plan_realizations(delta: float, epsilon: float) -> SamplePlan:
    """Realizations needed for precision ``delta`` at failure rate ``epsilon``.

    Takes the larger of the Chernoff requirement ln(2/eps)/(2 delta^2) and
    the central-limit floor 1/delta^2, and records which one decided. The
    two coincide when eps = 2 e^-2; below that the Chernoff count is the
    stricter one.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"precision delta must lie in (0, 1), got {delta}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"failure probability must lie in (0, 1), got {epsilon}")
    chernoff = math.ceil(math.log(2.0 / epsilon) / (2.0 * delta**2))
    clt = math.ceil(1.0 / delta**2)
    if chernoff > clt:
        dominant = "chernoff"
    elif clt > chernoff:
        dominant = "clt"
    else:
        dominant = "tie"
    return SamplePlan(delta, epsilon, max(chernoff, clt), dominant)


def plan_from_count(realizations: int) -> SamplePlan:
    """Plan for an explicitly chosen N; implies precision 1/sqrt(N)."""
    if realizations <= 0:
        raise ValueError(f"realization count must be positive, got {realizations}")
    delta = 1.0 / math.sqrt(realizations)
    return SamplePlan(delta, CLT_EPSILON, realizations, "tie")


@dataclass(frozen=True)
class ErrorBudget:
    """Systematic error levels: state preparation and twirl-gate accuracy."""

    preparation: float = 0.0
    clifford: float = 0.0

    def __post_init__(self) -> None:
        for name, v in (("preparation", self.preparation), ("clifford", self.clifford)):
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} error must be finite and nonnegative, got {v}")


#: entries of the largest array built per block of complement states: 64 KB
#: in exact mode leaves worker threads no large freed chunks to hold on to,
#: 1 MB in sampled mode reads the scattered operator columns in longer runs
EXACT_BLOCK, SAMPLED_BLOCK = 2**12, 2**16

#: (sigma_mu x sigma_nu) / 2 on one qubit's bits (a, i), flattened over
#: ((a, i), (b, j)): an orthonormal basis of the Hermitian 4 x 4 matrices
_PAULIS = np.array([SINGLE_QUBIT_PAULIS[c] for c in "IXYZ"])
_PAULI_PAIRS = np.einsum("mab,nij->mnaibj", _PAULIS, _PAULIS).reshape(16, 16) / 2


def _reduced_maps(terms: Iterable[tuple[float, np.ndarray]], index: np.ndarray,
                  flips: np.ndarray, summed: bool = False) -> np.ndarray:
    """R_f[(a, i), (b, j)] = sum_t w_t sum_r A_t[(a, r), (i, f)] conj(A_t[(b, r), (j, f)])
    for each f in ``flips`` (F, 4^m, 4^m), or their sum (1, 4^m, 4^m).

    A Gram product of the operator columns (i, f); ``index[i, f]`` is the
    basis state with bits i on the target and f on the other qubits.
    """
    M, F = index.shape[0], len(flips)
    cols, rows = index[:, flips].T.ravel(), index.T.ravel()
    out = 0.0
    for w, op in terms:
        # columns first, so that rows are read in runs
        x = op.take(cols, axis=1)[rows].reshape(-1, M, F, M).transpose(2, 0, 1, 3)
        x = x.reshape(1 if summed else F, -1, M * M)
        out = out + w * (x.transpose(0, 2, 1) @ x.conj())
    return out


def _local_superops(pool: CliffordPool) -> np.ndarray:
    """(2K, 16) coefficients of conj(C[a, x]) C[b, x] C[i, 0] conj(C[j, 0])
    on ``_PAULI_PAIRS``, one row per pool element C and outcome x.

    Each is half a product of Bloch components of C|x> and C|0>, 0 or +-1 for a
    Clifford; rounding to that grid keeps tables of untouched qubits exact.
    """
    c = np.array([e.matrix for e in pool.elements])
    s = np.einsum("kax,kbx,ki,kj->kxaibj", c.conj(), c, c[:, :, 0], c[:, :, 0].conj())
    return np.rint(2 * (s.reshape(2 * pool.size, 16) @ _PAULI_PAIRS.T).real) / 2


def _twirl_tables(maps: np.ndarray, superops: np.ndarray, m: int) -> np.ndarray:
    """(B, K^m, 2^m) outcome tables of every assignment, one per reduced map.

    Row k is assignment k in ``assignment_ops`` order, column x the target's
    outcome bits (first most significant) after C^dag S(C |0, f><0, f| C^dag) C.
    A map is Hermitian: its coefficients on products of ``_PAULI_PAIRS`` are real.
    """
    batch, K = maps.shape[0], superops.shape[0] // 2
    # per-qubit groups (a_q, i_q, b_q, j_q) first, the batch axis last; each
    # contraction moves its result axis to the end
    t = maps.reshape((batch,) + (2,) * (4 * m))
    t = t.transpose([1 + p + g * m for p in range(m) for g in range(4)] + [0])
    for _ in range(m):
        t = (_PAULI_PAIRS.conj() @ t.reshape(16, -1)).T
    t = t.real.reshape(batch, -1).T
    for _ in range(m):
        t = (superops @ t.reshape(16, -1)).T
    t = t.reshape((batch,) + (K, 2) * m).transpose(0, *range(1, 2 * m, 2), *range(2, 2 * m + 1, 2))
    return t.reshape(batch, K**m, 2**m)


def _readout(weights: np.ndarray, qs: tuple[int, ...], realizations: int
             ) -> dict[tuple[int, ...], DecayEstimate]:
    """Decay of every nonempty part of ``qs`` from one outcome histogram.

    ``weights`` are shot counts (``realizations`` = N) or summed outcome
    tables (0), indexed like ``_twirl_tables`` columns.
    """
    m = len(qs)
    out = {}
    for r in range(1, m + 1):
        for sub in itertools.combinations(qs, r):
            zero = outcome_codes(m, [qs.index(q) + 1 for q in sub]) == 0
            hit, miss = float(weights[zero].sum()), float(weights[~zero].sum())
            p = checked_probability(hit / (hit + miss))
            std = math.sqrt(p * (1.0 - p) / realizations) if realizations else 0.0
            out[sub] = DecayEstimate(sub, 1.0 - p, std, realizations)
    return out


def run_exact_campaign(
    channel: QuantumChannel, subset, pool: CliffordPool | None = None
) -> dict[tuple[int, ...], DecayEstimate]:
    """Exact decays of a subset and of all its sub-subsets from one twirl.

    Summing the outcome tables over every assignment and every basis state
    of the other qubits twirls |0> on the subset with the rest maximally
    mixed; each part's decay reads off that one twirl.
    """
    qs = tuple(sorted(_validate_subset(subset, channel.n)))
    if len(qs) > MAX_EXACT_SUBSET:
        raise ValueError(
            f"exact decay supports at most {MAX_EXACT_SUBSET} measured qubits")
    if pool is None:
        pool = build_pool()
    n, m = channel.n, len(qs)
    # basis states by target bits, then by the other qubits' bits
    index = np.argsort(outcome_codes(n, qs), kind="stable").reshape(2**m, -1)
    step = max(1, EXACT_BLOCK >> (n + m))
    flips = np.arange(2 ** (n - m))
    reduced = sum(_reduced_maps(channel.terms, index, flips[f:f + step], summed=True)
                  for f in range(0, len(flips), step))
    weights = _twirl_tables(reduced, _local_superops(pool), m)[0].sum(axis=0)
    return _readout(weights, qs, 0)


def fidelity_decay_exact(
    channel: QuantumChannel, subset, pool: CliffordPool | None = None
) -> DecayEstimate:
    """Decay for one subset from a full enumeration of twirl assignments."""
    qs = tuple(sorted(_validate_subset(subset, channel.n)))
    return run_exact_campaign(channel, qs, pool)[qs]


def decays_from_twirled_state(rho1: DensityMatrix, subset) -> dict[tuple[int, ...], float]:
    """Decays of every nonempty sub-subset, read off one twirled state.

    A twirl of the full subset already determines the decay of each smaller
    subset through the corresponding marginal projection; this is the
    density-matrix form of the engine's single-preparation readout.
    """
    qs = tuple(sorted(_validate_subset(subset, rho1.n)))
    weights = np.bincount(outcome_codes(rho1.n, qs), weights=np.diag(rho1.data).real,
                          minlength=2 ** len(qs))
    return {sub: est.value for sub, est in _readout(weights, qs, 0).items()}


def _purity_factor(purity: float, letter: str) -> float:
    if letter == "I":
        return purity
    return (2.0 / 3.0) * (1.0 - purity / 2.0)


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
    qs = tuple(sorted(_validate_subset(subset, chi.n)))
    for q in qs:
        if q not in purities:
            raise ValueError(f"missing purity for qubit {q}")
        if not 0.5 - ATOL <= purities[q] <= 1.0 + ATOL:
            raise ValueError(f"purity {purities[q]} for qubit {q} outside [1/2, 1]")
    pure_product = 1.0
    for q in qs:
        pure_product *= purities[q]
    total = 0.0
    for lab, v in chi.values.items():
        if v == 0.0:
            continue
        twirled = 1.0
        for q in qs:
            twirled *= _purity_factor(purities[q], lab[q - 1])
        total += v * (pure_product - twirled)
    return total


def _as_value(x) -> float:
    return float(x.value) if isinstance(x, DecayEstimate) else float(x)


def combine_pair(decay_a, decay_b, decay_ab) -> float:
    """Collective coefficient of a pair from its three decays.

    Assumes pure preparation on both qubits: 9/4 (g_a + g_b - g_ab). Equals
    the pair coefficient exactly when the channel has no terms that touch
    the pair plus further qubits; any such terms add on top. Sampling noise
    can push the result slightly negative; it is reported unclamped.
    """
    return 2.25 * (_as_value(decay_a) + _as_value(decay_b) - _as_value(decay_ab))


def combine_subset(decays: Mapping) -> float:
    """Collective coefficient of a set M from the decays of all its subsets.

    Requires a decay for each of the 2^|M| - 1 nonempty subsets of M, with
    pure preparation. The combination is

        (3/2)^|M| * sum_S (-1)^(|S|+1) decay(S)

    which cancels every term supported on fewer than all of M and returns
    the coefficient on M plus the coefficients of its strict supersets.
    The alternating-sign pattern is pinned by the brute-force oracle tests
    before anything downstream relies on it; for |M| = 2 it reduces to
    ``combine_pair``.
    """
    table: dict[tuple[int, ...], float] = {}
    for key, val in decays.items():
        qs = tuple(sorted(int(q) for q in key))
        table[qs] = _as_value(val)
    target = max(table, key=len)
    m = len(target)
    total = 0.0
    for r in range(1, m + 1):
        for sub in itertools.combinations(target, r):
            if sub not in table:
                raise ValueError(f"missing decay for subset {sub}")
            total += (-1.0) ** (r + 1) * table[sub]
    return (1.5**m) * total


def subset_coefficient_error(std_errors: Iterable[float]) -> float:
    """Propagated error of a combined coefficient: (3/2)^m sqrt(sum sigma^2).

    The sum runs over all 2^m - 1 subset decays, taken as independent (the
    systematic bounds of ``decay_error_bound``), so the error of a combined
    coefficient grows with the square root of that count: isolating
    coefficients on large subsets amplifies per-decay errors, which is why
    a weight cutoff is chosen before measuring anything.
    """
    sigmas = [float(s) for s in std_errors]
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
    q = min(max(eta / 1.5**m, 0.0), 1.0)
    return 1.5**m * math.sqrt(q * (1.0 - q) / realizations)


def decay_error_bound(budget: ErrorBudget, decay: float) -> float:
    """Systematic error bound on one decay from the implementation budget.

    sqrt(e_prep^2 (1 + 4 g) + e_clifford^2) for decay value g.
    """
    if not -ATOL <= decay <= 1.0 + ATOL:
        raise ValueError(f"decay value {decay} outside [0, 1]")
    return math.sqrt(budget.preparation**2 * (1.0 + 4.0 * decay) + budget.clifford**2)


class ExperimentCounts(NamedTuple):
    """(protocol experiments, full process-tomography experiments)."""

    protocol: int
    process_tomography: int


def experiment_counts(n: int, w: int, realizations: int) -> ExperimentCounts:
    """Experiments to cover every w-qubit subset, next to the tomography cost.

    N (n choose w) experiments measure every subset of w qubits; exhaustive
    process tomography of the same register needs N 2^(4n). Exact integers,
    no overflow.
    """
    if not 1 <= w <= n:
        raise ValueError(f"weight cutoff {w} out of range 1..{n}")
    if realizations < 0:
        raise ValueError("realization count cannot be negative")
    return ExperimentCounts(realizations * math.comb(n, w),
                            realizations * 2 ** (4 * n))


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
    channel_sampling: str = "exact",
) -> dict[tuple[int, ...], DecayEstimate]:
    """Monte-Carlo decay estimates for a subset and all its sub-subsets.

    Each realization prepares a computational-basis state (|0> on the
    measured qubits, an independent uniformly random bit on each of the
    others), conjugates the channel by a twirl assignment, and draws one
    measurement outcome bit per measured qubit from the exact outcome
    distribution of the resulting state. The recorded bit-vectors yield the
    decay of the full subset and of every smaller subset from the same
    realizations.

    ``assignment_order`` picks twirl assignments uniformly at random
    (``random``) or cycles the pool deterministically (``cyclic``).
    ``channel_sampling`` applies the channel exactly per shot (``exact``)
    or, for unitary ensembles only, draws one ensemble member per shot
    (``per-shot-ensemble``), which is unbiased but noisier.

    All randomness comes from a Philox stream keyed by ``seed``; the draws
    for realization i sit at fixed stream offsets, so estimates are
    reproducible and independent of any outer parallelism.
    """
    qs = tuple(sorted(_validate_subset(subset, channel.n)))
    n, m = channel.n, len(qs)
    if pool is None:
        pool = build_pool()
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if assignment_order not in ASSIGNMENT_ORDERS:
        raise ValueError(f"unknown assignment order {assignment_order!r}")
    if channel_sampling not in CHANNEL_SAMPLING_MODES:
        raise ValueError(f"unknown channel sampling mode {channel_sampling!r}")
    if channel_sampling == "per-shot-ensemble" and channel.kind != "unitary-ensemble":
        raise ValueError("per-shot sampling requires a unitary-ensemble channel")
    N, n_assign = plan.realizations, pool.size**m
    if n_assign > MAX_EXACT_ASSIGNMENTS:
        raise ValueError("assignment space too large to index; reduce the subset")

    rng = np.random.Generator(np.random.Philox(key=seed))

    # fixed draw order: complement flips, assignments, ensemble terms, outcome uniforms
    flips = rng.integers(0, 2 ** (n - m), size=N) if n > m else np.zeros(N, dtype=np.int64)
    if assignment_order == "random":
        assigns = rng.integers(0, n_assign, size=N)
    else:
        assigns = np.arange(N, dtype=np.int64) % n_assign
    if channel_sampling == "per-shot-ensemble":
        edges = np.cumsum([w for w, _ in channel.terms])
        terms = np.searchsorted(edges, rng.random(N) * edges[-1], side="right")
        terms = np.minimum(terms, len(edges) - 1)
        # one reduced map, and one table, per term
        term_lists = [((1.0, op),) for _, op in channel.terms]
    else:
        terms = np.zeros(N, dtype=np.int64)
        term_lists = [channel.terms]
    uniforms = rng.random(N)

    index = np.argsort(outcome_codes(n, qs), kind="stable").reshape(2**m, -1)
    superops = _local_superops(pool)
    drawn_flips = np.unique(flips)
    per_flip = max(2 ** (n + m), len(term_lists) * max(16**m, n_assign * 2**m))
    step = max(1, SAMPLED_BLOCK // per_flip)
    outcomes = np.empty(N, dtype=np.int64)
    for start in range(0, len(drawn_flips), step):
        block = drawn_flips[start:start + step]
        sel = np.flatnonzero((flips >= block[0]) & (flips <= block[-1]))
        maps = np.concatenate([_reduced_maps(t, index, block) for t in term_lists])
        cdf = np.cumsum(_twirl_tables(maps, superops, m), axis=-1).reshape(-1, 2**m)
        row = terms[sel] * len(block) + np.searchsorted(block, flips[sel])
        row = row * n_assign + assigns[sel]
        # entries of the shot's CDF at or below its uniform: searchsorted(side="right")
        drawn = sum(cdf[row, x] <= uniforms[sel] for x in range(2**m))
        outcomes[sel] = np.minimum(drawn, 2**m - 1)
        del cdf  # the next block's table is built without this one beside it
    return _readout(np.bincount(outcomes, minlength=2**m), qs, N)


def run_sampled_protocol(
    channel: QuantumChannel,
    subset,
    plan: SamplePlan,
    pool: CliffordPool | None = None,
    seed: int = 0,
    assignment_order: str = "random",
    channel_sampling: str = "exact",
) -> DecayEstimate:
    """Sampled decay of one subset (the full-subset entry of the campaign)."""
    qs = tuple(sorted(_validate_subset(subset, channel.n)))
    campaign = run_sampled_campaign(
        channel, qs, plan, pool, seed,
        assignment_order=assignment_order, channel_sampling=channel_sampling)
    return campaign[qs]
