"""Fidelity-decay measurement and its combination into correlation coefficients.

The workflow: prepare |0> on the measured qubits and maximally mixed
elsewhere, twirl the channel under test with a Clifford pool, and read the
probability that every measured qubit still returns 0. One minus that
probability is the decay for the measured subset. Decays taken over all
nonempty sub-subsets of a target set combine, inclusion-exclusion style,
into the channel's collective coefficient on exactly that set (plus any
higher-weight tail the channel carries).

Both modes share one engine: per twirl assignment, outcome tables of the
measured qubits built with local 2x2 operators, and one readout of every
sub-decay from an outcome histogram. Exact mode averages the tables over
every assignment; sampled mode is the shot-by-shot Monte Carlo variant
whose statistics follow Bernoulli bounds. Sampled draws come from a
counter-based generator keyed by the seed, so realization i sees the same
randomness no matter how the surrounding work is scheduled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .cliffords import CliffordPool, MAX_EXACT_ASSIGNMENTS, assignment_ops, build_pool
from .paulis import ChiDiagonal
from .states import (
    ATOL,
    DensityMatrix,
    QuantumChannel,
    _validate_subset,
    apply_local,
    checked_probability,
    outcome_codes,
    protocol_initial_state,  # noqa: F401  (part of this module's API)
)

#: decays with |M| beyond this are out of exact-mode scope
MAX_EXACT_SUBSET = 3


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
        floor = math.log(2.0 / self.epsilon) / (2.0 * self.delta**2)
        if self.realizations < math.ceil(floor - 1e-9):
            raise ValueError(
                f"{self.realizations} realizations fall below the "
                f"concentration bound {math.ceil(floor)}")


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
    return SamplePlan(delta, 2.0 * math.exp(-2.0), realizations, "tie")


@dataclass(frozen=True)
class ErrorBudget:
    """Systematic error levels: state preparation and twirl-gate accuracy."""

    preparation: float = 0.0
    clifford: float = 0.0

    def __post_init__(self) -> None:
        for name, v in (("preparation", self.preparation), ("clifford", self.clifford)):
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} error must be finite and nonnegative, got {v}")


def _outcome_table(
    channel: QuantumChannel, qs: tuple[int, ...], ops: dict[int, np.ndarray],
    flips: np.ndarray, terms: Iterable[tuple[float, np.ndarray]],
) -> np.ndarray:
    """(F, 2^m) distributions of the bits of ``qs`` (first most significant)
    after C^dag S(C |0_M, f><0_M, f| C^dag) C, one row per f in ``flips``.

    C applies ``ops`` on ``qs``; f sets the other qubits' bits, first one
    most significant; S is the operator list ``terms``, one product each.
    """
    n, m = channel.n, len(qs)
    complement = tuple(q - 1 for q in range(1, n + 1) if q not in qs)
    # basis states with every measured bit 0, in complement-bit order
    rows = np.flatnonzero(outcome_codes(n, qs) == 0)[flips]
    start = np.zeros((2**n, len(flips)), dtype=complex)
    start[rows, np.arange(len(flips))] = 1.0
    psi = apply_local(ops, n, start)
    inverse = {q: op.conj().T for q, op in ops.items()}
    table = np.zeros((2**m, len(flips)))
    for w, op in terms:
        probs = np.abs(apply_local(inverse, n, op @ psi)) ** 2
        marginal = probs.reshape((2,) * n + (-1,)).sum(axis=complement)
        table += w * marginal.reshape(2**m, -1)
    return table.T


def _readout(weights: np.ndarray, qs: tuple[int, ...], realizations: int
             ) -> dict[tuple[int, ...], DecayEstimate]:
    """Decay of every nonempty part of ``qs`` from one outcome histogram.

    ``weights`` are shot counts (``realizations`` = N) or summed outcome
    tables (0), indexed like ``_outcome_table`` columns.
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
    flips = np.arange(2 ** (channel.n - len(qs)))
    weights = np.zeros(2 ** len(qs))
    for index in range(pool.size ** len(qs)):
        ops = assignment_ops(pool, qs, index)
        weights += _outcome_table(channel, qs, ops, flips, channel.terms).sum(axis=0)
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
    if plan.realizations <= 0:
        raise ValueError("sampling needs a positive realization count")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if assignment_order not in ("random", "cyclic"):
        raise ValueError(f"unknown assignment order {assignment_order!r}")
    if channel_sampling not in ("exact", "per-shot-ensemble"):
        raise ValueError(f"unknown channel sampling mode {channel_sampling!r}")
    if channel_sampling == "per-shot-ensemble" and channel.kind != "unitary-ensemble":
        raise ValueError("per-shot sampling requires a unitary-ensemble channel")
    if pool.size**m > MAX_EXACT_ASSIGNMENTS:
        raise ValueError("assignment space too large to index; reduce the subset")

    N = plan.realizations
    n_assign = pool.size**m
    rng = np.random.Generator(np.random.Philox(key=seed))

    # fixed draw order: complement flips, assignments, ensemble terms, outcome uniforms
    flips = rng.integers(0, 2 ** (n - m), size=N) if n > m else np.zeros(N, dtype=np.int64)
    if assignment_order == "random":
        assigns = rng.integers(0, n_assign, size=N)
    else:
        assigns = np.arange(N, dtype=np.int64) % n_assign
    if channel_sampling == "per-shot-ensemble":
        weights = np.array([w for w, _ in channel.terms])
        edges = np.cumsum(weights)
        terms = np.searchsorted(edges, rng.random(N) * edges[-1], side="right")
        terms = np.minimum(terms, len(weights) - 1)
    else:
        terms = np.zeros(N, dtype=np.int64)
    uniforms = rng.random(N)

    per_shot = channel_sampling == "per-shot-ensemble"
    n_terms = len(channel.terms) if per_shot else 1
    group_key = assigns * n_terms + terms
    outcomes = np.empty(N, dtype=np.int64)
    for key in np.unique(group_key):
        sel = np.flatnonzero(group_key == key)
        a, term = divmod(int(key), n_terms)
        applied = ((1.0, channel.terms[term][1]),) if per_shot else channel.terms
        shot_flips, row = np.unique(flips[sel], return_inverse=True)
        table = _outcome_table(channel, qs, assignment_ops(pool, qs, a), shot_flips, applied)
        cdf = np.cumsum(table, axis=1)
        # entries of the shot's CDF at or below its uniform: searchsorted(side="right")
        drawn = np.count_nonzero(cdf[row] <= uniforms[sel, None], axis=1)
        outcomes[sel] = np.minimum(drawn, 2**m - 1)
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
