"""Slow, dense references for the decay engine, on plain arrays.

States are 2^n x 2^n density matrices and every operator is a dense Kronecker
product, so each function here follows its textbook definition term by term:
the twirl is the average over every pool assignment of C^dag S(C rho C^dag) C
(Emerson et al., "Symmetrized characterization of noisy quantum processes",
2007). ``per_shot_counts`` samples outcomes one shot at a time from those
same states. Nothing here comes from ``twirlsim.protocol``; the engine's
results are checked against these. ``compile_by_factors`` is the reference of
the pulse compiler: it applies one 2x2 factor per qubit for every pulse,
identities included.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

from twirlsim import (CliffordPool, Delay, QuantumChannel, UnitaryMatrix, hamiltonian_diagonal,
                      parse_pool)
from twirlsim.nmr import normalize_global_phase
from twirlsim.states import apply_local, dense

#: tolerance of the density-matrix checks on every twirled state
ATOL = 1e-9

SIGMAS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def minimal_pool_choices() -> list[tuple[str, str, str]]:
    """The 8 (symplectic, pauli1, pauli2) choices that define 6-element pools:
    one S half, one Pauli from {I, Z} and one from {X, Y}."""
    return [(s, p1, p2) for s in ("S1", "S2") for p1 in "IZ" for p2 in "XY"]


TEN_POOLS = [parse_pool("full-24"), parse_pool("half-12")] + [
    parse_pool(f"{s}:{p1}:{p2}") for s, p1, p2 in minimal_pool_choices()]


def kron(factors) -> np.ndarray:
    """Kronecker product of ``factors``, the first one leftmost."""
    return reduce(np.kron, factors, np.eye(1, dtype=complex))


def pauli(letters: str) -> np.ndarray:
    """Dense matrix of a Pauli string; letter i acts on qubit i + 1."""
    return kron(SIGMAS[c] for c in letters)


def pauli_strings(n: int) -> list[str]:
    """All 4^n strings on n qubits, lexicographic over I < X < Y < Z."""
    return ["".join(p) for p in itertools.product("IXYZ", repeat=n)]


def collective_by_labels(chi) -> dict:
    """Each support subset's chi weight, summed string by string in label order.

    Subsets appear in the order of their first string, and each sum starts at
    0.0 and adds its strings' entries in turn.
    """
    out: dict[tuple[int, ...], float] = {}
    for s, v in zip(pauli_strings(chi.n), chi.values.tolist()):
        support = tuple(i + 1 for i, c in enumerate(s) if c != "I")
        if support:
            out[support] = out.get(support, 0.0) + v
    return out


def decay_by_labels(chi, purities, subset) -> float:
    """Chi-diagonal decay prediction, added string by string in label order:
    each string's weight times the gap between the product of purities P and
    the product of 2/3 (1 - P/2) where it acts and P where it is the identity."""
    pure = math.prod(purities[q] for q in subset)
    total = 0.0
    for s, v in zip(pauli_strings(chi.n), chi.values.tolist()):
        twirled = math.prod(purities[q] if s[q - 1] == "I" else (2 / 3) * (1 - purities[q] / 2)
                            for q in subset)
        total += v * (pure - twirled)
    return total


def zero_mask(n: int, subset) -> np.ndarray:
    """True at each basis index where every qubit of ``subset`` reads 0."""
    if not all(1 <= q <= n for q in subset):
        raise ValueError(f"subset {subset} outside 1..{n}")
    idx = np.arange(2**n)
    return np.all([(idx >> (n - q)) & 1 == 0 for q in subset], axis=0)


def initial_state(n: int, subset) -> np.ndarray:
    """|0> on each qubit of ``subset``, maximally mixed on the rest."""
    return np.diag(zero_mask(n, subset) / 2.0 ** (n - len(subset))).astype(complex)


def projection(rho: np.ndarray, subset) -> float:
    """Tr[rho (|0..0><0..0|_subset x I_rest)]."""
    n = rho.shape[0].bit_length() - 1
    return float(np.diag(rho).real[zero_mask(n, subset)].sum())


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Reduced state on the ``keep`` qubits, in that order."""
    n = rho.shape[0].bit_length() - 1
    order = [q - 1 for q in keep] + [q for q in range(n) if q + 1 not in keep]
    t = rho.reshape((2,) * (2 * n)).transpose(order + [n + q for q in order])
    d, rest = 2 ** len(keep), 2 ** (n - len(keep))
    return np.einsum("ajbj->ab", t.reshape(d, rest, d, rest))


def check_density(rho: np.ndarray) -> np.ndarray:
    """``rho`` itself, asserted Hermitian, of unit trace and with no
    eigenvalue below -ATOL."""
    assert np.max(np.abs(rho - rho.conj().T)) <= ATOL, "not Hermitian"
    assert abs(np.trace(rho) - 1.0) <= ATOL, f"trace {np.trace(rho)} is not 1"
    assert np.min(np.linalg.eigvalsh(rho)) >= -ATOL, "negative eigenvalue"
    return rho


def apply_channel(channel: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """sum_k w_k A_k rho A_k^dag over the channel's terms."""
    return sum(w * (dense(op) @ rho @ dense(op).conj().T) for w, op in channel.terms)


def twirl(channel: QuantumChannel, subset, rho0: np.ndarray,
          pool: CliffordPool) -> np.ndarray:
    """(1/K^m) sum_k C_k^dag S(C_k rho0 C_k^dag) C_k over every assignment C_k
    of pool elements to the m qubits of ``subset``, identity elsewhere.

    Assignments are summed in the order of itertools.product over the pool,
    first qubit most significant; the result is checked to be a state.
    """
    n, qs = channel.n, sorted(subset)
    acc = 0.0
    for choice in itertools.product(pool.elements, repeat=len(qs)):
        ops = dict(zip(qs, (e.matrix for e in choice)))
        c = kron(ops.get(q, SIGMAS["I"]) for q in range(1, n + 1))
        acc = acc + c.conj().T @ apply_channel(channel, c @ rho0 @ c.conj().T) @ c
    return check_density(acc / pool.size ** len(qs))


def pool_projections(channel: QuantumChannel, subset) -> dict[str, float]:
    """Projection onto |0> of ``subset`` after the exact twirl with each of
    the ten pools, by pool label."""
    rho0 = initial_state(channel.n, subset)
    return {pool.label: projection(twirl(channel, subset, rho0, pool), subset)
            for pool in TEN_POOLS}


def shot_probabilities(terms, n: int, subset, pool: CliffordPool, assignments,
                       flips) -> np.ndarray:
    """(P, 2^m) outcome probabilities of the ``subset`` qubits, first qubit most
    significant, in C^dag S(C |0, f><0, f| C^dag) C for each of P pairs
    (assignment, flip f), with S = sum_t w_t A_t . A_t^dag over ``terms``.

    |0, f> is the f-th basis state, in ascending order, whose ``subset`` bits
    all read 0. Assignment k puts pool element digit i of k in base K on the
    i-th qubit of ``subset``, first most significant (the order of
    itertools.product over the pool), and the identity elsewhere. The state
    is pure before the channel, so each term's part of the diagonal is
    |C^dag A_t C |0, f>|^2.
    """
    qs, K = sorted(subset), pool.size
    m, P = len(qs), len(flips)
    elements = np.array([e.matrix for e in pool.elements])
    digits = np.asarray(assignments, dtype=np.int64)[:, None] // K ** np.arange(m - 1, -1, -1) % K
    c = np.ones((P, 1, 1), dtype=complex)
    for q in range(1, n + 1):
        local = elements[digits[:, qs.index(q)]] if q in qs else SIGMAS["I"][None]
        c = np.einsum("sij,skl->sikjl", c, np.broadcast_to(local, (P, 2, 2)))
        c = c.reshape(P, 2 * c.shape[1], 2 * c.shape[3])
    starts = np.flatnonzero(zero_mask(n, qs))[np.asarray(flips, dtype=np.int64)]
    psi = c[np.arange(P), :, starts]
    diag = sum(w * np.abs(np.einsum("sji,sj->si", c.conj(), psi @ dense(op).T)) ** 2
               for w, op in terms)
    codes = np.zeros(2**n, dtype=np.int64)
    for q in qs:
        codes = 2 * codes + ((np.arange(2**n) >> (n - q)) & 1)
    return diag @ (codes[:, None] == np.arange(2**m))


def per_shot_counts(channel: QuantumChannel, subset, realizations: int, pool: CliffordPool,
                    seed: int, order: str = "random", per_term: bool = False) -> np.ndarray:
    """Outcome counts over the ``subset`` bits, first qubit most significant, of
    ``realizations`` shots sampled one at a time.

    A Philox stream keyed by ``seed`` gives, in this order, an N-long array of
    each kind: the shot's flip f of the other qubits (uniform); its assignment
    (uniform under ``random`` order, shot i takes i mod K^m under ``cyclic``);
    with ``per_term``, one channel term drawn by weight, applied alone with
    weight 1; and a uniform u. The shot reads the outcome x that
    searchsorted(side="right") gives for u in the cumulative sum of its
    ``shot_probabilities``: the number of entries at or below u, clamped to
    2^m - 1.
    """
    n, qs = channel.n, sorted(subset)
    m, N, K = len(qs), realizations, pool.size ** len(qs)
    rng = np.random.Generator(np.random.Philox(key=seed))
    flips = rng.integers(0, 2 ** (n - m), size=N) if n > m else np.zeros(N, dtype=np.int64)
    assigns = rng.integers(0, K, size=N) if order == "random" else np.arange(N) % K
    terms = np.full(N, -1)
    if per_term:
        edges = np.cumsum([w for w, _ in channel.terms])
        terms = np.searchsorted(edges, rng.random(N) * edges[-1], side="right")
        terms = np.minimum(terms, len(edges) - 1)
    uniforms = rng.random(N)
    counts = np.zeros(2**m, dtype=np.int64)
    for t in np.unique(terms):
        ops = channel.terms if t < 0 else [(1.0, channel.terms[t][1])]
        shots = np.flatnonzero(terms == t)
        pairs, row = np.unique(np.stack([assigns[shots], flips[shots]], axis=1), axis=0,
                               return_inverse=True)
        cdf = np.cumsum(shot_probabilities(ops, n, qs, pool, *pairs.T), axis=1)[row.ravel()]
        hits = (cdf <= uniforms[shots, None]).sum(axis=1)
        counts += np.bincount(np.minimum(hits, 2**m - 1), minlength=2**m)
    return counts


def compile_by_factors(events, h) -> UnitaryMatrix:
    """Propagator of the ``Delay`` and ``Pulse`` events under ``h``, earliest first,
    with its global phase normalized as ``compile_sequence`` does.

    A delay multiplies the rows by the phases of the diagonal Hamiltonian. A
    pulse hands ``apply_local`` one 2x2 factor per qubit of the register: its
    rotation on the qubits it names and the identity on the others.
    """
    n = h.n
    hdiag = hamiltonian_diagonal(h)
    total = np.eye(2**n, dtype=complex)
    for ev in events:
        if isinstance(ev, Delay):
            total = np.exp(-1j * hdiag * ev.tau)[:, None] * total
            continue
        sigma = (-1.0 if ev.axis[0] == "-" else 1.0) * SIGMAS[ev.axis[1].upper()]
        half = ev.angle / 2.0
        rotation = math.cos(half) * SIGMAS["I"] - 1j * math.sin(half) * sigma
        factors = [rotation if q in ev.qubits else SIGMAS["I"] for q in range(1, n + 1)]
        total = apply_local(factors, total).reshape(2**n, 2**n).T
    return UnitaryMatrix(normalize_global_phase(total))
