import itertools
import re

import numpy as np
import pytest

from twirlsim import (
    CliffordPool,
    QuantumChannel,
    cnot_gate,
    parse_pool,
)
from twirlsim.cli import ExperimentConfig
from twirlsim.cliffords import DEFAULT_POOL
from conftest import random_unitary, random_unitary_ensemble
from reference import (TEN_POOLS, initial_state, minimal_pool_choices, partial_trace,
                       pool_projections, projection, twirl)

SIGMAS = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


class TestEnumeration:
    def test_count_is_24(self):
        assert len(parse_pool("full-24").elements) == 24

    def test_contains_identity(self):
        els = parse_pool("full-24").elements
        ident = [e for e in els if e.symplectic == "S1.0" and e.pauli == "I"]
        assert len(ident) == 1
        assert np.allclose(ident[0].matrix, np.eye(2))

    def test_pairwise_distinct_up_to_phase(self):
        els = parse_pool("full-24").elements
        for a, b in itertools.combinations(els, 2):
            overlap = abs(np.trace(a.matrix.conj().T @ b.matrix)) / 2
            assert overlap < 1 - 1e-9, f"{a.symplectic}*{a.pauli} ~ {b.symplectic}*{b.pauli}"

    def test_conjugation_closure(self):
        # every element maps each sigma to a signed sigma
        for el in parse_pool("full-24").elements:
            for name, sigma in SIGMAS.items():
                conj = el.matrix @ sigma @ el.matrix.conj().T
                matches = [abs(np.trace(other @ conj) / 2)
                           for other in SIGMAS.values()]
                assert max(matches) == pytest.approx(1.0, abs=1e-9), (
                    f"{el.symplectic}*{el.pauli}", name)

    def test_inverse_matrix(self):
        for el in parse_pool("full-24").elements:
            assert np.allclose(el.matrix.conj().T @ el.matrix, np.eye(2))

    def test_conjugation_is_signed_permutation(self):
        for el in parse_pool("full-24").elements:
            images = []
            for sigma in SIGMAS.values():
                conj = el.matrix @ sigma @ el.matrix.conj().T
                hits = [idx for idx, other in enumerate(SIGMAS.values())
                        if abs(abs(np.trace(other @ conj) / 2) - 1) < 1e-9]
                assert len(hits) == 1
                images.append(hits[0])
            assert sorted(images) == [0, 1, 2]


class TestPools:
    def test_full_pool(self):
        assert parse_pool("full-24").size == 24

    def test_half_pool(self):
        for sym in ("S1", "S2"):
            pool = parse_pool(f"half-12:{sym}")
            assert pool.size == 12
            assert all(e.symplectic.startswith(sym) for e in pool.elements)

    def test_minimal_pool_structure(self):
        pool = parse_pool("S1:I:X")
        assert pool.size == 6
        assert {e.pauli for e in pool.elements} == {"I", "X"}

    def test_exactly_eight_minimal_pools(self):
        choices = minimal_pool_choices()
        assert len(choices) == 8
        labels = {parse_pool(f"{s}:{p1}:{p2}").label
                  for s, p1, p2 in choices}
        assert len(labels) == 8

    def test_invalid_choice_rejected(self):
        for text, message in [
                ("S3:I:X", "symplectic half must be S1 or S2, got 'S3'"),
                ("half-12:S3", "symplectic half must be S1 or S2, got 'S3'"),
                ("S1:X:Y", re.escape("pauli pair must combine one of ('I', 'Z') with one of "
                                     "('X', 'Y'), got ('X', 'Y')")),
                ("minimal-7", "cannot parse pool description 'minimal-7'")]:
            with pytest.raises(ValueError, match=message):
                parse_pool(text)

    @pytest.mark.parametrize("index", range(len(TEN_POOLS)), ids=lambda i: TEN_POOLS[i].label)
    def test_label_names_the_same_pool(self, index):
        pool = TEN_POOLS[index]
        again = parse_pool(pool.label)
        assert again.label == pool.label
        assert len(again.elements) == pool.size
        assert all(a is b for a, b in zip(again.elements, pool.elements))

    @pytest.mark.parametrize("text, order", [
        ("S1:I:X", "S1.0 I, S1.0 X, S1.1 I, S1.1 X, S1.2 I, S1.2 X"),
        ("S2:Z:Y", "S2.x Y, S2.x Z, S2.y Y, S2.y Z, S2.z Y, S2.z Z"),
        ("half-12:S2", "S2.x I, S2.x X, S2.x Y, S2.x Z, S2.y I, S2.y X, S2.y Y, S2.y Z, "
                       "S2.z I, S2.z X, S2.z Y, S2.z Z"),
    ])
    def test_elements_keep_group_order(self, text, order):
        # cyclic order and the pinned draws read assignments by row
        assert ", ".join(f"{e.symplectic} {e.pauli}" for e in parse_pool(text).elements) == order

    def test_default_is_the_cli_default(self):
        assert parse_pool().label == DEFAULT_POOL == ExperimentConfig().pool

    def test_parse_pool(self):
        assert parse_pool("full-24").size == 24
        assert parse_pool("half-12:S2").label == "half-12:S2"
        assert parse_pool("S2:Z:Y").label == "S2:Z:Y"
        with pytest.raises(ValueError):
            parse_pool("garbage")

    @pytest.mark.parametrize("text", ["half-12foo", "half-12:S1:junk", "full-24:S1"])
    def test_parse_pool_takes_only_exact_forms(self, text):
        with pytest.raises(ValueError):
            parse_pool(text)

    def test_superops_built_once_per_pool_object(self):
        # every campaign on a pool reads one read-only array; a pool that a
        # caller builds under another pool's label keeps its own coefficients
        pool = parse_pool()
        assert pool.superops is pool.superops
        assert not pool.superops.flags.writeable
        assert pool.superops.shape == (2 * pool.size, 16)
        impostor = CliffordPool(parse_pool("S2:I:X").elements, pool.label)
        assert not np.array_equal(impostor.superops, pool.superops)
        assert np.array_equal(impostor.superops, parse_pool("S2:I:X").superops)


class TestTwirlExact:
    def test_identity_channel_fixed_point(self, rng):
        rho0 = initial_state(2, [1, 2])
        out = twirl(QuantumChannel.identity(2), [1, 2], rho0, parse_pool())
        assert np.max(np.abs(out - rho0)) < 1e-12

    def test_cnot_projection(self):
        # combined decay derived from the chi weights: (8/9 + 2/3 + 2/3) / 4
        ch = QuantumChannel.from_unitary(cnot_gate(1, 2, n=2))
        rho1 = twirl(ch, [1, 2], initial_state(2, [1, 2]), parse_pool())
        assert projection(rho1, [1, 2]) == pytest.approx(1 - 5 / 9, abs=1e-12)

    def test_single_qubit_depolarizing_rate(self):
        p = 0.3
        terms = [(1 - p, np.eye(2, dtype=complex))]
        terms += [(p / 3, SIGMAS[k]) for k in ("X", "Y", "Z")]
        ch = QuantumChannel.unitary_ensemble(terms)
        rho1 = twirl(ch, [1], initial_state(1, [1]), parse_pool())
        assert 1 - projection(rho1, [1]) == pytest.approx(2 * p / 3, abs=1e-12)

    def test_half_pools_reproduce_full_group_state(self, rng):
        ch = random_unitary_ensemble(2, 3, rng)
        rho0 = initial_state(2, [1, 2])
        full = twirl(ch, [1, 2], rho0, parse_pool("full-24"))
        for sym in ("S1", "S2"):
            half = twirl(ch, [1, 2], rho0, parse_pool(f"half-12:{sym}"))
            assert np.max(np.abs(full - half)) < 1e-12

    def test_full_group_depolarizes_measured_qubit(self, rng):
        # n=2, twirl one qubit: its reduced output stays diagonal in the
        # preparation eigenbasis for any channel (mixing weight may be
        # negative for very noisy channels, so no ordering of populations)
        for _ in range(3):
            ch = random_unitary_ensemble(2, 3, rng)
            rho1 = twirl(ch, [1], initial_state(2, [1]), parse_pool("full-24"))
            assert abs(partial_trace(rho1, [1])[0, 1]) < 1e-9

    def test_minimal_pools_agree_on_projection_only(self, rng):
        ch = random_unitary_ensemble(1, 2, rng)
        probs = []
        for s, p1, p2 in minimal_pool_choices():
            pool = parse_pool(f"{s}:{p1}:{p2}")
            probs.append(projection(twirl(ch, [1], initial_state(1, [1]), pool), [1]))
        assert max(probs) - min(probs) < 1e-9

    def test_linear_in_channel_mixture(self, rng):
        u1 = random_unitary(4, rng)
        u2 = random_unitary(4, rng)
        lam = 0.35
        rho0 = initial_state(2, [1, 2])
        pool = parse_pool()
        mixed = twirl(QuantumChannel.unitary_ensemble([(lam, u1), (1 - lam, u2)]),
                      [1, 2], rho0, pool)
        t1 = twirl(QuantumChannel.from_unitary(u1), [1, 2], rho0, pool)
        t2 = twirl(QuantumChannel.from_unitary(u2), [1, 2], rho0, pool)
        assert np.max(np.abs(mixed - lam * t1 - (1 - lam) * t2)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            twirl(QuantumChannel.identity(2), [1], np.eye(2) / 2, parse_pool())


class TestPoolEquivalence:
    def test_identity_channel(self):
        probs = pool_projections(QuantumChannel.identity(2), [1, 2])
        assert len(probs) == 10
        assert all(p == pytest.approx(1.0, abs=1e-12) for p in probs.values())

    def test_cnot(self):
        ch = QuantumChannel.from_unitary(cnot_gate(1, 2, n=2))
        for p in pool_projections(ch, [1, 2]).values():
            assert p == pytest.approx(1 - 5 / 9, abs=1e-9)

    def test_seeded_random_unitary(self, rng):
        ch = QuantumChannel.from_unitary(random_unitary(4, rng))
        probs = pool_projections(ch, [1, 2]).values()
        assert max(probs) - min(probs) < 1e-9
