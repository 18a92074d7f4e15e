"""Shared generators for seeded randomized tests."""

from __future__ import annotations

import numpy as np
import pytest

from twirlsim import QuantumChannel, run_campaign


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR decomposition of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unitary_ensemble(n: int, max_terms: int, rng: np.random.Generator) -> QuantumChannel:
    k = int(rng.integers(1, max_terms + 1))
    weights = rng.random(k) + 0.1
    weights /= weights.sum()
    dim = 2**n
    return QuantumChannel.unitary_ensemble(
        [(float(w), random_unitary(dim, rng)) for w in weights])


def random_kraus_channel(n: int, max_ops: int, rng: np.random.Generator) -> QuantumChannel:
    k = int(rng.integers(2, max_ops + 1))
    dim = 2**n
    blocks = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
              for _ in range(k)]
    gram = sum(b.conj().T @ b for b in blocks)
    vals, vecs = np.linalg.eigh(gram)
    inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.conj().T
    return QuantumChannel.from_kraus([b @ inv_sqrt for b in blocks])


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    dim = 2**n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def exact_decay(channel: QuantumChannel, subset):
    """Exact decay of ``subset`` from a twirl of that subset alone."""
    qs = tuple(sorted(subset))
    return run_campaign(channel, qs)[qs]


def dedicated_decays(channel: QuantumChannel, subsets) -> dict:
    """Each subset's decay from its own twirl, keyed by the subset."""
    return {tuple(s): exact_decay(channel, s) for s in subsets}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
