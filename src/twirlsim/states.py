"""Dense density-matrix linear algebra for registers of up to 10 qubits.

Qubits are labelled 1..n, with qubit 1 the leftmost tensor factor (most
significant bit of the computational-basis index). All wrapper types are
immutable after construction and all operations are pure functions, so
values can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

MAX_QUBITS = 10

#: tolerance for validity checks (hermiticity, trace, unitarity, ...)
ATOL = 1e-9


class DimensionError(ValueError):
    """Raised when operands have incompatible or oversized dimensions."""


def _check_square_pow2(data: np.ndarray, what: str) -> int:
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise DimensionError(f"{what} must be a square matrix, got shape {data.shape}")
    dim = data.shape[0]
    n = dim.bit_length() - 1
    if dim != 2**n:
        raise DimensionError(f"{what} dimension {dim} is not a power of two")
    if n > MAX_QUBITS:
        raise DimensionError(f"{what} spans {n} qubits, limit is {MAX_QUBITS}")
    return n


def content_lines(text: str) -> list[tuple[str, str]]:
    """Each line of ``text`` with its text before any ``#`` comment, stripped."""
    return [(raw, raw.split("#", 1)[0].strip()) for raw in text.splitlines()]


def _freeze(data: np.ndarray) -> np.ndarray:
    arr = np.array(data, dtype=complex)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """A valid n-qubit density matrix (Hermitian, unit trace, PSD)."""

    data: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        arr = _freeze(self.data)
        n = _check_square_pow2(arr, "density matrix")
        if not np.max(np.abs(arr - arr.conj().T)) <= ATOL:
            raise ValueError("density matrix is not Hermitian")
        trace = np.trace(arr)
        if not (abs(trace.real - 1.0) <= ATOL and abs(trace.imag) <= ATOL):
            raise ValueError(f"density matrix trace {trace} is not 1")
        if np.min(np.linalg.eigvalsh(arr)) < -ATOL:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "n", n)

    @classmethod
    def computational_basis(cls, n: int, bits: int = 0) -> "DensityMatrix":
        """|bits><bits| with the bit of qubit 1 in the most significant position."""
        dim = 2**n
        if not 0 <= bits < dim:
            raise ValueError(f"basis index {bits} out of range for {n} qubits")
        arr = np.zeros((dim, dim), dtype=complex)
        arr[bits, bits] = 1.0
        return cls(arr)

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, n: int) -> "DensityMatrix":
        dim = 2**n
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def product(cls, factors: Sequence[np.ndarray]) -> "DensityMatrix":
        """Tensor product of single-qubit (or multi-qubit) density blocks."""
        out = np.array([[1.0 + 0j]])
        for f in factors:
            out = tensor(out, np.asarray(f, dtype=complex))
        return cls(out)


@dataclass(frozen=True)
class UnitaryMatrix:
    """A unitary on n qubits (U^dag U = I within Frobenius tolerance)."""

    data: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        arr = _freeze(self.data)
        n = _check_square_pow2(arr, "unitary")
        dev = np.linalg.norm(arr.conj().T @ arr - np.eye(arr.shape[0]))
        if not dev <= ATOL:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "n", n)

    @classmethod
    def identity(cls, n: int) -> "UnitaryMatrix":
        return cls(np.eye(2**n, dtype=complex))


@dataclass(frozen=True)
class QuantumChannel:
    """A CP trace-preserving map stored as a weighted operator list.

    ``kind="unitary-ensemble"``: terms are (probability, unitary) pairs whose
    probabilities sum to 1; the map is the convex mixture of the unitaries.
    ``kind="kraus"``: weights are all 1 and the operators A_k satisfy
    sum_k A_k^dag A_k = I. An operator given as a ``UnitaryMatrix`` was
    checked when it was built and is stored as it is, not checked again.
    """

    terms: tuple[tuple[float, np.ndarray], ...]
    kind: str
    n: int = field(init=False)

    def __post_init__(self) -> None:
        if self.kind not in ("unitary-ensemble", "kraus"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not self.terms:
            raise ValueError("channel needs at least one term")
        frozen = []
        n = None
        for w, op in self.terms:
            arr = op.data if isinstance(op, UnitaryMatrix) else _freeze(op)
            n_op = _check_square_pow2(arr, "channel operator")
            if n is None:
                n = n_op
            elif n_op != n:
                raise DimensionError("channel operators have mixed dimensions")
            if not math.isfinite(w) or w < -ATOL:
                raise ValueError(f"channel weight {w} is not finite and nonnegative")
            frozen.append((float(w), arr))
        assert n is not None
        if self.kind == "unitary-ensemble":
            total = sum(w for w, _ in frozen)
            if abs(total - 1.0) > ATOL:
                raise ValueError(f"ensemble weights sum to {total}, expected 1")
            for (_, arr), (_, op) in zip(frozen, self.terms):
                if not isinstance(op, UnitaryMatrix):
                    UnitaryMatrix(arr)
        else:
            acc = np.zeros((2**n, 2**n), dtype=complex)
            for w, op in frozen:
                if abs(w - 1.0) > ATOL:
                    raise ValueError("kraus terms must carry weight 1")
                acc += op.conj().T @ op
            if not np.max(np.abs(acc - np.eye(2**n))) <= ATOL:
                raise ValueError("kraus operators do not resolve the identity")
        object.__setattr__(self, "terms", tuple(frozen))
        object.__setattr__(self, "n", n)

    @classmethod
    def from_unitary(cls, op: np.ndarray | UnitaryMatrix) -> "QuantumChannel":
        return cls(((1.0, op),), "unitary-ensemble")

    @classmethod
    def unitary_ensemble(
        cls, pairs: Iterable[tuple[float, np.ndarray]]
    ) -> "QuantumChannel":
        return cls(tuple((float(w), op) for w, op in pairs), "unitary-ensemble")

    @classmethod
    def from_kraus(cls, ops: Iterable[np.ndarray]) -> "QuantumChannel":
        return cls(tuple((1.0, op) for op in ops), "kraus")

    @classmethod
    def identity(cls, n: int) -> "QuantumChannel":
        return cls.from_unitary(np.eye(2**n, dtype=complex))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square power-of-two matrices.

    Rejects results that would exceed the 10-qubit register cap.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    na = _check_square_pow2(a, "left factor") if a.shape != (1, 1) else 0
    nb = _check_square_pow2(b, "right factor") if b.shape != (1, 1) else 0
    if na + nb > MAX_QUBITS:
        raise DimensionError(f"tensor product spans {na + nb} qubits, limit is {MAX_QUBITS}")
    return np.kron(a, b)


def _validate_subset(subset: Iterable[int], n: int, *, allow_empty: bool = False) -> tuple[int, ...]:
    qs = tuple(int(q) for q in subset)
    if not qs and not allow_empty:
        raise ValueError("qubit subset must be nonempty")
    if len(set(qs)) != len(qs):
        raise ValueError(f"duplicate qubit labels in {qs}")
    for q in qs:
        if not 1 <= q <= n:
            raise ValueError(f"qubit label {q} out of range 1..{n}")
    return qs


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the ``keep`` qubits, tracing out the rest.

    ``keep`` orders the qubits of the result; labels are 1-based.
    """
    kept = _validate_subset(keep, rho.n)
    order = [q - 1 for q in kept] + [q - 1 for q in range(1, rho.n + 1) if q not in kept]
    # axes (row bits, column bits), kept qubits first in each
    tens = rho.data.reshape([2] * (2 * rho.n)).transpose(order + [rho.n + a for a in order])
    d, rest = 2 ** len(kept), 2 ** (rho.n - len(kept))
    return DensityMatrix(np.einsum("ajbj->ab", tens.reshape(d, rest, d, rest)))


def purity(rho: DensityMatrix) -> float:
    """Tr[rho^2], between 2^-n (maximally mixed) and 1 (pure)."""
    return float(np.trace(rho.data @ rho.data).real)


def apply_channel(channel: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Propagate ``rho`` through the channel: sum_k w_k A_k rho A_k^dag."""
    if channel.n != rho.n:
        raise DimensionError(
            f"channel acts on {channel.n} qubits, state has {rho.n}")
    return DensityMatrix(_apply_channel_raw(channel, rho.data))


def _apply_channel_raw(channel: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    return sum(w * (op @ rho @ op.conj().T) for w, op in channel.terms)


def outcome_codes(n: int, subset: Sequence[int]) -> np.ndarray:
    """Bits of ``subset`` in each n-qubit basis index, first qubit most
    significant; 0 where every listed qubit reads 0."""
    idx = np.arange(2**n)
    codes = np.zeros(2**n, dtype=np.int64)
    for q in subset:
        codes = (codes << 1) | ((idx >> (n - q)) & 1)
    return codes


def checked_probability(p: float) -> float:
    """``p`` clamped to [0, 1]; rounding beyond ATOL, or NaN, is an error."""
    if not -ATOL <= p <= 1.0 + ATOL:
        raise ValueError(f"projection probability {p} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def projection_probability(rho: DensityMatrix, subset: Iterable[int]) -> float:
    """Probability that every qubit in ``subset`` reads 0.

    Tr[rho (|0..0><0..0|_subset x I_rest)], clamped to [0, 1].
    """
    qs = _validate_subset(subset, rho.n)
    diag = np.diag(rho.data).real
    return checked_probability(float(diag[outcome_codes(rho.n, qs) == 0].sum()))


def protocol_initial_state(n: int, subset: Iterable[int]) -> DensityMatrix:
    """|0> on each measured qubit, maximally mixed on the rest."""
    qs = _validate_subset(subset, n)
    zero = outcome_codes(n, qs) == 0
    return DensityMatrix(np.diag(zero / 2.0 ** (n - len(qs))).astype(complex))


def apply_local(ops: Mapping[int, np.ndarray], n: int, arr: np.ndarray) -> np.ndarray:
    """(tensor of ``ops``) @ arr for 2x2 ``ops`` keyed by qubit, identity elsewhere.

    ``arr`` has 2^n rows; each operator is one reshape and matmul on its
    bit of the row index: O(2^n) per column, not a dense 2^n x 2^n product.
    """
    out = arr
    for q, op in ops.items():
        out = np.matmul(op, out.reshape(2 ** (q - 1), 2, -1))
    return out.reshape(arr.shape)
