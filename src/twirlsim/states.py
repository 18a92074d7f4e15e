"""Validated unitaries and channels on registers of up to 10 qubits.

The module also owns the low-level rules the other modules share: the finite
number rule, the register-size and qubit-subset checks, the bit order of
measurement outcomes, probability clamping, and ``apply_local``, the one
kernel that contracts an array one qubit's axis at a time.

Qubits are labelled 1..n, with qubit 1 the leftmost tensor factor (most
significant bit of the computational-basis index). All wrapper types are
immutable after construction and all operations are pure functions, so
values can be shared freely between threads.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

MAX_QUBITS = 10

#: tolerance for validity checks (unitarity, normalization, probabilities)
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


def _finite(text, kind: type = float) -> float | complex:
    """``kind(text)``, refusing NaN and infinite values: the package's one number rule."""
    value = kind(text)
    if not cmath.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, which the package has just built, marked read-only so that ``_freeze`` keeps it."""
    arr.setflags(write=False)
    return arr


def _freeze(data: np.ndarray) -> np.ndarray:
    """``data`` as a read-only complex array: kept if it already is one that owns its
    buffer, else copied, so that no later change to the caller's array can reach it."""
    if (isinstance(data, np.ndarray) and data.dtype == complex
            and not data.flags.writeable and data.flags.owndata):
        return data
    return _read_only(np.array(data, dtype=complex))


@dataclass(frozen=True)
class UnitaryMatrix:
    """A unitary on n qubits (U^dag U = I within Frobenius tolerance).

    A monomial matrix (one nonzero per row and per column, as a diagonal or
    a permutation is) has U^dag U = diag(|u_k|^2) over its nonzero entries,
    so its deviation is read from those in O(4^n). Any other matrix forms the
    dense product U^dag U.
    """

    data: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        arr = _freeze(self.data)
        n = _check_square_pow2(arr, "unitary")
        nonzero = arr != 0
        if (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all():
            # U^dag U is diagonal: each column's lone entry u gives conj(u) u, as a
            # 1x1 product so that an overflow reads as in the dense check
            col = arr[nonzero][:, None, None]
            dev = np.linalg.norm(col.conj() @ col - 1.0)
        else:
            dev = np.linalg.norm(arr.conj().T @ arr - np.eye(arr.shape[0]))
        if not dev <= ATOL:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "n", n)

    @classmethod
    def identity(cls, n: int) -> "UnitaryMatrix":
        return cls(_read_only(np.eye(2**n, dtype=complex)))


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
            if self.kind == "unitary-ensemble" and not isinstance(op, UnitaryMatrix):
                op = UnitaryMatrix(op)
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
        return cls.from_unitary(UnitaryMatrix.identity(n))


def _register_size(n: int) -> None:
    """Refuse a register size outside the supported 1..``MAX_QUBITS``."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"register size {n} out of range 1..{MAX_QUBITS}")


def _label(q) -> int:
    """Qubit label ``q`` as an int; a float, text or other non-integer is refused."""
    try:
        return int(operator.index(q))
    except TypeError:
        raise ValueError(f"qubit label {q!r} is not an integer") from None


def _validate_subset(subset: Iterable[int], n: int) -> tuple[int, ...]:
    """The labels of ``subset`` in ascending order: the package's one qubit-subset rule."""
    _register_size(n)
    qs = tuple(_label(q) for q in subset)
    if not qs:
        raise ValueError("qubit subset must be nonempty")
    if len(set(qs)) != len(qs):
        raise ValueError(f"duplicate qubit labels in {qs}")
    for q in qs:
        if not 1 <= q <= n:
            raise ValueError(f"qubit label {q} out of range 1..{n}")
    return tuple(sorted(qs))


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


def apply_local(mats: Sequence[np.ndarray], arr: np.ndarray) -> np.ndarray:
    """Contract the leading axes of ``arr`` in turn, axis i with the k' x k ``mats[i]``.

    Each k'-long result axis moves to the end: the 2-d result has rows over the
    untouched and earlier result axes, columns over the last. A 2x2 factor per
    qubit on 2^n rows costs O(2^n) per column, not a dense 2^n x 2^n product.
    """
    for mat in mats:
        arr = (mat @ arr.reshape(mat.shape[1], -1)).T
    return arr
