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


def _check_square_pow2(data, what: str) -> int:
    """The qubit count of ``data``, a 2^n x 2^n array or ``Monomial``, read from its shape."""
    shape = data.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionError(f"{what} must be a square matrix, got shape {shape}")
    dim = shape[0]
    n = dim.bit_length() - 1
    if dim != 2**n:
        raise DimensionError(f"{what} dimension {dim} is not a power of two")
    if n > MAX_QUBITS:
        raise DimensionError(f"{what} spans {n} qubits, limit is {MAX_QUBITS}")
    return n


def _finite(text, kind: type = float) -> float | complex:
    """``kind(text)``, refusing NaN, infinite values and what is not a number, a
    Python or NumPy bool included: the package's one number rule."""
    if isinstance(text, (bool, np.bool_)):
        raise ValueError(f"{text!r} is not a number")
    try:
        value = kind(text)
    except TypeError as exc:
        raise ValueError(f"{text!r} is not a number") from exc
    if not cmath.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, which the package has just built, marked read-only so that ``_freeze`` keeps it."""
    arr.setflags(write=False)
    return arr


def _freeze(data, dtype: type = complex) -> np.ndarray:
    """``data`` as a read-only ``dtype`` array: kept if it already is one that owns its
    buffer, else copied, so that no later change to the caller's array can reach it."""
    if (isinstance(data, np.ndarray) and data.dtype == dtype
            and not data.flags.writeable and data.flags.owndata):
        return data
    return _read_only(np.array(data, dtype=dtype))


@dataclass(frozen=True, eq=False)
class Monomial:
    """A matrix with one nonzero per column: ``phases[c]`` in row ``rows[c]`` of column c.

    Permutations and diagonals, and their products, are stored this way in
    O(2^n) memory; ``rows`` must be a permutation of 0..2^n - 1.
    """

    rows: np.ndarray
    phases: np.ndarray

    def __post_init__(self) -> None:
        if np.asarray(self.rows).dtype.kind not in "iu":
            raise ValueError("monomial rows must be integers")
        rows, phases = _freeze(self.rows, np.int64), _freeze(self.phases)
        if rows.ndim != 1 or phases.shape != rows.shape:
            raise DimensionError(f"monomial rows {rows.shape} and phases {phases.shape} "
                                 "must be vectors of one length")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "phases", phases)
        dim = 2 ** _check_square_pow2(self, "monomial matrix")
        if not (np.bincount(rows[(rows >= 0) & (rows < dim)], minlength=dim) == 1).all():
            raise ValueError("monomial rows are not a permutation")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows))


def dense(op) -> np.ndarray:
    """The 2^n x 2^n array of a ``UnitaryMatrix`` or a channel operator.

    A dense operator is returned as it is stored. A ``Monomial`` is written
    out into a new read-only array, O(4^n) memory: 16 MB at n = 10.
    """
    if isinstance(op, UnitaryMatrix):
        op = op.data
    if not isinstance(op, Monomial):
        return op
    mat = np.zeros(op.shape, dtype=complex)
    mat[op.rows, np.arange(len(op.rows))] = op.phases
    return _read_only(mat)


@dataclass(frozen=True)
class UnitaryMatrix:
    """A unitary on n qubits (U^dag U = I within Frobenius tolerance).

    A monomial unitary (one nonzero per row and per column, as a diagonal or
    a permutation is) is stored as a ``Monomial``, also when it is given as
    an array. U^dag U is then diag(|u_c|^2), so its deviation is read from
    the phases in O(2^n). Any other matrix is stored as a read-only array and
    forms the dense product U^dag U.
    """

    data: np.ndarray | Monomial
    n: int = field(init=False)

    def __post_init__(self) -> None:
        data = self.data
        if not isinstance(data, Monomial):
            arr = np.asarray(data, dtype=complex)
            _check_square_pow2(arr, "unitary")
            nonzero = arr != 0
            if (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all():
                rows = nonzero.argmax(axis=0)
                data = Monomial(_read_only(rows), _read_only(arr[rows, np.arange(len(rows))]))
            else:
                data = _freeze(arr)
                dev = np.linalg.norm(data.conj().T @ data - np.eye(data.shape[0]))
        n = _check_square_pow2(data, "unitary")
        if isinstance(data, Monomial):
            # each column's lone entry u gives conj(u) u, taken in row order as a 1x1
            # product so that an overflow reads as in the dense check
            by_row = np.empty_like(data.rows)
            by_row[data.rows] = np.arange(len(by_row))
            col = data.phases[by_row][:, None, None]
            dev = np.linalg.norm(col.conj() @ col - 1.0)
        if not dev <= ATOL:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "n", n)

    @classmethod
    def identity(cls, n: int) -> "UnitaryMatrix":
        return cls(Monomial(_read_only(np.arange(2**n)), _read_only(np.ones(2**n, dtype=complex))))


@dataclass(frozen=True)
class QuantumChannel:
    """A CP trace-preserving map stored as a weighted operator list.

    ``kind="unitary-ensemble"``: terms are (probability, unitary) pairs whose
    probabilities sum to 1; the map is the convex mixture of the unitaries.
    ``kind="kraus"``: weights are all 1 and the operators A_k satisfy
    sum_k A_k^dag A_k = I. An operator given as a ``UnitaryMatrix`` was
    checked when it was built and is stored as it is, not checked again.
    Each operator is a read-only array or a ``Monomial``; ``dense`` writes
    either out as an array.
    """

    terms: tuple[tuple[float, np.ndarray | Monomial], ...]
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
            if isinstance(op, UnitaryMatrix):
                op = op.data
            elif not isinstance(op, Monomial):
                op = _freeze(op)
            n_op = _check_square_pow2(op, "channel operator")
            if n is None:
                n = n_op
            elif n_op != n:
                raise DimensionError("channel operators have mixed dimensions")
            if not math.isfinite(w) or w < -ATOL:
                raise ValueError(f"channel weight {w} is not finite and nonnegative")
            frozen.append((float(w), op))
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
                if isinstance(op, Monomial):
                    # A^dag A of a monomial is diag(|a_c|^2)
                    acc[np.diag_indices(2**n)] += np.abs(op.phases) ** 2
                else:
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


def _integer(value, what: str) -> int:
    """``value`` as an int; a bool, float, text or other non-integer ``what`` is refused."""
    if not isinstance(value, bool):
        try:
            return int(operator.index(value))
        except TypeError:
            pass
    raise ValueError(f"{what} {value!r} is not an integer")


def _label(q) -> int:
    """Qubit label ``q`` as an int, by the integer rule."""
    return _integer(q, "qubit label")


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
    significant; 0 where every listed qubit reads 0. An (..., m) array of
    subsets gives one row of codes per subset, from one table of bits."""
    qs = np.asarray(subset, dtype=np.int64)
    bits = (np.arange(2**n) >> (n - qs[..., None])) & 1
    return (1 << np.arange(qs.shape[-1] - 1, -1, -1)) @ bits


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
