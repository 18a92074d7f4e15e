"""Pauli strings and the exact chi-matrix-diagonal oracle.

Strings are written left to right for qubits 1..n ("ZX" puts Z on qubit 1,
X on qubit 2); the chi diagonal lists them in lexicographic order over the
alphabet I < X < Y < Z. The diagonal of a channel's chi matrix in this basis
is the ground truth every protocol estimate is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .states import (
    ATOL, QuantumChannel, _integer, _register_size, _validate_subset, apply_local, dense)

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE_QUBIT_PAULIS: dict[str, np.ndarray] = {
    "I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z,
}

#: magnitude below which a rounding-induced negative value is clamped to 0
CLAMP_TOL = 1e-12

#: the chi diagonal holds 4^n validated entries; keep the oracle at desk scale
MAX_CHI_QUBITS = 6


#: sigma^T of I, X, Y, Z flattened over one qubit's (row, column) bits
_PAULI_ROWS = np.array([SINGLE_QUBIT_PAULIS[c].T.ravel() for c in "IXYZ"])


def _letters(k, n: int) -> tuple:
    """Letters (I, X, Y, Z as 0..3) on qubits 1..n of the string, or strings,
    at label-order index ``k``: the base-4 digits of k, qubit 1 the highest."""
    return np.unravel_index(k, (4,) * n)


def _clamp(values, label) -> np.ndarray:
    """``values`` as a read-only float array, with rounding negatives set to 0.

    A non-finite entry, or one below ``-CLAMP_TOL``, is an error that names
    ``label(k)`` for its index k.
    """
    arr = np.array(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(arr) | (arr < -CLAMP_TOL))
    if bad.size:
        k = bad[0]
        if not np.isfinite(arr[k]):
            raise ValueError(f"entry {label(k)}: {float(arr[k])} is not finite")
        raise ValueError(f"entry {label(k)} is negative beyond rounding: {float(arr[k])}")
    arr = np.where(arr < 0.0, 0.0, arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ChiDiagonal:
    """Mean squared expansion weight of each Pauli string, as a 4^n array.

    ``values[k]`` belongs to the k-th label in lexicographic order over
    I < X < Y < Z, qubit 1 leftmost; ``chi[label]`` reads one entry by its
    label. ``trace_preserving`` records whether the entries sum to 1; the
    normalization invariant is only enforced when it is set.
    """

    n: int
    values: np.ndarray
    trace_preserving: bool = True

    def __post_init__(self) -> None:
        _register_size(self.n)
        if np.shape(self.values) != (4**self.n,):
            raise ValueError(f"chi diagonal on {self.n} qubits needs {4**self.n} entries, "
                             f"got shape {np.shape(self.values)}")
        arr = _clamp(self.values, lambda k: "".join("IXYZ"[d] for d in _letters(k, self.n)))
        total = float(arr.sum())
        if self.trace_preserving and not abs(total - 1.0) <= ATOL:
            raise ValueError(f"chi diagonal sums to {total}, expected 1")
        object.__setattr__(self, "values", arr)

    def __getitem__(self, label: str) -> float:
        if not isinstance(label, str) or len(label) != self.n or not set(label) <= set("IXYZ"):
            raise ValueError(f"{label!r} is not a Pauli string on {self.n} qubits")
        return float(self.values.reshape((4,) * self.n)[tuple(map("IXYZ".index, label))])


@dataclass(frozen=True)
class CollectiveCoefficients:
    """Chi weight per qubit subset, direction-blind.

    Each entry sums every chi-diagonal value whose non-identity support is
    exactly that subset; the identity string is excluded. A valid subset the
    table does not hold reads 0.
    """

    n: int
    values: Mapping[tuple[int, ...], float]

    def __post_init__(self) -> None:
        _register_size(self.n)
        clean: dict[tuple[int, ...], float] = {}
        for subset, v in self.values.items():
            qs = _validate_subset(subset, self.n)
            if qs in clean:
                raise ValueError(f"subset {qs} is given twice")
            clean[qs] = v
        arr = _clamp(list(clean.values()), lambda k: str(list(clean)[k]))
        object.__setattr__(self, "values", dict(zip(clean, arr.tolist())))

    def __getitem__(self, subset: Iterable[int]) -> float:
        return self.values.get(_validate_subset(subset, self.n), 0.0)

    def max_at_weight(self, low: int, high: int) -> float:
        vals = [v for s, v in self.values.items() if low <= len(s) <= high]
        return max(vals, default=0.0)


def chi_diagonal(channel: QuantumChannel) -> ChiDiagonal:
    """Exact chi-matrix diagonal of a channel by trace inner products.

    Entry for string s is sum_k w_k |Tr[P_s A_k]|^2 / D^2 over the channel
    terms. For a single unitary these are the squared moduli of its
    Pauli-expansion coefficients. The traces of all 4^n strings come from
    one 4 x 4 contraction per qubit over its (row, column) bits, a
    tensorized Pauli decomposition, already in label order. Summation order
    is fixed, so the result is deterministic however callers parallelize
    around it.

    This is the one consumer that writes a ``Monomial`` term out as a dense
    array: the 4^n table already costs more, and at the n <= 6 cap the
    matrix is at most 64 KB.
    """
    n = channel.n
    if n > MAX_CHI_QUBITS:
        raise ValueError(
            f"chi diagonal on {n} qubits needs {4**n} entries; limit is {MAX_CHI_QUBITS} qubits")
    acc = np.zeros(4**n)
    for w, op in channel.terms:
        # (row, column) bit pairs of qubits 1..n; the letters come out in order
        t = dense(op).reshape((2,) * (2 * n)).transpose([a for q in range(n) for a in (q, n + q)])
        acc += w * np.abs(apply_local([_PAULI_ROWS] * n, t).reshape(-1)) ** 2
    acc /= 4**n
    return ChiDiagonal(n, acc, trace_preserving=abs(float(acc.sum()) - 1.0) <= ATOL)


def collective_coefficients(chi: ChiDiagonal) -> CollectiveCoefficients:
    """Coarse-grain a chi diagonal over Pauli directions, per support subset.

    ``np.bincount`` adds each subset's entries in label order, and the table
    lists the subsets in the order their first string appears there.
    """
    n = chi.n
    support = sum((d != 0) << (n - q) for q, d in enumerate(_letters(np.arange(4**n), n), 1))
    sums = np.bincount(support, weights=chi.values, minlength=2**n).tolist()
    return CollectiveCoefficients(n, {
        tuple(q for q in range(1, n + 1) if mask >> (n - q) & 1): sums[mask]
        for mask in range(1, 2**n)})


def max_weight_coefficient(chi: ChiDiagonal, above: int) -> float:
    """Largest collective coefficient on any subset of more than ``above`` qubits."""
    above = _integer(above, "weight cutoff")
    if not 0 <= above <= chi.n:
        raise ValueError(f"weight cutoff {above} out of range 0..{chi.n}")
    cc = collective_coefficients(chi)
    return cc.max_at_weight(above + 1, chi.n)
