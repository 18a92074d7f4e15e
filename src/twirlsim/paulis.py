"""Pauli strings and the exact chi-matrix-diagonal oracle.

Strings are written left to right for qubits 1..n ("ZX" puts Z on qubit 1,
X on qubit 2); the chi diagonal lists them in lexicographic order over the
alphabet I < X < Y < Z. The diagonal of a channel's chi matrix in this basis
is the ground truth every protocol estimate is checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .states import (
    ATOL, QuantumChannel, _finite, _register_size, _validate_subset, apply_local, content_lines)

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


@dataclass(frozen=True)
class PauliString:
    """A tensor product of I/X/Y/Z factors, one letter per qubit."""

    letters: str
    n: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.letters or any(c not in "IXYZ" for c in self.letters):
            raise ValueError(f"invalid Pauli string {self.letters!r}")
        object.__setattr__(self, "n", len(self.letters))

    @property
    def weight(self) -> int:
        """Number of non-identity factors."""
        return sum(1 for c in self.letters if c != "I")

    @property
    def support(self) -> tuple[int, ...]:
        """1-based labels of the qubits carrying a non-identity factor."""
        return tuple(i + 1 for i, c in enumerate(self.letters) if c != "I")

    def __str__(self) -> str:
        return self.letters


def pauli_weight(s: PauliString | str) -> int:
    """Count of non-identity letters (number of qubits the term touches)."""
    return PauliString(str(s)).weight


#: sigma^T of I, X, Y, Z flattened over one qubit's (row, column) bits
_PAULI_ROWS = np.array([SINGLE_QUBIT_PAULIS[c].T.ravel() for c in "IXYZ"])


def _parse_text(text: str, what: str, key) -> tuple[int, dict]:
    """The register size of an ``n <count>`` header, and the value of each
    ``<key> <value>`` row after it by ``key(<key>)``. A row that does not read
    in its form, or repeats a key, is an error that names the row."""
    lines = [(raw, line.split()) for raw, line in content_lines(text) if line]
    if not lines or len(lines[0][1]) != 2 or lines[0][1][0] != "n":
        raise ValueError(f"{what} text must start with an 'n <count>' line")

    def row(raw: str, tokens: list[str], form: str, read_key, read_value):
        try:
            left, right = tokens
            return read_key(left), read_value(right)
        except ValueError as exc:
            raise ValueError(f"{what} row {raw!r} is not {form}") from exc

    _, n = row(*lines[0], "'n <count>'", str, int)
    values: dict = {}
    for raw, tokens in lines[1:]:
        label, value = row(raw, tokens, "'<key> <value>'", key, float)
        if label in values:
            raise ValueError(f"repeated {what} row {raw!r}")
        values[label] = value
    return n, values


def _clamp(value: float, label: str) -> float:
    try:
        value = _finite(value)
    except ValueError as exc:
        raise ValueError(f"entry {label}: {exc}") from exc
    if value < 0.0:
        if value < -CLAMP_TOL:
            raise ValueError(f"entry {label} is negative beyond rounding: {value}")
        return 0.0
    return value


@dataclass(frozen=True)
class ChiDiagonal:
    """Map from Pauli-string label to its mean squared expansion weight.

    ``trace_preserving`` records whether the entries sum to 1; the
    normalization invariant is only enforced when it is set.
    """

    n: int
    values: Mapping[str, float]
    trace_preserving: bool = True

    def __post_init__(self) -> None:
        _register_size(self.n)
        clean: dict[str, float] = {}
        for key, v in self.values.items():
            lab = str(key)
            PauliString(lab)
            if len(lab) != self.n:
                raise ValueError(f"string {lab!r} does not span {self.n} qubits")
            clean[lab] = _clamp(v, lab)
        total = sum(clean.values())
        if self.trace_preserving and not abs(total - 1.0) <= ATOL:
            raise ValueError(f"chi diagonal sums to {total}, expected 1")
        object.__setattr__(self, "values", clean)

    def __getitem__(self, label: str) -> float:
        return self.values.get(label, 0.0)

    def total(self) -> float:
        return sum(self.values.values())

    def to_text(self) -> str:
        lines = [f"n {self.n}"]
        for lab in sorted(self.values):
            lines.append(f"{lab} {self.values[lab]:.12e}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ChiDiagonal":
        n, values = _parse_text(text, "chi", str)
        total = sum(values.values())
        return cls(n, values, trace_preserving=abs(total - 1.0) <= ATOL)


@dataclass(frozen=True)
class CollectiveCoefficients:
    """Chi weight per qubit subset, direction-blind.

    Each entry sums every chi-diagonal value whose non-identity support is
    exactly that subset; the identity string is excluded.
    """

    n: int
    values: Mapping[tuple[int, ...], float]

    def __post_init__(self) -> None:
        _register_size(self.n)
        clean: dict[tuple[int, ...], float] = {}
        for subset, v in self.values.items():
            qs = tuple(sorted(_validate_subset(subset, self.n)))
            if qs in clean:
                raise ValueError(f"subset {qs} is given twice")
            clean[qs] = _clamp(v, str(qs))
        object.__setattr__(self, "values", clean)

    def __getitem__(self, subset: Iterable[int]) -> float:
        return self.values.get(tuple(sorted(subset)), 0.0)

    def total(self) -> float:
        return sum(self.values.values())

    def max_at_weight(self, low: int, high: int) -> float:
        vals = [v for s, v in self.values.items() if low <= len(s) <= high]
        return max(vals, default=0.0)

    def to_text(self) -> str:
        lines = [f"n {self.n}"]
        for subset in sorted(self.values):
            key = ",".join(str(q) for q in subset)
            lines.append(f"{key} {self.values[subset]:.12e}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CollectiveCoefficients":
        n, values = _parse_text(text, "collective",
                                lambda key: tuple(sorted(int(q) for q in key.split(","))))
        return cls(n, values)


def chi_diagonal(channel: QuantumChannel) -> ChiDiagonal:
    """Exact chi-matrix diagonal of a channel by trace inner products.

    Entry for string s is sum_k w_k |Tr[P_s A_k]|^2 / D^2 over the channel
    terms. For a single unitary these are the squared moduli of its
    Pauli-expansion coefficients. The traces of all 4^n strings come from
    one 4 x 4 contraction per qubit over its (row, column) bits, a
    tensorized Pauli decomposition. Summation order is fixed, so the result
    is deterministic however callers parallelize around it.
    """
    n = channel.n
    if n > MAX_CHI_QUBITS:
        raise ValueError(
            f"chi diagonal on {n} qubits needs {4**n} entries; limit is {MAX_CHI_QUBITS} qubits")
    acc = np.zeros(4**n)
    for w, op in channel.terms:
        # (row, column) bit pairs of qubits 1..n; the letters come out in order
        t = op.reshape((2,) * (2 * n)).transpose([a for q in range(n) for a in (q, n + q)])
        acc += w * np.abs(apply_local([_PAULI_ROWS] * n, t).reshape(-1)) ** 2
    acc /= 4**n
    labels = ["".join(p) for p in itertools.product("IXYZ", repeat=n)]
    values = dict(zip(labels, acc.tolist()))
    return ChiDiagonal(n, values, trace_preserving=abs(float(acc.sum()) - 1.0) <= ATOL)


def collective_coefficients(chi: ChiDiagonal) -> CollectiveCoefficients:
    """Coarse-grain a chi diagonal over Pauli directions, per support subset."""
    out: dict[tuple[int, ...], float] = {}
    for lab, v in chi.values.items():
        support = PauliString(lab).support
        if not support:
            continue
        out[support] = out.get(support, 0.0) + v
    return CollectiveCoefficients(chi.n, out)


def max_weight_coefficient(chi: ChiDiagonal, above: int) -> float:
    """Largest collective coefficient on any subset of more than ``above`` qubits."""
    if not 0 <= above <= chi.n:
        raise ValueError(f"weight cutoff {above} out of range 0..{chi.n}")
    cc = collective_coefficients(chi)
    return cc.max_at_weight(above + 1, chi.n)
