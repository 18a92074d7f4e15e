"""Spin Hamiltonian, delay/pi-pulse sequences, and the built-in gate library.

The internal Hamiltonian is diagonal: per-qubit frequency offsets plus
pairwise zz couplings, both given in Hz. Matrices returned from
``hamiltonian_matrix`` are angular frequencies (rad/s); a 1 Hz offset on a
lone qubit gives diag(pi, -pi). Pulses are ideal, instantaneous rotations;
delays evolve under the internal Hamiltonian alone.

File formats:

* Hamiltonian preset, one entry per line and at most one per qubit or
  pair (``coupling 2 1`` repeats ``coupling 1 2``)::

      shift 1 6650.6
      coupling 1 2 72.6

* Pulse sequence, one event per line::

      delay 0.001525
      pulse 3,4 +x 3.141592653589793

Blank lines and ``#`` comments are ignored in both; an error names its line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .paulis import SINGLE_QUBIT_PAULIS
from .states import (
    MAX_QUBITS, UnitaryMatrix, _finite, _register_size, _validate_subset, apply_local,
    content_lines, outcome_codes)

PULSE_AXES = ("+x", "-x", "+y", "-y")

#: named register sizes this module ships parameters for
CROTONIC_QUBITS = 4


def _entries(path: str | Path, what: str, read):
    """Each line of a file that holds more than a comment, with ``read`` of its
    tokens. A ValueError raised while reading a line names it and keeps its reason."""
    for raw, line in content_lines(Path(path).read_text()):
        if line:
            try:
                entry = read(line.split())
            except ValueError as exc:
                raise ValueError(f"cannot parse {what} line {raw!r}: {exc}") from exc
            yield raw, entry


def _hamiltonian_entry(parts: list[str], n: int) -> tuple[str, int | tuple[int, int], float]:
    """(kind, key, value) of a ``shift`` or ``coupling`` line on an n-qubit register."""
    if parts[0] == "shift" and len(parts) == 3:
        return "shift", _validate_subset(parts[1:2], n)[0], _finite(parts[2])
    if parts[0] == "coupling" and len(parts) == 4:
        return "coupling", tuple(sorted(_validate_subset(parts[1:3], n))), _finite(parts[3])
    raise ValueError("expected 'shift <qubit> <Hz>' or 'coupling <qubit> <qubit> <Hz>'")


@dataclass(frozen=True)
class NmrHamiltonian:
    """Offsets and couplings of an n-spin register, in Hz."""

    n: int
    shifts_hz: Mapping[int, float]
    couplings_hz: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        _register_size(self.n)
        shifts = {_validate_subset((q,), self.n)[0]: float(v) for q, v in self.shifts_hz.items()}
        couplings: dict[tuple[int, int], float] = {}
        for pair, v in self.couplings_hz.items():
            j, k = sorted(_validate_subset(pair, self.n))
            if (j, k) in couplings and couplings[j, k] != float(v):
                raise ValueError(f"conflicting values for coupling {(j, k)}")
            couplings[j, k] = float(v)
        object.__setattr__(self, "shifts_hz", shifts)
        object.__setattr__(self, "couplings_hz", couplings)

    @classmethod
    def from_file(cls, path: str | Path, n: int | None = None) -> "NmrHamiltonian":
        # each line's labels are checked against n, or the largest register if n is not given
        bound = MAX_QUBITS if n is None else n
        tables: dict[str, dict] = {"shift": {}, "coupling": {}}
        entries = _entries(path, "Hamiltonian", lambda parts: _hamiltonian_entry(parts, bound))
        for raw, (kind, key, value) in entries:
            if key in tables[kind]:
                raise ValueError(f"repeated Hamiltonian entry in line {raw!r}")
            tables[kind][key] = value
        shifts, couplings = tables["shift"], tables["coupling"]
        qubits = set(shifts) | {q for pair in couplings for q in pair}
        return cls(max(qubits, default=1) if n is None else n, shifts, couplings)


def crotonic_preset() -> NmrHamiltonian:
    """The built-in 4-spin carbon register at a 400 MHz field."""
    return NmrHamiltonian(
        CROTONIC_QUBITS,
        shifts_hz={1: 6650.6, 2: 1695.8, 3: 4210.0, 4: -8796.7},
        couplings_hz={
            (1, 2): 72.6, (2, 3): 69.8, (1, 4): 7.1,
            (2, 4): 1.6, (1, 3): 1.3, (3, 4): 41.6,
        },
    )


def _z_signs(n: int, q: int) -> np.ndarray:
    """+1/-1 per basis state for the z operator of qubit q (MSB = qubit 1)."""
    return 1.0 - 2.0 * outcome_codes(n, [q])


def hamiltonian_diagonal(h: NmrHamiltonian) -> np.ndarray:
    """Diagonal of the internal Hamiltonian in rad/s."""
    diag = np.zeros(2**h.n)
    for q, f in h.shifts_hz.items():
        diag += math.pi * f * _z_signs(h.n, q)
    for (j, k), coupling in h.couplings_hz.items():
        diag += (math.pi * coupling / 2.0) * _z_signs(h.n, j) * _z_signs(h.n, k)
    return diag


def hamiltonian_matrix(h: NmrHamiltonian) -> np.ndarray:
    """Dense (real diagonal, traceless) Hamiltonian matrix in rad/s."""
    return np.diag(hamiltonian_diagonal(h))


def free_evolution(h: NmrHamiltonian, tau: float) -> UnitaryMatrix:
    """Propagator of a delay of ``tau`` seconds under the internal Hamiltonian."""
    if not tau > 0.0:
        raise ValueError(f"delay must be positive, got {tau}")
    return UnitaryMatrix(np.diag(np.exp(-1j * hamiltonian_diagonal(h) * tau)))


@dataclass(frozen=True)
class Delay:
    """Free evolution for ``tau`` seconds."""

    tau: float

    def __post_init__(self) -> None:
        if not self.tau > 0.0:
            raise ValueError(f"delay must be positive, got {self.tau}")


@dataclass(frozen=True)
class Pulse:
    """Instantaneous rotation of ``qubits`` about an x/y axis by ``angle``."""

    qubits: tuple[int, ...]
    axis: str
    angle: float

    def __post_init__(self) -> None:
        qubits = tuple(sorted(_validate_subset(self.qubits, MAX_QUBITS)))
        object.__setattr__(self, "qubits", qubits)
        if self.axis not in PULSE_AXES:
            raise ValueError(f"pulse axis must be one of {PULSE_AXES}, got {self.axis!r}")


def _event(parts: list[str]) -> Delay | Pulse:
    """The event of a ``delay`` or ``pulse`` line."""
    if parts[0] == "delay" and len(parts) == 2:
        return Delay(_finite(parts[1]))
    if parts[0] == "pulse" and len(parts) == 4:
        return Pulse(tuple(int(q) for q in parts[1].split(",")), parts[2], _finite(parts[3]))
    raise ValueError("expected 'delay <seconds>' or 'pulse <qubits> <axis> <radians>'")


@dataclass(frozen=True)
class PulseSequence:
    """Time-ordered delays and pulses; total duration is the delay sum."""

    events: tuple = ()

    def __post_init__(self) -> None:
        for ev in self.events:
            if not isinstance(ev, (Delay, Pulse)):
                raise TypeError(f"sequence events must be Delay or Pulse, got {ev!r}")
        object.__setattr__(self, "events", tuple(self.events))

    @property
    def total_duration(self) -> float:
        return sum(ev.tau for ev in self.events if isinstance(ev, Delay))

    @classmethod
    def from_file(cls, path: str | Path) -> "PulseSequence":
        return cls(tuple(event for _, event in _entries(path, "sequence", _event)))


def _pulse_ops(n: int, pulse: Pulse) -> list[np.ndarray]:
    """One 2x2 factor per qubit: the pulse's rotation where it acts, the identity elsewhere."""
    qubits = _validate_subset(pulse.qubits, n)
    sign = -1.0 if pulse.axis[0] == "-" else 1.0
    sigma = sign * SINGLE_QUBIT_PAULIS[pulse.axis[1].upper()]
    half = pulse.angle / 2.0
    rotation = math.cos(half) * np.eye(2, dtype=complex) - 1j * math.sin(half) * sigma
    return [rotation if q in qubits else SINGLE_QUBIT_PAULIS["I"] for q in range(1, n + 1)]


def normalize_global_phase(mat: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the reference entry is positive real.

    The reference is the first diagonal entry of nonnegligible magnitude,
    falling back to the largest entry overall for fully off-diagonal
    matrices. Keeps compiled propagators stable for regression comparison.
    """
    diag = np.diag(mat)
    candidates = np.flatnonzero(np.abs(diag) > 1e-12)
    ref = diag[candidates[0]] if candidates.size else mat.flat[np.argmax(np.abs(mat))]
    return mat * (abs(ref) / ref)


def compile_sequence(seq: PulseSequence, h: NmrHamiltonian) -> UnitaryMatrix:
    """Propagator of a sequence: product of event unitaries, earliest first.

    Delays exponentiate the (diagonal) internal Hamiltonian entrywise;
    pulses are ideal zero-duration rotations. The returned unitary has its
    global phase normalized.
    """
    n = h.n
    hdiag = hamiltonian_diagonal(h)
    total = np.eye(2**n, dtype=complex)
    for ev in seq.events:
        if isinstance(ev, Delay):
            total = np.exp(-1j * hdiag * ev.tau)[:, None] * total
        else:
            total = apply_local(_pulse_ops(n, ev), total).reshape(2**n, 2**n).T
    return UnitaryMatrix(normalize_global_phase(total))


#: pulse pattern of the time-suspension sequence: qubits hit after each delay
_SUSPENSION_PATTERN: tuple[tuple[tuple[int, ...], str], ...] = (
    ((3, 4), "+x"), ((2,), "+x"), ((3, 4), "+x"), ((1, 4), "+x"),
    ((3, 4), "-x"), ((2,), "-x"), ((3, 4), "-x"), ((1, 4), "-x"),
)


def time_suspension_sequence(
    total_duration: float = 12.2e-3, pulse_error: float = 0.0
) -> PulseSequence:
    """The 8-segment sequence that refocuses the whole internal Hamiltonian.

    Eight equal delays, each followed by a pi pulse on the listed qubits;
    the second half inverts the rotation axes of the first. With ideal
    pulses every z and zz term accumulates zero net phase, so the
    propagator is the identity up to a global phase for any delay length
    and coupling values. ``pulse_error`` is added to every pi rotation
    angle to model a systematically miscalibrated pulse.

    Only the total duration is configurable; the equal split across the
    eight segments is a modeling choice, not a measured timing.
    """
    if not total_duration > 0.0:
        raise ValueError(f"total duration must be positive, got {total_duration}")
    tau = total_duration / len(_SUSPENSION_PATTERN)
    events: list[Delay | Pulse] = []
    for qubits, axis in _SUSPENSION_PATTERN:
        events.append(Delay(tau))
        events.append(Pulse(qubits, axis, math.pi + pulse_error))
    return PulseSequence(tuple(events))


def zz_coupling(beta: float, pair: tuple[int, int] = (1, 2), n: int = 4) -> UnitaryMatrix:
    """Diagonal two-qubit phase gate exp(-i beta z z) on ``pair``.

    Its chi diagonal has cos^2(beta) on the identity and sin^2(beta) on the
    zz string of the pair; applying it k times equals one application at
    k*beta exactly (commuting diagonals).
    """
    j, k = _validate_subset(pair, n)
    phase = beta * _z_signs(n, j) * _z_signs(n, k)
    return UnitaryMatrix(np.diag(np.exp(-1j * phase)))


def cnot_gate(control: int = 1, target: int = 2, n: int = 4) -> UnitaryMatrix:
    """Controlled-NOT embedded in an n-qubit register; squares to identity."""
    control, target = _validate_subset((control, target), n)
    idx = np.arange(2**n)
    # flip the target bit where the control bit is 1
    perm = idx ^ (outcome_codes(n, [control]) << (n - target))
    mat = np.zeros((2**n, 2**n), dtype=complex)
    mat[perm, idx] = 1.0
    return UnitaryMatrix(mat)
