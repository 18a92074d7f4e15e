"""Spin Hamiltonian, delay/pi-pulse sequences, and the built-in gate library.

The internal Hamiltonian is diagonal: per-qubit frequency offsets plus
pairwise zz couplings, both given in Hz. Matrices returned from
``hamiltonian_matrix`` are angular frequencies (rad/s); a 1 Hz offset on a
lone qubit gives diag(pi, -pi). Pulses are ideal, instantaneous rotations;
delays evolve under the internal Hamiltonian alone.

File formats:

* Hamiltonian preset, one entry per line::

      shift 1 6650.6
      coupling 1 2 72.6

* Pulse sequence, one event per line::

      delay 0.001525
      pulse 3,4 +x 3.141592653589793

Blank lines and ``#`` comments are ignored in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .paulis import SINGLE_QUBIT_PAULIS
from .states import UnitaryMatrix, _validate_subset, apply_local, content_lines, outcome_codes

PULSE_AXES = ("+x", "-x", "+y", "-y")

#: named register sizes this module ships parameters for
CROTONIC_QUBITS = 4


def _entries(path: str | Path):
    """Each line of a file that holds more than a comment, with its tokens."""
    for raw, line in content_lines(Path(path).read_text()):
        if line:
            yield raw, line.split()


@dataclass(frozen=True)
class NmrHamiltonian:
    """Offsets and couplings of an n-spin register, in Hz."""

    n: int
    shifts_hz: Mapping[int, float]
    couplings_hz: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        shifts = {int(q): float(v) for q, v in self.shifts_hz.items()}
        for q in shifts:
            if not 1 <= q <= self.n:
                raise ValueError(f"shift qubit {q} out of range 1..{self.n}")
        couplings: dict[tuple[int, int], float] = {}
        for (j, k), v in self.couplings_hz.items():
            j, k = int(j), int(k)
            if j == k:
                raise ValueError(f"coupling ({j},{k}) joins a qubit to itself")
            pair = (min(j, k), max(j, k))
            if pair[0] < 1 or pair[1] > self.n:
                raise ValueError(f"coupling {pair} out of range 1..{self.n}")
            if pair in couplings and couplings[pair] != float(v):
                raise ValueError(f"conflicting values for coupling {pair}")
            couplings[pair] = float(v)
        object.__setattr__(self, "shifts_hz", shifts)
        object.__setattr__(self, "couplings_hz", couplings)

    @classmethod
    def from_file(cls, path: str | Path, n: int | None = None) -> "NmrHamiltonian":
        shifts: dict[int, float] = {}
        couplings: dict[tuple[int, int], float] = {}
        for raw, parts in _entries(path):
            if parts[0] == "shift" and len(parts) == 3:
                shifts[int(parts[1])] = float(parts[2])
            elif parts[0] == "coupling" and len(parts) == 4:
                couplings[(int(parts[1]), int(parts[2]))] = float(parts[3])
            else:
                raise ValueError(f"cannot parse Hamiltonian line {raw!r}")
        qubits = set(shifts) | {q for pair in couplings for q in pair}
        size = n if n is not None else max(qubits, default=1)
        return cls(size, shifts, couplings)


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
        object.__setattr__(self, "qubits", tuple(sorted(int(q) for q in self.qubits)))
        if not self.qubits:
            raise ValueError("pulse must address at least one qubit")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubits in pulse {self.qubits}")
        if self.axis not in PULSE_AXES:
            raise ValueError(f"pulse axis must be one of {PULSE_AXES}, got {self.axis!r}")


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
        events: list[Delay | Pulse] = []
        for raw, parts in _entries(path):
            if parts[0] == "delay" and len(parts) == 2:
                events.append(Delay(float(parts[1])))
            elif parts[0] == "pulse" and len(parts) == 4:
                qubits = tuple(int(q) for q in parts[1].split(","))
                events.append(Pulse(qubits, parts[2], float(parts[3])))
            else:
                raise ValueError(f"cannot parse sequence line {raw!r}")
        return cls(tuple(events))


def _pulse_ops(n: int, pulse: Pulse) -> dict[int, np.ndarray]:
    """The pulse's 2x2 rotation on each qubit it addresses."""
    qubits = _validate_subset(pulse.qubits, n)
    sign = -1.0 if pulse.axis[0] == "-" else 1.0
    sigma = sign * SINGLE_QUBIT_PAULIS[pulse.axis[1].upper()]
    half = pulse.angle / 2.0
    rotation = math.cos(half) * np.eye(2, dtype=complex) - 1j * math.sin(half) * sigma
    return {q: rotation for q in qubits}


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
            step = np.exp(-1j * hdiag * ev.tau)
            total = step[:, None] * total
        else:
            total = apply_local(_pulse_ops(n, ev), n, total)
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
