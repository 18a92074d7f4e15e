"""Spin Hamiltonian, delay/pi-pulse sequences, and the built-in gate library.

The internal Hamiltonian is diagonal: per-qubit frequency offsets plus
pairwise zz couplings, both given in Hz. The diagonal returned from
``hamiltonian_diagonal`` is in angular frequencies (rad/s); a 1 Hz offset on
a lone qubit gives (pi, -pi). Pulses are ideal, instantaneous rotations;
delays evolve under the internal Hamiltonian alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .paulis import SINGLE_QUBIT_PAULIS
from .states import (
    MAX_QUBITS, Monomial, UnitaryMatrix, _finite, _read_only, _register_size, _validate_subset,
    outcome_codes)

PULSE_AXES = ("+x", "-x", "+y", "-y")


@dataclass(frozen=True)
class NmrHamiltonian:
    """Offsets and couplings of an n-spin register, in Hz."""

    n: int
    shifts_hz: Mapping[int, float]
    couplings_hz: Mapping[tuple[int, int], float]

    def __post_init__(self) -> None:
        _register_size(self.n)
        shifts = {_validate_subset((q,), self.n)[0]: _finite(v) for q, v in self.shifts_hz.items()}
        couplings: dict[tuple[int, int], float] = {}
        for pair, v in self.couplings_hz.items():
            j, k = _validate_subset(pair, self.n)
            value = _finite(v)
            if couplings.get((j, k), value) != value:
                raise ValueError(f"conflicting values for coupling {(j, k)}")
            couplings[j, k] = value
        object.__setattr__(self, "shifts_hz", shifts)
        object.__setattr__(self, "couplings_hz", couplings)


def crotonic_preset() -> NmrHamiltonian:
    """The built-in 4-spin carbon register at a 400 MHz field."""
    return NmrHamiltonian(
        4,
        shifts_hz={1: 6650.6, 2: 1695.8, 3: 4210.0, 4: -8796.7},
        couplings_hz={
            (1, 2): 72.6, (2, 3): 69.8, (1, 4): 7.1,
            (2, 4): 1.6, (1, 3): 1.3, (3, 4): 41.6,
        },
    )


def _z_signs(n: int) -> np.ndarray:
    """+1/-1 per basis state for the z operator of each qubit, row q - 1 for
    qubit q (MSB = qubit 1), from one table of bits."""
    return 1.0 - 2.0 * outcome_codes(n, np.arange(1, n + 1)[:, None])


def hamiltonian_diagonal(h: NmrHamiltonian) -> np.ndarray:
    """Diagonal of the internal Hamiltonian in rad/s."""
    signs = _z_signs(h.n)
    diag = np.zeros(2**h.n)
    for q, f in h.shifts_hz.items():
        diag += math.pi * f * signs[q - 1]
    for (j, k), coupling in h.couplings_hz.items():
        diag += (math.pi * coupling / 2.0) * signs[j - 1] * signs[k - 1]
    return diag


@dataclass(frozen=True)
class Delay:
    """Free evolution for ``tau`` seconds."""

    tau: float

    def __post_init__(self) -> None:
        tau = _finite(self.tau)
        if not tau > 0.0:
            raise ValueError(f"delay must be positive, got {tau}")
        object.__setattr__(self, "tau", tau)


@dataclass(frozen=True)
class Pulse:
    """Instantaneous rotation of ``qubits`` about an x/y axis by ``angle``."""

    qubits: tuple[int, ...]
    axis: str
    angle: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", _validate_subset(self.qubits, MAX_QUBITS))
        object.__setattr__(self, "angle", _finite(self.angle))
        if self.axis not in PULSE_AXES:
            raise ValueError(f"pulse axis must be one of {PULSE_AXES}, got {self.axis!r}")


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


def compile_sequence(events: Iterable[Delay | Pulse], h: NmrHamiltonian) -> UnitaryMatrix:
    """Propagator of ``events``, a time-ordered iterable of ``Delay`` and ``Pulse``: the
    product of their unitaries, earliest first.

    Delays exponentiate the (diagonal) internal Hamiltonian entrywise;
    pulses are ideal zero-duration rotations, one 2x2 rotation applied to
    each qubit the pulse names, which must lie in ``h``'s register. The
    returned unitary has its global phase normalized.
    """
    events = tuple(events)
    for ev in events:
        if not isinstance(ev, (Delay, Pulse)):
            raise TypeError(f"sequence events must be Delay or Pulse, got {ev!r}")
    n = h.n
    hdiag = hamiltonian_diagonal(h)
    total = np.eye(2**n, dtype=complex)
    for ev in events:
        if isinstance(ev, Delay):
            total = np.exp(-1j * hdiag * ev.tau)[:, None] * total
            continue
        sign = -1.0 if ev.axis[0] == "-" else 1.0
        sigma = sign * SINGLE_QUBIT_PAULIS[ev.axis[1].upper()]
        half = ev.angle / 2.0
        rotation = math.cos(half) * np.eye(2, dtype=complex) - 1j * math.sin(half) * sigma
        for q in _validate_subset(ev.qubits, n):
            total = (rotation @ total.reshape(2 ** (q - 1), 2, -1)).reshape(2**n, 2**n)
    return UnitaryMatrix(_read_only(normalize_global_phase(total)))


#: pulse pattern of the time-suspension sequence: qubits hit after each delay
_SUSPENSION_PATTERN: tuple[tuple[tuple[int, ...], str], ...] = (
    ((3, 4), "+x"), ((2,), "+x"), ((3, 4), "+x"), ((1, 4), "+x"),
    ((3, 4), "-x"), ((2,), "-x"), ((3, 4), "-x"), ((1, 4), "-x"),
)


def time_suspension_sequence(
    total_duration: float = 12.2e-3, pulse_error: float = 0.0
) -> tuple[Delay | Pulse, ...]:
    """The events of the 8-segment sequence that refocuses the whole internal
    Hamiltonian, for ``compile_sequence``.

    Eight equal delays, each followed by a pi pulse on the listed qubits;
    the second half inverts the rotation axes of the first. With ideal
    pulses every z and zz term accumulates zero net phase, so the
    propagator is the identity up to a global phase for any delay length
    and coupling values. ``pulse_error`` is added to every pi rotation
    angle to model a systematically miscalibrated pulse. Both arguments are
    read by the finite-number rule.

    Only the total duration is configurable; the equal split across the
    eight segments is a modeling choice, not a measured timing.
    """
    total_duration, pulse_error = _finite(total_duration), _finite(pulse_error)
    if not total_duration > 0.0:
        raise ValueError(f"total duration must be positive, got {total_duration}")
    tau = total_duration / len(_SUSPENSION_PATTERN)
    events: list[Delay | Pulse] = []
    for qubits, axis in _SUSPENSION_PATTERN:
        events.append(Delay(tau))
        events.append(Pulse(qubits, axis, math.pi + pulse_error))
    return tuple(events)


def zz_coupling(beta: float, pair: tuple[int, int] = (1, 2), n: int = 4) -> UnitaryMatrix:
    """Diagonal two-qubit phase gate exp(-i beta z z) on ``pair``.

    Its chi diagonal has cos^2(beta) on the identity and sin^2(beta) on the
    zz string of the pair; applying it k times equals one application at
    k*beta exactly (commuting diagonals).
    """
    j, k = _validate_subset(pair, n)
    signs = _z_signs(n)
    phase = _finite(beta) * signs[j - 1] * signs[k - 1]
    return UnitaryMatrix(Monomial(_read_only(np.arange(2**n)), _read_only(np.exp(-1j * phase))))


def cnot_gate(control: int = 1, target: int = 2, n: int = 4) -> UnitaryMatrix:
    """Controlled-NOT embedded in an n-qubit register; squares to identity."""
    _validate_subset((control, target), n)  # a check only: the rule sorts the pair
    # column x holds its 1 in row x with the target bit flipped where the control bit is 1
    rows = np.arange(2**n) ^ (outcome_codes(n, [control]) << (n - target))
    return UnitaryMatrix(Monomial(_read_only(rows), _read_only(np.ones(2**n, dtype=complex))))
