"""Single-qubit Clifford group as symplectic-times-Pauli products, and twirl pools.

The 24 group elements (mod phase) factor as S*P where S comes from six
symplectic rotations and P from the four Paulis. The S family splits into
two halves, either of which already averages like the full group:

* ``S1``: rotations by 0, 120, 240 degrees about the (1,1,1)/sqrt(3) axis,
  which cyclically permute the x, y, z axes;
* ``S2``: 90-degree rotations about x, y and z.

When the only quantity read out is the projection of the twirled state
onto |0...0>, six elements per qubit suffice: one S half combined with two
Paulis, one from {I, Z} and one from {X, Y}. That gives 2 x 2 x 2 = 8
distinct six-element pools, all equivalent for that projection (and only
for it; the six-element twirl does not reproduce the full twirled state).
``parse_pool`` builds every pool from its label, ``DEFAULT_POOL`` when none is
named.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .paulis import SINGLE_QUBIT_PAULIS
from .states import _read_only

SYMPLECTIC_LABELS = ("S1.0", "S1.1", "S1.2", "S2.x", "S2.y", "S2.z")
PAULI_FIRST_CHOICES = ("I", "Z")
PAULI_SECOND_CHOICES = ("X", "Y")

#: the pool of the library and the CLI when none is named
DEFAULT_POOL = "S1:I:X"

#: (sigma_mu x sigma_nu) / 2 on one qubit's bits (a, i), flattened over
#: ((a, i), (b, j)): an orthonormal basis of the Hermitian 4 x 4 matrices
_PAULIS = np.array([SINGLE_QUBIT_PAULIS[c] for c in "IXYZ"])
PAULI_PAIRS = np.einsum("mab,nij->mnaibj", _PAULIS, _PAULIS).reshape(16, 16) / 2


def _symplectic_matrices() -> dict[str, np.ndarray]:
    axis = (SINGLE_QUBIT_PAULIS["X"] + SINGLE_QUBIT_PAULIS["Y"]
            + SINGLE_QUBIT_PAULIS["Z"]) / np.sqrt(3)
    mats = {}
    for nu in range(3):
        half_angle = nu * np.pi / 3
        mats[f"S1.{nu}"] = (np.cos(half_angle) * np.eye(2)
                            - 1j * np.sin(half_angle) * axis)
    for p in "xyz":
        mats[f"S2.{p}"] = (np.cos(np.pi / 4) * np.eye(2)
                           - 1j * np.sin(np.pi / 4) * SINGLE_QUBIT_PAULIS[p.upper()])
    return mats


@dataclass(frozen=True)
class CliffordElement:
    """One single-qubit Clifford, tagged with its S*P factorization."""

    symplectic: str
    pauli: str
    matrix: np.ndarray


def _build_elements() -> tuple[CliffordElement, ...]:
    sym = _symplectic_matrices()
    out = []
    for slab in SYMPLECTIC_LABELS:
        for plab in "IXYZ":
            mat = sym[slab] @ SINGLE_QUBIT_PAULIS[plab]
            mat.setflags(write=False)
            out.append(CliffordElement(slab, plab, mat))
    return tuple(out)


_ELEMENTS = _build_elements()


@dataclass(frozen=True)
class CliffordPool:
    """A twirl set: the full 24-element group, a 12-element half, or a
    6-element pool for |0>-projection measurements."""

    elements: tuple[CliffordElement, ...]
    label: str

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def superops(self) -> np.ndarray:
        """(2K, 16) coefficients of conj(C[a, x]) C[b, x] C[i, 0] conj(C[j, 0]) on
        ``PAULI_PAIRS``, one row per element C and outcome x, built once per pool.

        Each is half a product of Bloch components of C|x> and C|0>, 0 or +-1 for a
        Clifford; rounding to that grid keeps tables of untouched qubits exact.
        """
        c = np.array([e.matrix for e in self.elements])
        s = np.einsum("kax,kbx,ki,kj->kxaibj", c.conj(), c, c[:, :, 0], c[:, :, 0].conj())
        return _read_only(np.rint(2 * (s.reshape(2 * self.size, 16) @ PAULI_PAIRS.T).real) / 2)


def parse_pool(label: str = DEFAULT_POOL) -> CliffordPool:
    """The pool named by ``label``: ``full-24``, ``half-12:<S>`` (``half-12`` is
    ``half-12:S1``) or ``<S>:<P1>:<P2>``, e.g. ``half-12:S2`` or ``S1:I:X``.

    ``<S>`` is the symplectic half, ``S1`` or ``S2``; a six-element pool combines
    it with one Pauli from {I, Z} and one from {X, Y}. Elements keep the group's
    order, and every pool's ``label`` names the same pool again.
    """
    text = label.strip()
    parts = text.split(":")
    if parts == ["full-24"]:
        return CliffordPool(_ELEMENTS, "full-24")
    if parts[0] == "half-12" and len(parts) <= 2:
        symplectic, paulis = parts[1] if len(parts) == 2 else "S1", "IXYZ"
    elif len(parts) == 3:
        symplectic, paulis = parts[0], parts[1:]
    else:
        raise ValueError(f"cannot parse pool description {text!r}")
    if symplectic not in ("S1", "S2"):
        raise ValueError(f"symplectic half must be S1 or S2, got {symplectic!r}")
    if len(parts) == 3 and (paulis[0] not in PAULI_FIRST_CHOICES
                            or paulis[1] not in PAULI_SECOND_CHOICES):
        raise ValueError(
            f"pauli pair must combine one of {PAULI_FIRST_CHOICES} with one of "
            f"{PAULI_SECOND_CHOICES}, got {tuple(paulis)!r}")
    chosen = tuple(e for e in _ELEMENTS if e.symplectic.startswith(symplectic) and e.pauli in paulis)
    return CliffordPool(chosen, text if len(parts) == 3 else f"half-12:{symplectic}")
