"""The benchmark's workloads: seeded inputs, reference checks, computed counts.

Each workload turns a seed into a config file (plus any gate file it names)
that the program reads exactly as a CLI user's files would be read. The
checks read the program's written report, never its internal objects, so
they keep working when the internals are rebuilt. Why each workload exists
is recorded in ``perfbench/README.md``; ``BENCHMARK.json`` lists the ones
whose figures are steady enough to gate on, which leaves out ``oracle_n6``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

#: every twirl in these workloads uses the program's default 6-element pool
POOL = "S1:I:X"
POOL_SIZE = 6

#: the largest register the CLI runs its chi oracle on (every config sets
#: ``oracle on``)
ORACLE_MAX_QUBITS = 6

#: exact-mode results must match closed forms to this, like the program's oracle
EXACT_TOL = 1e-9

#: a sampled coefficient may miss its reference by this many worst-case sigmas
SAMPLED_SIGMAS = 5.0


@dataclass(frozen=True)
class Params:
    """What a workload asks the program to do: the config, nothing derived."""

    gate: str
    n: int
    mode: str
    subsets: tuple[tuple[int, ...], ...]
    threads: int
    seed: int = 0
    realizations: int | None = None
    #: operator terms of the gate's channel (T in the computed counts)
    terms: int = 1
    extra: tuple[tuple[str, str], ...] = ()

    def config_text(self) -> str:
        lines = [
            f"gate {self.gate}",
            f"n {self.n}",
            "subsets " + ",".join("-".join(map(str, s)) for s in self.subsets),
            f"mode {self.mode}",
            f"pool {POOL}",
            f"seed {self.seed}",
            f"threads {self.threads}",
            "oracle on",
        ]
        if self.realizations is not None:
            lines.append(f"realizations {self.realizations}")
        lines += [f"{k} {v}" for k, v in self.extra]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Case:
    """One seeded instance of a workload, written to disk."""

    config: Path
    params: Params
    #: reference values the workload's check compares against
    expect: dict = field(default_factory=dict)
    #: (config, report, table) run once and compared byte for byte
    golden: tuple[Path, Path, Path] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, Path], Case]
    check: Callable[[dict, Case], list[str]]


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, *name.encode()])


def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(itertools.combinations(range(1, n + 1), 2))


def _write_config(workdir: Path, params: Params) -> Path:
    path = workdir / "experiment.config"
    path.write_text(params.config_text())
    return path


def sampled_bound(m: int, realizations: int) -> float:
    """Worst-case error of a sampled m-qubit coefficient, independent of the
    program's own error bar: (3/2)^m / (2 sqrt N) per sigma."""
    return SAMPLED_SIGMAS * 1.5**m / (2.0 * math.sqrt(realizations))


# --- the program's report, read back --------------------------------------

def parse_report(text: str) -> dict[tuple[int, ...], dict]:
    """``[subset ...]`` blocks of a written report: decays and scalar fields."""
    blocks: dict[tuple[int, ...], dict] = {}
    current: dict | None = None
    for line in text.splitlines():
        if line.startswith("[subset "):
            subset = tuple(int(q) for q in line[len("[subset "):-1].split("-"))
            current = blocks.setdefault(subset, {"decays": {}})
            continue
        tokens = line.split()
        if current is None or len(tokens) < 2:
            continue
        if tokens[0] == "decay":
            sub = tuple(int(q) for q in tokens[1].split("-"))
            current["decays"][sub] = float(tokens[2])
        elif len(tokens) == 2:
            current[tokens[0]] = float(tokens[1])
    return blocks


def _missing(blocks: dict, case: Case) -> list[str]:
    return [f"no report block for subset {s}" for s in case.params.subsets
            if s not in blocks]


# --- oracle_n6 ------------------------------------------------------------

def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def make_oracle(seed: int, workdir: Path, n: int = 6) -> Case:
    """A seeded 3-term unitary ensemble as an ``ensemble:`` file, every pair."""
    rng = _rng(seed, "oracle")
    weights = rng.dirichlet(np.ones(3))
    weights[-1] = 1.0 - weights[0] - weights[1]
    blocks = []
    for w in weights:
        rows = [" ".join(repr(complex(x)) for x in row)
                for row in _random_unitary(rng, 2**n)]
        blocks.append(f"weight {float(w)!r}\n" + "\n".join(rows) + "\n")
    gate_file = workdir / "ensemble.txt"
    gate_file.write_text("\n".join(blocks))
    params = Params(f"ensemble:{gate_file}", n, "exact", _pairs(n), threads=1, terms=3)
    return Case(_write_config(workdir, params), params)


def check_oracle(blocks: dict, case: Case) -> list[str]:
    # the program itself raises OracleMismatch beyond 1e-9; here every
    # result must also carry the oracle value it was checked against
    errors = _missing(blocks, case)
    errors += [f"subset {s}: no oracle value" for s, b in blocks.items()
               if "oracle" not in b]
    return errors


# --- twirl_n8 -------------------------------------------------------------

def make_twirl(seed: int, workdir: Path, n: int = 8) -> Case:
    """``c12(beta)`` on two triples; the oracle is capped below this size."""
    beta = 0.3 + 1.0 * float(_rng(seed, "twirl").random())
    params = Params(f"c12({beta!r})", n, "exact", ((1, 2, 3), (2, 3, 4)), threads=2)
    return Case(_write_config(workdir, params), params, {"beta": beta})


def check_twirl(blocks: dict, case: Case) -> list[str]:
    # closed forms of c12(beta): decay 0 off the pair, 2/3 sin^2 beta with one
    # pair qubit measured, 8/9 sin^2 beta with both; no three-body coefficient
    s2 = math.sin(case.expect["beta"]) ** 2
    errors = _missing(blocks, case)
    for subset, block in blocks.items():
        for sub, value in block["decays"].items():
            want = (0.0, 2.0 / 3.0 * s2, 8.0 / 9.0 * s2)[len({1, 2} & set(sub))]
            if abs(value - want) > EXACT_TOL:
                errors.append(f"subset {subset}: decay {sub} = {value}, expected {want}")
        if not abs(block.get("eta_col", math.nan)) <= EXACT_TOL:
            errors.append(f"subset {subset}: eta_col {block.get('eta_col')}, expected 0")
    return errors


# --- sampled_n10 ----------------------------------------------------------

def make_sampled(seed: int, workdir: Path, n: int = 10, realizations: int = 4000) -> Case:
    """CNOT on the largest register, one pair, plain single-threaded."""
    program_seed = int(_rng(seed, "sampled").integers(2**31))
    params = Params("cnot", n, "sampled", ((1, 2),), threads=1, seed=program_seed,
                    realizations=realizations)
    return Case(_write_config(workdir, params), params, {"eta": 0.25})


def check_sampled(blocks: dict, case: Case) -> list[str]:
    errors = _missing(blocks, case)
    bound = sampled_bound(2, case.params.realizations)
    eta = blocks.get((1, 2), {}).get("eta_col", math.nan)
    if not abs(eta - case.expect["eta"]) <= bound:
        errors.append(f"eta_col {eta} off {case.expect['eta']} by more than {bound}")
    return errors


# --- crotonic_n4 ----------------------------------------------------------

def make_crotonic(seed: int, workdir: Path, realizations: int = 20000) -> Case:
    """The paper's experiment: the time-suspension gate with seeded pulse
    errors on the crotonic register, all pairs; plus the golden config."""
    rng = _rng(seed, "crotonic")
    pulse_error = 0.02 + 0.06 * float(rng.random())
    program_seed = int(rng.integers(2**31))
    params = Params("ie-sequence", 4, "sampled", _pairs(4), threads=2, seed=program_seed,
                    realizations=realizations,
                    extra=(("ie_pulse_error", repr(pulse_error)),))
    data = Path(__file__).resolve().parent.parent / "tests" / "data"
    golden = (data / "golden.config", data / "golden.report.txt", data / "golden.table.csv")
    return Case(_write_config(workdir, params), params, golden=golden)


def check_crotonic(blocks: dict, case: Case) -> list[str]:
    errors = _missing(blocks, case)
    bound = sampled_bound(2, case.params.realizations)
    for subset, block in blocks.items():
        gap = block.get("discrepancy", math.nan) - block.get("oracle_tail", math.nan)
        if not abs(gap) <= bound:
            errors.append(f"subset {subset}: discrepancy off oracle_tail by {gap}")
    return errors


WORKLOADS = {
    w.name: w for w in (
        Workload("oracle_n6", make_oracle, check_oracle),
        Workload("twirl_n8", make_twirl, check_twirl),
        Workload("sampled_n10", make_sampled, check_sampled),
        Workload("crotonic_n4", make_crotonic, check_crotonic),
    )
}


# --- computed counts ------------------------------------------------------

def computed_counts(params: Params) -> dict:
    """Work the workload asks for, from its parameters alone: labelled "computed".

    Exact mode twirls every non-empty part of each target, so a target of s
    qubits costs sum over r of C(s, r) K^r = (K + 1)^s - 1 assignments, each
    (4 + 2T) complex D x D products of 8 D^3 flops. The chi oracle covers
    4^n Pauli strings per channel term once per experiment, at registers up
    to ORACLE_MAX_QUBITS. Sampled groups are the expected number of distinct
    (assignment, flip) pairs among N uniform draws from G = K^m 2^(n-m).
    """
    dim = 2**params.n
    assignments = 0
    if params.mode == "exact":
        assignments = sum((POOL_SIZE + 1) ** len(s) - 1 for s in params.subsets)
    out = {
        "cliffords.twirl_assignments": assignments,
        "cliffords.twirl_gflop_computed":
            assignments * (4 + 2 * params.terms) * 8 * dim**3 / 1e9,
        "paulis.strings_computed":
            4**params.n * params.terms if params.n <= ORACLE_MAX_QUBITS else 0,
        "protocol.groups_expected_computed": 0.0,
        "protocol.shots_per_group_computed": 0.0,
    }
    if params.mode == "sampled":
        n_shots = params.realizations * len(params.subsets)
        groups = 0.0
        for subset in params.subsets:
            g = POOL_SIZE ** len(subset) * 2 ** (params.n - len(subset))
            groups += g * -math.expm1(params.realizations * math.log1p(-1.0 / g))
        out["protocol.groups_expected_computed"] = groups
        out["protocol.shots_per_group_computed"] = n_shots / groups
    return out
