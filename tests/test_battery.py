"""A committed byte battery: seeded experiments whose printed numbers must not move.

``cases`` turns one seed into about 200 configs: the named gates at n = 1-10,
the crotonic time-suspension gate with a pulse error, and generated
``matrix:``/``ensemble:`` files (dense random unitaries up to n = 6, random
monomials up to n = 7, mixtures of both). Targets are singles, pairs, triples
and mixed-size lists (up to 15 pairs), over four pools, in exact mode and in
sampled mode under ``random`` and ``cyclic`` order, with the oracle on. Each
case's table rows and the report's decay, eta, oracle and decay-bound lines
are compared with ``data/battery.txt`` byte for byte.

Re-record with ``PYTHONPATH=src python tests/test_battery.py``, and only in a
change whose log lists the lines that moved and by how much. Re-recording
prints that list first: per first word of a report line, or ``csv`` for a
table row, the count of moved lines and their largest deviation.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from twirlsim import combine_subset
from twirlsim.cli import ExperimentConfig, format_subset, run_experiment
from conftest import random_unitary

SEED = 20261019
DATA = Path(__file__).parent / "data" / "battery.txt"
POOLS = ("S1:I:X", "S2:Z:Y", "half-12:S2", "full-24")
RUNS = (("exact", "random"), ("sampled", "random"), ("sampled", "cyclic"))
#: report lines kept, by their first word
KEPT = ("decay", "decay_bound", "eta_col", "eta_stderr", "eta_bound", "oracle", "oracle_tail")
NUMBER = re.compile(r"[-+]?\d+\.\d+e[-+]\d+")


def _matrix_text(mat: np.ndarray) -> str:
    return "\n".join(" ".join(repr(complex(x)) for x in row) for row in mat) + "\n"


def _random_monomial(n: int, rng: np.random.Generator) -> np.ndarray:
    mat = np.zeros((2**n, 2**n), dtype=complex)
    mat[rng.permutation(2**n), np.arange(2**n)] = np.exp(2j * np.pi * rng.random(2**n))
    return mat


def _gate_files(workdir: Path, rng: np.random.Generator) -> list[tuple[str, int, str]]:
    """(name, n, gate) of each generated operator file, written to ``workdir``."""
    files = []
    for n in (1, 2, 3, 5, 6):
        files.append((f"dense{n}", n, "matrix", _matrix_text(random_unitary(2**n, rng))))
    for n in (3, 4, 7):
        files.append((f"monomial{n}", n, "matrix", _matrix_text(_random_monomial(n, rng))))
    for n in (3, 5):
        ops = [random_unitary(2**n, rng), _random_monomial(n, rng), random_unitary(2**n, rng)]
        weights = rng.dirichlet(np.ones(len(ops)))
        weights[-1] = 1.0 - weights[:-1].sum()
        files.append((f"ensemble{n}", n, "ensemble", "".join(
            f"weight {float(w)!r}\n" + _matrix_text(op) for w, op in zip(weights, ops))))
    out = []
    for name, n, kind, text in files:
        path = workdir / f"{name}.txt"
        path.write_text(text)
        out.append((name, n, f"{kind}:{path}"))
    return out


def _targets(n: int, rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
    """Singles, pairs, triples, a mixed-size list of distinct targets on n
    qubits, or every pair of its first six qubits."""
    sizes = [s for s in (1, 2, 3) if s <= n]
    shape = rng.choice(["single", "pair", "triple", "mixed", "every pair"])
    if shape == "every pair" and n >= 2:
        return tuple(itertools.combinations(range(1, min(n, 6) + 1), 2))
    if shape in ("mixed", "every pair") or len(sizes) == 1:
        drawn = rng.choice(sizes, int(rng.integers(2, 6)))
    else:
        size = {"single": 1, "pair": 2, "triple": 3}[shape]
        drawn = [min(size, n)] * int(rng.integers(1, 5))
    out: list[tuple[int, ...]] = []
    for size in drawn:
        qs = tuple(sorted(int(q) for q in rng.choice(np.arange(1, n + 1), size, replace=False)))
        if qs not in out:
            out.append(qs)
    return tuple(out)


def cases(workdir: Path) -> list[tuple[str, ExperimentConfig]]:
    """Every (name, config) of the battery, its operator files written to ``workdir``."""
    rng = np.random.default_rng(SEED)
    gates: list[tuple[str, int, str, dict]] = []
    for n in range(1, 11):
        gates.append(("identity", n, "identity", {}))
    for n in range(2, 11):
        beta = float(rng.uniform(0.1, 1.5))
        gates += [("cnot", n, "cnot", {}), ("cnot2", n, "cnot2", {}),
                  (f"c12({beta!r})", n, f"c12({beta!r})", {})]
    for _ in range(4):
        error = float(rng.uniform(0.01, 0.1))
        gates.append(("ie-sequence", 4, "ie-sequence", {"ie_pulse_error": error}))
    gates += [(name, n, gate, {}) for name, n, gate in _gate_files(workdir, rng)]
    out = []
    for name, n, gate, extra in gates:
        # more draws for the larger registers, where blocks and batches differ
        # most, and most for the generated dense operators there
        draws = 3 if n < 4 else 6 if n >= 5 and ":" in gate else 4
        for _ in range(draws):
            mode, order = RUNS[int(rng.integers(len(RUNS)))]
            config = ExperimentConfig(
                gate=gate, n=n, subsets=_targets(n, rng), mode=mode,
                pool=POOLS[int(rng.integers(len(POOLS)))], seed=int(rng.integers(2**31)),
                realizations=int(rng.choice([300, 2000, 20000])) if mode == "sampled" else None,
                assignment_order=order, oracle=True,
                prep_error=float(rng.choice([0.0, 0.0, 1e-3])),
                clifford_error=float(rng.choice([0.0, 2e-3])), **extra)
            out.append((name, config))
    return out


def record(name: str, config: ExperimentConfig) -> list[str]:
    """The battery's lines of one case: a header naming it, then its kept
    report lines and its table rows, the gate column written as ``name``."""
    report = run_experiment(config)
    header = (f"[{name} n={config.n} {config.mode} {config.assignment_order} {config.pool} "
              f"seed={config.seed} N={report.plan.realizations if report.plan else 0} "
              f"subsets={','.join(map(format_subset, config.subsets))}]")
    lines = [header]
    lines += [line for line in report.to_report_text().splitlines()
              if line.split(" ", 1)[0] in KEPT]
    lines += [f"{name},{row.split(',', 1)[1]}"
              for row in report.to_table_csv().splitlines()[1:]]
    return lines


def battery_lines(workdir: Path) -> list[str]:
    return [line for name, config in cases(workdir) for line in record(name, config)]


def _deviation(got: str, want: str) -> float | None:
    """The largest absolute difference of two lines' numbers, None unless the
    lines agree outside their numbers."""
    a, b = NUMBER.findall(got), NUMBER.findall(want)
    if len(a) != len(b) or NUMBER.sub("#", got) != NUMBER.sub("#", want):
        return None
    return max(abs(float(x) - float(y)) for x, y in zip(a, b))


def _describe(deviation: float | None) -> str:
    return "not the same fields" if deviation is None else f"largest deviation {deviation:.3e}"


def moved_summary(got: list[str], want: list[str]) -> list[str]:
    """One line per kind of moved line, by first word (``csv`` for a table
    row): how many moved and their largest deviation; then any change in
    the number of lines."""
    moved: dict[str, list[float | None]] = {}
    for g, w in zip(got, want):
        if g != w:
            word = w.split(" ", 1)[0]
            moved.setdefault("csv" if "," in word else word, []).append(_deviation(g, w))
    out = [f"{kind}: {len(devs)} lines, "
           + _describe(None if None in devs else max(devs)) for kind, devs in moved.items()]
    if len(got) != len(want):
        out.append(f"{len(got)} lines, {len(want)} recorded")
    return out


def test_battery_bytes(tmp_path):
    got = battery_lines(tmp_path)
    want = DATA.read_text(encoding="utf-8").splitlines()
    differ = [(i, g, w) for i, (g, w) in enumerate(zip(got, want), 1) if g != w]
    report = [f"line {i}: {_describe(_deviation(g, w))}\n  got  {g}\n  want {w}"
              for i, g, w in differ]
    if len(got) != len(want):
        report.append(f"{len(got)} lines, {len(want)} recorded")
    assert not report, f"{len(differ)} battery lines differ:\n" + "\n".join(report)


def test_combined_decays_equal_the_all_ones_share(tmp_path):
    # for any histogram, the inclusion-exclusion of combine_subset over a
    # target's decays is (3/2)^m q, which the report prints as eta_col
    every = cases(tmp_path)
    rng = np.random.default_rng(SEED + 1)
    sample = [every[i] for i in sorted(rng.choice(len(every), 60, replace=False))]
    assert {config.mode for _, config in sample} == {"exact", "sampled"}
    for name, config in sample:
        for res in run_experiment(config).results:
            assert abs(combine_subset(res.decays) - res.eta_col) <= 2e-15, (name, res.subset)


def test_sampled_eta_reads_the_all_ones_count(tmp_path):
    # each decay is a count of N shots, so inclusion-exclusion over the parts
    # gives, in integers, the count of shots reading 1 on every target qubit:
    # eta_col is (3/2)^m times its share, never negative, and eta_stderr the
    # binomial error of that share, scaled alike
    none_read_ones = 0
    for name, config in cases(tmp_path):
        if config.mode == "sampled":
            N = config.realizations
            for res in run_experiment(config).results:
                ones = sum((-1) ** (len(sub) + 1) * round(est.value * N)
                           for sub, est in res.decays.items())
                q, scale = ones / N, 1.5 ** len(res.subset)
                assert res.eta_col == scale * q >= 0.0, (name, res.subset)
                assert res.eta_stderr == scale * math.sqrt(q * (1 - q) / N), (name, res.subset)
                none_read_ones += ones == 0
    assert none_read_ones


def test_moved_summary_counts_by_first_word():
    want = ["[case n=2]", "eta_col 1.000000000000e-01", "decay 1 2.0e-01", "x,1-2,1.0e-01,"]
    got = ["[case n=2]", "eta_col 1.000000000003e-01", "decay 1 2.0e-01", "x,1-2,1.5e-01,"]
    assert moved_summary(got, want) == ["eta_col: 1 lines, largest deviation 3.000e-13",
                                        "csv: 1 lines, largest deviation 5.000e-02"]
    assert moved_summary(got + ["eta_col 0"], want)[-1] == "5 lines, 4 recorded"
    assert moved_summary(["eta_col nan"], ["eta_col 1.0e-01"]) == [
        "eta_col: 1 lines, not the same fields"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = battery_lines(Path(tmp))
    if DATA.exists():
        for line in moved_summary(lines, DATA.read_text(encoding="utf-8").splitlines()):
            print(line, file=sys.stderr)
    DATA.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} lines to {DATA}", file=sys.stderr)
