"""Config-driven experiment runner.

Reads a flat key-value config file (overridable from the command line),
runs the decay protocol on the requested gate for each target subset, and
writes two machine-readable outputs: a key-value report and a flat CSV
table. Outputs are byte-stable for a fixed config and seed; wall-clock
timing goes to the console only.

Exit codes: 0 on success, 1 for configuration problems, 2 when an
exact-mode result disagrees with the chi-diagonal oracle beyond tolerance.
Every bad input, a malformed or unknown flag included, gives exit 1 and one
``twirlsim: config error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .cliffords import DEFAULT_POOL, CliffordPool, parse_pool
from .nmr import (
    cnot_gate,
    compile_sequence,
    crotonic_preset,
    time_suspension_sequence,
    zz_coupling,
)
from .paulis import (
    MAX_CHI_QUBITS,
    CollectiveCoefficients,
    chi_diagonal,
    collective_coefficients,
)
from .protocol import (
    ASSIGNMENT_ORDERS,
    MAX_EXACT_SUBSET,
    DecayEstimate,
    ErrorBudget,
    SamplePlan,
    _decays,
    decay_error_bound,
    derive_seed,
    subset_coefficient_error,
)
from .states import Monomial, QuantumChannel, _finite, _register_size, _validate_subset

ORACLE_TOL = 1e-9


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 1."""


class OracleMismatch(Exception):
    """Exact-mode result off the oracle beyond tolerance; exit code 2."""


def parse_subsets(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse ``1-2,2-3,1-4`` style target lists (dash-joined qubits per subset)."""
    text = text.strip()
    if not text or text == "none":
        return ()
    out = []
    for token in text.split(","):
        try:
            qs = tuple(int(q) for q in token.strip().split("-"))
        except ValueError as exc:
            raise ConfigError(f"cannot parse subset {token!r}") from exc
        out.append(qs)
    return tuple(out)


def format_subset(subset: tuple[int, ...]) -> str:
    return "-".join(str(q) for q in subset)


_SWITCH = {**dict.fromkeys(("on", "true", "yes", "1"), True),
           **dict.fromkeys(("off", "false", "no", "0"), False)}


def _option(default, parse, doc=None, choices=(), flag=None):
    """A config field that is also a CLI option: ``parse`` reads its value
    from text, ``choices`` (if any) lists the values it may take, and its
    flag is the name with dashes unless ``flag`` says otherwise."""
    return field(default=default,
                 metadata={"parse": parse, "help": doc, "choices": choices, "flag": flag})


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; each field is a config-file key and a command-line flag."""

    gate: str = _option("identity", str, "identity | ie-sequence | c12(beta) | cnot | "
                                         "cnot2 | matrix:<file> | ensemble:<file>")
    n: int = _option(4, int, "register size")
    subsets: tuple[tuple[int, ...], ...] = _option((), parse_subsets,
                                                   "targets, e.g. 1-2,2-3,1-4")
    mode: str = _option("exact", str, choices=("exact", "sampled"))
    pool: str = _option(DEFAULT_POOL, str, "full-24 | half-12[:S] | S:P1:P2 (e.g. S1:I:X)")
    seed: int = _option(0, int)
    delta: float | None = _option(None, _finite, "target precision")
    epsilon: float | None = _option(None, _finite, "allowed failure probability")
    realizations: int | None = _option(None, int, flag="--n-realizations")
    prep_error: float = _option(0.0, _finite)
    clifford_error: float = _option(0.0, _finite)
    out: str | None = _option(None, str, "output base path (writes .report.txt and .table.csv)")
    threads: int = _option(1, int, "at least 1; the targets of one size share one engine "
                                   "pass, and no output depends on it")
    oracle: bool = _option(True, lambda text: _SWITCH[text.lower()],
                           f"on | off (the check runs only when n <= {MAX_CHI_QUBITS})")
    assignment_order: str = _option("random", str, choices=ASSIGNMENT_ORDERS)
    ie_duration: float = _option(12.2e-3, _finite)
    ie_pulse_error: float = _option(0.0, _finite)


def _parse_option(key: str, text: str):
    """The value of option ``key`` read from ``text``, from a config line or a flag."""
    option = ExperimentConfig.__dataclass_fields__.get(key)
    if option is None:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        return option.metadata["parse"](text)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"bad value for {key!r}: {text!r}") from exc


def _read_lines(path: str | Path, what: str) -> list[tuple[str, str]]:
    """Each line of a ``what`` file, with its text before any ``#`` comment."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    return [(raw, raw.split("#", 1)[0].strip()) for raw in lines]


def parse_config_file(path: str | Path) -> ExperimentConfig:
    values = {}
    for raw, line in _read_lines(path, "config"):
        if line:
            key, _, value = line.partition(" ")
            if key in values:
                raise ConfigError(f"repeated config key {key!r} in line {raw!r}")
            values[key] = _parse_option(key, value.strip())
    return ExperimentConfig(**values)


def build_channel(config: ExperimentConfig) -> QuantumChannel:
    """The gate or noise process named by the config, as a channel on n qubits."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            channel = _gate_channel(config)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"gate {config.gate!r}: {exc}") from exc
    if channel.n != config.n:
        raise ConfigError(f"gate {config.gate!r} acts on {channel.n} qubits, not n = {config.n}")
    return channel


def _gate_channel(config: ExperimentConfig) -> QuantumChannel:
    gate = config.gate.strip()
    n = config.n
    if gate == "identity":
        return QuantumChannel.identity(n)
    if gate == "cnot":
        return QuantumChannel.from_unitary(cnot_gate(1, 2, n))
    if gate == "cnot2":
        # column j of U U is column rows[j] of U, scaled by U's entry in column j
        u = cnot_gate(1, 2, n).data
        return QuantumChannel.from_unitary(Monomial(u.rows[u.rows], u.phases[u.rows] * u.phases))
    if gate.startswith("c12"):
        arg = gate[3:].strip().strip(":()")
        try:
            beta = _finite(arg)
        except ValueError as exc:
            raise ConfigError(f"cannot parse coupling angle in {gate!r}") from exc
        return QuantumChannel.from_unitary(zz_coupling(beta, (1, 2), n))
    if gate in ("ie", "ie-sequence"):
        register = crotonic_preset()
        if n != register.n:
            raise ConfigError("the ie-sequence gate requires n = 4")
        seq = time_suspension_sequence(config.ie_duration, config.ie_pulse_error)
        return QuantumChannel.from_unitary(compile_sequence(seq, register))
    if gate.startswith(("matrix:", "ensemble:")):
        kind, _, path = gate.partition(":")
        return QuantumChannel.unitary_ensemble(_read_operators(path, kind))
    raise ConfigError(f"unknown gate {config.gate!r}")


def _parse_matrix_rows(lines: list[str], origin: str) -> np.ndarray:
    rows = []
    for line in lines:
        try:
            rows.append([_finite(tok, complex) for tok in line.split()])
        except ValueError as exc:
            raise ConfigError(f"bad matrix entry in {origin}: {line!r}") from exc
    if any(len(r) != len(rows) for r in rows):
        raise ConfigError(f"matrix in {origin} is not square")
    return np.array(rows, dtype=complex)


def _read_operators(path: str, kind: str) -> list[tuple[float, np.ndarray]]:
    """The weighted matrices of a ``matrix`` or ``ensemble`` file: a ``weight w`` line
    opens a block of matrix rows, complex entries in Python syntax (e.g. 0.5+0.5j);
    a ``matrix`` file has no weight lines and is one block of weight 1."""
    blocks: list[tuple[float, list[str]]] = [(1.0, [])] if kind == "matrix" else []
    for raw, line in _read_lines(path, kind):
        if kind == "ensemble" and line.startswith("weight"):
            try:
                blocks.append((_finite(line[len("weight"):]), []))
            except ValueError as exc:
                raise ConfigError(f"bad weight line in {path}: {raw!r}") from exc
        elif line:
            if not blocks:
                raise ConfigError(f"incomplete ensemble block in {path}")
            blocks[-1][1].append(line)
    if not blocks:
        raise ConfigError(f"no ensemble terms in {path}")
    if any(not rows for _, rows in blocks):
        raise ConfigError(f"incomplete {kind} block in {path}")
    return [(weight, _parse_matrix_rows(rows, path)) for weight, rows in blocks]


@dataclass(frozen=True)
class SubsetResult:
    subset: tuple[int, ...]
    decays: dict[tuple[int, ...], DecayEstimate]
    eta_col: float
    eta_stderr: float
    oracle: float | None
    discrepancy: float | None
    tail: float | None
    decay_bounds: dict[tuple[int, ...], float] = field(default_factory=dict)
    eta_bound: float | None = None


@dataclass(frozen=True)
class Report:
    config: ExperimentConfig
    plan: SamplePlan | None
    results: tuple[SubsetResult, ...]

    def to_report_text(self) -> str:
        cfg = self.config
        lines = ["# twirlsim experiment report", "[config]", f"gate {cfg.gate}", f"n {cfg.n}",
                 f"mode {cfg.mode}", f"pool {cfg.pool}", f"seed {cfg.seed}",
                 "subsets " + (",".join(format_subset(s) for s in cfg.subsets) or "none"),
                 f"realizations {self.plan.realizations if self.plan else 0}",
                 f"assignment_order {cfg.assignment_order}",
                 f"prep_error {cfg.prep_error:.12e}", f"clifford_error {cfg.clifford_error:.12e}"]
        for res in self.results:
            lines += ["", f"[subset {format_subset(res.subset)}]"]
            for sub, est in res.decays.items():
                lines.append(
                    f"decay {format_subset(sub)} {est.value:.12e} "
                    f"stderr {est.std_error:.12e} realizations {est.realizations}")
            lines += [f"eta_col {res.eta_col:.12e}", f"eta_stderr {res.eta_stderr:.12e}"]
            if res.oracle is not None:
                lines += [f"oracle {res.oracle:.12e}", f"discrepancy {res.discrepancy:.12e}",
                          f"oracle_tail {res.tail:.12e}"]
            for sub, bound in res.decay_bounds.items():
                lines.append(f"decay_bound {format_subset(sub)} {bound:.12e}")
            if res.eta_bound is not None:
                lines.append(f"eta_bound {res.eta_bound:.12e}")
        return "\n".join(lines) + "\n"

    def to_table_csv(self) -> str:
        lines = ["gate,subset,gamma,stderr,eta_col,eta_stderr,oracle,discrepancy"]
        for res in self.results:
            full = res.decays[res.subset]
            oracle = f"{res.oracle:.12e}" if res.oracle is not None else ""
            disc = f"{res.discrepancy:.12e}" if res.discrepancy is not None else ""
            lines.append(
                f"{self.config.gate},{format_subset(res.subset)},"
                f"{full.value:.12e},{full.std_error:.12e},"
                f"{res.eta_col:.12e},{res.eta_stderr:.12e},{oracle},{disc}")
        return "\n".join(lines) + "\n"


def _validate_config(
    config: ExperimentConfig,
) -> tuple[list[tuple[int, ...]], SamplePlan | None, ErrorBudget, CliffordPool]:
    """The checked targets (labels sorted), plan, error budget and pool of ``config``."""
    for option in fields(config):
        choices, value = option.metadata["choices"], getattr(config, option.name)
        if choices and value not in choices:
            raise ConfigError(f"{option.name} must be {' or '.join(choices)}, got {value!r}")
    if config.threads < 1:
        raise ConfigError("thread count must be at least 1")
    if config.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {config.seed}")
    try:
        _register_size(config.n)
        targets = []
        for subset in config.subsets:
            if not 1 <= len(subset) <= MAX_EXACT_SUBSET:
                raise ConfigError(f"target subsets must have 1 to {MAX_EXACT_SUBSET} qubits")
            qs = _validate_subset(subset, config.n)
            if qs in targets:
                raise ConfigError(f"repeated target {format_subset(qs)}")
            targets.append(qs)
        pool = parse_pool(config.pool)
        budget = ErrorBudget(config.prep_error, config.clifford_error)
        # the largest eta_bound the run prints: every decay of its largest target at 1
        worst, m = decay_error_bound(budget, 1.0), max(map(len, config.subsets), default=0)
        largest = worst if math.isinf(worst) or not m else subset_coefficient_error(
            [worst] * (2**m - 1))
        given = (config.delta, config.epsilon, config.realizations)
        plan = None if given == (None, None, None) else SamplePlan(*given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except ArithmeticError as exc:
        raise ConfigError(f"a number is too large or too small to compute with: {exc}") from exc
    if not math.isfinite(largest):
        raise ConfigError(f"prep_error {config.prep_error} and clifford_error "
                          f"{config.clifford_error} give an infinite error bound")
    if config.mode != "sampled":
        return targets, None, budget, pool
    if config.realizations is None and config.epsilon is None:
        raise ConfigError("sampled mode needs realizations, or delta and epsilon")
    return targets, plan, budget, pool


def _subset_result(
    config: ExperimentConfig,
    plan: SamplePlan | None,
    budget: ErrorBudget,
    oracle: CollectiveCoefficients | None,
    qs: tuple[int, ...],
    decays: dict[tuple[int, ...], DecayEstimate],
    ones: float,
) -> SubsetResult:
    """One target's block of the report, from the decays of its parts and the
    share ``ones`` of its histogram in which every target qubit reads 1:
    eta_col = (3/2)^m q, and in sampled mode (3/2)^m sqrt(q (1 - q) / N)."""
    scale = 1.5 ** len(qs)
    eta = scale * ones
    eta_err = 0.0 if plan is None else scale * math.sqrt(ones * (1.0 - ones) / plan.realizations)
    oracle_val = tail = disc = None
    if oracle is not None:
        oracle_val = oracle.values.get(qs, 0.0)
        tail = sum(v for s, v in oracle.values.items()
                   if set(s) > set(qs))
        disc = eta - oracle_val
        if config.mode == "exact" and abs(disc - tail) > ORACLE_TOL:
            raise OracleMismatch(
                f"subset {format_subset(qs)}: combined coefficient {eta} is "
                f"{disc - tail} away from the oracle prediction")
    bounds: dict[tuple[int, ...], float] = {}
    eta_bound = None
    if budget.preparation > 0.0 or budget.clifford > 0.0:
        bounds = {s: decay_error_bound(budget, max(0.0, min(1.0, est.value)))
                  for s, est in decays.items()}
        eta_bound = subset_coefficient_error(bounds.values())
    return SubsetResult(qs, decays, eta, eta_err, oracle_val, disc, tail, bounds, eta_bound)


def run_experiment(config: ExperimentConfig) -> Report:
    """Execute the configured experiment over every target subset."""
    targets, plan, budget, pool = _validate_config(config)
    channel = build_channel(config)
    oracle = (collective_coefficients(chi_diagonal(channel))
              if config.oracle and config.n <= MAX_CHI_QUBITS else None)
    # one engine pass per target size; target i draws from its own stream
    # derive_seed(seed, i), so it reads as it would alone, in config order
    readouts = {}
    for m in {len(qs) for qs in targets}:
        group = [i for i, qs in enumerate(targets) if len(qs) == m]
        seeds = [derive_seed(config.seed, i) for i in group] if plan else []
        readouts.update(zip(group, _decays(channel, [targets[i] for i in group], pool, plan,
                                           seeds, config.assignment_order)))
    return Report(config, plan, tuple(
        _subset_result(config, plan, budget, oracle, qs, *readouts[i])
        for i, qs in enumerate(targets)))


def report_write(report: Report, out_base: str | Path) -> tuple[Path, Path]:
    """Write ``<base>.report.txt`` and ``<base>.table.csv``."""
    base = Path(out_base)
    report_path = base.with_name(base.name + ".report.txt")
    table_path = base.with_name(base.name + ".table.csv")
    try:
        base.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(report.to_report_text())
        table_path.write_text(report.to_table_csv())
    except OSError as exc:
        raise ConfigError(f"cannot write outputs at {base}: {exc}") from exc
    return report_path, table_path


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        raise ConfigError(message)


class _StoreOnce(argparse.Action):
    """Store a flag's text; a flag given twice is an error, as a repeated config key is."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"repeated flag {option_string} {values!r}")
        setattr(namespace, self.dest, values)


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="twirlsim", allow_abbrev=False,
        description="Measure spatially resolved error coefficients of a gate "
                    "by Clifford twirling.")
    parser.add_argument("--config", action=_StoreOnce, help="flat key-value config file")
    for option in fields(ExperimentConfig):
        meta = option.metadata
        parser.add_argument(meta["flag"] or "--" + option.name.replace("_", "-"),
                            dest=option.name, action=_StoreOnce,
                            help=meta["help"] or " | ".join(meta["choices"]) or None)
    return parser


def _merge_args(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    return replace(config, **{key: _parse_option(key, text) for key, text in vars(args).items()
                              if text is not None and key != "config"})


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits after printing --help
            return exc.code
        config = parse_config_file(args.config) if args.config else ExperimentConfig()
        config = _merge_args(config, args)
        started = time.perf_counter()
        report = run_experiment(config)
        elapsed = time.perf_counter() - started
        paths = report_write(report, config.out) if config.out else None
    except ConfigError as exc:
        print(f"twirlsim: config error: {exc}", file=sys.stderr)
        return 1
    except OracleMismatch as exc:
        print(f"twirlsim: numerical invariant violated: {exc}", file=sys.stderr)
        return 2
    if paths:
        print(f"wrote {paths[0]} and {paths[1]} ({elapsed:.2f} s)")
    else:
        sys.stdout.write(report.to_report_text())
        print(f"# elapsed {elapsed:.2f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
