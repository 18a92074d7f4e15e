"""twirlsim benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload twirl_n8 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. One experiment is what the CLI does after start-up:
``cli.run_experiment`` on a parsed config, then ``cli.report_write``. After a
checked warm-up experiment, experiments repeat until ``--seconds`` is spent
and every output is checked (see ``workloads.py``). ``--trace 0`` reports the
end-to-end metrics with nothing wrapped; ``--trace 1`` alternates plain and
traced experiments and reports the per-layer metrics. The metric names and
units are those listed in ``BENCHMARK.json``. The last line of standard
output is the result as JSON; the exit code is 1 when any check failed.
``--workload all`` runs every workload in its own process and prints a table;
that includes ``oracle_n6``, which ``BENCHMARK.json`` does not list because
its run-to-run spread on the reference machine reached the bound (see
``perfbench/README.md``).
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy loads: the program's own
# --threads then sets the parallelism, and threads x BLAS threads never
# exceeds the two cores the reference numbers were taken on.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import LAYERS, SpanRecorder, self_times, traced  # noqa: E402
from workloads import WORKLOADS, Case, computed_counts, parse_report  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: fresh interpreters started to time set-up, spread over the timed run so
#: that the host's speed drift averages out as it does for the experiments;
#: the median is reported
SETUP_SPAWNS = 15
#: the tail is reported only when its percentile is at least p90
TAIL_MIN_SAMPLES = 100
TAIL_BEYOND = 10

# Prints when it is done on the system-wide monotonic clock that
# perf_counter reads, so the parent's timing is not rounded up to the
# polling step of a subprocess wait and excludes interpreter teardown.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from twirlsim import cli
cli.build_channel(cli.parse_config_file(sys.argv[2]))
print(time.perf_counter())
"""


def load_metric_lists() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def import_program():
    """The package from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "twirlsim" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no twirlsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from twirlsim import cli, protocol
    if Path(cli.__file__).resolve().parent != SRC / "twirlsim":
        raise SystemExit(f"perfbench: imported twirlsim from {cli.__file__}, not {SRC}")
    return cli, protocol


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "pinned_threads": PINNED_THREADS,
    }


@dataclass
class Tally:
    """Experiments attempted and failed, and the reference output bytes."""

    attempted: int = 0
    failed: int = 0
    reference: tuple[bytes, bytes] | None = None
    errors: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)
        print(f"perfbench: FAILED: {message}", file=sys.stderr)


class Bench:
    """One workload case against the program, counting every check."""

    def __init__(self, cli, protocol, workload, case: Case, workdir: Path):
        self.cli, self.protocol = cli, protocol
        self.workload, self.case = workload, case
        self.config = cli.parse_config_file(case.config)
        self.out_base = workdir / "out" / "experiment"
        self.tally = Tally()

    def experiment(self, recorder: SpanRecorder | None = None) -> float | None:
        """Run, write and check one experiment; its wall time if it passed."""
        run, write = self.cli.run_experiment, self.cli.report_write
        self.tally.attempted += 1
        try:
            if recorder is None:
                start = time.perf_counter()
                paths = write(run(self.config), self.out_base)
                wall = time.perf_counter() - start
            else:
                with traced(recorder, self.cli, self.protocol):
                    start = time.perf_counter()
                    report = recorder.wrap("cli.run_experiment", run)(self.config)
                    paths = recorder.wrap("cli.report_write", write)(report, self.out_base)
                    wall = time.perf_counter() - start
        except Exception as exc:  # any raise, OracleMismatch included, is a failure
            traceback.print_exc()
            self.tally.fail(f"experiment raised {type(exc).__name__}: {exc}")
            return None
        outputs = tuple(Path(p).read_bytes() for p in paths)
        errors = self.workload.check(parse_report(outputs[0].decode()), self.case)
        if self.tally.reference is None:
            self.tally.reference = outputs
        elif outputs != self.tally.reference:
            errors.append("output bytes differ from the first experiment's")
        if errors:
            self.tally.fail("; ".join(errors))
            return None
        return wall

    def golden(self) -> None:
        """The committed golden config, compared byte for byte in place."""
        if self.case.golden is None:
            return
        config_path, *expected = self.case.golden
        self.tally.attempted += 1
        try:
            config = self.cli.parse_config_file(config_path)
            paths = self.cli.report_write(self.cli.run_experiment(config),
                                          self.out_base.with_name("golden"))
        except Exception as exc:
            traceback.print_exc()
            self.tally.fail(f"golden config raised {type(exc).__name__}: {exc}")
            return
        for got, want in zip(paths, expected):
            if Path(got).read_bytes() != Path(want).read_bytes():
                self.tally.fail(f"{got} differs from {want}")


def repeat(seconds: float, step, between=None) -> list:
    """Call ``step`` at least once, and again while the calls made so far
    plus the next one are expected to take at most ``seconds``. Between two
    calls, ``between`` gets the share of ``seconds`` spent; its own time is
    not counted."""
    results, costs = [], []
    while True:
        began = time.perf_counter()
        results.append(step())
        costs.append(time.perf_counter() - began)
        if sum(costs) + statistics.median(costs) > seconds:
            return results
        if between is not None:
            between(sum(costs) / seconds)


def setup_seconds(case: Case) -> float:
    """Wall time from starting a fresh interpreter until it has imported
    twirlsim, parsed the config and built its channel: what every CLI run
    pays first."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(case.config)],
                          check=True, timeout=120, cwd=ROOT, capture_output=True, text=True)
    return float(done.stdout.split()[-1]) - start


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    setups: list[float] = []

    def spawn_until(share: float) -> None:
        while len(setups) < max(1, round(SETUP_SPAWNS * share)):
            setups.append(setup_seconds(bench.case))

    spawn_until(0.0)
    bench.experiment()  # warm-up: checked, and the byte reference, not timed
    bench.golden()
    walls = [w for w in repeat(seconds, bench.experiment, spawn_until) if w is not None]
    spawn_until(1.0)
    if not walls:
        return {}, []
    targets = len(bench.case.params.subsets) * len(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "experiment_s_p50": statistics.median(walls),
        "targets_per_s": targets / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"timed experiments: {len(walls)}"]
    walls.sort()
    if len(walls) >= TAIL_MIN_SAMPLES:
        pct = 100.0 * (len(walls) - TAIL_BEYOND) / len(walls)
        notes.append(f"experiment_s_tail {walls[-TAIL_BEYOND - 1]!r} s "
                     f"(p{pct:.1f}, {TAIL_BEYOND} of {len(walls)} samples beyond)")
    else:
        notes.append(f"experiment_s_tail not reported: {len(walls)} samples, "
                     f"fewer than {TAIL_MIN_SAMPLES}")
    return metrics, notes


def layer_metrics(recorder: SpanRecorder, bench: Bench) -> dict:
    """Per-layer numbers of one traced experiment."""
    spans = recorder.spans
    selfs = self_times(spans)

    def total(*prefixes: str) -> float:
        return sum(s.duration for s in spans if s.name.startswith(prefixes))

    def own(*prefixes: str) -> float:
        return sum(selfs[s.id] for s in spans if s.name.startswith(prefixes))

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    params = bench.case.params
    m = computed_counts(params)
    twirl_s = total("cliffords.twirl_exact")
    m.update({
        "paulis.chi_diagonal.s": total("paulis.chi_diagonal"),
        "paulis.collective_coefficients.s": total("paulis.collective_coefficients"),
        "cliffords.twirl_exact.s": twirl_s,
        "cliffords.twirl_exact.calls": calls("cliffords.twirl_exact"),
        "cliffords.twirl_gflops_achieved":
            m["cliffords.twirl_gflop_computed"] / twirl_s if twirl_s else 0.0,
        "protocol.sampled_campaign.s": total("protocol.run_sampled_campaign"),
        "protocol.shots":
            calls("protocol.run_sampled_campaign") * (params.realizations or 0),
        "protocol.initial_state.s": total("protocol.protocol_initial_state"),
        "protocol.decay_readout.self_s": own("protocol.fidelity_decay_exact"),
        "protocol.combine.s": total("protocol.combine_subset",
                                    "protocol.subset_coefficient_error"),
        "nmr.gate.s": total("nmr."),
        "states.channel.s": own("states.QuantumChannel."),
        "cli.build_channel.self_s": own("cli.build_channel"),
        "cli.report_write.s": total("cli.report_write"),
        "cli.run_experiment.self_s": own("cli.run_experiment"),
        "cli.parallelism": total("cli._run_subset") / total("cli.run_experiment"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own(f"{layer}.")
    return m


def per_layer(bench: Bench, seconds: float, workdir: Path) -> tuple[dict, list[str]]:
    bench.experiment()
    bench.golden()

    def pair():
        recorder = SpanRecorder()
        return bench.experiment(), bench.experiment(recorder), recorder

    pairs = [p for p in repeat(seconds, pair) if None not in p[:2]]
    if not pairs:
        return {}, []
    (workdir / "spans.json").write_text(json.dumps(
        [rec.to_json() for _, _, rec in pairs]))
    per_experiment = [layer_metrics(rec, bench) for _, _, rec in pairs]
    metrics = {k: statistics.median(e[k] for e in per_experiment)
               for k in per_experiment[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(p[1] for p in pairs)
                                       / statistics.median(p[0] for p in pairs))
    layers = sorted(((metrics[f"{layer}.self_s"], layer) for layer in LAYERS),
                    reverse=True)
    notes = [f"traced experiments: {len(pairs)}",
             "self time by layer: " + ", ".join(f"{l} {t:.4f} s" for t, l in layers)]
    return metrics, notes


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    wanted_e2e, wanted_layer = load_metric_lists()
    cli, protocol = import_program()
    workload = WORKLOADS[name]
    workdir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bench = Bench(cli, protocol, workload, workload.make(seed, workdir), workdir)
    if trace:
        measured, notes = per_layer(bench, seconds, workdir)
        wanted = wanted_layer
    else:
        measured, notes = end_to_end(bench, seconds)
        wanted = wanted_e2e
    tally = bench.tally
    correct = tally.failed == 0 and bool(measured)
    print(json.dumps({"env": environment(), "workload": name, "seed": seed}))
    for note in notes:
        print(f"{name}: {note}")
    print(f"{name}: failed_ratio {tally.failed / tally.attempted!r} "
          f"({tally.failed} of {tally.attempted} experiments)")
    metrics = {}
    for metric, unit in wanted.items():
        if metric in measured:
            metrics[metric] = {"value": float(measured[metric]), "unit": unit}
            print(f"{name}: {metric} {measured[metric]!r} {unit}")
    if measured and set(metrics) != set(wanted):
        missing = sorted(set(wanted) - set(measured))
        raise SystemExit(f"perfbench: metrics not computed: {missing}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, so set-up and memory stay its own."""
    status = 0
    rows = []
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        status = status or done.returncode or int(not result["correct"])
        rows.append((name, result))
    print()
    for name, result in rows:
        print(f"{name}: correct={result['correct']} failed_ratio="
              f"{result.get('failed')}/{result.get('attempted')} experiments")
        for metric, v in result["metrics"].items():
            print(f"  {metric:38s} {v['value']:.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
