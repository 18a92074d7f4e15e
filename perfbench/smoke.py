"""Fast check of the benchmark itself, on reduced inputs (about 15 s).

    python3 perfbench/smoke.py

Checks that every workload at reduced size passes its checks and yields
exactly the metrics ``BENCHMARK.json`` lists, that the command's last line
has the result schema, that a deliberately wrong reference makes
``failed`` nonzero, and that the command fails without printing a result in
a directory holding only the benchmark's own files. Exits 1 on any problem.
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run
from workloads import (
    WORKLOADS,
    make_crotonic,
    make_oracle,
    make_sampled,
    make_twirl,
)

REDUCED = {
    "oracle_n6": functools.partial(make_oracle, n=3),
    "twirl_n8": functools.partial(make_twirl, n=4),
    "sampled_n10": functools.partial(make_sampled, n=4, realizations=2000),
    "crotonic_n4": functools.partial(make_crotonic, realizations=2000),
}


class Checks:
    """Every check's outcome, printed as it is made."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            self.problems.append(message)


def reduced_bench(cli, protocol, name: str, seed: int) -> run.Bench:
    workdir = run.WORK / f"smoke-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = replace(WORKLOADS[name], make=REDUCED[name])
    return run.Bench(cli, protocol, workload, workload.make(seed, workdir), workdir)


def check_metrics(checks: Checks, label: str, measured: dict, wanted: dict) -> None:
    checks.expect(set(measured) == set(wanted),
                  f"{label}: metrics are exactly those listed "
                  f"(missing {sorted(set(wanted) - set(measured))}, "
                  f"extra {sorted(set(measured) - set(wanted))})")
    checks.expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in measured.values()),
                  f"{label}: every metric is a finite number")


def check_result_line(checks: Checks, args: list[str]) -> None:
    done = subprocess.run([sys.executable, str(Path(run.__file__)), *args],
                          capture_output=True, text=True, timeout=180, cwd=run.ROOT)
    label = "run.py " + " ".join(args)
    checks.expect(done.returncode == 0, f"{label}: exit code 0 (got {done.returncode})")
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        checks.expect(False, f"{label}: last line is JSON")
        return
    checks.expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result has exactly correct, attempted, failed, metrics")
    checks.expect(result["correct"] is True and result["failed"] == 0
                  and isinstance(result["attempted"], int) and result["attempted"] >= 1,
                  f"{label}: correct, attempted >= 1, failed 0")
    wanted = run.load_metric_lists()[int(args[args.index("--trace") + 1])]
    checks.expect(all(set(v) == {"value", "unit"} and v["unit"] == wanted[k]
                      for k, v in result["metrics"].items()),
                  f"{label}: each metric is a value with its listed unit")
    check_metrics(checks, label, {k: v["value"] for k, v in result["metrics"].items()}, wanted)


def check_bare_directory(checks: Checks) -> None:
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crotonic_n4",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=180, cwd=bare)
    last = (done.stdout.splitlines() or [""])[-1]
    checks.expect(done.returncode != 0 and '"correct"' not in last,
                  "without the sources: nonzero exit and no result line")
    shutil.rmtree(bare)


def main() -> int:
    checks = Checks()
    run.SETUP_SPAWNS = 2  # the reduced runs check the schema, not set-up steadiness
    wanted_e2e, wanted_layer = run.load_metric_lists()
    cli, protocol = run.import_program()
    for name in WORKLOADS:
        bench = reduced_bench(cli, protocol, name, seed=11)
        measured, _ = run.end_to_end(bench, 0.3)
        check_metrics(checks, f"{name} reduced, end to end", measured, wanted_e2e)
        measured, _ = run.per_layer(bench, 0.3, bench.out_base.parent.parent)
        check_metrics(checks, f"{name} reduced, per layer", measured, wanted_layer)
        checks.expect(bench.tally.failed == 0 and bench.tally.attempted > 0,
                      f"{name} reduced: {bench.tally.failed} of {bench.tally.attempted} "
                      f"experiments failed {bench.tally.errors}")

    bench = reduced_bench(cli, protocol, "twirl_n8", seed=11)
    bench.case = replace(bench.case, expect={"beta": bench.case.expect["beta"] + 0.1})
    bench.experiment()
    checks.expect(bench.tally.failed == bench.tally.attempted == 1,
                  "a wrong closed-form reference makes failed_ratio nonzero")

    bench = reduced_bench(cli, protocol, "crotonic_n4", seed=11)
    tampered = run.WORK / "smoke-crotonic_n4" / "tampered.table.csv"
    tampered.write_text(bench.case.golden[2].read_text().replace("cnot,1-2", "cnot,2-1"))
    bench.case = replace(bench.case, golden=(*bench.case.golden[:2], tampered))
    bench.golden()
    checks.expect(bench.tally.failed == bench.tally.attempted == 1,
                  "a wrong golden table makes failed_ratio nonzero")

    for trace in ("0", "1"):
        check_result_line(checks, ["--workload", "crotonic_n4", "--seed", "5",
                                   "--seconds", "1", "--trace", trace])
    check_bare_directory(checks)
    print(f"smoke: {len(checks.problems)} problem(s)")
    return 1 if checks.problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
