"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from twirlsim import (
    QuantumChannel,
    SamplePlan,
    chi_diagonal,
    cnot_gate,
    collective_coefficients,
    combine_subset,
    compile_sequence,
    crotonic_preset,
    fidelity_decay_from_chi,
    max_weight_coefficient,
    run_campaign,
    time_suspension_sequence,
    zz_coupling,
)
from twirlsim.cli import ExperimentConfig, run_experiment, report_write
from conftest import (
    dedicated_decays,
    exact_decay,
    random_kraus_channel,
    random_unitary_ensemble,
)
from reference import ATOL, pool_projections


def _verdict(number: int, name: str, failures: list[str], elapsed: float,
             budget: float) -> None:
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    print(f"\nacceptance criterion {number} [{status}] {name} ({elapsed:.1f}s)")
    assert not failures, "; ".join(failures)


def test_criterion_1_table_reproduction():
    started = time.perf_counter()
    failures: list[str] = []
    cases = [
        ("c12(0.1)", math.sin(0.1) ** 2, 0.01),
        ("c12(0.4)", math.sin(0.4) ** 2, 0.15),
        ("cnot", 0.25, 0.25),
        ("cnot2", 0.0, 0.00),
        ("ie-sequence", 0.0, 0.00),
    ]
    for gate, closed_form, table_value in cases:
        cfg = ExperimentConfig(gate=gate, n=4,
                               subsets=((1, 2), (2, 3), (1, 4)), mode="exact")
        results = {r.subset: r.eta_col for r in run_experiment(cfg).results}
        # target pair against both the rounded table value and the closed form
        if abs(results[(1, 2)] - table_value) > 0.005:
            failures.append(f"{gate}: pair (1,2) gave {results[(1, 2)]:.4f}, "
                            f"table says {table_value}")
        if abs(results[(1, 2)] - closed_form) > 1e-9:
            failures.append(f"{gate}: pair (1,2) off the closed form by "
                            f"{abs(results[(1, 2)] - closed_form):.2e}")
        for off_target in ((2, 3), (1, 4)):
            if abs(results[off_target]) > 1e-9:
                failures.append(f"{gate}: off-target pair {off_target} gave "
                                f"{results[off_target]:.2e}")
    _verdict(1, "table of predicted pair coefficients", failures,
             time.perf_counter() - started, 10.0)


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(2024)
    channels = []
    for i in range(50):
        n = 2 if i % 2 == 0 else 3
        if i % 4 < 2:
            channels.append(random_unitary_ensemble(n, 4, rng))
        else:
            channels.append(random_kraus_channel(n, 4, rng))
    for i, ch in enumerate(channels):
        chi = chi_diagonal(ch)
        subsets = [s for r in (1, 2)
                   for s in itertools.combinations(range(1, ch.n + 1), r)]
        for subset in subsets:
            simulated = exact_decay(ch, subset).value
            predicted = fidelity_decay_from_chi(chi, {q: 1.0 for q in subset}, subset)
            if abs(simulated - predicted) > 1e-9:
                failures.append(f"channel {i} subset {subset}: "
                                f"|{simulated} - {predicted}| > 1e-9")
    # spot checks with all three qubits measured
    spot = [ch for ch in channels if ch.n == 3][:5]
    for i, ch in enumerate(spot):
        chi = chi_diagonal(ch)
        simulated = exact_decay(ch, (1, 2, 3)).value
        predicted = fidelity_decay_from_chi(chi, {1: 1.0, 2: 1.0, 3: 1.0}, (1, 2, 3))
        if abs(simulated - predicted) > 1e-9:
            failures.append(f"spot check {i}: |{simulated} - {predicted}| > 1e-9")
    _verdict(2, "twirl simulation equals chi-diagonal prediction", failures,
             time.perf_counter() - started, 60.0)


def test_criterion_3_pool_equivalence():
    started = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(77)
    for i in range(20):
        ch = (random_unitary_ensemble(2, 3, rng) if i % 2 == 0
              else random_kraus_channel(2, 3, rng))
        subset = (1, 2) if i % 3 else (1,)
        probs = pool_projections(ch, subset).values()
        spread = max(probs) - min(probs)
        if not spread <= ATOL:
            failures.append(f"channel {i}: pools spread by {spread:.2e}")
    _verdict(3, "all ten twirl pools agree on the measured projection", failures,
             time.perf_counter() - started, 60.0)


def test_criterion_4_combination_correctness():
    started = time.perf_counter()
    failures: list[str] = []
    rng = np.random.default_rng(4096)

    # pair combination inverts the decay algebra when no higher terms exist
    for i in range(10):
        ch = (random_unitary_ensemble(2, 4, rng) if i % 2 == 0
              else random_kraus_channel(2, 4, rng))
        cc = collective_coefficients(chi_diagonal(ch))
        combined = combine_subset(dedicated_decays(ch, [(1,), (2,), (1, 2)]))
        if abs(combined - cc[(1, 2)]) > 1e-9:
            failures.append(f"pair inversion {i}: |{combined} - {cc[(1, 2)]}| > 1e-9")

    # three-qubit combination recovers the zzz phase weight
    theta = 0.3
    signs = np.array([1.0, -1.0])
    z3 = np.kron(np.kron(signs, signs), signs)
    ch3 = QuantumChannel.from_unitary(np.diag(np.exp(-1j * theta * z3)))
    decays = {s: exact_decay(ch3, s)
              for r in (1, 2, 3) for s in itertools.combinations((1, 2, 3), r)}
    combined = combine_subset(decays)
    if abs(combined - math.sin(theta) ** 2) > 1e-9:
        failures.append(f"triple combination gave {combined}, "
                        f"expected {math.sin(theta) ** 2}")

    # injected weight-3 terms land in the pair combination as the exact tail
    mix = QuantumChannel.unitary_ensemble(
        [(0.6, zz_coupling(0.25, (1, 2), n=3).data), (0.4, np.diag(np.exp(-1j * 0.3 * z3)))])
    cc = collective_coefficients(chi_diagonal(mix))
    combined = combine_subset(dedicated_decays(mix, [(1,), (2,), (1, 2)]))
    with_tail = cc[(1, 2)] + cc[(1, 2, 3)]
    if abs(combined - with_tail) > 1e-9:
        failures.append(f"weight-3 tail: |{combined} - {with_tail}| > 1e-9")
    _verdict(4, "subset combinations invert the decay algebra", failures,
             time.perf_counter() - started, 60.0)


def test_criterion_5_sampling_statistics():
    started = time.perf_counter()
    failures: list[str] = []
    plan = SamplePlan(0.01, 0.05)
    if plan.realizations != 18445:
        failures.append(f"concentration plan gave N={plan.realizations}, "
                        f"expected 18445")
    ch = QuantumChannel.from_unitary(cnot_gate(1, 2, n=2))
    n_shots = 40000
    envelope = 3.0 / math.sqrt(n_shots)
    hits = 0
    for seed in range(100):
        estimate = run_campaign(ch, (1, 2), SamplePlan(realizations=n_shots), seed=seed)[(1, 2)]
        if abs(estimate.value - 5.0 / 9.0) <= envelope:
            hits += 1
    if hits < 99:
        failures.append(f"only {hits}/100 seeds inside the 3/sqrt(N) envelope")
    _verdict(5, "sampled decay concentrates at the predicted rate", failures,
             time.perf_counter() - started, 300.0)


def test_criterion_6_refocusing_and_hierarchy():
    started = time.perf_counter()
    failures: list[str] = []
    register = crotonic_preset()

    ideal = compile_sequence(time_suspension_sequence(), register)
    cc_ideal = collective_coefficients(chi_diagonal(QuantumChannel.from_unitary(ideal)))
    if cc_ideal.max_at_weight(1, 4) >= 1e-10:
        failures.append(f"ideal sequence leaks {cc_ideal.max_at_weight(1, 4):.2e}")

    miscalibrated = compile_sequence(time_suspension_sequence(pulse_error=0.05),
                                     register)
    chi = chi_diagonal(QuantumChannel.from_unitary(miscalibrated))
    cc = collective_coefficients(chi)
    low_weight = cc.max_at_weight(1, 2)
    high_weight = max_weight_coefficient(chi, 2)
    if low_weight <= 0.0:
        failures.append("pulse error produced no one/two-qubit coefficients")
    if high_weight >= 0.1 * low_weight:
        failures.append(f"three-plus-body weight {high_weight:.2e} is not an "
                        f"order below the one/two-body maximum {low_weight:.2e}")
    _verdict(6, "suspension sequence refocuses; miscalibration stays low-weight",
             failures, time.perf_counter() - started, 60.0)


def test_criterion_7_determinism(tmp_path: Path):
    started = time.perf_counter()
    failures: list[str] = []
    base = dict(gate="cnot", n=4, subsets=((1, 2), (2, 3), (1, 4)),
                mode="sampled", realizations=10**5, seed=20260808)

    runs = {}
    for label, threads in (("first", 1), ("second", 1), ("parallel", 4)):
        report = run_experiment(ExperimentConfig(**base, threads=threads))
        paths = report_write(report, tmp_path / label / "run")
        runs[label] = tuple(p.read_bytes() for p in paths)
    if runs["first"] != runs["second"]:
        failures.append("two identical runs produced different bytes")
    if runs["first"] != runs["parallel"]:
        failures.append("multi-threaded run produced different bytes")
    _verdict(7, "fixed config and seed give byte-identical reports", failures,
             time.perf_counter() - started, 60.0)
