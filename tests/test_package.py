"""The package's public surface and a caller for each public name, the
independence of the test references, the absence of dense Kronecker products
from the package, the one owner of the register-size range and of qubit labels,
the one module that touches files, and the README's quick tour and config block."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import twirlsim
from twirlsim.cli import ExperimentConfig

REFERENCE = Path(__file__).with_name("reference.py")
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")
README = Path(__file__).parent.parent / "README.md"
SOURCES = sorted(Path(twirlsim.__file__).parent.glob("*.py"))


def test_all_names_resolve():
    missing = [name for name in twirlsim.__all__ if not hasattr(twirlsim, name)]
    assert not missing
    assert len(set(twirlsim.__all__)) == len(twirlsim.__all__)


def test_all_lists_every_public_binding():
    bound = {name for name, value in vars(twirlsim).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert bound == set(twirlsim.__all__)


def test_every_public_name_has_a_caller():
    # a public name is read by another part of the package (not at its definition,
    # nor by the package root's re-export), by the README or by the acceptance tests
    used = set(re.findall(r"\w+", README.read_text() + ACCEPTANCE.read_text()))
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    assert sorted(set(twirlsim.__all__) - used) == []


def test_reference_shares_nothing_with_the_engine():
    # the dense references check the decay engine, so they may not use it:
    # no import of twirlsim.protocol, directly or through the package root
    engine = "twirlsim.protocol"
    for node in ast.walk(ast.parse(REFERENCE.read_text())):
        if isinstance(node, ast.Import):
            assert all(alias.name != engine for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.module != engine
            if node.module == "twirlsim":
                for alias in node.names:
                    assert alias.name != "protocol"
                    assert getattr(twirlsim, alias.name).__module__ != engine, alias.name


def test_package_builds_no_kronecker_product():
    # local operators go through states.apply_local, never a dense 2^n x 2^n kron
    assert SOURCES
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "kron":
                raise AssertionError(f"{path.name}:{node.lineno} uses kron")
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                assert all(alias.name != "kron" for alias in node.names), path.name


def test_only_states_compares_against_max_qubits():
    # states._register_size and states._validate_subset own the register and label ranges
    assert SOURCES
    for path in SOURCES:
        if path.name == "states.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                names = {getattr(sub, "id", None) or getattr(sub, "attr", None)
                         for sub in ast.walk(node)}
                assert "MAX_QUBITS" not in names, f"{path.name}:{node.lineno}"


def test_only_states_reads_labels_and_orders_subsets():
    # states._validate_subset returns the target in ascending order: no other module
    # reads a label on its own (states._label) or sorts what the rule returns
    def called(node):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)

    offenders = []
    assert SOURCES
    for path in SOURCES:
        if path.name == "states.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            if called(node) == "_label" or (called(node) == "sorted" and any(
                    isinstance(arg, ast.Call) and called(arg) == "_validate_subset"
                    for arg in node.args)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders


def test_only_cli_touches_files():
    # cli turns text into values and writes reports; every other module takes values
    file_calls = {"open", "read_text", "read_bytes", "write_text"}
    assert SOURCES
    for path in SOURCES:
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                assert name not in file_calls, f"{path.name}:{node.lineno} calls {name}"


def test_readme_config_block_lists_every_key():
    text = README.read_text()
    block = text.split("### Config file")[1].split("```\n")[1]
    keys = [line.split()[0] for line in block.splitlines() if line and not line[0].isspace()]
    fields = [option.name for option in dataclasses.fields(ExperimentConfig)]
    assert sorted(keys) == sorted(fields)
    count = re.search(r"The (\d+) keys", text)
    assert count and int(count.group(1)) == len(fields)


def test_readme_quick_tour_keeps_its_promises():
    # run the block, then check every value its trailing comments promise
    block = README.read_text().split("## Quick tour")[1].split("```python\n")[1].split("```")[0]
    ns: dict = {}
    exec(block, ns)
    promised = [line.split("#")[1].strip() for line in block.splitlines()
                if "#" in line and not line.lstrip().startswith("#")]
    assert promised == ["1/3, 1/3", "5/9", "0.25", "0.25", "N = 18445"]
    ts, decays = ns["ts"], ns["decays"]
    assert decays[(1,)].value == pytest.approx(1 / 3, abs=1e-12)
    assert decays[(2,)].value == pytest.approx(1 / 3, abs=1e-12)
    assert decays[(1, 2)].value == pytest.approx(5 / 9, abs=1e-12)
    assert ts.combine_subset(decays) == pytest.approx(0.25, abs=1e-12)
    assert ts.collective_coefficients(ns["chi"])[(1, 2)] == pytest.approx(0.25, abs=1e-12)
    assert ns["plan"].realizations == 18445
