import contextlib
import io
import math
import statistics
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twirlsim.cli import (
    ConfigError,
    ExperimentConfig,
    OracleMismatch,
    build_channel,
    main,
    parse_config_file,
    parse_subsets,
    report_write,
    run_experiment,
)

DATA = Path(__file__).parent / "data"


class TestConfigParsing:
    def test_parse_subsets(self):
        assert parse_subsets("1-2,2-3,1-4") == ((1, 2), (2, 3), (1, 4))
        assert parse_subsets("2") == ((2,),)
        assert parse_subsets("1-2-3") == ((1, 2, 3),)
        assert parse_subsets("") == ()
        with pytest.raises(ConfigError):
            parse_subsets("1-a")

    def test_config_file(self, tmp_path):
        path = tmp_path / "exp.config"
        path.write_text(
            "# demo\n"
            "gate cnot\n"
            "n 4\n"
            "subsets 1-2,2-3\n"
            "mode sampled\n"
            "realizations 5000\n"
            "seed 42\n"
            "pool S2:Z:Y\n"
            "threads 2\n"
            "oracle on\n")
        cfg = parse_config_file(path)
        assert cfg.gate == "cnot"
        assert cfg.subsets == ((1, 2), (2, 3))
        assert cfg.realizations == 5000
        assert cfg.pool == "S2:Z:Y"
        assert cfg.threads == 2

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "exp.config"
        path.write_text("gates cnot\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "exp.config"
        path.write_text("n four\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_file(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config_file("/nonexistent/exp.config")


class TestBuildChannel:
    def test_named_gates(self):
        for gate in ("identity", "cnot", "cnot2", "c12(0.4)", "c12:0.4", "ie-sequence"):
            ch = build_channel(ExperimentConfig(gate=gate, n=4))
            assert ch.n == 4

    def test_unknown_gate(self):
        with pytest.raises(ConfigError, match="unknown gate"):
            build_channel(ExperimentConfig(gate="toffoli"))

    def test_bad_coupling_angle(self):
        with pytest.raises(ConfigError, match="coupling angle"):
            build_channel(ExperimentConfig(gate="c12(x)"))

    def test_ie_requires_four_qubits(self):
        with pytest.raises(ConfigError, match="n = 4"):
            build_channel(ExperimentConfig(gate="ie-sequence", n=2))

    def test_matrix_file(self, tmp_path):
        path = tmp_path / "swap.mat"
        path.write_text("1 0 0 0\n0 0 1 0\n0 1 0 0\n0 0 0 1\n")
        ch = build_channel(ExperimentConfig(gate=f"matrix:{path}", n=2))
        assert ch.kind == "unitary-ensemble"
        assert ch.n == 2

    def test_matrix_file_complex_entries(self, tmp_path):
        path = tmp_path / "phase.mat"
        path.write_text("1 0\n0 0.5+0.8660254037844387j\n")
        ch = build_channel(ExperimentConfig(gate=f"matrix:{path}", n=1))
        assert abs(ch.terms[0][1][1, 1] - complex(0.5, 0.8660254037844387)) < 1e-12

    def test_matrix_file_errors(self, tmp_path):
        bad = tmp_path / "bad.mat"
        bad.write_text("1 0\n0\n")
        with pytest.raises(ConfigError):
            build_channel(ExperimentConfig(gate=f"matrix:{bad}", n=1))
        with pytest.raises(ConfigError, match="cannot read"):
            build_channel(ExperimentConfig(gate="matrix:/nope.mat", n=1))

    def test_ensemble_file(self, tmp_path):
        path = tmp_path / "flip.ens"
        path.write_text(
            "weight 0.5\n1 0\n0 1\n\nweight 0.5\n0 1\n1 0\n")
        ch = build_channel(ExperimentConfig(gate=f"ensemble:{path}", n=1))
        assert len(ch.terms) == 2
        assert ch.terms[0][0] == 0.5

    def test_ensemble_file_incomplete_block(self, tmp_path):
        path = tmp_path / "bad.ens"
        path.write_text("weight 0.5\n")
        with pytest.raises(ConfigError, match="incomplete"):
            build_channel(ExperimentConfig(gate=f"ensemble:{path}", n=1))

    @pytest.mark.parametrize("line", ["weight", "weight abc"])
    def test_ensemble_file_bad_weight(self, tmp_path, capsys, line):
        path = tmp_path / "bad.ens"
        path.write_text(f"{line}\n1 0\n0 1\n")
        assert main(["--gate", f"ensemble:{path}", "--n", "1", "--subsets", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("twirlsim: config error: bad weight line")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind, contents, terms", [
        ("matrix", "1 0  # first row\n0 1\n", 1),
        ("ensemble", "weight 1  # the only term\n1 0\n0 1\n", 1),
        ("matrix", "\n1 0\n\n# a comment line\n0 1\n\n", 1),
        ("ensemble", "weight 0.5\n1 0\n\n0 1\n\nweight 0.5\n0 1\n  # indented\n1 0\n", 2),
        ("ensemble", "weight 0.5\n\n1 0\n0 1\nweight 0.5\n\n0 1\n1 0\n", 2),
        ("ensemble", "1 0\n0 1\nweight 1\n1 0\n0 1\n", None),
        ("ensemble", "weight 0.5\n1 0\n0 1\nweight 0.5\n", None),
        ("matrix", "", None),
        ("ensemble", "# only a comment\n", None),
        ("matrix", "weight 1\n1 0\n0 1\n", None),
    ], ids=["comment-after-row", "comment-after-weight", "blank-lines-in-matrix",
            "blank-line-inside-block", "blank-line-after-weight", "rows-before-weight",
            "weight-without-rows", "empty-matrix", "empty-ensemble", "weight-in-matrix"])
    def test_operator_files(self, tmp_path, kind, contents, terms):
        path = tmp_path / "gate.txt"
        path.write_text(contents)
        config = ExperimentConfig(gate=f"{kind}:{path}", n=1)
        if terms is None:
            with pytest.raises(ConfigError):
                build_channel(config)
        else:
            assert len(build_channel(config).terms) == terms


class TestValidation:
    def test_subset_out_of_range(self):
        cfg = ExperimentConfig(gate="cnot", n=2, subsets=((1, 3),))
        with pytest.raises(ConfigError, match="outside"):
            run_experiment(cfg)

    def test_subset_too_large(self):
        cfg = ExperimentConfig(gate="identity", n=4, subsets=((1, 2, 3, 4),))
        with pytest.raises(ConfigError, match="1 to 3"):
            run_experiment(cfg)

    def test_sampled_needs_plan(self):
        cfg = ExperimentConfig(gate="cnot", n=2, subsets=((1, 2),), mode="sampled")
        with pytest.raises(ConfigError, match="needs realizations"):
            run_experiment(cfg)

    def test_realizations_below_precision_floor(self):
        cfg = ExperimentConfig(gate="cnot", n=2, subsets=((1, 2),), mode="sampled",
                               realizations=50, delta=0.01)
        with pytest.raises(ConfigError, match="floor"):
            run_experiment(cfg)

    def test_bad_pool(self):
        cfg = ExperimentConfig(gate="cnot", n=2, subsets=((1, 2),), pool="S9:I:X")
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestRunExperiment:
    def test_exact_cnot_pairs(self):
        cfg = ExperimentConfig(gate="cnot", n=4,
                               subsets=((1, 2), (2, 3), (1, 4)), mode="exact")
        report = run_experiment(cfg)
        etas = {r.subset: r.eta_col for r in report.results}
        assert etas[(1, 2)] == pytest.approx(0.25, abs=1e-9)
        assert etas[(2, 3)] == pytest.approx(0.0, abs=1e-9)
        assert etas[(1, 4)] == pytest.approx(0.0, abs=1e-9)
        for r in report.results:
            assert abs(r.discrepancy - r.tail) < 1e-9

    def test_exact_discrepancy_equals_tail_with_three_body(self, tmp_path):
        # channel with a genuine three-qubit term: pair result exceeds the
        # pair oracle by exactly the higher-weight tail
        theta = 0.3
        signs = np.array([1.0, -1.0])
        z3 = np.kron(np.kron(signs, signs), signs)
        diag = np.exp(-1j * theta * z3)
        path = tmp_path / "zzz.mat"
        path.write_text("\n".join(
            " ".join(str(complex(diag[i]) if i == j else 0j) for j in range(8))
            for i in range(8)))
        cfg = ExperimentConfig(gate=f"matrix:{path}", n=3, subsets=((1, 2),))
        report = run_experiment(cfg)
        res = report.results[0]
        assert res.tail == pytest.approx(math.sin(theta) ** 2, abs=1e-9)
        assert res.discrepancy == pytest.approx(res.tail, abs=1e-9)
        assert res.eta_col == pytest.approx(math.sin(theta) ** 2, abs=1e-9)

    def test_empty_targets_metadata_only(self):
        report = run_experiment(ExperimentConfig(gate="identity", n=2))
        text = report.to_report_text()
        assert "[config]" in text
        assert "[subset" not in text
        assert report.to_table_csv().strip().splitlines() == [
            "gate,subset,gamma,stderr,eta_col,eta_stderr,oracle,discrepancy"]

    def test_oracle_off_blanks_columns(self):
        cfg = ExperimentConfig(gate="cnot", n=2, subsets=((1, 2),), oracle=False)
        report = run_experiment(cfg)
        assert report.results[0].oracle is None
        row = report.to_table_csv().splitlines()[1]
        assert row.endswith(",,")
        assert "oracle" not in report.to_report_text().replace("oracle", "", 1)

    def test_budget_lines(self):
        cfg = ExperimentConfig(gate="cnot", n=2, subsets=((1, 2),),
                               prep_error=0.01, clifford_error=0.01)
        report = run_experiment(cfg)
        res = report.results[0]
        assert res.eta_bound is not None
        got = res.decay_bounds[(1, 2)]
        assert got == pytest.approx(math.sqrt(0.0001 * (1 + 4 * 5 / 9) + 0.0001),
                                    abs=1e-12)
        assert "eta_bound" in report.to_report_text()

    def test_sampled_report_has_errors(self):
        cfg = ExperimentConfig(gate="cnot", n=2, subsets=((1, 2),), mode="sampled",
                               realizations=4000, seed=5)
        report = run_experiment(cfg)
        res = report.results[0]
        assert res.decays[(1, 2)].realizations == 4000
        assert res.eta_stderr > 0.0
        assert abs(res.eta_col - 0.25) < 3 * res.eta_stderr

    def test_sampled_envelope_over_seeds(self):
        # the reported coefficient error is the binomial error of the shared
        # shots, so the 3-sigma envelope covers nearly every seed
        hits = 0
        for seed in range(100):
            cfg = ExperimentConfig(gate="cnot", n=2, subsets=((1, 2),),
                                   mode="sampled", realizations=2000, seed=seed)
            res = run_experiment(cfg).results[0]
            if abs(res.eta_col - res.oracle) <= 3 * res.eta_stderr:
                hits += 1
        assert hits >= 99

    @pytest.mark.parametrize("gate", ["cnot", "c12(0.4)"])
    def test_sampled_eta_stderr_matches_seed_spread(self, gate):
        # all subset decays come from the same shots; the reported error must
        # track the seed-to-seed spread, not the independent-decay sum
        etas, errs = [], []
        for seed in range(150):
            cfg = ExperimentConfig(gate=gate, n=3, subsets=((1, 2),), mode="sampled",
                                   realizations=2000, seed=seed, oracle=False)
            res = run_experiment(cfg).results[0]
            etas.append(res.eta_col)
            errs.append(res.eta_stderr)
        spread = statistics.stdev(etas)
        assert abs(statistics.mean(errs) - spread) <= 0.2 * spread

    def test_sampled_eta_stderr_zero_without_all_ones_shots(self):
        # CNOT(1, 2) leaves qubit 3 at 0, so no shot reads 1 on all of 1-2-3
        for seed in range(25):
            cfg = ExperimentConfig(gate="cnot", n=3, subsets=((1, 2, 3),), mode="sampled",
                                   realizations=2000, seed=seed, oracle=False)
            res = run_experiment(cfg).results[0]
            assert res.eta_col == 0.0
            assert res.eta_stderr == 0.0


class TestDeterminism:
    CFG = dict(gate="cnot", n=4, subsets=((1, 2), (2, 3), (1, 4)), mode="sampled",
               realizations=3000, seed=97)

    def test_repeat_runs_byte_identical(self, tmp_path):
        r1 = run_experiment(ExperimentConfig(**self.CFG))
        r2 = run_experiment(ExperimentConfig(**self.CFG))
        assert r1.to_report_text() == r2.to_report_text()
        assert r1.to_table_csv() == r2.to_table_csv()

    def test_thread_count_invariant(self):
        seq = run_experiment(ExperimentConfig(**self.CFG, threads=1))
        par = run_experiment(ExperimentConfig(**self.CFG, threads=3))
        assert seq.to_report_text() == par.to_report_text()
        assert seq.to_table_csv() == par.to_table_csv()

    def test_written_files_byte_identical(self, tmp_path):
        report = run_experiment(ExperimentConfig(**self.CFG))
        p1, t1 = report_write(report, tmp_path / "a" / "run")
        p2, t2 = report_write(report, tmp_path / "b" / "run")
        assert p1.read_bytes() == p2.read_bytes()
        assert t1.read_bytes() == t2.read_bytes()

    def test_golden_files(self, tmp_path):
        cfg = parse_config_file(DATA / "golden.config")
        report = run_experiment(cfg)
        report_path, table_path = report_write(report, tmp_path / "golden")
        assert report_path.read_bytes() == (DATA / "golden.report.txt").read_bytes()
        assert table_path.read_bytes() == (DATA / "golden.table.csv").read_bytes()


class TestMain:
    def test_success_exit_code(self, tmp_path, capsys):
        code = main(["--gate", "cnot", "--n", "2", "--subsets", "1-2",
                     "--mode", "exact", "--out", str(tmp_path / "run")])
        assert code == 0
        assert (tmp_path / "run.report.txt").exists()
        assert (tmp_path / "run.table.csv").exists()

    def test_stdout_when_no_out(self, capsys):
        code = main(["--gate", "identity", "--n", "1", "--subsets", "1"])
        assert code == 0
        assert "[subset 1]" in capsys.readouterr().out

    def test_config_error_exit_code(self, capsys):
        code = main(["--gate", "warp-drive", "--subsets", "1-2"])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_subset_error_exit_code(self):
        assert main(["--gate", "cnot", "--n", "2", "--subsets", "1-5"]) == 1

    @pytest.mark.parametrize("args", [
        ["--mode", "sampled", "--n-realizations", "100", "--seed", "-1"],
        ["--prep-error", "-1"],
        ["--prep-error", "nan"],
        ["--mode", "bogus"],
        ["--n", "abc"],
        ["--oracle", "maybe"],
        ["--bogus-flag"],
        ["--assignment-order", "bogus"],
        ["--mode", "sampled", "--n-realizations", "100", "--channel-sampling", "nope"],
        ["--epsilon", "7"],
        ["--mode", "sampled", "--n-realizations", "100", "--delta", "0.5", "--epsilon", "7"],
        ["--mode", "sampled", "--n-realizations", "100", "--epsilon", "0.2"],
        ["--config", "assignment_order bogus\n"],
        ["--config", "oracle of\n"],
        ["--gate", "ie", "--n", "4", "--ie-pulse-error", "nan"],
        ["--gate", "ie", "--n", "4", "--ie-duration", "nan"],
        ["--gate", "ie", "--n", "4", "--ie-duration", "inf"],
        ["--gate", "ie", "--n", "4", "--ie-duration", "1e308"],
        ["--prep-error", "1e308"],
        ["--mode", "sampled", "--delta", "1e-300", "--epsilon", "0.5"],
        ["--mode", "sampled", "--n-realizations", "200", "--delta", "0.1", "--epsilon", "0.01"],
        ["--mode", "sampled", "--n-realizations", "10000000000000"],
        ["--mode", "sampled", "--delta", "1e-6", "--epsilon", "0.1"],
        ["--prep-error", "1e154"],
        ["--clifford-error", "1e154"],
    ], ids=["negative-seed", "negative-prep-error", "nan-prep-error", "bad-mode",
            "non-integer-n", "bad-oracle", "unknown-flag", "bad-assignment-order",
            "bad-channel-sampling", "epsilon-out-of-range", "epsilon-out-of-range-with-count",
            "epsilon-without-delta", "config-bad-assignment-order", "config-bad-oracle",
            "nan-ie-pulse-error", "nan-ie-duration", "inf-ie-duration",
            "overflowing-ie-duration", "overflowing-prep-error", "underflowing-delta",
            "count-below-chernoff-floor", "huge-realization-count", "tiny-delta",
            "infinite-prep-bound", "infinite-clifford-bound"])
    def test_bad_numbers_are_config_errors(self, tmp_path, capsys, args):
        if args[0] == "--config":
            path = tmp_path / "exp.config"
            path.write_text(args[1])
            args = ["--config", str(path)]
        assert main(["--gate", "cnot", "--n", "2", "--subsets", "1-2", *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("twirlsim: config error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("gate, n, contents", [
        ("matrix", 1, "1 1\n0 1\n"),
        ("matrix", 1, "1 0 0\n0 1 0\n0 0 1\n"),
        ("matrix", 1, "1 0 0 0\n0 1 0 0\n0 0 0 1\n0 0 1 0\n"),
        ("ensemble", 1, "weight nan\n1 0\n0 1\n\nweight 1\n0 1\n1 0\n"),
        ("cnot", 1, None),
        ("c12(nan)", 2, None),
        ("c12(inf)", 2, None),
        ("matrix", 1, "1 0\n0 nan\n"),
        ("matrix", 1, "1 0\n0 inf\n"),
    ], ids=["non-unitary", "three-by-three", "size-differs-from-n", "nan-weight",
            "cnot-on-one-qubit", "nan-angle", "inf-angle", "nan-entry", "inf-entry"])
    def test_unbuildable_gates_are_config_errors(self, tmp_path, capsys, gate, n, contents):
        if contents is not None:
            path = tmp_path / "gate.txt"
            path.write_text(contents)
            gate = f"{gate}:{path}"
        assert main(["--gate", gate, "--n", str(n), "--subsets", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("twirlsim: config error: ")
        assert err.count("\n") == 1

    def test_oracle_switch_words(self, tmp_path, capsys):
        path = tmp_path / "exp.config"
        for word, on in [*((w, True) for w in ("on", "true", "yes", "1", "ON")),
                         *((w, False) for w in ("off", "false", "no", "0", "Off"))]:
            path.write_text(f"oracle {word}\n")
            assert parse_config_file(path).oracle is on
            assert main(["--gate", "cnot", "--n", "2", "--subsets", "1-2",
                         "--oracle", word]) == 0
            assert ("\noracle " in capsys.readouterr().out) is on

    def test_oracle_mismatch_exit_code(self, monkeypatch, capsys):
        import twirlsim.cli as cli_mod

        def boom(config):
            raise OracleMismatch("forced")

        monkeypatch.setattr(cli_mod, "run_experiment", boom)
        assert main(["--gate", "cnot", "--subsets", "1-2"]) == 2
        assert "invariant" in capsys.readouterr().err

    def test_cli_overrides_config_file(self, tmp_path):
        path = tmp_path / "exp.config"
        path.write_text("gate cnot\nn 2\nsubsets 1-2\nmode exact\nseed 1\n")
        out = tmp_path / "run"
        code = main(["--config", str(path), "--gate", "identity",
                     "--out", str(out)])
        assert code == 0
        assert "gate identity" in (tmp_path / "run.report.txt").read_text()


# Valid and wrong values per config key. Valid ones keep runs small (n <= 4,
# at most 500 realizations, at most 4 threads); "{dir}" is a temp dir, and
# every output path lies in it.
OPTION_VALUES = {
    "gate": (["identity", "cnot", "cnot2", "c12(0.3)", "ie-sequence", "matrix:{dir}/x.mat",
              "ensemble:{dir}/flip.ens"],
             ["c12(nan)", "warp", "matrix:{dir}/nan.mat", "matrix:{dir}/missing.mat"]),
    "n": (["1", "2", "3", "4"], ["0", "-1"]),
    "subsets": (["1", "1-2", "2-3,1-2", "1-2-3", "none"], ["1-5", "1-1", "1-x"]),
    "mode": (["exact", "sampled"], []),
    "pool": (["S1:I:X", "S2:Z:Y", "half-12", "full-24"], ["S9:I:X"]),
    "seed": (["0", "7"], ["-1"]),
    "delta": (["0.5", "0.2", "0.1"], ["0", "2", "1e-300"]),
    "epsilon": (["0.5", "0.1", "0.01"], ["0", "7"]),
    "realizations": (["50", "200", "500"], ["1", "0", "-3"]),
    "prep_error": (["0", "0.01"], ["-1", "1e308"]),
    "clifford_error": (["0", "0.02", "1e154"], ["-1", "1e200"]),
    "out": (["{dir}/run", "{dir}/sub/run"], ["{dir}/x.mat/run"]),
    "threads": (["1", "2", "4"], ["0", "-1"]),
    "oracle": (["on", "off", "yes", "0"], ["maybe"]),
    "assignment_order": (["random", "cyclic"], ["bogus"]),
    "channel_sampling": (["exact", "per-shot-ensemble"], ["nope"]),
    "ie_duration": (["0.0122", "1"], ["0", "-1", "1e308"]),
    "ie_pulse_error": (["0", "0.05"], ["1e308"]),
}
JUNK = ["", "abc", "nan", "inf", "-inf", "1e999", "1.5"]


def _flag(key: str) -> str:
    return "--n-realizations" if key == "realizations" else "--" + key.replace("_", "-")


def _value(key: str):
    valid, wrong = OPTION_VALUES[key]
    junk = [] if key == "out" else JUNK
    return st.sampled_from(valid * 3 + wrong + junk)  # valid values drawn more often


_key_values = st.sampled_from(sorted(OPTION_VALUES)).flatmap(
    lambda key: st.tuples(st.just(key), _value(key)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(flags=st.lists(_key_values, max_size=6),
       config=st.none() | st.lists(_key_values, max_size=5),
       # an unknown flag, a flag missing its value, an unknown config key
       bad_flag=st.sampled_from([[], [], [], ["--bogus-flag"], ["--n"]]),
       bad_line=st.sampled_from(["", "", "", "bogus_key 1\n"]))
def test_main_exits_cleanly_on_any_input(flags, config, bad_flag, bad_line):
    """``main`` returns 0, 1 or 2 and raises nothing; exit 1 prints one line."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "x.mat").write_text("0 1\n1 0\n")
        Path(tmp, "nan.mat").write_text("1 0\n0 nan\n")
        Path(tmp, "flip.ens").write_text("weight 0.5\n1 0\n0 1\n\nweight 0.5\n0 1\n1 0\n")
        argv = [token.format(dir=tmp) for k, v in flags for token in (_flag(k), v)] + bad_flag
        if config is not None:
            path = Path(tmp, "exp.config")
            path.write_text("".join(f"{k} {v.format(dir=tmp)}\n" for k, v in config) + bad_line)
            argv = ["--config", str(path), *argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("twirlsim: config error: ")
        assert err.getvalue().count("\n") == 1
