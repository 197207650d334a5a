import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

import wlra.cli
from wlra.cli import (
    ExperimentSpec,
    compare_experiments,
    main,
    merge_on_iterations,
    merge_on_time,
    resolve_iota,
    run_experiment,
    write_trace_csv,
)
from wlra.data_io import load_triplets, problem_from_triplets, synth_lowrank, write_triplets
from wlra.errors import MismatchedData
from wlra.solvers import ArmijoParams, Budget, IterTrace, TraceRecord
from wlra.svd_init import fill_missing_column_mean

from helpers import best_rank_k


@pytest.fixture(scope="module")
def synth_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    tm = synth_lowrank(50, 20, 3, 0.4, 0.1, seed=0)
    write_triplets(tm, path)
    return path


@pytest.fixture(scope="module")
def full_file(tmp_path_factory):
    """A fully observed instance, for the positive-weights algorithms."""
    path = tmp_path_factory.mktemp("data") / "full.csv"
    write_triplets(synth_lowrank(20, 10, 3, 1.0, 0.1, seed=0), path)
    return path


def count_calls(monkeypatch, *names):
    """Patch each wlra.cli.<name> with a wrapper; the list returned gets the
    name at each call."""
    calls = []
    for name in names:
        real = getattr(wlra.cli, name)
        monkeypatch.setattr(
            wlra.cli, name,
            lambda *a, real=real, name=name, **kw: calls.append(name) or real(*a, **kw),
        )
    return calls


def make_trace(points):
    trace = IterTrace()
    for t, elapsed, cost in points:
        trace.append(TraceRecord(t=t, elapsed_seconds=elapsed, cost_unregularized=cost))
    return trace


class TestMerging:
    def test_iteration_alignment_same_grid(self):
        a = make_trace([(t, t * 0.1, 100.0 - t) for t in range(100)])
        b = make_trace([(t, t * 0.1, 200.0 - t) for t in range(100)])
        header, rows = merge_on_iterations([a, b], ["a", "b"])
        assert header == ["t", "a", "b"]
        assert len(rows) == 100
        assert rows[5] == [5, 95.0, 195.0]

    def test_iteration_alignment_carries_forward(self):
        a = make_trace([(0, 0.0, 10.0), (2, 0.2, 8.0)])
        b = make_trace([(0, 0.0, 20.0), (1, 0.1, 15.0), (2, 0.2, 12.0)])
        _, rows = merge_on_iterations([a, b], ["a", "b"])
        assert rows == [[0, 10.0, 20.0], [1, 10.0, 15.0], [2, 8.0, 12.0]]

    def test_time_binning_arithmetic(self):
        # 0.1 s bins over a 5 s horizon -> 50 rows
        a = make_trace([(t, t * 0.05, 50.0 - t) for t in range(101)])
        b = make_trace([(t, t * 0.025, 80.0 - t * 0.5) for t in range(201)])
        header, rows = merge_on_time([a, b], ["a", "b"], bin_width=0.1, horizon=5.0)
        assert header == ["seconds", "a", "b"]
        assert len(rows) == 50
        assert rows[0][0] == pytest.approx(0.1)
        assert rows[-1][0] == pytest.approx(5.0)
        # at 1.0 s trace a has reached t=20, trace b t=40
        assert rows[9] == [pytest.approx(1.0), 30.0, 60.0]

    def test_merges_match_brute_force_carry_forward(self):
        # Tied elapsed times, including ties on a bin edge (0.5), and grid
        # values before the first record of trace a.
        a = make_trace([(2, 0.3, 5.0), (4, 0.3, 4.0), (7, 0.3, 3.5), (9, 0.8, 2.0)])
        b = make_trace([(0, 0.0, 9.0), (1, 0.5, 8.0), (5, 0.5, 7.0), (6, 1.2, 6.0), (9, 1.2, 5.5)])

        def oracle(trace, key, value):
            cost = trace.records[0].cost_unregularized
            for rec in trace.records:
                if key(rec) <= value:
                    cost = rec.cost_unregularized
            return cost

        def expected(key, grid):
            return [[g, oracle(a, key, g), oracle(b, key, g)] for g in grid]

        _, rows = merge_on_iterations([a, b], ["a", "b"])
        assert rows == expected(lambda r: r.t, [0, 1, 2, 4, 5, 6, 7, 9])
        for width, nbins in ((0.25, 5), (0.1, 13)):
            _, rows = merge_on_time([a, b], ["a", "b"], bin_width=width, horizon=1.3)
            edges = [i * width for i in range(1, nbins + 1)]
            assert rows == expected(lambda r: r.elapsed_seconds, edges)

    @pytest.mark.parametrize("width", [1e-300, 5e-324])
    def test_time_grid_too_fine_refused(self, width):
        # Refused before any row is built; at 5e-324 the row count is inf.
        a = make_trace([(0, 0.0, 2.0), (10, 0.5, 1.0)])
        with pytest.raises(MismatchedData, match="--bin"):
            merge_on_time([a], ["a"], bin_width=width)

    def test_time_grid_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(wlra.cli, "MAX_TIME_ROWS", 100)
        a = make_trace([(0, 0.0, 2.0), (10, 30.0, 1.0)])
        _, rows = merge_on_time([a], ["a"], bin_width=0.25, horizon=25.0)
        assert len(rows) == 100
        with pytest.raises(MismatchedData, match="101 rows"):
            merge_on_time([a], ["a"], bin_width=0.25, horizon=25.25)


class TestRunExperiment:
    def test_first_row_matches_truncation_oracle(self, synth_file, tmp_path):
        out = tmp_path / "trace.csv"
        spec = ExperimentSpec(
            algorithm="sgd-manifold", k=3, seed=5,
            budget=Budget(max_iterations=1000), lam=1e-2, big_k=1.0,
            trace_every=10,
        )
        tm = load_triplets(synth_file)
        trace = run_experiment(spec, tm)
        write_trace_csv(trace, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,elapsed_seconds,cost_unregularized"
        assert len(lines) == 1 + 1000 // 10 + 1
        data = problem_from_triplets(tm, 3)
        p_best, _ = best_rank_k(fill_missing_column_mean(data), 3)
        res = data.a_vals - p_best[data.rows, data.cols]
        oracle = float(np.dot(data.w_vals, res**2))
        first_cost = float(lines[1].split(",")[2])
        assert abs(first_cost - oracle) <= 1e-10 * max(1.0, oracle)
        assert trace.records[0].cost_unregularized == first_cost

    def test_all_inits_share_first_cost(self, synth_file):
        tm = load_triplets(synth_file)
        costs = []
        for algorithm in ("sgd-manifold", "sgd-euclidean", "als-manifold", "als-euclidean"):
            spec = ExperimentSpec(
                algorithm=algorithm, k=3, seed=1,
                budget=Budget(max_iterations=1), lam=1e-2,
            )
            costs.append(run_experiment(spec, tm).records[0].cost_unregularized)
        assert max(costs) - min(costs) <= 1e-10

    def test_invalid_lambda_rejected(self, synth_file):
        tm = load_triplets(synth_file)
        with pytest.raises(MismatchedData, match="--lambda"):
            spec = ExperimentSpec(
                algorithm="sgd-manifold", k=3, seed=1,
                budget=Budget(max_iterations=1), lam=-1.0,
            )
            run_experiment(spec, tm)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(MismatchedData):
            ExperimentSpec(
                algorithm="sgd-quantum", k=3, seed=1, budget=Budget(max_iterations=1)
            )

    def test_line_search_defaults_are_the_solvers(self):
        spec = ExperimentSpec(
            algorithm="als-manifold", k=3, seed=0, budget=Budget(max_iterations=1), lam=1e-2,
        )
        assert (spec.alpha_bar, spec.beta, spec.trace_every) == (None, None, None)
        assert spec.armijo_params() == ArmijoParams(iota=resolve_iota(spec))
        given = dataclasses.replace(spec, alpha_bar=3.0, beta=0.25)
        assert given.armijo_params() == ArmijoParams(resolve_iota(spec), 3.0, 0.25)

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("iota", 0.0, "--iota: need 0 < iota < 1, got 0.0"),
            ("alpha_bar", math.inf, "--alpha-bar: need 0 < alpha_bar < inf, got inf"),
            ("beta", math.nan, "--beta: need 0 < beta < 1, got nan"),
            ("big_k", 0.5, "--bigK: need K >= 1, got 0.5"),
        ],
    )
    @pytest.mark.parametrize("algorithm", ["sgd-manifold", "als-manifold"])
    def test_spec_checks_its_values_naming_the_flag(self, field, value, named, algorithm):
        # A value the algorithm reads is held to its solver's rule; any other
        # is refused as unread, whatever it is.
        flag = named.split(":")[0]
        if flag[2:] not in wlra.cli._SOLVERS[algorithm][2]:
            named = f"{flag}: {algorithm} does not read it"
        with pytest.raises(MismatchedData, match=re.escape(named)):
            ExperimentSpec(
                algorithm=algorithm, k=3, seed=0, budget=Budget(max_iterations=1), lam=1e-2,
                **{field: value},
            )

    def test_iota_presets(self):
        spec = ExperimentSpec(
            algorithm="als-manifold", k=3, seed=0,
            budget=Budget(max_iterations=1), lam=1e-2,
        )
        assert resolve_iota(spec) == pytest.approx(108.0 / 270000.0)
        spec4 = ExperimentSpec(
            algorithm="als-manifold", k=3, seed=0,
            budget=Budget(max_iterations=1), lam=1e-4,
        )
        assert resolve_iota(spec4) == pytest.approx(11.0 / 270000000.0)
        override = ExperimentSpec(
            algorithm="als-manifold", k=3, seed=0,
            budget=Budget(max_iterations=1), lam=1e-2, iota=0.25,
        )
        assert resolve_iota(override) == 0.25


class TestCompare:
    def test_identical_specs_identical_columns(self, synth_file, tmp_path):
        tm = load_triplets(synth_file)
        out = tmp_path / "cmp.csv"
        spec = ExperimentSpec(
            algorithm="sgd-manifold", k=3, seed=9,
            budget=Budget(max_iterations=50), lam=1e-2, trace_every=10, name="x",
        )
        header, rows = compare_experiments([spec, spec], tm, out)
        assert header == ["t", "x", "x"]
        for row in rows:
            assert row[1] == row[2]

    def test_set_up_once_matches_separate_runs(self, synth_file, tmp_path, monkeypatch):
        tm = load_triplets(synth_file)
        specs = [
            ExperimentSpec(
                algorithm=algorithm, k=3, seed=4, budget=Budget(max_iterations=40),
                lam=1e-2, trace_every=10, name=algorithm,
            )
            for algorithm in ("sgd-manifold", "sgd-euclidean", "als-manifold")
        ]
        # each run with its own set-up, as `wlra run` does
        header, rows = merge_on_iterations(
            [run_experiment(spec, tm) for spec in specs], [s.label for s in specs]
        )
        expected = ",".join(header) + "\n" + "".join(
            ",".join([str(int(row[0]))] + [repr(float(v)) for v in row[1:]]) + "\n"
            for row in rows
        )
        svd_calls = []
        real = wlra.cli.truncated_svd_init
        monkeypatch.setattr(
            wlra.cli, "truncated_svd_init",
            lambda *a: svd_calls.append(1) or real(*a),
        )
        out = tmp_path / "cmp.csv"
        compare_experiments(specs, tm, out)
        assert len(svd_calls) == 1
        assert out.read_bytes() == expected.encode()

    def test_bad_lambda_rejected_before_set_up(self, synth_file, tmp_path, monkeypatch):
        tm = load_triplets(synth_file)
        good = ExperimentSpec(
            algorithm="sgd-manifold", k=3, seed=0,
            budget=Budget(max_iterations=10), lam=1e-2,
        )
        monkeypatch.setattr(wlra.cli, "truncated_svd_init", None)  # never reached
        with pytest.raises(MismatchedData):
            bad = ExperimentSpec(
                algorithm="als-euclidean", k=3, seed=0,
                budget=Budget(max_iterations=10), lam=0.0,
            )
            compare_experiments([good, bad], tm, tmp_path / "cmp.csv")
        assert not (tmp_path / "cmp.csv").exists()

    @pytest.mark.parametrize(
        "align, bin_width, named",
        [
            ("diagonal", 0.1, "unknown alignment 'diagonal'"),
            ("seconds", float("nan"), "--bin must be positive and finite, got nan"),
            ("seconds", float("inf"), "--bin must be positive and finite, got inf"),
            ("seconds", 0.0, "--bin must be positive and finite, got 0.0"),
        ],
        ids=["align-diagonal", "bin-nan", "bin-inf", "bin-zero"],
    )
    def test_bad_alignment_rejected_before_set_up(
        self, synth_file, tmp_path, monkeypatch, align, bin_width, named
    ):
        tm = load_triplets(synth_file)
        spec = ExperimentSpec(
            algorithm="sgd-manifold", k=3, seed=0,
            budget=Budget(max_iterations=10), lam=1e-2,
        )
        monkeypatch.setattr(wlra.cli, "_set_up", None)  # never reached
        with pytest.raises(MismatchedData, match=re.escape(named)):
            compare_experiments([spec], tm, tmp_path / "cmp.csv", align, bin_width)
        assert not (tmp_path / "cmp.csv").exists()

    def test_mismatched_k_rejected(self, synth_file, tmp_path):
        tm = load_triplets(synth_file)
        a = ExperimentSpec(
            algorithm="sgd-manifold", k=3, seed=0,
            budget=Budget(max_iterations=10), lam=1e-2,
        )
        b = ExperimentSpec(
            algorithm="sgd-manifold", k=2, seed=0,
            budget=Budget(max_iterations=10), lam=1e-2,
        )
        with pytest.raises(MismatchedData):
            compare_experiments([a, b], tm, tmp_path / "cmp.csv")


class TestCommandLine:
    def test_synth_ingest_run_pipeline(self, tmp_path, capsys):
        synth = tmp_path / "s.csv"
        assert main([
            "synth", "--rows", "30", "--cols", "12", "--rank", "2",
            "--observe-prob", "0.5", "--noise", "0.1", "--seed", "4",
            "--out", str(synth),
        ]) == 0
        norm = tmp_path / "norm.csv"
        assert main(["ingest", "--in", str(synth), "--out", str(norm)]) == 0
        trace = tmp_path / "t.csv"
        code = main([
            "run", "--in", str(norm), "--algorithm", "sgd-manifold",
            "--k", "2", "--lambda", "1e-2", "--seed", "1",
            "--iters", "200", "--trace-every", "20", "--out", str(trace),
        ])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "t,elapsed_seconds,cost_unregularized"
        assert len(lines) == 12

    @pytest.mark.parametrize(
        "flag, value", [("--rows", "0"), ("--rows", "-3"), ("--cols", "0"),
                        ("--noise", "inf"), ("--noise", "nan"), ("--seed", "-2")],
    )
    def test_synth_rejects_bad_shape_or_noise(self, tmp_path, capsys, flag, value):
        args = {"--rows": "30", "--cols": "12", "--noise": "0.1", flag: value}
        out = tmp_path / "s.csv"
        code = main([
            "synth", *(a for kv in args.items() for a in kv), "--rank", "2",
            "--observe-prob", "0.5", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "need rows, cols and rank >= 1" in err and value in err
        assert not out.exists()

    def test_run_rejects_bad_lambda(self, synth_file, tmp_path, capsys):
        code = main([
            "run", "--in", str(synth_file), "--algorithm", "sgd-manifold",
            "--k", "3", "--lambda", "-0.5", "--seed", "0",
            "--iters", "10", "--out", str(tmp_path / "x.csv"),
        ])
        assert code != 0
        assert "--lambda" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algorithm, lam",
        [("sgd-euclidean", "1e-160"), ("sgd-euclidean", "1e160"), ("sgd-manifold", "1e160")],
    )
    def test_run_refuses_lambda_overflowing_phi_min(
        self, synth_file, tmp_path, capsys, algorithm, lam
    ):
        # an uncaught OverflowError once ended these runs with exit status 1
        out = tmp_path / "x.csv"
        code = main([
            "run", "--in", str(synth_file), "--algorithm", algorithm, "--k", "3",
            "--lambda", lam, "--iters", "10", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--lambda: lambda=" in err and "phi_min=inf" in err
        assert not out.exists()

    @pytest.mark.parametrize("alpha_bar", ["nan", "inf"])
    def test_run_rejects_non_finite_alpha_bar(self, synth_file, tmp_path, capsys, alpha_bar):
        out = tmp_path / "x.csv"
        code = main([
            "run", "--in", str(synth_file), "--algorithm", "als-manifold", "--k", "3",
            "--lambda", "1e-2", "--alpha-bar", alpha_bar, "--iters", "20", "--out", str(out),
        ])
        assert code == 2
        assert f"0 < alpha_bar < inf, got {alpha_bar}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--seconds", "nan"), ("--seconds", "inf"), ("--seconds", "0"), ("--iters", "-1")],
    )
    def test_run_rejects_bad_budget_naming_flag(self, synth_file, tmp_path, capsys, flag, value):
        out = tmp_path / "x.csv"
        code = main([
            "run", "--in", str(synth_file), "--algorithm", "sgd-manifold", "--k", "3",
            "--lambda", "1e-2", flag, value, "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and value in err and "max_" not in err
        assert not out.exists()

    def test_run_needs_k(self, synth_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main([
            "run", "--in", str(synth_file), "--algorithm", "sgd-manifold",
            "--lambda", "1e-2", "--iters", "10", "--out", str(out),
        ])
        assert code == 2
        assert "--k is required" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "k, named, loads",
        [("0", "--k: need k >= 1, got 0", 0), ("21", "--k: need k <= min(m, n) = 20, got 21", 1)],
    )
    def test_run_refuses_k_naming_flag(self, synth_file, tmp_path, capsys, monkeypatch,
                                       k, named, loads):
        # k < 1 is refused before the triplet file is read; k > min(m, n)
        # once it is, before the set-up.
        calls = count_calls(monkeypatch, "load_triplets", "problem_from_triplets")
        out = tmp_path / "x.csv"
        code = main([
            "run", "--in", str(synth_file), "--algorithm", "sgd-manifold", "--k", k,
            "--lambda", "1e-2", "--iters", "10", "--out", str(out),
        ])
        assert code == 2
        assert named in capsys.readouterr().err
        assert calls == ["load_triplets"] * loads
        assert not out.exists()

    @pytest.mark.parametrize(
        "k, named", [("0", "--k: need k >= 1, got 0"), ("21", "--k: need k <= min(m, n) = 20, got 21")]
    )
    def test_init_svd_refuses_k_naming_flag(self, synth_file, capsys, monkeypatch, k, named):
        # once refused by ProblemData, after problem_from_triplets, naming no flag
        calls = count_calls(monkeypatch, "load_triplets", "problem_from_triplets")
        assert main(["init-svd", "--in", str(synth_file), "--k", k]) == 2
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""
        assert calls == ["load_triplets"]

    @pytest.mark.parametrize("big_k, code", [("inf", 2), ("1e300", 0)])
    def test_run_big_k_must_be_finite(self, synth_file, tmp_path, capsys, monkeypatch,
                                      big_k, code):
        # K = inf once passed the K check and was then blamed on --lambda,
        # because it makes phi_min infinite
        calls = count_calls(monkeypatch, "_set_up")
        out = tmp_path / "x.csv"
        assert main([
            "run", "--in", str(synth_file), "--algorithm", "sgd-manifold", "--k", "3",
            "--lambda", "1e-2", "--bigK", big_k, "--iters", "10", "--out", str(out),
        ]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert "--bigK: need K < inf, got inf" in err and "--lambda" not in err
            assert calls == [] and not out.exists()
        else:
            assert out.exists()

    def test_run_big_k_overflowing_phi_min_names_both_flags(self, synth_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main([
            "run", "--in", str(synth_file), "--algorithm", "sgd-manifold", "--k", "3",
            "--lambda", "1e-2", "--bigK", "1e308", "--iters", "10", "--out", str(out),
        ])
        assert code == 2
        assert "--lambda, --bigK: lambda=0.01 gives phi_min=inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("budget", [[], ["--iters", "10", "--seconds", "1"]])
    def test_run_needs_exactly_one_budget_flag(self, synth_file, tmp_path, capsys, budget):
        out = tmp_path / "x.csv"
        code = main([
            "run", "--in", str(synth_file), "--algorithm", "sgd-manifold", "--k", "3",
            "--lambda", "1e-2", *budget, "--out", str(out),
        ])
        assert code == 2
        assert "set exactly one of --iters / --seconds" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_defaults_and_flag_override(self, synth_file, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("algorithm=sgd-manifold\nlambda=1e-2\nk=3\niters=30\nseed=2\n")
        out = tmp_path / "a.csv"
        assert main([
            "run", "--in", str(synth_file), "--config", str(cfg),
            "--trace-every", "10", "--out", str(out),
        ]) == 0
        rows_a = out.read_text().splitlines()
        # --iters on the command line overrides the config value
        out2 = tmp_path / "b.csv"
        assert main([
            "run", "--in", str(synth_file), "--config", str(cfg),
            "--iters", "10", "--trace-every", "10", "--out", str(out2),
        ]) == 0
        rows_b = out2.read_text().splitlines()
        assert len(rows_a) == 1 + 3 + 1 and len(rows_b) == 1 + 1 + 1

    @pytest.mark.parametrize("algorithm", ["sgd-euclidean", "als-manifold"])
    def test_config_only_run_matches_flags(self, synth_file, tmp_path, algorithm):
        # Every run key but `name` (a compare label) and `seconds` (the
        # alternative budget to `iters`) in the config, which drops the family
        # keys the algorithm does not read; the flags give only those it reads.
        settings = {
            "algorithm": algorithm, "k": "3", "lambda": "1e-2", "bigK": "2.5",
            "iota": "1e-3", "alpha-bar": "2", "beta": "0.6", "seed": "4",
            "iters": "60", "trace-every": "5", "adaptive": "yes",
        }
        assert set(settings) == set(wlra.cli._RUN_KEYS) - {"name", "seconds"}
        cfg = tmp_path / "cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in settings.items()))
        unread = wlra.cli._FAMILY_KEYS - set(wlra.cli._SOLVERS[algorithm][2])
        flags = [
            arg
            for key, value in settings.items()
            if key not in unread
            for arg in (["--adaptive"] if key == "adaptive" else [f"--{key}", value])
        ]
        by_config, by_flags = tmp_path / "config.csv", tmp_path / "flags.csv"
        base = ["run", "--in", str(synth_file)]
        assert main([*base, "--config", str(cfg), "--out", str(by_config)]) == 0
        assert main([*base, *flags, "--out", str(by_flags)]) == 0
        assert by_config.read_bytes() == by_flags.read_bytes()

    @pytest.mark.parametrize(
        "command, extra, config, named",
        [
            ("run", [], "lambda=abc\n", "bad value 'abc' for lambda"),
            (
                "compare",
                ["--run", "name=m,algorithm=sgd-manifold,lambda=1e-2,iters=ten"],
                None,
                "bad value 'ten' for iters",
            ),
            ("run", ["--lambda", "1e-2", "--bigK", "abc"], None, "bad value 'abc' for bigK"),
            # a boolean is 1/0, true/false or yes/no; anything else once ran as False
            ("run", ["--lambda", "1e-2"], "adaptive=ture\n", "cfg:1: bad value 'ture' for adaptive"),
            (
                "compare",
                ["--run", "name=m,algorithm=sgd-manifold,lambda=1e-2,iters=10,adaptive=maybe"],
                None,
                "--run: bad value 'maybe' for adaptive",
            ),
            ("run", ["--lambda", "nan"], None, "--lambda"),
            ("run", ["--lambda", "inf"], None, "--lambda"),
            ("run", [], "lambda=nan\n", "--lambda"),
            # config files and --run specs share one reader, which refuses a
            # key no run flag has and a part without "="
            ("run", ["--lambda", "1e-2"], "trace-evry=100\n", "unknown key 'trace-evry'"),
            ("run", ["--lambda", "1e-2"], "out=elsewhere.csv\n", "unknown key 'out'"),
            ("run", ["--lambda", "1e-2"], "# k\n\nk=3\nlambda\n", "cfg:4: expected key=value"),
            (
                "compare",
                ["--run", "name=m,algorithm=sgd-manifold,lambda=1e-2,iters=10,trace-evry=5"],
                None,
                "--run: unknown key 'trace-evry'",
            ),
            (
                "compare",
                ["--run", "name=m,algorithm=sgd-manifold,lambda=1e-2,iters"],
                None,
                "--run: expected key=value",
            ),
            ("run", ["--lambda", "1e-3", "--bigK", "preset"], None, "--bigK preset: no preset"),
            ("run", ["--lambda", "1e-2", "--seed", "-1"], None, "--seed must be non-negative"),
            (
                "compare",
                ["--run", "name=m,algorithm=sgd-manifold,lambda=1e-2,iters=10,seed=-1"],
                None,
                "--seed must be non-negative, got -1",
            ),
            ("compare", ["--run", "name=m,lambda=1e-2,iters=10"], None, "--algorithm is required"),
            (
                "compare",
                ["--run", "name=m,algorithm=sgd-manifold,lambda=1e-2,iters=10,k=2"],
                None,
                "--run: k=2 differs from --k 3",
            ),
            ("run", ["--lambda", "1e-2", "--trace-every", "0"], None, "--trace-every must be >= 1"),
            (
                "compare",
                ["--run", "name=m,algorithm=sgd-manifold,lambda=1e-2,iters=10,trace-every=0"],
                None,
                "--trace-every must be >= 1, got 0",
            ),
            *(
                (
                    "compare",
                    ["--align", "seconds", "--bin", width,
                     "--run", "name=m,algorithm=sgd-manifold,lambda=1e-2,iters=10"],
                    None,
                    f"--bin must be positive and finite, got {width}",
                )
                for width in ("0.0", "nan", "inf")
            ),
            (
                "compare",
                ["--align", "seconds", "--bin", "1e-300",
                 "--run", "name=m,algorithm=sgd-manifold,lambda=1e-2,iters=10"],
                None,
                "--bin 1e-300 gives",
            ),
        ],
        ids=[
            "config-lambda-abc", "run-spec-iters-ten", "bigK-abc",
            "config-adaptive-ture", "run-spec-adaptive-maybe",
            "lambda-nan", "lambda-inf", "config-lambda-nan",
            "config-unknown-key", "config-out-key", "config-no-equals",
            "run-spec-unknown-key", "run-spec-no-equals",
            "bigK-preset-without-preset", "seed-negative", "run-spec-seed-negative",
            "run-spec-no-algorithm", "run-spec-k-differs",
            "trace-every-zero", "run-spec-trace-every-zero",
            "bin-zero", "bin-nan", "bin-inf", "bin-too-fine",
        ],
    )
    def test_malformed_value_exits_2(
        self, synth_file, tmp_path, capsys, command, extra, config, named
    ):
        out = tmp_path / "out.csv"
        if command == "run":
            extra = ["--algorithm", "sgd-manifold", "--iters", "10", *extra]
        if config is not None:
            cfg = tmp_path / "cfg"
            cfg.write_text(config)
            extra = [*extra, "--config", str(cfg)]
        assert main([command, "--in", str(synth_file), "--k", "3", *extra, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "raw, value",
        [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("False", False),
         ("NO", False), (" true ", True)],
    )
    def test_boolean_values(self, raw, value):
        assert wlra.cli._cast("adaptive", raw) is value

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--align", "seconds", "--bin", "nan"], "--bin"),
            (["--run", "name=z,algorithm=sgd-euclidean,lambda=1e-2,iters=10,trace-every=0"],
             "--trace-every"),
        ],
        ids=["bin-nan", "run-spec-trace-every-zero"],
    )
    def test_compare_refuses_before_any_run(
        self, synth_file, tmp_path, capsys, monkeypatch, extra, named
    ):
        calls = count_calls(monkeypatch, "_set_up", "_solver_call")
        out = tmp_path / "out.csv"
        code = main([
            "compare", "--in", str(synth_file), "--k", "3", "--out", str(out),
            "--run", "name=long,algorithm=sgd-manifold,lambda=1e-2,iters=100000000",
            *extra,
        ])
        assert code == 2
        assert named in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config", "run-spec"])
    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("iota", "1.5", "--iota: need 0 < iota < 1, got 1.5"),
            ("alpha-bar", "nan", "--alpha-bar: need 0 < alpha_bar < inf, got nan"),
            ("beta", "1", "--beta: need 0 < beta < 1, got 1.0"),
            ("bigK", "0.5", "--bigK: need K >= 1, got 0.5"),
        ],
        ids=["iota", "alpha-bar", "beta", "bigK"],
    )
    def test_spec_refusal_names_flag_before_set_up(
        self, synth_file, tmp_path, capsys, monkeypatch, where, key, value, named
    ):
        # A compare refusal comes before a first run that would not end. Each
        # key is given to an algorithm that reads it.
        calls = count_calls(monkeypatch, "_set_up", "_solver_call")
        out = tmp_path / "out.csv"
        algorithm = "sgd-manifold" if key == "bigK" else "als-manifold"
        if where == "run-spec":
            args = [
                "compare",
                "--run", "name=long,algorithm=sgd-manifold,lambda=1e-2,iters=100000000",
                "--run", f"name=bad,algorithm={algorithm},lambda=1e-2,iters=10,{key}={value}",
            ]
        else:
            args = ["run", "--algorithm", algorithm, "--lambda", "1e-2", "--iters", "10"]
            if where == "flag":
                args += [f"--{key}", value]
            else:
                cfg = tmp_path / "cfg"
                cfg.write_text(f"{key}={value}\n")
                args += ["--config", str(cfg)]
        assert main([*args, "--in", str(synth_file), "--k", "3", "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "data, second, named",
        [
            ("partial", "algorithm=sgd-pw", "positive-weights mode needs every cell observed"),
            ("partial", "algorithm=als-pw", "positive-weights mode needs every cell observed"),
            ("full", "algorithm=sgd-pw,lambda=1", "need 0 < lambda < w0, got lambda=1.0"),
        ],
        ids=["sgd-pw-partial", "als-pw-partial", "sgd-pw-lambda-above-min-w"],
    )
    def test_compare_refuses_after_set_up_before_any_run(
        self, synth_file, full_file, tmp_path, capsys, monkeypatch, data, second, named
    ):
        # Checks that need the data run after the one set-up, and before the
        # first run (which would not end).
        set_ups = count_calls(monkeypatch, "_set_up")
        runs = []
        for algorithm, (solver, kind, reads) in wlra.cli._SOLVERS.items():
            monkeypatch.setitem(
                wlra.cli._SOLVERS, algorithm,
                (lambda *a, solver=solver, **kw: runs.append(1) or solver(*a, **kw), kind, reads),
            )
        out = tmp_path / "out.csv"
        code = main([
            "compare", "--in", str(synth_file if data == "partial" else full_file), "--k", "3",
            "--run", "name=long,algorithm=sgd-manifold,lambda=1e-2,iters=100000000",
            "--run", f"name=bad,iters=10,{second}", "--out", str(out),
        ])
        assert code == 2
        assert named in capsys.readouterr().err
        assert set_ups == ["_set_up"] and runs == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "algorithm, every",
        [("als-manifold", 1), ("als-euclidean", 1), ("als-pw", 1),
         ("sgd-manifold", 10), ("sgd-euclidean", 10), ("sgd-pw", 10)],
    )
    def test_run_keeps_the_solvers_cadence(
        self, synth_file, full_file, tmp_path, algorithm, every
    ):
        out = tmp_path / "t.csv"
        pw = algorithm.endswith("pw")
        assert main([
            "run", "--in", str(full_file if pw else synth_file), "--algorithm", algorithm,
            "--k", "3", *([] if pw else ["--lambda", "1e-2"]), "--iters", "25", "--out", str(out),
        ]) == 0
        t = [int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        assert t == [*range(0, 25, every), 25]

    @pytest.mark.parametrize("command", ["run", "compare", "init-svd"])
    @pytest.mark.parametrize("row", [2**60, 2**63 - 1])
    def test_grid_too_large_to_impute(self, tmp_path, capsys, command, row):
        # A valid file whose m-by-n imputation numpy refuses before
        # allocating: "array is too big" at m = 2^60 + 1, a shape beyond
        # int64 at m = 2^63.
        src = tmp_path / "big.csv"
        src.write_text(f"row,col,value\n0,0,1\n{row},0,2\n")
        out = tmp_path / "out.csv"
        extra = {
            "run": ["--algorithm", "sgd-manifold", "--lambda", "1e-2", "--iters", "10"],
            "compare": ["--run", "name=m,algorithm=sgd-manifold,lambda=1e-2,iters=10"],
            "init-svd": [],
        }[command]
        if command != "init-svd":
            extra += ["--out", str(out)]
        assert main([command, "--in", str(src), "--k", "1", *extra]) == 2
        assert f"{row + 1}x1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "init-svd", "run"])
    def test_non_utf8_byte_refused_naming_its_line(self, tmp_path, capsys, command):
        src = tmp_path / "latin1.csv"
        src.write_bytes(b"row,col,value\n0,0,1\n1,1,caf\xe9\n")
        out = tmp_path / "out.csv"
        extra = {
            "ingest": ["--out", str(out)],
            "init-svd": ["--k", "1"],
            "run": ["--algorithm", "als-manifold", "--k", "1", "--lambda", "1e-2",
                    "--iters", "5", "--out", str(out)],
        }[command]
        assert main([command, "--in", str(src), *extra]) == 2
        assert "line 3: byte 0xe9 is not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_refused_naming_path_and_line(self, synth_file, tmp_path, capsys):
        # once an uncaught UnicodeDecodeError, with exit status 1
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"# defaults\nalgorithm=sgd-manifold\niters=1\xe9\n")
        out = tmp_path / "out.csv"
        assert main([
            "run", "--in", str(synth_file), "--config", str(cfg), "--k", "3",
            "--lambda", "1e-2", "--out", str(out),
        ]) == 2
        assert f"{cfg}:3: byte 0xe9 is not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "algorithm, alpha_bar",
        [("als-manifold", "1e300"), ("als-pw", "1e300"), ("als-euclidean", "1e30")],
    )
    def test_first_trial_too_long_refused_naming_flags(
        self, full_file, tmp_path, capsys, algorithm, alpha_bar
    ):
        # Found by the input sweep: 60 halvings do not bring these first
        # steps down to one that descends. The manifold searches once ended
        # with RankDeficient and the Euclidean one named no flag. A trial
        # whose cost or retraction overflows is refused without a warning.
        out = tmp_path / "out.csv"
        lam = [] if algorithm == "als-pw" else ["--lambda", "1e-3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "run", "--in", str(full_file), "--algorithm", algorithm, "--k", "3", *lam,
                "--alpha-bar", alpha_bar, "--iters", "4", "--out", str(out),
            ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --alpha-bar, --beta: no Armijo step within 60 backtracks from "
            f"alpha_bar={float(alpha_bar)} (too long a first step, or gradient and "
            "cost inconsistent)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["init-svd", "als-manifold", "als-euclidean",
                                         "sgd-manifold", "sgd-euclidean"])
    def test_values_whose_squares_overflow_refused(self, tmp_path, capsys, command):
        # the line searches once wrote inf costs with exit status 0
        src = tmp_path / "huge.csv"
        src.write_text("row,col,value\n0,0,1e200\n0,1,-3e200\n1,0,2e200\n1,1,1e200\n")
        out = tmp_path / "out.csv"
        run = ["--algorithm", command, "--lambda", "1e-2", "--iters", "5", "--out", str(out)]
        args = ["init-svd"] if command == "init-svd" else ["run", *run]
        assert main([*args, "--in", str(src), "--k", "1"]) == 2
        assert "observed value -3e+200 overflows when squared" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_refuses_noise_that_overflows(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main([
            "synth", "--rows", "40", "--cols", "20", "--rank", "2", "--observe-prob", "0.5",
            "--noise", "1e308", "--out", str(out),
        ])
        assert code == 2
        assert "--noise 1e+308" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_subcommand(self, synth_file, tmp_path):
        out = tmp_path / "sub.csv"
        assert main([
            "sample", "--in", str(synth_file), "--sample-rows", "20",
            "--sample-cols", "10", "--seed", "3", "--out", str(out),
        ]) == 0
        tm = load_triplets(out)
        assert (tm.m, tm.n) == (20, 10)

    @pytest.mark.parametrize(
        "flag, value, named",
        [("--sample-rows", "0", "cannot sample 0x10"), ("--seed", "-2", "seed >= 0, got -2")],
    )
    def test_sample_rejects_bad_size_or_seed(self, synth_file, tmp_path, capsys, flag, value, named):
        args = {"--sample-rows": "20", "--sample-cols": "10", "--seed": "3", flag: value}
        out = tmp_path / "sub.csv"
        code = main([
            "sample", "--in", str(synth_file), *(a for kv in args.items() for a in kv),
            "--out", str(out),
        ])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_init_svd_report(self, synth_file, capsys, monkeypatch):
        svds = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(a[0].shape) or real(*a, **kw))
        assert main(["init-svd", "--in", str(synth_file), "--k", "3"]) == 0
        assert svds == [(3, 20)]  # the one k-by-n Rayleigh-Ritz SVD
        out = capsys.readouterr().out
        assert "weighted_init_cost=" in out and "factored_init_cost=" in out
        dense = fill_missing_column_mean(problem_from_triplets(load_triplets(synth_file), 3))
        _, err = best_rank_k(dense, 3)
        name, value = out.splitlines()[2].split("=")
        # the init's error is the Gram matrix's trailing eigenvalues, not the SVD's
        assert name == "imputed_truncation_error"
        assert abs(float(value) - err) <= 1e-10 * np.linalg.norm(dense) ** 2

    def test_init_svd_error_beyond_float_range_is_inf(self, tmp_path, capsys):
        # Valid data, finite init costs (9.6e303), but a truncation error
        # past the largest float: it prints inf, with nothing on stderr.
        tm = synth_lowrank(600, 120, 3, 1.0, 0.1, seed=1)
        path = tmp_path / "huge.csv"
        write_triplets(dataclasses.replace(tm, vals=tm.vals * 1e153), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["init-svd", "--in", str(path), "--k", "3"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[2] == "imputed_truncation_error=inf"
        assert all(math.isfinite(float(line.split("=")[1])) for line in lines[:2])

    def test_compare_subcommand(self, synth_file, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main([
            "compare", "--in", str(synth_file), "--k", "3", "--out", str(out),
            "--run", "name=m,algorithm=sgd-manifold,lambda=1e-2,seed=0,iters=100,trace-every=10",
            "--run", "name=e,algorithm=sgd-euclidean,lambda=1e-2,seed=0,iters=100,trace-every=10",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,m,e"
        assert len(lines) == 12

    def test_compare_time_aligned(self, synth_file, tmp_path):
        out = tmp_path / "cmp_t.csv"
        code = main([
            "compare", "--in", str(synth_file), "--k", "3", "--out", str(out),
            "--align", "seconds", "--bin", "1e-4",
            "--run", "name=m,algorithm=sgd-manifold,lambda=1e-2,seed=0,iters=200",
            "--run", "name=e,algorithm=sgd-euclidean,lambda=1e-2,seed=0,iters=200",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "seconds,m,e"
        assert len(lines) > 1


# A value each family key accepts on every algorithm that reads it (sgd-pw
# needs lambda below the smallest weight, 1/200 on `full_file`).
FAMILY_VALUES = {
    "lambda": "1e-3", "bigK": "2", "adaptive": "yes", "iota": "1e-3", "alpha-bar": "2",
    "beta": "0.6",
}


class TestFamilyKeys:
    def test_each_algorithm_reads_its_family_keys(self):
        reads = {algorithm: set(entry[2]) for algorithm, entry in wlra.cli._SOLVERS.items()}
        sgd, line_search = {"lambda", "bigK", "adaptive"}, {"iota", "alpha-bar", "beta"}
        assert reads == {
            "sgd-manifold": sgd, "sgd-euclidean": sgd, "sgd-pw": sgd,
            "als-manifold": line_search | {"lambda"}, "als-euclidean": line_search | {"lambda"},
            "als-pw": line_search,
        }
        assert wlra.cli._FAMILY_KEYS == set(FAMILY_VALUES)
        assert sum(map(len, reads.values())) == 20

    @pytest.mark.parametrize("where", ["flag", "run-spec", "config"])
    @pytest.mark.parametrize("key", list(FAMILY_VALUES))
    @pytest.mark.parametrize("algorithm", wlra.cli.ALGORITHMS)
    def test_unread_key_refused_or_dropped(
        self, full_file, tmp_path, capsys, monkeypatch, algorithm, key, where
    ):
        # Read: accepted. Unread, by flag or --run: refused naming the flag,
        # before the set-up. Unread in a config file: dropped, so the trace
        # is the one without it.
        base = {"algorithm": algorithm, "iters": "5"}
        if not algorithm.endswith("pw") and key != "lambda":
            base["lambda"] = "1e-3"

        def run(extra, out):
            if where == "run-spec":
                spec = ",".join(f"{k}={v}" for k, v in {**base, **extra}.items())
                args = ["compare", "--run", spec]
            else:
                args = ["run", *(f"--{k}={v}" for k, v in base.items())]
                if where == "flag":
                    args += ["--adaptive" if k == "adaptive" else f"--{k}={v}"
                             for k, v in extra.items()]
                elif extra:
                    cfg = tmp_path / "cfg"
                    cfg.write_text("".join(f"{k}={v}\n" for k, v in extra.items()))
                    args += ["--config", str(cfg)]
            return main([*args, "--in", str(full_file), "--k", "3", "--out", str(out)])

        out = tmp_path / "out.csv"
        given = {key: FAMILY_VALUES[key]}
        if key in wlra.cli._SOLVERS[algorithm][2]:
            assert run(given, out) == 0
            assert out.exists()
        elif where == "config":
            without = tmp_path / "without.csv"
            assert run({}, without) == 0
            assert run(given, out) == 0
            assert out.read_bytes() == without.read_bytes()
        else:
            set_ups = count_calls(monkeypatch, "_set_up")
            assert run(given, out) == 2
            assert f"--{key}: {algorithm} does not read it" in capsys.readouterr().err
            assert set_ups == []
            assert not out.exists()

    @pytest.mark.parametrize("value", ["1", "no"])
    @pytest.mark.parametrize("key", ["bigK", "adaptive"])
    def test_unread_default_value_refused(self, full_file, tmp_path, capsys, key, value):
        # K = 1 and adaptive=no are the SGD defaults, and still unread here
        out = tmp_path / "out.csv"
        assert main([
            "compare", "--in", str(full_file), "--k", "3", "--out", str(out),
            "--run", f"algorithm=als-pw,iters=5,{key}={value}",
        ]) == 2
        assert f"--{key}: als-pw does not read it" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", wlra.cli.ALGORITHMS)
    def test_seed_valid_on_every_algorithm(self, full_file, tmp_path, algorithm):
        # the line searches are deterministic, but take --seed as SGD does
        lam = [] if algorithm.endswith("pw") else ["--lambda", "1e-3"]
        out = tmp_path / "out.csv"
        assert main([
            "run", "--in", str(full_file), "--algorithm", algorithm, "--k", "3", *lam,
            "--seed", "11", "--iters", "5", "--out", str(out),
        ]) == 0
        spec = f"algorithm={algorithm},seed=11,iters=5" + ",lambda=1e-3" * bool(lam)
        assert main([
            "compare", "--in", str(full_file), "--k", "3", "--run", spec, "--out", str(out),
        ]) == 0

    def test_benchmark_iota_spec(self):
        # the spec perfbench builds to read the line search's iota
        spec = wlra.cli.ExperimentSpec(
            algorithm="als-manifold", k=10, seed=3, budget=wlra.Budget(max_iterations=1),
            lam=1e-4,
        )
        assert wlra.cli.resolve_iota(spec) == wlra.cli.IOTA_PRESETS[1e-4]


class TestDeterministicExport:
    def test_csv_bytes_reproducible(self, synth_file, tmp_path):
        args = lambda out: [
            "run", "--in", str(synth_file), "--algorithm", "sgd-manifold",
            "--k", "3", "--lambda", "1e-2", "--seed", "11",
            "--iters", "300", "--trace-every", "30", "--out", str(out),
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args(a)) == 0
        assert main(args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_locale_independent_format(self, synth_file, tmp_path):
        out = tmp_path / "t.csv"
        assert main(args := [
            "run", "--in", str(synth_file), "--algorithm", "sgd-manifold",
            "--k", "3", "--lambda", "1e-2", "--seed", "0",
            "--iters", "20", "--trace-every", "10", "--out", str(out),
        ]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        text = raw.decode("ascii")
        for line in text.splitlines()[1:]:
            fields = line.split(",")
            assert len(fields) == 3
            float(fields[1]), float(fields[2])

    def test_wall_clock_mode_writes_measured_times(self, synth_file, tmp_path):
        out = tmp_path / "w.csv"
        assert main([
            "run", "--in", str(synth_file), "--algorithm", "sgd-manifold",
            "--k", "3", "--lambda", "1e-2", "--seed", "0", "--iters", "100",
            "--trace-every", "10", "--wall-clock", "--out", str(out),
        ]) == 0
        elapsed = [float(l.split(",")[1]) for l in out.read_text().splitlines()[1:]]
        assert elapsed[-1] > 0.0
        assert elapsed == sorted(elapsed)
