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
)
from wlra.data_io import load_triplets, problem_from_triplets, synth_lowrank, write_triplets
from wlra.errors import MismatchedData
from wlra.solvers import Budget, IterTrace, TraceRecord
from wlra.svd_init import best_rank_k, fill_missing_column_mean


@pytest.fixture(scope="module")
def synth_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    tm = synth_lowrank(50, 20, 3, 0.4, 0.1, seed=0)
    write_triplets(tm, path)
    return path


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


class TestRunExperiment:
    def test_first_row_matches_truncation_oracle(self, synth_file, tmp_path):
        out = tmp_path / "trace.csv"
        spec = ExperimentSpec(
            algorithm="sgd-manifold", k=3, seed=5,
            budget=Budget(max_iterations=1000), lam=1e-2, big_k=1.0,
            trace_every=10, out=str(out),
        )
        tm = load_triplets(synth_file)
        trace = run_experiment(spec, tm)
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
                        ("--noise", "inf"), ("--noise", "nan")],
    )
    def test_synth_rejects_bad_shape_or_noise(self, tmp_path, capsys, flag, value):
        args = {"--rows": "30", "--cols": "12", "--noise": "0.1", flag: value}
        out = tmp_path / "s.csv"
        code = main([
            "synth", *(a for kv in args.items() for a in kv), "--rank", "2",
            "--observe-prob", "0.5", "--out", str(out),
        ])
        assert code == 2
        assert "need rows, cols and rank >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_run_rejects_bad_lambda(self, synth_file, tmp_path, capsys):
        code = main([
            "run", "--in", str(synth_file), "--algorithm", "sgd-manifold",
            "--k", "3", "--lambda", "-0.5", "--seed", "0",
            "--iters", "10", "--out", str(tmp_path / "x.csv"),
        ])
        assert code != 0
        assert "--lambda" in capsys.readouterr().err

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
        # alternative budget to `iters`).
        settings = {
            "algorithm": algorithm, "k": "3", "lambda": "1e-2", "bigK": "2.5",
            "iota": "1e-3", "alpha-bar": "2", "beta": "0.6", "seed": "4",
            "iters": "60", "trace-every": "5", "adaptive": "yes",
        }
        assert set(settings) == set(wlra.cli._RUN_KEYS) - {"name", "seconds"}
        cfg = tmp_path / "cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in settings.items()))
        flags = [
            arg
            for key, value in settings.items()
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
        ],
        ids=[
            "config-lambda-abc", "run-spec-iters-ten", "bigK-abc",
            "lambda-nan", "lambda-inf", "config-lambda-nan",
            "config-unknown-key", "config-out-key", "config-no-equals",
            "run-spec-unknown-key", "run-spec-no-equals",
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

    def test_sample_subcommand(self, synth_file, tmp_path):
        out = tmp_path / "sub.csv"
        assert main([
            "sample", "--in", str(synth_file), "--sample-rows", "20",
            "--sample-cols", "10", "--seed", "3", "--out", str(out),
        ]) == 0
        tm = load_triplets(out)
        assert (tm.m, tm.n) == (20, 10)

    def test_init_svd_report(self, synth_file, capsys, monkeypatch):
        svds = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(1) or real(*a, **kw))
        assert main(["init-svd", "--in", str(synth_file), "--k", "3"]) == 0
        assert len(svds) == 1
        out = capsys.readouterr().out
        assert "weighted_init_cost=" in out and "factored_init_cost=" in out
        dense = fill_missing_column_mean(problem_from_triplets(load_triplets(synth_file), 3))
        _, err = best_rank_k(dense, 3)
        assert out.splitlines()[2] == f"imputed_truncation_error={err!r}"

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
