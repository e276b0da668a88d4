"""Tests for the scan-sim command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        for command in ("run", "sweep", "submit", "serve", "table2"):
            args = parser.parse_args(
                [command] if command in ("table2",) else [command]
            )
            assert args.command == command

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.duration == 600.0
        assert args.allocation == "greedy"
        assert args.scaling == "predictive"
        assert args.trace_out is None
        assert args.metrics_out is None
        assert not args.quiet

    def test_version_flag(self, capsys):
        from repro._version import __version__

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_trace_command_registered(self):
        args = build_parser().parse_args(["trace", "t.json", "--top", "3"])
        assert args.command == "trace"
        assert args.file == "t.json"
        assert args.top == 3

    def test_unknown_policy_rejected_at_registry(self, capsys):
        # No argparse `choices`: unknown names flow to the registry so
        # plugin policies work, and the error lists what IS registered.
        assert main(["run", "--duration", "50", "--allocation", "nope"]) == 2
        err = capsys.readouterr().err
        assert "nope" in err
        assert "greedy" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--duration", "20"],
            ["run", "--preset", "smoke"],
            ["sweep", "--duration", "20", "--repetitions", "1"],
            ["kb", "--duration", "20"],
        ],
        ids=["run", "run-preset", "sweep", "kb"],
    )
    def test_negative_seed_is_one_line_error(self, capsys, argv):
        assert main([*argv, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "scan-sim: --seed must be >= 0, got -1\n"

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRun:
    def test_human_output(self, capsys):
        code = main(["run", "--duration", "100", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "completed runs" in out
        assert "mean profit per run" in out

    def test_json_output_parses(self, capsys):
        code = main(["run", "--duration", "100", "--seed", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed_runs"] > 0
        assert "mean_profit_per_run" in payload

    def test_deterministic_across_invocations(self, capsys):
        main(["run", "--duration", "100", "--seed", "5", "--json"])
        first = json.loads(capsys.readouterr().out)
        main(["run", "--duration", "100", "--seed", "5", "--json"])
        second = json.loads(capsys.readouterr().out)
        assert first["total_reward"] == second["total_reward"]

    def test_quiet_suppresses_table(self, capsys):
        assert main(["run", "--duration", "60", "--seed", "1", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_infinite_duration_rejected(self, capsys):
        # An infinite horizon would never return; validation refuses it.
        assert main(["run", "--duration", "inf"]) == 2
        assert capsys.readouterr().err == (
            "scan-sim: duration must be finite, got inf\n"
        )

    def test_quiet_keeps_json(self, capsys):
        code = main(
            ["run", "--duration", "60", "--seed", "1", "--quiet", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed_runs"] > 0

    def test_telemetry_flags_unchanged_results(self, capsys, tmp_path):
        """Trace/metrics exports leave the sim results untouched."""
        main(["run", "--duration", "80", "--seed", "2", "--json"])
        plain = json.loads(capsys.readouterr().out)
        trace = tmp_path / "trace.json"
        main(
            [
                "run", "--duration", "80", "--seed", "2", "--json",
                "--trace-out", str(trace),
            ]
        )
        traced = json.loads(capsys.readouterr().out)
        assert traced == plain


class TestTelemetryArtifacts:
    def test_trace_out_writes_chrome_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code = main(
            [
                "run", "--duration", "60", "--seed", "3", "--quiet",
                "--trace-out", str(path),
            ]
        )
        assert code == 0
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        categories = {ev["cat"] for ev in events if "cat" in ev}
        # The acceptance bar: at least the four layer categories.
        assert {"engine", "scheduler", "broker", "cloud"} <= categories

    def test_metrics_out_writes_prometheus_text(self, capsys, tmp_path):
        path = tmp_path / "metrics.prom"
        main(
            [
                "run", "--duration", "60", "--seed", "3", "--quiet",
                "--metrics-out", str(path),
            ]
        )
        text = path.read_text()
        assert "# TYPE scan_scheduler_hires_total counter" in text
        assert "scan_session_latency_tu" in text


class TestTraceCommand:
    def test_summarises_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        main(
            [
                "run", "--duration", "60", "--seed", "3", "--quiet",
                "--trace-out", str(path),
            ]
        )
        capsys.readouterr()
        assert main(["trace", str(path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "category" in out and "scheduler" in out
        assert "longest spans" in out

    def test_missing_file_is_error(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scan-sim: cannot read trace ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "document",
        [
            [1, 2],
            {"traceEvents": 5},
            "x",
            [{"name": "s", "cat": "task", "ph": "X", "ts": 0, "dur": "long"}],
        ],
        ids=["list-of-ints", "events-not-a-list", "string", "string-dur"],
    )
    def test_malformed_trace_exits_2_with_one_line(
        self, capsys, tmp_path, document
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        assert main(["trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scan-sim: cannot read trace ")
        assert err.count("\n") == 1


class TestSweep:
    def test_sweep_prints_series(self, capsys):
        code = main(
            [
                "sweep", "--duration", "80", "--repetitions", "1",
                "--intervals", "2.2,2.8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "always" in out and "never" in out and "predictive" in out
        assert "2.20" in out and "2.80" in out

    def test_empty_intervals_error(self, capsys):
        assert main(["sweep", "--intervals", ""]) == 2

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--intervals", "2.5,abc"], "'abc'"),
            (["--jobs", "-1"], "jobs"),
            (["--repetitions", "0"], "repetitions"),
        ],
    )
    def test_bad_value_exits_2_without_traceback(self, capsys, flags,
                                                 named):
        assert main(["sweep", "--duration", "40", *flags]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("scan-sim: ") and err.count("\n") == 1
        assert named in err


class TestSweepJobs:
    SWEEP_ARGS = [
        "sweep", "--duration", "40", "--repetitions", "1",
        "--intervals", "2.5",
    ]

    def test_jobs_flag_defaults_to_serial(self):
        args = build_parser().parse_args(["sweep"])
        assert args.jobs == 1

    def test_jobs_flag_parses(self):
        args = build_parser().parse_args(["sweep", "--jobs", "4"])
        assert args.jobs == 4

    def test_jobs_zero_means_cpu_count(self):
        import os

        from repro.sim.sweep import resolve_jobs

        args = build_parser().parse_args(["sweep", "--jobs", "0"])
        assert resolve_jobs(args.jobs) == (os.cpu_count() or 1)

    def test_parallel_output_identical_to_serial(self, capsys):
        assert main(self.SWEEP_ARGS) == 0
        serial_out = capsys.readouterr().out
        assert main(self.SWEEP_ARGS + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_jobs_zero_runs(self, capsys):
        assert main(self.SWEEP_ARGS + ["--jobs", "0"]) == 0
        assert "always" in capsys.readouterr().out


class TestSweepResults:
    SWEEP_ARGS = [
        "sweep", "--duration", "40", "--repetitions", "1",
        "--intervals", "2.5",
    ]

    def test_results_out_streams_and_matches_plain(self, capsys, tmp_path):
        assert main(self.SWEEP_ARGS) == 0
        plain = capsys.readouterr().out
        ledger = tmp_path / "r.jsonl"
        assert main(self.SWEEP_ARGS + ["--results-out", str(ledger)]) == 0
        assert capsys.readouterr().out == plain
        from repro.core.ledger import open_ledger
        from repro.sim.results import ResultStore

        state = ResultStore(open_ledger(str(ledger))).load()
        assert state.meta is not None
        assert len(state.completed) == 3  # 3 scaling policies x 1 rep

    def test_resume_reprints_identical_table(self, capsys, tmp_path):
        ledger = tmp_path / "r.jsonl"
        args = self.SWEEP_ARGS + ["--results-out", str(ledger)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_second_run_without_resume_is_error(self, capsys, tmp_path):
        ledger = tmp_path / "r.jsonl"
        args = self.SWEEP_ARGS + ["--results-out", str(ledger)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 2
        assert "--resume" in capsys.readouterr().err

    def test_resume_without_store_is_error(self, capsys):
        assert main(self.SWEEP_ARGS + ["--resume"]) == 2
        assert "--results-out" in capsys.readouterr().err

    def test_config_results_store_used(self, capsys, tmp_path, monkeypatch):
        # A config file with results.store set streams without the flag.
        import json as _json

        from repro.core.config import PlatformConfig

        ledger = tmp_path / "from_config.jsonl"
        cfg = PlatformConfig.paper_defaults().with_overrides(
            simulation={"duration": 40.0},
            results={"store": str(ledger)},
        )
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(cfg.to_json() + "\n")
        assert main(
            [
                "sweep", "--repetitions", "1", "--intervals", "2.5",
                "--config", str(cfg_file),
            ]
        ) == 0
        assert ledger.exists()
        lines = [
            _json.loads(line) for line in ledger.read_text().splitlines()
        ]
        assert lines[0]["op"] == "meta"
        assert sum(1 for rec in lines if rec["op"] == "result") == 3

    def test_preset_flag_accepted_on_sweep(self, capsys):
        assert main(
            [
                "sweep", "--preset", "smoke", "--repetitions", "1",
                "--intervals", "2.5",
            ]
        ) == 0
        assert "always" in capsys.readouterr().out


class TestSubmit:
    def test_submit_small_analysis(self, capsys):
        code = main(["submit", "--size-gb", "4", "--name", "cli-test"])
        assert code == 0
        out = capsys.readouterr().out
        assert "advice" in out
        assert "latency" in out

    def test_bad_format_error(self, capsys):
        assert main(["submit", "--format", "weird"]) == 2
        assert capsys.readouterr().err == "scan-sim: unknown format 'weird'\n"

    @pytest.mark.parametrize("size", ["-1", "0", "nan", "inf", "1e400"])
    def test_bad_size_is_one_line_error(self, capsys, size):
        assert main(["submit", "--size-gb", size]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scan-sim: size_gb must be positive and finite")
        assert "Traceback" not in err


class TestTable2:
    def test_table2_prints_coefficients(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "HaplotypeCaller" in out
        assert "17.86" in out  # stage 5's b_i


class TestPolicies:
    def test_lists_every_registry(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for kind in (
            "allocation", "application", "preset", "reward", "scaling",
            "sharder",
        ):
            assert f"{kind} (" in out
        assert "greedy" in out
        assert "predictive" in out

    def test_single_kind(self, capsys):
        assert main(["policies", "--kind", "scaling"]) == 0
        out = capsys.readouterr().out
        assert "scaling (3):" in out
        assert "allocation" not in out

    def test_json_output(self, capsys):
        assert main(["policies", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "greedy" in data["allocation"]
        assert "time" in data["reward"]

    def test_unknown_kind_is_error(self, capsys):
        assert main(["policies", "--kind", "styling"]) == 2
        assert "unknown registry kind" in capsys.readouterr().err

    def test_tier_registries_listed(self, capsys):
        assert main(["policies", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert {"reserved", "on_demand", "serverless", "spot"} <= set(
            data["tier_backend"]
        )
        assert {"cheapest_first", "first_fit"} <= set(data["tier_placement"])


class TestTiers:
    def test_default_stack(self, capsys):
        assert main(["tiers"]) == 0
        out = capsys.readouterr().out
        assert "placement: cheapest_first" in out
        assert "[0] private (reserved, base): 624 cores" in out
        assert "[1] public (on_demand, elastic)" in out

    def test_preset_stack_shows_caps(self, capsys):
        assert main(["tiers", "--preset", "serverless_burst"]) == 0
        out = capsys.readouterr().out
        assert "faas (serverless, elastic)" in out
        assert "max_cores_per_allocation = 16" in out
        assert "max_duration_tu = 30.0" in out

    def test_json_output(self, capsys):
        assert main(["tiers", "--preset", "spot_saver", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["placement"] == "cheapest_first"
        names = [t["name"] for t in data["tiers"]]
        assert names == ["private", "spot", "public"]
        spot = data["tiers"][1]
        assert spot["backend"] == "spot"
        assert spot["effective_eviction_mtbf_tu"] == 12.0
        assert all("cores_in_use" not in t for t in data["tiers"])

    def test_config_file_source(self, capsys, tmp_path):
        from repro.core.presets import make_preset

        path = tmp_path / "stack.json"
        path.write_text(make_preset("serverless_burst").to_json())
        assert main(["tiers", "--config", str(path)]) == 0
        assert "faas (serverless" in capsys.readouterr().out

    def test_unreadable_config_is_error(self, capsys, tmp_path):
        assert main(["tiers", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_unknown_preset_is_error(self, capsys):
        assert main(["tiers", "--preset", "warp"]) == 2
        assert "unknown preset" in capsys.readouterr().err


class TestConfigDump:
    def test_dump_parses_as_config(self, capsys):
        from repro.core.config import PlatformConfig
        from repro.core.presets import make_preset

        assert main(["config-dump", "chaos"]) == 0
        dumped = PlatformConfig.from_json(capsys.readouterr().out)
        assert dumped == make_preset("chaos")

    def test_unknown_preset_is_error(self, capsys):
        assert main(["config-dump", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown preset" in err
        assert "paper" in err  # lists what is registered


class TestRunConfigSources:
    def test_preset_and_config_byte_identical(self, capsys, tmp_path):
        assert main(["config-dump", "smoke"]) == 0
        dump = tmp_path / "smoke.json"
        dump.write_text(capsys.readouterr().out)

        assert main(["run", "--preset", "smoke", "--json", "--seed", "3"]) == 0
        by_preset = capsys.readouterr().out
        assert (
            main(["run", "--config", str(dump), "--json", "--seed", "3"]) == 0
        )
        by_file = capsys.readouterr().out
        assert by_preset == by_file
        assert json.loads(by_preset)["completed_runs"] > 0

    def test_preset_and_config_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--preset", "smoke", "--config", "x.json"]
            )

    def test_missing_config_file_is_error(self, capsys):
        assert main(["run", "--config", "/no/such/file.json"]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_invalid_config_file_is_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        # A misspelt key, and the arrival-replay keys older configs carried.
        for key, value in (
            ("warp_factor", 9),
            ("arrival_process", "trace"),
            ("arrival_trace", "arrivals.jsonl"),
        ):
            bad.write_text(json.dumps({"workload": {key: value}}))
            assert main(["run", "--config", str(bad)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("scan-sim: unknown key(s) ")
            assert repr(key) in lines[0]

    def test_unknown_preset_run_is_error(self, capsys):
        assert main(["run", "--preset", "nope"]) == 2
        assert "unknown preset" in capsys.readouterr().err


class TestEstimatesFlag:
    def test_run_accepts_adaptive_provider(self, capsys):
        code = main(["run", "--duration", "100", "--seed", "1",
                     "--estimates", "adaptive"])
        assert code == 0
        assert "completed" in capsys.readouterr().out

    def test_unknown_provider_is_error(self, capsys):
        assert main(["run", "--duration", "50", "--estimates", "nope"]) == 2
        err = capsys.readouterr().err
        assert "nope" in err
        assert "static" in err


class TestKb:
    def test_parser_registers_kb(self):
        args = build_parser().parse_args(
            ["kb", "--diff", "a.json", "b.json"]
        )
        assert args.command == "kb"
        assert args.diff == ["a.json", "b.json"]

    def test_table_lists_model_facts(self, capsys):
        assert main(["kb", "--duration", "60"]) == 0
        out = capsys.readouterr().out
        assert "knowledge plane @ epoch" in out
        assert "gatk" in out
        assert "model" in out

    def test_json_snapshot_parses(self, capsys):
        assert main(["kb", "--duration", "60", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["epoch"] >= 1
        assert len(snapshot["facts"]) > 0
        assert {"a", "b", "provenance"} <= set(snapshot["facts"][0])

    def test_adaptive_session_dumps_refit_facts(self, capsys):
        code = main(["kb", "--preset", "drift", "--estimates", "adaptive",
                     "--duration", "300", "--json"])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert any(f["provenance"] == "refit" for f in snapshot["facts"])

    @pytest.mark.parametrize("estimates", ["static", "adaptive"])
    def test_dag_dump_shows_node_scoped_facts(self, capsys, estimates):
        # The estimates came from the fan-out's 16 (workflow/step, stage)
        # facts, not from its entry application's own stages.
        assert main(["kb", "--preset", "fanout", "--estimates", estimates,
                     "--duration", "100", "--json"]) == 0
        facts = json.loads(capsys.readouterr().out)["facts"]
        assert len(facts) == 16
        assert all(f["app"].startswith("star_fanout/") for f in facts)

    def test_adaptive_dump_leaves_epoch_unchanged(self, capsys):
        from repro.core.presets import make_preset
        from repro.sim.session import SimulationSession

        assert main(["kb", "--preset", "fanout", "--estimates", "adaptive",
                     "--duration", "100", "--json"]) == 0
        dumped = json.loads(capsys.readouterr().out)["epoch"]
        session = SimulationSession(make_preset("fanout").with_overrides(
            knowledge={"provider": "adaptive"}, simulation={"duration": 100.0}
        ))
        session.run(seed=0)
        assert dumped == session.plane.epoch

    def test_snapshot_out_and_diff_round_trip(self, capsys, tmp_path):
        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        assert main(["kb", "--duration", "60", "--json",
                     "--snapshot-out", str(before)]) == 0
        assert main(["kb", "--preset", "drift", "--estimates", "adaptive",
                     "--duration", "300", "--json",
                     "--snapshot-out", str(after)]) == 0
        capsys.readouterr()
        assert main(["kb", "--diff", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "epoch:" in out
        assert any(line.startswith("~ ") for line in out.splitlines())

    def test_diff_identical_snapshots_says_no_changes(self, capsys, tmp_path):
        snap = tmp_path / "snap.json"
        assert main(["kb", "--duration", "60", "--json",
                     "--snapshot-out", str(snap)]) == 0
        capsys.readouterr()
        assert main(["kb", "--diff", str(snap), str(snap)]) == 0
        assert "no changes" in capsys.readouterr().out

    def test_diff_missing_file_is_error(self, capsys, tmp_path):
        assert main(["kb", "--diff", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scan-sim: cannot read snapshot ")
        assert err.count("\n") == 1


class TestWorkflowsCommand:
    def test_lists_registered_workflows(self, capsys):
        assert main(["workflows"]) == 0
        out = capsys.readouterr().out
        assert "gatk_chain" in out
        assert "star_fanout" in out
        assert "align -> germline" in out

    def test_json_output(self, capsys):
        assert main(["workflows", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        by_name = {d["registered_as"]: d for d in data}
        fanout = by_name["star_fanout"]
        assert fanout["nodes"] == 16
        assert fanout["chain"] is False
        assert ["align", "somatic"] in fanout["step_edges"]
        assert by_name["gatk_chain"]["chain"] is True

    def test_policies_include_workflow_and_arrival_registries(self, capsys):
        assert main(["policies", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "star_fanout" in data["workflow"]


class TestWorkflowFlag:
    def test_run_with_workflow(self, capsys):
        code = main([
            "run", "--workflow", "star_fanout", "--duration", "60",
            "--seed", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed_runs"] > 0

    def test_chain_workflow_matches_plain_run(self, capsys):
        base = ["run", "--duration", "100", "--seed", "1", "--json"]
        assert main(base) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(base + ["--workflow", "gatk_chain"]) == 0
        chained = json.loads(capsys.readouterr().out)
        assert chained == plain

    def test_unknown_workflow_is_a_config_error(self, capsys):
        code = main(["run", "--workflow", "nonexistent", "--json"])
        assert code != 0
