"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "kmeans"])
        assert args.system == "retcon"
        assert args.cores == 32
        assert args.scale == 1.0

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "quicksort"])

    def test_trace_flag_forms(self):
        args = build_parser().parse_args(["run", "kmeans"])
        assert args.trace is None and args.check is False
        args = build_parser().parse_args(["run", "kmeans", "--trace"])
        assert args.trace == 200
        args = build_parser().parse_args(
            ["run", "kmeans", "--trace=7", "--check"]
        )
        assert args.trace == 7 and args.check is True

    def test_check_command(self):
        args = build_parser().parse_args(["check", "--smoke"])
        assert args.smoke and not args.no_faults

    def test_trace_export_command(self):
        args = build_parser().parse_args(
            ["trace", "export", "figure2", "--system", "datm"]
        )
        assert args.trace_command == "export"
        assert args.workload == "figure2" and args.system == "datm"
        assert args.output is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_timeline_command(self):
        args = build_parser().parse_args(
            ["timeline", "kmeans", "--width", "40"]
        )
        assert args.workload == "kmeans" and args.width == 40

    def test_metrics_command(self):
        args = build_parser().parse_args(["metrics", "kmeans"])
        assert args.system == "retcon"
        args = build_parser().parse_args(["metrics", "figure2"])
        assert args.workload == "figure2"

    def test_fuzz_campaign_flags(self):
        args = build_parser().parse_args(
            ["fuzz", "--minutes", "30", "--corpus", "night"]
        )
        assert args.minutes == 30.0 and args.corpus == "night"
        for gone in ("--campaign=nightly-1", "--resume", "--no-schedule"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["fuzz", gone])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--profiles", "fuzz-rmw", "no-such-profile"],
             "unknown fuzz profile 'no-such-profile'"),
            (["--seeds", "0"], "--seeds must be at least 1"),
        ],
        ids=["profile", "seeds"],
    )
    def test_fuzz_bad_batch_is_a_usage_error(
        self, argv, message, tmp_path, capsys
    ):
        code = main(["fuzz", *argv, "--minutes", "1", "--corpus",
                     str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # nothing was screened

    @pytest.mark.parametrize(
        "flag, value",
        [("--seeds", "1"), ("--seed-start", "500"), ("--minutes", "1")],
    )
    def test_fuzz_smoke_takes_no_batch_flag(
        self, flag, value, tmp_path, capsys
    ):
        code = main(["fuzz", "--smoke", flag, value, "--profiles",
                     "fuzz-rmw", "--backends", "eager", "--corpus",
                     str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{flag} cannot change it" in err
        assert not list(tmp_path.iterdir())  # nothing was screened

    def test_fuzz_smoke_alone_parses(self):
        args = build_parser().parse_args(["fuzz", "--smoke"])
        assert args.smoke
        assert (args.seeds, args.seed_start, args.minutes) == (
            None, None, None
        )

    def test_fuzz_corrupt_corpus_is_a_usage_error(self, tmp_path, capsys):
        from repro.fuzz.corpus import Corpus
        from repro.fuzz.gen import FUZZ_PROFILES

        Corpus(tmp_path).record(
            FUZZ_PROFILES["fuzz-rmw"], 0, True, ("eager",), 4
        )
        (path,) = tmp_path.glob("*.jsonl")
        path.write_text("{not json\n" + path.read_text())
        code = main(["fuzz", "--profiles", "fuzz-rmw", "--seed-start", "0",
                     "--seeds", "1", "--corpus", str(tmp_path)])
        assert code == 2
        assert f"{path}:1: corrupt corpus line" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "genome-sz" in out
        assert "retcon" in out

    def test_run(self, capsys):
        code = main(
            ["run", "kmeans", "--cores", "2", "--scale", "0.1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup" in out
        assert "invariant [centers]: ok" in out

    def test_compare(self, capsys):
        code = main(
            ["compare", "kmeans", "--cores", "2", "--scale", "0.1",
             "--systems", "eager,retcon"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "eager" in out and "retcon" in out

    def test_table_1_and_2(self, capsys):
        assert main(["table", "1"]) == 0
        assert "Processor" in capsys.readouterr().out
        assert main(["table", "2"]) == 0
        assert "STAMP" in capsys.readouterr().out

    def test_table_out_of_range(self, capsys):
        assert main(["table", "7"]) == 2

    def test_figure_2(self, capsys):
        assert main(["figure", "2"]) == 0
        out = capsys.readouterr().out
        assert "retcon" in out and "datm" in out

    def test_figure_out_of_range(self, capsys):
        assert main(["figure", "8"]) == 2

    def test_figure_1_small(self, capsys):
        code = main(
            ["figure", "1", "--cores", "2", "--scale", "0.05"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "python" in out

    def test_sweep(self, capsys):
        code = main(
            ["sweep", "kmeans", "--core-counts", "1,2",
             "--scale", "0.1", "--systems", "eager"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cores" in out and "eager" in out

    def test_run_with_check(self, capsys):
        code = main(
            ["run", "kmeans", "--cores", "2", "--scale", "0.1",
             "--check", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle: ok" in out
        assert "golden diff: ok" in out

    def test_run_with_trace(self, capsys):
        code = main(
            ["run", "kmeans", "--cores", "2", "--scale", "0.1",
             "--trace", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trace: 5 events" in out
        assert "begin" in out

    def test_check_smoke_oracle_matrix(self, capsys):
        code = main(
            ["check", "--smoke", "--no-faults", "--no-cache",
             "--jobs", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "oracle matrix" in out
        assert "PASS" in out

    def test_trace_export_figure2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["trace", "export", "figure2", "--system", "retcon"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ui.perfetto.dev" in out
        import json

        from repro.obs.export import validate_chrome_trace

        path = tmp_path / "trace_figure2_retcon.json"
        assert path.exists()
        validate_chrome_trace(json.loads(path.read_text()))

    def test_timeline_figure2(self, capsys):
        code = main(["timeline", "figure2", "--system", "eager-abort"])
        out = capsys.readouterr().out
        assert code == 0
        assert "core 0" in out
        assert "contention by block" in out
        assert "abort attribution" in out

    def test_metrics_command_output(self, capsys):
        code = main(
            ["metrics", "kmeans", "--cores", "2", "--scale", "0.1",
             "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "txn.commits" in out
        assert "sim.makespan_cycles" in out

    def test_metrics_figure2(self, capsys):
        code = main(["metrics", "figure2", "--cores", "2", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("--- figure2/retcon ---")
        assert "core.stall_events{core=1}" in out

    def test_run_prints_label_breakdown(self, capsys):
        code = main(
            ["run", "intruder", "--system", "eager", "--cores", "2",
             "--scale", "0.1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "txn[capture]" in out


class TestReplay:
    """A cached replay prints exactly what the fresh run printed."""

    @pytest.mark.parametrize("extra", [[], ["--trace=5"]])
    def test_run_replay_is_byte_identical(
        self, extra, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["run", "kmeans", "--cores", "2", "--scale", "0.1", *extra]
        assert main(argv) == 0
        fresh = capsys.readouterr()
        assert main(argv) == 0
        replayed = capsys.readouterr()
        assert "cached" not in fresh.err and "cached" in replayed.err
        assert replayed.out == fresh.out

    @pytest.mark.parametrize(
        "command",
        [
            ["compare", "kmeans", "--systems", "eager,retcon"],
            ["timeline", "kmeans"],
            ["metrics", "kmeans"],
        ],
        ids=["compare", "timeline", "metrics"],
    )
    def test_every_replaying_subcommand_is_byte_identical(
        self, command, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = [*command, "--cores", "2", "--scale", "0.1"]
        assert main(argv) == 0
        fresh = capsys.readouterr()
        assert main(argv) == 0
        replayed = capsys.readouterr()
        assert "cached" not in fresh.err
        assert all(
            line.endswith(": cached") for line in replayed.err.splitlines()
        )
        assert replayed.err.count("cached") == fresh.err.count(": ran")
        assert replayed.out == fresh.out


class TestWatchdog:
    def test_timeout_is_one_labelled_line(self, monkeypatch, capsys):
        from repro.sim.machine import Machine

        # the point's own (multi-core) run hits a 1 000-cycle bound;
        # its sequential baseline keeps the default one
        run = Machine.run
        monkeypatch.setattr(
            Machine, "run",
            lambda self, max_cycles=500_000_000: run(
                self, 1_000 if len(self.cores) > 1 else max_cycles
            ),
        )
        code = main(
            ["run", "kmeans", "--cores", "2", "--scale", "0.1",
             "--jobs", "1", "--no-cache"]
        )
        captured = capsys.readouterr()
        assert code == 1
        (line,) = captured.err.splitlines()
        assert line.startswith("run: makespan ")
        assert "1000-cycle watchdog" in line and "[kmeans/" in line

    def test_a_baseline_timeout_names_its_point(self, monkeypatch, capsys):
        from repro.sim.machine import Machine

        # only the single-core sequential baseline hits the bound
        run = Machine.run
        monkeypatch.setattr(
            Machine, "run",
            lambda self, max_cycles=500_000_000: run(
                self, 1_000 if len(self.cores) == 1 else max_cycles
            ),
        )
        code = main(
            ["run", "kmeans", "--cores", "2", "--scale", "0.1",
             "--jobs", "1", "--no-cache"]
        )
        captured = capsys.readouterr()
        assert code == 1
        (line,) = captured.err.splitlines()
        assert line.startswith("run: makespan ")
        assert line.endswith("[kmeans/sequential ncores=2 seed=1 scale=0.1]")


class TestCacheWriteFailure:
    def test_a_full_disk_is_one_labelled_line(
        self, tmp_path, monkeypatch, capsys
    ):
        import errno
        import os

        def full(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(os, "replace", full)
        code = main(
            ["run", "kmeans", "--cores", "2", "--scale", "0.1",
             "--jobs", "1"]
        )
        captured = capsys.readouterr()
        assert code == 1
        (line,) = captured.err.splitlines()
        assert line.startswith("run: cannot write the cache entry of kmeans/")
        assert str(tmp_path) in line
        assert line.endswith(os.strerror(errno.ENOSPC))
        # neither the temporary file nor the entry is left behind
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
