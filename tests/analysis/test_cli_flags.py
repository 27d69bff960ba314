"""Every machine/traffic flag a subcommand registers reaches its points.

The flags used to be hand-copied per subcommand and most copies were
missing: ``compare``, ``figure 1|3|4|9|10``, ``table 3`` and
``experiments`` parsed ``--retry-budget``/``--read-set``/... and ran the
default machine anyway.  These tests drive ``main()`` and intercept the
engine just before it would simulate, so they see exactly the points a
command runs without paying for the run.
"""

import pytest

from repro.cli import main
from repro.exp import engine


class _Captured(Exception):
    """Raised by the spy in place of simulating."""


@pytest.fixture
def dispatched(monkeypatch):
    """The points the engine was about to simulate (cache bypassed, so
    that is every point the command asked for)."""
    points = []

    def spy(pending):
        points.extend(pending)
        raise _Captured

    monkeypatch.setattr(engine, "_group_by_baseline", spy)
    return points


TINY = ["--scale", "0.05", "--no-cache", "--jobs", "1"]

#: every subcommand that registers the machine flags
MACHINE_COMMANDS = {
    "run": ["run", "kmeans", "--cores", "2"],
    "run --trace": ["run", "kmeans", "--cores", "2", "--trace"],
    "compare": ["compare", "kmeans", "--cores", "2"],
    "figure 1": ["figure", "1", "--cores", "2"],
    "figure 9": ["figure", "9", "--cores", "2"],
    "figure 10": ["figure", "10", "--cores", "2"],
    "figure hybrid": ["figure", "hybrid", "--cores", "2"],
    "figure capacity": ["figure", "capacity", "--cores", "2"],
    "figure service": ["figure", "service", "--cores", "2"],
    "table 3": ["table", "3", "--cores", "2"],
    "experiments": ["experiments", "--cores", "2", "-o", "E.md"],
    "sweep": ["sweep", "kmeans", "--core-counts", "1,2"],
    "sweep --smoke": ["sweep", "--smoke"],
    "trace export": ["trace", "export", "kmeans", "--cores", "2"],
    "timeline": ["timeline", "kmeans", "--cores", "2"],
    "metrics": ["metrics", "kmeans", "--cores", "2"],
}

#: the service-workload spellings of every subcommand that registers
#: the traffic flags
TRAFFIC_COMMANDS = {
    "run": ["run", "service-limiter", "--cores", "2"],
    "compare": ["compare", "service-limiter", "--cores", "2"],
    "figure service": ["figure", "service", "--cores", "2"],
    "sweep": ["sweep", "service-limiter", "--core-counts", "1,2"],
    "trace export": ["trace", "export", "service-limiter", "--cores", "2"],
    "timeline": ["timeline", "service-limiter", "--cores", "2"],
    "metrics": ["metrics", "service-limiter", "--cores", "2"],
}


@pytest.mark.parametrize("command", MACHINE_COMMANDS)
def test_machine_flags_reach_every_point(
    command, dispatched, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    # (knobs no figure sweeps itself: `figure hybrid` owns the retry
    # budget and `figure capacity` the read/write sets — see below)
    argv = MACHINE_COMMANDS[command] + TINY + [
        "--ivb", "4", "--constraint-buffer", "8", "--ssb", "unlimited",
    ]
    with pytest.raises(_Captured):
        main(argv)
    assert dispatched
    for point in dispatched:
        config = point.resolved_config()
        assert config.ivb_entries == 4, point.label()
        assert config.constraint_entries == 8, point.label()
        assert config.ssb_entries is None, point.label()
        # the flags' config never overrides the point's core count
        assert config.ncores == point.ncores


def test_compare_honours_the_set_bounds(dispatched):
    """The reported wrong answer: `compare --read-set 1 --write-set 1`
    printed the unbounded result."""
    with pytest.raises(_Captured):
        main(["compare", "python_opt", "--systems", "eager", "--cores",
              "4", "--read-set", "1", "--write-set", "1",
              "--retry-budget", "2"] + TINY)
    (point,) = dispatched
    config = point.resolved_config()
    assert (config.read_set_entries, config.write_set_entries) == (1, 1)
    assert config.retry_budget == 2


def test_figure_sweeps_override_only_their_own_knob(dispatched):
    """`figure capacity --retry-budget 1` keeps the flag on every point
    while the figure sweeps read/write sets on top of it."""
    with pytest.raises(_Captured):
        main(["figure", "capacity", "--cores", "2", "--retry-budget", "1",
              "--ivb", "4"] + TINY)
    configs = [point.resolved_config() for point in dispatched]
    assert {c.retry_budget for c in configs} == {1}
    assert {c.ivb_entries for c in configs} == {4}
    assert {c.read_set_entries for c in configs} == {1, 2, 4, 8, None}


def test_fuzz_machine_flags_reach_every_point(monkeypatch, tmp_path):
    """A fuzz campaign's points are ``run_case`` calls, not engine
    points: intercept those."""
    from repro.fuzz import campaign

    configs = []

    def spy(case, config=None, **kwargs):
        configs.append(config)
        raise _Captured

    monkeypatch.setattr(campaign, "run_case", spy)
    with pytest.raises(_Captured):
        main(["fuzz", "--profiles", "fuzz-mixed", "--seed-start", "0",
              "--seeds", "1", "--read-set", "6", "--write-set", "6",
              "--jobs", "1", "--corpus", str(tmp_path / "corpus")])
    assert [
        (c.read_set_entries, c.write_set_entries) for c in configs
    ] == [(6, 6)]


@pytest.mark.parametrize("command", TRAFFIC_COMMANDS)
def test_traffic_flags_reach_every_point(command, dispatched):
    argv = TRAFFIC_COMMANDS[command] + TINY + [
        "--skew", "1.7", "--burst", "bursty",
    ]
    with pytest.raises(_Captured):
        main(argv)
    assert dispatched
    assert {(p.skew, p.burst) for p in dispatched} == {(1.7, "bursty")}


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--smoke", "--skew", "9", "--burst", "bursty"],
        ["sweep", "--smoke", "--skew", "9"],
        ["run", "kmeans", "--burst", "bursty"],
        ["compare", "kmeans", "--skew", "2"],
        ["figure", "9", "--skew", "2"],
        ["figure", "hybrid", "--burst", "steady"],
    ],
    ids=" ".join,
)
def test_traffic_flags_on_a_plain_workload_are_a_usage_error(
    argv, dispatched, capsys
):
    """Used to be accepted and ignored (sweep --smoke) or a traceback
    from inside the run; now nothing runs and the exit code is 2."""
    assert main(argv + ["--no-cache", "--jobs", "1"]) == 2
    assert "has no traffic model" in capsys.readouterr().err
    assert not dispatched


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "kmeans", "--system", "bogus"],
        ["run", "kmeans", "--backend", "bogus"],
        ["compare", "kmeans", "--systems", "eager,bogus"],
        ["sweep", "kmeans", "--systems", "bogus"],
        ["sweep", "kmeans", "--backend", "bogus"],
        ["sweep", "--smoke", "--backend", "bogus"],
        ["figure", "hybrid", "--backend", "bogus"],
        ["figure", "service", "--backends", "eager,bogus"],
        ["fuzz", "--backends", "eager", "bogus"],
        ["fuzz", "--backend", "bogus"],
        ["metrics", "kmeans", "--system", "bogus"],
        ["timeline", "figure2", "--system", "bogus"],
    ],
    ids=" ".join,
)
def test_an_unknown_backend_is_a_usage_error(argv, dispatched, capsys):
    """Used to be a ValueError traceback out of the first Machine, after
    the workload was generated and the sequential baseline had run; now
    nothing is dispatched and the exit code is 2."""
    assert main(argv + ["--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert "unknown TM system 'bogus'" in err
    assert "hybrid-lazy-vb" in err  # names the known backends
    assert not dispatched


@pytest.mark.parametrize("system", ["retcon-fwd", "datm"])
def test_check_on_a_forwarding_row_runs_and_reports_ok(system, capsys):
    """--check on a forwarding row used to be a usage error; its
    commits are now replayed like every other row's."""
    argv = ["run", "kmeans", "--system", system, "--cores", "2", "--check"]
    assert main(argv + TINY) == 0
    assert "oracle: ok" in capsys.readouterr().out


def test_fuzz_on_a_forwarding_row_keeps_its_golden_and_stats_signals(
    tmp_path, capsys
):
    """A fuzz campaign on retcon-fwd is checked like any row: a clean
    batch passes and a corrupted drain is caught by the golden diff."""
    argv = ["fuzz", "--backends", "retcon-fwd", "--profiles", "fuzz-rmw",
            "--seed-start", "0", "--seeds", "2", "--jobs", "1",
            "--no-shrink", "--no-emit"]
    assert main(argv + ["--corpus", str(tmp_path / "clean")]) == 0
    assert "all clean" in capsys.readouterr().out
    assert main(argv + ["--corpus", str(tmp_path / "faulted"),
                        "--fault", "plan-store-skew"]) == 1
    out = capsys.readouterr()
    assert "[retcon-fwd] golden:" in out.out + out.err


@pytest.mark.parametrize("command", ["table", "experiments"])
def test_commands_without_service_workloads_take_no_traffic_flags(
    command, capsys
):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "3", "--skew", "2"] if command == "table"
             else [command, "--skew", "2"])
    assert exit_info.value.code == 2
    assert "--skew" in capsys.readouterr().err


def test_regenerate_line_repeats_the_flags(tmp_path, monkeypatch):
    """A header's 'Regenerate with' command must reproduce the table
    under it, so the flags that shaped it are part of the command."""
    monkeypatch.chdir(tmp_path)
    assert main(
        ["figure", "service", "--cores", "2", "--scale", "0.05",
         "--backends", "retcon", "--skew", "1.7", "--ssb", "unlimited",
         "--no-cache", "--jobs", "1", "-o", "svc.md"]
    ) == 0
    text = (tmp_path / "svc.md").read_text()
    assert (
        "python -m repro figure service --cores 2 --scale 0.05 --seed 1"
        " --ssb unlimited --skew 1.7 -o svc.md"
    ) in text
