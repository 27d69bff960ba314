"""Byte-for-byte pins of the committed figures.

``tests/golden/figure_{hybrid,capacity,service}.md`` were captured
from ``repro figure <name> --cores 4 --scale 0.1 -o figure_<name>.md``
at the commit before the figure commands were folded into one driver;
the full-scale ``docs/*.md`` tables come out of the same code path, so
a byte of drift here is a byte of drift there.  ``figure_2.txt`` is
``repro figure 2``'s stdout and ``FIGURE2_TRACES`` the sha256 of each
``repro trace export figure2 --system <s>`` file, both captured while
Figure 2 still simulated outside the experiment engine.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "golden"


@pytest.mark.parametrize("name", ["hybrid", "capacity", "service"])
def test_figure_regenerates_byte_identical(name, tmp_path, monkeypatch):
    # The header quotes the -o path, so write to the relative name the
    # fixture was captured under.
    monkeypatch.chdir(tmp_path)
    output = f"figure_{name}.md"
    assert main(
        ["figure", name, "--cores", "4", "--scale", "0.1",
         "--no-cache", "--jobs", "1", "-o", output]
    ) == 0
    assert (tmp_path / output).read_bytes() == (
        GOLDEN / output
    ).read_bytes()


def test_figure_2_is_pinned(capsys):
    assert main(["figure", "2", "--no-cache", "--jobs", "1"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "figure_2.txt").read_text()


#: sha256 of ``repro trace export figure2 --system <s>`` (CLI defaults)
FIGURE2_TRACES = {
    "datm": "a8e0be0a319f1b6be8702f9725db5a091630cc15b66b339a9e099611b9ddf0ce",
    "eager-abort": "985fc20278b7984578367c49acd7539107297a823d7aa40b711f3f34e54c9898",
    "eager-stall": "2f8998b657618f702b80780f74ea5c9264f91daa90cb6e819604b8a0e023859e",
    "lazy": "f8ffd8e94a9b42f01228998942e902ae7358aa9c790e4f722122ec0c484e47b5",
    "retcon": "c598edced95a4ad083eac6f6a36479b6188cb31f060c3e101a518ba4ffa9efdc",
}


@pytest.mark.parametrize("system", sorted(FIGURE2_TRACES))
def test_figure_2_trace_export_is_pinned(system, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(
        ["trace", "export", "figure2", "--system", system,
         "--no-cache", "--jobs", "1"]
    ) == 0
    payload = (tmp_path / f"trace_figure2_{system}.json").read_bytes()
    assert hashlib.sha256(payload).hexdigest() == FIGURE2_TRACES[system]


def test_a_failed_invariant_fails_an_unchecked_figure():
    """Invariants are evaluated on every run, so a figure must never
    print a cell whose run broke one — with or without --check."""
    from repro.analysis import figures
    from repro.exp.spec import Point
    from repro.sim.runner import run_workload
    from repro.workloads.base import InvariantResult

    figure = figures.FIGURES["9"]
    base = Point("", "", ncores=2, scale=0.05)
    labelled = figure.points(base)[:1]
    ((_label, point),) = labelled
    assert not point.check
    result = run_workload(
        point.workload, point.system, ncores=2, scale=0.05
    )
    finished = {point: result}
    figure.nest(labelled, finished, base)  # clean: renders
    result.invariants.append(InvariantResult("size", False, "44 != 52"))
    with pytest.raises(figures.PointFailed, match="44 != 52") as failure:
        figure.nest(labelled, finished, base)
    assert str(failure.value).startswith(point.label())


def test_a_failed_point_exits_1_naming_it(monkeypatch, capsys):
    """`figure`, `table`, `compare`, `sweep`, `sweep --smoke` and
    `experiments` all fail the same way: no table, the point's label on
    stderr, exit status 1."""
    from repro.analysis import figures
    from repro.workloads.base import InvariantResult

    real = figures.run_points

    def break_retcon(points, **engine_opts):
        results = real(points, **engine_opts)
        for point, result in results.items():
            if point.system == "retcon":
                result.invariants.append(InvariantResult("size", False, "boom"))
        return results

    monkeypatch.setattr(figures, "run_points", break_retcon)
    tiny = ["--scale", "0.05", "--no-cache", "--jobs", "1"]
    for argv in (
        ["compare", "kmeans", "--cores", "2"],
        ["sweep", "kmeans", "--core-counts", "1,2", "--check"],
        ["sweep", "--smoke"],
        ["table", "3", "--cores", "2"],
        ["experiments", "--cores", "2", "-o", "unwritten.md"],
    ):
        assert main(argv + tiny) == 1, argv
        captured = capsys.readouterr()
        assert "/retcon ncores=" in captured.err and "boom" in captured.err
        assert "speedup" not in captured.out
    assert main(["compare", "kmeans", "--cores", "2", "--systems", "eager"]
                + tiny) == 0
