"""Byte-for-byte pins of the three committed markdown figures.

``tests/golden/figure_{hybrid,capacity,service}.md`` were captured
from ``repro figure <name> --cores 4 --scale 0.1 -o figure_<name>.md``
at the commit before the figure commands were folded into one driver;
the full-scale ``docs/*.md`` tables come out of the same code path, so
a byte of drift here is a byte of drift there.
"""

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
