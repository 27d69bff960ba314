"""The claim table and EXPERIMENTS.md (tiny scale: structure, not
numbers)."""

import pytest

from repro.analysis import figures
from repro.analysis.experiments import generate_report
from repro.analysis.figures import FIGURES
from repro.exp.spec import Point

#: the records EXPERIMENTS.md and benchmarks/bench_paper.py walk
RECORDS = {name: record for name, record in FIGURES.items() if record.claims}


@pytest.fixture(scope="module")
def tiny_data():
    return figures.collect(RECORDS, Point("", "", ncores=2, seed=4, scale=0.05))


def claim(name: str, description: str) -> figures.Claim:
    (found,) = [
        c for c in FIGURES[name].claims if c.description == description
    ]
    return found


class TestClaims:
    def test_every_paper_artifact_carries_claims(self):
        assert list(RECORDS) == [
            "table1", "table2", "1", "2", "3", "4", "9", "10", "table3",
            "contention", "forwarding", "idealized", "limits",
            "structures", "scaling",
        ]

    @pytest.mark.parametrize("name", RECORDS)
    def test_every_claim_evaluates(self, name, tiny_data):
        for c in RECORDS[name].claims:
            holds, cells = c.judge(tiny_data[name], 2)
            assert isinstance(holds, bool), c.description
            # the view changes what is noted, never what is decided
            assert holds == c.holds(tiny_data[name], 2), c.description
            assert isinstance(figures.cell_text(cells), str), c.description
            assert c.description and c.paper

    @pytest.mark.parametrize("name", RECORDS)
    def test_every_claim_reads_a_cell(self, name, tiny_data):
        for c in RECORDS[name].claims:
            _holds, cells = c.judge(tiny_data[name], 2)
            assert cells, c.description

    def test_no_claim_is_stated_twice(self):
        descriptions = [
            c.description for record in FIGURES.values() for c in record.claims
        ]
        assert len(descriptions) == len(set(descriptions))

    def test_the_view_records_the_cells_that_decided(self):
        c = figures.Claim(
            "probe", "—",
            lambda d, _n: len(d) == 2 and (d["a"] > 0 or d["b"][1] > 0),
        )
        data = {"a": 1.0, "b": (2, 3)}
        assert c.judge(data, 2) == (True, {("keys",): 2, ("a",): 1.0})
        data["a"] = 0.0  # now the `or` reads its second side
        assert c.judge(data, 2)[1] == {
            ("keys",): 2, ("a",): 0.0, ("b", 1): 3,
        }
        assert figures.cell_text(c.judge(data, 2)[1]) == "keys 2, a 0.00, b/1 3"

    def test_python_opt_claim_holds_on_paper_shaped_data(self):
        matrix = {
            name: {"eager": 1.0, "lazy-vb": 1.2, "retcon": 20.0}
            for name in figures.ALL_VARIANTS
        }
        c = claim("9", "python_opt transformed from no scaling to near-linear")
        holds, cells = c.judge(matrix, 32)
        assert holds
        assert "python_opt/retcon 20.0" in figures.cell_text(cells)
        # the bound is core-relative: 20x is not near-linear on 64 cores
        assert not c.holds(matrix, 64)

    def test_figure3_claims_detect_failure(self):
        series = {
            "intruder": 10.0, "intruder_opt": 11.0,  # not rescued
            "vacation": 5.0, "vacation_opt": 20.0,
        }
        assert not claim("3", "restructuring rescues intruder").holds(series, 32)
        assert claim("3", "restructuring rescues vacation").holds(series, 32)

    def test_figure3_hashtable_claim_names_every_cell_it_compares(self):
        series = {
            "genome": 20.0, "genome-sz": 10.0, "intruder_opt": 20.0,
            "intruder_opt-sz": 5.0, "vacation_opt": 20.0,
            "vacation_opt-sz": 5.0,
        }
        c = claim("3", "resizable hashtable remains abort-bound on the baseline")
        holds, cells = c.judge(series, 32)
        assert holds
        assert set(cells) == {(name,) for name in series}

    def test_table3_claims_hold_on_small_structures(self):
        row = {
            "blocks_tracked": (1.0, 3), "private_stores": (1.0, 4),
            "constraint_addresses": (0.5, 2), "commit_stall_percent": 0.5,
            "blocks_lost": (0.1, 2),
        }
        data = {"genome": row, "python": {**row, "blocks_lost": (9.0, 16)}}
        assert all(c.holds(data, 32) for c in FIGURES["table3"].claims)
        data["python"]["private_stores"] = (20.0, 40)  # overflows the SSB
        c = claim("table3", "32-entry symbolic store buffer suffices")
        holds, cells = c.judge(data, 32)
        assert not holds
        assert cells[("python", "private_stores", 1)] == 40
        assert "python/private_stores/1 40" in figures.cell_text(cells)

    def test_unrepairable_claims_are_two_sided_where_the_paper_says_about(self):
        def yada(retcon, lazy):
            return {"yada": {"eager": 1.0, "lazy-vb": lazy, "retcon": retcon}}

        c = claim("9", "yada not helped by repair (§5.4)")
        assert c.holds(yada(3.4, 3.1), 32)
        assert not c.holds(yada(6.0, 3.1), 32)  # helped after all
        assert not c.holds(yada(1.0, 3.1), 32)  # hurt: not "~="


class TestGenerateReport:
    def test_sections_are_the_claim_bearing_records_in_registry_order(self):
        report = generate_report(ncores=2, seed=4, scale=0.05)
        assert report.startswith("# EXPERIMENTS")
        headings = [
            line[3:] for line in report.splitlines() if line.startswith("## ")
        ]
        assert headings == [record.title for record in RECORDS.values()]
        assert report.count(
            "| shape claim | paper | measured | holds |"
        ) == len(RECORDS)
        assert report.count("| yes |") + report.count("| **NO** |") == sum(
            len(record.claims) for record in RECORDS.values()
        )

    def test_one_engine_pass_and_no_point_twice(self, monkeypatch):
        passes = []

        def spy(points, **engine_opts):
            passes.append(list(points))
            return real(points, **engine_opts)

        real = figures.run_points
        monkeypatch.setattr(figures, "run_points", spy)
        generate_report(ncores=2, seed=4, scale=0.05)
        (asked,) = passes
        assert len(asked) == len(set(asked))
        # Figures 3/4/9/10, Table 3 and three ablations share one grid:
        # far fewer points run than the records ask for between them
        base = Point("", "", ncores=2, seed=4, scale=0.05)
        wanted = sum(len(r.points(base)) for r in RECORDS.values())
        assert len(asked) < wanted / 2
