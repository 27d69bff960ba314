"""The core-count sweep record (``repro sweep`` and the ``scaling``
figure share its point builder and renderer)."""

from repro.analysis.figures import SWEEP
from repro.exp.engine import run_points
from repro.exp.spec import Point


def sweep(workload, scale, **options):
    base = Point(workload, "", ncores=0, scale=scale)
    labelled = SWEEP.points(base, **options)
    finished = run_points((point for _label, point in labelled), jobs=1)
    return SWEEP.nest(labelled, finished, base)


class TestCoreSweep:
    def test_points_per_core_count(self):
        data = sweep("kmeans", 0.1, systems=("eager",), core_counts=(1, 2))
        assert list(data["kmeans"]) == [1, 2]
        assert all(row["eager"] > 0 for row in data["kmeans"].values())

    def test_single_core_near_unity(self):
        data = sweep("ssca2", 0.15, systems=("retcon",), core_counts=(1,))
        assert 0.85 < data["ssca2"][1]["retcon"] < 1.15

    def test_format_sweep(self):
        data = sweep("kmeans", 0.1, systems=("eager",), core_counts=(1, 2))
        text = SWEEP.render(data, 0)
        assert text.splitlines()[0] == "kmeans"
        assert "cores" in text and "eager" in text
