"""Regeneration of the paper's tables and figures.

:mod:`repro.analysis.figures` computes the data series behind every
figure/table in the paper's evaluation; :mod:`repro.analysis.report`
renders them as ASCII tables and bar charts (the closest analogue of
the paper's plots that a terminal can show).
"""

from repro.analysis.figures import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure9,
    figure10,
    table1,
    table2,
    table3,
)
from repro.analysis.report import bar_chart, breakdown_chart, format_table

__all__ = [
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure9",
    "figure10",
    "table1",
    "table2",
    "table3",
    "bar_chart",
    "breakdown_chart",
    "format_table",
]
