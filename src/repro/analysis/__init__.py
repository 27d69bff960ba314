"""Regeneration of the paper's tables and figures.

:mod:`repro.analysis.figures` is the registry of records behind every
figure, table and ablation of the evaluation — their points, their
rendering and the paper's claims about them;
:mod:`repro.analysis.experiments` walks it into EXPERIMENTS.md;
:mod:`repro.analysis.report` renders ASCII tables and bar charts (the
closest analogue of the paper's plots that a terminal can show).
"""
