"""Experiment registry and paper-style table rendering."""

from repro.analysis.tables import format_table

__all__ = ["format_table"]
