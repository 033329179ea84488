"""Deterministic report emission: one JSON tree plus four fixed-schema CSVs.

Identical runs must produce byte-identical files, so keys are sorted,
floats are fixed to six decimals in the CSVs, and every CSV is always
written even when its table is empty.
"""
from __future__ import annotations

import csv
import json
import os

from .runner import MetricsReport

__all__ = ["emit_report", "CSV_SCHEMAS"]

CSV_SCHEMAS = {
    "convergence.csv": ("app", "policy", "seed", "iteration", "best_fitness"),
    "sft.csv": ("count", "scaling", "request_id", "app", "sft_ms", "forwards", "outcome"),
    "rrt.csv": ("app", "run", "rrt_ms", "response_ms"),
    "response.csv": ("policy", "seed", "estimate_ms", "measured_ms", "err_pct"),
}


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write_csv(path: str, columns: tuple, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(col)) for col in columns])


def emit_report(report: MetricsReport, out_dir: str) -> dict[str, str]:
    """Writes report.json and the CSVs into out_dir; returns name -> path."""

    os.makedirs(out_dir, exist_ok=True)
    written = {}

    json_path = os.path.join(out_dir, "report.json")
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(report.to_tree(), indent=2, sort_keys=True) + "\n")
    written["report.json"] = json_path

    tables = {
        "convergence.csv": report.convergence,
        "sft.csv": report.sft,
        "rrt.csv": report.rrt,
        "response.csv": report.response,
    }
    for name, rows in tables.items():
        path = os.path.join(out_dir, name)
        _write_csv(path, CSV_SCHEMAS[name], rows)
        written[name] = path
    return written
