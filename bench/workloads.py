"""The benchmark's workloads: each is a built-in preset resized for one run.

A workload is a scenario tree made from ``fogsim.preset_tree`` with the
experiment resized and the seed taken from the benchmark's ``--seed``.
Nothing else of the preset changes, so every layer runs as it does in the
paper's experiments. README.md beside this file says why these three.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    preset: str
    experiment: dict  # experiment keys overridden for a benchmark run
    short: dict  # the same keys for the benchmark's own tests


WORKLOADS = {
    # Convergence: one live GameOfLife warm-up, then 3 policies x 10 seeds
    # of offline re-solves of the 62-task placement.
    "ga-search": Workload("convergence", {"seeds": 10}, {"seeds": 1}),
    # Response: 3 policies x 2 seeds of short VOCR deployments, each one
    # simulated to the 600 s horizon.
    "control-plane": Workload("response", {"seeds": 2}, {"seeds": 1}),
    # Scalability at its largest burst only: 16 mixed requests at once,
    # master scaling on and then off.
    "burst": Workload("scalability", {"counts": [16]}, {"counts": [4]}),
}


def build_tree(fogsim, name: str, seed: int, short: bool = False) -> dict:
    workload = WORKLOADS[name]
    tree = fogsim.preset_tree(workload.preset)
    tree["seed"] = seed
    tree["experiment"].update(workload.short if short else workload.experiment)
    return tree


def _mean(values):
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else None


def sim_metrics(name: str, report, deployments: list) -> dict:
    """Simulated-time figures that a pure host-time speed-up must keep exactly.

    ``sim_placement_ms`` is the modelled response time of ohnsga's
    placements; ``sim_sft_ms`` is the mean scheduling finish time.
    """

    summary = report.summary
    if name == "burst":
        # The scaling-on deployment at the largest burst.
        largest = max((d for d in deployments if d["scaling"]), key=lambda d: d["users"])
        cell = summary["counts"][str(largest["users"])]
        return {
            "sim_placement_ms": _mean(_mean(r) for r in largest["response_ms"]),
            "sim_sft_ms": cell["mean_sft_scaling_ms"],
        }
    sft = _mean(v for d in deployments for v in d["sft_ms"])
    if name == "ga-search":
        return {"sim_placement_ms": summary["median_final"]["ohnsga"], "sim_sft_ms": sft}
    return {"sim_placement_ms": summary["mean_measured_ms"]["ohnsga"], "sim_sft_ms": sft}


def check_report(name: str, report) -> list[tuple[str, str | None]]:
    """Workload-specific output checks: (check name, failure detail or None)."""

    if name == "ga-search":
        detail = None
        last = {}
        for row in report.convergence:
            if row["policy"] != "ohnsga":
                continue
            key = row["seed"]
            if key in last and row["best_fitness"] > last[key]:
                detail = f"seed {key} rises at iteration {row['iteration']}"
                break
            last[key] = row["best_fitness"]
        if not last:
            detail = "no ohnsga series in the report"
        return [("ohnsga_series_nonincreasing", detail)]
    if name == "control-plane":
        worst = {p: e for p, e in report.summary["max_err_pct"].items() if e > 1.0}
        return [("max_err_pct_le_1", f"max_err_pct above 1: {worst}" if worst else None)]
    return []
