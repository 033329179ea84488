"""The benchmark's own tests, on shortened workloads.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import refspeed  # noqa: E402
import worker  # noqa: E402
from tracing import Probe, self_times  # noqa: E402
from workloads import WORKLOADS, build_tree  # noqa: E402

fogsim = worker.import_fogsim()


def _originals():
    fg = fogsim
    return {
        "Runtime": fg.runner.Runtime,
        "POLICIES": dict(fg.ga_policies.POLICIES),
        "estimate": fg.scheduler.ResponseModel.__dict__["estimate"],
        "message_wire_bytes": fg.protocol.message_wire_bytes,
        "ingest": fg.telemetry.LogStore.__dict__["ingest"],
        "snapshot": fg.telemetry.LogStore.__dict__["snapshot"],
        "run": fg.netsim.SimKernel.__dict__["run"],
        "schedule_at": fg.netsim.SimKernel.__dict__["schedule_at"],
        "utilization": fg.netsim.HostCompute.__dict__["utilization"],
        "parse_scenario": fg.parse_scenario,
        "emit_report": fg.emit_report,
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_run_passes_every_check(name):
    result = worker.measure(fogsim, name, seed=3, seconds=0, trace=True, short=True)
    assert [check for check, detail in result["checks"] if detail] == []
    assert result["failed"] == 0 and result["attempted"] > 0
    per_layer = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in per_layer} == set(result["layers"])


def test_a_wedged_deployment_fails_every_request_and_the_check(monkeypatch):
    def wedging_tree(fg, name, seed, short=False):
        tree = build_tree(fg, name, seed, short)
        tree["time_limit_ms"] = 1.0  # no request can finish by then
        return tree

    monkeypatch.setattr(worker, "build_tree", wedging_tree)
    result = worker.measure(fogsim, "control-plane", seed=1, seconds=0, trace=False, short=True)
    failed_checks = {check for check, detail in result["checks"] if detail}
    assert failed_checks == {"no_wedged_deployment"}
    assert result["attempted"] == result["failed"] == 2  # both users of the first deployment
    assert result["walls"] == []


def test_top_level_self_times_fit_in_traced_wall_time():
    run = worker.one_run(fogsim, "control-plane", seed=3, trace=True, short=True)
    spans = run["spans"]
    own = self_times(spans)
    assert spans[0][3] == -1 and all(parent >= 0 for _n, _s, _e, parent, _d in spans[1:])
    top = sum(mine for span, mine in zip(spans, own) if span[3] == 0)
    assert 0 < top <= run["wall_s"]
    assert sum(own[1:]) <= run["wall_s"]
    assert {span[4] for span in spans if span[0] == "runner.Runtime"} == set(range(1, 4))


def test_control_bytes_and_digest_repeat_across_runs():
    first, second = (worker.one_run(fogsim, "control-plane", seed=5, trace=True, short=True) for _ in range(2))
    assert first["layers"]["protocol.control_bytes"] > 0
    assert first["layers"]["protocol.control_bytes"] == second["layers"]["protocol.control_bytes"]
    assert first["digest"] == second["digest"]


def test_traced_run_removes_its_wrappers():
    before = _originals()
    traced = worker.one_run(fogsim, "burst", seed=2, trace=True, short=True)
    assert _originals() == before
    plain = worker.one_run(fogsim, "burst", seed=2, trace=False, short=True)
    assert plain["digest"] == traced["digest"]
    assert "spans" not in plain


def test_wrappers_are_removed_when_a_run_raises():
    before = _originals()
    with pytest.raises(fogsim.ConfigError):
        with Probe(fogsim, trace=True):
            fogsim.parse_scenario({"policy": "no-such-policy"})
    assert _originals() == before


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "burst", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
    assert not (tmp_path / ".bench_out").exists()


def test_times_are_scaled_to_the_reference_speed(monkeypatch):
    readings = iter([2 * refspeed.REF_KERNEL_S, 4 * refspeed.REF_KERNEL_S])
    monkeypatch.setattr(refspeed, "kernel_s", lambda: next(readings))
    assert refspeed.bracketed(lambda: "done") == ("done", 2 * refspeed.REF_KERNEL_S, 4 * refspeed.REF_KERNEL_S)
    # The host ran the kernel at a third of the reference speed, so 3 s of wall time is 1 s at it.
    assert refspeed.at_ref([2.0, 4.0], [2 * refspeed.REF_KERNEL_S, 4 * refspeed.REF_KERNEL_S]) == pytest.approx(1.0)
