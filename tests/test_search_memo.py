"""The placement-search memo: a search solved once in a run is not run again, and reusing it changes nothing."""
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from fogsim.ga_policies import POLICIES, GaParams, HistoryStore
from fogsim.registry_master import search_key
from fogsim.report import emit_report
from fogsim.runner import EXPERIMENTS, MetricsReport, Runtime, run_scenario
from fogsim.scenario import load_scenario
from fogsim.telemetry import TelemetryView


@pytest.fixture
def searches(monkeypatch) -> list:
    """The app of every placement search run from now on, whatever its policy."""
    apps = []

    def counted(solve):
        def solve_and_count(*args, app=None, **kwargs):
            apps.append(app)
            return solve(*args, app=app, **kwargs)

        return solve_and_count

    for name, solve in list(POLICIES.items()):
        monkeypatch.setitem(POLICIES, name, counted(solve))
    return apps


def _emitted(report: MetricsReport, out: Path) -> dict:
    return {name: Path(path).read_bytes() for name, path in emit_report(report, str(out)).items()}


def test_a_run_sharing_one_memo_reports_what_a_fresh_memo_per_cell_reports(searches, tmp_path):
    config = load_scenario("scalability")
    shared = run_scenario(config)
    shared_searches = len(searches)

    experiment = EXPERIMENTS["scalability"]
    cells = experiment.cells(config)  # no memo: each deployment keeps its own
    results = [job() for _label, job in cells]
    fresh = MetricsReport(name=config.name, kind="scalability", policy=config.policy, seed=config.seed)
    experiment.fold(config, fresh, [label for label, _job in cells], results)
    fresh_searches = len(searches) - shared_searches

    assert shared.to_tree() == fresh.to_tree()
    assert _emitted(shared, tmp_path / "shared") == _emitted(fresh, tmp_path / "fresh")
    # The scaling-off cells replay their scaling-on twins' searches.
    assert 0 < shared_searches < fresh_searches


def test_run_scenario_twice_on_one_config_runs_the_same_searches(searches):
    config = load_scenario("scalability")
    run_scenario(config)
    first = list(searches)
    run_scenario(config)
    assert first and searches == first + first


def _key_inputs() -> dict:
    topology = load_scenario("scalability").topology
    hosts = sorted(topology.hosts)
    history = HistoryStore()
    history.record("VOCR", np.array([0.5, 1.5, 0.5]), 40.0)
    return {
        "policy": "ohnsga",
        "app": "VOCR",
        "candidates": {task: [SimpleNamespace(addr=SimpleNamespace(host=h)) for h in hosts[1:3]]
                       for task in ("KeyFrameFilter", "OCR", "TextDedup")},
        "view": TelemetryView(topology),
        "user_host": hosts[0],
        "master_host": hosts[1],
        "frame_size_bytes": 65536,
        "ga_params": GaParams(),
        "entropy": (1, 2, 3),
        "history": history,
    }


def _reordered(candidates: dict) -> dict:
    first, *rest = candidates
    return {first: candidates[first][::-1], **{task: candidates[task] for task in rest}}


def _busier(view: TelemetryView, host: str) -> TelemetryView:
    busy = TelemetryView(view.topology)
    held = busy.host_profile(host)
    busy.observe(replace(held, cpu_util=0.5, sampled_at=held.sampled_at + 1.0))
    return busy


def _with_entry(history: HistoryStore) -> HistoryStore:
    other = HistoryStore()
    other.restore("VOCR", history.entries("VOCR"))
    other.record("VOCR", np.array([1.5, 0.5, 1.5]), 50.0)
    return other


# (what changes, the input it is in, the changed input)
_CHANGES = [
    ("policy", "policy", lambda inputs: "nsga2"),
    ("app", "app", lambda inputs: "GameOfLife"),
    ("candidate order", "candidates", lambda inputs: _reordered(inputs["candidates"])),
    ("host rate", "view", lambda inputs: _busier(inputs["view"], inputs["master_host"])),
    ("user host", "user_host", lambda inputs: inputs["master_host"]),
    ("master host", "master_host", lambda inputs: inputs["user_host"]),
    ("frame size", "frame_size_bytes", lambda inputs: 65537),
    ("ga params", "ga_params", lambda inputs: replace(inputs["ga_params"], pop_size=99)),
    ("seed", "entropy", lambda inputs: (2, 2, 3)),
    ("host crc", "entropy", lambda inputs: (1, 3, 3)),
    ("sequence", "entropy", lambda inputs: (1, 2, 4)),
    ("history entry", "history", lambda inputs: _with_entry(inputs["history"])),
]


@pytest.mark.parametrize("field,change", [case[1:] for case in _CHANGES], ids=[case[0] for case in _CHANGES])
def test_changing_any_one_input_of_a_search_misses_the_memo(field, change):
    inputs = _key_inputs()
    memo = {search_key(**inputs): "solved"}
    assert search_key(**_key_inputs()) in memo
    assert search_key(**dict(inputs, **{field: change(inputs)})) not in memo


def test_a_hit_leaves_the_history_and_the_placements_a_real_search_leaves(searches):
    # Reuse's second request is placed from the history its first one left.
    config = load_scenario("reuse")
    real = Runtime(config)
    real.run()
    assert len(searches) == 2 and real.masters[0].searches_reused == 0

    replay = Runtime(config)
    assert replay.searches == {}  # a Runtime built outside run_scenario has a memo of its own
    replay.searches.update(real.searches)
    replay.run()
    assert len(searches) == 2

    (master,), (again,) = real.masters, replay.masters
    assert again.searches_reused == 2 and again._sched_seq == master._sched_seq
    assert any(master.history.entries(app) for app in config.apps)
    for app in config.apps:
        got, want = again.history.entries(app), master.history.entries(app)
        assert [(g.tobytes(), f) for g, f in got] == [(g.tobytes(), f) for g, f in want]
    assert replay.request_metrics() == real.request_metrics()
    assert "searches_reused=2" in replay.dump()
