"""Runtime: how long a deployment runs and how a wedged one is reported."""
import json

import pytest

from fogsim.cli import main
from fogsim.errors import DeadlockDetected
from fogsim.runner import Runtime
from fogsim.scenario import load_scenario, parse_scenario, preset_tree


def test_deployment_stops_when_its_last_user_finishes():
    config = load_scenario("response")
    runtime = Runtime(config)
    runtime.run()
    assert all(user.done for user in runtime.users)
    last = max(user.completed_at for user in runtime.users)
    assert runtime.kernel.now == last
    assert last < config.time_limit_ms / 10
    assert runtime.kernel.pending_events() > 0  # ticks and uploads left unrun


def test_chained_user_runs_before_the_stop():
    runtime = Runtime(load_scenario("reuse"))
    runtime.run()
    first, second = runtime.users
    assert runtime.config.users[1].start_after_user == 0
    assert second.started and second.metrics().outcome == "Completed"
    assert second.t0 > first.completed_at
    assert runtime.kernel.now == second.completed_at
    assert runtime.counters()["actors"]["warm_reuses"] > 0


def test_deployment_without_users_runs_to_the_time_limit():
    config = load_scenario("discovery")
    assert not config.users
    runtime = Runtime(config)
    runtime.run()
    assert runtime.kernel.now == config.time_limit_ms


def test_user_unfinished_at_the_time_limit_raises_and_the_cli_exits_3(tmp_path, capsys):
    # Fifty frames a second apart cannot all be sent by the 20 s horizon, and
    # the user's own timeout lies past it, so the user is still streaming.
    tree = preset_tree("smoke")
    tree["time_limit_ms"] = 20_000.0
    tree["users"][0].update(frame_count=50, frame_interval_ms=1000.0, timeout_ms=60_000.0)
    runtime = Runtime(parse_scenario(tree))
    with pytest.raises(DeadlockDetected, match="1 of 1 user") as info:
        runtime.run()
    assert runtime.kernel.now <= tree["time_limit_ms"]
    user = runtime.users[0]
    assert f"user {user.request_id}: started=True done=False" in info.value.dump

    path = tmp_path / "stranded.json"
    path.write_text(json.dumps(tree))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert f"user {user.request_id}" in capsys.readouterr().err
