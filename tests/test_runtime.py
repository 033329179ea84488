"""Runtime: how long a deployment runs, how a wedged one is reported, that a
finished one is freed, and one deployment on either kernel."""
import copy
import gc
import json
import threading
import types
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fogsim.cli import main
from fogsim.errors import DeadlockDetected
from fogsim.ga_policies import POLICIES
from fogsim.netsim import SimKernel
from fogsim.protocol import Data, Result
from fogsim.runner import EXPERIMENTS, Runtime, run_scenario
from fogsim.scenario import load_scenario, parse_scenario, preset_names, preset_tree
from fogsim.scheduler import ResponseModel, build_task_actors_map
from fogsim.tcpnet import RealtimeKernel
from fogsim.telemetry import TelemetryView


def test_deployment_stops_when_its_last_user_finishes():
    config = load_scenario("response")
    runtime = Runtime(config)
    runtime.run()
    assert all(user.done for user in runtime.users)
    last = max(user.completed_at for user in runtime.users)
    assert runtime.kernel.now == last
    assert last < config.time_limit_ms / 10
    # run() closed its kernel; the same deployment driven by hand with run()'s
    # stop condition stops at the same instant, with ticks and uploads left unrun.
    again = Runtime(config)
    again.kernel.run(until_ms=config.time_limit_ms, stop_when=lambda: all(user.done for user in again.users))
    assert again.kernel.now == last
    assert again.kernel.run(until_ms=last + 1000.0) > last


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


def _of_fogsim(obj):
    if isinstance(obj, types.MethodType):
        obj = obj.__func__
    module = obj.__module__ if isinstance(obj, types.FunctionType) else type(obj).__module__
    return (module or "").split(".")[0] == "fogsim"


def _live_runtimes():
    return sum(isinstance(obj, Runtime) for obj in gc.get_objects())


@pytest.mark.parametrize("preset", preset_names())
def test_a_finished_deployment_is_freed_by_reference_counting(preset):
    # With the collector off, every object of a dropped Runtime that is still
    # allocated is in a reference cycle; DEBUG_SAVEALL keeps what collect() finds.
    # Building convergence's cells runs its warm-up deployment, which must be
    # gone by the time they are built, not held until the cells are.
    config = load_scenario(preset)
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        runtimes = _live_runtimes()
        cells = EXPERIMENTS[config.experiment["kind"]].cells(config)
        assert _live_runtimes() == runtimes
        _label, job = cells[0]
        job()
        del cells, job
        gc.collect()
        leaked = Counter(type(obj).__name__ for obj in gc.garbage if _of_fogsim(obj))
    finally:
        gc.garbage.clear()
        gc.set_debug(flags)
        if enabled:
            gc.enable()
    assert not leaked, f"cyclic garbage of fogsim after a {preset} run: {dict(leaked)}"


def _two_user_vocr():
    """Smoke with two VOCR users, the second chained after the first, sized to take seconds of wall time."""
    tree = preset_tree("smoke")
    user = {"host": "10.0.0.1", "app": "VOCR", "frame_count": 2, "frame_interval_ms": 50.0}
    tree["users"] = [dict(user, start_at_ms=100.0), dict(user, start_after_user=0, start_after_delay_ms=100.0)]
    tree.update(
        profile_period_ms=100.0,
        actor_runtime={"executor_startup_ms": 20.0},
        ga={"pop_size": 8, "max_iteration_num": 10, "n_parents": 4, "n_offsprings": 4},
        # A wedged TCP run fails as DeadlockDetected after 30 s of wall time instead of hanging.
        time_limit_ms=30_000.0,
    )
    return parse_scenario(tree)


def _run_on(kernel, config):
    runtime = Runtime(config, kernel=kernel)
    thread_counts = []

    def sample_threads():
        thread_counts.append(threading.active_count())
        runtime.kernel.schedule(50.0, sample_threads)

    sample_threads()
    runtime.run()
    return runtime, thread_counts


def test_runtime_gives_the_same_outcomes_on_the_simulated_kernel_and_over_tcp():
    config = _two_user_vocr()
    sim, _ = _run_on(SimKernel, config)
    tcp, thread_counts = _run_on(RealtimeKernel, config)
    assert isinstance(tcp.kernel, RealtimeKernel) and tcp.kernel.topology is config.topology
    for runtime in (sim, tcp):
        assert [m.outcome for m in runtime.request_metrics()] == ["Completed", "Completed"]
        assert runtime.counters()["actors"]["warm_reuses"] > 0
    assert tcp.counters()["actors"]["cold_starts"] == sim.counters()["actors"]["cold_starts"]
    # The data path is the same on both kernels, so are its message counts.
    for kind in (Data, Result):
        assert tcp.kernel.traffic[kind].sent == sim.kernel.traffic[kind].sent > 0
    assert "traffic RegisterActor: sent=" in tcp.dump()
    assert thread_counts and set(thread_counts) == {1}
    assert threading.active_count() == 1


def _convergence_tree(seed=None, base_cpu_util=None, discovery=False):
    tree = preset_tree("convergence")
    tree["experiment"]["seeds"] = 1
    if seed is not None:
        tree["seed"] = seed
    if base_cpu_util is not None:
        for host in tree["topology"]["hosts"]:
            host["base_cpu_util"] = base_cpu_util
    if discovery:
        tree["discovery"] = {"enabled": True, "interval_ms": 1000.0, "grace_ms": 50.0, "net_mask": 24}
    return tree


@pytest.mark.parametrize("tree", [
    _convergence_tree(),
    _convergence_tree(seed=1),
    _convergence_tree(seed=2),
    _convergence_tree(seed=3),
    _convergence_tree(base_cpu_util=0.15),
    _convergence_tree(discovery=True),
], ids=["seed11", "seed1", "seed2", "seed3", "base-util-0.15", "discovery"])
def test_convergence_resolves_see_at_the_horizon_what_the_idle_ground_truth_gives(tree):
    # Oracle: the warm-up run on to its time limit, with the re-solves' model
    # built from the serving master's view there. The convergence cells stop
    # the warm-up at the last user and build it from the idle ground-truth
    # view; both must give the same estimates, and the run the same report rows.
    # run() closes its kernel, so the horizon is reached by a second
    # deployment of the same config, driven by hand past the stop.
    config = replace(parse_scenario(tree), policy="ohnsga")
    runtime = Runtime(config)
    runtime.run()
    user = runtime.users[0]
    app = config.apps[user.config.app]
    _, master = runtime.serving_state(user.request_id)
    actors_at_stop = sorted((a.addr, sorted(a.images)) for a in master.actors.values())
    history_at_stop = [genes.tolist() for genes in master.history.best_first(app.name)]
    horizon = Runtime(config)
    horizon.kernel.run(until_ms=config.time_limit_ms)
    assert horizon.kernel.now == config.time_limit_ms
    _, master = horizon.serving_state(user.request_id)

    # Nothing the re-solves read from the master moves after the stop ...
    assert sorted((a.addr, sorted(a.images)) for a in master.actors.values()) == actors_at_stop
    assert [genes.tolist() for genes in master.history.best_first(app.name)] == history_at_stop
    # ... and the horizon view is live telemetry, not just the seeded ground truth.
    assert all(profile.sampled_at > 0 for profile in master.view.host_profiles.values())

    def model(view):
        return ResponseModel(
            app,
            build_task_actors_map(app, master.actors.values()),
            user_host=user.config.host,
            master_host=master.spec.host,
            view=view,
            frame_size_bytes=user.config.frame_size_bytes,
        )

    at_horizon, idle = model(master.view), model(TelemetryView(config.topology))
    assert idle.counts == at_horizon.counts and min(idle.counts) > 0
    rng = np.random.default_rng([config.seed, 12])
    for _ in range(250):
        assignment = [int(rng.integers(count)) for count in idle.counts]
        assert idle.estimate(assignment) == at_horizon.estimate(assignment)

    expected = []
    for p_index, name in enumerate(config.experiment["policies"]):
        for s in range(config.experiment["seeds"]):
            rng = np.random.default_rng([config.seed, p_index, s])
            history = copy.deepcopy(master.history)
            result = POLICIES[name](at_horizon.counts, at_horizon.estimate, config.ga, rng, history=history, app=app.name)
            expected += [
                {"app": app.name, "policy": name, "seed": s, "iteration": iteration, "best_fitness": best}
                for iteration, best in enumerate(result.series, start=1)
            ]
    assert run_scenario(config).convergence == expected
