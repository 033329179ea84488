"""Scenario loading, experiment cells, report emission, and the CLI surface."""
import csv
import dataclasses
import filecmp
import json
import os
import pickle
import textwrap
import typing

import pytest

import conftest
from fogsim import protocol, runner, scenario
from fogsim.actor_runtime import ActorConfig
from fogsim.cli import main
from fogsim.discovery import DiscoveryConfig
from fogsim.errors import ConfigError, DeadlockDetected
from fogsim.ga_policies import GaParams
from fogsim.netsim import HostSpec, LinkSpec
from fogsim.report import CSV_SCHEMAS, emit_report
from fogsim.runner import EXPERIMENTS, MetricsReport, run_scenario
from fogsim.scenario import ScenarioConfig, load_scenario, parse_scenario, preset_names, preset_tree
from fogsim.scheduler import SchedulerConfig
from fogsim.user_sim import UserConfig


def smoke_tree():
    return preset_tree("smoke")


# -- parsing ------------------------------------------------------------------------


def test_presets_all_load():
    assert preset_names() == sorted(
        ["smoke", "convergence", "scalability", "reuse", "response", "discovery"])
    for name in preset_names():
        config = load_scenario(name)
        assert config.name == name
        assert config.masters and config.loggers


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(smoke_tree()))
    config = load_scenario(str(path))
    assert config.name == "smoke" and config.seed == 7
    assert [u.app for u in config.users] == ["VOCR"]


def test_preset_tree_is_fresh_on_every_call():
    tree = preset_tree("smoke")
    tree["experiment"]["kind"] = "stress"
    tree["users"].clear()
    again = preset_tree("smoke")
    assert again["experiment"] == {"kind": "single"} and len(again["users"]) == 1


def test_unknown_reference_and_bad_json_are_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="neither a file nor a preset"):
        load_scenario("no-such-preset")
    with pytest.raises(ConfigError, match="neither a file nor a preset"):
        load_scenario(str(tmp_path))  # a directory
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario(str(path))
    path.write_text("[1]")
    with pytest.raises(ConfigError, match="scenario root must be an object"):
        load_scenario(str(path))


def reject(mutate, match):
    tree = smoke_tree()
    mutate(tree)
    with pytest.raises(ConfigError, match=match) as info:
        parse_scenario(tree)
    return info.value


@pytest.mark.parametrize("mutate,match", [
    (lambda t: t.pop("topology"), "missing required field"),
    (lambda t: t.__setitem__("policy", "greedy"), "unknown policy"),
    (lambda t: t.__setitem__("time_limit_ms", 0), "must be positive"),
    (lambda t: t["experiment"].__setitem__("kind", "stress"), "unknown kind"),
    (lambda t: t["topology"].__setitem__("hosts", []), "at least one host"),
    (lambda t: t["topology"]["hosts"].append({"host": "10.0.0.1", "class": "desktop"}),
     "duplicate host"),
    (lambda t: t["topology"]["hosts"].append({"host": "10.0.0.3", "class": "mainframe"}),
     "mainframe"),
    (lambda t: t["topology"].__setitem__(
        "links", [{"a": "10.0.0.1", "b": "ghost", "latency_ms": 1.0, "data_rate_bps": 1e6}]),
     "unknown host"),
    (lambda t: t["topology"].__setitem__(
        "links", [{"a": "10.0.0.2", "b": "10.0.0.2", "latency_ms": 1.0, "data_rate_bps": 1e6}]),
     r"^topology\.links\[0\]: link from host '10\.0\.0\.2' to itself"),
    (lambda t: t["topology"].__setitem__(
        "links", [{"a": "10.0.0.1", "b": "10.0.0.2", "latency_ms": 35.0, "data_rate_bps": 1e6},
                  {"a": "10.0.0.1", "b": "10.0.0.2", "latency_ms": 99.0, "data_rate_bps": 1e6}]),
     r"^topology\.links\[1\]: second link between '10\.0\.0\.1' and '10\.0\.0\.2'"),
    (lambda t: t["topology"].__setitem__(
        "links", [{"a": "10.0.0.1", "b": "10.0.0.2", "latency_ms": 35.0, "data_rate_bps": 1e6},
                  {"a": "10.0.0.2", "b": "10.0.0.1", "latency_ms": 99.0, "data_rate_bps": 1e6}]),
     r"^topology\.links\[1\]: second link between '10\.0\.0\.2' and '10\.0\.0\.1'"),
    (lambda t: t.update(policy="ohnsga", experiment={"kind": "response"}),
     r"^policy: every response cell sets its own value"),
    (lambda t: t.update(policy="nsga2", experiment={"kind": "convergence"}),
     r"^policy: every convergence cell sets its own value"),
    (lambda t: t.update(scaling_enabled=True, experiment={"kind": "scalability"}),
     r"^scaling_enabled: every scalability cell sets its own value"),
    (lambda t: t["components"].__setitem__("remote_loggers", []), "at least one remote logger"),
    (lambda t: t["components"].__setitem__("masters", []), "at least one master"),
    (lambda t: t["components"].__setitem__("masters", ["10.0.0.9"]), "unknown host"),
    (lambda t: t["components"].__setitem__("actors", ["10.0.0.2", "10.0.0.2"]),
     "already runs an actor"),
    (lambda t: t["components"].__setitem__(
        "actors", [{"host": "10.0.0.2", "masters": ["10.0.0.2"]}]), "runs no master"),
    (lambda t: t["users"][0].__setitem__("app", "Mystery"), "unknown app"),
    (lambda t: t["users"][0].__setitem__("host", "10.9.9.9"), "unknown host"),
    (lambda t: t["users"][0].__setitem__("master", "10.0.0.2"), "runs no master"),
    (lambda t: t["users"][0].__setitem__("start_after_user", 0), "earlier user index"),
    (lambda t: t["users"][0].__setitem__("frame_count", 0), "frame_count"),
    (lambda t: t["users"].__setitem__(0, 5), "expected object"),
    (lambda t: t["users"][0].__setitem__("frame_count", "2"), r"users\[0\]\.frame_count: expected int, not str"),
    (lambda t: t["ga"].__setitem__("pop_size", 0), "pop_size"),
    (lambda t: t["ga"].__setitem__("population", 10), "unknown field"),
    (lambda t: t.__setitem__("scheduler", {"max_cpu_util": 2.0}), "max_cpu_util"),
    (lambda t: t.__setitem__("profile_period_ms", -1), "must be positive"),
    (lambda t: t["users"][0].__setitem__("frame_count", 2.5), r"users\[0\]\.frame_count: expected int"),
    (lambda t: t["ga"].__setitem__("pop_size", 16.5), r"ga\.pop_size: expected int"),
    (lambda t: t["ga"].__setitem__("pop_size", True), r"ga\.pop_size: expected int, not bool"),
    (lambda t: t["users"][0].__setitem__("frame_count", True), r"users\[0\]\.frame_count: expected int, not bool"),
    (lambda t: t.__setitem__("experiment", {"kind": "response", "seeds": "x"}),
     r"experiment\.seeds: expected an int >= 1, got 'x'"),
    (lambda t: t.__setitem__("experiment", {"kind": "response", "seeds": 1.7}),
     r"experiment\.seeds: expected an int >= 1, got 1\.7"),
    (lambda t: t.__setitem__("experiment", {"kind": "convergence", "seeds": True}),
     r"experiment\.seeds: expected an int >= 1, got True"),
    (lambda t: t.__setitem__("experiment", {"kind": "convergence", "compare_iteration": 0}),
     r"experiment\.compare_iteration: expected an int >= 1, got 0"),
    (lambda t: t.__setitem__("experiment", {"kind": "response", "policies": ["bogus"]}),
     r"experiment\.policies: 'bogus' is not one of"),
    (lambda t: t.__setitem__("experiment", {"kind": "convergence", "policies": []}),
     r"experiment\.policies: expected a non-empty list"),
    (lambda t: t.__setitem__("experiment", {"kind": "scalability", "counts": [0]}),
     r"experiment\.counts: 0 is not one of \[1\]"),
    (lambda t: t.__setitem__("experiment", {"kind": "scalability", "counts": [1.0]}),
     r"experiment\.counts: 1\.0 is not one of \[1\]"),
    (lambda t: t.__setitem__("experiment", {"kind": "scalability", "counts": "ab"}),
     r"experiment\.counts: expected a non-empty list, got 'ab'"),
    (lambda t: t.update(users=t["users"] * 2, experiment={"kind": "reuse", "apps": ["NoApp"]}),
     r"experiment\.apps: 'NoApp' is not one of"),
    (lambda t: t.__setitem__("experiment", {"kind": "reuse"}),
     r"users: a reuse experiment needs at least 2 user\(s\), got 1"),
    (lambda t: t.update(users=[], experiment={"kind": "response"}),
     r"users: a response experiment needs at least 1 user\(s\), got 0"),
    (lambda t: t.update(users=[], experiment={"kind": "convergence"}),
     r"users: a convergence experiment needs at least 1 user\(s\), got 0"),
    (lambda t: t.__setitem__("experiment", {"kind": "convergence", "policies": ["nsga2", "nsga2"]}),
     r"experiment\.policies: repeated entry in \['nsga2', 'nsga2'\]"),
    (lambda t: t.update(users=t["users"] * 2, experiment={"kind": "reuse", "apps": ["VOCR", "VOCR"]}),
     r"experiment\.apps: repeated entry"),
    (lambda t: t.__setitem__("experiment", {"kind": "scalability", "counts": [1, 1]}),
     r"experiment\.counts: repeated entry in \[1, 1\]"),
    (lambda t: t.update(users=[], experiment={"kind": "scalability"}),
     r"users: a scalability experiment needs at least 1 user\(s\), got 0"),
    (lambda t: t.__setitem__("seed", True), r"seed: expected int, not bool"),
    (lambda t: t.__setitem__("time_limit_ms", True), r"time_limit_ms: expected float or int, not bool"),
    (lambda t: t["topology"]["hosts"][0].__setitem__("cpu_cores", "4"),
     r"topology\.hosts\[0\]\.cpu_cores: expected int, not str"),
    (lambda t: t["topology"]["hosts"][0].__setitem__("cpu_cores", 2.5),
     r"topology\.hosts\[0\]\.cpu_cores: expected int, not float"),
    (lambda t: t["topology"]["hosts"][0].__setitem__("cpu_cores", 0),
     r"topology\.hosts\[0\]: cpu_cores must be at least 1"),
    (lambda t: t["topology"]["hosts"][0].__setitem__("base_cpu_util", 1.0),
     r"topology\.hosts\[0\]: base_cpu_util must lie in \[0, 1\)"),
    (lambda t: t["topology"]["default_link"].__setitem__("latency_ms", True),
     r"topology\.default_link\.latency_ms: expected float or int, not bool"),
    (lambda t: t["topology"]["default_link"].__setitem__("data_rate_bps", 0),
     r"topology\.default_link: data_rate_bps must be positive"),
    (lambda t: t["topology"]["default_link"].pop("data_rate_bps"),
     r"topology\.default_link\.data_rate_bps: missing required field"),
    (lambda t: t["topology"].__setitem__(
        "links", [{"a": "10.0.0.1", "b": "10.0.0.2", "latency_ms": 1.0, "data_rate_bps": 0}]),
     r"topology\.links\[0\]: data_rate_bps must be positive"),
    (lambda t: t["components"].__setitem__("actors", [{"host": "10.0.0.2", "images": [1]}]),
     r"components\.actors\[0\]\.images: expected str, not int"),
    (lambda t: t["components"].__setitem__("remote_loggers", [["10.0.0.1"]]),
     r"components\.remote_loggers: expected str, not list"),
    (lambda t: t["components"].__setitem__("masters", [["10.0.0.1"]]),
     r"components\.masters: expected str, not list"),
    (lambda t: t.update(discovery={"enabled": True}) or t["topology"]["hosts"][1].update(host="gateway")
     or t["components"].update(actors=["gateway"]),
     r"topology\.hosts\[1\]\.host: discovery needs IPv4 host addresses"),
    (lambda t: t.__setitem__("apps", _custom_app(compute_cost=True)),
     r"apps\.custom\[0\]\.tasks\[0\]\.compute_cost: expected float or int, not bool"),
    (lambda t: t.__setitem__("apps", _custom_app(compute_cost="5")),
     r"apps\.custom\[0\]\.tasks\[0\]\.compute_cost: expected float or int, not str"),
    (lambda t: t.__setitem__("apps", _custom_app(output_size_bytes=10.7)),
     r"apps\.custom\[0\]\.tasks\[0\]\.output_size_bytes: expected int, not float"),
    (lambda t: t.__setitem__("apps", _custom_app(compute_cost=0)),
     r"apps\.custom\[0\]\.tasks\[0\]: task 't' compute_cost must be positive"),
    (lambda t: t.update(apps=_custom_app()) or t["apps"]["custom"][0].update(name=7),
     r"apps\.custom\[0\]\.name: expected str"),
    (lambda t: t.update(apps=_custom_app()) or t["apps"]["custom"][0].update(entry="t"),
     r"apps\.custom\[0\]\.entry: expected list, not str"),
    (lambda t: t.update(apps=_custom_app()) or t["apps"]["custom"][0].update(edges=["tt"]),
     r"apps\.custom\[0\]\.edges\[0\]: expected list, not str"),
    (lambda t: t.update(apps=_custom_app()) or t["apps"]["custom"][0]["tasks"].append(
        {"name": "t", "compute_cost": 2.0, "output_size_bytes": 1}),
     r"apps\.custom\[0\]\.tasks\[1\]\.name: duplicate task 't'"),
    (lambda t: t["ga"].__setitem__("crossover_eta", float("nan")), r"^ga: crossover_eta must be finite"),
    (lambda t: t["ga"].__setitem__("mutation_eta", float("nan")), r"^ga: mutation_eta must be finite"),
    (lambda t: t["ga"].__setitem__("hist_ratio", float("nan")), r"^ga: hist_ratio must be finite"),
    (lambda t: t["ga"].__setitem__("crossover_eta", float("inf")), r"^ga: crossover_eta must be finite"),
    (lambda t: t["ga"].__setitem__("mutation_eta", float("inf")), r"^ga: mutation_eta must be finite"),
    (lambda t: t["ga"].__setitem__("hist_ratio", float("inf")), r"^ga: hist_ratio must be finite"),
])
def test_invalid_scenarios_are_rejected_with_paths(mutate, match):
    reject(mutate, match)


def test_config_error_carries_the_field_path():
    err = reject(lambda t: t["users"][0].__setitem__("app", "Mystery"), "unknown app")
    assert "users[0].app" in str(err)


def _custom_app(**extra_task_keys):
    task = {"name": "t", "compute_cost": 1.0, "output_size_bytes": 10, **extra_task_keys}
    return {"custom": [{"name": "Solo", "tasks": [task], "edges": [], "entry": ["t"], "exit": ["t"]}]}


@pytest.mark.parametrize("mutate,path", [
    (lambda t: t["users"][0].__setitem__("frame_cuont", 2), "users[0].frame_cuont"),
    (lambda t: t.__setitem__("usres", []), "usres"),
    (lambda t: t["topology"].__setitem__("links", [
        {"a": "10.0.0.1", "b": "10.0.0.2", "latency_ms": 1.0, "data_rate_bps": 1e6, "bogus": 1}]),
     "topology.links[0].bogus"),
    (lambda t: t["components"].__setitem__("actors", [{"host": "10.0.0.2", "imgs": ["OCR"]}]),
     "components.actors[0].imgs"),
    (lambda t: t["topology"].__setitem__("link", []), "topology.link"),
    (lambda t: t["topology"]["hosts"][0].__setitem__("cores", 4), "topology.hosts[0].cores"),
    (lambda t: t["topology"]["default_link"].__setitem__("jitter_ms", 1.0), "topology.default_link.jitter_ms"),
    (lambda t: t["components"].__setitem__("loggers", ["10.0.0.1"]), "components.loggers"),
    (lambda t: t.__setitem__("apps", {"customs": []}), "apps.customs"),
    (lambda t: t.__setitem__("apps", dict(_custom_app(), colour="red")), "apps.colour"),
    (lambda t: t.__setitem__("apps", _custom_app(cost=2)), "apps.custom[0].tasks[0].cost"),
    (lambda t: t["ga"].__setitem__("validate", 1), "ga.validate"),
    (lambda t: t["experiment"].__setitem__("seeds", 3), "experiment.seeds"),
    (lambda t: t.__setitem__("experiment", {"kind": "convergence", "counts": [1]}), "experiment.counts"),
    (lambda t: t.__setitem__("experiment", {"kind": "scalability", "seeds": 2}), "experiment.seeds"),
    (lambda t: t.__setitem__("experiment", {"kind": "reuse", "policies": ["random"]}), "experiment.policies"),
    (lambda t: t.__setitem__("experiment", {"kind": "response", "compare_iteration": 5}),
     "experiment.compare_iteration"),
    (lambda t: t.__setitem__("experiment", {"kind": "discovery", "ticks": 3}), "experiment.ticks"),
])
def test_unknown_keys_are_rejected_with_their_field_path(mutate, path):
    err = reject(mutate, "unknown field")
    assert err.path == path


DRIVER_KEYS = {
    "single": {},
    "convergence": {"seeds": 2, "policies": ["random"], "compare_iteration": 5},
    "scalability": {"counts": [1]},
    "reuse": {"apps": ["VOCR"]},
    "response": {"seeds": 2, "policies": ["random"]},
    "discovery": {},
}


def two_user_tree():
    tree = smoke_tree()
    tree["users"] = tree["users"] * 2  # reuse needs a cold and a warm user
    del tree["policy"]  # convergence and response cells each set their own
    return tree


@pytest.mark.parametrize("kind", sorted(DRIVER_KEYS))
def test_each_experiment_kind_takes_the_keys_its_driver_reads(kind):
    tree = two_user_tree()
    tree["experiment"] = {"kind": kind, **DRIVER_KEYS[kind]}
    assert parse_scenario(tree).experiment == tree["experiment"]


def test_experiment_defaults_are_filled_at_parse():
    tree = two_user_tree()
    filled = {}
    for kind in DRIVER_KEYS:
        tree["experiment"] = {"kind": kind}
        filled[kind] = parse_scenario(tree).experiment
    assert filled["convergence"] == {
        "kind": "convergence", "seeds": 20, "policies": ["ohnsga", "nsga2", "random"], "compare_iteration": 10}
    assert filled["response"] == {"kind": "response", "seeds": 20, "policies": ["ohnsga", "nsga2", "random"]}
    assert filled["scalability"] == {"kind": "scalability", "counts": [1, 2]}
    assert filled["reuse"] == {"kind": "reuse", "apps": ["GameOfLife", "VOCR"]}
    assert filled["single"] == {"kind": "single"} and filled["discovery"] == {"kind": "discovery"}


def test_scalability_default_counts_hold_no_repeat():
    tree = smoke_tree()
    tree["experiment"] = {"kind": "scalability"}
    assert parse_scenario(tree).experiment["counts"] == [1]


def test_custom_app_entries_parse():
    tree = smoke_tree()
    tree["apps"] = _custom_app()
    assert parse_scenario(tree).apps["Solo"].task_names() == ["t"]


def test_actor_entries_accept_strings_and_objects():
    tree = smoke_tree()
    tree["components"]["actors"] = [
        {"host": "10.0.0.2", "images": ["OCR"], "masters": ["10.0.0.1"]}]
    config = parse_scenario(tree)
    assert config.actors == (("10.0.0.2", frozenset({"OCR"}), ("10.0.0.1",)),)
    plain = parse_scenario(smoke_tree())
    assert plain.actors == (("10.0.0.2", frozenset({"*"}), ("10.0.0.1",)),)


def test_parsed_config_is_immutable():
    config = load_scenario("smoke")
    for target in (config, config.ga, config.scheduler, config.discovery, config.actor_runtime, config.users[0]):
        with pytest.raises(dataclasses.FrozenInstanceError):
            target.seed = 99
    twin = dataclasses.replace(config, seed=99)
    assert twin.seed == 99 and config.seed == 7
    assert isinstance(config.actors[0][1], frozenset) and isinstance(config.users, tuple)


def _has_wire_rule(hint) -> bool:
    args = typing.get_args(hint)
    if type(None) in args:
        (hint,) = (arg for arg in args if arg is not type(None))
    return hint in protocol._CODECS


def test_every_config_field_has_a_wire_rule_and_every_config_is_frozen(monkeypatch):
    built = set()
    build = scenario._build

    def spy(cls, *args, **kwargs):
        built.add(cls)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(scenario, "_build", spy)
    for name in preset_names():
        load_scenario(name)
    assert {GaParams, SchedulerConfig, DiscoveryConfig, ActorConfig, UserConfig, HostSpec, LinkSpec} <= built
    hints = {cls: typing.get_type_hints(cls) for cls in built | {ScenarioConfig}}
    unruled = [f"{cls.__name__}.{f.name}" for cls in built for f in dataclasses.fields(cls)
               if not _has_wire_rule(hints[cls][f.name])]
    unruled += [f"ScenarioConfig.{key}" for key in scenario.ROOT_SCALARS
                if not _has_wire_rule(hints[ScenarioConfig][key])]
    assert unruled == []
    assert [cls.__name__ for cls in hints if not cls.__dataclass_params__.frozen] == []


# -- running and reporting ---------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_report():
    return conftest.preset_report("smoke")


def test_smoke_run_summary(smoke_report):
    assert smoke_report.kind == "single"
    assert list(smoke_report.summary["outcomes"].values()) == ["Completed"]
    assert smoke_report.summary["mean_response_ms"] > 0
    assert len(smoke_report.requests) == 1
    row = smoke_report.requests[0]
    assert row["outcome"] == "Completed"
    assert row["mean_response_ms"] > 0 and row["sft_ms"] > 0 and row["frames"] == 2


def test_report_files_and_schemas(smoke_report, tmp_path):
    paths = emit_report(smoke_report, str(tmp_path / "out"))
    assert sorted(paths) == sorted(["report.json"] + list(CSV_SCHEMAS))
    tree = json.loads(open(paths["report.json"]).read())
    assert tree["name"] == "smoke"
    assert list(tree["summary"]["outcomes"].values()) == ["Completed"]
    for name, columns in CSV_SCHEMAS.items():
        with open(paths[name], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(columns)


def test_same_seed_reports_are_byte_identical(tmp_path):
    config = load_scenario("smoke")
    a = emit_report(run_scenario(config), str(tmp_path / "a"))
    b = emit_report(run_scenario(config), str(tmp_path / "b"))
    for name in a:
        assert filecmp.cmp(a[name], b[name], shallow=False), name


def test_different_seeds_change_the_run(tmp_path):
    base = load_scenario("smoke")
    r1 = run_scenario(dataclasses.replace(base, seed=1))
    r2 = run_scenario(dataclasses.replace(base, seed=2))
    assert r1.seed != r2.seed
    assert r1.summary["mean_response_ms"] > 0 and r2.summary["mean_response_ms"] > 0


def _fewer_cells(preset):
    tree = preset_tree(preset)
    experiment = tree["experiment"]
    if experiment["kind"] in ("convergence", "response"):
        experiment["seeds"] = 2
    elif experiment["kind"] == "scalability":
        experiment["counts"] = [1, 4]
    return parse_scenario(tree)


@pytest.mark.parametrize("preset", preset_names())
def test_cells_run_in_any_order_and_return_plain_data(preset):
    # The jobs run last to first; folded in cell order, their results make run_scenario's report.
    config = _fewer_cells(preset)
    experiment = EXPERIMENTS[config.experiment["kind"]]
    cells = experiment.cells(config)
    results = [job() for _label, job in reversed(cells)][::-1]
    for result in results:
        pickle.dumps(result)
    report = MetricsReport(name=config.name, kind=config.experiment["kind"], policy=config.policy, seed=config.seed)
    experiment.fold(config, report, [label for label, _job in cells], results)
    assert report.to_tree() == run_scenario(config).to_tree()


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(count)))


def _counting_forks(monkeypatch) -> list:
    """The pids os.fork returns in this process from now on."""
    forked, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forked


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [None, 7, 11])
def test_forked_convergence_matches_the_serial_run(seed, monkeypatch, tmp_path):
    config = load_scenario("convergence")
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    _cpus(monkeypatch, 2)
    forked = _counting_forks(monkeypatch)
    report = run_scenario(config)
    assert len(forked) == 1
    _assert_no_child_left()
    _cpus(monkeypatch, 1)
    serial = run_scenario(config)
    assert len(forked) == 1
    assert report.to_tree() == serial.to_tree()
    a, b = emit_report(report, str(tmp_path / "forked")), emit_report(serial, str(tmp_path / "serial"))
    for name in a:
        assert filecmp.cmp(a[name], b[name], shallow=False), name


def test_forked_jobs_come_back_in_job_order_with_more_cpus_than_jobs(monkeypatch):
    forked = _counting_forks(monkeypatch)
    _cpus(monkeypatch, 8)
    results = runner._run_forked([lambda i=i: (i, os.getpid()) for i in range(3)])
    assert results == [(0, os.getpid()), (1, forked[0]), (2, forked[1])]
    _assert_no_child_left()
    # Three CPUs, seven jobs: this process runs jobs 0, 3 and 6, and child w the jobs w::3.
    _cpus(monkeypatch, 3)
    results = runner._run_forked([lambda i=i: (i, os.getpid()) for i in range(7)])
    assert [i for i, _pid in results] == list(range(7))
    assert [{pid for _i, pid in results[w::3]} for w in range(3)] == [{os.getpid()}, {forked[2]}, {forked[3]}]
    _assert_no_child_left()


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not today")


def _raise(exc):
    raise exc


@pytest.mark.parametrize("exc,expected,match", [
    (ValueError("bad seed 3"), ValueError, "^bad seed 3$"),
    (DeadlockDetected("1 of 1 user(s) unfinished"), DeadlockDetected, r"^1 of 1 user\(s\) unfinished$"),
    (_Unpicklable("boom"), RuntimeError, "^_Unpicklable in a forked child: boom$"),
    # Its two-argument __init__ cannot rebuild it from its message, but fogsim's errors pickle their own way.
    (ConfigError("ga.pop_size", "too small"), ConfigError, "^ga.pop_size: too small$"),
])
def test_a_job_that_raises_in_a_child_raises_in_the_parent_and_leaves_no_child(exc, expected, match, monkeypatch):
    _cpus(monkeypatch, 2)
    forked = _counting_forks(monkeypatch)
    with pytest.raises(expected, match=match):
        runner._run_forked([lambda: 0, lambda: _raise(exc), lambda: 2])
    assert len(forked) == 1
    _assert_no_child_left()


def test_a_job_that_raises_in_the_parent_leaves_no_child(monkeypatch):
    _cpus(monkeypatch, 3)
    forked = _counting_forks(monkeypatch)
    big = list(range(100_000))  # more than a pipe holds, so the child is still writing
    with pytest.raises(KeyError):
        runner._run_forked([lambda: _raise(KeyError("mine")), lambda: big, lambda: big])
    assert len(forked) == 2
    _assert_no_child_left()
    assert runner._run_forked([lambda: 0, lambda: big, lambda: big])[1:] == [big, big]
    _assert_no_child_left()


def test_importing_fogsim_loads_no_process_pool_and_starts_no_thread():
    code = (
        "import sys, threading, fogsim; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent'))); "
        "print(threading.active_count())"
    )
    assert conftest.fresh_python(code) == ["[]", "1"]


def test_a_simulated_run_loads_no_socket_csv_or_pickle_before_its_first_event():
    code = textwrap.dedent("""
        import sys
        import fogsim
        from fogsim import Runtime, parse_scenario, preset_tree

        Runtime(parse_scenario(preset_tree("smoke")))
        print(sorted(m for m in ("socket", "fogsim.tcpnet", "fogsim.report", "csv", "pickle") if m in sys.modules))
        print(fogsim.RealtimeKernel is fogsim.tcpnet.RealtimeKernel, fogsim.emit_report is fogsim.report.emit_report)
        star = {}
        exec("from fogsim import *", star)
        print(sorted(set(fogsim.__all__) - set(star)))
        try:
            fogsim.no_such_name
        except AttributeError as exc:
            print("AttributeError", exc)
    """)
    assert conftest.fresh_python(code) == [
        "[]", "True True", "[]", "AttributeError module 'fogsim' has no attribute 'no_such_name'",
    ]


def test_numpy_loads_at_the_first_search_not_at_import_parse_or_build():
    code = textwrap.dedent("""
        import sys
        import fogsim
        from fogsim import Runtime, parse_scenario, preset_tree, run_scenario

        def loaded():
            print("numpy._core" in sys.modules)

        loaded()
        Runtime(parse_scenario(preset_tree("smoke")))
        loaded()
        run_scenario(parse_scenario(preset_tree("discovery")))
        loaded()
        run_scenario(parse_scenario(preset_tree("smoke")))
        loaded()
        print(type(fogsim.ga_policies.np).__name__, fogsim.ga_policies.np is sys.modules["numpy"])
    """)
    assert conftest.fresh_python(code) == ["False", "False", "False", "True", "module True"]


_BLOCK_NUMPY_FINDER = """
class Blocked:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, Blocked())
"""


@pytest.mark.parametrize("block,flags", [
    (_BLOCK_NUMPY_FINDER, ()),
    ("sys.modules['numpy'] = None", ()),
    ("", ("-S",)),  # no site-packages, so no finder finds numpy
], ids=["finder-raises", "none-in-sys-modules", "not-on-path"])
def test_importing_fogsim_without_numpy_fails_at_import(block, flags):
    code = "import sys\n" + block + textwrap.dedent("""
        try:
            import fogsim
        except ModuleNotFoundError as exc:
            print("ModuleNotFoundError", exc.name)
        else:
            print("imported")
    """)
    assert conftest.fresh_python(code, *flags) == ["ModuleNotFoundError numpy"]


# -- cli ---------------------------------------------------------------------------


def test_cli_runs_a_preset(tmp_path, capsys):
    assert main(["run", "smoke", "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "scenario smoke" in out and "report.json" in out
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_overrides(tmp_path, capsys):
    code = main(["run", "smoke", "--seed", "21", "--policy", "random",
                 "--no-scaling", "--out", str(tmp_path / "out")])
    assert code == 0
    tree = json.loads((tmp_path / "out" / "report.json").read_text())
    assert tree["seed"] == 21 and tree["policy"] == "random"


@pytest.mark.parametrize("preset,flags,field", [
    ("response", ["--policy", "random"], "policy"),
    ("convergence", ["--policy", "nsga2"], "policy"),
    ("scalability", ["--no-scaling"], "scaling_enabled"),
])
def test_cli_rejects_an_override_that_every_cell_replaces(preset, flags, field, tmp_path, capsys):
    assert main(["run", preset, *flags, "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_config_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    tree = smoke_tree()
    tree["policy"] = "greedy"
    bad.write_text(json.dumps(tree))
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_wedged_run_exits_3(tmp_path, capsys):
    tree = smoke_tree()
    tree["time_limit_ms"] = 200.0  # user still mid-request at the horizon
    wedged = tmp_path / "wedged.json"
    wedged.write_text(json.dumps(tree))
    assert main(["run", str(wedged), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "run wedged" in err
