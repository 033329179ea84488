"""Declarative scenario configuration.

A scenario is a JSON document describing the virtual deployment: hosts and
links, which hosts run masters, actors, and remote loggers, the applications,
the users, the experiment, and every tunable knob; each built-in preset is
one, packaged as ``presets/<name>.json``. Every config object, hosts and
links included, is built by one rule (``_build``): unknown keys are
rejected, each value is checked against its field's annotated type by the
wire codec's rule, then the object is validated. Validation failures raise
ConfigError carrying the path of the offending field, e.g.
``users[2].frame_count``. A parsed scenario is an immutable value; derive a
variant with ``dataclasses.replace``.
"""
from __future__ import annotations

import functools
import importlib.resources
import ipaddress
import json
import os
import pathlib
import typing
from dataclasses import MISSING, dataclass, fields

from .actor_runtime import ActorConfig
from .discovery import DiscoveryConfig
from .errors import ConfigError, CyclicDependency
from .ga_policies import POLICIES, GaParams
from .netsim import DEFAULT_LINK, HOST_CLASSES, HostSpec, LinkSpec, Topology
from .protocol import MASTER_PORT, Address, check_value
from .scheduler import SchedulerConfig
from .taskgraph import AppSpec, TaskSpec, builtin_apps
from .telemetry import PROFILE_PERIOD_MS
from .user_sim import UserConfig

__all__ = ["ScenarioConfig", "parse_scenario", "read_scenario", "load_scenario", "preset_names", "preset_tree"]

ROOT_KEYS = (
    "name", "seed", "experiment", "policy", "scaling_enabled", "time_limit_ms", "topology", "apps",
    "components", "users", "ga", "scheduler", "discovery", "actor_runtime", "profile_period_ms",
)
# Experiment kind -> the keys its cells and fold read besides "kind".
EXPERIMENT_KEYS = {
    "single": (), "convergence": ("seeds", "policies", "compare_iteration"), "scalability": ("counts",),
    "reuse": ("apps",), "response": ("seeds", "policies"), "discovery": (),
}
# Experiment kind -> the root keys every one of its cells sets itself, so a scenario may not.
CELL_KEYS = {"convergence": ("policy",), "scalability": ("scaling_enabled",), "response": ("policy",)}
# Root scalar -> its default; each is checked against ScenarioConfig's annotation.
ROOT_SCALARS = {
    "name": "scenario", "seed": 0, "policy": "ohnsga", "scaling_enabled": True,
    "time_limit_ms": 600000.0, "profile_period_ms": PROFILE_PERIOD_MS,
}
_PRESETS = importlib.resources.files(__package__) / "presets"


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario: the experiment, topology, deployment, apps, users and every component's settings."""

    name: str
    seed: int
    experiment: dict
    policy: str
    scaling_enabled: bool
    time_limit_ms: float
    topology: Topology
    loggers: tuple[str, ...]
    masters: tuple[str, ...]
    actors: tuple[tuple[str, frozenset, tuple], ...]  # (host, images, initial master hosts)
    apps: dict[str, AppSpec]
    users: tuple[UserConfig, ...]
    ga: GaParams
    scheduler: SchedulerConfig
    discovery: DiscoveryConfig
    actor_runtime: ActorConfig
    profile_period_ms: float = PROFILE_PERIOD_MS


def _need(tree: dict, key: str, path: str, kind: type):
    """The tree's value at key, which must be present and a kind (a str, or a list or dict the caller walks)."""
    if key not in tree:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    value = tree[key]
    if not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}" if path else key, f"expected {kind.__name__}")
    return value


def _opt(tree: dict, key: str, default, path: str, kind: type):
    if key not in tree:
        return default
    return _need(tree, key, path, kind)


def _object(tree, path: str, keys) -> dict:
    """The subtree as a config object: a dict whose every key is one of keys."""
    if not isinstance(tree, dict):
        raise ConfigError(path, "expected object")
    for key in tree:
        if key not in keys:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")
    return tree


_type_hints = functools.cache(typing.get_type_hints)


def _checked(hint, value, path: str):
    """The value, if it has the annotated type by the wire codec's rule (so ``true`` is no int, ``2.5`` no count)."""
    try:
        check_value(hint, value)
    except TypeError as exc:
        raise ConfigError(path, str(exc)) from exc
    return value


def _build(cls, tree, path: str, ends=(), base=(), **given):
    """The frozen config object cls built from the object tree at path, by the parser's one rule.

    In order: a key that is no field of cls (nor one of ends, keys the
    caller reads itself) is an unknown field; each field value must have its
    annotated type (``_checked``); a required field must be present; then
    the object is built and validated. base holds defaults that replace the
    class's own (a host class); given holds fields the caller derived from
    the tree (a user's master address), taken in place of the tree's values.
    """
    hints = _type_hints(cls)
    values = dict(base)
    for key, value in _object(tree, path, hints.keys() | set(ends)).items():
        if key in hints and key not in given:
            values[key] = _checked(hints[key], value, f"{path}.{key}")
    values.update(given)
    for f in fields(cls):
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}.{f.name}", "missing required field")
    built = cls(**values)
    try:
        built.validate()
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    return built


def _parse_topology(tree: dict, path: str) -> Topology:
    _object(tree, path, ("hosts", "default_link", "links"))
    hosts_tree = _need(tree, "hosts", path, list)
    if not hosts_tree:
        raise ConfigError(f"{path}.hosts", "at least one host required")
    specs: dict[str, HostSpec] = {}
    for i, entry in enumerate(hosts_tree):
        hpath = f"{path}.hosts[{i}]"
        klass = _opt(_object(entry, hpath, {"class", *_type_hints(HostSpec)}), "class", None, hpath, str)
        if klass is not None and klass not in HOST_CLASSES:
            raise ConfigError(f"{hpath}.class", f"unknown host class {klass!r}; choices: {sorted(HOST_CLASSES)}")
        spec = _build(HostSpec, entry, hpath, ends=("class",), base=HOST_CLASSES.get(klass, ()))
        if spec.host in specs:
            raise ConfigError(hpath, f"duplicate host {spec.host!r}")
        specs[spec.host] = spec
    default = DEFAULT_LINK
    if "default_link" in tree:
        default = _build(LinkSpec, tree["default_link"], f"{path}.default_link")
    links: dict[tuple, LinkSpec] = {}
    for i, entry in enumerate(_opt(tree, "links", [], path, list)):
        lpath = f"{path}.links[{i}]"
        link = _build(LinkSpec, entry, lpath, ends=("a", "b"))
        a = _need(entry, "a", lpath, str)
        b = _need(entry, "b", lpath, str)
        for end in (a, b):
            if end not in specs:
                raise ConfigError(lpath, f"unknown host {end!r}")
        if a == b:
            raise ConfigError(lpath, f"link from host {a!r} to itself")
        if (a, b) in links or (b, a) in links:
            raise ConfigError(lpath, f"second link between {a!r} and {b!r}")
        links[(a, b)] = link
    return Topology(list(specs.values()), links=links, default_link=default)


def _parse_apps(tree: dict, path: str) -> dict[str, AppSpec]:
    apps = dict(builtin_apps())
    for i, entry in enumerate(_opt(_object(tree, path, ("custom",)), "custom", [], path, list)):
        apath = f"{path}.custom[{i}]"
        _object(entry, apath, ("name", "tasks", "edges", "entry", "exit"))
        name = _need(entry, "name", apath, str)
        tasks: dict[str, TaskSpec] = {}
        for j, task_tree in enumerate(_opt(entry, "tasks", [], apath, list)):
            task = _build(TaskSpec, task_tree, f"{apath}.tasks[{j}]")
            if task.name in tasks:
                raise ConfigError(f"{apath}.tasks[{j}].name", f"duplicate task {task.name!r}")
            tasks[task.name] = task
        edges = []
        for j, edge in enumerate(_opt(entry, "edges", [], apath, list)):
            if len(_checked(list[str], edge, f"{apath}.edges[{j}]")) != 2:
                raise ConfigError(f"{apath}.edges[{j}]", "expected a [parent, child] pair")
            edges.append(tuple(edge))
        entry_tasks = _checked(list[str], entry.get("entry", []), f"{apath}.entry")
        exit_tasks = _checked(list[str], entry.get("exit", []), f"{apath}.exit")
        try:
            apps[name] = AppSpec(name, tasks, edges, list(entry_tasks), list(exit_tasks))
        except (ValueError, CyclicDependency) as exc:
            raise ConfigError(apath, str(exc)) from exc
    return apps


def _parse_users(tree_list: list, path: str, apps: dict, specs: dict, masters: tuple) -> tuple[UserConfig, ...]:
    users = []
    for i, entry in enumerate(tree_list):
        upath = f"{path}[{i}]"
        master_host = _opt(_object(entry, upath, _type_hints(UserConfig)), "master", masters[0], upath, str)
        if master_host not in masters:
            raise ConfigError(f"{upath}.master", f"host {master_host!r} runs no master")
        user = _build(UserConfig, entry, upath, master=Address(master_host, MASTER_PORT))
        if user.host not in specs:
            raise ConfigError(f"{upath}.host", f"unknown host {user.host!r}")
        if user.app not in apps:
            raise ConfigError(f"{upath}.app", f"unknown app {user.app!r}")
        after = user.start_after_user
        if after is not None and not 0 <= after < i:
            raise ConfigError(f"{upath}.start_after_user", "must reference an earlier user index")
        users.append(user)
    return tuple(users)


def _parse_experiment(tree: dict, n_users: int, apps: dict) -> dict:
    """The experiment section with every key its kind's cells and fold read, defaults filled in."""
    kind = _opt(tree, "kind", "single", "experiment", str)
    if kind not in EXPERIMENT_KEYS:
        raise ConfigError("experiment.kind", f"unknown kind {kind!r}; choices: {tuple(EXPERIMENT_KEYS)}")
    _object(tree, "experiment", ("kind",) + EXPERIMENT_KEYS[kind])
    # reuse compares a cold and a warm user; response measures the last user;
    # convergence re-solves the placement of its first (warm-up) user;
    # scalability runs its first `count` users, so its counts depend on them.
    least = {"reuse": 2, "response": 1, "convergence": 1, "scalability": 1}.get(kind, 0)
    if n_users < least:
        raise ConfigError("users", f"a {kind} experiment needs at least {least} user(s), got {n_users}")
    defaults = {
        "seeds": 20, "compare_iteration": 10, "policies": ["ohnsga", "nsga2", "random"],
        "apps": ["GameOfLife", "VOCR"], "counts": sorted({1, n_users}),
    }
    # List key -> (item type, the items it may hold).
    lists = {"policies": (str, POLICIES), "apps": (str, apps), "counts": (int, range(1, n_users + 1))}
    experiment = {"kind": kind}
    for key in EXPERIMENT_KEYS[kind]:
        path = f"experiment.{key}"
        value = tree.get(key, defaults[key])
        if key not in lists:
            if type(value) is not int or value < 1:
                raise ConfigError(path, f"expected an int >= 1, got {value!r}")
        else:
            if not isinstance(value, list) or not value:
                raise ConfigError(path, f"expected a non-empty list, got {value!r}")
            item_type, allowed = lists[key]
            for item in value:
                if type(item) is not item_type or item not in allowed:
                    raise ConfigError(path, f"{item!r} is not one of {sorted(allowed)}")
            if len(set(value)) != len(value):
                raise ConfigError(path, f"repeated entry in {value!r}")
        experiment[key] = value
    return experiment


def parse_scenario(tree: dict) -> ScenarioConfig:
    if not isinstance(tree, dict):
        raise ConfigError("", "scenario root must be an object")
    _object(tree, "", ROOT_KEYS)
    hints = _type_hints(ScenarioConfig)
    scalars = {key: _checked(hints[key], tree.get(key, default), key) for key, default in ROOT_SCALARS.items()}
    if scalars["policy"] not in POLICIES:
        raise ConfigError("policy", f"unknown policy {scalars['policy']!r}; choices: {sorted(POLICIES)}")
    for key in ("time_limit_ms", "profile_period_ms"):
        if not scalars[key] > 0:
            raise ConfigError(key, "must be positive")
        scalars[key] = float(scalars[key])

    topology = _parse_topology(_need(tree, "topology", "", dict), "topology")
    specs = topology.hosts
    apps = _parse_apps(_opt(tree, "apps", {}, "", dict), "apps")

    components = _object(_need(tree, "components", "", dict), "components", ("remote_loggers", "masters", "actors"))
    loggers = tuple(_checked(list[str], components.get("remote_loggers", []), "components.remote_loggers"))
    if not loggers:
        raise ConfigError("components.remote_loggers", "at least one remote logger required")
    masters = tuple(_checked(list[str], _need(components, "masters", "components", list), "components.masters"))
    if not masters:
        raise ConfigError("components.masters", "at least one master required")
    for group, hosts in (("remote_loggers", loggers), ("masters", masters)):
        for host in hosts:
            if host not in specs:
                raise ConfigError(f"components.{group}", f"unknown host {host!r}")
        if len(set(hosts)) != len(hosts):
            raise ConfigError(f"components.{group}", "duplicate hosts")

    actors = []
    seen_actor_hosts = set()
    for i, entry in enumerate(_opt(components, "actors", [], "components", list)):
        apath = f"components.actors[{i}]"
        if isinstance(entry, str):
            host, images, initial = entry, frozenset({"*"}), masters
        elif isinstance(entry, dict):
            _object(entry, apath, ("host", "images", "masters"))
            host = _need(entry, "host", apath, str)
            images = frozenset(_checked(list[str], entry.get("images", ["*"]), f"{apath}.images"))
            initial = tuple(_opt(entry, "masters", masters, apath, list))
            for m in initial:
                if m not in masters:
                    raise ConfigError(f"{apath}.masters", f"host {m!r} runs no master")
        else:
            raise ConfigError(apath, "expected host string or object")
        if host not in specs:
            raise ConfigError(apath, f"unknown host {host!r}")
        if host in seen_actor_hosts:
            raise ConfigError(apath, f"host {host!r} already runs an actor")
        seen_actor_hosts.add(host)
        actors.append((host, images, initial))

    users = _parse_users(_opt(tree, "users", [], "", list), "users", apps, specs, masters)
    experiment = _parse_experiment(_opt(tree, "experiment", {}, "", dict), len(users), apps)
    kind = experiment["kind"]
    for key in CELL_KEYS.get(kind, ()):
        if key in tree:
            raise ConfigError(key, f"every {kind} cell sets its own value, so this one would be discarded")
    discovery = _build(DiscoveryConfig, tree.get("discovery", {}), "discovery")
    if discovery.enabled:
        for i, host in enumerate(specs):
            try:
                ipaddress.IPv4Address(host)
            except ValueError:
                raise ConfigError(f"topology.hosts[{i}].host", "discovery needs IPv4 host addresses") from None

    return ScenarioConfig(
        **scalars,
        experiment=experiment,
        topology=topology,
        loggers=loggers,
        masters=masters,
        actors=tuple(actors),
        apps=apps,
        users=users,
        ga=_build(GaParams, tree.get("ga", {}), "ga"),
        scheduler=_build(SchedulerConfig, tree.get("scheduler", {}), "scheduler"),
        discovery=discovery,
        actor_runtime=_build(ActorConfig, tree.get("actor_runtime", {}), "actor_runtime"),
    )


def preset_names() -> list[str]:
    return sorted(entry.name.removesuffix(".json") for entry in _PRESETS.iterdir() if entry.name.endswith(".json"))


def preset_tree(name: str) -> dict:
    """A fresh tree of the named preset, parsed from its packaged file on every call."""
    return json.loads((_PRESETS / f"{name}.json").read_text(encoding="utf-8"))


def read_scenario(ref: str) -> dict:
    """The tree of a scenario from a JSON file path or a built-in preset name; a file takes precedence."""
    if os.path.isfile(ref):
        source = pathlib.Path(ref)
    elif ref in preset_names():
        source = _PRESETS / f"{ref}.json"
    else:
        raise ConfigError("scenario", f"{ref!r} is neither a file nor a preset; presets: {preset_names()}")
    try:
        tree = json.loads(source.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(ref, f"not valid JSON: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError(ref, "scenario root must be an object")
    return tree


def load_scenario(ref: str) -> ScenarioConfig:
    """The parsed scenario of a JSON file path or a built-in preset name."""
    return parse_scenario(read_scenario(ref))
