"""Declarative scenario configuration.

A scenario is a JSON document describing the virtual deployment: hosts and
links, which hosts run masters, actors, and remote loggers, the applications,
the users, the experiment, and every tunable knob; each built-in preset is
one, packaged as ``presets/<name>.json``. Validation failures raise
ConfigError carrying the path of the offending field, e.g. ``users[2].frame_count``.
"""
from __future__ import annotations

import functools
import importlib.resources
import json
import os
import pathlib
import typing
from dataclasses import dataclass, fields, replace

from .actor_runtime import ActorConfig
from .discovery import DiscoveryConfig
from .errors import ConfigError
from .ga_policies import POLICIES, GaParams
from .netsim import DEFAULT_LINK, HostSpec, LinkSpec, Topology, host_from_class
from .protocol import MASTER_PORT, Address, check_value
from .scheduler import SchedulerConfig
from .taskgraph import AppSpec, app_from_config, builtin_apps
from .telemetry import PROFILE_PERIOD_MS
from .user_sim import UserConfig

__all__ = ["ScenarioConfig", "parse_scenario", "load_scenario", "preset_names", "preset_tree"]

ROOT_KEYS = (
    "name", "seed", "experiment", "policy", "scaling_enabled", "time_limit_ms", "topology", "apps",
    "components", "users", "ga", "scheduler", "discovery", "actor_runtime", "profile_period_ms",
)
# Experiment kind -> the keys its driver reads besides "kind".
EXPERIMENT_KEYS = {
    "single": (), "convergence": ("seeds", "policies", "compare_iteration"), "scalability": ("counts",),
    "reuse": ("apps",), "response": ("seeds", "policies"), "discovery": (),
}
_PRESETS = importlib.resources.files(__package__) / "presets"


@dataclass
class ScenarioConfig:
    name: str
    seed: int
    experiment: dict
    policy: str
    scaling_enabled: bool
    time_limit_ms: float
    topology: Topology
    host_specs: dict[str, HostSpec]
    loggers: list[str]
    masters: list[str]
    actors: list[tuple[str, set, list]]  # (host, image set, initial master hosts)
    apps: dict[str, AppSpec]
    users: list[UserConfig]
    ga: GaParams
    scheduler: SchedulerConfig
    discovery: DiscoveryConfig
    actor_runtime: ActorConfig
    profile_period_ms: float = PROFILE_PERIOD_MS

    def clone(self, **overrides) -> "ScenarioConfig":
        """Independent copy with shallow overrides; list fields are re-listed."""
        fresh = replace(self)
        fresh.loggers = list(self.loggers)
        fresh.masters = list(self.masters)
        fresh.actors = [(host, set(images), list(masters)) for host, images, masters in self.actors]
        fresh.users = list(self.users)
        fresh.experiment = dict(self.experiment)
        fresh.discovery = replace(self.discovery)
        fresh.ga = replace(self.ga)
        fresh.scheduler = replace(self.scheduler)
        fresh.actor_runtime = replace(self.actor_runtime)
        for key, value in overrides.items():
            setattr(fresh, key, value)
        return fresh


def _need(tree: dict, key: str, path: str, kind=None):
    if key not in tree:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    value = tree[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"{path}.{key}" if path else key, f"expected {getattr(kind, '__name__', kind)}")
    return value


def _opt(tree: dict, key: str, default, path: str, kind=None):
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


def _fill(target, tree: dict, path: str, skip=()):
    """Copy the fields of a config object onto a dataclass (but those in skip), then validate it.

    Each copied value must also have its field's annotated type, by the
    rule the wire codec applies (so ``true`` is no int and ``2.5`` no count).
    """
    copied = {k: v for k, v in _object(tree, path, {f.name for f in fields(target)}).items() if k not in skip}
    for key, value in copied.items():
        setattr(target, key, value)
    try:
        target.validate()
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc
    hints = _type_hints(type(target))
    for key, value in copied.items():
        try:
            check_value(hints[key], value)
        except TypeError as exc:
            raise ConfigError(f"{path}.{key}", str(exc)) from exc
    return target


def _link(tree: dict, path: str, ends=()) -> LinkSpec:
    keys = ("latency_ms", "data_rate_bps")
    _object(tree, path, keys + ends)
    return LinkSpec(*(_need(tree, key, path, (int, float)) for key in keys))


def _parse_topology(tree: dict, path: str):
    _object(tree, path, ("hosts", "default_link", "links"))
    hosts_tree = _need(tree, "hosts", path, list)
    if not hosts_tree:
        raise ConfigError(f"{path}.hosts", "at least one host required")
    specs: dict[str, HostSpec] = {}
    for i, entry in enumerate(hosts_tree):
        hpath = f"{path}.hosts[{i}]"
        _object(entry, hpath, {"class", *(f.name for f in fields(HostSpec))})
        host = _need(entry, "host", hpath, str)
        if host in specs:
            raise ConfigError(hpath, f"duplicate host {host!r}")
        overrides = {k: v for k, v in entry.items() if k not in ("host", "class")}
        try:
            if "class" in entry:
                specs[host] = host_from_class(host, entry["class"], **overrides)
            else:
                specs[host] = HostSpec(host=host, **overrides)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(hpath, str(exc)) from exc
    default_tree = _opt(tree, "default_link", None, path, dict)
    default = DEFAULT_LINK if default_tree is None else _link(default_tree, f"{path}.default_link")
    links: dict[tuple, LinkSpec] = {}
    for i, entry in enumerate(_opt(tree, "links", [], path, list)):
        lpath = f"{path}.links[{i}]"
        link = _link(entry, lpath, ("a", "b"))
        a = _need(entry, "a", lpath, str)
        b = _need(entry, "b", lpath, str)
        for end in (a, b):
            if end not in specs:
                raise ConfigError(lpath, f"unknown host {end!r}")
        links[(a, b)] = link
    topology = Topology(list(specs.values()), links=links, default_link=default)
    return topology, specs


def _parse_apps(tree: dict, path: str) -> dict[str, AppSpec]:
    apps = dict(builtin_apps())
    _object(tree, path, ("custom",))
    for i, entry in enumerate(_opt(tree, "custom", [], path, list)):
        apath = f"{path}.custom[{i}]"
        _object(entry, apath, ("name", "tasks", "edges", "entry", "exit"))
        for j, task in enumerate(_opt(entry, "tasks", [], apath, list)):
            _object(task, f"{apath}.tasks[{j}]", ("name", "compute_cost", "output_size_bytes"))
        try:
            app = app_from_config(entry)
        except Exception as exc:
            raise ConfigError(apath, str(exc)) from exc
        apps[app.name] = app
    return apps


def _parse_users(tree_list: list, path: str, apps: dict, specs: dict, masters: list) -> list[UserConfig]:
    users = []
    for i, entry in enumerate(tree_list):
        upath = f"{path}[{i}]"
        _object(entry, upath, {f.name for f in fields(UserConfig)})
        host = _need(entry, "host", upath, str)
        if host not in specs:
            raise ConfigError(f"{upath}.host", f"unknown host {host!r}")
        app = _need(entry, "app", upath, str)
        if app not in apps:
            raise ConfigError(f"{upath}.app", f"unknown app {app!r}")
        master_host = _opt(entry, "master", masters[0], upath, str)
        if master_host not in masters:
            raise ConfigError(f"{upath}.master", f"host {master_host!r} runs no master")
        cfg = UserConfig(host=host, app=app, master=Address(master_host, MASTER_PORT))
        users.append(_fill(cfg, entry, upath, skip=("host", "app", "master")))
        after = cfg.start_after_user
        if after is not None and not 0 <= after < i:
            raise ConfigError(f"{upath}.start_after_user", "must reference an earlier user index")
    return users


def _parse_experiment(tree: dict, n_users: int, apps: dict) -> dict:
    """The experiment section with every key its kind's driver reads, defaults filled in."""
    kind = _opt(tree, "kind", "single", "experiment", str)
    if kind not in EXPERIMENT_KEYS:
        raise ConfigError("experiment.kind", f"unknown kind {kind!r}; choices: {tuple(EXPERIMENT_KEYS)}")
    _object(tree, "experiment", ("kind",) + EXPERIMENT_KEYS[kind])
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
    # reuse compares a cold and a warm user; response measures the last user;
    # convergence re-solves the placement of its first (warm-up) user.
    least = {"reuse": 2, "response": 1, "convergence": 1}.get(kind, 0)
    if n_users < least:
        raise ConfigError("users", f"a {kind} experiment needs at least {least} user(s), got {n_users}")
    return experiment


def parse_scenario(tree: dict) -> ScenarioConfig:
    if not isinstance(tree, dict):
        raise ConfigError("", "scenario root must be an object")
    _object(tree, "", ROOT_KEYS)
    name = _opt(tree, "name", "scenario", "", str)
    seed = _opt(tree, "seed", 0, "", int)
    policy = _opt(tree, "policy", "ohnsga", "", str)
    if policy not in POLICIES:
        raise ConfigError("policy", f"unknown policy {policy!r}; choices: {sorted(POLICIES)}")
    scaling = _opt(tree, "scaling_enabled", True, "", bool)
    time_limit = _opt(tree, "time_limit_ms", 600000.0, "", (int, float))
    if time_limit <= 0:
        raise ConfigError("time_limit_ms", "must be positive")

    topology, specs = _parse_topology(_need(tree, "topology", "", dict), "topology")
    apps = _parse_apps(_opt(tree, "apps", {}, "", dict), "apps")

    components = _object(_need(tree, "components", "", dict), "components", ("remote_loggers", "masters", "actors"))
    loggers = _opt(components, "remote_loggers", [], "components", list)
    if not loggers:
        raise ConfigError("components.remote_loggers", "at least one remote logger required")
    masters = _need(components, "masters", "components", list)
    if not masters:
        raise ConfigError("components.masters", "at least one master required")
    for group, hosts in (("remote_loggers", loggers), ("masters", masters)):
        for host in hosts:
            if host not in specs:
                raise ConfigError(f"components.{group}", f"unknown host {host!r}")
        if len(set(hosts)) != len(hosts):
            raise ConfigError(f"components.{group}", "duplicate hosts")

    actors: list[tuple[str, set, list]] = []
    seen_actor_hosts = set()
    for i, entry in enumerate(_opt(components, "actors", [], "components", list)):
        apath = f"components.actors[{i}]"
        if isinstance(entry, str):
            host, images, initial = entry, {"*"}, list(masters)
        elif isinstance(entry, dict):
            _object(entry, apath, ("host", "images", "masters"))
            host = _need(entry, "host", apath, str)
            images = set(_opt(entry, "images", ["*"], apath, list))
            initial = _opt(entry, "masters", list(masters), apath, list)
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

    period = _opt(tree, "profile_period_ms", PROFILE_PERIOD_MS, "", (int, float))
    if period <= 0:
        raise ConfigError("profile_period_ms", "must be positive")

    return ScenarioConfig(
        name=name,
        seed=seed,
        experiment=experiment,
        policy=policy,
        scaling_enabled=scaling,
        time_limit_ms=float(time_limit),
        topology=topology,
        host_specs=specs,
        loggers=list(loggers),
        masters=list(masters),
        actors=actors,
        apps=apps,
        users=users,
        ga=_fill(GaParams(), _opt(tree, "ga", {}, "", dict), "ga"),
        scheduler=_fill(SchedulerConfig(), _opt(tree, "scheduler", {}, "", dict), "scheduler"),
        discovery=_fill(DiscoveryConfig(), _opt(tree, "discovery", {}, "", dict), "discovery"),
        actor_runtime=_fill(ActorConfig(), _opt(tree, "actor_runtime", {}, "", dict), "actor_runtime"),
        profile_period_ms=float(period),
    )


def preset_names() -> list[str]:
    return sorted(entry.name.removesuffix(".json") for entry in _PRESETS.iterdir() if entry.name.endswith(".json"))


def preset_tree(name: str) -> dict:
    """A fresh tree of the named preset, parsed from its packaged file on every call."""
    return json.loads((_PRESETS / f"{name}.json").read_text(encoding="utf-8"))


def load_scenario(ref: str) -> ScenarioConfig:
    """Load a scenario from a JSON file path or a built-in preset name; a file takes precedence."""
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
    return parse_scenario(tree)
