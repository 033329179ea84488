"""The per-layer entry points that outside timers wrap are reached through their owners.

A layer timer replaces an entry point by assigning to the attribute that
fogsim looks up when it calls it: a module attribute, a class attribute or a
``POLICIES`` entry.  A caller that bound the function by name instead (say
``from .protocol import message_wire_bytes``) would bypass the replacement
and read zero for that layer, so this runs the smoke preset with every entry
point replaced by a counting wrapper and requires each one to be called.
"""
from collections import Counter

from fogsim import ga_policies, netsim, protocol, scheduler, telemetry
from fogsim.runner import run_scenario
from fogsim.scenario import parse_scenario, preset_tree

ENTRY_POINTS = [
    (protocol, "message_wire_bytes"),
    (scheduler.ResponseModel, "estimate"),
    (telemetry.LogStore, "ingest"),
    (telemetry.LogStore, "snapshot"),
    (netsim.SimKernel, "run"),
    (netsim.SimKernel, "schedule_at"),
    (netsim.HostCompute, "utilization"),
]


def test_smoke_run_calls_every_wrapped_entry_point(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    expected = []
    for owner, attr in ENTRY_POINTS:
        name = f"{owner.__name__}.{attr}"
        # vars(), not getattr(): the entry point must be defined on this owner.
        monkeypatch.setattr(owner, attr, counted(name, vars(owner)[attr]))
        expected.append(name)
    tree = preset_tree("smoke")
    for policy, solve in list(ga_policies.POLICIES.items()):
        monkeypatch.setitem(ga_policies.POLICIES, policy, counted(f"POLICIES[{policy}]", solve))
    expected.append(f"POLICIES[{tree['policy']}]")

    report = run_scenario(parse_scenario(tree))

    assert list(report.summary["outcomes"].values()) == ["Completed"]
    assert [name for name in expected if calls[name] == 0] == []
