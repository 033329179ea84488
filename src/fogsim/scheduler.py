"""Placement scheduling: candidate maps, the response estimator, GA glue.

The response model here is the single source of truth for end-to-end timing.
A frame travels user -> master -> entry executors, flows down the task DAG
(an edge between co-located tasks is free), and results return exit ->
master -> user.  Node cost is compute_cost divided by the profiled host rate;
edge cost is the topology link's latency plus whole-frame transmission time.
The simulator enacts exactly these hops through the same formula,
`LinkSpec.transfer_ms`, so measured response times match estimates by
construction.

A `ResponseModel` tabulates those costs per placement request: node costs
from the master's current profiles, and hop tables taken from the topology,
which builds each one once per (source hosts, destination hosts, frame
bytes) and shares it with every later request.  Its estimate is the
critical-path recurrence unrolled into straight-line Python,
generated and compiled once per DAG shape and cached, so the many models a
run builds for one app share the code and differ only in the tables bound
into it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .ga_policies import GaParams
from .taskgraph import AppSpec
from .telemetry import TelemetryView


@dataclass(frozen=True)
class SchedulerConfig:
    """When a master counts as saturated, and the CPU work it prices one placement search at."""

    max_cpu_util: float = 0.8
    max_sched_count: int = 4
    sched_base_units: float = 100.0
    sched_eval_units: float = 50.0

    def validate(self):
        if not 0.0 < self.max_cpu_util <= 1.0:
            raise ValueError("max_cpu_util must lie in (0, 1]")
        if self.max_sched_count < 0:
            raise ValueError("max_sched_count must be non-negative")
        if self.sched_base_units < 0 or self.sched_eval_units < 0:
            raise ValueError("scheduling work units must be non-negative")


def nominal_evals(policy_name: str, params: GaParams) -> int:
    """Evaluation budget a policy burns, used to charge scheduling time.

    Deliberately independent of app size and memoization: the scheduler pays
    for its configured search budget, not for lucky cache hits.
    """

    if policy_name == "random":
        return params.max_iteration_num
    return params.search_budget()


def scheduling_work_units(policy_name: str, params: GaParams, config: SchedulerConfig) -> float:
    return config.sched_base_units + config.sched_eval_units * nominal_evals(policy_name, params)


def build_task_actors_map(app: AppSpec, actors) -> dict[str, list]:
    """Candidate actors per task: those that hold the task's image.

    `actors` is an iterable of registry entries with .images (task names or
    "*") in registration order, which keeps candidate indices deterministic.
    """

    candidates: dict[str, list] = {name: [] for name in app.task_names()}
    for actor in actors:
        images = set(actor.images)
        for task in app.task_names():
            if "*" in images or task in images:
                candidates[task].append(actor)
    return candidates


class ResponseModel:
    """Estimates end-to-end response for assignments of one placement request.

    Tabulates every cost an estimate can need up front: per task a node-cost
    row and, for a task without parents, an ingress row over its candidates;
    per DAG edge a [parent candidate][child candidate] hop table, which the
    topology shares; per exit task an egress row.  The critical-path
    recurrence over those tables runs as straight-line code, compiled once
    per DAG shape and shared by every model of that shape; each model binds
    its tables into it.  So a GA can afford tens of thousands of estimates.
    """

    def __init__(self, app: AppSpec, candidates: dict[str, list], user_host: str,
                 master_host: str, view: TelemetryView, frame_size_bytes: int):
        self.tasks = app.task_names()
        self.candidate_hosts: list[tuple[str, ...]] = [
            tuple(actor.addr.host for actor in candidates[task]) for task in self.tasks
        ]
        self.counts = [len(hosts) for hosts in self.candidate_hosts]
        hosts = self.candidate_hosts
        frame = int(frame_size_bytes)
        topology = view.topology
        transfer = topology.transfer_ms
        # memoized for the build only: candidates often share hosts
        rate = functools.cache(view.host_rate)
        index = {name: i for i, name in enumerate(self.tasks)}
        out_bytes = [app.tasks[name].output_size_bytes for name in self.tasks]
        node_cost = [
            [app.tasks[name].compute_cost / rate(host) for host in hosts[i]]
            for i, name in enumerate(self.tasks)
        ]
        steps, hops, ingress = [], [], []
        for name in (name for level in app.levels for name in level):
            i = index[name]
            parents = tuple(index[parent] for parent in app.parents(name))
            steps.append((i, parents))
            hops += [topology.hop_table(hosts[p], hosts[i], out_bytes[p]) for p in parents]
            if not parents:
                # user frame to an entry executor, relayed through the master
                ingress.append([
                    transfer(user_host, master_host, frame) + transfer(master_host, host, frame)
                    for host in hosts[i]
                ])
        exits = tuple(index[name] for name in app.exit_tasks)
        # result back to the user, relayed through the master
        egress = [
            [transfer(host, master_host, out_bytes[i]) + transfer(master_host, user_host, out_bytes[i])
             for host in hosts[i]]
            for i in exits
        ]
        self._critical_path = _compile_critical_path(tuple(steps), exits)(
            node_cost, hops, ingress, egress
        )

    def estimate(self, assignment) -> float:
        """Critical-path response time of one assignment, in virtual ms."""

        return self._critical_path(assignment)


@functools.cache
def _compile_critical_path(steps: tuple, exits: tuple):
    """The critical-path estimate of one DAG shape, as straight-line code.

    `steps` holds (task, parent tasks) in level order and `exits` the exit
    tasks, all as task indices.  Returns `bind(node_cost, hops, ingress,
    egress)`, which takes the node-cost rows in task order, the hop tables
    and ingress rows in step order and the egress rows in exit order, and
    returns that model's `estimate(assignment)`.  The code does the float
    operations of this recurrence in its order, so estimates are exact:

        finish[i] = ingress[i] + node_cost[i]                 (no parents)
        finish[i] = max(0.0, finish[p] + hop[p][i] ...) + node_cost[i]
        response  = max(0.0, finish[x] + egress[x] ...)
    """

    hops, ingress, body = [], [], []
    for i, parents in steps:
        if not parents:
            ingress.append(f"i{i}")
            body.append(f"f{i} = i{i}[a{i}] + n{i}[a{i}]")
            continue
        body.append("s = 0.0")
        for p in parents:
            hops.append(f"h{len(hops)}")
            body += [f"t = f{p} + {hops[-1]}[a{p}][a{i}]", "if t > s: s = t"]
        body.append(f"f{i} = s + n{i}[a{i}]")
    body.append("r = 0.0")
    for k, x in enumerate(exits):
        body += [f"t = f{x} + e{k}[a{x}]", "if t > r: r = t"]
    body.append("return r")
    tables = {
        "node_cost": [f"n{i}" for i in range(len(steps))],
        "hops": hops,
        "ingress": ingress,
        "egress": [f"e{k}" for k in range(len(exits))],
    }
    source = "\n".join([
        f"def bind({', '.join(tables)}):",
        *(f"    {', '.join(names)}, = {arg}" for arg, names in tables.items() if names),
        "    def estimate(a):",
        f"        {', '.join(f'a{i}' for i in range(len(steps)))}, = a",
        *(f"        {line}" for line in body),
        "    return estimate",
    ])
    namespace = {}
    exec(compile(source, f"<critical path over {len(steps)} tasks>", "exec"), namespace)
    return namespace["bind"]


def dependency_lists(app: AppSpec, actor_addr_by_task: dict) -> dict[str, list]:
    """Per task, the (neighbor task, neighbor actor address) wiring list.

    Lists both parents and children: an executor probes every distinct peer
    actor while connecting, forwards outputs to its children's actors, and
    join-counts frames per parent.
    """

    out: dict[str, list] = {}
    for task in app.task_names():
        neighbors = app.parents(task) + app.children(task)
        out[task] = [(peer, actor_addr_by_task[peer]) for peer in neighbors]
    return out
