"""Placement scheduling: candidate maps, the response estimator, GA glue.

The response model here is the single source of truth for end-to-end timing.
A frame travels user -> master -> entry executors, flows down the task DAG
(an edge between co-located tasks is free), and results return exit ->
master -> user.  Node cost is compute_cost divided by the profiled host rate;
edge cost is link latency plus whole-frame transmission time.  The simulator
enacts exactly these hops with the same arithmetic, so measured response
times match estimates by construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .ga_policies import GaParams
from .taskgraph import AppSpec
from .telemetry import TelemetryView


@dataclass(frozen=True)
class SchedulerConfig:
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
    return params.pop_size + params.max_iteration_num * params.n_offsprings


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
    row and, for an entry task, an ingress row over its candidates; per DAG
    edge a [parent candidate][child candidate] hop table; per exit task an
    egress row.  An estimate is then list indexing plus the critical-path
    recurrence, so a GA can afford tens of thousands of them.
    """

    def __init__(self, app: AppSpec, candidates: dict[str, list], user_host: str,
                 master_host: str, view: TelemetryView, frame_size_bytes: int):
        self.app = app
        self.tasks = app.task_names()
        self.candidate_hosts: list[list[str]] = [
            [actor.addr.host for actor in candidates[task]] for task in self.tasks
        ]
        self.counts = [len(hosts) for hosts in self.candidate_hosts]
        hosts = self.candidate_hosts
        frame = int(frame_size_bytes)
        # memoized for the build only: candidates often share hosts
        transfer = functools.cache(view.link_transfer_ms)
        rate = functools.cache(view.host_rate)
        index = {name: i for i, name in enumerate(self.tasks)}
        out_bytes = [app.tasks[name].output_size_bytes for name in self.tasks]
        # (task, node-cost row, [(parent, hop table)], ingress row or None), level order;
        # a hop between co-located tasks is free
        self._steps = []
        for name in (name for level in app.levels for name in level):
            i = index[name]
            hops = [
                (p, [[0.0 if src == dst else transfer(src, dst, out_bytes[p]) for dst in hosts[i]]
                     for src in hosts[p]])
                for p in (index[parent] for parent in app.parents(name))
            ]
            # user frame to an entry executor, relayed through the master
            ingress = None if hops else [
                transfer(user_host, master_host, frame) + transfer(master_host, host, frame)
                for host in hosts[i]
            ]
            cost = app.tasks[name].compute_cost
            self._steps.append((i, [cost / rate(host) for host in hosts[i]], hops, ingress))
        # (exit task, egress row): result back to the user, relayed through the master
        self._egress = [
            (i, [transfer(host, master_host, out_bytes[i]) + transfer(master_host, user_host, out_bytes[i])
                 for host in hosts[i]])
            for i in (index[name] for name in app.exit_tasks)
        ]

    def estimate(self, assignment) -> float:
        """Critical-path response time of one assignment, in virtual ms."""

        finish = [0.0] * len(self.tasks)
        for i, node_cost, hops, ingress in self._steps:
            a = assignment[i]
            if hops:
                start = 0.0
                for p, table in hops:
                    arrival = finish[p] + table[assignment[p]][a]
                    if arrival > start:
                        start = arrival
            else:
                start = ingress[a]
            finish[i] = start + node_cost[a]
        response = 0.0
        for i, egress in self._egress:
            arrival = finish[i] + egress[assignment[i]]
            if arrival > response:
                response = arrival
        return response


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
