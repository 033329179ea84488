"""Scenario runner: builds a deployment from config and runs experiments.

``Runtime`` wires one deployment (loggers, masters, actors, users) onto a
kernel built from the scenario's topology and runs it until its last user
finishes; a deployment without users runs to its time limit. The kernel is
``SimKernel`` unless the caller passes another with the same surface, such
as ``RealtimeKernel`` over loopback TCP. ``EXPERIMENTS`` maps each experiment
kind to its cells and its fold: ``cells(config)`` lists ``(label, job)`` pairs
in run order, each job returns plain data (a deployment's metrics and
counters, or a GA re-solve's series), ``run_scenario`` runs the jobs, and
``fold(config, report, labels, results)`` builds the report from their
results in cell order. Convergence's offline re-solves run across forked
children, one share per CPU this process may use, when more than one is
available, and serially otherwise; every other kind runs its cells one after
another in this process.

A placement search is a pure function of its inputs (see
``registry_master.search_key``), and a run's cells often replay the same
prefix: scalability's scaling-off cell repeats the searches of its
scaling-on twin. So each ``run_scenario`` call keeps one memo of the
searches its deployments have solved, which every deployment it builds
(each cell, the convergence warm-up, and the masters scaling spawns) starts
from and adds to; it is dropped when the call returns. A ``Runtime`` built
outside ``run_scenario`` keeps a memo of its own. The memo is per process:
a forked child works on its own copy, and what it adds never comes back.

A re-solve draws from ``ga_policies.search_rng``; this module does not
import numpy. numpy loads at a process's first search, so building a
``Runtime`` does not load it, a run with no search (discovery) never does,
and convergence loads it in its warm-up, before any child forks.
"""
from __future__ import annotations

import copy
import os
import pickle
import statistics
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable, NamedTuple, NoReturn

from .actor_runtime import Actor
from .errors import DeadlockDetected
from .ga_policies import POLICIES, search_rng
from .netsim import HostCompute, SimKernel
from .protocol import LOGGER_PORT, MASTER_PORT, USER_PORT_BASE, Address
from .registry_master import Master
from .scenario import ScenarioConfig
from .scheduler import ResponseModel, build_task_actors_map
from .telemetry import RemoteLogger, TelemetryView
from .user_sim import RequestMetrics, User

__all__ = ["Runtime", "MetricsReport", "EXPERIMENTS", "run_scenario"]


@dataclass
class MetricsReport:
    """Everything a run produced, shaped for report.json and the CSVs."""

    name: str
    kind: str
    policy: str
    seed: int
    summary: dict = field(default_factory=dict)
    requests: list = field(default_factory=list)
    convergence: list = field(default_factory=list)  # app, policy, seed, iteration, best_fitness
    sft: list = field(default_factory=list)  # count, scaling, request_id, app, sft_ms, forwards, outcome
    rrt: list = field(default_factory=list)  # app, run, rrt_ms, response_ms
    response: list = field(default_factory=list)  # policy, seed, estimate_ms, measured_ms, err_pct

    def to_tree(self) -> dict:
        """The report as a JSON-ready tree; it shares the rows and the summary, it does not copy them."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Runtime:
    """One deployment: kernel, computes, loggers, masters, actors, users."""

    def __init__(self, config: ScenarioConfig, kernel=SimKernel):
        self.config = config
        self.kernel = kernel(config.topology)
        self.computes = {host: HostCompute(self.kernel, spec) for host, spec in config.topology.hosts.items()}

        self.loggers = [RemoteLogger(self.kernel, host) for host in config.loggers]
        logger_addr = Address(config.loggers[0], LOGGER_PORT)

        self.masters: list[Master] = []
        # The placement searches its masters have solved; see run_scenario.
        self.searches: dict = {}
        # Actors keep this factory, so it holds the parts it needs, not the Runtime.
        kernel, computes, masters, searches = self.kernel, self.computes, self.masters, self.searches

        def spawn_master(host: str) -> Master:
            master = Master(
                kernel=kernel,
                spec=config.topology.hosts[host],
                compute=computes[host],
                apps=config.apps,
                logger=logger_addr,
                policy=config.policy,
                ga_params=config.ga,
                sched_config=config.scheduler,
                discovery_config=config.discovery,
                scaling_enabled=config.scaling_enabled,
                profile_period_ms=config.profile_period_ms,
                seed=config.seed,
                searches=searches,
            )
            master.start()
            masters.append(master)
            return master

        for host in config.masters:
            spawn_master(host)

        self.actors: list[Actor] = []
        for host, images, initial in config.actors:
            actor = Actor(
                kernel=self.kernel,
                spec=config.topology.hosts[host],
                compute=self.computes[host],
                apps=config.apps,
                images=images,
                masters=[Address(m, MASTER_PORT) for m in initial],
                logger=logger_addr,
                config=config.actor_runtime,
                spawn_master=spawn_master,
                profile_period_ms=config.profile_period_ms,
            )
            actor.start()
            self.actors.append(actor)

        self.users: list[User] = []
        self._waiters: dict[int, list] = {}
        # Counts chained users too, so the run cannot stop before they start.
        self._unfinished = len(config.users)
        for i, ucfg in enumerate(config.users):
            user = User(
                self.kernel,
                ucfg,
                config.apps[ucfg.app],
                port=USER_PORT_BASE + i,
                on_done=self._make_done(i),
            )
            self.users.append(user)
            if ucfg.start_after_user is None:
                self.kernel.schedule_at(ucfg.start_at_ms, user.start)
            else:
                self._waiters.setdefault(ucfg.start_after_user, []).append(
                    (ucfg.start_after_delay_ms, user)
                )

    def _make_done(self, index: int):
        def done(_user):
            self._unfinished -= 1
            for delay, waiter in self._waiters.pop(index, []):
                self.kernel.schedule(delay, waiter.start)

        return done

    # -- execution -------------------------------------------------------------

    def run(self) -> None:
        """Run until every user is done; users still unfinished at the time limit are a wedge.

        A Runtime runs once. When run() returns or raises, the kernel is
        closed and the users' done callbacks are dropped, so nothing left
        refers back to the deployment and it is freed with its last
        reference; the clock, the traffic and every component stay readable.
        """
        stop_when = (lambda: not self._unfinished) if self.users else None
        try:
            self.kernel.run(until_ms=self.config.time_limit_ms, stop_when=stop_when)
        finally:
            self.kernel.close()
            for user in self.users:
                user.on_done = None
        if self._unfinished:
            raise DeadlockDetected(
                f"{self._unfinished} of {len(self.users)} user(s) unfinished at the time limit",
                dump=self.dump(),
            )

    def dump(self) -> str:
        lines = [f"t={self.kernel.now:.3f}ms scenario={self.config.name}"]
        for user in self.users:
            lines.append(
                f"user {user.request_id}: started={user.started} done={user.done} "
                f"warned={user.warned} timed_out={user.timed_out} ignored={user.ignored} "
                f"frames={len(user.response_ms)}/{user.config.frame_count}"
            )
        for logger in self.loggers:
            lines.append(f"logger {logger.addr}: rejected={logger.rejected} ignored={logger.ignored}")
        for master in self.masters:
            lines.append(
                f"master {master.address}: queue={len(master.queue)} in_flight={master.in_flight} "
                f"pending_scale={master.pending_scale} searches_reused={master.searches_reused} "
                f"actors={len(master.actors)} requests="
                + ",".join(f"{rid}:{st.status}" for rid, st in master.requests.items())
            )
        for actor in self.actors:
            phases = ",".join(e.phase.name for e in actor.executors.values())
            lines.append(
                f"actor {actor.address}: executors={len(actor.executors)} lane={len(actor._lane)} "
                f"pool={{{','.join(f'{k}:{len(v)}' for k, v in actor.pool.items())}}} phases=[{phases}]"
            )
        for kind, traffic in sorted(self.kernel.traffic.items(), key=lambda item: item[0].__name__):
            lines.append(
                f"traffic {kind.__name__}: sent={traffic.sent} bytes={traffic.bytes} dropped={traffic.dropped}"
            )
        return "\n".join(lines)

    # -- metrics ---------------------------------------------------------------

    def serving_state(self, request_id: str):
        """The placement state on the master that actually scheduled the request."""
        for master in self.masters:
            state = master.requests.get(request_id)
            if state is not None and state.decided_at is not None:
                return state, master
        return None, None

    def request_metrics(self) -> list[RequestMetrics]:
        out = []
        for user in self.users:
            metrics = user.metrics()
            state, _ = self.serving_state(user.request_id)
            if state is not None:
                metrics.estimate_ms = state.estimate
                metrics.sft_ms = None if user.t0 is None else state.decided_at - user.t0
            out.append(metrics)
        return out

    def counters(self) -> dict:
        masters = {
            "warns": sum(m.warns for m in self.masters),
            "forwards": sum(m.forwards for m in self.masters),
            "scales_requested": sum(m.scales_requested for m in self.masters),
            "completed": sum(m.completed for m in self.masters),
            "protocol_anomalies": sum(m.protocol_anomalies for m in self.masters),
            "count": len(self.masters),
        }
        actors = {
            "cold_starts": sum(a.cold_starts for a in self.actors),
            "warm_reuses": sum(a.warm_reuses for a in self.actors),
            "unknown_inputs": sum(a.unknown_inputs for a in self.actors),
            "anomalies": sum(a.anomalies for a in self.actors),
            "terminated": sum(a.terminated for a in self.actors),
        }
        return {"masters": masters, "actors": actors}


def _mean(values) -> float | None:
    return statistics.fmean(values) if values else None


def _request_row(metrics: RequestMetrics) -> dict:
    return {
        "request_id": metrics.request_id,
        "app": metrics.app,
        "user_host": metrics.user_host,
        "outcome": metrics.outcome,
        "sft_ms": metrics.sft_ms,
        "rrt_ms": metrics.rrt_ms,
        "mean_response_ms": _mean(metrics.response_ms),
        "frames": len(metrics.response_ms),
        "forwards": metrics.forwards,
    }


def _sft_row(metrics: RequestMetrics, count: int, scaling: bool) -> dict:
    return {
        "count": count,
        "scaling": scaling,
        "request_id": metrics.request_id,
        "app": metrics.app,
        "sft_ms": metrics.sft_ms,
        "forwards": metrics.forwards,
        "outcome": metrics.outcome,
    }


# -- experiments: cells and their folds -----------------------------------------


def _run_deployment(config: ScenarioConfig, searches: dict | None) -> Runtime:
    """Build and run one deployment; given the run's memo, its masters start from it and add to it."""
    runtime = Runtime(config)
    if searches is not None:
        runtime.searches.update(searches)
    runtime.run()
    if searches is not None:
        searches.update(runtime.searches)
    return runtime


def _deploy(config: ScenarioConfig, searches: dict | None = None) -> dict:
    """Run one deployment and keep only plain data from it."""
    runtime = _run_deployment(config, searches)
    return {
        "metrics": runtime.request_metrics(),
        "counters": runtime.counters(),
        "masters": {
            str(m.address): {"known_actors": len(m.actors), "known_masters": len(m.known_masters),
                             "rounds_run": m.discovery.rounds_run}
            for m in runtime.masters
        },
    }


def _one_deployment(config: ScenarioConfig, searches: dict | None = None) -> list:
    return [(config.name, partial(_deploy, config, searches))]


def _fold_single(config: ScenarioConfig, report: MetricsReport, _labels, results) -> None:
    (deployment,) = results
    all_metrics = deployment["metrics"]
    report.requests = [_request_row(m) for m in all_metrics]
    report.rrt = [
        {"app": row["app"], "run": "single", "rrt_ms": row["rrt_ms"], "response_ms": row["mean_response_ms"]}
        for row in report.requests if row["rrt_ms"] is not None
    ]
    report.sft = [_sft_row(m, len(config.users), config.scaling_enabled) for m in all_metrics if m.sft_ms is not None]
    masters = deployment["masters"]
    report.summary = {
        "outcomes": {m.request_id: m.outcome for m in all_metrics},
        "mean_response_ms": _mean([x for m in all_metrics for x in m.response_ms]),
        "counters": deployment["counters"],
        "known_actors_per_master": {addr: m["known_actors"] for addr, m in masters.items()},
        "known_masters_per_master": {addr: m["known_masters"] for addr, m in masters.items()},
    }


def _convergence_cells(config: ScenarioConfig, searches: dict | None = None) -> list:
    # One live warm-up request populates the scheduling history, then each
    # policy re-solves the same placement problem offline, seed by seed,
    # recording best fitness per iteration. The re-solves read idle
    # ground-truth telemetry: the view every master starts from, which is
    # also what the serving master's view settles to once its hosts go idle.
    # Only the model and the history outlive the warm-up; its facts ride in the first cell.
    runtime = _run_deployment(replace(config, policy="ohnsga"), searches)
    user = runtime.users[0]
    state, master = runtime.serving_state(user.request_id)
    if state is None:
        raise DeadlockDetected("warm-up request was never scheduled", dump=runtime.dump())
    app = config.apps[user.config.app]
    model = ResponseModel(
        app,
        build_task_actors_map(app, master.actors.values()),
        user_host=user.config.host,
        master_host=master.spec.host,
        view=TelemetryView(config.topology),
        frame_size_bytes=user.config.frame_size_bytes,
    )
    warmup = {"app": app.name, "request_id": user.request_id,
              "history_entries": len(master.history.best_first(app.name))}
    return [("warm-up", partial(dict, warmup))] + [
        ((name, s), partial(_solve, name, model, config.ga, [config.seed, p_index, s], master.history, app.name))
        for p_index, name in enumerate(config.experiment["policies"])
        for s in range(config.experiment["seeds"])
    ]


def _solve(policy: str, model: ResponseModel, ga, entropy: list, history, app: str) -> list:
    """One offline re-solve on its own copy of the history; its best fitness per iteration."""
    rng = search_rng(entropy)
    return POLICIES[policy](model.counts, model.estimate, ga, rng, history=copy.deepcopy(history), app=app).series


def _fold_convergence(config: ScenarioConfig, report: MetricsReport, labels, results) -> None:
    warmup, *solves = results
    at_iter = config.experiment["compare_iteration"]
    final = {name: [] for name in config.experiment["policies"]}
    probe = {name: [] for name in config.experiment["policies"]}
    for (name, s), series in zip(labels[1:], solves):
        report.convergence += [
            {"app": warmup["app"], "policy": name, "seed": s, "iteration": iteration, "best_fitness": best}
            for iteration, best in enumerate(series, start=1)
        ]
        final[name].append(series[-1])
        probe[name].append(series[min(at_iter, len(series)) - 1])
    report.summary = {
        "app": warmup["app"],
        "seeds": config.experiment["seeds"],
        "compare_iteration": at_iter,
        "warmup_request": warmup["request_id"],
        "warmup_history_entries": warmup["history_entries"],
        "median_at_compare": {name: statistics.median(vals) for name, vals in probe.items()},
        "median_final": {name: statistics.median(vals) for name, vals in final.items()},
    }


def _scalability_cells(config: ScenarioConfig, searches: dict | None = None) -> list:
    return [
        ((count, scaling), partial(_deploy, replace(
            config, name=f"{config.name}[n={count},scaling={'on' if scaling else 'off'}]",
            scaling_enabled=scaling, users=config.users[:count],
        ), searches))
        for count in config.experiment["counts"]
        for scaling in (True, False)
    ]


def _fold_scalability(config: ScenarioConfig, report: MetricsReport, labels, results) -> None:
    cells = {}
    for (count, scaling), deployment in zip(labels, results):
        report.sft += [_sft_row(m, count, scaling) for m in deployment["metrics"]]
        sft = [m.sft_ms for m in deployment["metrics"] if m.sft_ms is not None]
        cells[count, scaling] = (_mean(sft), len(sft), deployment["counters"]["masters"]["count"])
    rows = {}
    for count in config.experiment["counts"]:
        (on, on_scheduled, masters), (off, off_scheduled, _) = cells[count, True], cells[count, False]
        rows[str(count)] = {
            "mean_sft_scaling_ms": on,
            "mean_sft_no_scaling_ms": off,
            "ratio_no_scaling_over_scaling": (off / on) if on and off else None,
            "scheduled_scaling": on_scheduled,
            "scheduled_no_scaling": off_scheduled,
            "masters_scaling": masters,
        }
    report.summary = {"counts": rows}


def _reuse_cells(config: ScenarioConfig, searches: dict | None = None) -> list:
    return [
        (app, partial(_deploy, replace(
            config, name=f"{config.name}[{app}]", users=tuple(replace(u, app=app) for u in config.users)
        ), searches))
        for app in config.experiment["apps"]
    ]


def _fold_reuse(config: ScenarioConfig, report: MetricsReport, labels, results) -> None:
    ratios = {}
    for app, deployment in zip(labels, results):
        cold, warm = deployment["metrics"][:2]
        for run, metrics in (("cold", cold), ("warm", warm)):
            mean = _mean(metrics.response_ms)
            report.rrt.append({"app": app, "run": run, "rrt_ms": metrics.rrt_ms, "response_ms": mean})
        actors = deployment["counters"]["actors"]
        ratios[app] = {
            "cold_rrt_ms": cold.rrt_ms,
            "warm_rrt_ms": warm.rrt_ms,
            "ratio": (warm.rrt_ms / cold.rrt_ms) if cold.rrt_ms and warm.rrt_ms is not None else None,
            "warm_reuses": actors["warm_reuses"],
            "cold_starts": actors["cold_starts"],
        }
    report.summary = {"apps": ratios}


def _response_cells(config: ScenarioConfig, searches: dict | None = None) -> list:
    return [
        ((name, s), partial(_deploy, replace(
            config, name=f"{config.name}[{name},s={s}]", policy=name, seed=(config.seed * 1_000_003 + s) % (2**31)
        ), searches))
        for name in config.experiment["policies"]
        for s in range(config.experiment["seeds"])
    ]


def _fold_response(config: ScenarioConfig, report: MetricsReport, labels, results) -> None:
    policies = config.experiment["policies"]
    seeds = config.experiment["seeds"]
    measured: dict[str, list] = {name: [] for name in policies}
    max_err = {name: 0.0 for name in policies}
    for (name, s), deployment in zip(labels, results):
        metrics = deployment["metrics"][-1]  # the last user's request is the measured one
        mean, estimate = _mean(metrics.response_ms), metrics.estimate_ms
        err = abs(mean - estimate) / estimate * 100.0 if mean is not None and estimate else None
        if err is not None:
            max_err[name] = max(max_err[name], err)
        measured[name].append(mean)
        report.response.append(
            {"policy": name, "seed": s, "estimate_ms": estimate, "measured_ms": mean, "err_pct": err}
        )
    baselines = [name for name in policies if name != "ohnsga"]
    wins = None
    if "ohnsga" in policies and baselines:
        wins = sum(
            ours is not None and all(r is not None and ours <= r for r in rivals)
            for ours, *rivals in zip(measured["ohnsga"], *(measured[b] for b in baselines))
        )
    report.summary = {
        "seeds": seeds,
        "max_err_pct": max_err,
        "mean_measured_ms": {name: _mean([v for v in vals if v is not None]) for name, vals in measured.items()},
        "ohnsga_wins": wins,
        "win_fraction": (wins / seeds) if wins is not None and seeds else None,
    }


def _fold_discovery(config: ScenarioConfig, report: MetricsReport, _labels, results) -> None:
    (deployment,) = results
    masters = deployment["masters"]
    report.summary = {
        "actor_count": len(config.actors),
        "masters": masters,
        "all_converged": all(entry["known_actors"] == len(config.actors) for entry in masters.values()),
    }


class Experiment(NamedTuple):
    """An experiment kind: its cells, their fold, and whether its jobs run in forked children.

    ``cells(config, searches)`` shares the memo ``searches`` among every
    deployment it builds; without one, each deployment keeps its own.
    """

    cells: Callable[[ScenarioConfig, dict | None], list]
    fold: Callable[..., None]
    # Deployment cells stay in this process until the benchmark counts requests
    # from cell results (ROADMAP item 6): its probe sees only the Runtimes built here.
    forks: bool = False


EXPERIMENTS = {
    "single": Experiment(_one_deployment, _fold_single),
    "convergence": Experiment(_convergence_cells, _fold_convergence, forks=True),
    "scalability": Experiment(_scalability_cells, _fold_scalability),
    "reuse": Experiment(_reuse_cells, _fold_reuse),
    "response": Experiment(_response_cells, _fold_response),
    "discovery": Experiment(_one_deployment, _fold_discovery),
}


def run_scenario(config: ScenarioConfig) -> MetricsReport:
    kind = config.experiment["kind"]
    experiment = EXPERIMENTS[kind]
    report = MetricsReport(name=config.name, kind=kind, policy=config.policy, seed=config.seed)
    # Placement searches a deployment of this run has solved; see _run_deployment.
    cells = experiment.cells(config, {})
    jobs = [job for _label, job in cells]
    results = _run_forked(jobs) if experiment.forks else [job() for job in jobs]
    experiment.fold(config, report, [label for label, _job in cells], results)
    return report


def _run_forked(jobs: list) -> list:
    """The jobs' results in job order, with jobs[w::n] run in forked child w for 0 < w < n.

    n is the number of CPUs this process may use, at most one per job; this
    process runs jobs[0::n] itself, so with one CPU the jobs run serially and
    nothing forks. A child inherits its jobs, so they need not pickle; their
    results, or the error a job raised, come back pickled over a pipe. Every
    child is reaped before this returns or raises.
    """
    n = min(len(os.sched_getaffinity(0)), len(jobs))
    results = [None] * len(jobs)
    pipes, pids = [], []
    try:
        for w in range(1, n):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(jobs[w::n], write_end, pipes)
            finally:
                os.close(write_end)
            pids.append(pid)
        results[0::n] = [job() for job in jobs[0::n]]
        for w, (pid, pipe) in enumerate(zip(pids, pipes), start=1):
            data = pipe.read()
            if not data:
                raise ChildProcessError(f"forked child {pid} ended without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results[w::n] = value
    finally:
        # A child still writing meets a closed pipe and exits, so every wait ends.
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
    return results


def _run_child(jobs: list, write_end: int, read_ends: list) -> NoReturn:
    """A forked child's share: it writes its pickled results, or its job's error, and leaves through os._exit."""
    status = 1
    try:
        # Holding no read end, a child writing to a pipe whose reader went away fails instead of waiting.
        for pipe in read_ends:
            pipe.close()
        try:
            data = pickle.dumps((True, [job() for job in jobs]))
        except Exception as exc:
            try:  # an error may pickle and still not rebuild, when its __init__ takes other arguments
                data = pickle.dumps((False, exc))
                pickle.loads(data)
            except Exception:
                data = pickle.dumps((False, RuntimeError(f"{type(exc).__qualname__} in a forked child: {exc}")))
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
