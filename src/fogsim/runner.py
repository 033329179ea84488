"""Scenario runner: builds a deployment from config and drives experiments.

``Runtime`` wires one deployment (loggers, masters, actors, users) onto a
kernel built from the scenario's topology and runs it until its last user
finishes; a deployment without users runs to its time limit. The kernel is
``SimKernel`` unless the caller passes another with the same surface, such
as ``RealtimeKernel`` over loopback TCP. ``run_scenario``
dispatches on the experiment kind, running one or many deployments and
assembling a MetricsReport with stable row schemas for the CSV writers.
"""
from __future__ import annotations

import copy
import statistics
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .actor_runtime import Actor
from .errors import DeadlockDetected
from .ga_policies import POLICIES
from .netsim import HostCompute, SimKernel
from .protocol import LOGGER_PORT, MASTER_PORT, USER_PORT_BASE, Address
from .registry_master import Master
from .scenario import ScenarioConfig
from .scheduler import ResponseModel, build_task_actors_map
from .telemetry import RemoteLogger, TelemetryView
from .user_sim import RequestMetrics, User

__all__ = ["Runtime", "MetricsReport", "run_scenario"]


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
        # Actors keep this factory, so it holds the parts it needs, not the Runtime.
        kernel, computes, masters = self.kernel, self.computes, self.masters

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
                cool_off_ms=config.actor_runtime.cool_off_ms,
                profile_period_ms=config.profile_period_ms,
                seed=config.seed,
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
                f"warned={user.warned} timed_out={user.timed_out} "
                f"frames={len(user.response_ms)}/{user.config.frame_count}"
            )
        for master in self.masters:
            lines.append(
                f"master {master.address}: queue={len(master.queue)} in_flight={master.in_flight} "
                f"pending_scale={master.pending_scale} "
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
            if state is not None and user.t0 is not None:
                metrics.sft_ms = state.decided_at - user.t0
            out.append(metrics)
        return out

    def counters(self) -> dict:
        masters = {
            "warns": sum(m.warns for m in self.masters),
            "forwards": sum(m.forwards for m in self.masters),
            "scales_requested": sum(m.scales_requested for m in self.masters),
            "reuses_dispatched": sum(m.reuses_dispatched for m in self.masters),
            "completed": sum(m.completed for m in self.masters),
            "protocol_anomalies": sum(m.protocol_anomalies for m in self.masters),
            "count": len(self.masters),
        }
        actors = {
            "cold_starts": sum(a.cold_starts for a in self.actors),
            "warm_reuses": sum(a.warm_reuses for a in self.actors),
            "reuse_races": sum(a.reuse_races for a in self.actors),
            "unknown_inputs": sum(a.unknown_inputs for a in self.actors),
            "anomalies": sum(a.anomalies for a in self.actors),
            "terminated": sum(a.terminated for a in self.actors),
        }
        return {"masters": masters, "actors": actors}


def _request_row(metrics: RequestMetrics) -> dict:
    mean = statistics.fmean(metrics.response_ms) if metrics.response_ms else None
    return {
        "request_id": metrics.request_id,
        "app": metrics.app,
        "user_host": metrics.user_host,
        "outcome": metrics.outcome,
        "sft_ms": metrics.sft_ms,
        "rrt_ms": metrics.rrt_ms,
        "mean_response_ms": mean,
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


def _mix_seed(base: int, salt: int) -> int:
    return (base * 1_000_003 + salt) % (2**31)


# -- experiment drivers ---------------------------------------------------------


def _run_single(config: ScenarioConfig, report: MetricsReport) -> None:
    runtime = Runtime(config)
    runtime.run()
    all_metrics = runtime.request_metrics()
    report.requests = [_request_row(m) for m in all_metrics]
    for row in report.requests:
        if row["rrt_ms"] is not None:
            report.rrt.append(
                {"app": row["app"], "run": "single", "rrt_ms": row["rrt_ms"], "response_ms": row["mean_response_ms"]}
            )
    report.sft = [_sft_row(m, len(config.users), config.scaling_enabled) for m in all_metrics if m.sft_ms is not None]
    completed = [m for m in all_metrics if m.response_ms]
    report.summary = {
        "outcomes": {m.request_id: m.outcome for m in all_metrics},
        "mean_response_ms": (
            statistics.fmean(x for m in completed for x in m.response_ms) if completed else None
        ),
        "counters": runtime.counters(),
        "known_actors_per_master": {str(m.address): len(m.actors) for m in runtime.masters},
        "known_masters_per_master": {str(m.address): len(m.known_masters) for m in runtime.masters},
    }


def _run_convergence(config: ScenarioConfig, report: MetricsReport) -> None:
    # One live warm-up request populates the scheduling history, then each
    # policy re-solves the same placement problem offline, seed by seed,
    # recording best fitness per iteration. The re-solves read idle
    # ground-truth telemetry: the view every master starts from, which is
    # also what the serving master's view settles to once its hosts go idle.
    warmup = replace(config, policy="ohnsga")
    runtime = Runtime(warmup)
    runtime.run()
    user = runtime.users[0]
    state, master = runtime.serving_state(user.request_id)
    if state is None:
        raise DeadlockDetected("warm-up request was never scheduled", dump=runtime.dump())

    app = config.apps[user.config.app]
    candidates = build_task_actors_map(app, master.actors.values())
    model = ResponseModel(
        app,
        candidates,
        user_host=user.config.host,
        master_host=master.spec.host,
        view=TelemetryView(config.topology),
        frame_size_bytes=user.config.frame_size_bytes,
    )
    policies = config.experiment["policies"]
    seeds = config.experiment["seeds"]
    at_iter = config.experiment["compare_iteration"]
    final = {name: [] for name in policies}
    probe = {name: [] for name in policies}
    for p_index, name in enumerate(policies):
        solve = POLICIES[name]
        for s in range(seeds):
            rng = np.random.default_rng([config.seed, p_index, s])
            history = copy.deepcopy(master.history)
            result = solve(model.counts, model.estimate, config.ga, rng, history=history, app=app.name)
            for iteration, best in enumerate(result.series, start=1):
                report.convergence.append(
                    {
                        "app": app.name,
                        "policy": name,
                        "seed": s,
                        "iteration": iteration,
                        "best_fitness": best,
                    }
                )
            final[name].append(result.series[-1])
            index = min(at_iter, len(result.series)) - 1
            probe[name].append(result.series[index])
    report.summary = {
        "app": app.name,
        "seeds": seeds,
        "compare_iteration": at_iter,
        "warmup_request": user.request_id,
        "warmup_history_entries": len(master.history.best_first(app.name)),
        "median_at_compare": {name: statistics.median(vals) for name, vals in probe.items()},
        "median_final": {name: statistics.median(vals) for name, vals in final.items()},
    }


def _run_scalability(config: ScenarioConfig, report: MetricsReport) -> None:
    counts = config.experiment["counts"]
    cells = {}
    for count in counts:
        for scaling in (True, False):
            sub = replace(
                config,
                name=f"{config.name}[n={count},scaling={'on' if scaling else 'off'}]",
                scaling_enabled=scaling,
                users=config.users[:count],
            )
            runtime = Runtime(sub)
            runtime.run()
            sft_values = []
            for metrics in runtime.request_metrics():
                report.sft.append(_sft_row(metrics, count, scaling))
                if metrics.sft_ms is not None:
                    sft_values.append(metrics.sft_ms)
            cells[(count, scaling)] = {
                "mean_sft_ms": statistics.fmean(sft_values) if sft_values else None,
                "scheduled": len(sft_values),
                "counters": runtime.counters(),
            }
    rows = {}
    for count in counts:
        on = cells[(count, True)]["mean_sft_ms"]
        off = cells[(count, False)]["mean_sft_ms"]
        rows[str(count)] = {
            "mean_sft_scaling_ms": on,
            "mean_sft_no_scaling_ms": off,
            "ratio_no_scaling_over_scaling": (off / on) if on and off else None,
            "scheduled_scaling": cells[(count, True)]["scheduled"],
            "scheduled_no_scaling": cells[(count, False)]["scheduled"],
            "masters_scaling": cells[(count, True)]["counters"]["masters"]["count"],
        }
    report.summary = {"counts": rows}


def _run_reuse(config: ScenarioConfig, report: MetricsReport) -> None:
    apps = config.experiment["apps"]
    ratios = {}
    for app in apps:
        sub = replace(
            config,
            name=f"{config.name}[{app}]",
            users=tuple(replace(u, app=app) for u in config.users),
        )
        runtime = Runtime(sub)
        runtime.run()
        all_metrics = runtime.request_metrics()
        runs = ["cold", "warm"]
        for label, metrics in zip(runs, all_metrics):
            mean = statistics.fmean(metrics.response_ms) if metrics.response_ms else None
            report.rrt.append(
                {"app": app, "run": label, "rrt_ms": metrics.rrt_ms, "response_ms": mean}
            )
        cold, warm = all_metrics[0].rrt_ms, all_metrics[1].rrt_ms
        ratios[app] = {
            "cold_rrt_ms": cold,
            "warm_rrt_ms": warm,
            "ratio": (warm / cold) if cold and warm is not None else None,
            "warm_reuses": runtime.counters()["actors"]["warm_reuses"],
            "cold_starts": runtime.counters()["actors"]["cold_starts"],
        }
    report.summary = {"apps": ratios}


def _run_response(config: ScenarioConfig, report: MetricsReport) -> None:
    policies = config.experiment["policies"]
    seeds = config.experiment["seeds"]
    measured_index = len(config.users) - 1
    measured: dict[str, list] = {name: [] for name in policies}
    max_err = {name: 0.0 for name in policies}
    for name in policies:
        for s in range(seeds):
            sub = replace(
                config,
                name=f"{config.name}[{name},s={s}]",
                policy=name,
                seed=_mix_seed(config.seed, s),
            )
            runtime = Runtime(sub)
            runtime.run()
            user = runtime.users[measured_index]
            state, _ = runtime.serving_state(user.request_id)
            metrics = user.metrics()
            mean = statistics.fmean(metrics.response_ms) if metrics.response_ms else None
            estimate = state.estimate if state is not None else None
            err = None
            if mean is not None and estimate:
                err = abs(mean - estimate) / estimate * 100.0
                max_err[name] = max(max_err[name], err)
            measured[name].append(mean)
            report.response.append(
                {
                    "policy": name,
                    "seed": s,
                    "estimate_ms": estimate,
                    "measured_ms": mean,
                    "err_pct": err,
                }
            )
    baselines = [name for name in policies if name != "ohnsga"]
    wins = None
    if "ohnsga" in policies and baselines:
        wins = 0
        for s in range(seeds):
            ours = measured["ohnsga"][s]
            rivals = [measured[b][s] for b in baselines]
            if ours is not None and all(r is not None and ours <= r for r in rivals):
                wins += 1
    report.summary = {
        "seeds": seeds,
        "max_err_pct": max_err,
        "mean_measured_ms": {
            name: (statistics.fmean(v for v in vals if v is not None) if any(v is not None for v in vals) else None)
            for name, vals in measured.items()
        },
        "ohnsga_wins": wins,
        "win_fraction": (wins / seeds) if wins is not None and seeds else None,
    }


def _run_discovery(config: ScenarioConfig, report: MetricsReport) -> None:
    runtime = Runtime(config)
    runtime.run()
    per_master = {}
    for master in runtime.masters:
        per_master[str(master.address)] = {
            "known_actors": len(master.actors),
            "known_masters": len(master.known_masters),
            "rounds_run": master.discovery.rounds_run,
        }
    report.summary = {
        "actor_count": len(runtime.actors),
        "masters": per_master,
        "all_converged": all(
            entry["known_actors"] == len(runtime.actors) for entry in per_master.values()
        ),
    }


_DRIVERS = {
    "single": _run_single,
    "convergence": _run_convergence,
    "scalability": _run_scalability,
    "reuse": _run_reuse,
    "response": _run_response,
    "discovery": _run_discovery,
}


def run_scenario(config: ScenarioConfig) -> MetricsReport:
    kind = config.experiment["kind"]
    report = MetricsReport(name=config.name, kind=kind, policy=config.policy, seed=config.seed)
    _DRIVERS[kind](config, report)
    return report
