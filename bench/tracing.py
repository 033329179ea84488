"""Layer spans and deployment facts, recorded from outside the fogsim package.

``Probe`` swaps ``fogsim.runner.Runtime`` for a subclass that records, for
every deployment, its request outcomes and counters; that costs a few calls
per deployment and runs in every benchmark run. With ``trace=True`` it also
wraps each layer's public entry point in a span. Every wrapped name is one
that fogsim looks up when it calls it (a module attribute, a class attribute
or a ``POLICIES`` entry), so replacing it reaches every caller. Leaving the
``with`` block puts every original back.

A span is ``(name, start, end, parent, deployment)``: ``parent`` is the index
of the enclosing span (-1 for the root) and ``deployment`` numbers the
``Runtime`` most recently built (0 before the first), so the spans of one
deployment share it. Spans stay in memory until the caller writes them out.
"""
from __future__ import annotations

import statistics
import time
from collections import Counter

SPAN_FIELDS = ("name", "start", "end", "parent", "deployment")
ROOT_SPAN = "workload"


class Probe:
    def __init__(self, fogsim, trace: bool):
        self.fogsim = fogsim
        self.trace = trace
        self.deployments: list[dict] = []
        self.spans: list = []
        self.totals: Counter = Counter()
        self.deployment = 0
        self._stack: list[int] = []
        self._undo: list = []

    # -- installing -----------------------------------------------------------

    def __enter__(self) -> "Probe":
        fg = self.fogsim
        runner = fg.runner
        self._set(runner, "Runtime", self._observed_runtime(runner.Runtime))
        if self.trace:
            tally = self.totals

            def on_search(name):
                def count(args, result):
                    tally["ga.evals"] += result.evals
                    tally["ga.nominal_evals"] += fg.scheduler.nominal_evals(name, args[2])

                return count

            for name, solve in list(fg.ga_policies.POLICIES.items()):
                self._set(fg.ga_policies.POLICIES, name, self.wrap(f"ga_policies.{name}", solve, on_search(name)))

            def add(key, measure):
                def count(_args, result):
                    tally[key] += measure(result)

                return count

            for owner, attr, name, on_result in (
                (fg.scheduler.ResponseModel, "estimate", "scheduler.estimate", None),
                (fg.protocol, "message_wire_bytes", "protocol.message_wire_bytes",
                 add("protocol.control_bytes", int)),
                (fg.telemetry.LogStore, "ingest", "telemetry.ingest",
                 add("telemetry.records_ingested", lambda r: r[0])),
                (fg.telemetry.LogStore, "snapshot", "telemetry.snapshot",
                 add("telemetry.snapshot_records", len)),
                (fg.netsim.SimKernel, "run", "netsim.run", None),
                (fg.netsim.SimKernel, "schedule_at", "netsim.schedule_at", None),
                (fg.netsim.HostCompute, "utilization", "netsim.utilization", None),
                (fg, "parse_scenario", "scenario.parse_scenario", None),
                (fg, "emit_report", "report.emit_report", None),
            ):
                self._set(owner, attr, self.wrap(name, _raw(owner, attr), on_result))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, _raw(owner, attr)))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    # -- spans ------------------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock, probe = self.spans, self._stack, time.perf_counter, self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, probe.deployment)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _observed_runtime(self, base):
        probe = self
        errors = self.fogsim.errors

        class ObservedRuntime(base):
            def __init__(self, config):
                probe.deployment += 1
                super().__init__(config)

            def run(self):
                try:
                    super().run()
                except errors.DeadlockDetected:
                    probe.deployments.append(_facts(self, wedged=True))
                    raise
                probe.deployments.append(_facts(self, wedged=False))

        if self.trace:
            ObservedRuntime.__init__ = self.wrap("runner.Runtime", ObservedRuntime.__init__)
        return ObservedRuntime


def _raw(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _facts(runtime, wedged: bool) -> dict:
    metrics = runtime.request_metrics()
    kernel = runtime.kernel
    return {
        "users": len(runtime.users),
        "scaling": runtime.config.scaling_enabled,
        "wedged": wedged,
        "outcomes": Counter(m.outcome for m in metrics),
        "sft_ms": [m.sft_ms for m in metrics if m.sft_ms is not None],
        "response_ms": [m.response_ms for m in metrics if m.response_ms],
        "counters": runtime.counters(),
        "store_records": sum(
            len(lg.store.images) + len(lg.store.resources) + len(lg.store.perf) for lg in runtime.loggers
        ),
        "delivered": kernel.delivered,
        "dropped": kernel.dropped,
        "virtual_ms": kernel.now,
    }


def request_counts(deployments: list[dict]) -> tuple[int, int]:
    """(attempted, failed) placement requests. ``Warned`` counts as failed,
    and so does every request of a wedged deployment."""

    attempted = sum(d["users"] for d in deployments)
    failed = sum(d["users"] if d["wedged"] else d["outcomes"]["Warned"] for d in deployments)
    return attempted, failed


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its child spans cover."""

    own = [end - start for _name, start, end, _parent, _dep in spans]
    for _name, start, end, parent, _dep in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of p50/p90/p99/p99.9 with at least ten
    samples beyond it; p50 when there are too few samples for any."""

    n = len(samples)
    for pct in (99.9, 99.0, 90.0):
        if n * (1 - pct / 100) >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return pct, cuts[round(pct * 10) - 1]
    return 50.0, statistics.median(samples)


def layer_metrics(probe: Probe) -> dict[str, float]:
    """Per-layer figures of one traced run, from its spans and counters."""

    spans = probe.spans
    own = self_times(spans)
    busy: Counter = Counter()
    calls: Counter = Counter()
    self_busy: Counter = Counter()
    searches = []
    for (name, start, end, _parent, _dep), mine in zip(spans, own):
        busy[name] += end - start
        calls[name] += 1
        self_busy[name] += mine
        if name.startswith("ga_policies."):
            searches.append((end - start) * 1000.0)
    tally = probe.totals
    deps = probe.deployments
    tail_pct, tail_ms = _tail(searches) if searches else (50.0, 0.0)
    events = calls["netsim.schedule_at"]

    def over_deps(key):
        return sum(d[key] for d in deps)

    def counter(group, key):
        return sum(d["counters"][group][key] for d in deps)

    return {
        "ga.search_s": sum(searches) / 1000.0,
        "ga.searches": len(searches),
        "ga.search_p50_ms": statistics.median(searches) if searches else 0.0,
        "ga.search_tail_ms": tail_ms,
        "ga.search_tail_pct": tail_pct,
        "ga.evals": tally["ga.evals"],
        "ga.eval_ratio": tally["ga.evals"] / tally["ga.nominal_evals"] if tally["ga.nominal_evals"] else 0.0,
        "scheduler.estimate_s": busy["scheduler.estimate"],
        "scheduler.estimates": calls["scheduler.estimate"],
        "protocol.wire_bytes_s": busy["protocol.message_wire_bytes"],
        "protocol.wire_calls": calls["protocol.message_wire_bytes"],
        "protocol.control_bytes": tally["protocol.control_bytes"],
        "telemetry.ingest_s": busy["telemetry.ingest"],
        "telemetry.records_ingested": tally["telemetry.records_ingested"],
        "telemetry.snapshot_s": busy["telemetry.snapshot"],
        "telemetry.snapshots": calls["telemetry.snapshot"],
        "telemetry.snapshot_records": tally["telemetry.snapshot_records"],
        "telemetry.store_records": over_deps("store_records"),
        "netsim.run_s": busy["netsim.run"],
        "netsim.self_s": self_busy["netsim.run"],
        "netsim.events": events,
        "netsim.delivered": over_deps("delivered"),
        "netsim.dropped": over_deps("dropped"),
        "netsim.virtual_ms": over_deps("virtual_ms"),
        "netsim.self_us_per_event": self_busy["netsim.run"] / events * 1e6 if events else 0.0,
        "netsim.utilization_s": busy["netsim.utilization"],
        "netsim.utilization_calls": calls["netsim.utilization"],
        "runner.deployments": calls["runner.Runtime"],
        "runner.build_s": busy["runner.Runtime"],
        "scenario.parse_s": busy["scenario.parse_scenario"],
        "report.emit_s": busy["report.emit_report"],
        "master.forwards": counter("masters", "forwards"),
        "master.scales_requested": counter("masters", "scales_requested"),
        "master.protocol_anomalies": counter("masters", "protocol_anomalies"),
        "actor.cold_starts": counter("actors", "cold_starts"),
        "actor.warm_reuses": counter("actors", "warm_reuses"),
        "user.completed": sum(d["outcomes"]["Completed"] + d["outcomes"]["Forwarded"] for d in deps),
        "user.warned": sum(d["outcomes"]["Warned"] for d in deps),
    }
