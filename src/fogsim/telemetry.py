"""Telemetry: the append-only profile log, profile views, and the remote logger.

One database mirrors what the orchestration components record about the
system: host resource profiles.  Ingestion validates each record
individually and reports a reason per rejected record; accepted records are
append-only.  The freshest view of any host is the record with the largest
sampled_at, later insertion winning ties.  Which task images a host holds is
not telemetry: actors declare it once, in RegisterActor.
"""

from __future__ import annotations

import math

from . import protocol
from .protocol import Address, HostProfile, LogUpload, MessageEnvelope

PROFILE_PERIOD_MS = 1000.0
STALE_PERIODS = 3


def validate_record(record) -> str | None:
    """Reason the record is unacceptable, or None if it is fine."""

    if not isinstance(record, HostProfile):
        return f"not a telemetry record: {type(record).__name__}"
    if record.sampled_at < 0 or not math.isfinite(record.sampled_at):
        return "sampled_at must be a finite non-negative time"
    if record.cpu_cores <= 0:
        return "cpu_cores must be positive"
    if record.cpu_freq_ghz <= 0 or not math.isfinite(record.cpu_freq_ghz):
        return "cpu_freq_ghz must be positive and finite"
    if record.mem_capacity_mb <= 0:
        return "mem_capacity_mb must be positive"
    if not 0.0 <= record.cpu_util <= 1.0:
        return "cpu_util must lie in [0, 1]"
    if not 0.0 <= record.mem_util <= 1.0:
        return "mem_util must lie in [0, 1]"
    return None


class LogStore:
    """Append-only profile database with validating ingestion.

    `latest` indexes the freshest accepted profile per host as it arrives,
    so a snapshot costs the number of hosts, not the length of the history.
    """

    def __init__(self):
        self.resources: list[HostProfile] = []
        # Always empty; read only by bench/tracing.py's store_records count.
        self.images: list = []
        self.perf: list = []
        self.latest = TelemetryView()

    def ingest(self, records) -> tuple[int, list]:
        """Returns (accepted count, [(record, reason), ...] for rejects)."""

        accepted = 0
        rejected = []
        for record in records:
            reason = validate_record(record)
            if reason is not None:
                rejected.append((record, reason))
                continue
            self.resources.append(record)
            self.latest.observe(record)
            accepted += 1
        return accepted, rejected

    def snapshot(self) -> list[HostProfile]:
        """Latest profile per host, ordered by host; feeds master syncs."""

        profiles = self.latest.host_profiles
        return [profiles[host] for host in sorted(profiles)]


def rate_from_profile(profile: HostProfile) -> float:
    """Work units per ms a host offers according to its latest profile."""

    return profile.cpu_freq_ghz * profile.cpu_cores * (1.0 - profile.cpu_util)


def sample_host(spec, compute, now: float, period_ms: float = PROFILE_PERIOD_MS) -> HostProfile:
    """Synthesize the profile an on-host profiler would report right now."""

    return HostProfile(
        host=spec.host,
        cpu_cores=spec.cpu_cores,
        cpu_freq_ghz=spec.cpu_freq_ghz,
        mem_capacity_mb=spec.mem_capacity_mb,
        cpu_util=compute.utilization(period_ms) if compute is not None else spec.base_cpu_util,
        mem_util=spec.base_mem_util,
        sampled_at=now,
    )


class TelemetryView:
    """One component's current knowledge of hosts.

    Masters are constructed with the topology as ground truth (the desk-scale
    stand-in for an initial profiling pass) and then fold in uploaded records,
    freshest sample winning.  Link costs are not sampled: they come from the
    topology alone.
    """

    def __init__(self, topology=None):
        self.topology = topology
        self.host_profiles: dict[str, HostProfile] = {}
        if topology is not None:
            for spec in topology.hosts.values():
                self.observe(sample_host(spec, None, 0.0))

    def observe(self, record):
        """Keeps the freshest profile per host: larger sampled_at wins, later insertion breaks ties."""

        if type(record) is not HostProfile:
            return
        held = self.host_profiles.get(record.host)
        if held is None or record.sampled_at >= held.sampled_at:
            self.host_profiles[record.host] = record

    def observe_all(self, records):
        for record in records:
            self.observe(record)

    def host_profile(self, host: str) -> HostProfile | None:
        return self.host_profiles.get(host)

    def host_rate(self, host: str) -> float:
        profile = self.host_profiles.get(host)
        if profile is None:
            raise KeyError(f"no profile for host {host}")
        return rate_from_profile(profile)


class RemoteLogger:
    """Central log sink.  Masters that upload get the latest snapshot back.

    It takes LogUpload only and ignores any other payload; no component
    probes the logger's port.  It counts the records it rejects.  A master
    is recognised by its source port: every master listens on MASTER_PORT,
    the port discovery probes, and no other component does.
    """

    def __init__(self, kernel, host: str, port: int = protocol.LOGGER_PORT):
        self.kernel = kernel
        self.addr = Address(host, port)
        self.store = LogStore()
        self.rejected = 0
        kernel.bind(self.addr, self.on_message)

    def on_message(self, envelope: MessageEnvelope):
        payload = envelope.payload
        if isinstance(payload, LogUpload):
            _, rejected = self.store.ingest(payload.records)
            self.rejected += len(rejected)
            if envelope.source.port == protocol.MASTER_PORT:
                self.kernel.send(
                    MessageEnvelope(
                        source=self.addr,
                        destination=envelope.source,
                        payload=LogUpload(records=self.store.snapshot()),
                    )
                )
