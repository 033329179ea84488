"""Telemetry: append-only log stores, profile views, and the remote logger.

Three databases mirror what the orchestration components record about the
system: task images present on hosts, host resource profiles, and performance
samples (processing, response).  Ingestion validates each record
individually and reports a reason per rejected record; accepted records are
append-only.  The freshest view of any host is the record with the largest
sampled_at, later insertion winning ties.
"""

from __future__ import annotations

import math
from operator import attrgetter

from . import protocol
from .protocol import (
    Address,
    ComponentKind,
    HostProfile,
    ImageRecord,
    LogUpload,
    MessageEnvelope,
    Probe,
    ProbeReply,
    ProcessingSample,
    ResponseSample,
    RECORD_TYPES,
)

PROFILE_PERIOD_MS = 1000.0
STALE_PERIODS = 3


def validate_record(record) -> str | None:
    """Reason the record is unacceptable, or None if it is fine."""

    if not isinstance(record, RECORD_TYPES):
        return f"not a telemetry record: {type(record).__name__}"
    if record.sampled_at < 0 or not math.isfinite(record.sampled_at):
        return "sampled_at must be a finite non-negative time"
    if isinstance(record, HostProfile):
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
    elif isinstance(record, ImageRecord):
        if not record.task:
            return "task name must be non-empty"
    elif isinstance(record, ProcessingSample):
        if record.processing_ms < 0:
            return "processing_ms must be non-negative"
    elif isinstance(record, ResponseSample):
        if record.response_ms < 0:
            return "response_ms must be non-negative"
    return None


class LogStore:
    """Append-only record databases with validating ingestion.

    `latest` indexes the freshest accepted record per key as it arrives, so
    a snapshot costs the number of keys, not the length of the history.
    """

    def __init__(self):
        self.images: list[ImageRecord] = []
        self.resources: list[HostProfile] = []
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
            if isinstance(record, ImageRecord):
                self.images.append(record)
            elif isinstance(record, HostProfile):
                self.resources.append(record)
            else:
                self.perf.append(record)
            self.latest.observe(record)
            accepted += 1
        return accepted, rejected

    def snapshot(self) -> list:
        """Latest record per key, deterministically ordered; feeds master syncs."""

        out = []
        for table in (self.latest.host_profiles, self.latest.images):
            out.extend(table[key] for key in sorted(table))
        return out


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
    """One component's current knowledge of hosts and images.

    Masters are constructed with the topology as ground truth (the desk-scale
    stand-in for an initial profiling pass) and then fold in uploaded records,
    freshest sample winning.  Link costs are not sampled: they come from the
    topology alone.
    """

    def __init__(self, topology=None):
        self.topology = topology
        self.host_profiles: dict[str, HostProfile] = {}
        self.images: dict[tuple[str, str], ImageRecord] = {}
        self._tables = {
            HostProfile: (self.host_profiles, attrgetter("host")),
            ImageRecord: (self.images, attrgetter("host", "task")),
        }
        if topology is not None:
            for spec in topology.hosts.values():
                self.observe(sample_host(spec, None, 0.0))

    def observe(self, record):
        """Keeps the freshest record per key: larger sampled_at wins, later insertion breaks ties."""

        entry = self._tables.get(type(record))
        if entry is None:
            return
        table, key_of = entry
        key = key_of(record)
        held = table.get(key)
        if held is None or record.sampled_at >= held.sampled_at:
            table[key] = record

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
    """Central log sink.  Masters that upload get the latest snapshot back."""

    def __init__(self, kernel, host: str, port: int = protocol.LOGGER_PORT):
        self.kernel = kernel
        self.addr = Address(host, port)
        self.store = LogStore()
        self.rejections: list = []
        kernel.bind(self.addr, self.on_message)

    def on_message(self, envelope: MessageEnvelope):
        payload = envelope.payload
        if isinstance(payload, Probe):
            self.kernel.send(
                MessageEnvelope(
                    source=self.addr,
                    destination=envelope.source,
                    payload=ProbeReply(kind=ComponentKind.RemoteLogger, actors=[]),
                )
            )
        elif isinstance(payload, LogUpload):
            _, rejected = self.store.ingest(payload.records)
            self.rejections.extend(rejected)
            sender = envelope.sender_id
            if sender is not None and sender.kind == ComponentKind.Master:
                self.kernel.send(
                    MessageEnvelope(
                        source=self.addr,
                        destination=envelope.source,
                        payload=LogUpload(records=self.store.snapshot()),
                    )
                )
