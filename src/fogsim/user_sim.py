"""The User component: workload driver and metrics probe.

A user sends one placement request to a master, under an id made from
its own address, and follows forwards to sub-masters with the same id
(the clocks never reset). It takes messages only from the master that
holds its request now, and counts the ones it ignores. Once resources are ready it streams data frames
at a fixed interval, recording the response time of every frame.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .netsim import SimKernel
from .protocol import (
    SENSOR_TASK,
    Address,
    Data,
    ForwardToMaster,
    MessageEnvelope,
    PlacementRequest,
    ResourcesReady,
    Result,
    WarnNoResources,
)
from .taskgraph import AppSpec

__all__ = ["UserConfig", "RequestMetrics", "User"]


@dataclass(frozen=True)
class UserConfig:
    host: str
    app: str
    master: Address
    frame_count: int = 1
    frame_interval_ms: float = 1000.0
    frame_size_bytes: int = 65536
    start_at_ms: float = 0.0
    timeout_ms: float = 120000.0
    # Sequenced starts: begin only after another user finishes, plus a delay.
    start_after_user: int | None = None
    start_after_delay_ms: float = 0.0

    def validate(self) -> None:
        if self.frame_count < 1:
            raise ValueError("frame_count must be at least 1")
        if self.frame_interval_ms < 0 or self.start_at_ms < 0 or self.start_after_delay_ms < 0:
            raise ValueError("durations must be non-negative")
        if self.frame_size_bytes <= 0:
            raise ValueError("frame_size_bytes must be positive")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")


@dataclass
class RequestMetrics:
    request_id: str
    app: str
    user_host: str
    outcome: str
    sft_ms: float | None = None
    estimate_ms: float | None = None
    rrt_ms: float | None = None
    response_ms: list = field(default_factory=list)
    forwards: int = 0


class User:
    """One request: register, await readiness, stream frames, collect times."""

    def __init__(self, kernel: SimKernel, config: UserConfig, app: AppSpec, port: int, on_done=None):
        config.validate()
        self.kernel = kernel
        self.config = config
        self.app = app
        self.address = Address(config.host, port)
        self.on_done = on_done
        self.request_id = f"{config.host}:{port}#0"
        self.current_master = config.master
        self.started = False
        self.done = False
        self.timed_out = False
        self.warned = False
        self.forwards = 0
        self.t0: float | None = None
        self.ready_at: float | None = None
        self.completed_at: float | None = None
        self._send_times: dict[int, float] = {}
        self.response_ms: dict[int, float] = {}
        self._partial: dict[int, set] = {}
        self._exits = frozenset(app.exit_tasks)
        self._timeout_event = None
        self.ignored = 0  # messages from any source but current_master

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self.started:
            return
        self.started = True
        self.kernel.bind(self.address, self._on_message)
        self.t0 = self.kernel.now
        self._request_placement()
        self._timeout_event = self.kernel.schedule(self.config.timeout_ms, self._on_timeout)

    def _send(self, dest: Address, payload) -> None:
        self.kernel.send(MessageEnvelope(self.address, dest, payload))

    def _request_placement(self) -> None:
        self._send(
            self.current_master,
            PlacementRequest(
                request_id=self.request_id, app=self.config.app, frame_size_bytes=self.config.frame_size_bytes
            ),
        )

    def _finish(self) -> None:
        if self.done:
            return
        self.done = True
        self.completed_at = self.kernel.now
        if self._timeout_event is not None:
            self._timeout_event.cancel()
        if self.on_done is not None:
            self.on_done(self)

    def _on_timeout(self) -> None:
        if not self.done:
            self.timed_out = True
            self._finish()

    # -- protocol ------------------------------------------------------------------

    def _on_message(self, env: MessageEnvelope) -> None:
        # Only the master holding the request speaks for it; every other source is ignored.
        if env.source != self.current_master:
            self.ignored += 1
            return
        payload = env.payload
        if isinstance(payload, ForwardToMaster):
            # It may hand the request on only before it is placed.
            if self.ready_at is None:
                self.forwards += 1
                self.current_master = payload.sub_master
                self._request_placement()
        elif isinstance(payload, WarnNoResources):
            if payload.request_id == self.request_id:
                self.warned = True
                self._finish()
        elif isinstance(payload, ResourcesReady):
            if payload.request_id == self.request_id and self.ready_at is None:
                self.ready_at = self.kernel.now
                self._stream_frames()
        elif isinstance(payload, Result):
            self._on_result(payload)

    def _stream_frames(self) -> None:
        base = self.kernel.now
        for seq in range(self.config.frame_count):
            self.kernel.schedule_at(base + seq * self.config.frame_interval_ms, self._make_sender(seq))

    def _make_sender(self, seq: int):
        def send_frame():
            if self.done:
                return
            self._send_times[seq] = self.kernel.now
            self._send(
                self.current_master,
                Data(
                    request_id=self.request_id,
                    frame_seq=seq,
                    size_bytes=self.config.frame_size_bytes,
                    task=SENSOR_TASK,
                    final=seq == self.config.frame_count - 1,
                ),
            )

        return send_frame

    def _on_result(self, msg: Result) -> None:
        if msg.request_id != self.request_id or msg.frame_seq in self.response_ms:
            return
        got = self._partial.setdefault(msg.frame_seq, set())
        got.add(msg.task)
        if not got >= self._exits:
            return
        sent = self._send_times.get(msg.frame_seq)
        if sent is None:
            return
        self.response_ms[msg.frame_seq] = self.kernel.now - sent
        if len(self.response_ms) == self.config.frame_count:
            self._finish()

    # -- reporting -------------------------------------------------------------------

    def metrics(self) -> RequestMetrics:
        if self.warned or self.timed_out or len(self.response_ms) < self.config.frame_count:
            outcome = "Warned"
        elif self.forwards:
            outcome = "Forwarded"
        else:
            outcome = "Completed"
        return RequestMetrics(
            request_id=self.request_id,
            app=self.config.app,
            user_host=self.config.host,
            outcome=outcome,
            rrt_ms=None if self.ready_at is None or self.t0 is None else self.ready_at - self.t0,
            response_ms=[self.response_ms[k] for k in sorted(self.response_ms)],
            forwards=self.forwards,
        )
