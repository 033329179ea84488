"""The Actor component and the task-executor lifecycle.

An actor owns one host: it profiles the host, launches task executors
on request, pools finished executors during their cool-off window and
serves an init request from that pool when it holds one, and can
bootstrap a brand-new master on its host when a saturated master asks
for one.

Executors are in-process state machines, not containers. The cost of a
container cold start is modeled by a startup delay; cold startups on
one host serialize through a single lane, which is what makes warm
reuse visibly cheaper end to end.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .errors import ProtocolError
from .netsim import HostCompute, HostSpec, SimKernel
from .protocol import (
    ACTOR_PORT,
    EXECUTOR_PORT_BASE,
    MASTER_PORT,
    SENSOR_TASK,
    Address,
    AdvertiseMaster,
    Data,
    ExecutorReady,
    InitNewMaster,
    InitTaskExecutor,
    LogUpload,
    MessageEnvelope,
    Probe,
    ProbeReply,
    RegisterActor,
    Result,
)
from .taskgraph import AppSpec
from .telemetry import PROFILE_PERIOD_MS, sample_host

__all__ = ["ActorConfig", "ExecutorPhase", "TaskExecutor", "Actor"]


@dataclass(frozen=True)
class ActorConfig:
    executor_startup_ms: float = 1500.0
    cool_off_ms: float = 30000.0
    master_startup_ms: float = 500.0
    scale_grace_ms: float = 50.0

    def validate(self) -> None:
        for name in ("executor_startup_ms", "cool_off_ms", "master_startup_ms", "scale_grace_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class ExecutorPhase(Enum):
    Initializing = "Initializing"
    Connecting = "Connecting"
    Ready = "Ready"
    Running = "Running"
    CoolingOff = "CoolingOff"
    Terminated = "Terminated"


# Transitions the state machine may take; anything else is a bug.
_LEGAL = {
    ExecutorPhase.Initializing: {ExecutorPhase.Connecting},
    ExecutorPhase.Connecting: {ExecutorPhase.Ready},
    ExecutorPhase.Ready: {ExecutorPhase.Running, ExecutorPhase.CoolingOff},
    ExecutorPhase.Running: {ExecutorPhase.CoolingOff},
    ExecutorPhase.CoolingOff: {ExecutorPhase.Connecting, ExecutorPhase.Terminated},
    ExecutorPhase.Terminated: set(),
}


@dataclass
class _FrameJoin:
    got: set = field(default_factory=set)
    final: bool = False


class TaskExecutor:
    """One task of one request, bound to its own port on the actor's host."""

    def __init__(self, address: Address, app: str, task: str, request_id: str, master: Address):
        self.address = address
        self.app_name = app
        self.task_name = task
        self.request_id: str | None = request_id
        self.master = master
        self.phase = ExecutorPhase.Initializing
        self.peers: dict[str, Address] = {}
        self.parents_needed: frozenset = frozenset()
        self.child_addrs: list[Address] = []
        self.pending_probes: set[Address] = set()
        self.frames: dict[int, _FrameJoin] = {}
        self.ready_frames: list[int] = []
        self.running = False
        self.saw_final = False
        self.cool_timer = None

    def _move(self, phase: ExecutorPhase) -> None:
        if phase not in _LEGAL[self.phase]:
            raise ProtocolError(f"executor {self.task_name}: illegal {self.phase.value} -> {phase.value}")
        self.phase = phase

    def rewire(self, app: AppSpec, dependencies: list) -> None:
        """Digest the dependency list into join sets and forward targets."""
        self.peers = {task: addr for task, addr in dependencies}
        parents = app.parents(self.task_name)
        self.parents_needed = frozenset(parents) if parents else frozenset({SENSOR_TASK})
        children = app.children(self.task_name)
        addrs: list[Address] = []
        for child in children:
            addr = self.peers[child]
            if addr not in addrs:
                addrs.append(addr)
        self.child_addrs = addrs


class Actor:
    """Per-host agent: profiler, executor initiator, master initiator."""

    def __init__(
        self,
        kernel: SimKernel,
        spec: HostSpec,
        compute: HostCompute,
        apps: dict[str, AppSpec],
        images: set[str],
        masters: list[Address],
        logger: Address | None,
        config: ActorConfig | None = None,
        spawn_master: Callable[[str], object] | None = None,
        profile_period_ms: float = PROFILE_PERIOD_MS,
    ):
        self.kernel = kernel
        self.spec = spec
        self.compute = compute
        self.apps = apps
        self.images = set(images)
        self.initial_masters = list(masters)
        self.logger = logger
        self.config = config or ActorConfig()
        self.config.validate()
        self.spawn_master = spawn_master
        self.period = profile_period_ms
        self.address = Address(spec.host, ACTOR_PORT)

        self.registered_masters: list[Address] = []
        self.executors: dict[Address, TaskExecutor] = {}
        self.by_request: dict[str, list[TaskExecutor]] = {}
        self.pool: dict[str, deque] = {}
        self._lane: deque = deque()
        self._lane_busy = False
        self._next_port = EXECUTOR_PORT_BASE
        self._master_pending = False
        self._master_requesters: list[Address] = []
        self._master_seed_actors: list[Address] = []

        self.cold_starts = 0
        self.warm_reuses = 0
        self.unknown_inputs = 0
        self.anomalies = 0
        self.terminated = 0

    # -- wiring ---------------------------------------------------------------

    def start(self) -> None:
        self.kernel.bind(self.address, self._on_message)
        for master in self.initial_masters:
            self._register_with(master)
        self.kernel.schedule(self.period, self._profile_tick)

    def _send(self, dest: Address, payload, source: Address | None = None) -> None:
        self.kernel.send(MessageEnvelope(source or self.address, dest, payload))

    def _register_with(self, master: Address) -> None:
        if master in self.registered_masters:
            return
        self.registered_masters.append(master)
        profile = sample_host(self.spec, self.compute, self.kernel.now, self.period)
        self._send(master, RegisterActor(profile=profile, images=sorted(self.images)))

    def _profile_tick(self) -> None:
        profile = sample_host(self.spec, self.compute, self.kernel.now, self.period)
        if self.logger is not None:
            self._send(self.logger, LogUpload(records=[profile]))
        for master in self.registered_masters:
            self._send(master, LogUpload(records=[profile]))
        self.kernel.schedule(self.period, self._profile_tick)

    # -- message handling -------------------------------------------------------

    def _on_message(self, env: MessageEnvelope) -> None:
        payload = env.payload
        if isinstance(payload, Probe):
            self._send(env.source, ProbeReply())
        elif isinstance(payload, AdvertiseMaster):
            self._register_with(payload.master)
        elif isinstance(payload, InitTaskExecutor):
            app = self._servable(payload)
            if app is None:
                self.anomalies += 1
            elif self.pool.get(payload.task):
                self._reuse_executor(payload, app, env.source)
            else:
                self._init_executor(payload, app, env.source)
        elif isinstance(payload, InitNewMaster):
            self._init_master_here(env.source, payload)
        elif isinstance(payload, Data):
            self._route_data(env.source, payload)
        else:
            self.anomalies += 1

    def _on_executor_message(self, exec_addr: Address, env: MessageEnvelope) -> None:
        executor = self.executors.get(exec_addr)
        if executor is None:
            self.anomalies += 1
            return
        if isinstance(env.payload, ProbeReply):
            executor.pending_probes.discard(env.source)
            if executor.phase is ExecutorPhase.Connecting and not executor.pending_probes:
                self._mark_ready(executor)
        else:
            self.anomalies += 1

    # -- executor lifecycle -------------------------------------------------------

    def _servable(self, msg: InitTaskExecutor) -> AppSpec | None:
        """The app of an init request, or None if this actor cannot run the request as sent."""
        app = self.apps.get(msg.app)
        if app is None or msg.task not in app.tasks or (msg.task not in self.images and "*" not in self.images):
            return None
        wired = {task for task, _ in msg.dependencies}
        return app if wired.issuperset(app.children(msg.task)) else None

    def _init_executor(self, msg: InitTaskExecutor, app: AppSpec, master: Address) -> None:
        addr = Address(self.spec.host, self._next_port)
        self._next_port += 1
        executor = TaskExecutor(addr, msg.app, msg.task, msg.request_id, master)
        executor.rewire(app, msg.dependencies)
        self.executors[addr] = executor
        self.by_request.setdefault(msg.request_id, []).append(executor)
        self.kernel.bind(addr, lambda env: self._on_executor_message(addr, env))
        self.cold_starts += 1
        self._lane.append(executor)
        self._pump_lane()

    def _pump_lane(self) -> None:
        if self._lane_busy or not self._lane:
            return
        executor = self._lane.popleft()
        self._lane_busy = True

        def started():
            self._lane_busy = False
            self._begin_connecting(executor)
            self._pump_lane()

        self.kernel.schedule(self.config.executor_startup_ms, started)

    def _begin_connecting(self, executor: TaskExecutor) -> None:
        executor._move(ExecutorPhase.Connecting)
        targets = []
        for addr in executor.peers.values():
            if addr != self.address and addr not in targets:
                targets.append(addr)
        executor.pending_probes = set(targets)
        if not targets:
            self._mark_ready(executor)
            return
        for addr in targets:
            self._send(addr, Probe(), source=executor.address)

    def _mark_ready(self, executor: TaskExecutor) -> None:
        executor._move(ExecutorPhase.Ready)
        self._send(executor.master, ExecutorReady(request_id=executor.request_id, task=executor.task_name))

    def _reuse_executor(self, msg: InitTaskExecutor, app: AppSpec, master: Address) -> None:
        """Serves an init request from this task's warm pool, skipping the cold start."""
        executor: TaskExecutor = self.pool[msg.task].popleft()
        if executor.cool_timer is not None:
            executor.cool_timer.cancel()
            executor.cool_timer = None
        executor.request_id = msg.request_id
        executor.app_name = msg.app
        executor.master = master
        executor.rewire(app, msg.dependencies)
        executor.frames = {}
        executor.ready_frames = []
        executor.saw_final = False
        self.by_request.setdefault(msg.request_id, []).append(executor)
        self.warm_reuses += 1
        self._begin_connecting(executor)

    def _route_data(self, source: Address, msg: Data) -> None:
        """Feeds a frame to the request's executors that take its producer task.

        A sensor frame must come from the executor's master and a task output
        from the host of that task's actor; on this actor's own host, from
        one of its executors of that task, which may be cooling off already.
        Any other frame counts in anomalies and reaches no executor.
        """
        takers = [
            executor
            for executor in self.by_request.get(msg.request_id, [])
            if msg.task in executor.parents_needed
        ]
        if not takers:
            self.unknown_inputs += 1
            return
        for executor in takers:
            if msg.task == SENSOR_TASK:
                rightful = source == executor.master
            else:
                producer = executor.peers.get(msg.task)
                rightful = producer is not None and source.host == producer.host
                if rightful and source.host == self.spec.host:
                    sender = self.executors.get(source)
                    rightful = sender is not None and sender.task_name == msg.task
            if rightful:
                self._deliver_frame(executor, msg)
            else:
                self.anomalies += 1

    def _deliver_frame(self, executor: TaskExecutor, msg: Data) -> None:
        if executor.phase not in (ExecutorPhase.Ready, ExecutorPhase.Running):
            self.anomalies += 1
            return
        if executor.phase is ExecutorPhase.Ready:
            executor._move(ExecutorPhase.Running)
        frame = executor.frames.setdefault(msg.frame_seq, _FrameJoin())
        if msg.task in frame.got:
            self.anomalies += 1
            return
        frame.got.add(msg.task)
        frame.final = frame.final or msg.final
        if frame.got >= executor.parents_needed:
            executor.ready_frames.append(msg.frame_seq)
            self._pump_executor(executor)

    def _pump_executor(self, executor: TaskExecutor) -> None:
        if executor.running or not executor.ready_frames:
            return
        seq = min(executor.ready_frames)
        executor.ready_frames.remove(seq)
        executor.running = True
        task = self.apps[executor.app_name].tasks[executor.task_name]
        self.compute.submit(task.compute_cost, lambda: self._frame_done(executor, seq))

    def _frame_done(self, executor: TaskExecutor, seq: int) -> None:
        executor.running = False
        frame = executor.frames.pop(seq)
        task = self.apps[executor.app_name].tasks[executor.task_name]
        if executor.child_addrs:
            for addr in executor.child_addrs:
                self._send(
                    addr,
                    Data(
                        request_id=executor.request_id,
                        frame_seq=seq,
                        size_bytes=task.output_size_bytes,
                        task=executor.task_name,
                        final=frame.final,
                    ),
                    source=executor.address,
                )
        else:
            self._send(
                executor.master,
                Result(
                    request_id=executor.request_id,
                    frame_seq=seq,
                    task=executor.task_name,
                    size_bytes=task.output_size_bytes,
                    final=frame.final,
                ),
                source=executor.address,
            )
        if frame.final:
            executor.saw_final = True
        if executor.saw_final and not executor.ready_frames and not executor.frames:
            self._enter_cooloff(executor)
        else:
            self._pump_executor(executor)

    def _enter_cooloff(self, executor: TaskExecutor) -> None:
        executor._move(ExecutorPhase.CoolingOff)
        request_id = executor.request_id
        executor.request_id = None
        executor.saw_final = False
        if request_id is not None:
            peers = self.by_request.get(request_id, [])
            if executor in peers:
                peers.remove(executor)
            if not peers:
                self.by_request.pop(request_id, None)
        self.pool.setdefault(executor.task_name, deque()).append(executor)
        executor.cool_timer = self.kernel.schedule(self.config.cool_off_ms, lambda: self._terminate(executor))

    def _terminate(self, executor: TaskExecutor) -> None:
        if executor.phase is not ExecutorPhase.CoolingOff:
            return
        executor._move(ExecutorPhase.Terminated)
        pool = self.pool.get(executor.task_name)
        if pool and executor in pool:
            pool.remove(executor)
        self.executors.pop(executor.address, None)
        self.kernel.unbind(executor.address)
        self.terminated += 1

    # -- master initiation ---------------------------------------------------------

    def _init_master_here(self, requester: Address, msg: InitNewMaster) -> None:
        master_addr = Address(self.spec.host, MASTER_PORT)
        if self.kernel.is_bound(master_addr):
            self._send(requester, AdvertiseMaster(master=master_addr))
            return
        self._master_requesters.append(requester)
        for addr in msg.actors:
            if addr not in self._master_seed_actors:
                self._master_seed_actors.append(addr)
        if self._master_pending:
            return
        if self.spawn_master is None:
            raise ProtocolError(f"actor {self.spec.host} cannot start a master: no factory")
        self._master_pending = True

        def boot():
            master = self.spawn_master(self.spec.host)
            requesters, self._master_requesters = self._master_requesters, []
            seeds, self._master_seed_actors = self._master_seed_actors, []
            self._master_pending = False
            master.adopt_scale_context(seeds, requesters, self.config.scale_grace_ms)

        self.kernel.schedule(self.config.master_startup_ms, boot)
