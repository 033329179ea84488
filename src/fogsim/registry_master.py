"""The Master component.

One master owns a registry of actors, takes placement
requests in FIFO order, prices its own scheduling work on the host it
runs on, and sends each placed task's actor an executor init request (the
actor serves it from its warm pool when it can). Each profile tick
it tells the masters it knows its load (queued plus in flight) when that
changed. When saturated it forwards a user to a known master that
reported a lower load, or else keeps the request at the head of its one
queue; knowing no master, it also asks an actor to start one. It also
relays the data path once all of a request's executors are ready: user
frames fan out to entry actors, exit results flow back to the user, and
the final result of every exit task marks the request complete.

A placement search is a pure function of what `search_key` gathers, so a
master keeps the searches it has solved in a memo: on a key it has met, it
takes the stored result and sets its history to what that search left,
building no response model and running no policy. The memo is a plain dict
that the masters of one run share; the run drops it when it returns.

A search draws from ``ga_policies.search_rng``; this module does not import
numpy. numpy loads at the first search that runs in the process (a memo hit
runs none), so a master pays for it on its first request, not at import.
"""
from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass, field

from .discovery import Discovery, DiscoveryConfig
from .ga_policies import POLICIES, GaParams, HistoryStore, search_rng
from .netsim import HostCompute, HostSpec, SimKernel
from .protocol import (
    MASTER_PORT,
    Address,
    AdvertiseMaster,
    Data,
    ExecutorReady,
    ForwardToMaster,
    InitNewMaster,
    InitTaskExecutor,
    LogUpload,
    MasterLoad,
    MessageEnvelope,
    PlacementRequest,
    Probe,
    ProbeReply,
    RegisterActor,
    ResourcesReady,
    Result,
    WarnNoResources,
)
from .scaler import ScaleCandidate, select_scale_target
from .scheduler import (
    ResponseModel,
    SchedulerConfig,
    build_task_actors_map,
    dependency_lists,
    scheduling_work_units,
)
from .taskgraph import AppSpec
from .telemetry import PROFILE_PERIOD_MS, STALE_PERIODS, TelemetryView, sample_host

__all__ = ["RegisteredActor", "PlacementState", "Master", "search_key"]


@dataclass
class RegisteredActor:
    """Registry row for one actor."""

    addr: Address
    images: set
    last_seen: float


@dataclass
class PlacementState:
    """Everything this master knows about one placement request."""

    request_id: str
    app: str
    user_addr: Address
    frame_size_bytes: int
    status: str = "queued"
    decided_at: float | None = None
    estimate: float | None = None
    assignment: dict = field(default_factory=dict)  # task -> actor Address
    ready: set = field(default_factory=set)
    final_exits: set = field(default_factory=set)


def search_key(policy: str, app: str, candidates: dict, view: TelemetryView, user_host: str, master_host: str,
               frame_size_bytes: int, ga_params: GaParams, entropy: tuple, history: HistoryStore) -> tuple:
    """Everything a placement search reads, as a hashable key.

    The candidate hosts of each task in candidate order, the view's rate of
    each of those hosts, the relay hosts, the frame size, the GA parameters,
    the generator's entropy and the app's history entries decide the search,
    given one topology and one app set.
    """
    hosts = tuple(tuple(actor.addr.host for actor in row) for row in candidates.values())
    rates = tuple(view.host_rate(host) for host in sorted({host for row in hosts for host in row}))
    past = tuple((genes.tobytes(), fitness) for genes, fitness in history.entries(app))
    return (policy, app, hosts, rates, user_host, master_host, int(frame_size_bytes), ga_params, entropy, past)


class Master:
    """Registry, scheduler pump, relay, scaler hook, and discovery owner."""

    def __init__(
        self,
        kernel: SimKernel,
        spec: HostSpec,
        compute: HostCompute,
        apps: dict[str, AppSpec],
        logger: Address | None = None,
        policy: str = "ohnsga",
        ga_params: GaParams | None = None,
        sched_config: SchedulerConfig | None = None,
        discovery_config: DiscoveryConfig | None = None,
        scaling_enabled: bool = True,
        profile_period_ms: float = PROFILE_PERIOD_MS,
        seed: int = 0,
        searches: dict | None = None,
    ):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        self.kernel = kernel
        self.spec = spec
        self.compute = compute
        self.apps = apps
        self.logger = logger
        self.policy = policy
        self.ga_params = ga_params or GaParams()
        self.sched_config = sched_config or SchedulerConfig()
        self.scaling_enabled = scaling_enabled
        self.period = profile_period_ms
        self.seed = seed
        self.address = Address(spec.host, MASTER_PORT)

        self.actors: dict[Address, RegisteredActor] = {}
        self.requests: dict[str, PlacementState] = {}
        self.queue: deque = deque()
        self.in_flight = 0
        self._sched_seq = 0
        self.known_masters: list[Address] = []
        self.peer_load: dict[Address, int] = {}  # queued + in flight, as last reported; unheard counts 0
        self._load_sent: dict[Address, tuple[int, int]] = {}  # last MasterLoad sent to each master
        self.pending_scale = False
        self.history = HistoryStore()
        # Placement searches solved so far, by search_key: shared by every
        # master of one run_scenario call, else this master's own.
        self.searches = {} if searches is None else searches
        self.view = TelemetryView(kernel.topology)

        self.warns = 0
        self.forwards = 0
        self.scales_requested = 0
        self.completed = 0
        self.protocol_anomalies = 0
        self.searches_reused = 0

        self.discovery = Discovery(kernel, kernel.topology, self.address, discovery_config or DiscoveryConfig())

    # -- plumbing ---------------------------------------------------------------------

    def _send(self, dest: Address, payload) -> None:
        self.kernel.send(MessageEnvelope(self.address, dest, payload))

    def start(self) -> None:
        self.kernel.bind(self.address, self._on_message)
        self.kernel.schedule(self.period, self._profile_tick)

    def adopt_scale_context(self, actor_addrs: list, requesters: list, grace_ms: float) -> None:
        """Bootstrap sequence for a master spawned by a scale request.

        Advertise to the parent's actors immediately so registrations are
        underway, then (one grace later) to the requesting masters, which
        then forward the head of their queues to us.
        """
        for addr in actor_addrs:
            self._send(addr, AdvertiseMaster(master=self.address))
        for parent in requesters:
            self._note_master(parent)  # requesters are masters: forward targets

        def notify_parents():
            for parent in requesters:
                self._send(parent, AdvertiseMaster(master=self.address))

        self.kernel.schedule(grace_ms, notify_parents)

    def _profile_tick(self) -> None:
        profile = sample_host(self.spec, self.compute, self.kernel.now, self.period)
        self.view.observe(profile)
        if self.logger is not None:
            self._send(self.logger, LogUpload(records=[profile]))
        self.discovery.maybe_tick(self.kernel.now, self.actors, self._note_master)
        self._pump()
        self._report_load()
        self.kernel.schedule(self.period, self._profile_tick)

    def _report_load(self) -> None:
        """Sends each known master this master's load when it differs from the last one sent there.

        A master that was never told counts this one as idle, so an idle
        master sends nothing.
        """
        load = (len(self.queue), self.in_flight)
        for addr in self.known_masters:
            if self._load_sent.get(addr, (0, 0)) != load:
                self._load_sent[addr] = load
                self._send(addr, MasterLoad(queued=load[0], in_flight=load[1]))

    # -- registry -----------------------------------------------------------------

    def _live_actors(self) -> list[RegisteredActor]:
        horizon = self.kernel.now - STALE_PERIODS * self.period
        return [entry for entry in self.actors.values() if entry.last_seen >= horizon]

    def _register_actor(self, source: Address, msg: RegisterActor) -> None:
        entry = self.actors.get(source)
        if entry is None:
            entry = RegisteredActor(
                addr=source,
                images=set(msg.images),
                last_seen=self.kernel.now,
            )
            self.actors[source] = entry
        else:
            entry.images = set(msg.images)
            entry.last_seen = self.kernel.now
        self.view.observe(msg.profile)

    def _enqueue(self, user_addr: Address, msg: PlacementRequest) -> None:
        """Queues a request under the id its user gave it, which a forward keeps; the id must name that user."""
        if msg.request_id.rpartition("#")[0] != str(user_addr):
            self.protocol_anomalies += 1  # a request under another address's id
            return
        state = self.requests.get(msg.request_id)
        if state is not None:
            # A request we forwarded away may bounce back when every master
            # is saturated; it re-enters the queue with its original clock.
            if state.status == "forwarded":
                state.status = "queued"
                self.queue.append(state)
                self._pump()
            else:
                self.protocol_anomalies += 1  # a second request under an id this master holds
            return
        state = PlacementState(
            request_id=msg.request_id,
            app=msg.app,
            user_addr=user_addr,
            frame_size_bytes=msg.frame_size_bytes,
        )
        self.requests[msg.request_id] = state
        self.queue.append(state)
        self._pump()

    # -- scheduling pump -----------------------------------------------------------

    def _pump(self) -> None:
        while self.queue:
            state = self.queue[0]
            live = self._live_actors()
            if not live or self.apps.get(state.app) is None:
                self.queue.popleft()
                self._warn(state)
                continue
            busy = (
                self.compute.utilization(self.period) > self.sched_config.max_cpu_util
                or self.in_flight > self.sched_config.max_sched_count
            )
            if not busy:
                self.queue.popleft()
                self._start_schedule(state, live)
                continue
            if not self.scaling_enabled or not self._forward_or_scale(state):
                return  # _commit, the next tick or a newly noted master pumps again

    def _warn(self, state: PlacementState) -> None:
        state.status = "warned"
        self.warns += 1
        self._send(state.user_addr, WarnNoResources(request_id=state.request_id))

    def _start_schedule(self, state: PlacementState, live: list) -> None:
        app = self.apps[state.app]
        candidates = build_task_actors_map(app, live)
        if any(not lst for lst in candidates.values()):
            self._warn(state)
            return
        state.status = "scheduling"
        self.in_flight += 1
        self._sched_seq += 1
        entropy = (self.seed, zlib.crc32(self.spec.host.encode()), self._sched_seq)
        key = search_key(self.policy, state.app, candidates, self.view, state.user_addr.host, self.spec.host,
                         state.frame_size_bytes, self.ga_params, entropy, self.history)
        solved = self.searches.get(key)
        if solved is None:
            model = ResponseModel(
                app,
                candidates,
                user_host=state.user_addr.host,
                master_host=self.spec.host,
                view=self.view,
                frame_size_bytes=state.frame_size_bytes,
            )
            result = POLICIES[self.policy](
                model.counts, model.estimate, self.ga_params, search_rng(entropy),
                history=self.history, app=state.app,
            )
            solved = self.searches[key] = (result.assignment, result.fitness, self.history.entries(state.app))
        else:
            # The search would return this placement and leave this history.
            self.history.restore(state.app, solved[2])
            self.searches_reused += 1
        assignment, fitness, _ = solved
        work = scheduling_work_units(self.policy, self.ga_params, self.sched_config)
        self.compute.submit(work, lambda: self._commit(state, app, candidates, assignment, fitness))

    def _commit(self, state: PlacementState, app: AppSpec, candidates: dict, assignment: tuple,
                fitness: float) -> None:
        self.in_flight -= 1
        state.decided_at = self.kernel.now
        state.estimate = fitness
        names = app.task_names()
        actor_by_task = {task: candidates[task][assignment[i]].addr for i, task in enumerate(names)}
        state.assignment = actor_by_task
        state.status = "waiting_ready"
        deps = dependency_lists(app, actor_by_task)
        for task in names:
            self._send(
                actor_by_task[task],
                InitTaskExecutor(request_id=state.request_id, app=state.app, task=task, dependencies=deps[task]),
            )
        self._pump()

    # -- saturation: forward or scale ------------------------------------------------

    def _best_submaster(self, own_load: int) -> Address | None:
        """The best known master by (latency, cpu_util, address) whose load, with one more request, is below own_load."""
        best = None
        best_key = None
        for addr in self.known_masters:
            if self.peer_load.get(addr, 0) + 1 >= own_load:
                continue
            latency = self.view.topology.link(self.spec.host, addr.host).latency_ms
            profile = self.view.host_profile(addr.host)
            util = profile.cpu_util if profile is not None else 0.0
            key = (latency, util, addr)
            if best_key is None or key < best_key:
                best, best_key = addr, key
        return best

    def _forward_or_scale(self, state: PlacementState) -> bool:
        """Forwards the queue's head to a less loaded master; if none qualifies, leaves it there and returns False.

        A master qualifies when its reported load, with this request added,
        is below this master's own (the queue, head included, plus the
        requests in flight). Knowing no master, and with no scale pending,
        it also asks for one to be started.
        """
        target = self._best_submaster(len(self.queue) + self.in_flight)
        if target is None:
            if not self.known_masters and not self.pending_scale:
                self._scale(state)
            return False
        self.queue.popleft()
        state.status = "forwarded"
        self.forwards += 1
        self.peer_load[target] = self.peer_load.get(target, 0) + 1
        self._send(state.user_addr, ForwardToMaster(sub_master=target))
        return True

    def _scale(self, state: PlacementState) -> None:
        """Asks the best live actor off this host to start a master; with none, it asks nothing."""
        live = self._live_actors()
        eligible = [entry for entry in live if entry.addr.host != self.spec.host]
        if not eligible:
            return
        choice = select_scale_target(
            [
                ScaleCandidate(
                    address=entry.addr,
                    profile=self.view.host_profile(entry.addr.host),
                    latency_ms=self.view.topology.link(state.user_addr.host, entry.addr.host).latency_ms,
                )
                for entry in eligible
            ]
        )
        self.pending_scale = True
        self.scales_requested += 1
        self._send(choice.address, InitNewMaster(actors=[entry.addr for entry in live]))

    def _note_master(self, addr: Address) -> None:
        if addr != self.address and addr not in self.known_masters:
            self.known_masters.append(addr)
            self._pump()

    # -- data path -------------------------------------------------------------------

    def _relay_data(self, source: Address, msg: Data) -> None:
        """Relays a user's frame to the request's entry actors, only from that user while streaming."""
        state = self.requests.get(msg.request_id)
        if state is None or state.status != "streaming" or source != state.user_addr:
            self.protocol_anomalies += 1
            return
        app = self.apps[state.app]
        seen: list[Address] = []
        for task in app.entry_tasks:
            addr = state.assignment[task]
            if addr not in seen:
                seen.append(addr)
                self._send(addr, msg)

    def _relay_result(self, msg: Result) -> None:
        state = self.requests.get(msg.request_id)
        if state is None:
            self.protocol_anomalies += 1
            return
        self._send(state.user_addr, msg)
        if not msg.final:
            return
        state.final_exits.add(msg.task)
        app = self.apps[state.app]
        if state.status == "streaming" and state.final_exits >= set(app.exit_tasks):
            state.status = "completed"
            self.completed += 1

    def _on_executor_ready(self, source: Address, msg: ExecutorReady) -> None:
        """Marks a task's executor ready; only the actor this master sent the task's init to may say so."""
        state = self.requests.get(msg.request_id)
        if state is None or state.assignment.get(msg.task) != source:
            self.protocol_anomalies += 1
            return
        if msg.task in state.ready:
            return
        state.ready.add(msg.task)
        if state.status == "waiting_ready" and state.ready == state.assignment.keys():
            state.status = "streaming"
            self._send(state.user_addr, ResourcesReady(request_id=msg.request_id))

    # -- dispatch ---------------------------------------------------------------------

    def _on_message(self, env: MessageEnvelope) -> None:
        payload = env.payload
        if isinstance(payload, RegisterActor):
            self._register_actor(env.source, payload)
        elif isinstance(payload, PlacementRequest):
            self._enqueue(env.source, payload)
        elif isinstance(payload, ExecutorReady):
            self._on_executor_ready(env.source, payload)
        elif isinstance(payload, Data):
            self._relay_data(env.source, payload)
        elif isinstance(payload, Result):
            self._relay_result(payload)
        elif isinstance(payload, Probe):
            self._send(env.source, ProbeReply(actors=list(self.actors)))
        elif isinstance(payload, ProbeReply):
            self.discovery.on_probe_reply(env.source, payload)
        elif isinstance(payload, AdvertiseMaster):
            self.pending_scale = False
            self._note_master(payload.master)
        elif isinstance(payload, MasterLoad):
            self.peer_load[env.source] = payload.queued + payload.in_flight
        elif isinstance(payload, LogUpload):
            self._on_log_upload(env.source, payload)
        else:
            self.protocol_anomalies += 1

    def _on_log_upload(self, source: Address, msg: LogUpload) -> None:
        self.view.observe_all(msg.records)
        entry = self.actors.get(source)
        if entry is not None:
            entry.last_seen = self.kernel.now
