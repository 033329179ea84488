"""Actor and executor lifecycle: lanes, joins, cool-off, reuse, master boot."""
import pytest

from fogsim.actor_runtime import Actor, ActorConfig, ExecutorPhase
from fogsim.errors import ProtocolError
from fogsim.netsim import HostCompute, LinkSpec, SimKernel, Topology, host_from_class
from fogsim.protocol import (
    ACTOR_PORT,
    LOGGER_PORT,
    MASTER_PORT,
    SENSOR_TASK,
    Address,
    AdvertiseMaster,
    Data,
    ExecutorReady,
    HostProfile,
    InitNewMaster,
    InitTaskExecutor,
    LogUpload,
    MessageEnvelope,
    Probe,
    ProbeReply,
    RegisterActor,
    Result,
)
from fogsim.taskgraph import AppSpec, TaskSpec

MASTER = Address("m", MASTER_PORT)
LOGGER = Address("m", LOGGER_PORT)
PEER = Address("p", ACTOR_PORT)


def solo_app():
    tasks = {"solo": TaskSpec(name="solo", compute_cost=288.0, output_size_bytes=512)}
    return AppSpec(name="Solo", tasks=tasks, edges=[], entry_tasks=["solo"], exit_tasks=["solo"])


def join_app():
    tasks = {n: TaskSpec(name=n, compute_cost=288.0, output_size_bytes=512) for n in ("s", "t", "j")}
    return AppSpec(name="Join", tasks=tasks, edges=[("s", "j"), ("t", "j")],
                   entry_tasks=["s", "t"], exit_tasks=["j"])


class Harness:
    def __init__(self, images=("*",), logger=None, spawn_master=None, **cfg):
        hosts = [host_from_class(h, "desktop") for h in ("w", "m", "p")]
        self.kernel = SimKernel(Topology(hosts, {}, LinkSpec(1.0, 100e6)))
        self.master_inbox = []
        self.kernel.bind(MASTER, lambda env: self.master_inbox.append((self.kernel.now, env)))
        self.logger_inbox = []
        if logger:
            self.kernel.bind(LOGGER, lambda env: self.logger_inbox.append((self.kernel.now, env)))
        self.kernel.bind(PEER, self._peer)
        spec = self.kernel.topology.hosts["w"]
        self.apps = {"Solo": solo_app(), "Join": join_app()}
        self.actor = Actor(
            kernel=self.kernel,
            spec=spec,
            compute=HostCompute(self.kernel, spec),
            apps=self.apps,
            images=set(images),
            masters=[MASTER],
            logger=LOGGER if logger else None,
            config=ActorConfig(**cfg),
            spawn_master=spawn_master,
        )
        self.actor.start()

    def _peer(self, env):
        if isinstance(env.payload, Probe):
            self.kernel.send(MessageEnvelope(PEER, env.source, ProbeReply()))

    def tell(self, payload, source=MASTER):
        self.kernel.send(MessageEnvelope(source, self.actor.address, payload))

    def run(self, until=10000.0):
        self.kernel.run(until_ms=until)

    def master_payloads(self, kind):
        return [(t, e.payload) for t, e in self.master_inbox if isinstance(e.payload, kind)]


def test_config_validation():
    ActorConfig().validate()
    with pytest.raises(ValueError, match="cool_off_ms"):
        ActorConfig(cool_off_ms=-1.0).validate()


def test_start_registers_images_and_uploads_only_profiles():
    h = Harness(images=("OCR", "KeyFrameFilter"), logger=True)
    h.run(until=1500.0)
    regs = h.master_payloads(RegisterActor)
    assert len(regs) == 1
    assert regs[0][1].images == ["KeyFrameFilter", "OCR"]
    assert regs[0][1].profile.host == "w"
    # The images travel in RegisterActor only; the logger hears one profile per period, from the first tick.
    uploads = [(t, e.payload) for t, e in h.logger_inbox]
    assert [t for t, _ in uploads] == [pytest.approx(1000.0, abs=50.0)]
    assert all(isinstance(u, LogUpload) and [type(r) for r in u.records] == [HostProfile] for _, u in uploads)


def test_profile_tick_feeds_logger_and_masters():
    h = Harness(logger=True)
    h.run(until=2500.0)
    profiles = [r for _, e in h.logger_inbox for r in e.payload.records
                if isinstance(r, HostProfile)]
    assert len(profiles) >= 2  # one per period
    master_profiles = [p for _, p in self_uploads(h)]
    assert len(master_profiles) >= 2


def self_uploads(h):
    return [(t, r) for t, e in h.master_inbox if isinstance(e.payload, LogUpload)
            for r in e.payload.records if isinstance(r, HostProfile)]


def test_probe_answered_from_the_actor_port_with_no_actor_list():
    h = Harness()
    h.tell(Probe())
    h.run(until=50.0)
    replies = [e for _, e in h.master_inbox if isinstance(e.payload, ProbeReply)]
    assert len(replies) == 1
    assert replies[0].source == h.actor.address and replies[0].payload.actors == []


def test_advertise_master_registers_once():
    h = Harness()
    other = Address("p", MASTER_PORT)
    h.tell(AdvertiseMaster(master=other))
    h.tell(AdvertiseMaster(master=other))
    h.run(until=100.0)
    assert h.actor.registered_masters == [MASTER, other]


def init_msg(request_id="r1", app="Solo", task="solo", dependencies=()):
    return InitTaskExecutor(request_id=request_id, app=app, task=task,
                            dependencies=list(dependencies))


def assert_dropped(h, anomalies=1):
    assert h.actor.anomalies == anomalies
    assert h.actor.cold_starts == 0 and h.actor.executors == {} and h.actor.by_request == {}
    assert h.actor._next_port == 5200  # no port allocated
    assert h.master_payloads(ExecutorReady) == []


def test_missing_image_and_unknown_app_are_counted_anomalies():
    h = Harness(images=("OCR",))
    h.tell(init_msg())
    h.run(until=3000.0)
    assert_dropped(h)
    h2 = Harness()
    h2.tell(init_msg(app="Mystery"))
    h2.tell(init_msg(task="nosuchtask"))
    h2.run(until=3000.0)
    assert_dropped(h2, anomalies=2)


def test_dependency_list_missing_a_child_address_is_an_anomaly():
    h = Harness(executor_startup_ms=100.0)
    h.tell(init_msg(app="Join", task="s", dependencies=[("t", PEER)]))  # no address for child j
    h.run(until=3000.0)
    assert_dropped(h)


def test_reuse_of_an_unknown_app_keeps_the_pool():
    h = Harness(executor_startup_ms=100.0, cool_off_ms=30000.0)
    run_solo_request(h, "r1")
    executor = h.actor.pool["solo"][0]
    h.tell(init_msg("r2", app="Mystery"))
    h.run(until=h.kernel.now + 3000.0)
    assert h.actor.anomalies == 1 and h.actor.warm_reuses == 0 and h.actor.cold_starts == 1
    assert list(h.actor.pool["solo"]) == [executor]
    assert executor.phase is ExecutorPhase.CoolingOff and executor.request_id is None
    assert len(h.master_payloads(ExecutorReady)) == 1  # r1's only


def test_cold_starts_serialize_through_one_lane():
    h = Harness(executor_startup_ms=1500.0)
    h.tell(init_msg("r1"))
    h.tell(init_msg("r2"))
    h.run(until=6000.0)
    ready = h.master_payloads(ExecutorReady)
    assert [p.request_id for _, p in ready] == ["r1", "r2"]
    assert ready[1][0] - ready[0][0] == pytest.approx(1500.0)
    assert h.actor.cold_starts == 2
    ports = sorted(e.address.port for e in h.actor.executors.values())
    assert ports == [5200, 5201]


def test_connecting_probes_remote_peer_actors_before_ready():
    h = Harness(executor_startup_ms=100.0)
    h.tell(init_msg(app="Join", task="j", dependencies=[("s", PEER), ("t", PEER)]))
    h.run(until=5000.0)
    ready = h.master_payloads(ExecutorReady)
    assert len(ready) == 1
    # startup, then a probe round trip to the peer actor before Ready
    assert ready[0][0] > 100.0 + 2 * 1.0
    executor = next(iter(h.actor.executors.values()))
    assert executor.phase is ExecutorPhase.Ready
    assert executor.pending_probes == set()


def test_local_peers_need_no_probes():
    h = Harness(executor_startup_ms=100.0)
    local = h.actor.address
    h.tell(init_msg(app="Join", task="j", dependencies=[("s", local), ("t", local)]))
    h.run(until=5000.0)
    executor = next(iter(h.actor.executors.values()))
    assert executor.phase is ExecutorPhase.Ready
    assert executor.child_addrs == []


def run_solo_request(h, request_id="r1", frames=1):
    h.tell(init_msg(request_id))
    h.run(until=h.kernel.now + 3000.0)
    for seq in range(frames):
        h.tell(Data(request_id=request_id, frame_seq=seq, size_bytes=1000,
                    task=SENSOR_TASK, final=seq == frames - 1))
    h.run(until=h.kernel.now + 3000.0)


def test_frame_flows_to_result_and_cooloff():
    h = Harness(executor_startup_ms=100.0, cool_off_ms=30000.0)
    run_solo_request(h, frames=2)
    results = h.master_payloads(Result)
    assert [(p.frame_seq, p.final) for _, p in results] == [(0, False), (1, True)]
    assert all(p.size_bytes == 512 for _, p in results)
    executor = next(iter(h.actor.executors.values()))
    assert executor.phase is ExecutorPhase.CoolingOff
    assert h.actor.by_request == {}
    assert len(h.actor.pool["solo"]) == 1
    # processing latency is cost over the host rate
    assert results[1][0] - results[0][0] == pytest.approx(288.0 / 28.8)


def test_join_waits_for_every_parent_and_flags_duplicates():
    h = Harness(executor_startup_ms=100.0)
    local = h.actor.address
    h.tell(init_msg(app="Join", task="j", dependencies=[("s", local), ("t", local)]))
    h.run(until=2000.0)
    # Both parents run on this actor's host, so their outputs come from it.
    h.tell(Data(request_id="r1", frame_seq=0, size_bytes=10, task="s", final=True), source=local)
    h.run(until=h.kernel.now + 500.0)
    assert h.master_payloads(Result) == []
    h.tell(Data(request_id="r1", frame_seq=0, size_bytes=10, task="s", final=True), source=local)
    h.run(until=h.kernel.now + 500.0)
    assert h.actor.anomalies == 1  # duplicate (task, frame)
    h.tell(Data(request_id="r1", frame_seq=0, size_bytes=10, task="t", final=True), source=local)
    h.run(until=h.kernel.now + 500.0)
    assert [(p.frame_seq, p.task, p.final) for _, p in h.master_payloads(Result)] == [(0, "j", True)]


def test_data_for_unknown_request_is_counted():
    h = Harness()
    h.tell(Data(request_id="ghost", frame_seq=0, size_bytes=10, task=SENSOR_TASK, final=True))
    h.run(until=100.0)
    assert h.actor.unknown_inputs == 1


def test_frame_before_ready_is_an_anomaly():
    h = Harness(executor_startup_ms=5000.0)
    h.tell(init_msg())
    h.run(until=500.0)  # still initializing in the lane
    h.tell(Data(request_id="r1", frame_seq=0, size_bytes=10, task=SENSOR_TASK, final=True))
    h.run(until=1000.0)
    assert h.actor.anomalies == 1


def test_cooloff_expires_into_termination():
    h = Harness(executor_startup_ms=100.0, cool_off_ms=2000.0)
    h.tell(init_msg("r1"))
    h.run(until=1000.0)
    executor = next(iter(h.actor.executors.values()))
    addr = executor.address
    h.tell(Data(request_id="r1", frame_seq=0, size_bytes=1000, task=SENSOR_TASK, final=True))
    h.run(until=1500.0)
    assert executor.phase is ExecutorPhase.CoolingOff
    h.run(until=5000.0)
    assert executor.phase is ExecutorPhase.Terminated
    assert h.actor.terminated == 1
    assert addr not in h.actor.executors
    assert not h.kernel.is_bound(addr)
    assert not h.actor.pool["solo"]


def test_warm_reuse_pops_the_pool_and_cancels_termination():
    h = Harness(executor_startup_ms=1500.0, cool_off_ms=5000.0)
    run_solo_request(h, "r1")
    executor = next(iter(h.actor.executors.values()))
    t_reuse = h.kernel.now
    h.tell(init_msg("r2"))
    h.run(until=t_reuse + 3000.0)
    assert h.actor.warm_reuses == 1 and h.actor.cold_starts == 1
    ready = h.master_payloads(ExecutorReady)
    # the warm path skips the startup lane: ready after one network hop each way
    assert len(ready) == 2
    assert ready[1][0] - t_reuse < 100.0
    assert executor.request_id == "r2"
    h.run(until=t_reuse + 12000.0)
    assert executor.phase is not ExecutorPhase.Terminated
    assert h.actor.terminated == 0


def test_a_request_after_the_cool_off_gets_a_cold_start():
    h = Harness(executor_startup_ms=100.0, cool_off_ms=500.0)
    run_solo_request(h, "r1")
    h.run(until=h.kernel.now + 1000.0)  # cool-off expires, pool drains
    h.tell(init_msg("r2"))
    h.run(until=h.kernel.now + 2000.0)
    assert h.actor.cold_starts == 2 and h.actor.warm_reuses == 0
    assert len(h.master_payloads(ExecutorReady)) == 2


def test_a_warm_executor_is_reused_for_another_master():
    h = Harness(executor_startup_ms=1500.0, cool_off_ms=30000.0)
    other = Address("p", MASTER_PORT)
    other_inbox = []
    h.kernel.bind(other, lambda env: other_inbox.append(env.payload))
    run_solo_request(h, "r1")
    executor = h.actor.pool["solo"][0]
    h.tell(init_msg("r2"), source=other)
    h.run(until=h.kernel.now + 3000.0)
    assert h.actor.warm_reuses == 1 and h.actor.cold_starts == 1
    assert executor.master == other and executor.request_id == "r2"
    assert [p.request_id for p in other_inbox if isinstance(p, ExecutorReady)] == ["r2"]
    assert [p.request_id for _, p in h.master_payloads(ExecutorReady)] == ["r1"]


def test_init_new_master_boots_once_and_merges_context():
    calls = []

    def spawn(host):
        boot_addr = Address(host, MASTER_PORT)
        h.kernel.bind(boot_addr, lambda env: None)

        class Stub:
            def adopt_scale_context(self, seeds, requesters, grace):
                calls.append((list(seeds), list(requesters), grace))

        return Stub()

    h = Harness(spawn_master=spawn, master_startup_ms=500.0, scale_grace_ms=25.0)
    r1, r2 = Address("m", MASTER_PORT), Address("p", MASTER_PORT)
    a1, a2 = Address("w", ACTOR_PORT), Address("p", ACTOR_PORT)
    h.tell(InitNewMaster(actors=[a1, a2]), source=r1)
    h.tell(InitNewMaster(actors=[a1]), source=r2)
    h.run(until=2000.0)
    assert len(calls) == 1
    seeds, requesters, grace = calls[0]
    # arrival order is wire-size dependent; membership is what matters
    assert set(seeds) == {a1, a2} and set(requesters) == {r1, r2} and grace == 25.0


def test_init_new_master_when_one_exists_advertises_back():
    h = Harness(spawn_master=lambda host: None)
    local_master = Address("w", MASTER_PORT)
    h.kernel.bind(local_master, lambda env: None)
    requester, inbox = Address("p", MASTER_PORT), []
    h.kernel.bind(requester, inbox.append)
    h.tell(InitNewMaster(actors=[]), source=requester)
    h.run(until=500.0)
    assert [env.payload for env in inbox] == [AdvertiseMaster(master=local_master)]
    assert h.master_payloads(AdvertiseMaster) == []


def test_init_new_master_without_factory_raises():
    h = Harness(spawn_master=None)
    h.tell(InitNewMaster(actors=[]))
    with pytest.raises(ProtocolError, match="no factory"):
        h.run(until=1000.0)
