"""End-to-end request flow on one kernel: schedule, stream, reuse, degrade."""
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim.actor_runtime import Actor, ActorConfig
from fogsim.discovery import DiscoveryConfig
from fogsim.ga_policies import GaParams
from fogsim.netsim import DEFAULT_LINK, HostCompute, LinkSpec, SimKernel, Topology, host_from_class
from fogsim.protocol import (
    EXECUTOR_PORT_BASE,
    MASTER_PORT,
    SENSOR_TASK,
    USER_PORT_BASE,
    Address,
    AdvertiseMaster,
    Data,
    ExecutorReady,
    ForwardToMaster,
    InitTaskExecutor,
    MasterLoad,
    MessageEnvelope,
    PlacementRequest,
    ResourcesReady,
    Result,
    WarnNoResources,
)
from fogsim.registry_master import Master
from fogsim.runner import Runtime
from fogsim.scenario import load_scenario
from fogsim.scheduler import SchedulerConfig
from fogsim.taskgraph import builtin_apps
from fogsim.telemetry import RemoteLogger
from fogsim.user_sim import User, UserConfig

GA = GaParams(pop_size=8, max_iteration_num=10, n_parents=4, n_offsprings=4)


def topology():
    hosts = [host_from_class("u", "rpi4"), host_from_class("m", "desktop"),
             host_from_class("m2", "desktop"), host_from_class("a", "desktop"),
             host_from_class("b", "rpi4")]
    links = {
        ("u", "m"): LinkSpec(2.0, 100e6),
        ("u", "m2"): LinkSpec(2.0, 100e6),
        ("m", "a"): LinkSpec(4.0, 100e6),
        ("m", "b"): LinkSpec(10.0, 50e6),
        ("a", "b"): LinkSpec(1.0, 100e6),
    }
    return Topology(hosts, links, DEFAULT_LINK)


class Cluster:
    def __init__(self, actor_images, policy="ohnsga", masters=("m",), user_masters=None,
                 max_sched_count=4, scaling_enabled=True, apps=None, spawn=False):
        self.kernel = SimKernel(topology())
        self.apps = apps or builtin_apps()
        self.logger = RemoteLogger(self.kernel, "m")
        logger_addr = self.logger.addr
        self.masters = {}

        def add_master(host):
            spec = self.kernel.topology.hosts[host]
            master = Master(
                kernel=self.kernel, spec=spec, compute=HostCompute(self.kernel, spec),
                apps=self.apps, logger=logger_addr, policy=policy, ga_params=GA,
                sched_config=SchedulerConfig(max_sched_count=max_sched_count),
                discovery_config=DiscoveryConfig(enabled=False),
                scaling_enabled=scaling_enabled, profile_period_ms=500.0,
            )
            master.start()
            self.masters[host] = master
            return master

        for host in masters:
            add_master(host)
        self.actors = {}
        for host, images in actor_images.items():
            spec = self.kernel.topology.hosts[host]
            actor = Actor(
                kernel=self.kernel, spec=spec, compute=HostCompute(self.kernel, spec),
                apps=self.apps, images=set(images),
                masters=[Address(m, MASTER_PORT) for m in masters],
                logger=logger_addr, config=ActorConfig(), profile_period_ms=500.0,
                spawn_master=add_master if spawn else None,
            )
            actor.start()
            self.actors[host] = actor
        self.users = []
        self.user_masters = user_masters or [masters[0]]

    def add_user(self, app="VOCR", frames=2, interval=2000.0, start_at=100.0,
                 after=None, delay=500.0, timeout=120000.0):
        idx = len(self.users)
        cfg = UserConfig(host="u", app=app, master=Address(self.user_masters[0], MASTER_PORT),
                         frame_count=frames, frame_interval_ms=interval,
                         timeout_ms=timeout)
        user = User(self.kernel, cfg, self.apps[app], USER_PORT_BASE + idx)
        if after is None:
            self.kernel.schedule_at(start_at, user.start)
        else:
            self.users[after].on_done = lambda done_user: self.kernel.schedule(
                delay, user.start)
        self.users.append(user)
        return user

    def run(self, until=60000.0):
        self.kernel.run(until_ms=until)

    def master(self):
        return next(iter(self.masters.values()))


def test_single_request_completes_and_measures_match_the_estimate():
    cluster = Cluster({"a": {"*"}, "b": {"*"}})
    user = cluster.add_user(frames=3)
    cluster.run()
    assert user.done and not user.timed_out
    metrics = user.metrics()
    assert metrics.outcome == "Completed"
    state = cluster.master().requests[user.request_id]
    assert state.status == "completed"
    assert state.estimate is not None
    for measured in metrics.response_ms:
        assert measured == pytest.approx(state.estimate, rel=1e-9)
    assert metrics.rrt_ms is not None and metrics.rrt_ms > 0
    assert cluster.master().completed == 1


def test_split_placement_pays_real_network_hops_exactly_as_estimated():
    # disjoint images force the OCR stage onto the other actor host
    cluster = Cluster({"a": {"KeyFrameFilter", "TextDedup"}, "b": {"OCR"}})
    user = cluster.add_user(frames=2)
    cluster.run()
    state = cluster.master().requests[user.request_id]
    hosts = {task: addr.host for task, addr in state.assignment.items()}
    assert hosts == {"KeyFrameFilter": "a", "OCR": "b", "TextDedup": "a"}
    for measured in user.metrics().response_ms:
        assert measured == pytest.approx(state.estimate, rel=1e-9)


def test_sequential_requests_reuse_warm_executors():
    cluster = Cluster({"a": {"*"}}, policy="random")
    first = cluster.add_user(frames=1)
    second = cluster.add_user(frames=1, after=0, delay=500.0)
    cluster.run()
    assert first.done and second.done
    assert first.metrics().outcome == second.metrics().outcome == "Completed"
    actor = cluster.actors["a"]
    assert actor.cold_starts == 3 and actor.warm_reuses == 3
    # cold path serializes three container startups; the warm path skips them
    assert second.metrics().rrt_ms < first.metrics().rrt_ms - 4000.0


def test_no_actors_means_warn():
    cluster = Cluster({}, policy="random")
    user = cluster.add_user()
    cluster.run(until=5000.0)
    assert user.warned and user.metrics().outcome == "Warned"
    assert cluster.master().warns == 1


def test_missing_image_means_warn():
    cluster = Cluster({"a": {"KeyFrameFilter", "TextDedup"}}, policy="random")
    user = cluster.add_user()
    cluster.run(until=5000.0)
    assert user.metrics().outcome == "Warned"
    assert cluster.master().warns == 1


def test_unknown_app_means_warn():
    cluster = Cluster({"a": {"*"}}, policy="random")
    # the user knows the app, the master does not
    cluster.master().apps = {"VOCR": cluster.apps["VOCR"]}
    user = cluster.add_user(app="GameOfLife")
    cluster.run(until=5000.0)
    assert user.metrics().outcome == "Warned"


def test_saturated_master_forwards_to_a_known_submaster():
    cluster = Cluster({"a": {"*"}, "b": {"*"}}, policy="random",
                      masters=("m", "m2"), max_sched_count=0)
    primary, secondary = cluster.masters["m"], cluster.masters["m2"]
    cluster.kernel.send(MessageEnvelope(Address("u", 4999), primary.address,
                                        AdvertiseMaster(master=secondary.address)))
    first = cluster.add_user(frames=1)
    second = cluster.add_user(frames=1)
    cluster.run()
    assert first.done and second.done and not second.timed_out
    assert first.metrics().outcome == "Completed" and first.forwards == 0
    assert second.metrics().outcome == "Forwarded" and second.forwards == 1
    assert primary.forwards == 1
    assert primary.completed == 1 and secondary.completed == 1
    # Both masters key the request by the id the user made, which the forward kept.
    assert list(primary.requests) == [first.request_id, second.request_id]
    assert primary.requests[second.request_id].status == "forwarded"
    assert list(secondary.requests) == [second.request_id]
    assert secondary.requests[second.request_id].status == "completed"


@pytest.mark.parametrize("sender,at_ms", [("logger", 100.0), ("logger", 3000.0), ("logger", 5000.0),
                                          ("master", 5000.0)])
def test_a_user_follows_a_forward_only_from_its_master_before_its_resources_are_ready(sender, at_ms):
    # Smoke's one user is ready at 4863 ms; following either stray forward
    # sent its frames to an unbound master and wedged the run.
    runtime = Runtime(load_scenario("smoke"))
    (user,) = runtime.users
    source = runtime.loggers[0].addr if sender == "logger" else user.config.master
    unbound = Address("10.9.9.9", MASTER_PORT)
    stray = MessageEnvelope(source, user.address, ForwardToMaster(sub_master=unbound))
    runtime.kernel.schedule_at(at_ms, lambda: runtime.kernel.send(stray))
    runtime.run()
    assert user.metrics().outcome == "Completed" and user.forwards == 0
    assert user.ignored == (sender == "logger")
    assert f"ignored={user.ignored}" in runtime.dump()
    assert user.current_master == user.config.master
    assert user.completed_at == pytest.approx(5802.3, abs=0.05)


_SPOOFS = st.one_of(
    st.builds(ResourcesReady, request_id=st.just("")),
    st.builds(WarnNoResources, request_id=st.just("")),
    st.builds(Result, request_id=st.just(""), frame_seq=st.integers(0, 1),
              task=st.sampled_from(sorted(builtin_apps()["VOCR"].tasks)), final=st.booleans()),
)


@settings(max_examples=40, deadline=None)
@given(spoof=_SPOOFS, sender=st.sampled_from(["logger", "actor", "executor"]), at_ms=st.floats(0.0, 20000.0))
def test_a_user_takes_readiness_warnings_and_results_only_from_its_master(spoof, sender, at_ms):
    # A ResourcesReady from the logger's port once started smoke's stream
    # before its executors were ready and wedged the run; a stray warning
    # ended the request Warned.
    runtime = Runtime(load_scenario("smoke"))
    (user,), (actor,) = runtime.users, runtime.actors
    source = {
        "logger": runtime.loggers[0].addr,
        "actor": actor.address,
        "executor": Address(actor.address.host, EXECUTOR_PORT_BASE),
    }[sender]
    assert source != user.config.master
    stray = MessageEnvelope(source, user.address, replace(spoof, request_id=user.request_id))
    runtime.kernel.schedule_at(at_ms, lambda: runtime.kernel.send(stray))
    runtime.run()  # a wedge raises DeadlockDetected
    assert user.metrics().outcome == "Completed"


def test_data_for_a_request_still_waiting_for_its_executors_is_counted_and_not_relayed():
    runtime = Runtime(load_scenario("smoke"))
    (master,), (user,) = runtime.masters, runtime.users
    send, relayed, status = runtime.kernel.send, [], []

    def tap(envelope):
        if envelope.source == master.address and isinstance(envelope.payload, Data):
            relayed.append(envelope.payload)
        send(envelope)

    early = Data(request_id=user.request_id, frame_seq=0, size_bytes=64)

    def inject():
        status.append(master.requests[user.request_id].status)
        send(MessageEnvelope(user.address, master.address, early))

    runtime.kernel.send = tap
    runtime.kernel.schedule_at(3000.0, inject)
    runtime.run()
    assert status == ["waiting_ready"]
    assert master.protocol_anomalies == 1
    assert early not in relayed and len(relayed) == user.config.frame_count
    assert user.metrics().outcome == "Completed"


@pytest.mark.parametrize("sender", ["logger", "master", "other actor"])
def test_an_executor_ready_from_any_but_the_assigned_actor_is_counted_and_starts_no_stream(sender):
    # One spoofed ExecutorReady per task once started smoke's stream before
    # its executors were ready and wedged the run.
    cluster = Cluster({"a": {"*"}, "b": {"*"}})
    user = cluster.add_user(frames=2)
    master = cluster.master()
    send, ready_at, started_at, spoofed = cluster.kernel.send, [], [], []

    def spoof():
        state = master.requests[user.request_id]
        for task, actor in state.assignment.items():
            source = {
                "logger": cluster.logger.addr,
                "master": master.address,
                "other actor": next(a.address for a in cluster.actors.values() if a.address != actor),
            }[sender]
            spoofed.append(source)
            send(MessageEnvelope(source, master.address, ExecutorReady(request_id=user.request_id, task=task)))

    def tap(envelope):
        payload = envelope.payload
        if isinstance(payload, InitTaskExecutor) and not spoofed:
            spoof()
        elif isinstance(payload, ExecutorReady):
            ready_at.append(cluster.kernel.now)
        elif isinstance(payload, ResourcesReady):
            started_at.append(cluster.kernel.now)
        send(envelope)

    cluster.kernel.send = tap
    cluster.run()
    assert len(spoofed) == len(ready_at) == 3
    assert master.protocol_anomalies == 3
    assert len(started_at) == 1 and started_at[0] >= max(ready_at)
    assert user.metrics().outcome == "Completed"


@pytest.mark.parametrize("sender", ["logger", "master", "other actor"])
def test_data_from_any_but_its_rightful_sender_is_counted_and_reaches_no_executor(sender):
    # A stray final frame once fed smoke's executors out of turn and wedged
    # the run. The master relays a frame only from the request's user; an
    # executor takes a sensor frame only from its master and a task output
    # only from the host its producer task runs on.
    cluster = Cluster({"a": {"*"}, "b": {"*"}})
    user = cluster.add_user(frames=2)
    master = cluster.master()
    app = cluster.apps[user.config.app]
    send, spoofed = cluster.kernel.send, []

    def spoof():
        state = master.requests[user.request_id]
        by_host = {actor.address.host: actor.address for actor in cluster.actors.values()}
        targets = [(master.address, SENSOR_TASK, None)]
        for task, actor in state.assignment.items():
            producers = app.parents(task) or [SENSOR_TASK]
            targets += [(actor, producer, state.assignment.get(producer)) for producer in producers]
        for destination, producer, producer_actor in targets:
            source = {
                "logger": cluster.logger.addr,
                "master": master.address,
                # an actor on another host than the producer's (or the master's)
                "other actor": next(addr for host, addr in by_host.items()
                                    if producer_actor is None or host != producer_actor.host),
            }[sender]
            if destination != master.address and producer == SENSOR_TASK and source == master.address:
                continue  # the master is the rightful sender of a sensor frame
            spoofed.append(destination)
            frame = Data(request_id=user.request_id, frame_seq=0, size_bytes=64, task=producer, final=True)
            send(MessageEnvelope(source, destination, frame))

    def tap(envelope):
        if isinstance(envelope.payload, ResourcesReady) and not spoofed:
            spoof()
        send(envelope)

    cluster.kernel.send = tap
    cluster.run()
    at_actors = len(spoofed) - 1
    assert spoofed[0] == master.address and at_actors >= (2 if sender == "master" else 3)
    assert master.protocol_anomalies == 1
    assert sum(actor.anomalies for actor in cluster.actors.values()) == at_actors
    assert sum(actor.unknown_inputs for actor in cluster.actors.values()) == 0
    assert user.metrics().outcome == "Completed"


@pytest.mark.parametrize("sender", ["actor port", "another task's executor"])
def test_a_task_output_from_the_actors_own_host_is_taken_only_from_that_tasks_executor(sender):
    # With every task on one host, a host check lets any port there feed an
    # executor; a stray final frame from the actor's port or another task's
    # executor once ran ahead of the real one.
    cluster = Cluster({"a": {"*"}})
    user = cluster.add_user(frames=2)
    master, actor = cluster.master(), cluster.actors["a"]
    app = cluster.apps[user.config.app]
    send, spoofed = cluster.kernel.send, []

    def spoof():
        executors = {executor.task_name: addr for addr, executor in actor.executors.items()}
        for task in app.task_names():
            for producer in app.parents(task):
                other = next(addr for name, addr in executors.items() if name != producer)
                source = actor.address if sender == "actor port" else other
                spoofed.append((source, producer))
                frame = Data(request_id=user.request_id, frame_seq=0, size_bytes=64, task=producer, final=True)
                send(MessageEnvelope(source, actor.address, frame))

    def tap(envelope):
        if isinstance(envelope.payload, ResourcesReady) and not spoofed:
            spoof()
        send(envelope)

    cluster.kernel.send = tap
    cluster.run()
    assert len(spoofed) == 2 and all(source.host == "a" for source, _ in spoofed)
    assert actor.anomalies == len(spoofed) and actor.unknown_inputs == 0
    assert master.protocol_anomalies == 0
    assert user.metrics().outcome == "Completed"


def test_a_second_request_under_an_id_the_master_holds_is_counted_as_an_anomaly():
    cluster = Cluster({"a": {"*"}})
    user = cluster.add_user(frames=1)
    early = MessageEnvelope(Address("u", 7777), cluster.master().address,
                            PlacementRequest(request_id=user.request_id, app="VOCR"))
    cluster.kernel.schedule_at(50.0, lambda: cluster.kernel.send(early))
    cluster.run()
    master = cluster.master()
    assert list(master.requests) == [user.request_id]
    assert master.protocol_anomalies == 1


def test_saturated_master_with_no_scale_target_schedules_the_held_request_once_its_slot_frees():
    # the only actor lives on the master's own host, so scaling has nowhere to go
    cluster = Cluster({"m": {"*"}}, policy="random", max_sched_count=0)
    first = cluster.add_user(frames=1)
    second = cluster.add_user(frames=1)
    cluster.run()
    master = cluster.master()
    assert first.metrics().outcome == second.metrics().outcome == "Completed"
    assert second.forwards == 0 and master.forwards == 0
    assert master.scales_requested == 0 and master.completed == 2
    held = master.requests[second.request_id]
    assert master.requests[first.request_id].decided_at < held.decided_at


def test_saturated_master_schedules_the_held_request_before_the_master_it_scaled_boots():
    cluster = Cluster({"a": {"*"}}, policy="random", max_sched_count=0, spawn=True)
    first = cluster.add_user(frames=1)
    second = cluster.add_user(frames=1)
    cluster.run()
    master = cluster.masters["m"]
    assert master.scales_requested == 1 and "a" in cluster.masters
    assert first.metrics().outcome == second.metrics().outcome == "Completed"
    assert second.forwards == 0 and master.completed == 2
    # m asks for the scale as the second request arrives, after the user
    # started, and the new master boots a startup after that.
    assert master.requests[second.request_id].decided_at < second.t0 + ActorConfig().master_startup_ms
    # The actor hands the new master the asking master's address, the InitNewMaster's source.
    assert not master.pending_scale and master.known_masters == [cluster.masters["a"].address]
    assert cluster.masters["a"].known_masters == [master.address]


def _saturated_pair_with_a_peer_report(queued, in_flight):
    """Masters m and m2 that schedule one request at a time; m knows m2, which reported this load."""
    cluster = Cluster({"a": {"*"}, "b": {"*"}}, policy="random",
                      masters=("m", "m2"), max_sched_count=0)
    primary, secondary = cluster.masters["m"], cluster.masters["m2"]
    cluster.kernel.send(MessageEnvelope(Address("u", 4999), primary.address,
                                        AdvertiseMaster(master=secondary.address)))
    cluster.kernel.send(MessageEnvelope(secondary.address, primary.address,
                                        MasterLoad(queued=queued, in_flight=in_flight)))
    return cluster, primary, secondary


def test_saturated_master_keeps_a_request_its_equally_loaded_peer_would_not_relieve():
    # m holds one request in flight and one in hand: load 2, as m2 reported.
    cluster, primary, secondary = _saturated_pair_with_a_peer_report(queued=1, in_flight=1)
    first = cluster.add_user(frames=1)
    second = cluster.add_user(frames=1)
    cluster.kernel.run(until_ms=60000.0, stop_when=lambda: len(primary.requests) == 2)
    kept = primary.requests[second.request_id]
    assert primary.in_flight == 1 and list(primary.queue) == [kept] and kept.status == "queued"
    cluster.run()
    assert first.metrics().outcome == second.metrics().outcome == "Completed"
    assert first.forwards == second.forwards == 0 and primary.forwards == 0
    assert primary.completed == 2 and not secondary.requests
    assert primary.requests[first.request_id].decided_at < kept.decided_at  # scheduled after the first


def test_saturated_master_forwards_to_a_peer_that_reported_a_lower_load():
    # With one in flight, m's load is 2 for the second request and 3 once the
    # third queues behind it; m2 reported 1, so it takes one request, not two.
    cluster, primary, secondary = _saturated_pair_with_a_peer_report(queued=0, in_flight=1)
    first, second, third = (cluster.add_user(frames=1) for _ in range(3))
    cluster.run()
    assert [user.metrics().outcome for user in (first, second, third)] == ["Completed", "Forwarded", "Completed"]
    assert (first.forwards, second.forwards, third.forwards) == (0, 1, 0)
    assert primary.forwards == 1 and primary.peer_load[secondary.address] == 2
    assert primary.completed == 2 and secondary.completed == 1
    assert secondary.requests[second.request_id].status == "completed"


def test_a_master_reports_its_load_on_its_tick_only_when_it_changed():
    # m2 reported a load m never gets above, so m keeps every request.
    cluster, primary, secondary = _saturated_pair_with_a_peer_report(queued=9, in_flight=1)
    for _ in range(6):
        cluster.add_user(frames=1, start_at=490.0)
    cluster.run(until=750.0)
    assert secondary.peer_load == {primary.address: 6}  # at the 500 ms tick: 5 queued, 1 in flight
    cluster.run(until=3000.0)
    assert primary.forwards == 0 and secondary.peer_load == {primary.address: 0}
    # The report sent above, then m's two: loaded at 500 ms, idle at 1000 ms and unchanged since.
    assert cluster.kernel.traffic[MasterLoad].sent == 3


def _scalability_cells():
    config = load_scenario("scalability")
    for count in config.experiment["counts"]:
        for scaling in (True, False):
            yield pytest.param(replace(config, scaling_enabled=scaling, users=config.users[:count]),
                               id=f"n={count},scaling={'on' if scaling else 'off'}")


@pytest.mark.parametrize("config", _scalability_cells())
def test_scalability_cell_forwards_each_request_a_bounded_number_of_times_and_loses_none(config):
    runtime = Runtime(config)
    lost = []

    def check():
        for master in runtime.masters:
            lost.extend(
                (str(master.address), rid) for rid, state in master.requests.items()
                if state.status == "queued" and not any(state is other for other in master.queue)
            )
        return all(user.done for user in runtime.users)

    runtime.kernel.run(until_ms=config.time_limit_ms, stop_when=check)
    assert not lost, f"queued requests not in their master's queue: {sorted(set(lost))}"
    assert all(user.metrics().outcome in ("Completed", "Forwarded") for user in runtime.users)
    # A master forwards only to one that reported a lower load, so a request
    # comes back only on an out-of-date report: from a master not heard from
    # yet (it counts as idle), or sent before the forwards it has since
    # received. So each master may hand one request on twice, once on each
    # kind. Forwarded on saturation alone, one request of the 16-user cell
    # went back and forth 441 times.
    bound = 2 * len(runtime.masters)
    assert max(user.forwards for user in runtime.users) <= bound
