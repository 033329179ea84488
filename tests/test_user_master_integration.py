"""End-to-end request flow on one kernel: schedule, stream, reuse, degrade."""
import pytest

from fogsim.actor_runtime import Actor, ActorConfig
from fogsim.discovery import DiscoveryConfig
from fogsim.ga_policies import GaParams
from fogsim.netsim import DEFAULT_LINK, HostCompute, LinkSpec, SimKernel, Topology, host_from_class
from fogsim.protocol import (
    MASTER_PORT,
    USER_PORT_BASE,
    Address,
    AdvertiseMaster,
    MessageEnvelope,
    PlacementRequest,
    RegisterUser,
)
from fogsim.registry_master import Master
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
                 max_sched_count=4, scaling_enabled=True, apps=None):
        self.kernel = SimKernel(topology())
        self.apps = apps or builtin_apps()
        self.logger = RemoteLogger(self.kernel, "m")
        logger_addr = self.logger.addr
        self.masters = {}
        for host in masters:
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
        self.actors = {}
        for host, images in actor_images.items():
            spec = self.kernel.topology.hosts[host]
            actor = Actor(
                kernel=self.kernel, spec=spec, compute=HostCompute(self.kernel, spec),
                apps=self.apps, images=set(images),
                masters=[Address(m, MASTER_PORT) for m in masters],
                logger=logger_addr, config=ActorConfig(), profile_period_ms=500.0,
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
    assert cluster.master().reuses_dispatched == 3
    # cold path serializes three container startups; the warm path skips them
    assert second.metrics().rrt_ms < first.metrics().rrt_ms - 4000.0
    state = cluster.master().requests[second.request_id]
    assert all(state.reused.values())


def test_request_ids_count_each_users_earlier_requests_however_they_arrived():
    cluster = Cluster({})
    master = cluster.master()
    first, second = Address("u", USER_PORT_BASE), Address("u", USER_PORT_BASE + 1)

    def send(source, payload):
        cluster.kernel.send(MessageEnvelope(source, master.address, payload))

    # A forwarded request keeps the id its first master gave it, and still counts here.
    send(first, PlacementRequest(request_id=f"u:{USER_PORT_BASE}#0", app="VOCR"))
    send(first, RegisterUser(app="VOCR", entry=first))
    send(second, RegisterUser(app="VOCR", entry=second))
    send(first, RegisterUser(app="VOCR", entry=first))
    cluster.run(until=1000.0)
    assert list(master.requests) == [
        f"u:{USER_PORT_BASE}#0", f"u:{USER_PORT_BASE}#1", f"u:{USER_PORT_BASE + 1}#0", f"u:{USER_PORT_BASE}#2"]


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
    assert secondary.requests[second.request_id].status == "completed"


def test_saturated_master_with_no_forward_target_parks_the_request():
    # the only actor lives on the master's own host, so scaling has nowhere to go
    cluster = Cluster({"m": {"*"}}, policy="random", max_sched_count=0)
    first = cluster.add_user(frames=1)
    second = cluster.add_user(frames=1, timeout=8000.0)
    cluster.run(until=20000.0)
    assert first.metrics().outcome == "Completed"
    assert second.timed_out and second.metrics().outcome == "Warned"
    assert len(cluster.master().parked) == 1
    assert cluster.master().scales_requested == 0
