"""Subnet sweep mechanics: probe fan-out, reply windows, advertising."""
import pytest

from fogsim.discovery import Discovery, DiscoveryConfig
from fogsim.netsim import LinkSpec, SimKernel, Topology, host_from_class
from fogsim.protocol import ACTOR_PORT, LOGGER_PORT, MASTER_PORT, USER_PORT_BASE, Address, AdvertiseMaster, Probe, ProbeReply
from fogsim.runner import run_scenario
from fogsim.scenario import load_scenario


def topology():
    hosts = [host_from_class(h, "rpi4")
             for h in ("10.0.0.1", "10.0.0.2", "10.0.0.3", "10.1.0.9")]
    return Topology(hosts, {}, LinkSpec(5.0, 100e6))


class Harness:
    def __init__(self, enabled=True, net_mask=24, interval_ms=1000.0, grace_ms=50.0):
        self.kernel = SimKernel(topology())
        self.envelopes = []
        self.kernel.send = self.envelopes.append  # the sweep sends through its kernel
        self.registered = set()
        self.masters = []
        self.self_addr = Address("10.0.0.1", MASTER_PORT)
        self.discovery = Discovery(
            kernel=self.kernel,
            topology=self.kernel.topology,
            self_address=self.self_addr,
            config=DiscoveryConfig(enabled=enabled, interval_ms=interval_ms,
                                   net_mask=net_mask, grace_ms=grace_ms),
        )

    def tick(self, now):
        return self.discovery.maybe_tick(now, self.registered, self.masters.append)

    @property
    def sent(self):
        assert all(env.source == self.self_addr for env in self.envelopes)
        return [(env.destination, env.payload) for env in self.envelopes]

    @property
    def advertised(self):
        adverts = [(addr, p) for addr, p in self.sent if isinstance(p, AdvertiseMaster)]
        assert all(p.master == self.self_addr for _, p in adverts)
        return [addr for addr, _ in adverts]


def test_config_validation():
    DiscoveryConfig().validate()
    with pytest.raises(ValueError):
        DiscoveryConfig(interval_ms=0.0).validate()
    with pytest.raises(ValueError):
        DiscoveryConfig(net_mask=33).validate()
    with pytest.raises(ValueError):
        DiscoveryConfig(grace_ms=-1.0).validate()


def test_disabled_discovery_never_probes():
    h = Harness(enabled=False)
    assert h.tick(0.0) is False
    assert h.sent == [] and h.discovery.rounds_run == 0


def test_tick_rate_limited_to_the_interval():
    h = Harness()
    assert h.tick(0.0) is True
    assert h.tick(500.0) is False
    assert h.tick(1000.0) is True
    assert h.discovery.rounds_run == 2


def test_probe_fan_out_covers_both_ports_of_subnet_peers_only():
    h = Harness()
    h.tick(0.0)
    targets = [addr for addr, _ in h.sent]
    assert all(isinstance(p, Probe) for _, p in h.sent)
    assert targets == [
        Address("10.0.0.2", MASTER_PORT), Address("10.0.0.2", ACTOR_PORT),
        Address("10.0.0.3", MASTER_PORT), Address("10.0.0.3", ACTOR_PORT),
    ]
    # own actor port is probed when scanning, own master address never is
    assert h.self_addr not in targets


def test_mask_32_yields_no_targets_and_no_round():
    h = Harness(net_mask=32)
    assert h.tick(0.0) is True  # the tick happens, the sweep is empty
    assert h.sent == [] and h.discovery.rounds_run == 0


def test_round_collects_replies_then_advertises_unknown_actors():
    h = Harness()
    h.tick(0.0)
    known = Address("10.0.0.2", ACTOR_PORT)
    stranger = Address("10.0.0.3", ACTOR_PORT)
    h.registered.add(known)
    h.discovery.on_probe_reply(known, ProbeReply())
    h.discovery.on_probe_reply(stranger, ProbeReply())
    h.kernel.run()
    assert h.advertised == [stranger]
    assert h.masters == []


def test_master_reply_is_noted_and_its_actors_are_merged_deduped():
    h = Harness()
    h.tick(0.0)
    peer = Address("10.0.0.2", MASTER_PORT)
    shared = Address("10.0.0.3", ACTOR_PORT)
    h.discovery.on_probe_reply(peer, ProbeReply(actors=[shared]))
    h.discovery.on_probe_reply(shared, ProbeReply())
    h.kernel.run()
    assert h.masters == [peer]
    assert h.advertised == [shared]  # listed by the master and probed directly: once


def test_duplicate_replies_from_one_source_keep_the_first():
    h = Harness()
    h.tick(0.0)
    src = Address("10.0.0.2", MASTER_PORT)
    h.discovery.on_probe_reply(src, ProbeReply(actors=[]))
    h.discovery.on_probe_reply(
        src, ProbeReply(actors=[Address("10.0.0.3", ACTOR_PORT)]))
    h.kernel.run()
    assert h.masters == [src]
    assert h.advertised == []


def test_replies_after_the_window_are_dropped():
    h = Harness()
    h.tick(0.0)
    h.kernel.run()  # window closes with zero replies
    h.discovery.on_probe_reply(Address("10.0.0.2", ACTOR_PORT),
                               ProbeReply())
    h.kernel.run()
    assert h.advertised == [] and h.masters == []


@pytest.mark.parametrize("port", [LOGGER_PORT, USER_PORT_BASE], ids=["logger", "user"])
def test_replies_from_other_than_the_master_and_actor_ports_are_ignored(port):
    # A reply's source port says who answered; a master's list from any other port is not read.
    h = Harness()
    h.tick(0.0)
    h.discovery.on_probe_reply(Address("10.0.0.2", port), ProbeReply(actors=[Address("10.0.0.3", ACTOR_PORT)]))
    h.kernel.run()
    assert h.advertised == [] and h.masters == []


def test_window_scales_with_the_slowest_link_round_trip():
    h = Harness(grace_ms=50.0)
    h.tick(0.0)
    fired = []
    h.kernel.schedule(2 * 5.0 + 50.0 - 0.001, lambda: fired.append(h.advertised.copy()))
    h.discovery.on_probe_reply(Address("10.0.0.2", ACTOR_PORT),
                               ProbeReply())
    h.kernel.run()
    assert fired == [[]]  # just before the deadline nothing was advertised yet
    assert h.advertised == [Address("10.0.0.2", ACTOR_PORT)]


@pytest.mark.parametrize("preset", ["discovery", "smoke"])
def test_every_probe_reply_in_a_preset_comes_from_a_master_or_actor_port(preset, monkeypatch):
    # The sweep reads who answered from the reply's port; this is the premise.
    ports = set()
    send = SimKernel.send

    def recording_send(kernel, envelope):
        if isinstance(envelope.payload, ProbeReply):
            ports.add(envelope.source.port)
        return send(kernel, envelope)

    monkeypatch.setattr(SimKernel, "send", recording_send)
    run_scenario(load_scenario(preset))
    assert ports <= {MASTER_PORT, ACTOR_PORT}
    if preset == "discovery":
        assert ports == {MASTER_PORT, ACTOR_PORT}
