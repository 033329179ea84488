"""Resource discovery.

A master periodically sweeps its subnet, probing the conventional
master and actor ports of every neighbouring address. Replies collected
within a bounded window tell it which masters exist (and which actors
those masters know) and which actors are reachable directly: a reply's
source port says whether a master or an actor answered, and a reply
from any other port is ignored. Any actor
the master has not yet registered gets an AdvertiseMaster nudge, which
makes the actor register here as well; actors may register with any
number of masters and never de-register.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Container

from .netsim import SimKernel, Topology, scan_subnet
from .protocol import (
    ACTOR_PORT,
    MASTER_PORT,
    Address,
    AdvertiseMaster,
    MessageEnvelope,
    Probe,
    ProbeReply,
)

__all__ = ["DiscoveryConfig", "Discovery"]


@dataclass(frozen=True)
class DiscoveryConfig:
    enabled: bool = False
    interval_ms: float = 1000.0
    net_mask: int = 24
    grace_ms: float = 50.0

    def validate(self) -> None:
        if self.interval_ms <= 0:
            raise ValueError("discovery interval must be positive")
        if not 0 <= self.net_mask <= 32:
            raise ValueError("net mask must be within 0..32")
        if self.grace_ms < 0:
            raise ValueError("grace must be non-negative")


class Discovery:
    """Subnet sweep driven by the owning master's periodic timer.

    The sweep sends its probes and AdvertiseMaster nudges itself, from the
    owner's address. The owner passes the rest on each tick: ``registered``,
    the actor addresses already in its registry, and ``on_master``, which
    records a foreign master. Only the sweep's pending close holds them, so
    the sweep keeps no reference to its owner.
    """

    def __init__(
        self,
        kernel: SimKernel,
        topology: Topology,
        self_address: Address,
        config: DiscoveryConfig,
    ) -> None:
        config.validate()
        self.kernel = kernel
        self.topology = topology
        self.self_address = self_address
        self.config = config
        self._last_tick = float("-inf")
        self._open_round: int | None = None
        self._replies: dict[Address, ProbeReply] = {}
        self.rounds_run = 0

    def maybe_tick(
        self, now: float, registered: Container[Address], on_master: Callable[[Address], None]
    ) -> bool:
        """Run a sweep unless one ran less than an interval ago."""
        if not self.config.enabled:
            return False
        if now - self._last_tick < self.config.interval_ms:
            return False
        self._last_tick = now
        self._start_round(registered, on_master)
        return True

    def _send(self, dest: Address, payload) -> None:
        self.kernel.send(MessageEnvelope(self.self_address, dest, payload))

    def _start_round(self, registered: Container[Address], on_master: Callable[[Address], None]) -> None:
        hosts = scan_subnet(self.self_address.host, self.config.net_mask, self.topology)
        targets = []
        for host in hosts:
            for port in (MASTER_PORT, ACTOR_PORT):
                addr = Address(host, port)
                if addr != self.self_address:
                    targets.append(addr)
        if not targets:
            return
        self.rounds_run += 1
        round_id = self.rounds_run
        self._open_round = round_id
        self._replies = {}
        worst_rtt = 0.0
        for target in targets:
            self._send(target, Probe())
            link = self.topology.link(self.self_address.host, target.host)
            worst_rtt = max(worst_rtt, 2.0 * link.latency_ms)
        deadline = worst_rtt + self.config.grace_ms
        self.kernel.schedule(deadline, lambda: self._finish_round(round_id, registered, on_master))

    def on_probe_reply(self, source: Address, reply: ProbeReply) -> None:
        """Record a reply if a sweep is still collecting; late ones drop."""
        if self._open_round is None:
            return
        self._replies.setdefault(source, reply)

    def _finish_round(
        self, round_id: int, registered: Container[Address], on_master: Callable[[Address], None]
    ) -> None:
        if self._open_round != round_id:
            return
        self._open_round = None
        replies, self._replies = self._replies, {}
        actor_addrs: list[Address] = []
        seen: set[Address] = set()
        for source, reply in replies.items():
            if source.port == MASTER_PORT:
                on_master(source)
                for addr in reply.actors:
                    if addr not in seen:
                        seen.add(addr)
                        actor_addrs.append(addr)
            elif source.port == ACTOR_PORT:
                if source not in seen:
                    seen.add(source)
                    actor_addrs.append(source)
        for addr in actor_addrs:
            if addr not in registered:
                self._send(addr, AdvertiseMaster(master=self.self_address))
