"""Deterministic discrete-event network and host model.

Virtual time is a float in milliseconds.  A single event queue drives the
whole scenario: message deliveries and timers pop in (time, insertion) order,
so equal seeds replay the exact same event sequence.  Message delivery charges
propagation latency plus whole-frame transmission time and preserves FIFO
order per ordered host pair; a message whose destination endpoint is not
bound at arrival time is dropped and counted, never retried.
"""

from __future__ import annotations

import heapq
import ipaddress
import math
from collections import defaultdict, deque
from dataclasses import dataclass

from . import protocol
from .protocol import Address, MessageEnvelope


@dataclass(frozen=True)
class LinkSpec:
    """Propagation latency and data rate of one host pair."""

    latency_ms: float
    data_rate_bps: float

    def validate(self) -> None:
        if not 0 <= self.latency_ms < math.inf:
            raise ValueError("latency_ms must be finite and non-negative")
        if not self.data_rate_bps > 0:
            raise ValueError("data_rate_bps must be positive")

    def transfer_ms(self, frame_bytes: int) -> float:
        """Latency plus whole-frame transmission time; the one transfer formula."""

        if self.data_rate_bps == math.inf or frame_bytes <= 0:
            return self.latency_ms
        return self.latency_ms + (frame_bytes * 8.0 / self.data_rate_bps) * 1000.0


SELF_LINK = LinkSpec(0.0, math.inf)
DEFAULT_LINK = LinkSpec(5.0, 100e6)


@dataclass(frozen=True)
class HostSpec:
    """Static capabilities of one simulated host."""

    host: str
    cpu_cores: int = 4
    cpu_freq_ghz: float = 1.5
    mem_capacity_mb: float = 4096.0
    base_cpu_util: float = 0.0
    base_mem_util: float = 0.0

    def validate(self) -> None:
        if self.cpu_cores < 1:
            raise ValueError("cpu_cores must be at least 1")
        if not (0 < self.cpu_freq_ghz < math.inf and 0 < self.mem_capacity_mb < math.inf):
            raise ValueError("cpu_freq_ghz and mem_capacity_mb must be finite and positive")
        # Work is divided by the rate cores * frequency * (1 - utilisation).
        if not 0 <= self.base_cpu_util < 1:
            raise ValueError("base_cpu_util must lie in [0, 1)")
        if not 0 <= self.base_mem_util <= 1:
            raise ValueError("base_mem_util must lie in [0, 1]")

    @property
    def rate_units_per_ms(self) -> float:
        """Abstract work units the host executes per virtual millisecond."""

        return self.cpu_freq_ghz * self.cpu_cores * (1.0 - self.base_cpu_util)


# Host classes used by the bundled scenarios, sized like the desk testbed the
# experiments emulate: two single-board edge nodes, one desktop, two small
# cloud instances.
HOST_CLASSES = {
    "rpi4": dict(cpu_cores=4, cpu_freq_ghz=1.5, mem_capacity_mb=4096.0),
    "desktop": dict(cpu_cores=8, cpu_freq_ghz=3.6, mem_capacity_mb=16384.0),
    "cloud-2c": dict(cpu_cores=2, cpu_freq_ghz=2.6, mem_capacity_mb=8192.0),
    "cloud-4c": dict(cpu_cores=4, cpu_freq_ghz=2.6, mem_capacity_mb=16384.0),
}


def host_from_class(host: str, klass: str, **overrides) -> HostSpec:
    if klass not in HOST_CLASSES:
        raise KeyError(f"unknown host class {klass!r}")
    params = dict(HOST_CLASSES[klass])
    params.update(overrides)
    return HostSpec(host=host, **params)


class Topology:
    """Hosts and the links between them, with a default for unlisted pairs.

    A topology never changes once built, so it works out each value a run
    asks of it once: the link of an ordered host pair on first lookup, and a
    hop table on first request for its (source hosts, destination hosts,
    frame bytes).  Both memos live on the object and hold only what was asked.
    """

    def __init__(self, hosts, links=None, default_link: LinkSpec = DEFAULT_LINK):
        self.hosts: dict[str, HostSpec] = {}
        for spec in hosts:
            if spec.host in self.hosts:
                raise ValueError(f"duplicate host {spec.host}")
            self.hosts[spec.host] = spec
        self.default_link = default_link
        self._links: dict[tuple[str, str], LinkSpec] = dict(links or {})
        self._pair_links: dict[tuple[str, str], LinkSpec] = {}
        self._hop_tables: dict[tuple, tuple] = {}

    def link(self, src: str, dst: str) -> LinkSpec:
        """Link spec for an ordered pair; symmetric lookup, self link is free."""

        pair = (src, dst)
        spec = self._pair_links.get(pair)
        if spec is None:
            if src == dst:
                spec = SELF_LINK
            else:
                spec = self._links.get(pair) or self._links.get((dst, src)) or self.default_link
            self._pair_links[pair] = spec
        return spec

    def transfer_ms(self, src: str, dst: str, frame_bytes: int) -> float:
        return self.link(src, dst).transfer_ms(frame_bytes)

    def hop_table(self, sources: tuple, destinations: tuple, frame_bytes: int) -> tuple:
        """Transfer time of a frame from each source host (rows) to each
        destination host (columns); 0.0 between co-located hosts.

        Built once per distinct argument triple; every caller shares it.
        """

        key = (sources, destinations, frame_bytes)
        table = self._hop_tables.get(key)
        if table is None:
            table = self._hop_tables[key] = tuple(
                tuple(self.transfer_ms(src, dst, frame_bytes) for dst in destinations) for src in sources
            )
        return table


def scan_subnet(gateway: str, net_mask: int, topology: Topology) -> list[str]:
    """Hosts sharing the gateway's masked prefix, ascending, gateway excluded."""

    if not 0 <= net_mask <= 32:
        raise ValueError(f"net_mask must be within 0..32, got {net_mask}")
    gw = int(ipaddress.IPv4Address(gateway))
    shift = 32 - net_mask
    prefix = gw >> shift if shift < 32 else 0
    matches = []
    for host in topology.hosts:
        value = int(ipaddress.IPv4Address(host))
        if host != gateway and (value >> shift if shift < 32 else 0) == prefix:
            matches.append((value, host))
    return [host for _, host in sorted(matches)]


class _Event:
    """A timer's handle; its action is None once it fired or was cancelled.

    A kernel's heap holds ``(time, seq, event)`` entries, so the heap
    compares a float and an int and never reaches the event.  Dropping the
    action lets a component keep its event (a cool-off or timeout handle)
    without the event's closure keeping the component alive.
    """

    __slots__ = ("action",)

    def __init__(self, action):
        self.action = action

    def cancel(self):
        self.action = None


@dataclass
class Traffic:
    """Messages of one payload type: how many were sent, their wire bytes, how many dropped."""

    sent: int = 0
    bytes: int = 0
    dropped: int = 0


class SimKernel:
    """Event loop, virtual clock, and message transport in one place."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self.now = 0.0
        self._queue: list[tuple[float, int, _Event]] = []
        self._seq = 0
        self._handlers: dict[Address, object] = {}
        # per ordered host pair: [its LinkSpec, its last scheduled arrival]
        self._routes: dict[tuple[str, str], list] = {}
        self.delivered = 0
        self.dropped = 0
        self.traffic: defaultdict[type, Traffic] = defaultdict(Traffic)  # by payload type

    # -- timers ------------------------------------------------------------

    def schedule(self, delay_ms: float, action) -> _Event:
        return self.schedule_at(self.now + max(0.0, delay_ms), action)

    def schedule_at(self, when: float, action) -> _Event:
        event = _Event(action)
        heapq.heappush(self._queue, (when, self._seq, event))
        self._seq += 1
        return event

    # -- endpoints ----------------------------------------------------------

    def bind(self, addr: Address, handler):
        if addr in self._handlers:
            raise ValueError(f"address {addr} already bound")
        self._handlers[addr] = handler

    def unbind(self, addr: Address):
        self._handlers.pop(addr, None)

    def is_bound(self, addr: Address) -> bool:
        return addr in self._handlers

    # -- transport -----------------------------------------------------------

    def send(self, envelope: MessageEnvelope):
        """Schedule delivery of one envelope, preserving per-pair FIFO order."""

        pair = (envelope.source.host, envelope.destination.host)
        size = protocol.message_wire_bytes(envelope)
        traffic = self.traffic[type(envelope.payload)]
        traffic.sent += 1
        traffic.bytes += size
        route = self._routes.get(pair)
        if route is None:
            route = self._routes[pair] = [self.topology.link(*pair), 0.0]
        arrival = max(self.now + route[0].transfer_ms(size), route[1])
        route[1] = arrival
        self.schedule_at(arrival, lambda: self._deliver(envelope))

    def _deliver(self, envelope: MessageEnvelope):
        handler = self._handlers.get(envelope.destination)
        if handler is None:
            self.dropped += 1
            self.traffic[type(envelope.payload)].dropped += 1
            return
        self.delivered += 1
        handler(envelope)

    # -- loop ---------------------------------------------------------------

    def run(self, until_ms: float = math.inf, stop_when=None) -> float:
        """Process events until the horizon, stop condition, or quiescence."""

        queue = self._queue
        while queue and queue[0][0] <= until_ms:
            when, _, event = heapq.heappop(queue)
            action = event.action
            if action is None:
                continue
            event.action = None
            self.now = max(self.now, when)
            action()
            if stop_when is not None and stop_when():
                break
        return self.now

    def close(self) -> None:
        """Drops the handlers and the pending events, which hold the components.

        ``Runtime.run()`` calls it when the deployment ends. The clock, the
        counts and the traffic table stay readable.
        """

        for _, _, event in self._queue:
            event.action = None
        self._queue.clear()
        self._handlers.clear()


class HostCompute:
    """Core-slot executor for abstract work on one host.

    At most cpu_cores jobs run at once; excess jobs queue FIFO.  Every running
    job progresses at the host's full aggregate rate, which keeps simulated
    durations equal to the response estimator's node costs by construction.
    The busy integral feeds the synthesized CPU-utilization signal; its
    checkpoints reach back as far as the longest window asked so far.
    """

    def __init__(self, kernel, spec: HostSpec):
        self.kernel = kernel
        self.spec = spec
        self.running = 0
        self._waiting = deque()
        self._integral = 0.0
        self._changed_at = 0.0
        self._checkpoints = deque([(0.0, 0.0)])
        self._history_ms = 0.0

    def _account(self):
        now = self.kernel.now
        if now > self._changed_at:
            self._integral += self.running * (now - self._changed_at)
            self._changed_at = now
            self._checkpoints.append((now, self._integral))
            while len(self._checkpoints) > 2 and self._checkpoints[1][0] < now - self._history_ms:
                self._checkpoints.popleft()

    def submit(self, work_units: float, done) -> None:
        """Queue one job; done() fires at completion."""

        duration = work_units / self.spec.rate_units_per_ms
        self._account()
        if self.running < self.spec.cpu_cores:
            self._start(duration, done)
        else:
            self._waiting.append((duration, done))

    def _start(self, duration, done):
        self.running += 1
        self.kernel.schedule(duration, lambda: self._finish(done))

    def _finish(self, done):
        self._account()
        self.running -= 1
        if self._waiting:
            duration, next_done = self._waiting.popleft()
            self._start(duration, next_done)
        done()

    def _integral_at(self, t: float) -> float:
        if t <= self._checkpoints[0][0]:
            return self._checkpoints[0][1]
        # Walk back from the newest checkpoint to the last one at or before t;
        # the oldest lies before t, so the walk always stops.
        after = None
        for point in reversed(self._checkpoints):
            if point[0] <= t:
                break
            after = point
        if after is not None:
            rate = (after[1] - point[1]) / (after[0] - point[0])
            return point[1] + rate * (t - point[0])
        if t <= self.kernel.now and self.kernel.now > point[0]:
            return point[1] + self.running * (t - point[0])
        return self._integral + self.running * max(0.0, self.kernel.now - self._changed_at)

    def utilization(self, window_ms: float) -> float:
        """Busy core time over the trailing window, normalized and clamped.

        Exact for a window no longer than one asked before; a longer window
        may miss busy time whose history was already dropped.
        """

        self._history_ms = max(self._history_ms, window_ms)
        now = self.kernel.now
        if window_ms <= 0 or now <= 0:
            return min(1.0, self.spec.base_cpu_util)
        start = max(0.0, now - window_ms)
        span = now - start
        if span <= 0:
            return min(1.0, self.spec.base_cpu_util)
        busy = self._integral_at(now) - self._integral_at(start)
        util = self.spec.base_cpu_util + busy / (self.spec.cpu_cores * span)
        return max(0.0, min(1.0, util))
