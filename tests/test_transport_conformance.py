"""One behavioral contract, two carriers: simulated kernel and loopback TCP.

Every check runs against both kernels: delivery intactness, per-pair
FIFO order, interleaving across pairs, fan-in from many sources, large
frames, unbind semantics, silent drops for unbound destinations,
handler exceptions and close.  The TCP-only checks at the end cover the
wall-clock timers, a peer that sends a malformed frame, the descriptors
unbind releases and a burst of new connections beyond Python's default
listen backlog.
"""
import os
import socket
import time

import pytest

from fogsim.netsim import HostSpec, LinkSpec, SimKernel, Topology
from fogsim.protocol import Address, Data, MessageEnvelope, Probe, WarnNoResources
from fogsim.tcpnet import RealtimeKernel

HOSTS = ["10.9.0.1", "10.9.0.2", "10.9.0.3"]
FLUSH_DEADLINE_MS = 10_000.0
# How long the TCP carrier keeps running after the expected count arrived,
# so that a duplicate or stray delivery still shows in the count.
SETTLE_MS = 50.0


def _sim_kernel():
    topo = Topology([HostSpec(host=h) for h in HOSTS], default_link=LinkSpec(1.0, 1e9))
    return SimKernel(topo)


class Harness:
    """A kernel plus a count of envelopes its handlers have received."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.delivered = 0

    def bind(self, addr, handler):
        def counting(envelope):
            handler(envelope)
            self.delivered += 1

        self.kernel.bind(addr, counting)

    def flush(self, expected):
        """Runs the kernel until `expected` envelopes arrived and checks no more did.

        The simulated kernel drains its queue, which must empty before the
        deadline; the TCP kernel stops at the expected count and then settles
        for SETTLE_MS.
        """
        deadline = self.kernel.now + FLUSH_DEADLINE_MS
        if isinstance(self.kernel, SimKernel):
            assert self.kernel.run() <= deadline
        else:
            self.kernel.run(until_ms=deadline, stop_when=lambda: self.delivered >= expected)
            self.kernel.run(until_ms=self.kernel.now + SETTLE_MS)
        assert self.delivered == expected, f"{self.delivered} of {expected} envelopes arrived"


@pytest.fixture(params=[_sim_kernel, RealtimeKernel], ids=["sim", "tcp"])
def harness(request):
    kernel = request.param()
    yield Harness(kernel)
    kernel.close()


def test_delivers_envelope_intact(harness):
    got = []
    dst = Address(HOSTS[1], 7000)
    harness.bind(dst, lambda env: got.append(env))
    sent = MessageEnvelope(Address(HOSTS[0], 7001), dst, Data(request_id="r", frame_seq=9, size_bytes=64, payload="hi"))
    harness.kernel.send(sent)
    harness.flush(1)
    assert len(got) == 1
    assert got[0].source == sent.source
    assert got[0].destination == dst
    assert got[0].payload == sent.payload


def test_per_pair_order_is_fifo(harness):
    got = []
    dst = Address(HOSTS[1], 7000)
    src = Address(HOSTS[0], 7001)
    harness.bind(dst, lambda env: got.append(env.payload.frame_seq))
    for seq in range(50):
        harness.kernel.send(MessageEnvelope(src, dst, Data(request_id="r", frame_seq=seq, size_bytes=16)))
    harness.flush(50)
    assert got == list(range(50))


def test_interleaved_sources_each_stay_ordered(harness):
    got = []
    dst = Address(HOSTS[2], 7000)
    a = Address(HOSTS[0], 7001)
    b = Address(HOSTS[1], 7002)
    harness.bind(dst, lambda env: got.append((env.source, env.payload.frame_seq)))
    for seq in range(20):
        harness.kernel.send(MessageEnvelope(a, dst, Data(request_id="r", frame_seq=seq, size_bytes=16)))
        harness.kernel.send(MessageEnvelope(b, dst, Data(request_id="r", frame_seq=seq, size_bytes=16)))
    harness.flush(40)
    assert [seq for src, seq in got if src == a] == list(range(20))
    assert [seq for src, seq in got if src == b] == list(range(20))


def test_large_frame_survives(harness):
    got = []
    dst = Address(HOSTS[1], 7000)
    harness.bind(dst, lambda env: got.append(env.payload))
    blob = "x" * 1_000_000
    harness.kernel.send(
        MessageEnvelope(
            Address(HOSTS[0], 7001), dst, Data(request_id="r", frame_seq=0, size_bytes=16, payload=blob)
        )
    )
    harness.flush(1)
    assert got[0].payload == blob


def test_distinct_ports_on_one_host_are_distinct_endpoints(harness):
    got_a, got_b = [], []
    pa = Address(HOSTS[1], 7000)
    pb = Address(HOSTS[1], 7010)
    harness.bind(pa, lambda env: got_a.append(env))
    harness.bind(pb, lambda env: got_b.append(env))
    src = Address(HOSTS[0], 7001)
    harness.kernel.send(MessageEnvelope(src, pa, Probe()))
    harness.kernel.send(MessageEnvelope(src, pb, WarnNoResources(request_id="r")))
    harness.flush(2)
    assert [type(e.payload).__name__ for e in got_a] == ["Probe"]
    assert [type(e.payload).__name__ for e in got_b] == ["WarnNoResources"]


def test_unbound_destination_drops_silently(harness):
    got = []
    bound = Address(HOSTS[1], 7000)
    harness.bind(bound, lambda env: got.append(env))
    src = Address(HOSTS[0], 7001)
    harness.kernel.send(MessageEnvelope(src, Address(HOSTS[2], 7999), Probe()))
    harness.kernel.send(MessageEnvelope(src, bound, Probe()))
    harness.flush(1)
    assert len(got) == 1


def test_is_bound_tracks_bind_and_unbind(harness):
    addr = Address(HOSTS[0], 7000)
    assert not harness.kernel.is_bound(addr)
    harness.bind(addr, lambda env: None)
    assert harness.kernel.is_bound(addr)
    harness.kernel.unbind(addr)
    assert not harness.kernel.is_bound(addr)


def test_two_way_traffic(harness):
    a = Address(HOSTS[0], 7000)
    b = Address(HOSTS[1], 7001)
    got_a, got_b = [], []
    harness.bind(a, lambda env: got_a.append(env.payload.frame_seq))
    harness.bind(b, lambda env: got_b.append(env.payload.frame_seq))
    for seq in range(10):
        harness.kernel.send(MessageEnvelope(a, b, Data(request_id="r", frame_seq=seq, size_bytes=16)))
        harness.kernel.send(MessageEnvelope(b, a, Data(request_id="r", frame_seq=seq, size_bytes=16)))
    harness.flush(20)
    assert got_a == list(range(10))
    assert got_b == list(range(10))


def test_fan_in_from_many_sources(harness):
    got = []
    dst = Address(HOSTS[1], 7000)
    harness.bind(dst, lambda env: got.append(env.source))
    sources = [Address(HOSTS[0], 8000 + i) for i in range(100)]
    for src in sources:
        harness.kernel.send(MessageEnvelope(src, dst, Probe()))
    harness.flush(100)
    assert sorted(got) == sources


def test_handler_exception_propagates_and_run_resumes(harness):
    got = []

    def explode_once(env):
        if not got:
            got.append("raised")
            raise RuntimeError("handler bug")
        got.append(env.payload.frame_seq)

    dst = Address(HOSTS[1], 7000)
    src = Address(HOSTS[0], 7001)
    harness.bind(dst, explode_once)
    for seq in range(3):
        harness.kernel.send(MessageEnvelope(src, dst, Data(request_id="r", frame_seq=seq, size_bytes=16)))
    with pytest.raises(RuntimeError, match="handler bug"):
        harness.flush(3)
    harness.flush(2)
    assert got == ["raised", 1, 2]


def test_close_drops_handlers_and_timers_keeps_counts_and_a_second_close_does_nothing(harness):
    kernel = harness.kernel
    dst = Address(HOSTS[1], 7000)
    got = []
    harness.bind(dst, got.append)
    kernel.send(MessageEnvelope(Address(HOSTS[0], 7001), dst, Probe()))
    harness.flush(1)
    pending = kernel.schedule(60_000.0, lambda: got.append("late"))
    kernel.close()
    kernel.close()
    assert pending.action is None and not kernel.is_bound(dst)
    assert kernel.traffic[Probe].sent == 1 and len(got) == 1


# -- TCP only: wall-clock timers, misbehaving peers, connection bursts --------------


def test_realtime_kernel_fires_timers_in_order():
    kernel = RealtimeKernel()
    try:
        log = []
        kernel.schedule(30.0, lambda: log.append("late"))
        kernel.schedule(5.0, lambda: log.append("early"))
        cancelled = kernel.schedule(10.0, lambda: log.append("never"))
        cancelled.cancel()
        kernel.run(stop_when=lambda: len(log) == 2)
        assert log == ["early", "late"]
    finally:
        kernel.close()


def test_realtime_kernel_request_reply():
    kernel = RealtimeKernel()
    try:
        server = Address(HOSTS[0], 7000)
        client = Address(HOSTS[1], 7001)
        got = []

        def serve(env):
            kernel.send(MessageEnvelope(server, env.source, Data(request_id="r", frame_seq=1, size_bytes=8)))

        kernel.bind(server, serve)
        kernel.bind(client, lambda env: got.append(env.payload.frame_seq))
        kernel.schedule(1.0, lambda: kernel.send(MessageEnvelope(client, server, Probe())))
        kernel.run(until_ms=5000.0, stop_when=lambda: bool(got))
        assert got == [1]
    finally:
        kernel.close()


def test_malformed_peer_frame_is_counted_and_the_kernel_keeps_serving():
    kernel = RealtimeKernel()
    try:
        dst = Address(HOSTS[1], 7000)
        got = []
        kernel.bind(dst, got.append)
        body = b"{not json"
        with socket.create_connection(("127.0.0.1", kernel._endpoints[dst][1].getsockname()[1]), timeout=5.0) as peer:
            peer.sendall(len(body).to_bytes(4, "big") + body)
            kernel.run(until_ms=kernel.now + FLUSH_DEADLINE_MS, stop_when=lambda: kernel.bad_frames > 0)
        assert kernel.bad_frames == 1
        kernel.send(MessageEnvelope(Address(HOSTS[0], 7001), dst, Probe()))
        kernel.run(until_ms=kernel.now + FLUSH_DEADLINE_MS, stop_when=lambda: bool(got))
        assert [type(env.payload).__name__ for env in got] == ["Probe"]
        assert kernel.bad_frames == 1
    finally:
        kernel.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
def test_unbind_closes_connections_into_and_out_of_the_address():
    kernel = RealtimeKernel()
    try:
        server = Address(HOSTS[0], 7000)
        got = []

        def serve(env):
            got.append(env.source)
            kernel.send(MessageEnvelope(server, env.source, Probe()))

        kernel.bind(server, serve)
        kernel.run(until_ms=kernel.now + SETTLE_MS)
        before = len(os.listdir("/proc/self/fd"))
        for port in range(8000, 8020):
            client = Address(HOSTS[1], port)
            replies = []
            kernel.bind(client, replies.append)
            kernel.send(MessageEnvelope(client, server, Probe()))
            kernel.run(until_ms=kernel.now + FLUSH_DEADLINE_MS, stop_when=lambda: bool(replies))
            kernel.unbind(client)
        kernel.run(until_ms=kernel.now + SETTLE_MS)
        assert len(got) == 20
        assert len(os.listdir("/proc/self/fd")) == before
    finally:
        kernel.close()


def test_fan_in_burst_past_the_default_backlog_arrives_promptly():
    # 200 new connections at once overflow a 128-entry listen backlog; the
    # refused handshakes are then retried by the operating system after ~1 s.
    kernel = RealtimeKernel()
    try:
        dst = Address(HOSTS[1], 7000)
        got = []
        kernel.bind(dst, lambda env: got.append(env.source))
        sources = [Address(HOSTS[0], 8000 + i) for i in range(200)]
        start = time.monotonic()
        for src in sources:
            kernel.send(MessageEnvelope(src, dst, Probe()))
        kernel.run(until_ms=kernel.now + FLUSH_DEADLINE_MS, stop_when=lambda: len(got) == len(sources))
        elapsed = time.monotonic() - start
        assert sorted(got) == sources
        assert elapsed < 0.5, f"200 sources took {elapsed:.2f} s"
    finally:
        kernel.close()
