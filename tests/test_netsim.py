"""Kernel, topology, and host compute: ordering, timing math, accounting."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim.netsim import (
    DEFAULT_LINK,
    HOST_CLASSES,
    HostCompute,
    HostSpec,
    LinkSpec,
    SimKernel,
    Topology,
    host_from_class,
    scan_subnet,
)
from fogsim.protocol import Address, Data, HostProfile, LogUpload, MessageEnvelope, Probe, message_wire_bytes


def _kernel(*hosts, links=None, default=DEFAULT_LINK):
    specs = [HostSpec(host=h) for h in hosts]
    return SimKernel(Topology(specs, links=links, default_link=default))


def _env(src, dst, payload=None):
    return MessageEnvelope(Address(src, 1), Address(dst, 2), payload or Probe())


# -- topology -----------------------------------------------------------------


def test_host_rate_is_cores_times_freq_minus_base():
    spec = HostSpec(host="h", cpu_cores=8, cpu_freq_ghz=3.6)
    assert spec.rate_units_per_ms == pytest.approx(28.8)
    loaded = HostSpec(host="h", cpu_cores=4, cpu_freq_ghz=2.0, base_cpu_util=0.5)
    assert loaded.rate_units_per_ms == pytest.approx(4.0)


def test_host_classes_cover_the_testbed_mix():
    assert set(HOST_CLASSES) == {"rpi4", "desktop", "cloud-2c", "cloud-4c"}
    spec = host_from_class("10.0.0.1", "rpi4")
    assert (spec.cpu_cores, spec.cpu_freq_ghz) == (4, 1.5)
    tweaked = host_from_class("10.0.0.1", "rpi4", base_cpu_util=0.2)
    assert tweaked.base_cpu_util == 0.2
    with pytest.raises(KeyError):
        host_from_class("10.0.0.1", "laptop")


def test_topology_rejects_duplicate_hosts():
    with pytest.raises(ValueError):
        Topology([HostSpec(host="a"), HostSpec(host="a")])


def test_link_lookup_is_symmetric_with_default_fallback():
    fast = LinkSpec(1.0, 1e9)
    topo = Topology([HostSpec(host="a"), HostSpec(host="b"), HostSpec(host="c")], links={("a", "b"): fast})
    assert topo.link("a", "b") is fast
    assert topo.link("b", "a") is fast
    assert topo.link("a", "c") is DEFAULT_LINK
    assert topo.link("a", "a").latency_ms == 0.0
    assert topo.link("a", "a").data_rate_bps == math.inf


def test_transfer_time_is_latency_plus_transmission():
    topo = Topology([HostSpec(host="a"), HostSpec(host="b")], default_link=LinkSpec(5.0, 100e6))
    # 65536 bytes at 100 Mbps: 65536 * 8 / 1e8 s = 5.24288 ms on top of latency.
    assert topo.transfer_ms("a", "b", 65536) == pytest.approx(10.24288)
    assert topo.transfer_ms("a", "b", 0) == pytest.approx(5.0)
    assert topo.transfer_ms("a", "a", 10**9) == 0.0


def test_memoised_link_equals_the_symmetric_lookup_for_every_ordered_pair():
    fast, slow = LinkSpec(1.0, 1e9), LinkSpec(9.0, 1e6)
    # ("b", "a") is listed the other way round; "x" is outside the topology.
    topo = Topology([HostSpec(host=h) for h in "abc"], links={("a", "c"): fast, ("b", "a"): slow})
    listed = {("a", "c"): fast, ("c", "a"): fast, ("a", "b"): slow, ("b", "a"): slow}
    hosts = "abcx"
    pairs = [(src, dst) for src in hosts for dst in hosts]

    def expected(src, dst):
        if src == dst:
            return LinkSpec(0.0, math.inf)
        return listed.get((src, dst), DEFAULT_LINK)

    first = {pair: topo.link(*pair) for pair in pairs}
    assert first == {pair: expected(*pair) for pair in pairs}
    assert first[("a", "c")] is fast and first[("a", "b")] is slow and first[("x", "a")] is DEFAULT_LINK
    assert all(topo.link(*pair) is first[pair] for pair in pairs)  # after first use
    assert all(topo.transfer_ms(*pair, 4096) == expected(*pair).transfer_ms(4096) for pair in pairs)


def test_link_memo_holds_only_the_pairs_asked_for():
    topo = Topology([HostSpec(host=h) for h in "abc"])
    topo.link("a", "b")
    topo.transfer_ms("c", "c", 10)
    topo.hop_table(("a",), ("a", "c"), 10)
    assert set(topo._pair_links) == {("a", "b"), ("c", "c"), ("a", "a"), ("a", "c")}


def test_hop_table_equals_transfer_ms_cell_by_cell_and_is_built_once():
    topo = Topology([HostSpec(host=h) for h in "abc"], links={("b", "a"): LinkSpec(1.0, 1e7)},
                    default_link=LinkSpec(5.0, 1e8))
    sources, destinations = ("a", "b", "a"), ("b", "c", "a")
    table = topo.hop_table(sources, destinations, 65536)
    assert table == tuple(tuple(topo.transfer_ms(s, d, 65536) for d in destinations) for s in sources)
    assert [table[0][2], table[2][2]] == [0.0, 0.0]  # co-located hosts
    assert table[0][0] == table[1][2] == pytest.approx(1.0 + 65536 * 8 / 1e7 * 1000)
    assert topo.hop_table(sources, destinations, 65536) is table
    assert topo.hop_table(sources, destinations, 1) != table
    assert len(topo._hop_tables) == 2


def test_scan_subnet_groups_by_masked_prefix():
    hosts = ["10.0.1.5", "10.0.1.9", "10.0.1.200", "10.0.2.5", "192.168.0.1"]
    topo = Topology([HostSpec(host=h) for h in hosts])
    assert scan_subnet("10.0.1.9", 24, topo) == ["10.0.1.5", "10.0.1.200"]
    assert scan_subnet("10.0.1.9", 16, topo) == ["10.0.1.5", "10.0.1.200", "10.0.2.5"]
    assert scan_subnet("10.0.1.9", 32, topo) == []
    assert scan_subnet("10.0.1.9", 0, topo) == sorted(
        (h for h in hosts if h != "10.0.1.9"), key=lambda h: tuple(int(x) for x in h.split("."))
    )
    with pytest.raises(ValueError):
        scan_subnet("10.0.1.9", 33, topo)


# -- kernel ---------------------------------------------------------------------


def test_same_time_events_fire_in_insertion_order():
    kernel = _kernel("a")
    log = []
    kernel.schedule_at(5.0, lambda: log.append("first"))
    kernel.schedule_at(5.0, lambda: log.append("second"))
    kernel.schedule_at(1.0, lambda: log.append("early"))
    kernel.run()
    assert log == ["early", "first", "second"]
    assert kernel.now == 5.0


def test_cancelled_events_do_not_fire():
    kernel = _kernel("a")
    log = []
    event = kernel.schedule_at(1.0, lambda: log.append("no"))
    kernel.schedule_at(2.0, lambda: log.append("yes"))
    event.cancel()
    kernel.run()
    assert log == ["yes"]
    assert kernel.now == 2.0


def test_fired_and_cancelled_events_hold_no_action():
    # A component may keep its event handle; the event must not keep the
    # closure, and through it the component, alive.
    kernel = _kernel("a")
    log = []
    fired = kernel.schedule_at(1.0, lambda: log.append("fired"))
    cancelled = kernel.schedule_at(2.0, lambda: log.append("no"))
    cancelled.cancel()
    assert cancelled.action is None
    kernel.run()
    assert log == ["fired"]
    assert fired.action is None and cancelled.action is None


def test_run_until_horizon_leaves_later_events_queued():
    kernel = _kernel("a")
    log = []
    kernel.schedule_at(1.0, lambda: log.append(1))
    kernel.schedule_at(10.0, lambda: log.append(10))
    kernel.run(until_ms=5.0)
    assert log == [1]
    kernel.run()
    assert log == [1, 10]


def test_stop_when_halts_after_the_triggering_event():
    kernel = _kernel("a")
    log = []
    for t in (1.0, 2.0, 3.0):
        kernel.schedule_at(t, lambda t=t: log.append(t))
    kernel.run(stop_when=lambda: len(log) == 2)
    assert log == [1.0, 2.0]


def test_delivery_charges_latency_and_transmission():
    kernel = _kernel("a", "b", default=LinkSpec(5.0, 100e6))
    kernel.bind(Address("b", 2), lambda env: arrivals.append(kernel.now))
    arrivals = []
    kernel.send(_env("a", "b", Data(request_id="r", frame_seq=0, size_bytes=65536)))
    kernel.run()
    assert arrivals == [pytest.approx(10.24288)]


def test_per_pair_fifo_never_reorders():
    # A huge frame then a tiny probe: raw math would let the probe overtake.
    kernel = _kernel("a", "b", default=LinkSpec(5.0, 1e6))
    order = []
    kernel.bind(Address("b", 2), lambda env: order.append((type(env.payload).__name__, kernel.now)))
    kernel.send(_env("a", "b", Data(request_id="r", frame_seq=0, size_bytes=10**6)))
    kernel.send(_env("a", "b", Probe()))
    kernel.run()
    assert [name for name, _ in order] == ["Data", "Probe"]
    assert order[0][1] == order[1][1]  # clamped to the big frame's arrival


def test_fifo_clamp_is_per_ordered_pair():
    kernel = _kernel("a", "b", "c", default=LinkSpec(5.0, 1e6))
    order = []
    kernel.bind(Address("b", 2), lambda env: order.append("slowpair"))
    kernel.bind(Address("c", 2), lambda env: order.append("fastpair"))
    kernel.send(_env("a", "b", Data(request_id="r", frame_seq=0, size_bytes=10**6)))
    kernel.send(_env("a", "c", Probe()))
    kernel.run()
    assert order == ["fastpair", "slowpair"]


def test_arrivals_stay_fifo_per_pair_for_self_zero_byte_and_default_links():
    kernel = _kernel("a", "b", "c", links={("b", "a"): LinkSpec(1.0, 1e6)}, default=LinkSpec(5.0, 1e6))
    log = []
    for host in "abc":
        kernel.bind(Address(host, 2), lambda env: log.append((env.payload.frame_seq, kernel.now)))

    def data(src, dst, seq, size):
        kernel.send(_env(src, dst, Data(request_id="r", frame_seq=seq, size_bytes=size)))

    data("a", "a", 0, 10**6)  # self link: free however large
    data("a", "a", 1, 0)
    data("a", "b", 2, 1000)  # listed as ("b", "a"): 1 ms + 8 ms
    data("a", "b", 3, 0)  # 1 ms alone, held behind seq 2
    data("a", "c", 4, 0)  # default link, latency only
    data("a", "c", 5, 1000)
    data("c", "a", 6, 0)  # the reverse pair keeps its own order
    kernel.schedule_at(20.0, lambda: data("a", "b", 7, 0))
    kernel.run()
    assert [seq for seq, _ in log] == [0, 1, 4, 6, 2, 3, 5, 7]
    assert [when for _, when in log] == [0.0, 0.0, 5.0, 5.0, pytest.approx(9.0), pytest.approx(9.0),
                                        pytest.approx(13.0), 21.0]
    assert set(kernel._routes) == {("a", "a"), ("a", "b"), ("a", "c"), ("c", "a")}


def test_unbound_destination_is_dropped_and_counted():
    kernel = _kernel("a", "b")
    kernel.send(_env("a", "b"))
    kernel.run()
    assert kernel.delivered == 0
    assert kernel.dropped == 1
    assert kernel.traffic[Probe].dropped == 1


def test_traffic_is_counted_per_payload_type():
    kernel = _kernel("a", "b")
    kernel.bind(Address("b", 2), lambda env: None)
    upload = _env("a", "b", LogUpload(records=[HostProfile("a", 4, 2.0, 4096.0, 0.5, 0.1, 8.0)]))
    probe = MessageEnvelope(Address("a", 1), Address("b", 9), Probe())  # nothing bound at b:9
    kernel.send(upload)
    kernel.send(probe)
    kernel.run()
    assert (kernel.delivered, kernel.dropped) == (1, 1)
    assert set(kernel.traffic) == {LogUpload, Probe}
    assert vars(kernel.traffic[LogUpload]) == {"sent": 1, "bytes": message_wire_bytes(upload), "dropped": 0}
    assert vars(kernel.traffic[Probe]) == {"sent": 1, "bytes": message_wire_bytes(probe), "dropped": 1}


def test_a_control_frame_costs_the_same_bytes_whenever_it_is_sent():
    kernel = _kernel("a", "b")
    kernel.bind(Address("b", 2), lambda env: None)
    upload = LogUpload(records=[HostProfile("a", 4, 2.0, 4096.0, 0.5, 0.1, 8.0)])
    kernel.send(_env("a", "b", upload))
    early = kernel.traffic[LogUpload].bytes
    kernel.schedule_at(1234.567891, lambda: kernel.send(_env("a", "b", upload)))
    kernel.run()
    assert kernel.now > 1234.567891
    assert (kernel.traffic[LogUpload].sent, kernel.traffic[LogUpload].bytes) == (2, 2 * early)


def test_double_bind_rejected_and_unbind_frees():
    kernel = _kernel("a")
    addr = Address("a", 1)
    kernel.bind(addr, lambda env: None)
    with pytest.raises(ValueError):
        kernel.bind(addr, lambda env: None)
    kernel.unbind(addr)
    kernel.bind(addr, lambda env: None)
    assert kernel.is_bound(addr)


def test_identical_schedules_replay_identically():
    def trace():
        kernel = _kernel("a", "b", default=LinkSpec(2.0, 1e8))
        log = []
        kernel.bind(Address("b", 2), lambda env: log.append((type(env.payload).__name__, kernel.now)))
        kernel.schedule_at(1.0, lambda: kernel.send(_env("a", "b", Probe())))
        kernel.schedule_at(1.0, lambda: kernel.send(_env("a", "b", Data(request_id="r", frame_seq=0, size_bytes=4096))))
        kernel.run()
        return log

    assert trace() == trace()


# -- host compute ----------------------------------------------------------------


def test_job_duration_is_work_over_rate():
    kernel = _kernel("a")
    compute = HostCompute(kernel, HostSpec(host="a", cpu_cores=4, cpu_freq_ghz=1.5))
    finished = []
    assert compute.submit(60.0, lambda: finished.append(kernel.now)) is None
    kernel.run()
    assert finished == [pytest.approx(10.0)]


def test_jobs_beyond_core_count_queue_fifo():
    kernel = _kernel("a")
    compute = HostCompute(kernel, HostSpec(host="a", cpu_cores=2, cpu_freq_ghz=1.0))
    finished = []
    for name in ("one", "two", "three"):
        compute.submit(2.0, lambda name=name: finished.append((name, kernel.now)))
    kernel.run()
    assert finished == [("one", pytest.approx(1.0)), ("two", pytest.approx(1.0)), ("three", pytest.approx(2.0))]


def test_utilization_integrates_busy_core_time():
    kernel = _kernel("a")
    compute = HostCompute(kernel, HostSpec(host="a", cpu_cores=4, cpu_freq_ghz=1.5))
    compute.submit(60.0, lambda: None)  # 10 ms on one of four cores
    kernel.run()
    kernel.schedule_at(20.0, lambda: None)
    kernel.run()
    assert compute.utilization(10.0) == pytest.approx(0.0)  # window [10, 20] is idle
    assert compute.utilization(20.0) == pytest.approx(0.25 / 2)
    assert compute.utilization(0.0) == 0.0


def test_utilization_includes_base_and_clamps():
    kernel = _kernel("a")
    compute = HostCompute(kernel, HostSpec(host="a", cpu_cores=1, cpu_freq_ghz=1.0, base_cpu_util=0.9))
    compute.submit(10.0, lambda: None)
    kernel.run()
    assert compute.utilization(10.0) == 1.0  # 0.9 base + fully busy window, clamped


def test_utilization_keeps_the_history_its_longest_window_needs():
    kernel = _kernel("a")
    compute = HostCompute(kernel, HostSpec(host="a", cpu_cores=1, cpu_freq_ghz=1.0))
    assert compute.utilization(120_000.0) == 0.0  # a profiler's first ask, at t=0
    compute.submit(50_000.0, lambda: None)  # busy from 0 to 50 s
    kernel.schedule_at(119_000.0, lambda: compute.submit(1.0, lambda: None))
    kernel.run(until_ms=119_000.0)
    # the submit at 119 s checkpoints the integral; 0-50 s must survive it
    assert compute.utilization(120_000.0) == pytest.approx(50 / 119, rel=1e-12)
    assert compute.utilization(90_000.0) == pytest.approx(21 / 90, rel=1e-12)


def _integral_at_by_forward_scan(compute, t):
    """The busy integral at t as HostCompute once found it: copy the checkpoints, scan from the oldest."""
    if t <= compute._checkpoints[0][0]:
        return compute._checkpoints[0][1]
    result = compute._integral + compute.running * max(0.0, compute.kernel.now - compute._changed_at)
    previous = compute._checkpoints[0]
    for point in list(compute._checkpoints)[1:]:
        if point[0] > t:
            rate = (point[1] - previous[1]) / (point[0] - previous[0])
            return previous[1] + rate * (t - previous[0])
        previous = point
    if t <= compute.kernel.now and compute.kernel.now > previous[0]:
        return previous[1] + compute.running * (t - previous[0])
    return result


_compute_ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.floats(0.5, 20_000.0)),
        st.tuples(st.just("advance"), st.floats(0.0, 30_000.0)),
        st.tuples(st.just("query"), st.floats(-0.1, 1.2)),
        st.tuples(st.just("checkpoint"), st.integers(0, 200)),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(ops=_compute_ops)
def test_busy_integral_walk_back_matches_the_forward_scan(ops):
    kernel = _kernel("a")
    compute = HostCompute(kernel, HostSpec(host="a", cpu_cores=2, cpu_freq_ghz=1.0))
    queries = []
    for op, arg in ops:
        if op == "submit":
            compute.submit(arg, lambda: None)
        elif op == "advance":
            target = kernel.now + arg
            kernel.schedule_at(target, lambda: None)
            kernel.run(until_ms=target)
        elif op == "query":
            queries.append(arg * kernel.now)
        else:
            queries.append(compute._checkpoints[arg % len(compute._checkpoints)][0])
        # every query is asked again after each later step, as the state moves on
        for t in queries:
            assert compute._integral_at(t) == _integral_at_by_forward_scan(compute, t)
