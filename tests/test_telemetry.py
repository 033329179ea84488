"""Telemetry stores, freshest-wins views, and the central log sink."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim.netsim import DEFAULT_LINK, LinkSpec, SimKernel, Topology, host_from_class
from fogsim.protocol import (
    Address,
    ComponentId,
    ComponentKind,
    HostProfile,
    ImageRecord,
    LogUpload,
    MessageEnvelope,
    Probe,
    ProbeReply,
    ProcessingSample,
    ResponseSample,
)
from fogsim.telemetry import (
    LogStore,
    RemoteLogger,
    TelemetryView,
    rate_from_profile,
    sample_host,
    validate_record,
)


def profile(host, sampled_at=0.0, util=0.0, cores=4, ghz=2.0):
    return HostProfile(host=host, cpu_cores=cores, cpu_freq_ghz=ghz,
                       mem_capacity_mb=4096.0, cpu_util=util, mem_util=0.1,
                       sampled_at=sampled_at)


def test_validate_catches_each_bad_field():
    assert validate_record(profile("h")) is None
    assert "cpu_cores" in validate_record(profile("h", cores=0))
    assert "cpu_util" in validate_record(profile("h", util=1.5))
    assert "finite" in validate_record(profile("h", ghz=float("inf")))
    assert "sampled_at" in validate_record(profile("h", sampled_at=-1.0))
    assert "task" in validate_record(ImageRecord(host="h", task="", available=True, sampled_at=0.0))
    assert "processing_ms" in validate_record(
        ProcessingSample(task="t", host="h", processing_ms=-1.0, sampled_at=1.0))
    assert "response_ms" in validate_record(
        ResponseSample(request_id="r", app="a", response_ms=-5.0, sampled_at=1.0))
    assert "not a telemetry record" in validate_record("hello")


def test_ingest_accepts_good_rejects_bad_with_reasons():
    store = LogStore()
    good = [profile("a"), ProcessingSample(task="t", host="a", processing_ms=3.0, sampled_at=1.0),
            ImageRecord(host="a", task="t", available=True, sampled_at=1.0)]
    bad = profile("c", util=2.0)
    accepted, rejected = store.ingest(good + [bad])
    assert accepted == 3
    assert len(rejected) == 1 and rejected[0][0] is bad and "cpu_util" in rejected[0][1]
    assert len(store.resources) == 1 and len(store.perf) == 1 and len(store.images) == 1


def test_view_freshest_wins_insertion_breaks_ties():
    stale = profile("h", sampled_at=10.0, util=0.1)
    fresh = profile("h", sampled_at=20.0, util=0.2)
    tied = profile("h", sampled_at=20.0, util=0.3)
    view = TelemetryView()
    view.observe_all([fresh, stale])
    assert view.host_profiles == {"h": fresh}
    view.observe(tied)
    assert view.host_profiles == {"h": tied}
    fresh_image = ImageRecord(host="h", task="t", available=False, sampled_at=2.0)
    view.observe_all([fresh_image, ImageRecord(host="h", task="t", available=True, sampled_at=1.0)])
    assert view.images == {("h", "t"): fresh_image}


def test_snapshot_is_latest_per_key_in_sorted_order():
    store = LogStore()
    store.ingest([
        profile("b", sampled_at=1.0),
        profile("a", sampled_at=1.0),
        profile("a", sampled_at=5.0, util=0.4),
        ImageRecord(host="b", task="t2", available=True, sampled_at=0.0),
        ImageRecord(host="a", task="t1", available=True, sampled_at=0.0),
        ResponseSample(request_id="r", app="x", response_ms=10.0, sampled_at=0.0),
    ])
    snap = store.snapshot()
    assert [r.host for r in snap[:2]] == ["a", "b"]
    assert snap[0].cpu_util == 0.4
    assert [(r.host, r.task) for r in snap[2:]] == [("a", "t1"), ("b", "t2")]
    assert store.snapshot() == snap


def stored(store):
    """Every record the store accepted, table by table, each in arrival order."""
    return store.images + store.resources + store.perf


def test_ingest_files_each_record_in_its_table():
    store = LogStore()
    records = [profile("a", sampled_at=3.0),
               ProcessingSample(task="t", host="a", processing_ms=4.0, sampled_at=0.0),
               ImageRecord(host="a", task="t", available=False, sampled_at=1.0),
               ResponseSample(request_id="r", app="x", response_ms=12.5, sampled_at=2.0)]
    assert store.ingest(records) == (4, [])
    assert store.images == [records[2]]
    assert store.resources == [records[0]]
    assert store.perf == [records[1], records[3]]


_hosts = st.sampled_from(["a", "b", "c"])
_times = st.sampled_from([0.0, 1.0, 2.5, 4.0, -1.0, float("nan")])  # the last two are invalid
_records = st.one_of(
    st.builds(profile, _hosts, sampled_at=_times, util=st.sampled_from([0.0, 0.5, 1.5])),
    st.builds(ImageRecord, host=_hosts, task=st.sampled_from(["t1", "t2", ""]),
              available=st.booleans(), sampled_at=_times),
    st.builds(ProcessingSample, task=st.sampled_from(["t1", "t2"]), host=_hosts,
              processing_ms=st.sampled_from([3.0, -1.0]), sampled_at=_times),
    st.builds(ResponseSample, request_id=st.sampled_from(["r1", "r2"]), app=st.just("x"),
              response_ms=st.sampled_from([9.0, -1.0]), sampled_at=_times),
    st.just("not a record"),
)


def brute_force_snapshot(records):
    """Per key, the last-inserted of the records with the largest sampled_at."""

    groups = ({}, {})
    for r in records:
        if isinstance(r, HostProfile):
            groups[0].setdefault(r.host, []).append(r)
        elif isinstance(r, ImageRecord):
            groups[1].setdefault((r.host, r.task), []).append(r)
    out = []
    for by_key in groups:
        for key in sorted(by_key):
            top = max(r.sampled_at for r in by_key[key])
            out.append([r for r in by_key[key] if r.sampled_at == top][-1])
    return out


@settings(max_examples=150, deadline=None)
@given(batches=st.lists(st.lists(_records, max_size=12), max_size=6))
def test_incremental_ingest_snapshot_matches_brute_force(batches):
    store = LogStore()
    accepted = 0
    for batch in batches:
        accepted += store.ingest(batch)[0]
        assert store.snapshot() == brute_force_snapshot(stored(store))
    assert accepted == len(stored(store))


def test_rate_from_profile_discounts_load():
    assert rate_from_profile(profile("h", cores=4, ghz=2.0, util=0.0)) == 8.0
    assert rate_from_profile(profile("h", cores=4, ghz=2.0, util=0.25)) == 6.0


def test_sample_host_uses_spec_when_idle():
    spec = host_from_class("h", "rpi4")
    got = sample_host(spec, None, now=42.0)
    assert got.host == "h" and got.cpu_cores == 4 and got.sampled_at == 42.0
    assert got.cpu_util == spec.base_cpu_util


# -- view -------------------------------------------------------------------------


def two_host_topology():
    hosts = [host_from_class("a", "desktop"), host_from_class("b", "rpi4")]
    return Topology(hosts, {("a", "b"): LinkSpec(5.0, 100e6)}, DEFAULT_LINK)


def test_view_seeds_profiles_from_topology():
    view = TelemetryView(two_host_topology())
    assert view.host_rate("a") == 8 * 3.6
    assert view.host_rate("b") == 4 * 1.5
    with pytest.raises(KeyError):
        view.host_rate("nowhere")


def test_view_freshest_sample_overrides_topology():
    view = TelemetryView(two_host_topology())
    view.observe(profile("a", sampled_at=100.0, util=0.5, cores=8, ghz=3.6))
    assert view.host_rate("a") == pytest.approx(8 * 3.6 * 0.5)
    view.observe(profile("a", sampled_at=50.0, util=0.0, cores=8, ghz=3.6))
    assert view.host_rate("a") == pytest.approx(8 * 3.6 * 0.5)  # stale ignored


# -- remote logger ----------------------------------------------------------------


def logger_fixture():
    kernel = SimKernel(two_host_topology())
    logger = RemoteLogger(kernel, "a")
    inbox = []
    client = Address("b", 7000)
    kernel.bind(client, inbox.append)
    return kernel, logger, client, inbox


def send(kernel, source, dest, payload, sender_id=None):
    kernel.send(MessageEnvelope(source=source, destination=dest, payload=payload,
                                sender_id=sender_id))


def test_logger_answers_probes_as_logger_kind():
    kernel, logger, client, inbox = logger_fixture()
    send(kernel, client, logger.addr, Probe())
    kernel.run()
    assert len(inbox) == 1
    reply = inbox[0].payload
    assert isinstance(reply, ProbeReply)
    assert reply.kind == ComponentKind.RemoteLogger and reply.actors == []


def test_logger_snapshot_reply_only_for_masters():
    kernel, logger, client, inbox = logger_fixture()
    records = [profile("b", sampled_at=1.0)]
    send(kernel, client, logger.addr, LogUpload(records=records))
    kernel.run()
    assert inbox == []  # anonymous upload: stored, no snapshot back
    assert logger.store.resources == records

    master_id = ComponentId(kind=ComponentKind.Master, serial=0, origin=Address("a", 5000))
    send(kernel, client, logger.addr, LogUpload(records=[profile("a", sampled_at=2.0)]),
         sender_id=master_id)
    kernel.run()
    assert len(inbox) == 1
    assert inbox[0].payload.records == logger.store.snapshot()


def test_logger_keeps_rejection_log():
    kernel, logger, client, inbox = logger_fixture()
    send(kernel, client, logger.addr, LogUpload(records=[profile("b", util=9.0)]))
    kernel.run()
    assert len(logger.rejections) == 1 and "cpu_util" in logger.rejections[0][1]
    assert stored(logger.store) == []
