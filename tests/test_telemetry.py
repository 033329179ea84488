"""Telemetry stores, freshest-wins views, and the central log sink."""
import typing
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim.netsim import DEFAULT_LINK, LinkSpec, SimKernel, Topology, host_from_class
from fogsim.protocol import (
    ACTOR_PORT,
    MASTER_PORT,
    USER_PORT_BASE,
    Address,
    HostProfile,
    LogUpload,
    MessageEnvelope,
    Probe,
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
    assert "not a telemetry record" in validate_record("hello")


def test_ingest_accepts_good_rejects_bad_with_reasons():
    store = LogStore()
    good = [profile("b", sampled_at=3.0), profile("a", sampled_at=1.0)]
    bad = profile("c", util=2.0)
    accepted, rejected = store.ingest([good[0], bad, good[1]])
    assert accepted == 2
    assert len(rejected) == 1 and rejected[0][0] is bad and "cpu_util" in rejected[0][1]
    assert store.resources == good and store.images == []


_PLAIN = {str: "h", int: 1, float: 1.0, bool: True}


@pytest.mark.parametrize(
    "cls", typing.get_args(typing.get_type_hints(LogUpload)["records"]), ids=lambda cls: cls.__name__
)
def test_the_view_keeps_every_record_type(cls):
    """A record type the view drops would be uploaded and stored but never read."""
    hints = typing.get_type_hints(cls)
    record = cls(**{f.name: _PLAIN[hints[f.name]] for f in fields(cls)})
    view = TelemetryView()
    view.observe(record)
    assert list(view.host_profiles.values()) == [record]


def test_view_freshest_wins_insertion_breaks_ties():
    stale = profile("h", sampled_at=10.0, util=0.1)
    fresh = profile("h", sampled_at=20.0, util=0.2)
    tied = profile("h", sampled_at=20.0, util=0.3)
    view = TelemetryView()
    view.observe_all([fresh, stale])
    assert view.host_profiles == {"h": fresh}
    view.observe(tied)
    assert view.host_profiles == {"h": tied}


def test_snapshot_is_latest_per_key_in_sorted_order():
    store = LogStore()
    store.ingest([
        profile("b", sampled_at=1.0),
        profile("a", sampled_at=1.0),
        profile("a", sampled_at=5.0, util=0.4),
    ])
    snap = store.snapshot()
    assert [r.host for r in snap] == ["a", "b"]
    assert snap[0].cpu_util == 0.4
    assert store.snapshot() == snap


_hosts = st.sampled_from(["a", "b", "c"])
_times = st.sampled_from([0.0, 1.0, 2.5, 4.0, -1.0, float("nan")])  # the last two are invalid
_records = st.one_of(
    st.builds(profile, _hosts, sampled_at=_times, util=st.sampled_from([0.0, 0.5, 1.5])),
    st.just("not a record"),
)


def brute_force_snapshot(profiles):
    """Per host, in host order, the last-inserted of its profiles with the largest sampled_at."""

    by_host = {}
    for r in profiles:
        by_host.setdefault(r.host, []).append(r)
    out = []
    for host in sorted(by_host):
        top = max(r.sampled_at for r in by_host[host])
        out.append([r for r in by_host[host] if r.sampled_at == top][-1])
    return out


@settings(max_examples=150, deadline=None)
@given(batches=st.lists(st.lists(_records, max_size=12), max_size=6))
def test_incremental_ingest_snapshot_matches_brute_force(batches):
    store = LogStore()
    history = []  # every profile the store should accept, in arrival order
    for batch in batches:
        # Of the drawn values only a profile with a non-negative time and util <= 1 is valid (NaN fails >=).
        kept = [r for r in batch if isinstance(r, HostProfile) and r.sampled_at >= 0 and r.cpu_util <= 1.0]
        assert store.ingest(batch)[0] == len(kept)
        history.extend(kept)
        assert store.snapshot() == brute_force_snapshot(history)


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


def send(kernel, source, dest, payload):
    kernel.send(MessageEnvelope(source=source, destination=dest, payload=payload))


def test_logger_ignores_payloads_other_than_log_upload_and_counts_them():
    kernel, logger, client, inbox = logger_fixture()
    send(kernel, client, logger.addr, Probe())
    send(kernel, client, logger.addr, LogUpload(records=[profile("b", sampled_at=1.0)]))
    kernel.run()
    assert inbox == [] and logger.rejected == 0 and logger.ignored == 1
    assert len(logger.store.snapshot()) == 1


def test_logger_snapshot_reply_only_for_masters():
    kernel, logger, _, _ = logger_fixture()
    inboxes = {port: [] for port in (ACTOR_PORT, USER_PORT_BASE, MASTER_PORT)}
    for port, inbox in inboxes.items():
        kernel.bind(Address("b", port), inbox.append)
    records = [profile("b", sampled_at=1.0), profile("b", sampled_at=2.0)]
    for port, record in zip((ACTOR_PORT, USER_PORT_BASE), records):
        send(kernel, Address("b", port), logger.addr, LogUpload(records=[record]))
    kernel.run()
    assert inboxes == {ACTOR_PORT: [], USER_PORT_BASE: [], MASTER_PORT: []}  # stored, no snapshot back
    assert logger.store.resources == records

    send(kernel, Address("b", MASTER_PORT), logger.addr, LogUpload(records=[profile("a", sampled_at=3.0)]))
    kernel.run()
    assert inboxes[ACTOR_PORT] == inboxes[USER_PORT_BASE] == []
    (reply,) = inboxes[MASTER_PORT]
    assert reply.source == logger.addr
    assert reply.payload.records == logger.store.snapshot()


def test_logger_keeps_rejection_log():
    kernel, logger, client, inbox = logger_fixture()
    send(kernel, client, logger.addr, LogUpload(records=[profile("b", util=9.0)]))
    kernel.run()
    assert logger.rejected == 1
    assert logger.store.snapshot() == []
