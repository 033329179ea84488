"""Frame codec: canonical bytes, full round-trips, and malformed input."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import protocol
from fogsim.errors import EncodingOverflow, NeedMoreBytes, ProtocolError
from fogsim.protocol import (
    Address,
    AdvertiseMaster,
    ComponentId,
    ComponentKind,
    Data,
    ExecutorReady,
    ForwardToMaster,
    FrameBuffer,
    HostProfile,
    ImageRecord,
    InitNewMaster,
    InitTaskExecutor,
    LinkSample,
    LogUpload,
    MessageEnvelope,
    PlacementRequest,
    Probe,
    ProbeReply,
    ProcessingSample,
    RegisterActor,
    RegisterUser,
    ResourcesReady,
    ResponseSample,
    Result,
    ReuseTaskExecutor,
    WarnNoResources,
    decode,
    encode,
    encode_record,
    decode_record,
    frame_length,
    message_wire_bytes,
)

A1 = Address("10.0.0.1", 5000)
A2 = Address("10.0.0.2", 5001)
PROFILE = HostProfile("10.0.0.2", 8, 3.6, 16384.0, 0.25, 0.1, 1000.0)

SAMPLE_PAYLOADS = [
    RegisterActor(profile=PROFILE, images=["ocr", "*"]),
    RegisterUser(app="VOCR", entry=Address("10.0.0.9", 5100), frame_size_bytes=1024),
    PlacementRequest(request_id="10.0.0.9:5100#0", app="VOCR", frame_size_bytes=2048),
    InitTaskExecutor(request_id="r", app="VOCR", task="ocr", dependencies=[("grab", A2)]),
    ReuseTaskExecutor(request_id="r", app="VOCR", task="ocr", dependencies=[]),
    ExecutorReady(request_id="r", task="ocr"),
    ResourcesReady(request_id="r"),
    Data(request_id="r", frame_seq=3, size_bytes=65536, task="grab", final=True, payload="x"),
    Result(request_id="r", frame_seq=3, task="ocr", size_bytes=12, final=False),
    Probe(),
    ProbeReply(kind=ComponentKind.Master, actors=[A2, Address("10.0.0.3", 5001)]),
    AdvertiseMaster(master=A1),
    InitNewMaster(requester=A1, actors=[A2]),
    ForwardToMaster(sub_master=Address("10.0.0.4", 5000)),
    WarnNoResources(request_id="r"),
    LogUpload(
        records=[
            PROFILE,
            ImageRecord("10.0.0.2", "ocr", True, 5.0),
            LinkSample("10.0.0.1", "10.0.0.2", 2.5, 1e8, 65536, 6.0),
            ProcessingSample("ocr", "10.0.0.2", 12.5, 7.0),
            ResponseSample("r", "VOCR", 104.5, 8.0),
        ]
    ),
]


def _envelope(payload, sender=None):
    return MessageEnvelope(source=A1, destination=A2, payload=payload, sent_at=12.75, sender_id=sender)


@pytest.mark.parametrize("payload", SAMPLE_PAYLOADS, ids=lambda p: type(p).__name__)
def test_every_payload_round_trips(payload):
    env = _envelope(payload, sender=ComponentId(ComponentKind.Master, 4, A1))
    frame = encode(env)
    assert frame_length(frame) == len(frame)
    assert decode(frame) == env


@pytest.mark.parametrize("payload", SAMPLE_PAYLOADS, ids=lambda p: type(p).__name__)
def test_reencode_is_byte_identical(payload):
    frame = encode(_envelope(payload))
    assert encode(decode(frame)) == frame


def test_prefix_is_big_endian_length():
    frame = encode(_envelope(Probe()))
    assert int.from_bytes(frame[:4], "big") == len(frame) - 4


def test_body_is_canonical_json():
    frame = encode(_envelope(WarnNoResources(request_id="r")))
    body = json.loads(frame[4:])
    assert body["payload"]["type"] == "WarnNoResources"
    assert frame[4:] == json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def test_truncated_prefix_asks_for_more():
    frame = encode(_envelope(Probe()))
    with pytest.raises(NeedMoreBytes) as err:
        frame_length(frame[:2])
    assert err.value.needed == 2


def test_truncated_body_asks_for_more():
    frame = encode(_envelope(Probe()))
    with pytest.raises(NeedMoreBytes) as err:
        decode(frame[:-5])
    assert err.value.needed == 5


def test_trailing_bytes_are_ignored():
    env = _envelope(ResourcesReady(request_id="r"))
    assert decode(encode(env) + b"garbage") == env


def test_non_json_body_reports_offset():
    bad = len(b"{notjson").to_bytes(4, "big") + b"{notjson"
    with pytest.raises(ProtocolError) as err:
        decode(bad)
    assert err.value.offset >= 4


def _body(**overrides):
    tree = {"source": "a:1", "destination": "b:2", "sender_id": None, "sent_at": 0.0, "payload": {"type": "Probe"}}
    tree.update(overrides)
    return json.dumps(tree).encode()


@pytest.mark.parametrize(
    "body",
    [
        _body(payload={"type": []}),
        _body(source=5),
        _body(payload={"type": "AdvertiseMaster", "master": 7}),
        b"[" * 100_000,
    ],
    ids=["unhashable-tag", "numeric-address", "numeric-field-address", "deep-nesting"],
)
def test_malformed_body_is_a_protocol_error(body):
    with pytest.raises(ProtocolError):
        decode(len(body).to_bytes(4, "big") + body)


def test_oversized_prefix_rejected_before_the_body_arrives():
    buffer = FrameBuffer()
    with pytest.raises(ProtocolError, match="exceeds"):
        buffer.feed((protocol.MAX_BODY_BYTES + 1).to_bytes(4, "big"))


def test_unknown_struct_tag_rejected():
    body = json.dumps(
        {
            "source": "a:1",
            "destination": "b:2",
            "sender_id": None,
            "sent_at": 0.0,
            "payload": {"type": "Bogus"},
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    with pytest.raises(ProtocolError, match="Bogus"):
        decode(len(body).to_bytes(4, "big") + body)


def test_missing_field_rejected():
    body = json.dumps(
        {
            "source": "a:1",
            "destination": "b:2",
            "sender_id": None,
            "sent_at": 0.0,
            "payload": {"type": "WarnNoResources"},
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    with pytest.raises(ProtocolError, match="request_id"):
        decode(len(body).to_bytes(4, "big") + body)


def test_unknown_extra_field_rejected():
    body = json.dumps(
        {
            "source": "a:1",
            "destination": "b:2",
            "sender_id": None,
            "sent_at": 0.0,
            "payload": {"type": "Probe", "surprise": 1},
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    with pytest.raises(ProtocolError, match="surprise"):
        decode(len(body).to_bytes(4, "big") + body)


def test_record_where_payload_expected_rejected():
    body = json.dumps(
        {
            "source": "a:1",
            "destination": "b:2",
            "sender_id": None,
            "sent_at": 0.0,
            "payload": {
                "type": "ImageRecord",
                "host": "h",
                "task": "t",
                "available": True,
                "sampled_at": 0.0,
            },
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    with pytest.raises(ProtocolError, match="not a message payload"):
        decode(len(body).to_bytes(4, "big") + body)


def test_oversized_body_raises(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_BODY_BYTES", 16)
    with pytest.raises(EncodingOverflow):
        encode(_envelope(Probe()))


def test_wire_bytes_charges_data_at_logical_size():
    data = _envelope(Data(request_id="r", frame_seq=0, size_bytes=10_000_000))
    result = _envelope(Result(request_id="r", frame_seq=0, size_bytes=333))
    probe = _envelope(Probe())
    assert message_wire_bytes(data) == 10_000_000
    assert message_wire_bytes(result) == 333
    assert message_wire_bytes(probe) == len(encode(probe))


def test_record_line_round_trip():
    for record in (PROFILE, ImageRecord("h", "t", False, 1.0), ResponseSample("r", "a", 5.0, 2.0)):
        line = encode_record(record)
        assert "\n" not in line
        assert decode_record(line) == record


def test_record_line_rejects_payload_types():
    line = encode_record(PROFILE).replace("HostProfile", "HostProfileX")
    with pytest.raises(ProtocolError):
        decode_record(line)
    with pytest.raises(ProtocolError, match="not a telemetry record"):
        decode_record(json.dumps({"type": "Probe"}))


def test_address_parse_round_trip():
    for addr in (A1, Address("", 1), Address("host:with:colons", 65535)):
        assert Address.parse(str(addr)) == addr


# -- property tests ---------------------------------------------------------

_hosts = st.from_regex(r"10\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})", fullmatch=True)
_addrs = st.builds(Address, host=_hosts, port=st.integers(1, 65535))
_names = st.text(min_size=0, max_size=20)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_sizes = st.integers(0, 2**40)

_profiles = st.builds(
    HostProfile,
    host=_hosts,
    cpu_cores=st.integers(1, 128),
    cpu_freq_ghz=_floats,
    mem_capacity_mb=_floats,
    cpu_util=_floats,
    mem_util=_floats,
    sampled_at=_floats,
)
_records = st.one_of(
    _profiles,
    st.builds(ImageRecord, host=_hosts, task=_names, available=st.booleans(), sampled_at=_floats),
    st.builds(
        LinkSample,
        host_a=_hosts,
        host_b=_hosts,
        latency_ms=_floats,
        data_rate_bps=_floats,
        packet_size=_sizes,
        sampled_at=_floats,
    ),
    st.builds(ProcessingSample, task=_names, host=_hosts, processing_ms=_floats, sampled_at=_floats),
    st.builds(ResponseSample, request_id=_names, app=_names, response_ms=_floats, sampled_at=_floats),
)
_deps = st.lists(st.tuples(_names, _addrs), max_size=4)

_payloads = st.one_of(
    st.builds(RegisterActor, profile=_profiles, images=st.lists(_names, max_size=4)),
    st.builds(RegisterUser, app=_names, entry=_addrs, frame_size_bytes=_sizes),
    st.builds(PlacementRequest, request_id=_names, app=_names, frame_size_bytes=_sizes),
    st.builds(InitTaskExecutor, request_id=_names, app=_names, task=_names, dependencies=_deps),
    st.builds(ReuseTaskExecutor, request_id=_names, app=_names, task=_names, dependencies=_deps),
    st.builds(ExecutorReady, request_id=_names, task=_names),
    st.builds(ResourcesReady, request_id=_names),
    st.builds(
        Data,
        request_id=_names,
        frame_seq=st.integers(0, 2**31),
        size_bytes=_sizes,
        task=_names,
        final=st.booleans(),
        payload=_names,
    ),
    st.builds(
        Result,
        request_id=_names,
        frame_seq=st.integers(0, 2**31),
        task=_names,
        size_bytes=_sizes,
        final=st.booleans(),
    ),
    st.builds(Probe),
    st.builds(ProbeReply, kind=st.sampled_from(ComponentKind), actors=st.lists(_addrs, max_size=4)),
    st.builds(AdvertiseMaster, master=_addrs),
    st.builds(InitNewMaster, requester=_addrs, actors=st.lists(_addrs, max_size=4)),
    st.builds(ForwardToMaster, sub_master=_addrs),
    st.builds(WarnNoResources, request_id=_names),
    st.builds(LogUpload, records=st.lists(_records, max_size=4)),
)
_senders = st.one_of(
    st.none(),
    st.builds(ComponentId, kind=st.sampled_from(ComponentKind), serial=st.integers(0, 2**31), origin=_addrs),
)
_envelopes = st.builds(
    MessageEnvelope, source=_addrs, destination=_addrs, payload=_payloads, sent_at=_floats, sender_id=_senders
)


@settings(max_examples=200, deadline=None)
@given(env=_envelopes)
def test_random_envelope_round_trip(env):
    frame = encode(env)
    decoded = decode(frame)
    assert decoded == env
    assert encode(decoded) == frame


@settings(max_examples=30, deadline=None)
@given(envs=st.lists(_envelopes, min_size=1, max_size=8), chunk=st.integers(1, 64))
def test_frame_buffer_reassembles_any_chunking(envs, chunk):
    stream = b"".join(encode(e) for e in envs)
    buffer = FrameBuffer()
    got = []
    for i in range(0, len(stream), chunk):
        got.extend(buffer.feed(stream[i : i + chunk]))
    assert got == envs
    assert buffer.pending() == 0
