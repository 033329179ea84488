"""Frame codec: canonical bytes, full round-trips, and malformed input."""
import json
import math
import pickle
from dataclasses import astuple, dataclass, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogsim import protocol
from fogsim.errors import EncodingOverflow, NeedMoreBytes, ProtocolError
from fogsim.protocol import (
    LENGTH_PREFIX,
    MAX_BODY_BYTES,
    Address,
    AdvertiseMaster,
    Data,
    ExecutorReady,
    ForwardToMaster,
    FrameBuffer,
    HostProfile,
    InitNewMaster,
    InitTaskExecutor,
    LogUpload,
    MasterLoad,
    MessageEnvelope,
    PlacementRequest,
    Probe,
    ProbeReply,
    RegisterActor,
    ResourcesReady,
    Result,
    WarnNoResources,
    decode,
    encode,
    frame_length,
    message_wire_bytes,
)

A1 = Address("10.0.0.1", 5000)
A2 = Address("10.0.0.2", 5001)
PROFILE = HostProfile("10.0.0.2", 8, 3.6, 16384.0, 0.25, 0.1, 1000.0)

SAMPLE_PAYLOADS = [
    RegisterActor(profile=PROFILE, images=["ocr", "*"]),
    PlacementRequest(request_id="10.0.0.9:5100#0", app="VOCR", frame_size_bytes=2048),
    InitTaskExecutor(request_id="r", app="VOCR", task="ocr", dependencies=[("grab", A2)]),
    ExecutorReady(request_id="r", task="ocr"),
    ResourcesReady(request_id="r"),
    Data(request_id="r", frame_seq=3, size_bytes=65536, task="grab", final=True, payload="x"),
    Result(request_id="r", frame_seq=3, task="ocr", size_bytes=12, final=False),
    Probe(),
    ProbeReply(actors=[A2, Address("10.0.0.3", 5001)]),
    AdvertiseMaster(master=A1),
    InitNewMaster(actors=[A2]),
    ForwardToMaster(sub_master=Address("10.0.0.4", 5000)),
    MasterLoad(queued=3, in_flight=2),
    WarnNoResources(request_id="r"),
    LogUpload(records=[PROFILE, HostProfile("10.0.0.3", 4, 2.4, 8192.0, 0.5, 0.2, 2000.0)]),
]


def test_samples_hold_one_of_each_payload_type():
    assert sorted(type(p).__name__ for p in SAMPLE_PAYLOADS) == sorted(
        cls.__name__ for cls in protocol.PAYLOAD_TYPES
    )


def _envelope(payload):
    return MessageEnvelope(source=A1, destination=A2, payload=payload)


def _record_tree(record) -> dict:
    """The record's wire tree, as a LogUpload frame carries it."""
    return json.loads(encode(_envelope(LogUpload(records=[record])))[4:])["payload"]["records"][0]


@pytest.mark.parametrize("payload", SAMPLE_PAYLOADS, ids=lambda p: type(p).__name__)
def test_every_payload_round_trips(payload):
    env = _envelope(payload)
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
    tree = {"source": "a:1", "destination": "b:2", "payload": {"type": "Probe"}}
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


def _payload_frame(payload, mutate):
    """Frame of an envelope whose payload wire tree was changed by mutate."""
    tree = json.loads(encode(_envelope(payload))[4:])
    mutate(tree["payload"])
    body = json.dumps(tree).encode()
    return len(body).to_bytes(4, "big") + body


_WRONG_TYPES = [
    (RegisterActor(profile=PROFILE), lambda p: p.update(images=5), "RegisterActor.images"),
    (RegisterActor(profile=PROFILE), lambda p: p.update(images=["ocr", 5]), "RegisterActor.images"),
    (RegisterActor(profile=PROFILE), lambda p: p["profile"].update(cpu_cores="8"), "HostProfile.cpu_cores"),
    (RegisterActor(profile=PROFILE), lambda p: p["profile"].update(cpu_cores=8.0), "HostProfile.cpu_cores"),
    (RegisterActor(profile=PROFILE), lambda p: p["profile"].update(sampled_at=[]), "HostProfile.sampled_at"),
    (RegisterActor(profile=PROFILE), lambda p: p["profile"].update(cpu_util=True), "HostProfile.cpu_util"),
    (
        RegisterActor(profile=PROFILE),
        lambda p: p.update(profile={"type": "MasterLoad", "queued": 1, "in_flight": 0}),
        "RegisterActor.profile",
    ),
    (Data(request_id="r", frame_seq=0, size_bytes=1), lambda p: p.update(request_id=7), "Data.request_id"),
    (Data(request_id="r", frame_seq=0, size_bytes=1), lambda p: p.update(frame_seq="x"), "Data.frame_seq"),
    (Data(request_id="r", frame_seq=0, size_bytes=1), lambda p: p.update(size_bytes=None), "Data.size_bytes"),
    (Data(request_id="r", frame_seq=0, size_bytes=1), lambda p: p.update(final=1), "Data.final"),
    (Result(request_id="r", frame_seq=0), lambda p: p.update(frame_seq=True), "Result.frame_seq"),
    (LogUpload(records=[PROFILE]), lambda p: p["records"][0].update(mem_util="x"), "HostProfile.mem_util"),
    (LogUpload(records=[]), lambda p: p.update(records=[{"type": "Probe"}]), "LogUpload.records"),
    (
        InitTaskExecutor(request_id="r", app="VOCR", task="ocr", dependencies=[("grab", A2)]),
        lambda p: p["dependencies"][0].__setitem__(0, 5),
        "InitTaskExecutor.dependencies",
    ),
    (InitNewMaster(actors=[]), lambda p: p.update(actors={"a": 1}), "InitNewMaster.actors"),
    (MasterLoad(queued=0, in_flight=1), lambda p: p.update(queued=1.0), "MasterLoad.queued"),
    (MasterLoad(queued=0, in_flight=1), lambda p: p.update(in_flight=True), "MasterLoad.in_flight"),
]


@pytest.mark.parametrize("payload,mutate,where", _WRONG_TYPES, ids=[where for *_, where in _WRONG_TYPES])
def test_field_of_the_wrong_type_is_a_protocol_error(payload, mutate, where):
    with pytest.raises(ProtocolError, match=rf"bad value for {where}:"):
        decode(_payload_frame(payload, mutate))


@pytest.mark.parametrize(
    "extra",
    [{"bogus": 7}, {"sent_at": 0.0, "sender_id": None}],
    ids=["bogus", "old-sent_at-and-sender_id"],
)
def test_header_with_a_key_besides_source_destination_and_payload_is_rejected(extra):
    body = _body(**extra)
    with pytest.raises(ProtocolError, match="bad envelope header") as err:
        decode(len(body).to_bytes(4, "big") + body)
    assert all(key in str(err.value) for key in extra)


@pytest.mark.parametrize("missing", ["source", "destination", "payload"])
def test_header_without_source_destination_or_payload_is_rejected(missing):
    tree = json.loads(_body())
    del tree[missing]
    body = json.dumps(tree).encode()
    with pytest.raises(ProtocolError, match="bad envelope header") as err:
        decode(len(body).to_bytes(4, "big") + body)
    assert missing in str(err.value)
    assert err.value.offset == 4


def test_annotation_without_a_wire_form_is_rejected():
    @dataclass
    class Tally:
        counts: list[int]
        total: int

    with pytest.raises(TypeError, match=r"Tally\.counts"):
        protocol._schema(Tally)


def test_oversized_prefix_rejected_before_the_body_arrives():
    buffer = FrameBuffer()
    with pytest.raises(ProtocolError, match="exceeds"):
        buffer.feed((protocol.MAX_BODY_BYTES + 1).to_bytes(4, "big"))


def test_unknown_struct_tag_rejected():
    body = json.dumps(
        {
            "source": "a:1",
            "destination": "b:2",
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
            "payload": {"type": "Probe", "surprise": 1},
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    with pytest.raises(ProtocolError, match="surprise"):
        decode(len(body).to_bytes(4, "big") + body)


def test_record_where_payload_expected_rejected():
    body = json.dumps(
        {"source": "a:1", "destination": "b:2", "payload": _record_tree(PROFILE)},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    with pytest.raises(ProtocolError, match="not a message payload"):
        decode(len(body).to_bytes(4, "big") + body)


def test_oversized_body_raises(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_BODY_BYTES", 16)
    with pytest.raises(EncodingOverflow):
        encode(_envelope(Probe()))
    with pytest.raises(EncodingOverflow):
        message_wire_bytes(_envelope(Probe()))


@pytest.mark.parametrize("freqs", [(2, 2.0), (2.0, 2)])
def test_equal_records_keep_their_own_encoded_length(freqs):
    # 2 and 2.0 compare equal and hash alike but encode as "2" and "2.0", so
    # the length a record keeps must belong to that object, not to its value.
    one, two = (HostProfile("10.0.0.2", 8, freq, 16384.0, 0.25, 0.1, 1000.0) for freq in freqs)
    assert one == two and hash(one) == hash(two)
    envelopes = [_envelope(LogUpload(records=[record])) for record in (one, two)]
    sizes = [message_wire_bytes(env) for env in envelopes]
    assert sizes == [len(encode(env)) for env in envelopes]
    assert abs(sizes[0] - sizes[1]) == len("2.0") - len("2")
    assert [message_wire_bytes(env) for env in envelopes] == sizes  # and again, from the kept lengths


def test_a_sized_record_is_the_same_value():
    record = HostProfile("10.0.0.2", 8, 3.6, 16384.0, 0.25, 0.1, 1000.0)
    message_wire_bytes(_envelope(LogUpload(records=[record])))
    twin = HostProfile("10.0.0.2", 8, 3.6, 16384.0, 0.25, 0.1, 1000.0)
    assert [f.name for f in fields(record)] == [
        "host", "cpu_cores", "cpu_freq_ghz", "mem_capacity_mb", "cpu_util", "mem_util", "sampled_at"
    ]
    assert record == twin and hash(record) == hash(twin) and repr(record) == repr(twin)
    assert pickle.loads(pickle.dumps(record)) == record
    assert encode(_envelope(LogUpload(records=[record]))) == encode(_envelope(LogUpload(records=[twin])))


def test_wire_bytes_is_the_frame_length_with_addresses_reused_across_envelopes():
    # Each address is sized on its first envelope and read back on the later ones.
    pairs = [(A1, A2), (A2, A1), (A1, A1), (A2, Address("10.0.0.3", 5100))]
    for source, destination in pairs:
        for payload in SAMPLE_PAYLOADS:
            env = MessageEnvelope(source, destination, payload)
            if isinstance(payload, (Data, Result)):
                assert message_wire_bytes(env) == payload.size_bytes
            else:
                assert message_wire_bytes(env) == len(encode(env))


def test_equal_addresses_keep_their_own_encoded_length():
    # Like records: port True equals port 1 but is written "True", not "1".
    one, true = Address("10.0.0.1", 1), Address("10.0.0.1", True)
    assert one == true and hash(one) == hash(true)
    for source in (one, true, one, true):
        env = MessageEnvelope(source, A2, Probe())
        assert message_wire_bytes(env) == len(encode(env))


def test_a_sized_address_is_the_same_value():
    sized = Address("10.0.0.5", 5200)
    message_wire_bytes(MessageEnvelope(sized, sized, Probe()))
    fresh = Address("10.0.0.5", 5200)
    assert [f.name for f in fields(sized)] == ["host", "port"] and astuple(sized) == astuple(fresh)
    assert sized == fresh and hash(sized) == hash(fresh)
    assert repr(sized) == repr(fresh) and str(sized) == str(fresh)
    assert sorted([A2, sized, A1]) == sorted([A2, fresh, A1]) == [A1, A2, sized]
    assert not sized < fresh and not fresh < sized
    for protocol_version in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(sized, protocol_version))
        assert copy == fresh and str(copy) == str(fresh)
        env = MessageEnvelope(copy, copy, Probe())
        assert message_wire_bytes(env) == len(encode(env))
    moved = replace(sized, port=12345)
    assert moved == replace(fresh, port=12345) == Address("10.0.0.5", 12345)
    env = MessageEnvelope(moved, sized, Probe())
    assert message_wire_bytes(env) == len(encode(env))


def test_wire_bytes_charges_data_at_logical_size():
    data = _envelope(Data(request_id="r", frame_seq=0, size_bytes=10_000_000))
    result = _envelope(Result(request_id="r", frame_seq=0, size_bytes=333))
    probe = _envelope(Probe())
    assert message_wire_bytes(data) == 10_000_000
    assert message_wire_bytes(result) == 333
    assert message_wire_bytes(probe) == len(encode(probe))


def test_record_round_trips_inside_a_log_upload():
    frame = encode(_envelope(LogUpload(records=[PROFILE])))
    assert b"\n" not in frame[4:]
    assert decode(frame).payload.records == [PROFILE]


def test_log_upload_rejects_unknown_tags_and_payload_types_as_records():
    upload = LogUpload(records=[PROFILE])
    with pytest.raises(ProtocolError, match="HostProfileX"):
        decode(_payload_frame(upload, lambda p: p["records"][0].update(type="HostProfileX")))
    with pytest.raises(ProtocolError, match="LogUpload.records"):
        decode(_payload_frame(upload, lambda p: p.update(records=[{"type": "Probe"}])))


def test_log_upload_carrying_an_image_record_is_rejected():
    # Host profiles are the only telemetry record; the image record that once
    # rode in LogUpload is an unknown tag now.
    image = {"type": "ImageRecord", "host": "h", "task": "t", "available": True, "sampled_at": 1.0}
    frame = _payload_frame(LogUpload(records=[PROFILE]), lambda p: p["records"].append(image))
    with pytest.raises(ProtocolError, match="unknown struct tag 'ImageRecord'"):
        decode(frame)


def test_address_parse_round_trip():
    for addr in (A1, Address("", 1), Address("host:with:colons", 65535)):
        assert Address.parse(str(addr)) == addr


# -- property tests ---------------------------------------------------------

_hosts = st.from_regex(r"10\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})", fullmatch=True)
_addrs = st.builds(Address, host=_hosts, port=st.integers(1, 65535))
_names = st.text(min_size=0, max_size=20)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
_sizes = st.integers(0, 2**40)


def _envelopes_with(floats):
    """Envelopes of every payload type, with float fields drawn from floats."""

    profiles = st.builds(
        HostProfile,
        host=_hosts,
        cpu_cores=st.integers(1, 128),
        cpu_freq_ghz=floats,
        mem_capacity_mb=floats,
        cpu_util=floats,
        mem_util=floats,
        sampled_at=floats,
    )
    deps = st.lists(st.tuples(_names, _addrs), max_size=4)

    payloads = st.one_of(
        st.builds(RegisterActor, profile=profiles, images=st.lists(_names, max_size=4)),
        st.builds(PlacementRequest, request_id=_names, app=_names, frame_size_bytes=_sizes),
        st.builds(InitTaskExecutor, request_id=_names, app=_names, task=_names, dependencies=deps),
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
        st.builds(ProbeReply, actors=st.lists(_addrs, max_size=4)),
        st.builds(AdvertiseMaster, master=_addrs),
        st.builds(InitNewMaster, actors=st.lists(_addrs, max_size=4)),
        st.builds(ForwardToMaster, sub_master=_addrs),
        st.builds(MasterLoad, queued=st.integers(0, 2**31), in_flight=st.integers(0, 2**31)),
        st.builds(WarnNoResources, request_id=_names),
        st.builds(LogUpload, records=st.lists(profiles, max_size=4)),
    )
    return st.builds(MessageEnvelope, source=_addrs, destination=_addrs, payload=payloads)


_envelopes = _envelopes_with(_floats)
# What the wire may carry in a float field besides finite floats: ints, NaN and
# the infinities, each written in its own JSON form.
_wire_envelopes = _envelopes_with(
    st.one_of(st.floats(width=64), st.integers(-(2**70), 2**70), st.sampled_from([math.nan, math.inf, -math.inf]))
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


# -- byte-identity oracle -----------------------------------------------------
# The type-ladder codec that the annotation-driven field table replaced, kept
# verbatim (only the two public names are prefixed) as the wire-bytes oracle.

_BY_NAME = {cls.__name__: cls for cls in (*protocol.PAYLOAD_TYPES, HostProfile)}


def _to_tree(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Address):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_to_tree(item) for item in value]
    if type(value) in _BY_NAME.values():
        tree = {"type": type(value).__name__}
        for f in fields(value):
            tree[f.name] = _to_tree(getattr(value, f.name))
        return tree
    raise EncodingOverflow(f"cannot encode value of type {type(value).__name__}")


def ladder_encode(envelope: MessageEnvelope) -> bytes:
    """Serialize one envelope to a length-prefixed frame."""

    tree = {
        "source": str(envelope.source),
        "destination": str(envelope.destination),
        "payload": _to_tree(envelope.payload),
    }
    body = json.dumps(tree, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_BODY_BYTES:
        raise EncodingOverflow(f"body of {len(body)} bytes exceeds {MAX_BODY_BYTES}")
    return LENGTH_PREFIX.pack(len(body)) + body


def ladder_message_wire_bytes(envelope: MessageEnvelope) -> int:
    """Bytes a transport charges for the envelope.

    Data and Result frames are charged at their declared logical size (the
    synthetic payload stands in for real content); control traffic is charged
    at its encoded size.
    """

    if isinstance(envelope.payload, (Data, Result)):
        return int(envelope.payload.size_bytes)
    return len(ladder_encode(envelope))


def _assert_same_bytes_as_the_ladder(env):
    frame = ladder_encode(env)
    assert encode(env) == frame
    assert message_wire_bytes(env) == ladder_message_wire_bytes(env)
    if not isinstance(env.payload, (Data, Result)):
        assert message_wire_bytes(env) == len(frame)


@pytest.mark.parametrize("payload", SAMPLE_PAYLOADS, ids=lambda p: type(p).__name__)
def test_encode_matches_the_type_ladder_oracle(payload):
    _assert_same_bytes_as_the_ladder(_envelope(payload))
    if isinstance(payload, LogUpload):
        for record in payload.records:
            _assert_same_bytes_as_the_ladder(_envelope(LogUpload(records=[record])))


@settings(max_examples=200, deadline=None)
@given(env=_wire_envelopes)
def test_random_envelope_encodes_as_the_type_ladder_did(env):
    _assert_same_bytes_as_the_ladder(env)
