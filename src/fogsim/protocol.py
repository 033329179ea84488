"""Wire protocol: addresses, message payloads, and the frame codec.

Every byte that crosses a host boundary is a frame: a 4-byte big-endian length
prefix followed by a canonical tagged text body (JSON with sorted keys and
compact separators).  The body is one envelope: source address, destination
address and payload, with no other header key.  Equal envelopes always encode
to identical bytes, which is what makes simulated runs byte-reproducible and
lets the loopback TCP transport share one codec with the simulator.

The payload dataclasses and HostProfile are the wire schema: at import each
field's annotation picks its codec from ``_CODECS`` (an annotation without
one fails the import), and encode and decode of frames walk the per-class
field tables built from them.

``message_wire_bytes`` walks the same field tables to add up the exact length
of the frame ``encode`` would write, without building it.  Addresses and host
profiles are frozen, so each keeps its own quoted length, outside its
dataclass fields, once it has been sized: a component's address is sized once
per run, not once per message it sends or receives.
"""

from __future__ import annotations

import functools
import json
import struct
import typing
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _quote

from .errors import EncodingOverflow, NeedMoreBytes, ProtocolError

LENGTH_PREFIX = struct.Struct(">I")
# Largest body a frame may carry, checked on both sides of the wire so a
# peer cannot make a receiver buffer without bound.  No preset frame comes
# anywhere near it.
MAX_BODY_BYTES = 64 * 2**20

# Conventional listening ports.  Discovery probes subnet hosts at the master
# and actor ports and tells the two apart by a reply's source port;
# everything else learns addresses from message traffic.
MASTER_PORT = 5000
ACTOR_PORT = 5001
LOGGER_PORT = 5002
USER_PORT_BASE = 5100
EXECUTOR_PORT_BASE = 5200

# Pseudo producer task for frames that originate at a user device.
SENSOR_TASK = "__sensor__"


@dataclass(frozen=True, order=True)
class Address:
    """Location of one component endpoint: IPv4 host plus port."""

    host: str
    port: int

    def __str__(self):
        return f"{self.host}:{self.port}"

    @functools.cached_property
    def _wire_len(self) -> int:
        """Length of the quoted text a frame carries for this address.

        Kept by the object once read, outside the dataclass fields, so it
        takes no part in comparing, hashing or replacing an address.
        """
        return len(_quote(str(self)))

    @functools.cached_property
    def _hash(self) -> int:
        # Kept like _wire_len: addresses key the kernels' handler tables, so
        # every delivery hashes one.
        return hash((self.host, self.port))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Only the fields: a kept hash is valid only in the process that made it.
        return type(self), (self.host, self.port)

    @classmethod
    def parse(cls, text: str) -> "Address":
        if not isinstance(text, str):
            raise TypeError(f"address must be text, not {type(text).__name__}")
        host, _, port = text.rpartition(":")
        return cls(host, int(port))


# ---------------------------------------------------------------------------
# The one telemetry record.  It lives here because it crosses the wire inside
# RegisterActor and LogUpload; the telemetry module re-exports it.


class _Record:
    """Base of HostProfile: one slot, outside the dataclass fields, where
    message_wire_bytes keeps the record's encoded length once sized."""

    __slots__ = ("_wire_len",)


@dataclass(frozen=True, slots=True)
class HostProfile(_Record):
    """Capabilities and load of one host as reported by its profiler."""

    host: str
    cpu_cores: int
    cpu_freq_ghz: float
    mem_capacity_mb: float
    cpu_util: float
    mem_util: float
    sampled_at: float


# ---------------------------------------------------------------------------
# Message payloads.  This is the complete vocabulary: every payload used
# anywhere in the system is one of these fifteen variants.


@dataclass
class RegisterActor:
    profile: HostProfile
    images: list[str] = field(default_factory=list)  # task names, "*" = any


@dataclass
class PlacementRequest:
    request_id: str
    app: str
    frame_size_bytes: int = 65536


@dataclass
class InitTaskExecutor:
    request_id: str
    app: str
    task: str
    dependencies: list[tuple[str, Address]] = field(default_factory=list)  # (task name, actor)


@dataclass
class ExecutorReady:
    request_id: str
    task: str


@dataclass
class ResourcesReady:
    request_id: str


@dataclass
class Data:
    """One frame of streamed input, or an intermediate task output."""

    request_id: str
    frame_seq: int
    size_bytes: int
    task: str = SENSOR_TASK  # producer task of this frame
    final: bool = False
    payload: str = ""


@dataclass
class Result:
    request_id: str
    frame_seq: int
    task: str = ""
    size_bytes: int = 0
    final: bool = False


@dataclass
class Probe:
    pass


@dataclass
class ProbeReply:
    actors: list[Address] = field(default_factory=list)  # masters only


@dataclass
class AdvertiseMaster:
    master: Address


@dataclass
class InitNewMaster:
    actors: list[Address] = field(default_factory=list)  # parent's registered actors


@dataclass
class ForwardToMaster:
    sub_master: Address


@dataclass
class MasterLoad:
    """A master's requests waiting in its queue and being scheduled, sent to the masters it knows."""

    queued: int
    in_flight: int


@dataclass
class WarnNoResources:
    request_id: str


@dataclass
class LogUpload:
    records: list[HostProfile] = field(default_factory=list)


MessagePayload = (
    RegisterActor | PlacementRequest | InitTaskExecutor
    | ExecutorReady | ResourcesReady | Data | Result
    | Probe | ProbeReply | AdvertiseMaster | InitNewMaster | ForwardToMaster
    | MasterLoad | WarnNoResources | LogUpload
)
PAYLOAD_TYPES = typing.get_args(MessagePayload)


@dataclass
class MessageEnvelope:
    """Addressed carrier for exactly one payload."""

    source: Address
    destination: Address
    payload: MessagePayload


# ---------------------------------------------------------------------------
# Value <-> wire-tree conversion.  A codec is a (to_tree, from_tree) pair:
# to_tree None hands the value to JSON as is (a struct reaches _struct_tree
# through the encoder's default hook, as a dict tagged with its class name),
# and from_tree rebuilds the value or raises TypeError or ValueError.


def _is(*types):
    """from_tree that passes a value whose exact type is one of types (so no bool is an int)."""

    def check(value):
        if type(value) not in types:
            raise TypeError(f"expected {' or '.join(t.__name__ for t in types)}, not {type(value).__name__}")
        return value

    return check


def _each(from_item):
    return lambda raw: [from_item(item) for item in _list(raw)]


def _nested(check):
    # Structs nest only inside frame payloads, so errors point at the body.
    return lambda raw: check(_struct_from_tree(raw, LENGTH_PREFIX.size))


def _dependency(raw):
    task, addr = _list(raw)
    return _text(task), Address.parse(addr)


def _struct_tree(value) -> dict:
    schema = _SCHEMA.get(type(value))
    if schema is None:
        raise EncodingOverflow(f"cannot encode value of type {type(value).__name__}")
    tree = {"type": type(value).__name__}
    for name, (to_tree, _) in schema:
        raw = getattr(value, name)
        tree[name] = raw if to_tree is None else to_tree(raw)
    return tree


_list, _text, _number = _is(list), _is(str), _is(float, int)
_CODECS = {
    int: (None, _is(int)),
    float: (None, _number),
    str: (None, _text),
    bool: (None, _is(bool)),
    list[str]: (None, _each(_text)),
    Address: (str, Address.parse),
    HostProfile: (None, _nested(_is(HostProfile))),
    list[Address]: (lambda value: [str(addr) for addr in value], _each(Address.parse)),
    list[tuple[str, Address]]: (lambda value: [[task, str(addr)] for task, addr in value], _each(_dependency)),
    list[HostProfile]: (None, _each(_nested(_is(HostProfile)))),
}


def check_value(hint, value):
    """Check value against a field annotation by the wire's rule, or raise TypeError.

    An int takes no bool and a float takes an int but no bool; ``X | None``
    also takes None. The scenario parser holds config scalars to the same rule.
    """
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return value
        (hint,) = (arg for arg in args if arg is not type(None))
    return _CODECS[hint][1](value)


def _schema(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    unknown = [f"{cls.__name__}.{f.name}: {hints[f.name]}" for f in fields(cls) if hints[f.name] not in _CODECS]
    if unknown:
        raise TypeError(f"no wire form for {unknown}")
    return tuple((f.name, _CODECS[hints[f.name]]) for f in fields(cls))


_SCHEMA = {cls: _schema(cls) for cls in (*PAYLOAD_TYPES, HostProfile)}
_BY_NAME = {cls.__name__: cls for cls in _SCHEMA}
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_struct_tree).encode
_ENVELOPE_KEYS = frozenset({"source", "destination", "payload"})


def _struct_from_tree(tree, offset):
    if not isinstance(tree, dict) or "type" not in tree:
        raise ProtocolError("expected a tagged struct", offset)
    name = tree["type"]
    cls = _BY_NAME.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ProtocolError(f"unknown struct tag {name!r}", offset)
    kwargs = {}
    for field_name, (_, from_tree) in _SCHEMA[cls]:
        if field_name not in tree:
            raise ProtocolError(f"{name} is missing field {field_name!r}", offset)
        try:
            kwargs[field_name] = from_tree(tree[field_name])
        except (ValueError, TypeError) as exc:
            raise ProtocolError(f"bad value for {name}.{field_name}: {exc}", offset) from exc
    extras = set(tree) - {"type"} - set(kwargs)
    if extras:
        raise ProtocolError(f"{name} has unknown fields {sorted(extras)}", offset)
    return cls(**kwargs)


def encode(envelope: MessageEnvelope) -> bytes:
    """Serialize one envelope to a length-prefixed frame."""

    tree = {
        "source": str(envelope.source),
        "destination": str(envelope.destination),
        "payload": envelope.payload,
    }
    body = _dumps(tree).encode("utf-8")
    if len(body) > MAX_BODY_BYTES:
        raise EncodingOverflow(f"body of {len(body)} bytes exceeds {MAX_BODY_BYTES}")
    return LENGTH_PREFIX.pack(len(body)) + body


def frame_length(buffer: bytes) -> int:
    """Total frame size announced by the prefix at the start of the buffer.

    A prefix announcing more than MAX_BODY_BYTES is a ProtocolError as soon
    as it is read, before any body bytes arrive.
    """

    if len(buffer) < LENGTH_PREFIX.size:
        raise NeedMoreBytes(LENGTH_PREFIX.size - len(buffer))
    (body_len,) = LENGTH_PREFIX.unpack_from(buffer)
    if body_len > MAX_BODY_BYTES:
        raise ProtocolError(f"announced body of {body_len} bytes exceeds {MAX_BODY_BYTES}")
    return LENGTH_PREFIX.size + body_len


def decode(buffer: bytes) -> MessageEnvelope:
    """Decode the first frame in the buffer; trailing bytes are ignored."""

    total = frame_length(buffer)
    if len(buffer) < total:
        raise NeedMoreBytes(total - len(buffer))
    body = buffer[LENGTH_PREFIX.size:total]
    try:
        tree = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        offset = LENGTH_PREFIX.size + getattr(exc, "pos", getattr(exc, "start", 0))
        raise ProtocolError(f"body is not canonical text: {exc}", offset) from exc
    if not isinstance(tree, dict):
        raise ProtocolError("body is not an envelope object", LENGTH_PREFIX.size)
    extras = set(tree) - _ENVELOPE_KEYS
    if extras:
        raise ProtocolError(f"bad envelope header: unknown keys {sorted(extras)}", LENGTH_PREFIX.size)
    try:
        source = Address.parse(tree["source"])
        destination = Address.parse(tree["destination"])
        payload_tree = tree["payload"]
    except (KeyError, ValueError, TypeError) as exc:
        raise ProtocolError(f"bad envelope header: {exc}", LENGTH_PREFIX.size) from exc
    payload = _struct_from_tree(payload_tree, LENGTH_PREFIX.size)
    if not isinstance(payload, PAYLOAD_TYPES):
        raise ProtocolError(f"{type(payload).__name__} is not a message payload", LENGTH_PREFIX.size)
    return MessageEnvelope(source, destination, payload)


class FrameBuffer:
    """Accumulates a byte stream and yields complete envelopes in order."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list:
        """Appends data and decodes every complete frame now buffered."""

        self.append(data)
        out = []
        while (envelope := self.pop()) is not None:
            out.append(envelope)
        return out

    def append(self, data: bytes) -> None:
        self._buf.extend(data)

    def pop(self) -> MessageEnvelope | None:
        """Removes and decodes the first complete frame; None if none is buffered."""

        try:
            total = frame_length(self._buf)
        except NeedMoreBytes:
            return None
        if len(self._buf) < total:
            return None
        frame = self._buf[:total]
        del self._buf[:total]
        return decode(frame)

    def pending(self) -> int:
        return len(self._buf)


# ---------------------------------------------------------------------------
# Frame sizing.  The length of the text encode would write, added up over the
# same field tables without writing it: a struct is a fixed skeleton (braces,
# sorted quoted keys, the type tag) plus its field values after their
# to_tree, and text is measured in the quoted form the encoder writes under
# ensure_ascii.  A value of any type not walked here (an array library's
# scalar, a float subclass) is measured by _dumps itself, so the length is
# exact for every input and fails where encode fails.

_NON_FINITE = {"nan": 3, "inf": 8, "-inf": 9}  # NaN, Infinity, -Infinity


def _tree_len(value) -> int:
    """Length of the JSON text encode writes for one wire-tree value."""

    kind = type(value)
    if kind is str:
        return len(_quote(value))
    if kind is float:
        text = float.__repr__(value)
        return _NON_FINITE.get(text, len(text))
    if kind is int:
        return len(int.__repr__(value))
    if kind is list or kind is tuple:
        return len(value) + 1 + sum(map(_tree_len, value)) if value else 2
    if kind is bool or value is None:
        return 5 if value is False else 4
    size = _SIZERS.get(kind)
    return size(value) if size is not None else len(_dumps(value))


def _skeleton_len(keys) -> int:
    """Length of a JSON object with these keys and every value left out."""

    return len(_dumps(dict.fromkeys(keys))) - len("null") * len(keys)


def _sizer(cls):
    schema = _SCHEMA[cls]
    skeleton = _skeleton_len(["type", *(name for name, _ in schema)]) + _tree_len(cls.__name__)

    def size(value) -> int:
        n = skeleton
        for name, (to_tree, _) in schema:
            raw = getattr(value, name)
            n += _tree_len(raw if to_tree is None else to_tree(raw))
        return n

    if cls is not HostProfile:
        return size

    def size_record(record) -> int:
        # Kept by the object, never by value: HostProfile(cpu_freq_ghz=2) and
        # HostProfile(cpu_freq_ghz=2.0) are equal but encode to different lengths.
        try:
            return record._wire_len
        except AttributeError:
            n = size(record)
            object.__setattr__(record, "_wire_len", n)
            return n

    return size_record


_SIZERS = {cls: _sizer(cls) for cls in _SCHEMA}
_ENVELOPE_SKELETON = _skeleton_len(_ENVELOPE_KEYS)


def message_wire_bytes(envelope: MessageEnvelope) -> int:
    """Bytes a transport charges for the envelope.

    Data and Result frames are charged at their declared logical size (the
    synthetic payload stands in for real content); control traffic is charged
    at its encoded size, len(encode(envelope)) exactly, walked over the field
    tables without building the frame.  An address and a host profile keep
    their own lengths after they are first sized, so each costs one lookup
    when it is sent again.
    """

    payload = envelope.payload
    if isinstance(payload, (Data, Result)):
        return int(payload.size_bytes)
    body = (
        _ENVELOPE_SKELETON
        + envelope.destination._wire_len
        + _tree_len(payload)
        + envelope.source._wire_len
    )
    if body > MAX_BODY_BYTES:
        raise EncodingOverflow(f"body of {body} bytes exceeds {MAX_BODY_BYTES}")
    return LENGTH_PREFIX.size + body
