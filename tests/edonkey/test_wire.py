"""Tests for the ``repro.wire/1`` codec.

The round-trip suite is registry-driven: every message dataclass the
codec knows about gets a populated example and must survive
encode → decode byte-exactly (re-encoding the decoded message yields
the same payload bytes).  The error-path tests pin the strictness
contract: unknown types, unknown/missing fields, wrong scalar types,
truncated and oversized frames all raise :class:`WireError` with a
message that names the offender.
"""

import dataclasses
import json
import struct

import pytest

from repro.edonkey import messages as m
from repro.edonkey.wire import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    WIRE_SCHEMA,
    WireError,
    decode_frame,
    decode_payload,
    encode_frame,
    encode_payload,
    frame_length,
)

# ----------------------------------------------------------------------
# Example instances, one per registered message type.  Values are chosen
# to exercise nesting (Query trees), tuples (FileDescription.tags,
# profile entries), bytes (block payloads) and defaults left in place.

_DESC = m.FileDescription(
    file_id="f0000abc",
    name="Led_Zeppelin-Stairway.mp3",
    size=9_000_000,
    kind="audio",
    tags=("rock", "classic"),
    availability=3,
    bitrate=192,
)

_QUERY = m.query_and(
    m.Keyword("stairway"),
    m.Or((m.Keyword("rock", field="tag"), m.Keyword("audio", field="kind"))),
    m.SizeRange(min_size=1_000, max_size=10_000_000),
    m.AvailabilityRange(min_avail=2),
    m.BitrateRange(min_rate=128),
    m.Not(m.Keyword("live")),
)

_EXAMPLES = {
    "FileDescription": _DESC,
    "Keyword": m.Keyword("zeppelin", field="tag"),
    "SizeRange": m.SizeRange(min_size=None, max_size=4096),
    "And": m.query_and(m.Keyword("a"), m.Keyword("b")),
    "Or": m.Or((m.Keyword("a"), m.SizeRange(min_size=7))),
    "Not": m.Not(m.Keyword("bootleg")),
    "ConnectRequest": m.ConnectRequest(
        client_id=7, nickname="darkwolf42", firewalled=True
    ),
    "ConnectReply": m.ConnectReply(
        accepted=True, server_list=[0, 3, 9], reason=""
    ),
    "PublishFiles": m.PublishFiles(client_id=7, files=[_DESC]),
    "SearchRequest": m.SearchRequest(client_id=7, query=_QUERY, limit=50),
    "SearchReply": m.SearchReply(results=[_DESC], truncated=True),
    "QuerySources": m.QuerySources(client_id=7, file_id="f0000abc"),
    "SourcesReply": m.SourcesReply(file_id="f0000abc", sources=[1, 2, 3]),
    "QueryUsers": m.QueryUsers(pattern="wolf"),
    "ServerListRequest": m.ServerListRequest(),
    "CallbackRequest": m.CallbackRequest(requester_id=7, target_id=9),
    "Ack": m.Ack(ok=False),
    "ErrorReply": m.ErrorReply(reason="publish before connect"),
    "BrowseUser": m.BrowseUser(requester_id=7, target_id=9),
    "BrowseRequest": m.BrowseRequest(requester_id=7),
    "BrowseReply": m.BrowseReply(allowed=True, files=[_DESC]),
    "FileStatusRequest": m.FileStatusRequest(file_id="f0000abc"),
}


def _example(name: str):
    """A populated instance of message type ``name``.

    Types without a hand-written example are built generically from
    their field hints, so a *new* message dataclass cannot silently
    skip the round-trip suite.
    """
    if name in _EXAMPLES:
        return _EXAMPLES[name]
    cls = MESSAGE_TYPES[name]
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.default is not dataclasses.MISSING:
            continue
        if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            continue
        kwargs[field.name] = _generic_value(field.type)
    return cls(**kwargs)


def _generic_value(hint):
    text = str(hint)
    # Container checks first: "List[int]" must not match the int branch.
    if "List" in text or "list" in text:
        return []
    if "Tuple" in text or "tuple" in text:
        return ()
    if "Dict" in text or "dict" in text:
        return {}
    if "FileDescription" in text:
        return _DESC
    if "Query" in text:
        return _QUERY
    if "bool" in text:
        return True
    if "bytes" in text:
        return b"\x00\x01payload\xff"
    if "int" in text:
        return 42
    if "float" in text:
        return 1.5
    if "str" in text:
        return "value"
    raise AssertionError(f"no generic example for field type {hint!r}")


# ----------------------------------------------------------------------
# Round trips


def test_registry_covers_every_message_dataclass():
    # Every public dataclass in the messages module is wire-encodable.
    names = {
        name
        for name, obj in vars(m).items()
        if dataclasses.is_dataclass(obj)
        and isinstance(obj, type)
        and not name.startswith("_")
        and name != "MessageStats"  # bookkeeping, never on the wire
    }
    assert names <= set(MESSAGE_TYPES)


@pytest.mark.parametrize("name", sorted(MESSAGE_TYPES))
def test_round_trip_byte_exact(name):
    message = _example(name)
    payload = encode_payload(message, seq=11)
    decoded, seq = decode_payload(payload)
    assert seq == 11
    assert decoded == message
    assert type(decoded) is type(message)
    assert encode_payload(decoded, seq=11) == payload


@pytest.mark.parametrize("name", sorted(MESSAGE_TYPES))
def test_framed_round_trip(name):
    message = _example(name)
    frame = encode_frame(message)
    assert frame_length(frame[:HEADER_BYTES]) == len(frame) - HEADER_BYTES
    decoded, seq, offset = decode_frame(frame)
    assert decoded == message
    assert seq is None
    assert offset == len(frame)


def test_nested_query_tree_survives():
    req = m.SearchRequest(client_id=1, query=_QUERY)
    decoded, _ = decode_payload(encode_payload(req))
    assert decoded.query == _QUERY
    # The tree is rebuilt with real Query classes, not dicts: behaviour
    # (matching) survives the round trip, not just equality.
    assert decoded.query.matches(_DESC) == _QUERY.matches(_DESC)


def test_bytes_payload_survives():
    block = m.BlockReply(ok=True, checksum=bytes(range(256)))
    decoded, _ = decode_payload(encode_payload(block))
    assert decoded.checksum == bytes(range(256))


def test_tuple_fields_keep_tuple_type():
    decoded, _ = decode_payload(encode_payload(_DESC))
    assert decoded.tags == ("rock", "classic")
    assert isinstance(decoded.tags, tuple)


def test_multiple_frames_in_one_buffer():
    data = encode_frame(m.Ack(), seq=0) + encode_frame(
        m.QueryUsers(pattern="abc"), seq=1
    )
    first = decode_frame(data)
    second = decode_frame(data, first[2])
    assert [(type(msg).__name__, seq) for msg, seq, _ in (first, second)] == [
        ("Ack", 0),
        ("QueryUsers", 1),
    ]
    assert second[2] == len(data)


def test_decode_frame_incomplete_returns_none():
    frame = encode_frame(m.Ack())
    assert decode_frame(frame[: HEADER_BYTES - 1]) is None
    assert decode_frame(frame[:-1]) is None


def test_payload_is_canonical_json():
    payload = encode_payload(m.Ack(ok=True), seq=3)
    doc = json.loads(payload)
    assert doc == {"v": WIRE_SCHEMA, "seq": 3, "type": "Ack",
                   "fields": {"ok": True}}
    # Canonical form: sorted keys, compact separators — re-dumping the
    # parsed doc the same way reproduces the exact bytes.
    assert json.dumps(
        doc, sort_keys=True, separators=(",", ":")
    ).encode() == payload


# ----------------------------------------------------------------------
# Error paths


def _mangle(mutate):
    """Encode an Ack, apply ``mutate`` to the parsed doc, re-encode."""
    doc = json.loads(encode_payload(m.Ack()))
    mutate(doc)
    return json.dumps(doc).encode()


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(v="repro.wire/999"), "unsupported wire schema"),
        (lambda d: d.update(type="NoSuchMessage"), "unknown message type"),
        (lambda d: d["fields"].update(bogus=1), "unknown fields"),
        (lambda d: d["fields"].pop("ok"), "missing fields"),
        (lambda d: d["fields"].update(ok=1), "expected bool"),
        (lambda d: d.update(seq="one"), "seq must be an int"),
        (lambda d: d.pop("type"), "must carry exactly"),
        (lambda d: d.update(extra=True), "must carry exactly"),
    ],
)
def test_malformed_payload_raises(mutate, fragment):
    with pytest.raises(WireError, match=fragment):
        decode_payload(_mangle(mutate))


def test_int_field_rejects_bool():
    payload = _mangle_message(
        m.QuerySources(client_id=1, file_id="f1"),
        lambda d: d["fields"].update(client_id=True),
    )
    with pytest.raises(WireError, match="expected int"):
        decode_payload(payload)


def _mangle_message(message, mutate):
    doc = json.loads(encode_payload(message))
    mutate(doc)
    return json.dumps(doc).encode()


def test_nested_envelope_requires_registered_type():
    payload = _mangle_message(
        m.PublishFiles(client_id=1, files=[_DESC]),
        lambda d: d["fields"]["files"][0].update({"$type": "Ack"}),
    )
    with pytest.raises(WireError, match="Ack"):
        decode_payload(payload)


def test_not_json_raises():
    with pytest.raises(WireError, match="undecodable"):
        decode_payload(b"\xffgarbage")


def test_oversized_frame_rejected():
    header = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(WireError, match="oversized"):
        frame_length(header)


def test_zero_length_frame_rejected():
    with pytest.raises(WireError, match="zero-length"):
        frame_length(struct.pack(">I", 0))


def test_unencodable_object_raises():
    class NotAMessage:
        pass

    with pytest.raises(WireError, match="NotAMessage"):
        encode_payload(NotAMessage())
