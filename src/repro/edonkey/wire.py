"""Versioned wire codec for the eDonkey message plane (``repro.wire/1``).

The simulator routes :mod:`repro.edonkey.messages` dataclasses as Python
objects; service mode (``repro serve``) sends the same dataclasses over
TCP.  This module is the codec layer between the two: every message
dataclass encodes to a canonical JSON document and back, byte-exactly,
with strict validation on decode — a malformed peer cannot smuggle an
unexpected type or field into a handler.

Wire format
-----------

A *frame* is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON (pure ASCII as emitted)::

    +--------------+----------------------------------------------+
    | length (4B)  | {"fields":{...},"seq":0,"type":"...","v":...}|
    +--------------+----------------------------------------------+

The payload document carries four keys, always all present:

- ``v``      — the schema version string, :data:`WIRE_SCHEMA`;
- ``seq``    — an optional per-connection sequence number (``null`` when
  unused).  Replies echo the request's ``seq`` so a transport can match
  replies to requests even when the fault injector suppresses some;
- ``type``   — the message dataclass name (``SearchRequest``, ...);
- ``fields`` — the dataclass fields, encoded recursively.

Primitives pass through, ``bytes`` become ``{"$bytes": "<hex>"}``,
tuples become JSON arrays (rebuilt as tuples on decode, as the
annotations say), and nested message dataclasses —
:class:`~repro.edonkey.messages.FileDescription`, the
:class:`~repro.edonkey.messages.Query` expression tree — become
``{"$type": "<Name>", "fields": {...}}`` envelopes.  JSON is emitted
with sorted keys and compact separators, so ``encode → decode → encode``
reproduces the original bytes exactly.

The codec is built once, when the module loads: a fields encoder per
registered class, which ``json``'s C encoder calls back for dataclasses
and ``bytes`` only, and a decoder per field annotation.  A field
annotated ``List[FileDescription]`` is encoded by joining into the
envelope the stored encoding of each description (:data:`FRAGMENTS`),
which is reused only for the very object it was encoded from; the bytes
are the same.

Strictness: unknown message types, unknown or missing fields, wrong
primitive types, bad hex, schema-version mismatches, zero-length,
truncated and oversized frames, and payloads nested deeper than the
interpreter's recursion limit all raise :class:`WireError` (a
``ValueError``) with a message naming the offence.

The module deliberately imports neither ``asyncio`` nor anything heavy:
the async helpers (:func:`read_frame` / :func:`write_frame`) duck-type
against ``StreamReader``/``StreamWriter`` and catch ``EOFError`` (the
base class of ``asyncio.IncompleteReadError``), so importing the codec
keeps the CLI's cold-import baseline asyncio-free.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import operator
import struct
import typing
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.edonkey import messages as _messages
from repro.edonkey.messages import Query

#: Version tag carried in every frame payload.
WIRE_SCHEMA = "repro.wire/1"

#: Hard ceiling on one frame's payload size.  Far above any legitimate
#: reply (a 200-result SearchReply is a few hundred KB) but small enough
#: that a garbage length prefix cannot make a reader allocate gigabytes.
MAX_FRAME_BYTES = 4 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Size of the length prefix in bytes.
HEADER_BYTES = _HEADER.size


class WireError(ValueError):
    """A frame or payload that violates ``repro.wire/1``."""


def _build_registry() -> Dict[str, type]:
    """Every dataclass defined in :mod:`repro.edonkey.messages`.

    Built by introspection so a newly added message automatically joins
    the codec; the round-trip test suite asserts the registry is
    exhaustive against the same introspection.
    """
    registry: Dict[str, type] = {}
    for name in dir(_messages):
        obj = getattr(_messages, name)
        if (
            isinstance(obj, type)
            and dataclasses.is_dataclass(obj)
            and obj.__module__ == _messages.__name__
        ):
            registry[obj.__name__] = obj
    return registry


#: ``name -> dataclass`` for every encodable message type.
MESSAGE_TYPES: Dict[str, type] = _build_registry()


# ----------------------------------------------------------------------
# Encoding
#
# ``json``'s C encoder walks lists, tuples, dicts and primitives itself
# and hands everything else to ``_encode_object``: message dataclasses,
# through a fields encoder built once per registered class, and
# ``bytes``.  No Python runs per primitive value.  Every dict reaches the
# encoder with its keys in order (fields by name, dict-annotated fields
# sorted by their encoder), so ``json`` is not asked to sort them.  A
# dict in a field not annotated as one (a value contradicting its
# annotation, which the decoder refuses) is left to ``json``: its keys
# keep their insertion order, and int, float, bool or None keys become
# strings.


def _fields_encoder(cls: type) -> Callable[[Any], Dict[str, Any]]:
    """``message -> {field name: value}`` for one registered class."""
    names = sorted(f.name for f in dataclasses.fields(cls))
    hints = typing.get_type_hints(cls)
    keyed = [n for n in names if typing.get_origin(hints[n]) is dict]

    def encode_fields(message: Any) -> Dict[str, Any]:
        fields = {name: getattr(message, name) for name in names}
        for name in keyed:
            fields[name] = _in_key_order(fields[name])
        return fields

    return encode_fields


def _in_key_order(value: Any) -> Any:
    """A dict field's value, sorted by its keys, which must be strings
    (``json`` would turn an int key into a string rather than refuse
    it)."""
    if not isinstance(value, dict):
        return value
    for key in value:
        if not isinstance(key, str):
            raise WireError(f"cannot encode dict key of type {type(key).__name__}")
    return dict(sorted(value.items()))


#: ``class -> fields encoder`` for every registered message type.
_FIELD_ENCODERS: Dict[type, Callable[[Any], Dict[str, Any]]] = {
    cls: _fields_encoder(cls) for cls in MESSAGE_TYPES.values()
}


def _encode_object(value: Any) -> Dict[str, Any]:
    """The JSON encoder's hook for every value it cannot encode itself."""
    cls = type(value)
    encode_fields = _FIELD_ENCODERS.get(cls)
    if encode_fields is not None:
        return {"$type": cls.__name__, "fields": encode_fields(value)}
    if isinstance(value, bytes):
        return {"$bytes": value.hex()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        raise WireError(f"cannot encode unregistered dataclass {cls.__name__}")
    raise WireError(f"cannot encode value of type {cls.__name__}")


_JSON = json.JSONEncoder(
    sort_keys=False,
    separators=(",", ":"),
    ensure_ascii=True,
    allow_nan=False,
    check_circular=False,  # a cyclic value overflows the stack instead
    default=_encode_object,
)


# ----------------------------------------------------------------------
# Description fragments
#
# Replies carry the server's indexed description objects themselves, and
# a description encodes to the same bytes wherever it appears.  So every
# field annotated ``List[FileDescription]`` is encoded by joining the
# stored encoding of each description into the envelope.  A stored
# encoding is reused only for the very object it was encoded from, which
# a frozen description holding values of exactly its annotated
# (immutable) types cannot outgrow; a re-published description is a new
# object, so nothing needs invalidating.  Any value off the annotation
# takes the whole-document path above, with its bytes and errors.

#: Entries the fragment store holds; filling it starts it over.
FRAGMENT_STORE_ENTRIES = 1 << 16

_ITEM = _messages.FileDescription
_ITEM_NAMES = tuple(sorted(f.name for f in dataclasses.fields(_ITEM)))
_ITEM_VALUES = operator.attrgetter(*_ITEM_NAMES)
# A description encodes as _ITEM_HEAD + its stored part + "}", the part
# running from its first field's value to the end of its fields object.
_FIRST_KEY = b'{"%s":' % _ITEM_NAMES[0].encode("ascii")
_ITEM_HEAD = b'{"$type":"%s","fields":' % _ITEM.__name__.encode("ascii") + _FIRST_KEY
_ITEM_JOIN = b"}," + _ITEM_HEAD
#: Field types whose exact instances are immutable and encode flat.
_PLAIN = (str, int, float, bool)


def _field_checks(cls: type) -> Tuple[Tuple[set, Optional[set]], ...]:
    """Per field of ``cls`` in ``_ITEM_NAMES`` order: ``({its type}, None)``,
    or ``({tuple}, {item type})`` for a ``Tuple[X, ...]``."""
    hints = typing.get_type_hints(cls)
    checks = []
    for name in _ITEM_NAMES:
        hint = hints[name]
        args = typing.get_args(hint)
        if typing.get_origin(hint) is tuple and args[1:] == (Ellipsis,):
            check = ({tuple}, {args[0]})
            hint = args[0]
        else:
            check = ({hint}, None)
        if hint not in _PLAIN:
            raise TypeError(f"cannot splice {cls.__name__}.{name}: {hint!r}")
        checks.append(check)
    return tuple(checks)


_ITEM_CHECKS = _field_checks(_ITEM)


class FragmentStore:
    """The description each file id's part was encoded from, and that
    part; how many descriptions were found here and encoded afresh.

    One per process: every encoder in it sends the same description
    objects.  Its two dicts are updated apart, so frames are encoded
    from one thread (the service's event loop) at a time."""

    def __init__(self) -> None:
        self.described: Dict[str, Any] = {}
        self.parts: Dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.parts)

    def clear(self) -> None:
        self.described.clear()
        self.parts.clear()


#: The process's fragment store.
FRAGMENTS = FragmentStore()


def _encode_items(items: List[Any]) -> Optional[List[bytes]]:
    """The stored part of each description, from one encoder call; None
    when a value is not of its field's annotated type."""
    rows = list(map(_ITEM_VALUES, items))
    for column, (kinds, item_kinds) in zip(zip(*rows), _ITEM_CHECKS):
        if not kinds.issuperset(map(type, column)):
            return None
        if item_kinds is not None and not item_kinds.issuperset(
            map(type, itertools.chain.from_iterable(column))
        ):
            return None
    # The values are flat and strings escape their quotes, so the fields
    # objects are joined by the only occurrences of _FIRST_KEY.
    text = _JSON.encode([dict(zip(_ITEM_NAMES, row)) for row in rows])
    return text.encode("ascii")[len(_FIRST_KEY) + 1 : -1].split(b"," + _FIRST_KEY)


def _spliced_list(items: Any) -> Optional[bytes]:
    """``items`` as a JSON array of stored parts, storing those that are
    missing; None when ``items`` is not a list of descriptions."""
    if type(items) is not list:
        return None
    if not items:
        return b"[]"
    store = FRAGMENTS
    described = store.described
    stored = store.parts
    parts: List[Any] = []
    missing: List[int] = []
    for item in items:
        if type(item) is not _ITEM:
            return None
        file_id = item.file_id
        if described.get(file_id) is item:
            parts.append(stored[file_id])
        else:
            missing.append(len(parts))
            parts.append(item)
    if missing:
        fresh = [parts[index] for index in missing]
        encoded = _encode_items(fresh)
        if encoded is None:
            return None
        for index, item, part in zip(missing, fresh, encoded):
            parts[index] = part
            if len(stored) >= FRAGMENT_STORE_ENTRIES:
                store.clear()
            described[item.file_id] = item
            stored[item.file_id] = part
        store.misses += len(missing)
    store.hits += len(items) - len(missing)
    return b"[" + _ITEM_HEAD + _ITEM_JOIN.join(parts) + b"}]"


def _spliced_fields(cls: type) -> List[str]:
    """The fields of ``cls`` annotated ``List[FileDescription]``, by name."""
    hints = typing.get_type_hints(cls)
    return sorted(
        f.name for f in dataclasses.fields(cls) if hints[f.name] == List[_ITEM]
    )


def _spliced_encoder(cls: type) -> Callable[[Any, Optional[int]], Optional[bytes]]:
    """``(message, seq) -> payload`` for ``cls``, splicing its
    ``_spliced_fields``; None for a value off its annotation."""
    names = sorted(f.name for f in dataclasses.fields(cls))
    spliced = _spliced_fields(cls)
    plain = [name for name in names if name not in spliced]
    encode_fields = _FIELD_ENCODERS[cls]
    keys = {name: _JSON.encode(name).encode("ascii") + b":" for name in names}
    ending = _JSON.encode({"type": cls.__name__, "v": WIRE_SCHEMA})
    ending = b"," + ending[1:].encode("ascii")

    def encode(message: Any, seq: Optional[int]) -> Optional[bytes]:
        fields = encode_fields(message)
        encoded = {
            name: _JSON.encode(fields[name]).encode("ascii") for name in plain
        }
        for name in spliced:
            array = _spliced_list(fields[name])
            if array is None:
                return None
            encoded[name] = array
        return b'{"fields":{%s},"seq":%s%s' % (
            b",".join(keys[name] + encoded[name] for name in names),
            b"null" if seq is None else b"%d" % seq,
            ending,
        )

    return encode


#: ``class -> spliced payload encoder``, for classes with a spliced field.
_SPLICED_ENCODERS = {
    cls: _spliced_encoder(cls)
    for cls in MESSAGE_TYPES.values()
    if _spliced_fields(cls)
}


def encode_payload(message: Any, seq: Optional[int] = None) -> bytes:
    """The canonical JSON payload bytes for one message (no framing)."""
    cls = type(message)
    encode_fields = _FIELD_ENCODERS.get(cls)
    if encode_fields is None:
        raise WireError(f"cannot encode non-message type {cls.__name__}")
    if seq is not None and (isinstance(seq, bool) or not isinstance(seq, int)):
        raise WireError(f"seq must be an int or None, got {seq!r}")
    spliced = _SPLICED_ENCODERS.get(cls)
    if spliced is not None:
        try:
            payload = spliced(message, seq)
        except (TypeError, ValueError, RecursionError):
            payload = None  # the whole-document path raises its own error
        if payload is not None:
            return payload
    document = {
        "fields": encode_fields(message),
        "seq": seq,
        "type": cls.__name__,
        "v": WIRE_SCHEMA,
    }
    try:
        return _JSON.encode(document).encode("ascii")
    except TypeError as exc:  # a dict key json refuses, outside a Dict field
        raise WireError(f"cannot encode {cls.__name__}: {exc}") from None


def encode_frame(message: Any, seq: Optional[int] = None) -> bytes:
    """One length-prefixed frame carrying ``message``."""
    payload = encode_payload(message, seq=seq)
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(
            f"oversized frame: payload is {len(payload)} bytes "
            f"(limit {MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(len(payload)) + payload


# ----------------------------------------------------------------------
# Decoding
#
# One decoder per type hint and one fields decoder per registered class,
# built once.  A decoder maps a parsed JSON value to the field value or
# raises ``_Invalid``; the path to the offending value is assembled as
# the error unwinds, so decoding a valid frame formats no strings.

_Decoder = Callable[[Any], Any]

_NESTED_TOO_DEEP = "frame payload is nested too deeply"


class _Invalid(Exception):
    """A decode failure; ``path`` collects its location, innermost first."""

    def __init__(self, detail: str) -> None:
        super().__init__(detail)
        self.detail = detail
        self.path: List[str] = []

    def located(self, root: str) -> WireError:
        return WireError(f"{root}{''.join(reversed(self.path))}: {self.detail}")


def _type_name(hint: Any) -> str:
    return getattr(hint, "__name__", None) or str(hint)


def _got(value: Any) -> str:
    return type(value).__name__


def _exact(kind: type) -> _Decoder:
    """Values of JSON type ``kind``, as they are (``int`` excludes ``bool``)."""

    def decode(value: Any) -> Any:
        if type(value) is kind:
            return value
        raise _Invalid(f"expected {kind.__name__}, got {_got(value)}")

    return decode


def _decode_float(value: Any) -> float:
    if type(value) is float or type(value) is int:
        return float(value)
    raise _Invalid(f"expected float, got {_got(value)}")


def _decode_bytes(value: Any) -> bytes:
    if (
        type(value) is not dict
        or value.keys() != {"$bytes"}
        or type(value["$bytes"]) is not str
    ):
        raise _Invalid("expected a {'$bytes': hex} object")
    try:
        return bytes.fromhex(value["$bytes"])
    except ValueError as exc:
        raise _Invalid(f"bad hex in $bytes: {exc}") from None


_SCALAR_DECODERS: Dict[type, _Decoder] = {
    bool: _exact(bool),
    int: _exact(int),
    str: _exact(str),
    float: _decode_float,
    bytes: _decode_bytes,
}


def _refusal(detail: str) -> _Decoder:
    def refuse(value: Any) -> Any:
        raise _Invalid(detail)

    return refuse


def _decode_items(decoders: Iterable[_Decoder], values: list) -> list:
    """Each value through its decoder; a failure names its index."""
    items: list = []
    try:
        for decode, value in zip(decoders, values):
            items.append(decode(value))
    except _Invalid as error:
        error.path.append(f"[{len(items)}]")
        raise
    return items


def _sequence_decoder(item_hint: Any, make: type) -> _Decoder:
    """``List[item]`` (``make=list``) or ``Tuple[item, ...]`` (``tuple``)."""
    decoders = itertools.repeat(_decoder(item_hint))

    def decode(value: Any) -> Any:
        if type(value) is not list:
            raise _Invalid(f"expected list, got {_got(value)}")
        return make(_decode_items(decoders, value))

    return decode


def _fixed_tuple_decoder(item_hints: Tuple[Any, ...]) -> _Decoder:
    decoders = [_decoder(hint) for hint in item_hints]

    def decode(value: Any) -> tuple:
        if type(value) is not list:
            raise _Invalid(f"expected list, got {_got(value)}")
        if len(value) != len(decoders):
            raise _Invalid(f"expected {len(decoders)} elements, got {len(value)}")
        return tuple(_decode_items(decoders, value))

    return decode


def _dict_decoder(value_hint: Any) -> _Decoder:
    decode_item = _decoder(value_hint)

    def decode(value: Any) -> dict:
        if type(value) is not dict:
            raise _Invalid(f"expected object, got {_got(value)}")
        decoded = {}
        for key, item in value.items():
            try:
                decoded[key] = decode_item(item)
            except _Invalid as error:
                error.path.append(f"[{key!r}]")
                raise
        return decoded

    return decode


def _union_decoder(hint: Any) -> _Decoder:
    args = typing.get_args(hint)
    nullable = type(None) in args
    concrete = [a for a in args if a is not type(None)]
    inner = (
        _decoder(concrete[0])
        if len(concrete) == 1
        else _refusal(f"unsupported union annotation {hint!r}")
    )

    def decode(value: Any) -> Any:
        if value is None and nullable:
            return None
        return inner(value)

    return decode


def _envelope_decoder(expected: type) -> _Decoder:
    """A ``{"$type": ..., "fields": ...}`` nested message of ``expected``."""

    def decode(value: Any) -> Any:
        if type(value) is not dict or value.keys() != {"$type", "fields"}:
            raise _Invalid("expected a {'$type', 'fields'} message object")
        name = value["$type"]
        if type(name) is not str:
            raise _Invalid("$type must be a string")
        cls = MESSAGE_TYPES.get(name)
        if cls is None:
            raise _Invalid(f"unknown message type {name!r}")
        if not issubclass(cls, expected):
            raise _Invalid(f"{name} is not a {_type_name(expected)}")
        try:
            return _FIELD_DECODERS[cls](value["fields"])
        except _Invalid as error:
            error.path.append("." + name)
            raise

    return decode


def _build_decoder(hint: Any) -> _Decoder:
    scalar = _SCALAR_DECODERS.get(hint)
    if scalar is not None:
        return scalar
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union:
        return _union_decoder(hint)
    if origin is list:
        return _sequence_decoder(args[0], list)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return _sequence_decoder(args[0], tuple)
        return _fixed_tuple_decoder(args)
    if origin is dict:
        if args[0] is not str:
            return _refusal(f"unsupported dict key type {args[0]!r}")
        return _dict_decoder(args[1])
    if isinstance(hint, type) and (
        dataclasses.is_dataclass(hint) or issubclass(hint, Query)
    ):
        return _envelope_decoder(hint)
    return _refusal(f"unsupported annotation {_type_name(hint)}")


_DECODERS: Dict[Any, _Decoder] = {}


def _decoder(hint: Any) -> _Decoder:
    """The decoder of one type hint, built on first request."""
    decoder = _DECODERS.get(hint)
    if decoder is None:
        decoder = _DECODERS[hint] = _build_decoder(hint)
    return decoder


def _fields_decoder(cls: type) -> _Decoder:
    """``{field name: JSON value} -> instance`` for one registered class."""
    declared = dataclasses.fields(cls)
    names = {f.name for f in declared}
    hints = typing.get_type_hints(cls)
    plan = tuple((f.name, _decoder(hints[f.name])) for f in declared)

    def decode_fields(fields: Any) -> Any:
        if type(fields) is not dict:
            raise _Invalid("fields must be an object")
        if fields.keys() != names:
            unknown = sorted(set(fields) - names)
            if unknown:
                raise _Invalid(f"unknown fields {unknown}")
            raise _Invalid(f"missing fields {sorted(names - set(fields))}")
        kwargs = {}
        for name, decode in plan:
            try:
                kwargs[name] = decode(fields[name])
            except _Invalid as error:
                error.path.append("." + name)
                raise
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise _Invalid(f"invalid field values: {exc}") from exc

    return decode_fields


#: ``class -> fields decoder`` for every registered message type.
_FIELD_DECODERS: Dict[type, _Decoder] = {
    cls: _fields_decoder(cls) for cls in MESSAGE_TYPES.values()
}


def decode_payload(data: bytes) -> Tuple[Any, Optional[int]]:
    """Decode one frame payload; returns ``(message, seq)``."""
    try:
        document = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireError(f"undecodable frame payload: {exc}") from None
    except RecursionError:
        raise WireError(_NESTED_TOO_DEEP) from None
    if not isinstance(document, dict):
        raise WireError("frame payload must be a JSON object")
    expected_keys = {"v", "seq", "type", "fields"}
    if set(document) != expected_keys:
        raise WireError(
            f"frame payload must carry exactly {sorted(expected_keys)}, "
            f"got {sorted(document)}"
        )
    if document["v"] != WIRE_SCHEMA:
        raise WireError(
            f"unsupported wire schema {document['v']!r} "
            f"(this build speaks {WIRE_SCHEMA})"
        )
    seq = document["seq"]
    if seq is not None and (isinstance(seq, bool) or not isinstance(seq, int)):
        raise WireError(f"seq must be an int or null, got {seq!r}")
    name = document["type"]
    if not isinstance(name, str):
        raise WireError("type must be a string")
    cls = MESSAGE_TYPES.get(name)
    if cls is None:
        raise WireError(f"unknown message type {name!r}")
    try:
        message = _FIELD_DECODERS[cls](document["fields"])
    except _Invalid as error:
        raise error.located(name) from error.__cause__
    except RecursionError:
        raise WireError(_NESTED_TOO_DEEP) from None
    return message, seq


def frame_length(header: bytes) -> int:
    """Validate a 4-byte length prefix and return the payload length."""
    if len(header) != HEADER_BYTES:
        raise WireError(
            f"truncated frame header: got {len(header)} of "
            f"{HEADER_BYTES} bytes"
        )
    (length,) = _HEADER.unpack(header)
    if length == 0:
        raise WireError("zero-length frame")
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"oversized frame: header declares {length} bytes "
            f"(limit {MAX_FRAME_BYTES})"
        )
    return length


def decode_frame(
    buffer: bytes, offset: int = 0
) -> Optional[Tuple[Any, Optional[int], int]]:
    """Decode the frame at ``offset``; ``(message, seq, next_offset)``.

    Returns ``None`` when the buffer holds only part of a frame (more
    bytes are needed); raises :class:`WireError` on an invalid one.
    """
    remaining = len(buffer) - offset
    if remaining < HEADER_BYTES:
        return None
    length = frame_length(bytes(buffer[offset : offset + HEADER_BYTES]))
    if remaining - HEADER_BYTES < length:
        return None
    start = offset + HEADER_BYTES
    message, seq = decode_payload(bytes(buffer[start : start + length]))
    return message, seq, start + length


# ----------------------------------------------------------------------
# Async stream helpers (duck-typed; no asyncio import)


async def read_frame(reader) -> Optional[Tuple[Any, Optional[int]]]:
    """Read one frame from an ``asyncio.StreamReader``-like object.

    Returns ``(message, seq)``, or ``None`` on a clean EOF at a frame
    boundary.  EOF inside a frame raises :class:`WireError` — the peer
    hung up mid-message.  (``asyncio.IncompleteReadError`` is an
    ``EOFError``, so the codec stays importable without asyncio.)
    """
    try:
        header = await reader.readexactly(HEADER_BYTES)
    except EOFError as exc:
        if getattr(exc, "partial", b""):
            raise WireError(
                "truncated frame: connection closed mid-header"
            ) from None
        return None
    length = frame_length(header)
    try:
        payload = await reader.readexactly(length)
    except EOFError:
        raise WireError(
            f"truncated frame: connection closed before {length} "
            "payload bytes arrived"
        ) from None
    return decode_payload(payload)


async def write_frame(writer, message: Any, seq: Optional[int] = None) -> None:
    """Write one frame to an ``asyncio.StreamWriter``-like object."""
    writer.write(encode_frame(message, seq=seq))
    await writer.drain()
