"""Generated-message properties of the ``repro.wire/1`` codec, plus the
encode-side rejections, the nesting limit and the description fragments.

Messages are drawn for every registered type from its field annotations:
nested ``Query`` trees, non-ASCII strings, ``bytes``, tuples and ``None``
optionals.  Each must decode back to itself, re-encode to the same bytes,
and be the canonical JSON dump of its own parse.

Replies and publishes whose lists repeat one description object and mix
in equal-but-distinct copies must encode, cold, warm and after their
fragments are evicted, to the bytes of the whole-document encoder; a
value off its annotation must give that encoder's bytes or error.
"""

import dataclasses
import json
import signal
import sys
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edonkey import messages as m
from repro.edonkey import wire
from repro.edonkey.wire import (
    MESSAGE_TYPES,
    WIRE_SCHEMA,
    WireError,
    decode_payload,
    encode_payload,
)

_BOUNDS = st.none() | st.integers()
_QUERY_LEAVES = st.one_of(
    st.builds(
        m.Keyword, st.text(max_size=8), st.sampled_from([None, "kind", "tag", "name"])
    ),
    st.builds(m.SizeRange, _BOUNDS, _BOUNDS),
    st.builds(m.AvailabilityRange, _BOUNDS, _BOUNDS),
    st.builds(m.BitrateRange, _BOUNDS, _BOUNDS),
)

QUERIES = st.recursive(
    _QUERY_LEAVES,
    lambda parts: st.one_of(
        st.lists(parts, max_size=3).map(lambda ps: m.And(tuple(ps))),
        st.lists(parts, max_size=3).map(lambda ps: m.Or(tuple(ps))),
        st.builds(m.Not, parts),
    ),
    max_leaves=8,
)


def _strategy(hint):
    """Values of one field annotation."""
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union:
        (inner,) = [a for a in args if a is not type(None)]
        return st.none() | _strategy(inner)
    if origin is list:
        return st.lists(_strategy(args[0]), max_size=3)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(_strategy(args[0]), max_size=3).map(tuple)
        return st.tuples(*map(_strategy, args))
    if origin is dict:
        return st.dictionaries(_strategy(args[0]), _strategy(args[1]), max_size=3)
    if hint is m.Query:
        return QUERIES
    if dataclasses.is_dataclass(hint):
        return _message(hint)
    return {
        bool: st.booleans(),
        int: st.integers(),
        str: st.text(max_size=12),
        bytes: st.binary(max_size=12),
    }[hint]


def _message(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(
        cls, **{f.name: _strategy(hints[f.name]) for f in dataclasses.fields(cls)}
    )


MESSAGES = st.sampled_from(sorted(MESSAGE_TYPES)).flatmap(
    lambda name: _message(MESSAGE_TYPES[name])
)


@settings(max_examples=300, deadline=None)
@given(message=MESSAGES, seq=st.none() | st.integers(min_value=0))
def test_generated_messages_round_trip_canonically(message, seq):
    payload = encode_payload(message, seq=seq)
    decoded, got_seq = decode_payload(payload)
    assert got_seq == seq
    assert type(decoded) is type(message)
    assert decoded == message
    assert encode_payload(decoded, seq=seq) == payload
    assert payload == json.dumps(
        json.loads(payload), sort_keys=True, separators=(",", ":")
    ).encode("ascii")


@settings(max_examples=100, deadline=None)
@given(query=QUERIES)
def test_generated_query_trees_keep_their_classes(query):
    request = m.SearchRequest(client_id=1, query=query, limit=5)
    decoded, _ = decode_payload(encode_payload(request))
    assert decoded.query == query
    assert repr(decoded.query) == repr(query)


# ----------------------------------------------------------------------
# Encode-side rejections


def test_non_str_dict_key_is_refused():
    with pytest.raises(WireError, match="cannot encode dict key of type int"):
        encode_payload(m.MessageStats(sent={1: 2}))


def test_unencodable_key_outside_a_dict_field_is_a_wire_error():
    with pytest.raises(WireError, match="tuple"):
        encode_payload(m.SearchReply(results=[{(1,): 2}]))


def test_unregistered_nested_dataclass_is_refused():
    @dataclasses.dataclass(frozen=True)
    class Stowaway:
        x: int = 0

    with pytest.raises(WireError, match="unregistered dataclass Stowaway"):
        encode_payload(m.SearchReply(results=[Stowaway()]))


def test_unencodable_field_value_is_refused():
    with pytest.raises(WireError, match="cannot encode value of type set"):
        encode_payload(m.ConnectReply(accepted=True, server_list={1, 2}))


@pytest.mark.parametrize("seq", [True, "3", 1.0])
def test_non_int_seq_is_refused(seq):
    with pytest.raises(WireError, match="seq must be an int or None"):
        encode_payload(m.Ack(), seq=seq)


# ----------------------------------------------------------------------
# Nesting


def _not_chain(depth):
    query = m.Keyword("leaf")
    for _ in range(depth):
        query = m.Not(query)
    return query


def _depth(query):
    depth = 0
    while isinstance(query, m.Not):
        query, depth = query.part, depth + 1
    return depth, query


def test_deep_not_chain_decodes():
    # ~10 KB on the wire: deep, but within what the decoders can rebuild.
    payload = encode_payload(m.SearchRequest(client_id=1, query=_not_chain(300)))
    decoded, _ = decode_payload(payload)
    assert _depth(decoded.query) == (300, m.Keyword("leaf"))


def _nested_or(depth):
    inner = '{"$type":"Keyword","fields":{"field":null,"term":"x"}}'
    for _ in range(depth):
        inner = '{"$type":"Or","fields":{"parts":[' + inner + "]}}"
    return (
        '{"fields":{"client_id":1,"limit":5,"query":' + inner + '},'
        f'"seq":0,"type":"SearchRequest","v":"{WIRE_SCHEMA}"}}'
    ).encode("ascii")


def _or_chain_with_bad_leaf(depth):
    inner = '{"$type":"Keyword","fields":{"field":null,"term":5}}'
    for _ in range(depth):
        good = '{"$type":"Keyword","fields":{"field":null,"term":"ok"}}'
        inner = '{"$type":"Or","fields":{"parts":[' + good + "," + inner + "]}}"
    return (
        '{"fields":{"client_id":1,"limit":5,"query":' + inner + '},'
        f'"seq":0,"type":"SearchRequest","v":"{WIRE_SCHEMA}"}}'
    ).encode("ascii")


def _out_of_time(signum, frame):
    raise TimeoutError("decoding took longer than the bound")


def test_bad_leaf_under_nested_sequences_fails_fast():
    # Each level of the chain sits inside a ``Tuple[Query, ...]``: naming
    # the failing index must not decode that level again, or the cost of
    # this 4 KB frame grows exponentially with its 40 levels.
    payload = _or_chain_with_bad_leaf(40)
    assert len(payload) < 4096
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        decode_payload(payload)
    except (WireError, TimeoutError) as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    else:
        outcome = "decoded"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert outcome == (
        "WireError: SearchRequest.query"
        + ".Or.parts[1]" * 40
        + ".Keyword.term: expected str, got int"
    )


def test_nesting_past_the_decoder_stack_is_a_wire_error():
    # Shallow enough for json.loads, too deep to rebuild as objects.
    payload = _nested_or(sys.getrecursionlimit() // 4)
    json.loads(payload)
    with pytest.raises(WireError, match="nested too deeply"):
        decode_payload(payload)


def test_nesting_past_json_loads_is_a_wire_error():
    depth = 4 * sys.getrecursionlimit()
    payload = (
        '{"fields":{"ok":' + "[" * depth + "]" * depth + '},'
        f'"seq":0,"type":"Ack","v":"{WIRE_SCHEMA}"}}'
    ).encode("ascii")
    with pytest.raises(WireError, match="nested too deeply"):
        decode_payload(payload)


# ----------------------------------------------------------------------
# Description fragments: replies and publishes splice the stored
# encoding of each description into the envelope.


def _whole_document(message, seq=None):
    """The payload of the one-call whole-document path, the reference
    the spliced fields must reproduce byte for byte."""
    cls = type(message)
    document = {
        "fields": wire._FIELD_ENCODERS[cls](message),
        "seq": seq,
        "type": cls.__name__,
        "v": WIRE_SCHEMA,
    }
    try:
        return wire._JSON.encode(document).encode("ascii")
    except TypeError as exc:
        raise WireError(f"cannot encode {cls.__name__}: {exc}") from None


def _outcome(encode, *args, **kwargs):
    try:
        return encode(*args, **kwargs)
    except ValueError as exc:  # WireError, or json's own
        return f"{type(exc).__name__}: {exc}"


_TEXT = st.text(max_size=10) | st.sampled_from(
    ['naïve "quoted"', 'ß,{"availability":', "日本語", "\\"]
)
_DESCRIPTIONS = st.builds(
    m.FileDescription,
    file_id=st.sampled_from(["f1", "f2", "f3", "ü4"]),
    name=_TEXT,
    size=st.integers(),
    kind=_TEXT,
    tags=st.lists(_TEXT, max_size=3).map(tuple),
    availability=st.integers(),
    bitrate=st.integers(),
)


@st.composite
def _description_lists(draw):
    """Lists that repeat one object and mix in equal-but-distinct copies."""
    pool = draw(st.lists(_DESCRIPTIONS, min_size=1, max_size=4))
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(pool) - 1), st.booleans()), max_size=8
        )
    )
    return [dataclasses.replace(pool[i]) if copy else pool[i] for i, copy in picks]


_CARRIERS = st.one_of(
    st.builds(m.SearchReply, _description_lists(), st.booleans()),
    st.builds(m.BrowseReply, st.booleans(), _description_lists()),
    st.builds(m.PublishFiles, st.integers(), _description_lists()),
)


@pytest.fixture()
def small_store(monkeypatch):
    """An empty fragment store that fills, and starts over, after three
    entries."""
    monkeypatch.setattr(wire, "FRAGMENT_STORE_ENTRIES", 3)
    wire.FRAGMENTS.clear()
    yield wire.FRAGMENTS
    wire.FRAGMENTS.clear()


_LISTED = {m.SearchReply: "results", m.BrowseReply: "files", m.PublishFiles: "files"}


@settings(max_examples=200, deadline=None)
@given(message=_CARRIERS, seq=st.none() | st.integers(min_value=0))
def test_spliced_descriptions_are_the_whole_document(message, seq):
    expected = _whole_document(message, seq)
    assert expected == json.dumps(
        json.loads(expected), sort_keys=True, separators=(",", ":")
    ).encode("ascii")
    decoded, _ = decode_payload(expected)
    assert decoded == message
    for bound in (wire.FRAGMENT_STORE_ENTRIES, 3):
        original = wire.FRAGMENT_STORE_ENTRIES
        wire.FRAGMENT_STORE_ENTRIES = bound
        try:
            wire.FRAGMENTS.clear()
            looked_up = wire.FRAGMENTS.hits + wire.FRAGMENTS.misses
            cold = encode_payload(message, seq=seq)
            warm = encode_payload(message, seq=seq)
            looked_up = wire.FRAGMENTS.hits + wire.FRAGMENTS.misses - looked_up
            wire.FRAGMENTS.clear()
            evicted = encode_payload(message, seq=seq)
        finally:
            wire.FRAGMENT_STORE_ENTRIES = original
        assert cold == warm == evicted == expected
        assert len(wire.FRAGMENTS) <= bound
        assert looked_up == 2 * len(getattr(message, _LISTED[type(message)]))


def _carrier_of(items):
    return m.SearchReply(results=items, truncated=False)


class _Sub(m.FileDescription):
    pass


_D1 = m.FileDescription("f1", "one", 1, "audio", ("a",))
_D2 = m.FileDescription("f2", "twö", 2)

# Values off the annotation: each gives the whole-document bytes or error.
_OFF_ANNOTATION = {
    "tuple list": m.SearchReply(results=(_D1, _D2)),
    "None element": m.SearchReply(results=[_D1, None]),
    "dict element": m.BrowseReply(allowed=True, files=[_D1, {"f2": 2}]),
    "tuple-keyed dict element": m.SearchReply(results=[_D1, {(1,): 2}]),
    "subclass element": m.PublishFiles(
        client_id=1, files=[_D1, _Sub("f2", "two", 2)]
    ),
    "set in tags": _carrier_of([m.FileDescription("f2", "x", 1, tags={"a"})]),
    "list in tags": _carrier_of([m.FileDescription("f2", "x", 1, tags=["a"])]),
    "description in tags": m.SearchReply(
        results=[m.FileDescription("f2", "x", 1, tags=("a", _D1))]
    ),
    "bool size": m.SearchReply(results=[m.FileDescription("f2", "x", True)]),
    "str size": m.SearchReply(results=[m.FileDescription("f2", "x", "1")]),
    "nan size": m.SearchReply(results=[m.FileDescription("f2", "x", float("nan"))]),
    "list file id": m.SearchReply(results=[m.FileDescription(["f2"], "x", 1)]),
    "str subclass name": m.SearchReply(
        results=[m.FileDescription("f2", type("Name", (str,), {})("x"), 1)]
    ),
    "dict truncated": m.SearchReply(results=[_D1], truncated={1: 2}),
    "nan client id": m.PublishFiles(client_id=float("nan"), files=[_D1]),
}


@pytest.mark.parametrize("name", sorted(_OFF_ANNOTATION))
def test_values_off_the_annotation_take_the_whole_document_path(name):
    message = _OFF_ANNOTATION[name]
    expected = _outcome(_whole_document, message, 5)
    wire.FRAGMENTS.clear()
    assert _outcome(encode_payload, message, seq=5) == expected
    # ... also once the store holds the descriptions it carries
    encode_payload(_carrier_of([_D1, _D2]))
    assert _outcome(encode_payload, message, seq=5) == expected


def test_a_bool_seq_is_refused_before_splicing():
    with pytest.raises(WireError, match="seq must be an int or None"):
        encode_payload(_carrier_of([_D1]), seq=True)


def test_a_mutable_value_is_never_reused():
    tags = ["a"]
    message = _carrier_of([m.FileDescription("f2", "x", 1, tags=tags)])
    before = encode_payload(message)
    tags.append("b")
    after = encode_payload(message)
    assert after != before
    assert after == _whole_document(message)


def test_a_fragment_is_reused_only_for_its_own_object():
    wire.FRAGMENTS.clear()
    hits, misses = wire.FRAGMENTS.hits, wire.FRAGMENTS.misses
    copy = dataclasses.replace(_D1)
    encode_payload(_carrier_of([_D1, _D1]))
    encode_payload(_carrier_of([_D1]))
    encode_payload(_carrier_of([copy]))
    encode_payload(_carrier_of([_D1]))
    assert wire.FRAGMENTS.hits - hits == 1
    assert wire.FRAGMENTS.misses - misses == 4
    assert wire.FRAGMENTS.described == {"f1": _D1}


def test_the_store_starts_over_when_full(small_store):
    items = [m.FileDescription(f"f{i}", "x", i) for i in range(5)]
    payload = encode_payload(_carrier_of(items))
    assert payload == _whole_document(_carrier_of(items))
    assert len(small_store) == 2
    assert list(small_store.described) == ["f3", "f4"]
