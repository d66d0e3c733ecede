"""Generated-message properties of the ``repro.wire/1`` codec, plus the
encode-side rejections and the nesting limit.

Messages are drawn for every registered type from its field annotations:
nested ``Query`` trees, non-ASCII strings, ``bytes``, tuples and ``None``
optionals.  Each must decode back to itself, re-encode to the same bytes,
and be the canonical JSON dump of its own parse.
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
