"""A mutated frame decodes or raises ``WireError``, and one that decodes is answered.

Each generated example is one mutation: a byte flip, a deletion, an
insertion, or one JSON string value swapped for another of the same
frame.  It is applied to a valid frame of every registered message type,
either to the payload (framed again under its new length) or to the
whole frame, header included.  ``decode_frame`` must return or raise
``WireError``; a frame that decodes is handled by a service whose index
holds the example description and an untagged one, so an example search
tests both its ``tag`` and its ``kind`` keyword; ``_handle`` then
``_reply_frame`` must produce one decodable frame without raising.
"""

import re
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edonkey.messages import ConnectRequest, FileDescription, PublishFiles
from repro.edonkey.wire import (
    HEADER_BYTES,
    MESSAGE_TYPES,
    WireError,
    decode_frame,
    encode_frame,
)
from repro.service import IndexService
from tests.edonkey.test_wire import _DESC, _example

FRAMES = [encode_frame(_example(name), seq=3) for name in sorted(MESSAGE_TYPES)]

#: A JSON string token; it is a key when a colon follows it.
_STRING = re.compile(rb'"(?:[^"\\]|\\.)*"(:?)')

POSITION = st.integers(0, 1 << 16)
MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), POSITION, st.integers(1, 255)),
    st.tuples(st.just("delete"), POSITION, st.integers(1, 8)),
    st.tuples(st.just("insert"), POSITION, st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("swap"), POSITION, POSITION),
)


def mutated(data: bytes, mutation) -> bytes:
    kind, at, arg = mutation
    if kind == "swap":
        values = [token for token in _STRING.finditer(data) if not token[1]]
        if not values:
            return data
        target = values[at % len(values)]
        other = values[arg % len(values)].group()
        return data[: target.start()] + other + data[target.end() :]
    at %= len(data) + (kind == "insert")
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ arg]) + data[at + 1 :]
    if kind == "delete":
        return data[:at] + data[at + arg :]
    return data[:at] + arg + data[at:]


def _indexed_service() -> IndexService:
    service = IndexService()
    service.server.handle_connect(
        ConnectRequest(client_id=1, nickname="seed", firewalled=False)
    )
    untagged = FileDescription("f0000abd", "stairway.ogg", 4_000_000, kind="audio")
    service.server.handle_publish(PublishFiles(client_id=1, files=[_DESC, untagged]))
    return service


@settings(max_examples=300, deadline=None)
@given(mutation=MUTATIONS, whole_frame=st.booleans())
def test_mutated_frames_decode_or_raise_wire_error(mutation, whole_frame):
    for frame in FRAMES:
        if whole_frame:
            data = mutated(frame, mutation)
        else:
            payload = mutated(frame[HEADER_BYTES:], mutation)
            data = struct.pack(">I", len(payload)) + payload
        try:
            decoded = decode_frame(data)
        except WireError:
            continue
        if decoded is None:  # a header promising more bytes than follow
            continue
        message, seq, _ = decoded
        service = _indexed_service()
        reply = service._reply_frame(service._handle(message, set()), seq)
        assert decode_frame(reply)[2] == len(reply)
