"""Seeded cases pinned by the frozen codec digests in ``codec.json``.

Each case is a list of ``(message, seq)`` pairs.  Its digests cover the
exact ``encode_frame`` bytes of every pair and the ``repr`` of what
``decode_frame`` gives back, so a digest that stops reproducing means
either the bytes on the wire or the decoded objects changed.

- ``example/<Name>``: the ``tests/edonkey/test_wire.py`` example of
  every registered message type, framed without and with a ``seq``.
- ``smoke/requests`` and ``smoke/replies``: the serve-smoke CI plan
  (``build_plan`` at ``scale="tiny"``, 8 sessions, 1,200 requests,
  seed 0) — its connects and publishes, then every read request, run
  through a :class:`~repro.edonkey.server.Server` the way
  ``repro serve`` dispatches them.  The replies depend on
  ``Server.handle_search`` as well as on the codec.
- ``smoke/search-limit=<n>``: the plan's searches re-sent with
  ``limit`` ``n``, so ``truncated`` and client-sent ``limit <= 0`` are
  exercised.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Tuple

CODEC_GOLDEN_PATH = Path(__file__).with_name("codec.json")

#: The serve-smoke CI job's loadgen plan.
SMOKE_PLAN = dict(scale="tiny", sessions=8, requests=1200, seed=0)
EXTRA_LIMITS = (-1, 0, 1, 10)

Case = List[Tuple[object, object]]


def _example_cases() -> Dict[str, Case]:
    from repro.edonkey.wire import MESSAGE_TYPES
    from tests.edonkey.test_wire import _example

    return {
        f"example/{name}": [(_example(name), None), (_example(name), 11)]
        for name in sorted(MESSAGE_TYPES)
    }


def _smoke_cases() -> Dict[str, Case]:
    from repro.edonkey.messages import (
        Ack,
        ConnectRequest,
        PublishFiles,
        SearchRequest,
    )
    from repro.edonkey.protocol import ServerProtocolHandler
    from repro.edonkey.server import Server
    from repro.service.loadgen import LoadGenConfig, build_plan

    plan = build_plan(LoadGenConfig(**SMOKE_PLAN))
    handler = ServerProtocolHandler(Server(server_id=0))

    def exchange(message):
        reply = handler.handle(message)
        return Ack() if reply is None else reply

    requests: Case = []
    replies: Case = []

    def send(message):
        seq = len(requests)
        requests.append((message, seq))
        replies.append((exchange(message), seq))

    for session in plan.sessions:
        send(
            ConnectRequest(
                client_id=session.client_id,
                nickname=session.nickname,
                firewalled=False,
            )
        )
        send(PublishFiles(client_id=session.client_id, files=session.files))
    for op in plan.ops:
        send(op.message)
    cases = {"smoke/requests": requests, "smoke/replies": replies}
    searches = [op.message for op in plan.ops if op.kind == "search"]
    for limit in EXTRA_LIMITS:
        cases[f"smoke/search-limit={limit}"] = [
            (
                exchange(
                    SearchRequest(
                        client_id=search.client_id,
                        query=search.query,
                        limit=limit,
                    )
                ),
                seq,
            )
            for seq, search in enumerate(searches)
        ]
    return cases


def cases() -> Dict[str, Case]:
    """Every codec case, by name."""
    return {**_example_cases(), **_smoke_cases()}


def digests(case: Case) -> Dict[str, object]:
    """Frame-byte and decoded-repr digests of one case."""
    from repro.edonkey.wire import decode_frame, encode_frame

    frames = hashlib.sha256()
    decoded = hashlib.sha256()
    for message, seq in case:
        frame = encode_frame(message, seq=seq)
        frames.update(frame)
        got, got_seq, offset = decode_frame(frame)
        assert offset == len(frame)
        decoded.update(repr((got, got_seq)).encode("utf-8") + b"\n")
    return {
        "count": len(case),
        "frames": frames.hexdigest()[:16],
        "decoded": decoded.hexdigest()[:16],
    }


@lru_cache(maxsize=None)
def golden() -> Dict[str, Dict[str, object]]:
    return json.loads(CODEC_GOLDEN_PATH.read_text())["digests"]
