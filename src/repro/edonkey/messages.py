"""eDonkey protocol messages and the server-side query language.

The paper (Section 2.1) describes the client/server protocol surface this
module models:

- clients publish their cache contents on connect;
- queries may combine keyword searches on meta-data fields, range queries on
  size / bit-rate / availability, and ``and`` / ``or`` / ``not`` operators;
- clients query servers for *sources* of a file id;
- old servers implement ``query-users`` (search users by nickname), capped
  at 200 results per reply;
- clients can *browse* one another (list shared files) unless disabled.

Messages are plain dataclasses routed by :class:`~repro.edonkey.network.Network`;
queries are a small expression tree evaluated against published file
descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# ----------------------------------------------------------------------
# Published file descriptions


@dataclass(frozen=True)
class FileDescription:
    """What a client publishes about one shared file."""

    file_id: str
    name: str
    size: int
    kind: str = "unknown"
    tags: Tuple[str, ...] = ()
    availability: int = 1  # complete sources known to the publisher
    bitrate: int = 0  # kbit/s, MP3-style meta-data (0 = not applicable)

    def tokens(self) -> List[str]:
        """Lower-cased keyword tokens for indexing (name + tags + kind)."""
        raw = self.name.replace("_", " ").replace("-", " ").replace(".", " ")
        toks = [t.lower() for t in raw.split() if t]
        toks.extend(t.lower() for t in self.tags)
        toks.append(self.kind.lower())
        return toks


# ----------------------------------------------------------------------
# Query expression tree


class Query:
    """Base class of query expressions."""

    def matches(self, desc: FileDescription) -> bool:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class Keyword(Query):
    """Keyword match, optionally restricted to a meta-data field.

    ``field=None`` searches all tokens; ``field="kind"`` matches the content
    class; ``field="tag"`` matches tags only; ``field="name"`` matches
    words of the name.  Any other field is refused on construction.
    """

    term: str
    field: Optional[str] = None

    def __post_init__(self) -> None:
        if self.field not in (None, "kind", "tag", "name"):
            raise ValueError(f"unknown query field {self.field!r}")

    def matches(self, desc: FileDescription) -> bool:
        term = self.term.lower()
        if self.field is None:
            return term in desc.tokens()
        if self.field == "kind":
            return desc.kind.lower() == term
        if self.field == "tag":
            return term in (t.lower() for t in desc.tags)
        return term in (t.lower() for t in desc.name.replace("-", " ").split())


@dataclass(frozen=True)
class SizeRange(Query):
    """Range query on file size in bytes (inclusive bounds, None = open)."""

    min_size: Optional[int] = None
    max_size: Optional[int] = None

    def matches(self, desc: FileDescription) -> bool:
        if self.min_size is not None and desc.size < self.min_size:
            return False
        if self.max_size is not None and desc.size > self.max_size:
            return False
        return True


@dataclass(frozen=True)
class AvailabilityRange(Query):
    """Range query on availability (number of known complete sources)."""

    min_avail: Optional[int] = None
    max_avail: Optional[int] = None

    def matches(self, desc: FileDescription) -> bool:
        if self.min_avail is not None and desc.availability < self.min_avail:
            return False
        if self.max_avail is not None and desc.availability > self.max_avail:
            return False
        return True


@dataclass(frozen=True)
class BitrateRange(Query):
    """Range query on MP3 bit-rate (kbit/s)."""

    min_rate: Optional[int] = None
    max_rate: Optional[int] = None

    def matches(self, desc: FileDescription) -> bool:
        if self.min_rate is not None and desc.bitrate < self.min_rate:
            return False
        if self.max_rate is not None and desc.bitrate > self.max_rate:
            return False
        return True


@dataclass(frozen=True)
class And(Query):
    parts: Tuple[Query, ...]

    def matches(self, desc: FileDescription) -> bool:
        return all(p.matches(desc) for p in self.parts)


@dataclass(frozen=True)
class Or(Query):
    parts: Tuple[Query, ...]

    def matches(self, desc: FileDescription) -> bool:
        return any(p.matches(desc) for p in self.parts)


@dataclass(frozen=True)
class Not(Query):
    part: Query

    def matches(self, desc: FileDescription) -> bool:
        return not self.part.matches(desc)


def query_and(*parts: Query) -> And:
    return And(tuple(parts))


# ----------------------------------------------------------------------
# Client <-> server messages


@dataclass
class ConnectRequest:
    client_id: int
    nickname: str
    firewalled: bool


@dataclass
class ConnectReply:
    accepted: bool
    server_list: List[int] = field(default_factory=list)
    reason: str = ""


@dataclass
class PublishFiles:
    client_id: int
    files: List[FileDescription]


@dataclass
class SearchRequest:
    client_id: int
    query: Query
    limit: int = 200


@dataclass
class CallbackRequest:
    """Ask a server to force one of its firewalled clients to connect
    back to the requester (how low-ID sources become reachable)."""

    requester_id: int
    target_id: int


@dataclass
class SearchReply:
    results: List[FileDescription]
    truncated: bool = False


@dataclass
class QuerySources:
    client_id: int
    file_id: str


@dataclass
class SourcesReply:
    file_id: str
    sources: List[int]  # client ids currently publishing the file


@dataclass
class QueryUsers:
    """Nickname search — the (legacy) feature the crawler exploits."""

    pattern: str  # substring to match against nicknames


@dataclass
class UsersReply:
    users: List[Tuple[int, str, bool]]  # (client_id, nickname, firewalled)
    supported: bool = True
    truncated: bool = False


@dataclass
class ServerListRequest:
    pass


@dataclass
class ServerListReply:
    servers: List[int]


# ----------------------------------------------------------------------
# Service-mode messages (the framed TCP transport answers every request,
# and client<->client exchanges become server-mediated; the in-memory
# simulation never sends these, so adding them cannot perturb seeded runs)


@dataclass
class Ack:
    """Generic acknowledgement for requests whose handler returns no
    payload (``PublishFiles``) or a bare boolean (``CallbackRequest``)."""

    ok: bool = True


@dataclass
class ErrorReply:
    """A protocol-level error from the live service (for example a
    publish before connect), reported to the peer instead of tearing the
    connection down."""

    reason: str = ""


@dataclass
class BrowseUser:
    """Server-mediated browse: list the files ``target_id`` publishes.

    In the simulation browsing is a direct client<->client TCP exchange;
    in service mode only the index server is reachable, so the server
    answers from the target's session."""

    requester_id: int
    target_id: int


# ----------------------------------------------------------------------
# Client <-> client messages


@dataclass
class BrowseRequest:
    requester_id: int


@dataclass
class BrowseReply:
    allowed: bool
    files: List[FileDescription] = field(default_factory=list)


@dataclass
class FileStatusRequest:
    file_id: str


@dataclass
class FileStatusReply:
    available: bool
    blocks: List[bool] = field(default_factory=list)  # per-block presence


@dataclass
class BlockRequest:
    file_id: str
    block_index: int


@dataclass
class BlockReply:
    ok: bool
    checksum: bytes = b""


@dataclass
class MessageStats:
    """Counters of protocol traffic, kept by the network router."""

    sent: Dict[str, int] = field(default_factory=dict)

    def count(self, message: object) -> None:
        name = type(message).__name__
        self.sent[name] = self.sent.get(name, 0) + 1

    def total(self) -> int:
        return sum(self.sent.values())
