"""The eDonkey index server.

First-tier node of the hybrid architecture (Section 2.1): indexes the files
published by connected clients, answers keyword/range searches and source
queries, propagates the server list, and — on old versions only — answers
``query-users`` nickname searches with at most 200 users per reply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.edonkey.messages import (
    And,
    BrowseReply,
    BrowseUser,
    CallbackRequest,
    ConnectReply,
    ConnectRequest,
    FileDescription,
    Keyword,
    PublishFiles,
    Query,
    QuerySources,
    QueryUsers,
    SearchReply,
    SearchRequest,
    ServerListReply,
    ServerListRequest,
    SourcesReply,
    UdpSearchRequest,
    UsersReply,
)
from repro.util.validation import check_positive


@dataclass
class ServerConfig:
    """Server capabilities and limits.

    ``supports_query_users`` models the version split the paper relies on:
    old servers implement nickname search, new ones do not.
    """

    max_users: int = 200_000
    reply_limit: int = 200
    supports_query_users: bool = True

    def __post_init__(self) -> None:
        check_positive("max_users", self.max_users)
        check_positive("reply_limit", self.reply_limit)


@dataclass
class _Session:
    nickname: str
    firewalled: bool
    files: Dict[str, FileDescription] = field(default_factory=dict)


class Server:
    """An index server: sessions, file index, keyword index, server list."""

    def __init__(self, server_id: int, config: Optional[ServerConfig] = None) -> None:
        self.server_id = server_id
        self.config = config or ServerConfig()
        self._sessions: Dict[int, _Session] = {}
        self._sources: Dict[str, Set[int]] = {}  # file_id -> client ids
        self._keywords: Dict[str, Set[str]] = {}  # token -> file ids
        # token -> its keyword bucket in id order, kept for indexed tokens
        # only and dropped whenever the bucket changes
        self._sorted_buckets: Dict[str, List[str]] = {}
        self._descriptions: Dict[str, FileDescription] = {}
        self._nick_trigrams: Dict[str, Set[int]] = {}  # trigram -> client ids
        self.known_servers: Set[int] = {server_id}

    # ------------------------------------------------------------------
    # Session management

    @property
    def num_users(self) -> int:
        return len(self._sessions)

    def connected(self, client_id: int) -> bool:
        return client_id in self._sessions

    def handle_connect(self, msg: ConnectRequest) -> ConnectReply:
        # A re-connect replaces a live session: unpublish that one first.
        self.handle_disconnect(msg.client_id)
        if len(self._sessions) >= self.config.max_users:
            return ConnectReply(accepted=False, reason="server full")
        self._sessions[msg.client_id] = _Session(
            nickname=msg.nickname, firewalled=msg.firewalled
        )
        for trigram in _trigrams(msg.nickname):
            self._nick_trigrams.setdefault(trigram, set()).add(msg.client_id)
        return ConnectReply(accepted=True, server_list=sorted(self.known_servers))

    def crash(self) -> None:
        """Lose all volatile state (sessions and indexes).

        Models a server process dying: the server-list gossip survives
        (it is how a restarted server rejoins), but every session, file
        index, keyword index and nickname index is gone.  Clients must
        re-connect and re-publish for the server to index them again.
        """
        self._sessions.clear()
        self._sources.clear()
        self._keywords.clear()
        self._sorted_buckets.clear()
        self._descriptions.clear()
        self._nick_trigrams.clear()

    def handle_disconnect(self, client_id: int) -> None:
        session = self._sessions.pop(client_id, None)
        if session is None:
            return
        for trigram in _trigrams(session.nickname):
            bucket = self._nick_trigrams.get(trigram)
            if bucket is not None:
                bucket.discard(client_id)
                if not bucket:
                    del self._nick_trigrams[trigram]
        for file_id in session.files:
            self._remove_source(file_id, client_id)

    def _remove_source(self, file_id: str, client_id: int) -> None:
        sources = self._sources.get(file_id)
        if not sources:
            return
        sources.discard(client_id)
        if not sources:
            del self._sources[file_id]
            self._retire(file_id)

    def _file(self, desc: FileDescription) -> None:
        """Index ``desc`` as its id's description."""
        self._descriptions[desc.file_id] = desc
        for token in desc.tokens():
            self._keywords.setdefault(token, set()).add(desc.file_id)
            self._sorted_buckets.pop(token, None)

    def _retire(self, file_id: str) -> None:
        """Drop ``file_id``'s description from the index."""
        desc = self._descriptions.pop(file_id, None)
        if desc is not None:
            for token in desc.tokens():
                self._sorted_buckets.pop(token, None)
                bucket = self._keywords.get(token)
                if bucket is not None:
                    bucket.discard(file_id)
                    if not bucket:
                        del self._keywords[token]

    # ------------------------------------------------------------------
    # Publishing and search

    def handle_publish(self, msg: PublishFiles) -> None:
        """Replace the session's list with ``msg.files``.

        Applied as a difference against the previous list: an id that
        leaves it is unpublished, an id that stays keeps its index
        entries, and only ids new to the session are filed.  The index
        ends as if the old list had been removed and the new one added:
        a kept id that this client alone publishes gets the message's
        first description of it indexed, which is re-filed only when it
        differs from the indexed one.  The session keeps the message's
        last description of each id, or the indexed object when the two
        are equal, so an equal description is held once and browse
        replies carry the objects search replies do.
        """
        client_id = msg.client_id
        session = self._sessions.get(client_id)
        if session is None:
            raise KeyError(f"client {client_id} not connected")
        old = session.files
        sources = self._sources
        descriptions = self._descriptions
        files: Dict[str, FileDescription] = {}
        for desc in msg.files:
            file_id = desc.file_id
            indexed = descriptions.get(file_id)
            if file_id not in files:
                if file_id in old:
                    if indexed is not desc and len(sources[file_id]) == 1:
                        if indexed == desc:
                            descriptions[file_id] = indexed = desc
                        else:
                            self._retire(file_id)
                            self._file(desc)
                            indexed = desc
                else:
                    sources.setdefault(file_id, set()).add(client_id)
                    if indexed is None:
                        self._file(desc)
                        indexed = desc
            files[file_id] = indexed if indexed is desc or indexed == desc else desc
        for file_id in old:
            if file_id not in files:
                self._remove_source(file_id, client_id)
        session.files = files

    def handle_search(self, msg: SearchRequest) -> SearchReply:
        """The first ``limit`` matches in file-id order; ``truncated``
        when more exist (a ``limit`` of 0 or less returns no result and
        reports whether any file matches)."""
        descriptions = self._descriptions
        walk, residual = self._plan(msg.query)
        found = map(descriptions.__getitem__, walk)
        if residual is not None:
            found = filter(residual.matches, found)
        # ``islice`` needs a bounded stop; no query matches more than the index.
        limit = min(max(msg.limit, 0), len(descriptions))
        results = list(islice(found, limit))
        return SearchReply(results=results, truncated=next(found, None) is not None)

    def _plan(self, query: Query) -> Tuple[Iterable[str], Optional[Query]]:
        """The ids, in order, that may match ``query``, and what their
        descriptions still have to match (``None``: nothing).

        Field-less keywords, bare or among an ``And``'s parts, are
        answered from their buckets: the smallest is walked and ids
        missing from the others are skipped.  An id is filed only under
        its own description's tokens, so every walked id matches those
        keywords, and only the ``And``'s other parts are tested, in
        their order.  Any other query scans the whole index and is
        tested whole.
        """
        terms: List[str] = []
        rest: List[Query] = []
        for part in query.parts if isinstance(query, And) else (query,):
            if isinstance(part, Keyword) and part.field is None:
                terms.append(part.term.lower())
            else:
                rest.append(part)
        if not terms:
            return sorted(self._descriptions), query
        keywords = self._keywords
        terms.sort(key=lambda term: len(keywords.get(term, ())))
        walk: Iterable[str] = self._sorted_bucket(terms[0])
        for term in terms[1:]:
            walk = filter(keywords.get(term, ()).__contains__, walk)
        if not rest:
            return walk, None
        return walk, rest[0] if len(rest) == 1 else And(tuple(rest))

    def _sorted_bucket(self, token: str) -> List[str]:
        """The ids filed under ``token``, in order; never memoised for a
        token the index does not hold."""
        memo = self._sorted_buckets.get(token)
        if memo is None:
            bucket = self._keywords.get(token)
            if bucket is None:
                return []
            memo = self._sorted_buckets[token] = sorted(bucket)
        return memo

    def handle_query_sources(self, msg: QuerySources) -> SourcesReply:
        sources = sorted(self._sources.get(msg.file_id, set()))
        return SourcesReply(file_id=msg.file_id, sources=sources[: self.config.reply_limit])

    def handle_udp_search(self, msg: UdpSearchRequest) -> SearchReply:
        """A UDP query from a non-connected client: same index lookup,
        smaller reply budget (UDP datagrams are small)."""
        return self.handle_search(
            SearchRequest(client_id=msg.client_id, query=msg.query, limit=msg.limit)
        )

    def handle_callback(self, msg: CallbackRequest, network=None) -> bool:
        """Forward a callback request to a connected firewalled client.

        Returns True when the target is a connected session (the network
        then lets the requester reach it once through
        :meth:`~repro.edonkey.network.Network.callback_to_client`).  The
        ``network`` parameter is vestigial — the handler only consults
        its own session table — and defaults to ``None`` so the
        transport-independent dispatch can call every handler with the
        message alone."""
        return msg.target_id in self._sessions

    def handle_browse_user(self, msg: BrowseUser) -> BrowseReply:
        """Server-mediated browse (service mode): list the target's
        published files from its session, in publish order — the same
        order a direct :class:`~repro.edonkey.messages.BrowseRequest`
        to the client would return them in."""
        session = self._sessions.get(msg.target_id)
        if session is None:
            return BrowseReply(allowed=False)
        return BrowseReply(allowed=True, files=list(session.files.values()))

    # ------------------------------------------------------------------
    # Nickname search (the crawler's entry point)

    def handle_query_users(self, msg: QueryUsers) -> UsersReply:
        if not self.config.supports_query_users:
            return UsersReply([], False)
        pattern = msg.pattern.lower()
        # Patterns of length >= 3 go through the trigram index (the sweep
        # sends 26^3 of them); shorter patterns fall back to a full scan.
        if len(pattern) >= 3:
            bucket = self._nick_trigrams.get(pattern[:3])
            if not bucket:  # most of a sweep's patterns
                return UsersReply([], True)
            candidates = sorted(bucket)
        else:
            candidates = sorted(self._sessions)
        matches: List[Tuple[int, str, bool]] = []
        truncated = False
        for client_id in candidates:
            session = self._sessions.get(client_id)
            if session is None:
                continue
            if pattern in session.nickname.lower():
                if len(matches) >= self.config.reply_limit:
                    truncated = True
                    break
                matches.append((client_id, session.nickname, session.firewalled))
        return UsersReply(users=matches, supported=True, truncated=truncated)

    # ------------------------------------------------------------------
    # Server list gossip (the only data communicated between servers)

    def handle_server_list(self, _msg: ServerListRequest) -> ServerListReply:
        return ServerListReply(servers=sorted(self.known_servers))

    def learn_servers(self, server_ids) -> None:
        self.known_servers.update(server_ids)

    # ------------------------------------------------------------------
    # Self-checks

    def check_invariants(self) -> List[str]:
        """Cross-check the internal indexes; returns problems (empty = ok).

        The chaos harness runs this after every resumed day: a checkpoint
        that restored sessions without their index entries (or vice
        versa) shows up here rather than as a silently wrong trace.
        """
        problems: List[str] = []
        tag = f"server {self.server_id}"
        for client_id, session in self._sessions.items():
            for file_id in session.files:
                sources = self._sources.get(file_id, set())
                if client_id not in sources:
                    problems.append(
                        f"{tag}: session {client_id} publishes {file_id!r} "
                        "but is missing from its source set"
                    )
        for file_id, sources in self._sources.items():
            if not sources:
                problems.append(f"{tag}: empty source set for {file_id!r}")
            if file_id not in self._descriptions:
                problems.append(
                    f"{tag}: sourced file {file_id!r} has no description"
                )
            for client_id in sources:
                session = self._sessions.get(client_id)
                if session is None:
                    problems.append(
                        f"{tag}: source {client_id} of {file_id!r} has no "
                        "session"
                    )
                elif file_id not in session.files:
                    problems.append(
                        f"{tag}: source {client_id} of {file_id!r} does not "
                        "publish it"
                    )
        for file_id in self._descriptions:
            if file_id not in self._sources:
                problems.append(
                    f"{tag}: described file {file_id!r} has no sources"
                )
        tokens = {
            file_id: set(desc.tokens())
            for file_id, desc in self._descriptions.items()
        }
        for token, bucket in self._keywords.items():
            for file_id in bucket:
                if file_id not in tokens:
                    problems.append(
                        f"{tag}: keyword {token!r} indexes unknown file "
                        f"{file_id!r}"
                    )
                elif token not in tokens[file_id]:
                    problems.append(
                        f"{tag}: keyword {token!r} indexes {file_id!r}, "
                        "whose description lacks it"
                    )
        for token, memo in self._sorted_buckets.items():
            bucket = self._keywords.get(token)
            if bucket is None:
                problems.append(
                    f"{tag}: sorted bucket kept for unindexed token {token!r}"
                )
            elif memo != sorted(bucket):
                problems.append(f"{tag}: sorted bucket of {token!r} is stale")
        for trigram, bucket in self._nick_trigrams.items():
            for client_id in bucket:
                session = self._sessions.get(client_id)
                if session is None:
                    problems.append(
                        f"{tag}: nickname trigram {trigram!r} references "
                        f"disconnected client {client_id}"
                    )
                elif trigram not in _trigrams(session.nickname):
                    problems.append(
                        f"{tag}: trigram {trigram!r} does not occur in "
                        f"nickname of client {client_id}"
                    )
        return problems


def _trigrams(nickname: str) -> Set[str]:
    lowered = nickname.lower()
    if len(lowered) < 3:
        return set()
    return {lowered[i : i + 3] for i in range(len(lowered) - 2)}
