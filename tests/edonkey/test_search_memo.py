"""The sorted keyword buckets behind ``Server.handle_search`` never go
stale.

Generated runs interleave connects, publishes, re-publishes, disconnects
and crashes with searches of every shape the server treats differently
(bare keywords, ``field=`` keywords, ``And`` with one and with two
keywords, ``Or``/``Not``/``SizeRange`` scans) and any ``limit`` a client
may send.  Every reply must equal a brute-force sorted scan over a model
of the index kept by this test, and ``check_invariants`` must stay clean.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edonkey.messages import (
    And,
    ConnectRequest,
    FileDescription,
    Keyword,
    Not,
    Or,
    PublishFiles,
    SearchReply,
    SearchRequest,
    SizeRange,
)
from repro.edonkey.server import Server

WORDS = ("rock", "live", "demo", "mix")
KINDS = ("audio", "video")
ABSENT = ("jazz", "nothing")
CLIENTS = range(4)

DESCRIPTIONS = st.builds(
    FileDescription,
    file_id=st.sampled_from([f"f{i:02d}" for i in range(10)]),
    name=st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join),
    size=st.integers(1, 100),
    kind=st.sampled_from(KINDS),
    tags=st.lists(st.sampled_from(WORDS), max_size=2).map(tuple),
)

TERMS = st.sampled_from(WORDS + KINDS + ABSENT).flatmap(
    lambda term: st.sampled_from([term, term.upper()])
)
KEYWORDS = st.builds(Keyword, TERMS)
FIELD_KEYWORDS = st.builds(Keyword, TERMS, st.sampled_from(["kind", "tag", "name"]))
BOUNDS = st.none() | st.integers(1, 100)
SIZES = st.builds(SizeRange, BOUNDS, BOUNDS)
QUERIES = st.one_of(
    KEYWORDS,
    FIELD_KEYWORDS,
    st.builds(lambda k, s: And((k, s)), KEYWORDS, SIZES),
    st.builds(lambda a, b: And((a, b)), KEYWORDS, KEYWORDS),
    st.builds(lambda a, f, b: And((a, f, b)), KEYWORDS, FIELD_KEYWORDS, KEYWORDS),
    st.builds(lambda a, b: Or((a, b)), KEYWORDS, FIELD_KEYWORDS),
    st.builds(Not, KEYWORDS),
    SIZES,
)

OPS = st.one_of(
    st.tuples(st.just("connect"), st.sampled_from(CLIENTS)),
    st.tuples(
        st.just("publish"), st.sampled_from(CLIENTS), st.lists(DESCRIPTIONS, max_size=5)
    ),
    st.tuples(st.just("disconnect"), st.sampled_from(CLIENTS)),
    st.tuples(st.just("crash")),
    st.tuples(st.just("search"), QUERIES, st.integers(-2, 300)),
)


class IndexModel:
    """What the index should hold: the first description published for
    a file, kept while any session still publishes it."""

    def __init__(self):
        self.published = {}  # client -> {file_id: description}
        self.sources = {}  # file_id -> clients
        self.descriptions = {}  # file_id -> indexed description

    def unpublish(self, client):
        for file_id in self.published.get(client, {}):
            self.sources[file_id].discard(client)
            if not self.sources[file_id]:
                del self.sources[file_id]
                del self.descriptions[file_id]

    def publish(self, client, files):
        self.unpublish(client)
        self.published[client] = {}
        for desc in files:
            self.published[client][desc.file_id] = desc
            self.sources.setdefault(desc.file_id, set()).add(client)
            self.descriptions.setdefault(desc.file_id, desc)

    def search(self, query, limit):
        limit = max(limit, 0)
        matches = [
            desc
            for _, desc in sorted(self.descriptions.items())
            if query.matches(desc)
        ]
        return SearchReply(results=matches[:limit], truncated=len(matches) > limit)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(OPS, max_size=40))
def test_search_equals_sorted_scan(ops):
    server = Server(0)
    model = IndexModel()
    for op in ops:
        kind = op[0]
        if kind == "connect":
            if op[1] in model.published:
                continue  # a live session is never re-connected
            server.handle_connect(
                ConnectRequest(client_id=op[1], nickname="peer", firewalled=False)
            )
            model.published.setdefault(op[1], {})
        elif kind == "publish":
            if op[1] not in model.published:
                continue
            server.handle_publish(PublishFiles(client_id=op[1], files=op[2]))
            model.publish(op[1], op[2])
        elif kind == "disconnect":
            server.handle_disconnect(op[1])
            model.unpublish(op[1])
            model.published.pop(op[1], None)
        elif kind == "crash":
            server.crash()
            model = IndexModel()
        else:
            query, limit = op[1], op[2]
            reply = server.handle_search(
                SearchRequest(client_id=0, query=query, limit=limit)
            )
            assert reply == model.search(query, limit)
        assert server.check_invariants() == []


def _server_with(*files):
    server = Server(0)
    server.handle_connect(
        ConnectRequest(client_id=1, nickname="peer", firewalled=False)
    )
    server.handle_publish(PublishFiles(client_id=1, files=list(files)))
    return server


def test_absent_term_leaves_no_sorted_bucket():
    server = _server_with(FileDescription("f1", "rock demo", 10))
    for query in (Keyword("jazz"), And((Keyword("jazz"), Keyword("rock")))):
        reply = server.handle_search(SearchRequest(client_id=1, query=query))
        assert reply == SearchReply(results=[], truncated=False)
    assert "jazz" not in server._sorted_buckets
    assert "rock" not in server._sorted_buckets
    server.handle_search(SearchRequest(client_id=1, query=Keyword("ROCK")))
    assert server._sorted_buckets == {"rock": ["f1"]}
    server.handle_disconnect(1)
    assert server._sorted_buckets == {}
    assert server.check_invariants() == []


def test_invariants_report_a_stale_or_orphan_sorted_bucket():
    server = _server_with(
        FileDescription("f1", "rock", 10), FileDescription("f2", "rock", 10)
    )
    server.handle_search(SearchRequest(client_id=1, query=Keyword("rock")))
    server._sorted_buckets["rock"] = ["f1"]
    server._sorted_buckets["jazz"] = []
    server._keywords["demo"] = {"f1"}
    problems = server.check_invariants()
    assert any("sorted bucket of 'rock' is stale" in p for p in problems)
    assert any("unindexed token 'jazz'" in p for p in problems)
    assert any("'demo' indexes 'f1', whose description lacks" in p for p in problems)
