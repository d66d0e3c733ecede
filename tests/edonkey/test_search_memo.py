"""The sorted keyword buckets behind ``Server.handle_search`` never go
stale, and a re-publish by difference ends where removing the old list
and adding the new one would.

Generated runs interleave connects (of live sessions too), publishes,
re-publishes, disconnects and crashes with searches of every shape the
server treats differently (bare keywords, ``field=`` keywords, ``And``
with one and with two keywords, ``Or``/``Not``/``SizeRange`` scans) and
any ``limit`` a client may send.  Re-publishes keep most of the previous
list, change one field of a kept description, or repeat an id within
one list.  Every search, source query and browse, and after each step a
search matching every indexed description, must equal what a model of
the index kept by this test answers, and ``check_invariants`` must stay
clean.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edonkey.messages import (
    And,
    BrowseReply,
    BrowseUser,
    ConnectRequest,
    FileDescription,
    Keyword,
    Not,
    Or,
    PublishFiles,
    QuerySources,
    SearchReply,
    SearchRequest,
    SizeRange,
    SourcesReply,
)
from repro.edonkey.server import Server

WORDS = ("rock", "live", "demo", "mix")
KINDS = ("audio", "video")
ABSENT = ("jazz", "nothing")
CLIENTS = range(3)
FILE_IDS = [f"f{i:02d}" for i in range(10)]

NAMES = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
TAGS = st.lists(st.sampled_from(WORDS), max_size=2).map(tuple)
DESCRIPTIONS = st.builds(
    FileDescription,
    file_id=st.sampled_from(FILE_IDS),
    name=NAMES,
    size=st.integers(1, 100),
    kind=st.sampled_from(KINDS),
    tags=TAGS,
)
#: One field of a description, changed.
EDITS = st.one_of(
    st.tuples(st.just("name"), NAMES),
    st.tuples(st.just("size"), st.integers(1, 100)),
    st.tuples(st.just("kind"), st.sampled_from(KINDS)),
    st.tuples(st.just("tags"), TAGS),
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

CONNECT = st.tuples(
    st.just("connect"), st.sampled_from(CLIENTS), st.sampled_from(["peer", "bob"])
)
PUBLISH = st.tuples(
    st.just("publish"), st.sampled_from(CLIENTS), st.lists(DESCRIPTIONS, max_size=5)
)
# A re-publish derived from the client's previous list: which ids to
# keep (mostly all), what to add, one kept description to edit, and one
# id to repeat (at which place, and whether the copy differs).
REPUBLISH = st.tuples(
    st.just("republish"),
    st.sampled_from(CLIENTS),
    st.lists(st.sampled_from([True, True, True, False]), min_size=1, max_size=4),
    st.lists(DESCRIPTIONS, max_size=2),
    st.one_of(st.none(), *[st.tuples(st.integers(0, 9), EDITS)] * 2),
    st.none() | st.tuples(st.integers(0, 9), st.integers(0, 9), st.booleans()),
)
DISCONNECT = st.tuples(st.just("disconnect"), st.sampled_from(CLIENTS))
CRASH = st.tuples(st.just("crash"))
SEARCH = st.tuples(st.just("search"), QUERIES, st.integers(-2, 300))
#: Each op kind, repeated by its weight: mostly (re-)publishes.
OPS = st.one_of(
    *[CONNECT] * 2, *[PUBLISH] * 2, *[REPUBLISH] * 4, DISCONNECT, CRASH, *[SEARCH] * 2
)


class IndexModel:
    """What the index should hold: the first description published for
    a file, kept while any session still publishes it.  A re-publish
    removes the client's whole previous list, then adds the new one,
    which is what the server's re-publish by difference must match."""

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

    def query_sources(self, file_id):
        return SourcesReply(
            file_id=file_id, sources=sorted(self.sources.get(file_id, ()))
        )

    def browse(self, client):
        if client not in self.published:
            return BrowseReply(allowed=False)
        return BrowseReply(allowed=True, files=list(self.published[client].values()))


def republished(previous, keep, additions, edit, repeat):
    """The list a ``republish`` op sends, derived from ``previous``."""
    files = [desc for i, desc in enumerate(previous) if keep[i % len(keep)]]
    files += additions
    if edit is not None and files:
        index, (name, value) = edit
        index %= len(files)
        files[index] = dataclasses.replace(files[index], **{name: value})
    if repeat is not None and files:
        source, place, differs = repeat
        copy = files[source % len(files)]
        if differs:
            copy = dataclasses.replace(copy, size=copy.size + 1)
        files.insert(place % (len(files) + 1), copy)
    return files


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(OPS, max_size=40))
def test_search_equals_sorted_scan(ops):
    server = Server(0)
    model = IndexModel()

    def connect(client, nickname):
        server.handle_connect(
            ConnectRequest(client_id=client, nickname=nickname, firewalled=False)
        )
        model.unpublish(client)
        model.published[client] = {}

    for op in ops:
        kind = op[0]
        if kind == "connect":
            connect(op[1], op[2])
        elif kind in ("publish", "republish"):
            if op[1] not in model.published:
                connect(op[1], "peer")
            if kind == "publish":
                files = op[2]
            else:
                previous = list(model.published[op[1]].values())
                files = republished(previous, *op[2:])
            server.handle_publish(PublishFiles(client_id=op[1], files=files))
            model.publish(op[1], files)
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
        limit = len(FILE_IDS)
        reply = server.handle_search(
            SearchRequest(client_id=0, query=SizeRange(), limit=limit)
        )
        assert reply == model.search(SizeRange(), limit)
        for file_id in FILE_IDS:
            query = QuerySources(client_id=0, file_id=file_id)
            assert server.handle_query_sources(query) == model.query_sources(file_id)
        for client in CLIENTS:
            browse = BrowseUser(requester_id=0, target_id=client)
            assert server.handle_browse_user(browse) == model.browse(client)


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


def _search(server, term):
    return server.handle_search(SearchRequest(client_id=1, query=Keyword(term)))


def test_republish_keeps_the_sorted_bucket_of_a_kept_token():
    server = _server_with(
        FileDescription("f1", "rock", 10), FileDescription("f2", "demo", 10)
    )
    _search(server, "rock")
    _search(server, "demo")
    kept = FileDescription("f1", "rock", 10)  # equal, as a decoded frame is
    server.handle_publish(
        PublishFiles(client_id=1, files=[kept, FileDescription("f3", "demo", 10)])
    )
    assert server._sorted_buckets == {"rock": ["f1"]}
    # The index shares the session's object, as re-filing it would.
    assert server._descriptions["f1"] is kept
    assert _search(server, "demo").results == [FileDescription("f3", "demo", 10)]
    assert server.check_invariants() == []


def test_sole_source_republish_refiles_a_changed_description():
    server = _server_with(FileDescription("f1", "rock", 10))
    _search(server, "rock")
    changed = FileDescription("f1", "jazz", 10)
    server.handle_publish(
        PublishFiles(client_id=1, files=[changed, FileDescription("f1", "mix", 10)])
    )
    assert _search(server, "rock").results == []
    assert _search(server, "jazz").results == [changed]
    assert _search(server, "mix").results == []
    assert server._descriptions["f1"] is changed
    browse = server.handle_browse_user(BrowseUser(requester_id=2, target_id=1))
    assert browse.files == [FileDescription("f1", "mix", 10)]
    assert server.check_invariants() == []


def test_republish_keeps_the_description_another_source_still_publishes():
    original = FileDescription("f1", "rock", 10)
    server = _server_with(original)
    server.handle_connect(ConnectRequest(client_id=2, nickname="other", firewalled=False))
    server.handle_publish(PublishFiles(client_id=2, files=[original]))
    _search(server, "rock")
    server.handle_publish(
        PublishFiles(client_id=1, files=[FileDescription("f1", "jazz", 10)])
    )
    assert _search(server, "rock").results == [original]
    assert _search(server, "jazz").results == []
    assert server._sorted_buckets == {"rock": ["f1"]}
    query = QuerySources(client_id=3, file_id="f1")
    assert server.handle_query_sources(query).sources == [1, 2]
    assert server.check_invariants() == []
