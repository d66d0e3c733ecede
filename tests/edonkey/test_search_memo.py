"""The sorted keyword buckets behind ``Server.handle_search`` never go
stale, and a re-publish by difference ends where removing the old list
and adding the new one would.

Generated runs interleave connects (of live sessions too), publishes,
re-publishes, disconnects and crashes.  Re-publishes keep most of the
previous list, change one field of a kept description, or repeat an id
within one list.  Each op is followed by a search of a shape the server
plans differently, at any ``limit`` a client may send: bare keywords,
``field=`` keywords, ``Or``/``Not``/range scans, the empty ``And``, and
``And`` with no, one, two or a repeated field-less keyword, whose other
parts (``field=`` keywords, ranges on size, availability and bit-rate,
``Or``, ``Not``, a nested ``And``) are tested on the walked ids.  That
search, a search matching every indexed description, and every source
query and browse must equal what a model of the index kept by this test
answers, and ``check_invariants`` must stay clean.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edonkey.messages import (
    And,
    AvailabilityRange,
    BitrateRange,
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
    availability=st.integers(0, 5),
    bitrate=st.sampled_from([0, 128, 192, 320]),
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
AVAILABILITIES = st.builds(
    AvailabilityRange, st.none() | st.integers(0, 5), st.none() | st.integers(0, 5)
)
BITRATES = st.builds(
    BitrateRange, st.none() | st.integers(0, 320), st.none() | st.integers(0, 320)
)
ORS = st.builds(lambda a, b: Or((a, b)), KEYWORDS, FIELD_KEYWORDS)
NOTS = st.builds(Not, KEYWORDS)
QUERIES = st.one_of(
    KEYWORDS,
    FIELD_KEYWORDS,
    st.builds(lambda k, s: And((k, s)), KEYWORDS, SIZES),
    st.builds(lambda a, b: And((a, b)), KEYWORDS, KEYWORDS),
    st.builds(lambda a, f, b: And((a, f, b)), KEYWORDS, FIELD_KEYWORDS, KEYWORDS),
    ORS,
    NOTS,
    SIZES,
    # How the server splits an ``And`` into walked keywords and tested
    # parts: no keyword, one keyword alone, a repeated keyword, a nested
    # ``And``, and ``Or``, ``Not``, availability and bit-rate parts.
    st.builds(lambda f, s: And((f, s)), FIELD_KEYWORDS, SIZES),
    st.builds(lambda k: And((k,)), KEYWORDS),
    st.builds(lambda k, s: And((k, s, k)), KEYWORDS, SIZES),
    st.builds(lambda t, b: And((Keyword(t), b, Keyword(t.upper()))), TERMS, BITRATES),
    st.builds(lambda a, b, s: And((a, And((b, s)))), KEYWORDS, KEYWORDS, SIZES),
    st.builds(lambda o, k: And((o, k)), ORS, KEYWORDS),
    st.builds(lambda k, n, a: And((k, n, a)), KEYWORDS, NOTS, AVAILABILITIES),
    st.builds(lambda a, k, b: And((a, k, b)), AVAILABILITIES, KEYWORDS, BITRATES),
    st.builds(lambda k, b: And((k, b)), KEYWORDS, BITRATES),
    st.just(And(())),
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
#: Each op kind, repeated by its weight: mostly (re-)publishes.
OPS = st.one_of(
    *[CONNECT] * 2, *[PUBLISH] * 2, *[REPUBLISH] * 4, DISCONNECT, CRASH
)
#: One op, then one search and its ``limit``.
STEPS = st.tuples(OPS, QUERIES, st.integers(-2, 300) | st.just(1 << 64))


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
@given(steps=st.lists(STEPS, max_size=40))
def test_search_equals_sorted_scan(steps):
    server = Server(0)
    model = IndexModel()

    def connect(client, nickname):
        server.handle_connect(
            ConnectRequest(client_id=client, nickname=nickname, firewalled=False)
        )
        model.unpublish(client)
        model.published[client] = {}

    for op, probe, probe_limit in steps:
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
        else:
            server.crash()
            model = IndexModel()
        for query, limit in ((probe, probe_limit), (SizeRange(), len(FILE_IDS))):
            reply = server.handle_search(
                SearchRequest(client_id=0, query=query, limit=limit)
            )
            assert reply == model.search(query, limit)
        assert server.check_invariants() == []
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


def test_an_and_of_a_keyword_and_a_range_never_tokenises(monkeypatch):
    """Every id of the walked bucket holds the keyword, so only the size
    range is tested and no description is tokenised again."""
    files = [
        FileDescription(f"f{i:03d}", f"rock song {i}", i + 1) for i in range(500)
    ]
    server = _server_with(*files)
    calls = []
    tokens = FileDescription.tokens

    def counted(desc):
        calls.append(desc.file_id)
        return tokens(desc)

    monkeypatch.setattr(FileDescription, "tokens", counted)
    for term in ("rock", "ROCK", "song"):
        query = And((Keyword(term), SizeRange(min_size=1)))
        reply = server.handle_search(SearchRequest(client_id=1, query=query))
        assert reply == SearchReply(results=files[:200], truncated=True)
    assert calls == []


def test_every_plan_shape_over_every_pair_of_terms():
    """On an index where every two words share some files but not all,
    each ``And`` shape over each pair of terms answers as a sorted scan."""
    subsets = [
        [word for bit, word in enumerate(WORDS) if mask >> bit & 1]
        for mask in range(1, 1 << len(WORDS))
    ]
    files = [
        FileDescription(
            f"f{i:02d}",
            " ".join(words),
            i + 1,
            kind=KINDS[i % 2],
            tags=tuple(words[:1]),
            availability=i % 4,
            bitrate=(0, 128, 192, 320)[i % 4],
        )
        for i, words in enumerate(subsets)
    ]
    server = _server_with(*files)
    model = IndexModel()
    model.publish(1, files)
    terms = WORDS + KINDS + ABSENT
    for a in terms:
        for b in terms:
            ka, kb = Keyword(a), Keyword(b.upper())
            for query in (
                And((ka, kb)),
                And((ka, SizeRange(min_size=4), kb)),
                And((ka, Keyword(b, field="tag"), BitrateRange(min_rate=128))),
                And((Not(kb), ka, AvailabilityRange(max_avail=2))),
                And((ka, And((kb, SizeRange(max_size=12))))),
                And((Or((ka, kb)), Keyword(a, field="kind"))),
            ):
                for limit in (0, 3, 200):
                    request = SearchRequest(client_id=0, query=query, limit=limit)
                    assert server.handle_search(request) == model.search(query, limit)
