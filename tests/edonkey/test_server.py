"""Tests for the eDonkey index server."""

import pytest

from repro.edonkey.messages import (
    ConnectRequest,
    FileDescription,
    Keyword,
    PublishFiles,
    QuerySources,
    QueryUsers,
    SearchRequest,
    ServerListRequest,
    UdpSearchRequest,
    query_and,
)
from repro.edonkey.server import Server, ServerConfig


def connect(server, client_id, nickname="peer", firewalled=False):
    return server.handle_connect(
        ConnectRequest(client_id=client_id, nickname=nickname, firewalled=firewalled)
    )


def publish(server, client_id, *files):
    server.handle_publish(PublishFiles(client_id=client_id, files=list(files)))


def desc(file_id, name="file name", size=1000, **kw):
    return FileDescription(file_id=file_id, name=name, size=size, **kw)


class TestSessions:
    def test_connect_accepted(self):
        server = Server(0)
        reply = connect(server, 1)
        assert reply.accepted
        assert server.num_users == 1

    def test_server_full(self):
        server = Server(0, ServerConfig(max_users=1))
        connect(server, 1)
        reply = connect(server, 2)
        assert not reply.accepted
        assert "full" in reply.reason

    def test_publish_requires_session(self):
        server = Server(0)
        with pytest.raises(KeyError):
            publish(server, 99, desc("f"))

    def test_disconnect_removes_sources(self):
        server = Server(0)
        connect(server, 1)
        publish(server, 1, desc("f"))
        server.handle_disconnect(1)
        reply = server.handle_query_sources(QuerySources(client_id=2, file_id="f"))
        assert reply.sources == []

    def test_disconnect_unknown_is_noop(self):
        Server(0).handle_disconnect(42)

    def test_reconnect_of_a_live_session_unpublishes_it(self):
        server = Server(0)
        connect(server, 1, nickname="oldnick")
        publish(server, 1, desc("f1"))
        assert connect(server, 1, nickname="newnick").accepted
        reply = server.handle_query_sources(QuerySources(client_id=2, file_id="f1"))
        assert reply.sources == []
        assert server.handle_query_users(QueryUsers(pattern="old")).users == []
        found = server.handle_query_users(QueryUsers(pattern="new")).users
        assert found == [(1, "newnick", False)]
        assert server.check_invariants() == []

    def test_reconnect_does_not_count_its_own_session(self):
        server = Server(0, ServerConfig(max_users=1))
        connect(server, 1)
        assert connect(server, 1).accepted
        assert server.num_users == 1


class TestPublishAndSearch:
    def test_search_by_keyword(self):
        server = Server(0)
        connect(server, 1)
        publish(server, 1, desc("f1", name="great song"), desc("f2", name="other"))
        reply = server.handle_search(
            SearchRequest(client_id=9, query=Keyword("great"))
        )
        assert [r.file_id for r in reply.results] == ["f1"]

    def test_search_combined_query(self):
        server = Server(0)
        connect(server, 1)
        publish(
            server,
            1,
            desc("small", name="demo track", size=100),
            desc("big", name="demo movie", size=10**9),
        )
        from repro.edonkey.messages import SizeRange

        query = query_and(Keyword("demo"), SizeRange(min_size=10**6))
        reply = server.handle_search(SearchRequest(client_id=9, query=query))
        assert [r.file_id for r in reply.results] == ["big"]

    def test_search_limit_truncates(self):
        server = Server(0)
        connect(server, 1)
        publish(server, 1, *(desc(f"f{i}", name="common") for i in range(10)))
        reply = server.handle_search(
            SearchRequest(client_id=9, query=Keyword("common"), limit=3)
        )
        assert len(reply.results) == 3
        assert reply.truncated

    def test_republish_replaces(self):
        server = Server(0)
        connect(server, 1)
        publish(server, 1, desc("old", name="alpha"))
        publish(server, 1, desc("new", name="beta"))
        assert server.handle_search(
            SearchRequest(client_id=9, query=Keyword("alpha"))
        ).results == []
        reply = server.handle_search(SearchRequest(client_id=9, query=Keyword("beta")))
        assert [r.file_id for r in reply.results] == ["new"]

    def test_sources_across_clients(self):
        server = Server(0)
        connect(server, 1)
        connect(server, 2)
        publish(server, 1, desc("f"))
        publish(server, 2, desc("f"))
        reply = server.handle_query_sources(QuerySources(client_id=9, file_id="f"))
        assert reply.sources == [1, 2]

    def test_keyword_index_cleanup_on_last_source(self):
        server = Server(0)
        connect(server, 1)
        connect(server, 2)
        publish(server, 1, desc("f", name="unique-token"))
        publish(server, 2, desc("f", name="unique-token"))
        server.handle_disconnect(1)
        # still searchable through client 2
        assert server.handle_search(
            SearchRequest(client_id=9, query=Keyword("unique-token".split("-")[0]))
        ).results
        server.handle_disconnect(2)
        assert not server.handle_search(
            SearchRequest(client_id=9, query=Keyword("unique"))
        ).results


class TestQueryUsers:
    def test_substring_match(self):
        server = Server(0)
        connect(server, 1, nickname="darkstar42")
        connect(server, 2, nickname="luna7")
        reply = server.handle_query_users(QueryUsers(pattern="dar"))
        assert [u[0] for u in reply.users] == [1]

    def test_unsupported_server(self):
        server = Server(0, ServerConfig(supports_query_users=False))
        connect(server, 1, nickname="darkstar42")
        reply = server.handle_query_users(QueryUsers(pattern="dar"))
        assert not reply.supported
        assert reply.users == []

    def test_reply_limit(self):
        server = Server(0, ServerConfig(reply_limit=5))
        for i in range(10):
            connect(server, i, nickname=f"aaa-{i}")
        reply = server.handle_query_users(QueryUsers(pattern="aaa"))
        assert len(reply.users) == 5
        assert reply.truncated

    def test_firewall_flag_reported(self):
        server = Server(0)
        connect(server, 1, nickname="abcdef", firewalled=True)
        reply = server.handle_query_users(QueryUsers(pattern="abc"))
        assert reply.users[0][2] is True

    def test_mid_nickname_trigram(self):
        server = Server(0)
        connect(server, 1, nickname="xdarky")
        reply = server.handle_query_users(QueryUsers(pattern="dark"))
        assert [u[0] for u in reply.users] == [1]

    def test_short_pattern_scans(self):
        server = Server(0)
        connect(server, 1, nickname="zq9")
        reply = server.handle_query_users(QueryUsers(pattern="zq"))
        assert [u[0] for u in reply.users] == [1]

    def test_disconnect_cleans_trigram_index(self):
        server = Server(0)
        connect(server, 1, nickname="vanish")
        server.handle_disconnect(1)
        reply = server.handle_query_users(QueryUsers(pattern="van"))
        assert reply.users == []

    def test_default_cap_is_200(self):
        # The default config caps at 200 even with 250 genuine matches,
        # and reports the truncation.
        server = Server(0)
        for i in range(250):
            connect(server, i, nickname=f"common-{i:03d}")
        reply = server.handle_query_users(QueryUsers(pattern="com"))
        assert len(reply.users) == 200
        assert reply.truncated
        # Candidates are walked in client-id order, so the cap keeps the
        # lowest ids deterministically.
        assert [u[0] for u in reply.users] == list(range(200))

    def test_exactly_at_cap_is_not_truncated(self):
        server = Server(0, ServerConfig(reply_limit=5))
        for i in range(5):
            connect(server, i, nickname=f"aaa-{i}")
        reply = server.handle_query_users(QueryUsers(pattern="aaa"))
        assert len(reply.users) == 5
        assert not reply.truncated

    def test_trigram_candidate_without_substring_match(self):
        # "dxa" IS a trigram of "dxaq" but the full pattern "dxaz" is
        # not a substring: the trigram index may nominate a candidate,
        # the substring check must still reject it.
        server = Server(0)
        connect(server, 1, nickname="dxaq")
        reply = server.handle_query_users(QueryUsers(pattern="dxaz"))
        assert reply.users == []

    def test_trigram_lookup_is_case_insensitive(self):
        server = Server(0)
        connect(server, 1, nickname="DarkWolf")
        reply = server.handle_query_users(QueryUsers(pattern="ARKWO"))
        assert [u[1] for u in reply.users] == ["DarkWolf"]

    def test_short_nickname_unreachable_via_trigrams(self):
        # A 2-char nickname indexes no trigrams; a >= 3 char pattern can
        # never match it anyway (substring longer than the name).
        server = Server(0)
        connect(server, 1, nickname="zq")
        assert server.handle_query_users(QueryUsers(pattern="zqx")).users == []
        # ... but the short-pattern full scan still finds it.
        assert server.handle_query_users(QueryUsers(pattern="zq")).users == [
            (1, "zq", False)
        ]


class TestUdpSearch:
    def _populated(self, n=60):
        server = Server(0)
        connect(server, 1, nickname="sharer")
        publish(
            server,
            1,
            *[desc(file_id=f"f{i}", name=f"common tune {i}") for i in range(n)],
        )
        return server

    def test_same_index_as_tcp_search(self):
        server = self._populated(n=10)
        udp = server.handle_udp_search(
            UdpSearchRequest(client_id=9, query=Keyword("common"), limit=200)
        )
        tcp = server.handle_search(
            SearchRequest(client_id=9, query=Keyword("common"), limit=200)
        )
        assert udp == tcp

    def test_default_limit_is_50(self):
        server = self._populated(n=60)
        reply = server.handle_udp_search(
            UdpSearchRequest(client_id=9, query=Keyword("common"))
        )
        assert len(reply.results) == 50
        assert reply.truncated

    def test_requester_needs_no_session(self):
        # UDP queries come from clients connected to *other* servers.
        server = self._populated(n=1)
        reply = server.handle_udp_search(
            UdpSearchRequest(client_id=424242, query=Keyword("common"))
        )
        assert len(reply.results) == 1

    def test_no_match_is_empty_not_truncated(self):
        server = self._populated(n=5)
        reply = server.handle_udp_search(
            UdpSearchRequest(client_id=9, query=Keyword("nosuchword"))
        )
        assert reply.results == []
        assert not reply.truncated


class TestServerList:
    def test_gossip(self):
        server = Server(0)
        server.learn_servers([1, 2])
        reply = server.handle_server_list(ServerListRequest())
        assert reply.servers == [0, 1, 2]

    def test_connect_returns_server_list(self):
        server = Server(0)
        server.learn_servers([5])
        reply = connect(server, 1)
        assert reply.server_list == [0, 5]
