"""Tests for the protocol messages and the query language."""

import pytest

from repro.edonkey.messages import (
    AvailabilityRange,
    BitrateRange,
    FileDescription,
    Keyword,
    MessageStats,
    Not,
    Or,
    SizeRange,
    query_and,
)

MP3 = FileDescription(
    file_id="f1",
    name="Artist - Great_Song.mp3",
    size=4_000_000,
    kind="audio",
    tags=("rock", "2003"),
    availability=3,
    bitrate=192,
)
MOVIE = FileDescription(
    file_id="f2",
    name="some.movie.DIVX",
    size=700_000_000,
    kind="video",
    availability=1,
)


class TestTokens:
    def test_name_split_on_separators(self):
        tokens = MP3.tokens()
        assert "artist" in tokens
        assert "great" in tokens
        assert "song" in tokens
        assert "mp3" in tokens

    def test_tags_and_kind_included(self):
        tokens = MP3.tokens()
        assert "rock" in tokens
        assert "audio" in tokens


class TestKeyword:
    def test_matches_any_field(self):
        assert Keyword("great").matches(MP3)
        assert not Keyword("great").matches(MOVIE)

    def test_case_insensitive(self):
        assert Keyword("GREAT").matches(MP3)

    def test_kind_field(self):
        assert Keyword("audio", field="kind").matches(MP3)
        assert not Keyword("audio", field="kind").matches(MOVIE)

    def test_tag_field(self):
        assert Keyword("rock", field="tag").matches(MP3)
        assert not Keyword("2003", field="tag").matches(MOVIE)

    def test_name_field(self):
        assert Keyword("artist", field="name").matches(MP3)

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            Keyword("x", field="bogus").matches(MP3)


class TestRanges:
    def test_size_range(self):
        assert SizeRange(min_size=1_000_000, max_size=10_000_000).matches(MP3)
        assert not SizeRange(max_size=10_000_000).matches(MOVIE)
        assert SizeRange(min_size=100_000_000).matches(MOVIE)

    def test_open_bounds(self):
        assert SizeRange().matches(MP3)

    def test_availability(self):
        assert AvailabilityRange(min_avail=2).matches(MP3)
        assert not AvailabilityRange(min_avail=2).matches(MOVIE)
        assert AvailabilityRange(max_avail=1).matches(MOVIE)

    def test_bitrate(self):
        assert BitrateRange(min_rate=128).matches(MP3)
        assert not BitrateRange(min_rate=128).matches(MOVIE)


class TestCombinators:
    def test_and(self):
        query = query_and(Keyword("audio", field="kind"), SizeRange(max_size=10**7))
        assert query.matches(MP3)
        assert not query.matches(MOVIE)

    def test_or(self):
        query = Or((Keyword("divx"), Keyword("rock", field="tag")))
        assert query.matches(MP3)
        assert query.matches(MOVIE)

    def test_not(self):
        query = Not(Keyword("video", field="kind"))
        assert query.matches(MP3)
        assert not query.matches(MOVIE)

    def test_nested(self):
        # (audio AND NOT small) OR divx
        query = Or(
            (
                query_and(
                    Keyword("audio", field="kind"),
                    Not(SizeRange(max_size=1_000_000)),
                ),
                Keyword("divx"),
            )
        )
        assert query.matches(MP3)
        assert query.matches(MOVIE)


class TestMessageStats:
    def test_counts_by_type(self):
        stats = MessageStats()
        stats.count(Keyword("x"))
        stats.count(Keyword("y"))
        stats.count(SizeRange())
        assert stats.sent["Keyword"] == 2
        assert stats.sent["SizeRange"] == 1
        assert stats.total() == 3
