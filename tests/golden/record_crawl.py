"""Record ``crawl.json``: the frozen digests of seeded crawls.

The digests pin what the crawls of ``crawl_cases.py`` produced while
``Server.handle_publish`` still re-published by removing every file of
the session and adding the new list back, which is commit ``97f9421``
and earlier.  It imports ``repro`` from ``--src`` and the cases from
this directory::

    git archive --prefix=parent/ 97f9421 | tar -x -C "$TMPDIR"
    python tests/golden/record_crawl.py --src "$TMPDIR/parent/src"

Later trees re-publish by difference, and there the script stops with
exit code 2; the digests are checked by
``tests/edonkey/test_crawl_golden.py`` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _removes_and_re_adds() -> bool:
    """Does a re-publish of an unchanged list re-file its descriptions?
    Removing and re-adding them drops the sorted bucket of their
    tokens; a re-publish by difference keeps it."""
    from repro.edonkey.messages import (
        ConnectRequest,
        FileDescription,
        Keyword,
        PublishFiles,
        SearchRequest,
    )
    from repro.edonkey.server import Server

    server = Server(0)
    server.handle_connect(ConnectRequest(client_id=1, nickname="n", firewalled=False))
    publish = PublishFiles(client_id=1, files=[FileDescription("f1", "rock", 1)])
    server.handle_publish(publish)
    server.handle_search(SearchRequest(client_id=1, query=Keyword("rock")))
    server.handle_publish(publish)
    return "rock" not in server._sorted_buckets


def record(out_path: str) -> dict:
    from tests.golden import crawl_cases

    doc = {
        "recorded_at": "97f94217f812ae80ff866ee1b4017b19b3be1254",
        "command": "python tests/golden/record_crawl.py --src <97f9421>/src",
        "digests": {name: crawl_cases.digests(name) for name in crawl_cases.CASES},
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", required=True, help="src/ of a tree that re-publishes by re-adding"
    )
    parser.add_argument(
        "--out", default=os.path.join(ROOT, "tests", "golden", "crawl.json")
    )
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), ROOT]

    if not _removes_and_re_adds():
        print(
            f"{args.src} re-publishes by difference; record at commit 97f9421",
            file=sys.stderr,
        )
        return 2
    doc = record(args.out)
    print(f"recorded {len(doc['digests'])} digests -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
