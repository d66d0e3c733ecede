"""Record ``generator.json``: the frozen digests of seeded workload generators.

The digests pin what the cases of ``generator_cases.py`` drew while the
generator still read numpy tables one scalar at a time and drew a file
kind through ``stable_choice``, which is commit ``f8c5608`` and earlier.
It imports ``repro`` from ``--src`` and the cases from this directory::

    git archive --prefix=parent/ f8c5608 | tar -x -C "$TMPDIR"
    python tests/golden/record_generator.py --src "$TMPDIR/parent/src"

Later trees draw from flat ``array`` tables, and there the script stops
with exit code 2; the digests are checked by
``tests/workload/test_generator_golden.py`` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _draws_from_numpy() -> bool:
    """Does ``ZipfSampler`` still keep its cumulative table in numpy?"""
    from repro.util.zipf import ZipfSampler

    return hasattr(ZipfSampler, "sample_many")


def record(out_path: str) -> dict:
    from tests.golden import generator_cases

    doc = {
        "recorded_at": "f8c5608d6da721745f80b3479a6996f3fce804f1",
        "command": "python tests/golden/record_generator.py --src <f8c5608>/src",
        "digests": {
            name: generator_cases.digests(name) for name in generator_cases.CASES
        },
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", required=True, help="src/ of a tree that draws from numpy tables"
    )
    parser.add_argument(
        "--out", default=os.path.join(ROOT, "tests", "golden", "generator.json")
    )
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), ROOT]

    if not _draws_from_numpy():
        print(
            f"{args.src} draws from flat tables; record at commit f8c5608",
            file=sys.stderr,
        )
        return 2
    doc = record(args.out)
    print(f"recorded {len(doc['digests'])} digests -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
