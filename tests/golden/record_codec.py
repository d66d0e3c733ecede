"""Record ``codec.json``: the frozen digests of the ``repro.wire/1`` codec.

The digests pin the bytes and decoded objects of the per-value codec
walkers (``wire._encode_value`` and ``wire._decode_value``) and of the
keyword search that sorted its whole candidate set on every query.
Both were replaced right after commit ``d363a61``, so this recorder
only runs against a source tree that still has the walkers; it imports
``repro`` from ``--src`` and the cases from this directory::

    git archive --prefix=parent/ d363a61 | tar -x -C "$TMPDIR"
    python tests/golden/record_codec.py --src "$TMPDIR/parent/src"

On later trees it stops with exit code 2; the digests are checked by
``tests/edonkey/test_codec_golden.py`` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def record(out_path: str) -> dict:
    from tests.golden import codec_cases

    doc = {
        "recorded_at": "d363a61412f72749f1833117235c2abd3f4d3e6a",
        "command": "python tests/golden/record_codec.py --src <d363a61>/src",
        "digests": {
            name: codec_cases.digests(case)
            for name, case in sorted(codec_cases.cases().items())
        },
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", required=True, help="src/ of a tree with the codec walkers"
    )
    parser.add_argument(
        "--out", default=os.path.join(ROOT, "tests", "golden", "codec.json")
    )
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), ROOT]

    from repro.edonkey import wire

    if not hasattr(wire, "_encode_value"):
        print(
            f"{args.src} has no per-value codec walkers; record at commit "
            "d363a61",
            file=sys.stderr,
        )
        return 2
    doc = record(args.out)
    print(f"recorded {len(doc['digests'])} digests -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
