"""Record ``engines.json``: the frozen digests of the reference engines.

This recorder needs a source tree that still has the reference engines
— the ``use_compiled=False`` string-keyed engines, the
``vectorized=False`` scalar engine and ``repro.analysis.streaming`` —
which is commit ``dd91cc1`` and earlier.  It imports ``repro`` from
``--src`` and the cases from this directory::

    git archive --prefix=parent/ dd91cc1 | tar -x -C "$TMPDIR"
    python tests/golden/record_engines.py --src "$TMPDIR/parent/src"

For every case in :mod:`tests.golden.cases` it runs the surviving engine
and each reference engine, refuses to write if any digest differs, and
writes the common digest.  Later commits deleted the reference engines,
so there the script stops with exit code 2; the digests are checked by
the test suite instead.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import tempfile
from functools import partial

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Flags that selected the reference engines at the recording commit.
LEGACY = {"use_compiled": False}
SCALAR = {"vectorized": False}


def _references(name, case, cases):
    """Thunks running the reference engines of engine case ``name``."""
    if name.endswith("/compiled"):
        # A CompiledTrace input has no string-keyed engine; its reference
        # is the legacy engine on the plain cache map.
        twin = cases.CASES[name[: -len("compiled")] + "cache-map"]
        return [partial(twin.run, **LEGACY)]
    if name.startswith(("search/", "requests/")):
        return [partial(case.run, **LEGACY), partial(case.run, **SCALAR)]
    return [partial(case.run, **LEGACY)]


def record(out_path: str) -> dict:
    from repro.analysis import streaming
    from repro.trace.io import trace_to_store
    from tests.golden import cases

    digests = {}
    for name, case in cases.CASES.items():
        expected = cases.digest(case.run())
        for reference in _references(name, case, cases):
            got = cases.digest(reference())
            if got != expected:
                raise SystemExit(f"{name}: reference {got} != engine {expected}")
        digests[name] = expected

    trace = cases.fixture_trace()
    with tempfile.TemporaryDirectory() as tmp:
        with trace_to_store(trace, os.path.join(tmp, "store")) as store:
            for name, case in cases.DAY_CASES.items():
                expected = cases.digest(case.run(trace))
                kwargs = case.kwargs(trace)
                streamed = getattr(streaming, "streaming_" + case.analysis)
                references = [partial(streamed, store, **kwargs)]
                if case.analysis == "overlap_evolution":
                    references.append(partial(case.run, trace, **LEGACY))
                for reference in references:
                    got = cases.digest(reference())
                    if got != expected:
                        raise SystemExit(
                            f"{name}: reference {got} != engine {expected}"
                        )
                digests[name] = expected

    doc = {
        "recorded_at": "dd91cc1b6b33f180b95d1e9b3a36ba5575eb0451",
        "command": "python tests/golden/record_engines.py --src <dd91cc1>/src",
        "digests": dict(sorted(digests.items())),
    }
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", required=True, help="src/ of a tree with the reference engines"
    )
    parser.add_argument(
        "--out", default=os.path.join(ROOT, "tests", "golden", "engines.json")
    )
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), ROOT]

    from repro.core.search import SearchSimulator

    if "use_compiled" not in inspect.signature(SearchSimulator).parameters:
        print(
            f"{args.src} has no reference engines; record at commit dd91cc1",
            file=sys.stderr,
        )
        return 2
    doc = record(args.out)
    print(f"recorded {len(doc['digests'])} digests -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
