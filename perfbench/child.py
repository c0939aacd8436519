"""Child entry point of every per-process op, traced or not.

    python3 perfbench/child.py [--spans FILE] <polyberg arguments>

Untraced, it only calls polyberg.cli.main(argv).  With --spans it first
installs the span wrappers (spans.install), records the time the package
finished importing, and writes the spans to FILE when main returns.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    argv = sys.argv[1:]
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    import polyberg.cli

    if spans_path is None:
        return polyberg.cli.main(argv)
    imported = time.monotonic()
    sys.path.insert(0, HERE)
    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return polyberg.cli.main(argv)
    finally:
        spans.dump(recorder, spans_path, {"imported": imported})


if __name__ == "__main__":
    sys.exit(main())
