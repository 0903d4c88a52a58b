"""Benchmark child process: runs ``qndsim.cli.main`` on request.

    python3 bench/worker.py [--trace] serve
        Import qndsim.cli once, then read one JSON request per line from
        stdin ({"argv": [...]} or {"quit": true}) and answer each with one
        JSON line on stdout: exit code, in-process wall time of main() and,
        when tracing, the spans recorded during that call.

    python3 bench/worker.py [--trace] --spans-out FILE once ARGV...
        Run main(ARGV) once in a fresh interpreter, like the ``qndsim``
        console script, and write the spans to FILE.

PYTHONPATH must reach the package sources. Output that main() prints is
discarded in serve mode so it cannot mix with the replies.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

from tracing import SpanRecorder, install


def _call_main(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:   # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out")
    parser.add_argument("mode", choices=("serve", "once"))
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    import qndsim.cli

    recorder = SpanRecorder() if args.trace else None
    installed = install(recorder) if recorder else []

    if args.mode == "once":
        rc = _call_main(qndsim.cli.main, args.argv)
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            json.dump({"installed": installed,
                       "spans": recorder.drain() if recorder else []}, fh)
        return rc

    reply = sys.stdout
    reply.write(json.dumps({"ready": True, "installed": installed}) + "\n")
    reply.flush()
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("quit"):
            break
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = _call_main(qndsim.cli.main, request["argv"])
        wall = time.perf_counter() - t0
        reply.write(json.dumps({
            "rc": rc, "wall_s": wall,
            "spans": recorder.drain() if recorder else []}) + "\n")
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
