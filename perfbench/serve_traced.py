"""``repro serve`` with the benchmark's span recorder installed.

    python3 perfbench/serve_traced.py --trace-out FILE <repro serve args>

Wraps the ``repro`` entry points (see ``tracing.install``), then runs
``repro.cli.serve_main`` unchanged.  On SIGTERM the daemon drains and
``serve_main`` returns; the spans are written to ``--trace-out`` then.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: serve_traced.py --trace-out FILE <serve args>",
              file=sys.stderr)
        return 2
    trace_out, serve_args = argv[1], argv[2:]

    from tracing import Tracer, install, memo_stats

    tracer = Tracer(run_id="daemon")
    t_import = time.perf_counter()
    import repro.artifacts  # noqa: F401  (imported by serve_main)
    import repro.serve  # noqa: F401
    from repro.cli import serve_main
    import_s = time.perf_counter() - t_import
    install(tracer)
    code = serve_main(serve_args)
    tracer.dump(trace_out, extra={"import_s": import_s,
                                  "memo": memo_stats()})
    return code


if __name__ == "__main__":
    sys.exit(main())
