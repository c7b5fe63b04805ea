"""One cold repetition in a fresh interpreter.

Run by ``perfbench/run.py`` as a child process so that no
process-global memo (dependence analysis, loop compiler, encode caches)
survives from an earlier repetition.  Prints nothing on stdout; writes
its measurements to ``--out`` as JSON.

    python3 perfbench/cold.py --mode suggest|rewrite --corpus DIR \
        --bundle PATH --shards N --spawned-at WALL --out FILE
        [--order-seed K] [--trace FILE]
"""

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import digest  # noqa: E402


def _cpu_s() -> float:
    """CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["suggest", "rewrite"], required=True)
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--bundle", required=True)
    ap.add_argument("--shards", type=int, default=1)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--order-seed", type=int, default=0,
                    help="shuffle the file order (0: sorted by path)")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(run_id=f"{args.mode}-shards{args.shards}")
    t_import = time.perf_counter()
    from repro.artifacts import SuggesterBundle
    from repro.cfront import ParseError, parse_source
    from repro.cfront.lexer import LexError
    from repro.serve import ServeConfig
    import_s = time.perf_counter() - t_import
    if tracer is not None:
        from tracing import install

        install(tracer)

    bundle = SuggesterBundle.load(args.bundle)
    service = bundle.build_service(ServeConfig(shards=args.shards))
    ready_at = time.time()

    root = Path(args.corpus)
    named = [(str(p.relative_to(root)), p.read_text(encoding="utf-8"))
             for p in sorted(root.rglob("*.c"))]
    if args.order_seed:
        random.Random(args.order_seed).shuffle(named)

    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    done_at: list[float] = []
    results = []
    if args.mode == "suggest":
        stream = service.stream_sources(named, ordered=True)
    else:
        stream = service.stream_rewrite_sources(named, ordered=False,
                                                verify=True)
    for item in stream:
        done_at.append(time.perf_counter() - t0)
        results.append(item)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    stats = service.cache_stats()
    if tracer is not None:
        # written before the checks below, which parse on their own
        from tracing import memo_stats

        tracer.dump(args.trace, extra={"cache_stats": stats,
                                       "memo": memo_stats(),
                                       "import_s": import_s})

    files = {}
    reparse_failures = 0
    for r in results:
        payload = r.to_payload()
        if args.mode == "suggest":
            parallel = [s.parallel for s in r.suggestions]
            loops = [s.loop_source for s in r.suggestions]
            codes = []
        else:
            parallel = [w.code != "not-parallel" for w in r.rewrites]
            loops = [w.loop_source for w in r.rewrites]
            codes = [w.code for w in r.rewrites]
            if "verified" in codes:
                try:
                    parse_source(r.rewritten_source)
                except (LexError, ParseError, RecursionError):
                    reparse_failures += 1
        files[r.name] = {"digest": digest(payload), "error": r.error,
                         "parallel": parallel, "loops": loops,
                         "codes": codes}

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "setup_s": ready_at - args.spawned_at,
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "first_result_s": done_at[0] if done_at else wall_s,
        "done_at": done_at,
        "files": files,
        "reparse_failures": reparse_failures,
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
        "stats": {k: v for k, v in stats.items()
                  if k in ("forwards", "verify", "coalesce")},
    }
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
