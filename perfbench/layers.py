"""The traced run: per-layer metrics from recorded spans.

A traced run measures the workload's own path in fresh processes
untraced, traced, traced and untraced; the ratio of traced to untraced
wall time is the tracing overhead.  Stages that run inside forked shard
workers are traced from an extra ``shards=1`` pass over the same files.
Layers the workload's own path never reaches (the verifier on
``cold-suggest``, the store, server and protocol on both) are read from
a small traced pass of a path that does reach them, over inputs made
from the same seed: a rewrite of part of the corpus, and a short
open-loop daemon session whose replies are checked against the
in-process path.  So every per-layer metric is measured on every
workload; which pass each metric came from is in the report.
"""

from __future__ import annotations

import json
from pathlib import Path

import daemon as dm
import run as bench
from common import CheckFailed
from corpus import cold_corpus, daemon_inputs, derive_seed, write_corpus

TASKS = ("parallel", "reduction", "private", "simd", "target")
COMPLEMENT_FILES = 40
COMPLEMENT_RATE_S = 2.0      # seconds of schedule per daemon rate


# -- reading a trace -------------------------------------------------------------


def load_doc(path: Path, **extra) -> dict:
    doc = json.loads(path.read_text())
    doc["extra"].update(extra)
    return doc


def merge_docs(a: dict, b: dict) -> dict:
    """Sum two traces of one session (daemon side and client side)."""
    table = {k: dict(v) for k, v in a["table"].items()}
    for k, v in b["table"].items():
        row = table.setdefault(k, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for f in row:
            row[f] += v[f]
    counters = dict(a["counters"])
    for k, v in b["counters"].items():
        counters[k] = counters.get(k, 0) + v
    marks = {k: list(v) for k, v in a["marks"].items()}
    for k, v in b["marks"].items():
        marks.setdefault(k, []).extend(v)
    return {"table": table, "counters": counters, "marks": marks,
            "extra": {**a["extra"], **b["extra"]}}


def _ratio(num, den):
    return num / den if den else None


def extract(doc: dict) -> dict:
    """Per-layer metrics of one traced pass; ``None`` where the layer
    did no work in it."""
    T, C, M, E = doc["table"], doc["counters"], doc["marks"], doc["extra"]

    def self_s(*names):
        rows = [T[n] for n in names if n in T]
        return sum(r["self_s"] for r in rows) if rows else None

    def total_s(name):
        return T[name]["total_s"] if name in T else None

    def hit_ratio(stats):
        return _ratio(stats.get("hits", 0),
                      stats.get("hits", 0) + stats.get("misses", 0))

    cache = E.get("cache_stats") or {}
    memo = E.get("memo") or {}
    out = {
        "cfront.lex_s": self_s("cfront.lex"),
        "cfront.parse_s": self_s("cfront.parse", "cfront.parse_loop"),
        "cfront.tokens_per_s": (_ratio(C.get("cfront.tokens", 0),
                                       T["cfront.lex"]["total_s"])
                                if "cfront.lex" in T else None),
        "extract.self_s": self_s("extract.file_requests"),
        "parse_stage_s": total_s("serve.parse_many"),
        "extract.loops": C.get("extract.loops"),
        "graphs.augast_s": self_s("graphs.build_aug_ast"),
        "graphs.encode_s": self_s("graphs.encode_loop"),
        "graphs.nodes": C.get("graphs.nodes"),
        "graphs.edges": C.get("graphs.edges"),
        "forwards.calls": C.get("forwards.calls"),
        "forwards.graphs_per_call": _ratio(C.get("forwards.graphs", 0),
                                           C.get("forwards.calls", 0)),
        "deps.analyze_s": self_s("deps.analyze_loop"),
        "rewrite.plan_s": self_s("rewrite.plan_clauses"),
        "rewrite.verify_s": total_s("rewrite.verify_loop"),
        "store.get_s": self_s("store.get"),
        "store.put_s": self_s("store.put"),
        "server.compute_s": total_s("server.iter_joint"),
        "protocol.encode_s": self_s("protocol.encode"),
        "protocol.decode_s": self_s("protocol.decode"),
        "protocol.bytes_per_request": _ratio(C.get("protocol.bytes", 0),
                                             E.get("requests", 0)),
        "setup.import_s": E.get("import_s"),
        "artifacts.bundle_load_s": total_s("artifacts.bundle_load"),
        "setup.service_build_s": total_s("setup.build_service"),
    }
    for task in TASKS:
        out[f"models.forward_s.{task}"] = total_s(f"models.forward.{task}")
    encode = [v for k, v in cache.items() if "#" in k and isinstance(v, dict)]
    if encode and "graphs.encode_loop" in T:
        out["encode_cache.hit_ratio"] = _ratio(
            sum(v["hits"] for v in encode),
            sum(v["hits"] + v["misses"] for v in encode))
    if "deps.analyze_loop" in T:
        out["deps.memo_hit_ratio"] = hit_ratio(memo.get("deps", {}))
    if "rewrite.verify_loop" in T:
        verify = cache.get("verify") or {}
        runs = verify.get("compiled_runs", 0) + verify.get(
            "interpreted_runs", 0)
        out["verify.simulations"] = verify.get("simulations")
        out["verify.compiled_share"] = _ratio(verify.get("compiled_runs", 0),
                                              runs)
        out["verify.accepted_share"] = _ratio(
            E.get("verified", 0), T["rewrite.verify_loop"]["calls"])
    if "compile.compile_loop" in T:
        out["compile.memo_hit_ratio"] = hit_ratio(memo.get("compile", {}))
    if C.get("shards.plans") and M.get("shards.result"):
        done = M.get("shards.done") or [M["shards.result"][-1]]
        out["shards.imbalance"] = C["shards.imbalance_sum"] / C["shards.plans"]
        out["shards.first_result_s"] = (M["shards.result"][0]
                                        - M["shards.start"][0])
        out["shards.last_result_spread_s"] = max(done) - min(done)
        out["shards.spawns"] = (C.get("shards.planned", 0)
                                + C.get("shards.respawned", 0))
    store = cache.get("store") or {}
    if "store.put" in T:
        out["store.suggest_hit_ratio"] = _ratio(
            store.get("suggest_hits", 0),
            store.get("suggest_hits", 0) + store.get("suggest_misses", 0))
        out["store.write_ok_share"] = 1.0 - _ratio(
            store.get("write_errors", 0), T["store.put"]["calls"])
    delta = E.get("done_delta")
    if delta and "server.iter_joint" in T:
        co, fw = delta["coalesce"], delta["forwards"]
        out["server.requests_per_round"] = _ratio(co["requests"],
                                                  co["rounds"])
        out["server.deduped_files"] = co["deduped_files"]
        out["server.forward_calls_per_request"] = _ratio(fw["calls"],
                                                         co["requests"])
    return out


# -- traced passes ---------------------------------------------------------------


def cold_pass(ctx: dict, mode: str, corpus: Path, shards: int, tag: str,
              traced: bool) -> tuple[dict, dict | None]:
    out = ctx["run"] / f"{tag}.json"
    trace = ctx["traces"] / f"{tag}.trace.json" if traced else None
    result = bench.run_cold_child(ctx["repo"], ctx["env"], mode, corpus,
                                  ctx["bundle"], shards, out, trace=trace)
    if trace is None:
        return result, None
    codes = [c for f in result["files"].values() for c in f["codes"]]
    return result, load_doc(trace, verified=codes.count("verified"))


def daemon_pass(ctx: dict, inputs: dict) -> tuple[dict, dict, int]:
    """One daemon session, traced on both sides: the daemon through the
    traced launcher, the client side in this process.  Its replies are
    checked against an in-process pass over the hot set and some unseen
    files; returns the session, the merged trace and the number of
    files compared across the two paths."""
    from tracing import Tracer, install

    tracer = Tracer(run_id="client-daemon")
    install(tracer)
    trace_dir = ctx["traces"] / "daemon"
    trace_dir.mkdir(parents=True, exist_ok=True)
    session = dm.session(ctx, inputs, trace_dir, tracer)
    records = [r for rs in session["records"] for r in rs]
    check = ctx["run"] / "check"
    write_corpus(check, [dict(inputs["files"][n], name=n)
                         for n in inputs["check"]])
    reference = bench.run_cold_child(ctx["repo"], ctx["env"], "suggest",
                                     check, ctx["bundle"], 1,
                                     ctx["run"] / "check.json")
    compared = dm.check_replies(inputs, records, reference)
    client_path = trace_dir / "client.trace.json"
    tracer.dump(str(client_path), extra={"requests": len(records)})
    doc = merge_docs(load_doc(trace_dir / "daemon.trace.json"),
                     load_doc(client_path))
    doc["extra"]["cache_stats"] = dm.latest_stats(records, {})
    # the session's counters: the per-rate Done.stats deltas summed
    deltas = [r["done_stats_delta"] for r in session["rates"]]
    doc["extra"]["done_delta"] = {
        group: {k: sum(d[group].get(k, 0) for d in deltas)
                for k in deltas[0][group]}
        for group in deltas[0]}
    return session, doc, compared


# -- the traced run of each workload ---------------------------------------------------


def traced_run(ctx: dict, workload: str) -> dict:
    ctx["traces"] = ctx["work"] / "traces" / ctx["run"].name
    ctx["traces"].mkdir(parents=True, exist_ok=True)
    seed = ctx["seed"]
    passes: list[tuple[str, dict]] = []

    def run_cold(subset: int | None = None) -> Path:
        files = cold_corpus(derive_seed(workload, seed),
                            bench.COLD_SCALE[workload])
        if subset is not None:
            files = files[:subset]
        corpus = ctx["run"] / ("corpus" if subset is None else "subset")
        write_corpus(corpus, files)
        return corpus

    def check_same(a: dict, b: dict, what: str) -> None:
        for name, f in a["files"].items():
            if b["files"][name]["digest"] != f["digest"]:
                raise CheckFailed(f"{what} differs on {name}")

    corpus = run_cold()
    mode = "suggest" if workload == "cold-suggest" else "rewrite"
    shards = bench.COLD_SHARDS[workload]
    # untraced, traced, traced, untraced: one pair alone is within the
    # host's run-to-run noise, and the first pass of a run is often the
    # slowest
    walls = {False: 0.0, True: 0.0}
    runs = {}
    for k, is_traced in enumerate((False, True, True, False)):
        tag = f"primary{k}" if is_traced else f"untraced{k}"
        runs[is_traced], doc = cold_pass(ctx, mode, corpus, shards, tag,
                                         is_traced)
        walls[is_traced] += runs[is_traced]["wall_s"]
        if is_traced:
            primary = doc
    plain = runs[False]
    check_same(plain, runs[True], "the traced run")
    passes.append(("primary", primary))
    if shards > 1:
        inproc, doc = cold_pass(ctx, mode, corpus, 1, "inprocess", True)
        check_same(plain, inproc, "shards=1 and shards=2")
        passes.append(("inprocess", doc))
    else:
        sub = run_cold(COMPLEMENT_FILES)
        for n_shards, tag in ((2, "rewrite-sharded"), (1, "rewrite")):
            _, doc = cold_pass(ctx, "rewrite", sub, n_shards, tag, True)
            passes.append((tag, doc))
    inputs = daemon_inputs(derive_seed("daemon", seed),
                           per_rate_s=COMPLEMENT_RATE_S)
    session, doc, compared = daemon_pass(ctx, inputs)
    passes.append(("daemon", doc))

    metrics: dict[str, float] = {}
    source: dict[str, str] = {}
    for tag, doc in passes:
        for name, value in extract(doc).items():
            if name not in metrics and value is not None:
                metrics[name] = value
                source[name] = tag
    metrics["trace.overhead_ratio"] = walls[True] / walls[False]
    source["trace.overhead_ratio"] = "primary vs untraced"
    met = [r["rate"] for r in session["rates"] if r["meets_limit"]]
    return {"metrics": metrics, "attempted": len(plain["files"]),
            "failed": sum(f["error"] is not None
                          for f in plain["files"].values()),
            "report": {"source_pass": source,
                       "traces": str(ctx["traces"].relative_to(ctx["repo"])),
                       "daemon": {"setup_s": session["setup_s"],
                                  "rates": session["rates"],
                                  "max_rate_rps": max(met) if met else None,
                                  "cross_path_files": compared}}}
