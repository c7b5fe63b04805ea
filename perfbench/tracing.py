"""In-memory span recorder wrapped around the public entry points of
each ``repro`` layer, from outside the package.

Nothing in ``src/`` is modified: :func:`install` replaces module
attributes (and every ``from x import y`` binding of them in already
imported ``repro`` modules) with timing wrappers.  Spans are kept in a
list and written once, when the run ends, as Chrome trace-event JSON
(open it in ``chrome://tracing`` or Perfetto) plus a per-span-name
self-time table.  A span's self time is its duration minus the time
its child spans (same thread, nested) cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

class Tracer:
    """Keeps spans and counters in memory until :meth:`dump`."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: [name, start, end, parent index or -1, thread id, request id]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.marks: dict[str, list[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def request_id(self, rid) -> None:
        """Tag the spans this thread records next with ``rid``."""
        self._local.rid = rid

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        span = [name, time.perf_counter(), None, parent,
                threading.get_ident(), getattr(self._local, "rid", None)]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    def count(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += value

    def mark(self, key: str) -> None:
        self.marks[key].append(time.perf_counter())

    # -- reporting -----------------------------------------------------------

    def table(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0 and end is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            if end is None:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[i]
        return out

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Write the Chrome trace, the self-time table and counters."""
        pid = os.getpid()
        events = []
        for i, (name, start, end, parent, tid, rid) in enumerate(self.spans):
            if end is None:
                continue
            events.append({
                "name": name, "ph": "X", "pid": pid, "tid": tid,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": i, "parent": parent, "run": self.run_id,
                         "request": rid},
            })
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "run": self.run_id,
            "table": self.table(),
            "counters": dict(self.counters),
            "marks": {k: list(v) for k, v in self.marks.items()},
            "extra": extra or {},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- wrappers ----------------------------------------------------------------


def _timed(tracer: Tracer, name: str, fn, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if on_result is not None:
            on_result(tracer, args, result)
        return result

    return wrapper


def _timed_generator(tracer: Tracer, name: str, fn):
    """Time each ``next()`` of a generator function's result: the time
    spent producing items, not the consumer's time between them."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = iter(fn(*args, **kwargs))
        while True:
            index = tracer.begin(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.end(index)
            yield item

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement`` (covers ``from module import name`` copies)."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def _patch_function(module, attr: str, replacement) -> None:
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    _rebind(original, replacement)


def _patch_method(cls, attr: str, make) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _count_tokens(tracer, args, result) -> None:
    tracer.count("cfront.tokens", len(getattr(result, "tokens", ())))


def _count_graph(tracer, args, graph) -> None:
    tracer.count("graphs.built")
    tracer.count("graphs.nodes", graph.num_nodes)
    tracer.count("graphs.edges", graph.num_edges)


def _count_requests(tracer, args, requests) -> None:
    tracer.count("extract.loops", len(requests))


def _count_frame(tracer, args, frame) -> None:
    tracer.count("protocol.bytes", len(frame))


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every traced ``repro`` layer.

    Call after importing the entry module (CLI, service) and before
    any work: modules imported later bind the wrappers directly.
    """
    import repro.artifacts.bundle as bundle_mod
    import repro.cfront.lexer as lexer_mod
    import repro.cfront.parser as parser_mod
    import repro.client as client_mod
    import repro.eval.context as context_mod
    import repro.graphs.augast as augast_mod
    import repro.graphs.encode as encode_mod
    import repro.rewrite.clauses as clauses_mod
    import repro.rewrite.engine as engine_mod
    import repro.rewrite.verify as verify_mod
    import repro.serve.parse as sparse_mod
    import repro.serve.pipeline as pipeline_mod
    import repro.serve.plan as plan_mod
    import repro.serve.protocol as protocol_mod
    import repro.serve.store as store_mod
    import repro.serve.stream as stream_mod
    import repro.suggest as suggest_mod
    import repro.tools.compile as compile_mod
    import repro.tools.deps as deps_mod

    def timed(name, on_result=None):
        return lambda fn: _timed(tracer, name, fn, on_result)

    # cfront: the lexer runs inside parse_source, so it is its own span
    _patch_method(lexer_mod.Lexer, "lex", timed("cfront.lex", _count_tokens))
    _patch_function(parser_mod, "parse_source",
                    timed("cfront.parse")(parser_mod.parse_source))
    _patch_function(parser_mod, "parse_loop",
                    timed("cfront.parse_loop")(parser_mod.parse_loop))
    # loop extraction and liveness; the parse stage around it
    _patch_function(suggest_mod, "file_requests",
                    timed("extract.file_requests", _count_requests)(
                        suggest_mod.file_requests))
    _patch_function(sparse_mod, "parse_many",
                    timed("serve.parse_many")(sparse_mod.parse_many))
    # graphs
    _patch_function(augast_mod, "build_aug_ast",
                    timed("graphs.build_aug_ast", _count_graph)(
                        augast_mod.build_aug_ast))
    _patch_method(encode_mod.EncodeCache, "encode_loop",
                  timed("graphs.encode_loop"))

    # models: one span per model, named by its task
    raw_predict = context_mod.TrainedGraphModel.predict_encoded

    # wraps() keeps the signature visible: the service probes it for
    # ``collate_cache`` support
    @functools.wraps(raw_predict)
    def predict_encoded(self, graphs, *args, **kwargs):
        index = tracer.begin(f"models.forward.{self.task}")
        try:
            return raw_predict(self, graphs, *args, **kwargs)
        finally:
            tracer.end(index)
            tracer.count("forwards.calls")
            tracer.count("forwards.graphs", len(graphs))

    context_mod.TrainedGraphModel.predict_encoded = predict_encoded

    # dependence analysis (the compose step's grounding)
    _patch_function(deps_mod, "analyze_loop",
                    timed("deps.analyze_loop")(deps_mod.analyze_loop))
    # rewrite, verifier, loop compiler
    _patch_function(clauses_mod, "plan_clauses",
                    timed("rewrite.plan_clauses")(clauses_mod.plan_clauses))
    _patch_function(verify_mod, "verify_loop",
                    timed("rewrite.verify_loop")(verify_mod.verify_loop))
    _patch_function(engine_mod, "rewrite_file",
                    timed("rewrite.rewrite_file")(engine_mod.rewrite_file))
    _patch_function(compile_mod, "compile_loop",
                    timed("compile.compile_loop")(compile_mod.compile_loop))

    # shards, seen from the coordinator
    def record_plan(tracer, args, shards):
        sizes = [sum(len(src) for _, src in s.items) for s in shards]
        tracer.count("shards.planned", len(shards))
        if sizes:
            tracer.count("shards.imbalance_sum",
                         max(sizes) / (sum(sizes) / len(sizes)))
            tracer.count("shards.plans")

    _patch_function(plan_mod, "plan_shards",
                    timed("shards.plan_shards", record_plan)(
                        plan_mod.plan_shards))

    # the supervisor builds a Shard itself only to respawn a dead
    # worker's unfinished files; the shard it builds stays a plain
    # (picklable) plan.Shard
    def respawned_shard(*args, **kwargs):
        tracer.count("shards.respawned")
        return plan_mod.Shard(*args, **kwargs)

    stream_mod.Shard = respawned_shard
    raw_stream = stream_mod.stream_shards

    def stream_shards(spec, named_sources, n_shards, on_stats=None,
                      revive=None):
        def stats_hook(stats):
            tracer.mark("shards.done")
            if on_stats is not None:
                on_stats(stats)

        tracer.mark("shards.start")
        for item in raw_stream(spec, named_sources, n_shards,
                               on_stats=stats_hook, revive=revive):
            tracer.mark("shards.result")
            yield item

    _patch_function(stream_mod, "stream_shards", stream_shards)

    # persistent store, per layer
    for attr in ("get_parse", "get_suggestions", "get_verdict"):
        _patch_method(store_mod.SuggestionStore, attr, timed("store.get"))
    for attr in ("put_parse", "put_suggestions", "put_verdict"):
        _patch_method(store_mod.SuggestionStore, attr, timed("store.put"))

    # server: one span per produced item of the coalesced pipeline
    pipeline_mod.SuggestionService.iter_joint = _timed_generator(
        tracer, "server.iter_joint", pipeline_mod.SuggestionService.iter_joint)

    # wire protocol and client
    _patch_function(protocol_mod, "encode_frame",
                    timed("protocol.encode", _count_frame)(
                        protocol_mod.encode_frame))
    _patch_function(protocol_mod, "decode_frame_body",
                    timed("protocol.decode")(protocol_mod.decode_frame_body))
    _patch_function(client_mod, "connect",
                    timed("client.connect")(client_mod.connect))

    # artifacts and service construction
    _patch_method(bundle_mod.SuggesterBundle, "load",
                  timed("artifacts.bundle_load"))
    _patch_method(bundle_mod.SuggesterBundle, "build_service",
                  timed("setup.build_service"))


def memo_stats() -> dict:
    """Process-global memo counters of the dependence analysis and the
    loop compiler (read at the end of a traced run)."""
    from repro.tools.compile import compile_cache_stats
    from repro.tools.deps import cache_stats

    return {"deps": cache_stats(), "compile": compile_cache_stats()}
