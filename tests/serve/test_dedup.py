"""Each distinct thing is computed once: graphs and file contents.

Two levels of sharing, both invisible in the results:

- loops whose aug-ASTs encode to the same arrays (alpha-renamed names,
  same literal buckets) share one interned graph, which
  ``_BatchedGraphModel`` forwards once and fans back out;
- files with byte-identical content are served once, before the shard
  split, and each copy gets the shared result under its own name.
"""

import numpy as np
import pytest

from repro.cfront import parse_loop
from repro.client import connect
from repro.dataset.sample import LoopSample
from repro.eval.context import TrainedGraphModel
from repro.graphs import build_aug_ast, build_graph_vocab
from repro.models import Graph2Par, Graph2ParConfig
from repro.serve import ServeConfig, SuggestionService, SuggestServer
from repro.serve.pipeline import _BatchedGraphModel
from repro.train import GraphTrainer, TrainConfig

SUM_SOURCE = """
double a[64], b[64]; double s;
void kernel(void) {
    int i;
    for (i = 0; i < 64; i++) a[i] = b[i] * 2.0;
    for (i = 0; i < 64; i++) s += a[i];
}
"""

# SUM_SOURCE with every name changed: its loops are alpha-equivalent
RENAMED_SOURCE = """
double x[64], y[64]; double t;
void other(void) {
    int j;
    for (j = 0; j < 64; j++) x[j] = y[j] * 2.0;
    for (j = 0; j < 64; j++) t += x[j];
}
"""

PREFIX_SOURCE = """
double p[32];
void scan(void) {
    int j;
    for (j = 1; j < 32; j++) p[j] = p[j] + p[j - 1];
    for (j = 0; j < 32; j++) p[j] = p[j] * 3.0 + 1.0;
}
"""

BAD_SOURCE = "void broken(void) { for (i = 0; i < ; }"

LOOPS = [
    "for (i = 0; i < 64; i++) a[i] = b[i] * 2.0;",
    "for (j = 0; j < 64; j++) x[j] = y[j] * 2.0;",
    "for (i = 0; i < 64; i++) s += a[i];",
    "for (j = 1; j < 32; j++) p[j] = p[j] + p[j - 1];",
    "for (j = 0; j < 32; j++) p[j] = p[j] * 3.0 + 1.0;",
    "for (i = 0; i < 64; i++) s += a[i];",
]


def _trained(task: str, seed: int) -> TrainedGraphModel:
    """A seeded, untrained Graph2Par behind the serving protocol."""
    vocab = build_graph_vocab([build_aug_ast(parse_loop(src))
                               for src in LOOPS])
    model = Graph2Par(vocab, Graph2ParConfig(dim=16, layers=2, seed=seed))
    return TrainedGraphModel(
        trainer=GraphTrainer(model, TrainConfig(epochs=1, seed=seed)),
        vocab=vocab, representation="aug", task=task,
    )


class _StubModel:
    """Picklable fingerprinted stub predicting one class everywhere."""

    def __init__(self, value: int, name: str = "stub") -> None:
        self.value = value
        self.name = name

    def predict_samples(self, samples):
        return np.full(len(samples), self.value, dtype=int)

    def fingerprint(self) -> str:
        return f"stub:{self.name}:{self.value}"


def _graph_service(**config) -> SuggestionService:
    return SuggestionService(
        _trained("parallel", 1),
        {"reduction": _trained("reduction", 2),
         "private": _trained("private", 3)},
        ServeConfig(**config))


def _stub_service() -> SuggestionService:
    return SuggestionService(_StubModel(1), {"reduction": _StubModel(1)})


def _forwards() -> dict:
    return {"calls": 0, "graphs": 0, "distinct": 0}


class _ContentModel:
    """Serving-protocol model predicting each graph's node count and
    recording every graph list it is asked to forward."""

    def __init__(self, trained: TrainedGraphModel) -> None:
        self.trained = trained
        self.forwarded: list[list] = []

    def predict_encoded(self, graphs, batch_size=None):
        self.forwarded.append(list(graphs))
        return np.array([g.num_nodes for g in graphs])


class TestForwardFanOut:
    def test_duplicates_match_solo_forwards_in_input_order(self):
        trained = _trained("parallel", 1)
        cache = trained.encode_cache()
        adapter = _BatchedGraphModel(trained, cache, batch_size=4,
                                     collate_cache={},
                                     forwards=_forwards())
        samples = [LoopSample(source=src, parallel=False) for src in LOOPS]
        got = adapter.predict_samples(samples)
        solo = [int(trained.predict_encoded([cache.encode_loop(src)])[0])
                for src in LOOPS]
        assert got.tolist() == solo
        # LOOPS[1] renames LOOPS[0]; LOOPS[5] repeats LOOPS[2]
        assert adapter.forwards == {"calls": 1, "graphs": 6,
                                    "distinct": 4}

    def test_each_distinct_graph_forwarded_once_first_seen_order(self):
        model = _ContentModel(_trained("parallel", 1))
        cache = model.trained.encode_cache()
        adapter = _BatchedGraphModel(model, cache, batch_size=8,
                                     collate_cache={},
                                     forwards=_forwards())
        order = [3, 0, 1, 3, 2, 5, 0]
        samples = [LoopSample(source=LOOPS[i], parallel=False)
                   for i in order]
        got = adapter.predict_samples(samples)
        graphs = [cache.encode_loop(LOOPS[i]) for i in order]
        assert got.tolist() == [g.num_nodes for g in graphs]
        (forwarded,) = model.forwarded
        first_seen = []
        for g in graphs:
            if all(g is not f for f in first_seen):
                first_seen.append(g)
        assert len(forwarded) == len(first_seen) == 3
        assert all(a is b for a, b in zip(forwarded, first_seen))


class TestCounters:
    NAMED = [("sum.c", SUM_SOURCE), ("renamed.c", RENAMED_SOURCE),
             ("scan.c", PREFIX_SOURCE)]

    def test_distinct_and_interned_are_reported(self):
        service = _graph_service()
        service.suggest_sources(self.NAMED)
        stats = service.cache_stats()
        forwards = stats["forwards"]
        assert 0 < forwards["distinct"] < forwards["graphs"]
        (encode,) = [v for k, v in stats.items() if "#" in k]
        # the renamed file's two loops reuse sum.c's interned graphs
        assert encode["interned"] == 2
        assert encode["misses"] == 6

    def test_sharded_workers_fold_distinct(self):
        service = _graph_service()
        list(service.stream_sources(self.NAMED, shards=2))
        forwards = service.cache_stats()["forwards"]
        assert 0 < forwards["distinct"] <= forwards["graphs"]

    def test_done_frame_reports_distinct_and_interned(self):
        service = _graph_service()
        server = SuggestServer({"default": service}).start()
        try:
            with connect(server.address) as client:
                list(client.stream_sources(self.NAMED))
                stats = client.last_done.stats
        finally:
            server.shutdown()
        assert stats["forwards"]["distinct"] < stats["forwards"]["graphs"]
        assert any(v.get("interned") for k, v in stats.items()
                   if "#" in k)


class TestMirroredFiles:
    """Identical files under other names: served once, each copy named
    as itself and otherwise equal to serving it alone."""

    NAMED = [("sum.c", SUM_SOURCE), ("scan.c", PREFIX_SOURCE),
             ("copy/sum.c", SUM_SOURCE), ("broken.c", BAD_SOURCE),
             ("copy/broken.c", BAD_SOURCE), ("sum_again.c", SUM_SOURCE)]

    @staticmethod
    def _check(results, solo):
        assert [r.name for r in results] == [n for n, _ in
                                             TestMirroredFiles.NAMED]
        for r in results:
            assert r.to_payload() == solo[r.name].to_payload()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_suggest(self, shards):
        solo = {name: _graph_service().suggest_sources([(name, src)])[0]
                for name, src in self.NAMED}
        service = _graph_service()
        results = list(service.stream_sources(self.NAMED, shards=shards))
        self._check(results, solo)
        if shards == 1:
            # mirrored copies are forwarded once
            once = _graph_service()
            once.suggest_sources([self.NAMED[i] for i in (0, 1, 3)])
            assert (service.cache_stats()["forwards"]
                    == once.cache_stats()["forwards"])

    @pytest.mark.parametrize("shards", [1, 2])
    def test_rewrite(self, shards):
        solo = {name: _stub_service().rewrite_sources([(name, src)])[0]
                for name, src in self.NAMED}
        service = _stub_service()
        results = list(service.stream_rewrite_sources(self.NAMED,
                                                      shards=shards))
        self._check(results, solo)
        assert any(w.accepted for w in results[0].rewrites)
        # mirrored copies are verified once
        once = _stub_service()
        once.rewrite_sources([self.NAMED[i] for i in (0, 1, 3)])
        assert (service.cache_stats()["verify"]["simulations"]
                == once.cache_stats()["verify"]["simulations"])

    def test_as_completed_stream_names_every_copy(self):
        service = _stub_service()
        tagged = list(service.stream_tagged(self.NAMED))
        assert sorted(i for i, _ in tagged) == list(range(len(self.NAMED)))
        for i, result in tagged:
            assert result.name == self.NAMED[i][0]

    def test_iter_joint(self):
        solo = {name: _graph_service().suggest_sources([(name, src)])[0]
                for name, src in self.NAMED}
        service = _graph_service()
        workloads = [("a", self.NAMED[:3]), ("b", self.NAMED[3:])]
        got = {(tag, i): fs for tag, i, fs in service.iter_joint(workloads)}
        assert len(got) == len(self.NAMED)
        for tag, named in workloads:
            for i, (name, _) in enumerate(named):
                assert got[tag, i].name == name
                assert got[tag, i].to_payload() == solo[name].to_payload()
        assert service.cache_stats()["coalesce"]["deduped_files"] == 3
