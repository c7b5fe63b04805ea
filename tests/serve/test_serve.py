"""Tests for the batched suggestion service (repro.serve)."""

import numpy as np
import pytest

from repro.cfront import parse_loop
from repro.graphs import EncodeCache, build_aug_ast, build_graph_vocab
from repro.serve import (
    FileSuggestions,
    ServeConfig,
    SuggestionService,
    parse_many,
    parse_one,
    read_corpus,
)
from repro.suggest import PragmaSuggester

GOOD_SOURCE = """
double a[100], b[100]; double s;
void kernel(void) {
    int i;
    for (i = 0; i < 100; i++) a[i] = b[i];
    for (i = 0; i < 100; i++) s += a[i];
}
"""

OTHER_SOURCE = """
double c[50];
void scale(void) {
    int j;
    for (j = 0; j < 50; j++) c[j] = c[j] * 2.0;
}
"""

BAD_SOURCE = "void broken(void) { for (i = 0; i < ; }"


class _StubModel:
    """predict_samples stub counting its calls."""

    def __init__(self, value: int) -> None:
        self.value = value
        self.calls: list[int] = []

    def predict_samples(self, samples):
        self.calls.append(len(samples))
        return np.full(len(samples), self.value, dtype=int)


def _vocab():
    graphs = [
        build_aug_ast(parse_loop(src))
        for src in ("for (i = 0; i < n; i++) s += a[i];",
                    "for (i = 0; i < n; i++) a[i] = b[i];")
    ]
    return build_graph_vocab(graphs)


class _FakeTrained:
    """Implements the TrainedGraphModel serving protocol over a stub."""

    representation = "aug"

    def __init__(self, value: int, vocab) -> None:
        self.value = value
        self.vocab = vocab
        self.encoded_calls: list[int] = []

    def predict_samples(self, samples, cache=None):
        return np.full(len(samples), self.value, dtype=int)

    def predict_encoded(self, graphs, batch_size=None):
        self.encoded_calls.append(len(graphs))
        return np.full(len(graphs), self.value, dtype=int)

    def encode_cache(self, max_entries=4096):
        return EncodeCache(self.vocab, representation=self.representation,
                           max_entries=max_entries)

    def encoder_key(self):
        return (
            self.representation,
            tuple(sorted(self.vocab.types.tokens.items())),
            tuple(sorted(self.vocab.texts.tokens.items())),
        )


def _stub_models(parallel=1, **clauses):
    defaults = {"reduction": 0, "private": 0, "simd": 0, "target": 0}
    defaults.update(clauses)
    return _StubModel(parallel), {k: _StubModel(v)
                                  for k, v in defaults.items()}


class TestParseStage:
    def test_parse_one_extracts_requests(self):
        pf = parse_one(("kernel.c", GOOD_SOURCE))
        assert pf.error is None
        assert len(pf.requests) == 2

    def test_parse_one_reports_frontend_errors(self):
        pf = parse_one(("broken.c", BAD_SOURCE))
        assert pf.error is not None
        assert pf.requests == []

    def test_parallel_parse_matches_serial(self):
        items = [("a.c", GOOD_SOURCE), ("b.c", OTHER_SOURCE),
                 ("c.c", BAD_SOURCE), ("d.c", GOOD_SOURCE)]
        serial = parse_many(items, workers=1)
        parallel = parse_many(items, workers=2)
        assert [p.name for p in parallel] == [p.name for p in serial]
        assert [p.requests for p in parallel] == [p.requests for p in serial]
        assert [p.error is None for p in parallel] == \
               [p.error is None for p in serial]


class TestSuggestionService:
    def test_one_predict_call_per_model(self):
        parallel, clauses = _stub_models(parallel=1, reduction=1)
        service = SuggestionService(parallel, clauses)
        results = service.suggest_sources(
            [("a.c", GOOD_SOURCE), ("b.c", OTHER_SOURCE)]
        )
        assert [len(r.suggestions) for r in results] == [2, 1]
        # three loops across two files: exactly one batched call per model
        assert parallel.calls == [3]
        for model in clauses.values():
            assert model.calls == [3]

    def test_matches_per_loop_suggester(self):
        parallel, clauses = _stub_models(parallel=1, reduction=1, private=1)
        service = SuggestionService(parallel, clauses)
        batched = service.suggest_sources([("a.c", GOOD_SOURCE)])[0]
        baseline = PragmaSuggester(parallel, clauses).suggest_file(GOOD_SOURCE)
        assert [s.render() for s in batched.suggestions] == \
               [s.render() for s in baseline]

    def test_error_files_fan_out_empty(self):
        parallel, clauses = _stub_models()
        service = SuggestionService(parallel, clauses)
        results = service.suggest_sources(
            [("a.c", GOOD_SOURCE), ("broken.c", BAD_SOURCE)]
        )
        assert results[1].error is not None
        assert results[1].suggestions == []
        assert len(results[0].suggestions) == 2

    def test_trained_protocol_shares_one_cache(self):
        vocab = _vocab()
        parallel = _FakeTrained(1, vocab)
        clauses = {name: _FakeTrained(0, vocab)
                   for name in ("reduction", "private")}
        service = SuggestionService(parallel, clauses)
        # duplicated file: its requests dedupe before reaching the models
        results = service.suggest_sources(
            [("a.c", GOOD_SOURCE), ("b.c", GOOD_SOURCE)]
        )
        assert [len(r.suggestions) for r in results] == [2, 2]
        assert len(service._caches) == 1
        stats = next(iter(service.cache_stats().values()))
        assert stats["entries"] == 2          # two distinct loop sources
        assert stats["misses"] == 2
        assert stats["hits"] == 4             # 2 clause models × 2 loops
        # every model saw only the distinct loops, pre-encoded + batched
        assert parallel.encoded_calls == [2]
        for model in clauses.values():
            assert model.encoded_calls == [2]

    def test_suggest_dir_reads_files(self, tmp_path):
        (tmp_path / "k1.c").write_text(GOOD_SOURCE)
        (tmp_path / "k2.c").write_text(OTHER_SOURCE)
        (tmp_path / "notes.txt").write_text("not C")
        parallel, clauses = _stub_models(parallel=1)
        service = SuggestionService(parallel, clauses,
                                    ServeConfig(workers=1))
        results = service.suggest_sources(read_corpus(tmp_path))
        assert [r.name.endswith(("k1.c", "k2.c")) for r in results] == \
               [True, True]
        assert sum(len(r.suggestions) for r in results) == 3

    def test_n_parallel_property(self):
        fs = FileSuggestions(name="x.c")
        assert fs.n_parallel == 0
