"""Front-end identity golden.

The C front end (lexer, parser, loop extraction, aug-AST build and
integer encoding) is a pure function of the source text.  This test
recomputes, for a fixed set of corpora, a digest of:

- each file's lexer output (every token's kind, text, line, column and
  index, plus the recorded ``#define``s and ``#include``s);
- each file's ``file_requests`` output (loop sources and ``live_out``)
  and its extracted ``LoopSample`` records;
- every encoded array, in edge order, of each loop under all four
  ``REPRESENTATION_BUILDERS``, through a vocabulary built over the
  corpus;

and compares it with the committed ``data/frontend_golden.json``.  A
speed-up of any front-end stage must leave every digest unchanged.

Regenerate (only when a front-end output change is intended)::

    PYTHONPATH=src python tests/test_frontend_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "frontend_golden.json"

#: seeded ``CorpusGenerator`` corpora: (seed, scale)
GENERATED = ((3, 0.005), (11, 0.005))


def corpora() -> dict[str, list[tuple[str, str]]]:
    """``{corpus: [(file name, source), ...]}``, in a fixed order."""
    from repro.dataset.corpus import CorpusGenerator

    out = {"examples": [
        (p.name, p.read_text(encoding="utf-8"))
        for p in sorted((ROOT / "examples" / "corpus").glob("*.c"))
    ]}
    for seed, scale in GENERATED:
        _, files = CorpusGenerator(seed=seed).generate(scale=scale)
        out[f"generated-seed{seed}"] = [
            (f"f{f.file_id:04d}.c", f.source) for f in files
        ]
    return out


def _digest(payload) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def _token_payload(source: str) -> list:
    from repro.cfront.lexer import Lexer

    result = Lexer(source).lex()
    return [
        [[t.kind.value, t.text, t.line, t.col, t.index]
         for t in result.tokens],
        sorted(result.defines.items()),
        result.includes,
    ]


def _encoded_payload(graph) -> list:
    from repro.graphs.hetgraph import RELATIONS

    arrays = [graph.type_ids, graph.text_ids, graph.position_ids,
              graph.is_leaf, *(graph.edges[rel] for rel in RELATIONS)]
    return [[a.dtype.str, list(a.shape), a.ravel().tolist()]
            for a in arrays]


def corpus_digests(files: list[tuple[str, str]]) -> dict:
    """Every front-end digest of one corpus."""
    from repro.dataset.extract import extract_loops_from_source
    from repro.graphs.encode import REPRESENTATION_BUILDERS, encode_graph
    from repro.graphs.vocab import build_graph_vocab
    from repro.suggest import file_requests

    out: dict = {"files": {}, "vocab": {}}
    loops_by_file = {}
    for name, source in files:
        requests = file_requests(source)
        loops_by_file[name] = [r.ast for r in requests]
        out["files"][name] = {
            "tokens": _digest(_token_payload(source)),
            "requests": _digest([[r.source, sorted(r.live_out)]
                                 for r in requests]),
            "samples": _digest([sample.to_dict() for sample in
                                extract_loops_from_source(source)]),
            "loops": len(requests),
        }
    for rep, build in REPRESENTATION_BUILDERS.items():
        graphs = {name: [build(loop) for loop in loops]
                  for name, loops in loops_by_file.items()}
        vocab = build_graph_vocab(
            g for name, _ in files for g in graphs[name])
        out["vocab"][rep] = vocab.content_hash()[:24]
        for name, _ in files:
            out["files"][name][rep] = _digest([
                _encoded_payload(encode_graph(g, vocab))
                for g in graphs[name]
            ])
    return out


def all_digests() -> dict:
    return {name: corpus_digests(files)
            for name, files in corpora().items()}


def test_frontend_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    fresh = all_digests()
    assert sorted(fresh) == sorted(golden)
    mismatches = [
        (corpus, name, key)
        for corpus, digests in golden.items()
        for name, entry in digests["files"].items()
        for key, value in entry.items()
        if fresh[corpus]["files"].get(name, {}).get(key) != value
    ] + [
        (corpus, "<vocab>", rep)
        for corpus, digests in golden.items()
        for rep, value in digests["vocab"].items()
        if fresh[corpus]["vocab"].get(rep) != value
    ]
    assert not mismatches, mismatches[:20]
    assert fresh == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_frontend_golden.py --write")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(all_digests(), indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
