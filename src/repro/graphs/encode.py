"""Numeric encoding and batching of heterogeneous graphs.

:class:`EncodedGraph` holds integer arrays; :func:`collate` merges many
graphs into one :class:`GraphBatch` whose edge arrays are offset so a
single HGT forward pass covers the whole mini-batch (the standard
PyG-style block-diagonal batching, rebuilt on numpy).
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from repro.graphs.augast import build_aug_ast, build_vanilla_ast
from repro.graphs.hetgraph import EdgeType, HetGraph, RELATIONS
from repro.graphs.vocab import UNK, GraphVocab

#: graph builder per representation name (shared by trainers and caches)
REPRESENTATION_BUILDERS = {
    "aug": lambda loop: build_aug_ast(loop),
    "vanilla": lambda loop: build_vanilla_ast(loop),
    "aug-nocfg": lambda loop: build_aug_ast(loop, with_cfg=False),
    "aug-nolex": lambda loop: build_aug_ast(loop, with_lexical=False),
}


@dataclass
class EncodedGraph:
    """One graph as integer arrays.

    ``edges`` maps every relation in :data:`RELATIONS` to a ``(2, E_r)``
    array (possibly empty).
    """

    type_ids: np.ndarray          # (N,) int64
    text_ids: np.ndarray          # (N,) int64
    position_ids: np.ndarray     # (N,) int64
    is_leaf: np.ndarray           # (N,) bool
    edges: dict[EdgeType, np.ndarray] = field(default_factory=dict)
    label: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return int(self.type_ids.shape[0])

    @property
    def num_edges(self) -> int:
        return int(sum(e.shape[1] for e in self.edges.values()))


def encode_graph(graph: HetGraph, vocab: GraphVocab, label: int = 0) -> EncodedGraph:
    """Map a :class:`HetGraph` onto integer arrays through ``vocab``."""
    types, texts = vocab.types.tokens, vocab.texts.tokens
    type_unk, text_unk = types[UNK], texts[UNK]
    type_ids = np.array([types.get(t, type_unk) for t in graph.node_types],
                        dtype=np.int64)
    text_ids = np.array([texts.get(t, text_unk) for t in graph.node_texts],
                        dtype=np.int64)
    position_ids = np.array(graph.node_positions, dtype=np.int64)
    is_leaf = np.array(graph.node_is_leaf, dtype=bool)
    # one pass buckets the edges by relation, as flat (src, dst, ...) runs
    flat: dict[EdgeType, list[int]] = {rel: [] for rel in RELATIONS}
    for src, dst, rel in graph.edges:
        flat[rel] += (src, dst)
    edges = {rel: np.array(ends, dtype=np.int64).reshape(-1, 2).T
             for rel, ends in flat.items()}
    return EncodedGraph(
        type_ids=type_ids,
        text_ids=text_ids,
        position_ids=position_ids,
        is_leaf=is_leaf,
        edges=edges,
        label=label,
        meta=dict(graph.meta),
    )


class EncodeCache:
    """LRU memo of loop-source → :class:`EncodedGraph` for one vocab.

    Serving a corpus re-encodes the same loop once per model unless the
    encodings are shared; this cache keys on the SHA-1 of the loop source
    (plus the representation it was built with) so each distinct loop is
    parsed, graph-built and integer-encoded exactly once per vocabulary.

    Cached graphs carry ``label == 0``; callers needing labels should
    :func:`dataclasses.replace` the returned graph (the integer arrays
    are shared, the dataclass shell is cheap).

    New encodings are also interned by content: the aug-AST
    alpha-renames identifiers and buckets literals, so loops differing
    only in names or constants encode to equal arrays, and they share
    one :class:`EncodedGraph` object — which the serving path then
    forwards once.  The intern map holds its graphs weakly, so it never
    outlives the LRU entries (and in-flight batches) that use them.
    """

    def __init__(self, vocab: GraphVocab, representation: str = "aug",
                 max_entries: int = 4096) -> None:
        if representation not in REPRESENTATION_BUILDERS:
            raise ValueError(
                f"unknown representation {representation!r}; "
                f"choose from {sorted(REPRESENTATION_BUILDERS)}"
            )
        self.vocab = vocab
        self.representation = representation
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.interned = 0
        self._store: OrderedDict[str, EncodedGraph] = OrderedDict()
        self._interned = weakref.WeakValueDictionary()   # digest -> graph

    @staticmethod
    def key_of(loop_source: str) -> str:
        return hashlib.sha1(loop_source.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self._store)

    def encode_loop(self, loop_source: str, loop=None,
                    label: int = 0) -> EncodedGraph:
        """Encode one loop, reusing a prior encoding of identical source.

        ``loop`` optionally passes a pre-parsed AST (e.g. a sample's
        cached one) to skip re-parsing on a cache miss.
        """
        key = self.key_of(loop_source)
        cached = self._store.get(key)
        if cached is not None:
            self._store.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
            if loop is None:
                from repro.cfront import parse_loop

                loop = parse_loop(loop_source)
            graph = REPRESENTATION_BUILDERS[self.representation](loop)
            cached = self._intern(encode_graph(graph, self.vocab, label=0))
            self._store[key] = cached
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
        return cached if label == 0 else replace(cached, label=label)

    def _intern(self, graph: EncodedGraph) -> EncodedGraph:
        """The live graph with exactly ``graph``'s arrays, else ``graph``.

        Keyed by a digest of every array's shape and bytes; a hit is
        confirmed array by array, so a digest collision can only cost a
        missed share, never hand back another loop's graph.
        """
        key = _content_digest(graph)
        twin = self._interned.get(key)
        if twin is not None and _same_arrays(twin, graph):
            self.interned += 1
            return twin
        if twin is None:
            self._interned[key] = graph
        return graph

    def stats(self) -> dict:
        return {"entries": len(self._store), "hits": self.hits,
                "misses": self.misses, "interned": self.interned}


def _arrays(graph: EncodedGraph) -> list[np.ndarray]:
    return [graph.type_ids, graph.text_ids, graph.position_ids,
            graph.is_leaf, *(graph.edges[rel] for rel in RELATIONS)]


def _content_digest(graph: EncodedGraph) -> bytes:
    h = hashlib.blake2b(digest_size=20)
    for arr in _arrays(graph):
        h.update(repr((arr.dtype.str, arr.shape)).encode("ascii"))
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.digest()


def _same_arrays(a: EncodedGraph, b: EncodedGraph) -> bool:
    return all(
        x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
        for x, y in zip(_arrays(a), _arrays(b))
    )


@dataclass
class GraphBatch:
    """A block-diagonal merge of several :class:`EncodedGraph`.

    ``graph_ids`` assigns every node to its source graph, which the
    readout layer uses for per-graph mean pooling.  ``struct_cache``
    memoises purely structural derivations (type sort order, edge
    concatenation, destination sort) that every layer — and, when the
    batch itself is reused, every model — would otherwise recompute.
    """

    type_ids: np.ndarray
    text_ids: np.ndarray
    position_ids: np.ndarray
    is_leaf: np.ndarray
    edges: dict[EdgeType, np.ndarray]
    graph_ids: np.ndarray         # (N,) int64
    labels: np.ndarray            # (B,) int64
    num_graphs: int
    struct_cache: dict = field(default_factory=dict, repr=False,
                               compare=False)

    @property
    def num_nodes(self) -> int:
        return int(self.type_ids.shape[0])


class CollateCache:
    """LRU memo of graph-list → collated :class:`GraphBatch`.

    Training and evaluation revisit the same mini-batches — every
    epoch's validation pass slices the data identically, and serving
    runs every model over the same chunks.  Keyed by the identity of
    the graphs in order, a hit returns the previously collated batch,
    whose ``struct_cache`` (type sort, edge concatenation, destination
    sort) already carries the structural precomputation: only the
    float math reruns.  Entries pin their graph lists alive so ``id``
    keys can never be recycled while cached.
    """

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._store: OrderedDict[tuple, tuple[list[EncodedGraph], GraphBatch]] \
            = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def collate(self, graphs: list[EncodedGraph]) -> GraphBatch:
        key = tuple(id(g) for g in graphs)
        entry = self._store.get(key)
        if entry is not None:
            self._store.move_to_end(key)
            self.hits += 1
            return entry[1]
        self.misses += 1
        batch = collate(graphs)
        self._store[key] = (list(graphs), batch)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
        return batch

    def stats(self) -> dict:
        return {"entries": len(self._store), "hits": self.hits,
                "misses": self.misses}

    def clear(self) -> None:
        """Release every cached batch (and the graphs they pin)."""
        self._store.clear()


def collate(graphs: list[EncodedGraph]) -> GraphBatch:
    """Merge graphs with node-index offsets into one batch."""
    if not graphs:
        raise ValueError("cannot collate an empty list of graphs")
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs[:-1]])
    type_ids = np.concatenate([g.type_ids for g in graphs])
    text_ids = np.concatenate([g.text_ids for g in graphs])
    position_ids = np.concatenate([g.position_ids for g in graphs])
    is_leaf = np.concatenate([g.is_leaf for g in graphs])
    graph_ids = np.concatenate([
        np.full(g.num_nodes, i, dtype=np.int64) for i, g in enumerate(graphs)
    ])
    edges: dict[EdgeType, np.ndarray] = {}
    for rel in RELATIONS:
        parts = [
            g.edges[rel] + off
            for g, off in zip(graphs, offsets)
            if g.edges[rel].size
        ]
        edges[rel] = (
            np.concatenate(parts, axis=1) if parts else np.zeros((2, 0), dtype=np.int64)
        )
    labels = np.array([g.label for g in graphs], dtype=np.int64)
    return GraphBatch(
        type_ids=type_ids,
        text_ids=text_ids,
        position_ids=position_ids,
        is_leaf=is_leaf,
        edges=edges,
        graph_ids=graph_ids,
        labels=labels,
        num_graphs=len(graphs),
    )
