"""Bitwise parity of the no-grad HGT layer with its reference form.

The no-grad attention kernel (``hgt._inference_attention``) gathers
rows with ``np.take`` and writes its two flat-bincount scatters
straight into fresh arrays.  The reference below keeps the plain
expressions it replaced (fancy-index gathers, ``scatter_add_rows`` into
``np.zeros``); every output must match it byte for byte — not merely
allclose — so served predictions cannot move.
"""

import numpy as np
import pytest

from repro.graphs.encode import GraphBatch
from repro.graphs.hetgraph import RELATIONS
from repro.models import HGTLayer
from repro.models.hgt import (
    _edge_struct,
    _gelu_array,
    _inference_attention,
    _type_sort,
)
from repro.nn import Tensor
from repro.nn.tensor import no_grad, scatter_add_rows

NUM_TYPES = 5


def reference_attention(k, q, v, w_att, w_msg, prior, scale, edges, n):
    """The no-grad eq. 2–4 as written before the kernel was trimmed."""
    _, h, dk = k.shape
    d = h * dk
    spans, all_src, all_dst, dst_sort = edges
    k_all = k[all_src]
    q_all = q[all_dst]
    v_all = v[all_src]
    logits = np.empty((len(all_dst), h), dtype=k_all.dtype)
    msgs = np.empty((len(all_dst), h, dk), dtype=k_all.dtype)
    for rel_idx, lo, hi in spans:
        k_t = k_all[lo:hi].swapaxes(0, 1)
        q_t = q_all[lo:hi].swapaxes(0, 1)
        att = ((k_t @ w_att[rel_idx]) * q_t).sum(axis=-1)
        att = att.swapaxes(0, 1)
        att = att * prior[rel_idx] * scale
        logits[lo:hi] = att
        msgs[lo:hi] = (v_all[lo:hi].swapaxes(0, 1)
                       @ w_msg[rel_idx]).swapaxes(0, 1)

    order, starts, uniq = dst_sort
    seg_max = np.full((n, h), -np.inf, dtype=logits.dtype)
    seg_max[uniq] = np.maximum.reduceat(logits[order], starts, axis=0)
    exp = np.exp(logits - seg_max[all_dst])
    denom = np.zeros((n, h), dtype=logits.dtype)
    scatter_add_rows(denom, all_dst, exp)
    p = exp / np.maximum(denom[all_dst], 1e-12)
    weighted = msgs * p.reshape(-1, h, 1)
    agg = np.zeros((n, d), dtype=weighted.dtype)
    scatter_add_rows(agg, all_dst, weighted.reshape(-1, d))
    return agg


def reference_layer(layer: HGTLayer, x: Tensor, batch: GraphBatch) -> Tensor:
    """``HGTLayer._forward_inference`` around the reference kernel."""
    n, _ = x.shape
    h, dk = layer.heads, layer.d_head
    sort = _type_sort(np.asarray(batch.type_ids, dtype=np.int64))
    k = layer.k_linear(x, batch.type_ids, sort=sort).data.reshape(n, h, dk)
    q = layer.q_linear(x, batch.type_ids, sort=sort).data.reshape(n, h, dk)
    v = layer.v_linear(x, batch.type_ids, sort=sort).data.reshape(n, h, dk)
    edges = _edge_struct(batch)
    if not edges[0]:
        return x
    agg = reference_attention(k, q, v, layer.w_att.data, layer.w_msg.data,
                              layer.rel_prior.data, layer.att_scale,
                              edges, n)
    out = layer.a_linear(Tensor(_gelu_array(agg)), batch.type_ids,
                         sort=sort)
    return layer.norm(out + x)


def _random_batch(rng: np.random.Generator, n: int, *,
                  hot_dsts: int | None = None,
                  empty: frozenset = frozenset()) -> GraphBatch:
    """``n`` nodes and random edges per relation.

    ``hot_dsts`` sends every edge into that many destinations (long
    duplicate chains; every other node has no in-edges); relations in
    ``empty`` get no edges at all.
    """
    edges = {}
    for rel in RELATIONS:
        e = 0 if rel in empty else int(rng.integers(1, 3 * n))
        src = rng.integers(0, n, size=e)
        dst = rng.integers(0, hot_dsts or n, size=e)
        edges[rel] = np.stack([src, dst]).astype(np.int64)
    return GraphBatch(
        type_ids=rng.integers(0, NUM_TYPES, size=n).astype(np.int64),
        text_ids=np.zeros(n, dtype=np.int64),
        position_ids=np.zeros(n, dtype=np.int64),
        is_leaf=np.zeros(n, dtype=bool),
        edges=edges,
        graph_ids=np.zeros(n, dtype=np.int64),
        labels=np.zeros(1, dtype=np.int64),
        num_graphs=1,
    )


def _layer(seed: int, dim: int = 16, heads: int = 4) -> HGTLayer:
    layer = HGTLayer(NUM_TYPES, dim, heads, dropout=0.0,
                     rng=np.random.default_rng(seed))
    layer.eval()
    return layer


CASES = {
    "uniform": {},
    "duplicate-heavy": {"hot_dsts": 3},
    "single-sink": {"hot_dsts": 1},
    "empty-relations": {"empty": frozenset(RELATIONS[::2])},
}


class TestKernelParity:
    """The raw-array kernel, in both float widths."""

    @staticmethod
    def _check(rng, n, dtype, heads=4, dk=4, magnitude=1.0, **case):
        batch = _random_batch(rng, n, **case)
        edges = _edge_struct(batch)
        num_rel = len(RELATIONS)

        def arr(*shape):
            return (rng.normal(size=shape) * magnitude).astype(dtype)

        args = (arr(n, heads, dk), arr(n, heads, dk), arr(n, heads, dk),
                arr(num_rel, heads, dk, dk), arr(num_rel, heads, dk, dk),
                arr(num_rel, heads), 0.5, edges, n)
        got = _inference_attention(*args)
        want = reference_attention(*args)
        assert got.dtype == want.dtype == dtype
        assert got.shape == want.shape == (n, heads * dk)
        assert got.tobytes() == want.tobytes()
        return got

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_to_reference(self, dtype, case, seed):
        rng = np.random.default_rng(seed)
        self._check(rng, int(rng.integers(2, 60)), dtype, **CASES[case])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_extreme_logits_and_isolated_nodes(self, dtype):
        """Huge logits drive exp() to 0 for most edges of a segment
        (the 1e-12 floor); most nodes receive nothing at all."""
        rng = np.random.default_rng(7)
        agg = self._check(rng, 40, dtype, magnitude=30.0, hot_dsts=4)
        assert not agg[4:].any()
        assert not np.signbit(agg[4:]).any()     # +0.0, never -0.0


class TestLayerParity:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_layer_bitwise_equal_to_reference(self, case, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        batch = _random_batch(rng, n, **CASES[case])
        layer = _layer(seed)
        x = Tensor(rng.normal(size=(n, 16)).astype(np.float32))
        with no_grad():
            got = layer(x, batch).data
            want = reference_layer(layer, x, batch).data
        assert got.tobytes() == want.tobytes()

    def test_model_forward_sharing_scratch_matches_reference(self):
        """Graph2Par's layers share one scratch (flat scatter indices)
        per forward; each forward, over each batch, equals chaining
        reference layers."""
        from repro.cfront import parse_loop
        from repro.graphs import build_aug_ast, build_graph_vocab, collate
        from repro.graphs import encode_graph
        from repro.models import Graph2Par, Graph2ParConfig
        from repro.nn.tensor import segment_mean

        loops = ["for (i = 0; i < n; i++) s += a[i];",
                 "for (i = 0; i < n; i++) a[i] = b[i] * 2;",
                 "while (k < 100) k++;"]
        graphs = [build_aug_ast(parse_loop(src)) for src in loops]
        vocab = build_graph_vocab(graphs)
        encoded = [encode_graph(g, vocab) for g in graphs]
        model = Graph2Par(vocab, Graph2ParConfig(dim=16, layers=3, seed=5))
        model.eval()
        for chunk in (encoded, encoded[1:], encoded[:1]):
            batch = collate(chunk)
            with no_grad():
                got = model.encode(batch).data
                x = model.node_embeddings(batch)
                for layer in model.layers:
                    x = reference_layer(layer, x, batch)
                want = segment_mean(x, batch.graph_ids,
                                    batch.num_graphs).data
            assert got.tobytes() == want.tobytes()

    def test_edgeless_batch_is_identity(self):
        rng = np.random.default_rng(0)
        batch = _random_batch(rng, 5, empty=frozenset(RELATIONS))
        x = Tensor(rng.normal(size=(5, 16)).astype(np.float32))
        with no_grad():
            assert _layer(0)(x, batch) is x
