"""The one-pass aug-AST builder against a multi-walk reference.

``_reference_build`` is the straightforward construction: a pre-walk
collecting call targets, a recursive pass adding each node (text,
position, leaf flag) and its AST edges, then the CFG edges and a walk
collecting the lexical leaves.  The shipped builder fuses all of that
into one traversal; every ``HetGraph`` list, edges in order, must come
out equal.
"""

from pathlib import Path

import pytest

from repro.cfg import build_cfg
from repro.cfront import parse_loop
from repro.cfront.nodes import CallExpr, Node
from repro.graphs import EdgeType, HetGraph, build_aug_ast, build_vanilla_ast
from repro.graphs.augast import _node_text, _Renamer
from repro.suggest import file_requests

ROOT = Path(__file__).resolve().parents[2]


def _preorder(node: Node):
    yield node
    for child in node.children():
        yield from _preorder(child)


def _reference_build(loop, with_cfg: bool, with_lexical: bool) -> HetGraph:
    graph = HetGraph()
    renamer = _Renamer()
    called_names = {n.name for n in _preorder(loop)
                    if isinstance(n, CallExpr) and n.name}
    node_ids: dict[int, int] = {}

    def add(node: Node, position: int) -> int:
        gid = graph.add_node(
            node_type=node.kind,
            text=_node_text(node, renamer, called_names),
            position=position,
            is_leaf=not node.children(),
        )
        node_ids[id(node)] = gid
        for child_pos, child in enumerate(node.children()):
            cid = add(child, child_pos)
            graph.add_edge(gid, cid, EdgeType.AST, reverse=EdgeType.AST_REV)
        return gid

    add(loop, 0)
    if with_cfg:
        cfg = build_cfg(loop)
        for edge in cfg.edges:
            src_ast = cfg.nodes[edge.src].ast
            dst_ast = cfg.nodes[edge.dst].ast
            if src_ast is None or dst_ast is None:
                continue
            src_gid = node_ids.get(id(src_ast))
            dst_gid = node_ids.get(id(dst_ast))
            if src_gid is None or dst_gid is None or src_gid == dst_gid:
                continue
            graph.add_edge(src_gid, dst_gid, EdgeType.CFG,
                           reverse=EdgeType.CFG_REV)
    if with_lexical:
        leaves = sorted(
            (node.tok_i, node_ids[id(node)])
            for node in _preorder(loop)
            if getattr(node, "tok_i", -1) >= 0
        )
        for (_, a), (_, b) in zip(leaves, leaves[1:]):
            graph.add_edge(a, b, EdgeType.LEX, reverse=EdgeType.LEX_REV)
    return graph


def _lists(graph: HetGraph) -> tuple:
    return (graph.node_types, graph.node_texts, graph.node_positions,
            graph.node_is_leaf, graph.edges)


def _assert_parity(loop) -> None:
    for with_cfg in (True, False):
        for with_lexical in (True, False):
            built = build_aug_ast(loop, with_cfg=with_cfg,
                                  with_lexical=with_lexical)
            assert _lists(built) == _lists(
                _reference_build(loop, with_cfg, with_lexical))
    assert _lists(build_vanilla_ast(loop)) == _lists(
        _reference_build(loop, False, False))


LOOPS = {
    "function-pointer call": (
        "for (i = 0; i < n; i++) { y[i] = ops[k](x[i]); (*fp)(y, i); }"
    ),
    "callee used as a variable": (
        "for (i = 0; i < n; i++) { g = f; s += f(a[i]) + g(f, i); }"
    ),
    "variable before its call": (
        "for (i = 0; i < n; i++) { h = h + 1; h(i); }"
    ),
    "member exprs": (
        "for (i = 0; i < n; i++) { p->x[i] = q.y + r[i].z; s.t->u += 1; }"
    ),
    "nested loops": (
        "for (i = 0; i < n; i++)\n"
        "  for (j = 0; j < m; j++) {\n"
        "    int k = 0;\n"
        "    while (k < 4) { c[i][j] += a[i][k] * b[k][j]; k++; }\n"
        "    do { j--; } while (j > 100);\n"
        "  }"
    ),
    "switch and goto": (
        "for (i = 0; i < n; i++) {\n"
        "  switch (a[i]) {\n"
        "  case 0: s += 1; break;\n"
        "  case 1: if (s > 9) goto done; continue;\n"
        "  default: s -= a[i];\n"
        "  }\n"
        "  done: t = (double) s / 3.5 + 'c' + sizeof(int);\n"
        "}"
    ),
    "literal buckets and casts": (
        "for (i = 0; i < 1000; i += 2) x[i] = (float) -7 + 0.0 + 1.0"
        " + 200 + \"s\"[0] + (b ? 1 : 2);"
    ),
}


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_parity_on_constructs(name):
    _assert_parity(parse_loop(LOOPS[name]))


def test_parity_on_corpora():
    from repro.dataset.corpus import CorpusGenerator

    sources = [p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "examples" / "corpus").glob("*.c"))]
    _, files = CorpusGenerator(seed=17).generate(scale=0.003)
    sources += [f.source for f in files]
    loops = [r.ast for source in sources for r in file_requests(source)]
    assert len(loops) > 50
    for loop in loops:
        _assert_parity(loop)


def test_walk_is_recursive_preorder():
    from repro.cfront import parse_source

    roots = [parse_loop(LOOPS[name]) for name in sorted(LOOPS)]
    roots += [parse_source(p.read_text(encoding="utf-8"))
              for p in sorted((ROOT / "examples" / "corpus").glob("*.c"))]
    roots.append(parse_source(
        "struct s { int a[4]; double *b; };\n"
        "typedef int T[];\n"
        "int f(int n, int m[], T t) { int x[2][3] = {{1}, {2}};"
        " return n ? sizeof(struct s) : (int) x[0][1]; }\n"))
    for root in roots:
        assert [id(n) for n in root.walk()] == \
            [id(n) for n in _preorder(root)]
