"""Building the (augmented) heterogeneous AST of a loop.

Section 5.1 of the paper in three steps:

1. *Transforming the AST* — every AST node becomes a typed graph node;
   identifiers are alpha-renamed in first-occurrence order (``v0, v1,
   ...`` for variables, ``f0, f1, ...`` for called functions — the paper's
   Figure 3 shows exactly this ``v1/v2/f1`` normalisation), literals are
   bucketed, and each node carries its ordered-child position.
2. *Merging the CFG* — control-flow edges between the AST nodes that are
   shared by the AST and the CFG (statements, predicates, calls) are
   added as a distinct edge type.
3. *Texture token relations* — consecutive AST leaves in token order are
   linked with lexical edges so long-distance token proximity survives
   the tree structure (Zügner et al. 2021 motivates this).

``build_vanilla_ast`` performs step 1 only and is the paper's "AST" row
in Table 2.
"""

from __future__ import annotations

from repro.cfg import build_cfg
from repro.cfront.nodes import (
    BinaryOperator,
    CallExpr,
    CastExpr,
    CharLiteral,
    DeclRefExpr,
    FloatingLiteral,
    IntegerLiteral,
    MemberExpr,
    Node,
    ParmDecl,
    Stmt,
    StringLiteral,
    TypeSpec,
    UnaryOperator,
    VarDecl,
)
from repro.graphs.hetgraph import NODE_POSITIONS, EdgeType, HetGraph

#: Literal buckets: small constants are semantically meaningful for
#: parallelisation (strides, bounds); everything else collapses.
_SMALL_INTS = frozenset(range(0, 9))


def _int_bucket(value: int) -> str:
    if value in _SMALL_INTS:
        return f"int:{value}"
    if value < 0:
        return "int:neg"
    if value < 256:
        return "int:medium"
    return "int:large"


def _float_bucket(value: float) -> str:
    if value == 0.0:
        return "float:zero"
    if value == 1.0:
        return "float:one"
    return "float:other"


class _Renamer:
    """First-occurrence alpha renaming of identifiers (Figure 3 style)."""

    def __init__(self) -> None:
        self.vars: dict[str, str] = {}
        self.funcs: dict[str, str] = {}

    def var(self, name: str) -> str:
        if name not in self.vars:
            self.vars[name] = f"v{len(self.vars)}"
        return self.vars[name]

    def func(self, name: str) -> str:
        if name not in self.funcs:
            self.funcs[name] = f"f{len(self.funcs)}"
        return self.funcs[name]


def _node_text(node: Node, renamer: _Renamer, called_names: set[str]) -> str:
    """The textual attribute μ_A(node) of section 5.1.1."""
    if isinstance(node, DeclRefExpr):
        if node.name in called_names:
            return renamer.func(node.name)
        return renamer.var(node.name)
    if isinstance(node, (VarDecl, ParmDecl)):
        return renamer.var(node.name)
    if isinstance(node, IntegerLiteral):
        return _int_bucket(node.value)
    if isinstance(node, FloatingLiteral):
        return _float_bucket(node.value)
    if isinstance(node, CharLiteral):
        return "char"
    if isinstance(node, StringLiteral):
        return "string"
    if isinstance(node, (BinaryOperator, UnaryOperator)):
        return node.op
    if isinstance(node, MemberExpr):
        return ("->" if node.is_arrow else ".") + node.member
    if isinstance(node, CastExpr):
        return node.to_type.base
    if isinstance(node, TypeSpec):
        return node.base + "*" * node.pointers
    return ""


def build_vanilla_ast(loop: Stmt, meta: dict | None = None) -> HetGraph:
    """The plain heterogeneous AST (tree edges only): Table 2's "AST" row."""
    return _build(loop, with_cfg=False, with_lexical=False, meta=meta)


def build_aug_ast(
    loop: Stmt,
    with_cfg: bool = True,
    with_lexical: bool = True,
    meta: dict | None = None,
) -> HetGraph:
    """The heterogeneous augmented AST of a loop (paper section 5.1).

    ``with_cfg`` / ``with_lexical`` exist for the edge-type ablation
    bench; both default to the full aug-AST.
    """
    return _build(loop, with_cfg=with_cfg, with_lexical=with_lexical, meta=meta)


def _build(loop: Stmt, with_cfg: bool, with_lexical: bool,
           meta: dict | None) -> HetGraph:
    graph = HetGraph(meta=dict(meta or {}))
    # One recursive pass lays out every node: graph ids are preorder,
    # and a child's subtree edges precede its own parent edge.  Texts
    # wait until the pass has seen every call, because functions are
    # renamed into a separate namespace (a ``DeclRefExpr`` used as a
    # callee anywhere in the loop maps to ``f<k>``).
    nodes: list[Node] = []              # graph id -> AST node
    called_names: set[str] = set()
    leaves: list[tuple[int, int]] = []  # (token index, graph id)
    types = graph.node_types
    positions = graph.node_positions
    is_leaf = graph.node_is_leaf
    edges = graph.edges
    last_position = NODE_POSITIONS - 1
    ast, ast_rev = EdgeType.AST, EdgeType.AST_REV

    def add(node: Node, position: int) -> int:
        gid = len(nodes)
        nodes.append(node)
        types.append(type(node).__name__)
        positions.append(min(position, last_position))
        if isinstance(node, CallExpr):
            if name := node.name:
                called_names.add(name)
        elif getattr(node, "tok_i", -1) >= 0:
            leaves.append((node.tok_i, gid))
        children = node.children()
        is_leaf.append(not children)
        for child_pos, child in enumerate(children):
            cid = add(child, child_pos)
            edges.append((gid, cid, ast))
            edges.append((cid, gid, ast_rev))
        return gid

    add(loop, 0)
    renamer = _Renamer()
    graph.node_texts.extend(
        _node_text(node, renamer, called_names) for node in nodes)

    if with_cfg:
        node_ids = {id(node): gid for gid, node in enumerate(nodes)}
        cfg = build_cfg(loop)
        for edge in cfg.edges:
            src_ast = cfg.nodes[edge.src].ast
            dst_ast = cfg.nodes[edge.dst].ast
            if src_ast is None or dst_ast is None:
                continue  # synthetic entry/exit
            src_gid = node_ids.get(id(src_ast))
            dst_gid = node_ids.get(id(dst_ast))
            if src_gid is None or dst_gid is None or src_gid == dst_gid:
                continue
            edges.append((src_gid, dst_gid, EdgeType.CFG))
            edges.append((dst_gid, src_gid, EdgeType.CFG_REV))

    if with_lexical:
        leaves.sort()
        for (_, a), (_, b) in zip(leaves, leaves[1:]):
            edges.append((a, b, EdgeType.LEX))
            edges.append((b, a, EdgeType.LEX_REV))

    return graph
