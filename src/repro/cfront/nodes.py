"""AST node hierarchy for the C frontend.

Node kinds deliberately mirror Clang's (``ForStmt``, ``BinaryOperator``,
``CallExpr``, ``DeclRefExpr`` ...) because the paper's heterogeneous node
types are exactly these kind names: the aug-AST assigns each node a type
attribute equal to its AST kind (section 5.1.1).

Every node exposes:

- ``kind`` -- the Clang-style class name used as the heterogeneous type;
- ``children()`` -- the list of child nodes, left-to-right in source
  order, which defines both AST edges and the left/right positional
  attribute;
- ``walk()`` -- preorder traversal.

Leaf nodes (identifiers and literals) carry ``tok_i``, their index in the
token stream, so lexical (token-neighbour) edges can be laid in true
source order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar, Iterator


@dataclass(slots=True)
class Node:
    """Base class of every AST node."""

    #: names of child-bearing attributes, in source order (ClassVar so each
    #: subclass overrides it with a plain class attribute).
    _fields: ClassVar[tuple[str, ...]] = ()

    @property
    def kind(self) -> str:
        """Clang-style node kind; the heterogeneous node type."""
        return type(self).__name__

    def children(self) -> list["Node"]:
        """Child nodes in source order."""
        out: list[Node] = []
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, Node):
                out.append(value)
            elif isinstance(value, (list, tuple)):
                out.extend([item for item in value if isinstance(item, Node)])
        return out

    def walk(self) -> Iterator["Node"]:
        """Preorder traversal of the subtree rooted here.

        Iterative with an explicit stack, pushing each node's children
        straight from its ``_fields`` (in reverse, so they pop in source
        order): the naive recursive generator pays a frame per tree
        level per yielded node, and a ``children()`` list per node
        profiled as most of the remaining cost.
        """
        stack = [self]
        pop = stack.pop
        push = stack.append
        while stack:
            node = pop()
            yield node
            for name in reversed(node._fields):
                value = getattr(node, name)
                if isinstance(value, Node):
                    push(value)
                elif isinstance(value, (list, tuple)):
                    for item in reversed(value):
                        if isinstance(item, Node):
                            push(item)

    def find_all(self, *kinds: type) -> Iterator["Node"]:
        """All descendants (including self) that are instances of ``kinds``."""
        for node in self.walk():
            if isinstance(node, kinds):
                yield node


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TypeSpec(Node):
    """A (simplified) C type: base name, pointer depth, array dimensions.

    ``base`` keeps the textual specifier (``"int"``, ``"unsigned long"``,
    ``"struct point"``, or a typedef name).  ``array_dims`` holds one entry
    per ``[]`` declarator; ``None`` marks an unsized dimension.
    """

    base: str = "int"
    pointers: int = 0
    array_dims: list["Expr | None"] = field(default_factory=list)
    qualifiers: frozenset[str] = frozenset()

    _fields = ("array_dims",)

    @property
    def is_array(self) -> bool:
        return bool(self.array_dims)

    @property
    def is_pointer(self) -> bool:
        return self.pointers > 0

    @property
    def is_floating(self) -> bool:
        return self.base.split()[-1] in ("float", "double")

    def __str__(self) -> str:
        text = " ".join(itertools.chain(sorted(self.qualifiers), [self.base]))
        return text + "*" * self.pointers


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Expr(Node):
    """Base class of all expressions."""


@dataclass(slots=True)
class IntegerLiteral(Expr):
    text: str = "0"
    tok_i: int = -1

    @property
    def value(self) -> int:
        return int(self.text.rstrip("uUlL"), 0)


@dataclass(slots=True)
class FloatingLiteral(Expr):
    text: str = "0.0"
    tok_i: int = -1

    @property
    def value(self) -> float:
        return float(self.text.rstrip("fFlL"))


@dataclass(slots=True)
class CharLiteral(Expr):
    text: str = "'x'"
    tok_i: int = -1

    @property
    def value(self) -> int:
        body = self.text[1:-1]
        table = {"\\n": "\n", "\\t": "\t", "\\0": "\0", "\\'": "'", "\\\\": "\\"}
        return ord(table.get(body, body[-1]))


@dataclass(slots=True)
class StringLiteral(Expr):
    text: str = '""'
    tok_i: int = -1


@dataclass(slots=True)
class DeclRefExpr(Expr):
    """A reference to a named variable or function."""

    name: str = ""
    tok_i: int = -1


@dataclass(slots=True)
class ArraySubscriptExpr(Expr):
    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]

    _fields = ("base", "index")


@dataclass(slots=True)
class CallExpr(Expr):
    callee: Expr = None  # type: ignore[assignment]
    args: list[Expr] = field(default_factory=list)

    _fields = ("callee", "args")

    @property
    def name(self) -> str:
        """Called function name when the callee is a plain identifier."""
        return self.callee.name if isinstance(self.callee, DeclRefExpr) else ""


@dataclass(slots=True)
class MemberExpr(Expr):
    base: Expr = None  # type: ignore[assignment]
    member: str = ""
    is_arrow: bool = False

    _fields = ("base",)


@dataclass(slots=True)
class UnaryOperator(Expr):
    """Prefix or postfix unary operation (``-x``, ``!x``, ``*p``, ``i++``)."""

    op: str = "-"
    operand: Expr = None  # type: ignore[assignment]
    prefix: bool = True

    _fields = ("operand",)

    @property
    def is_incdec(self) -> bool:
        return self.op in ("++", "--")


#: Operators that make a BinaryOperator an assignment.
ASSIGN_OPS = frozenset(
    {"=", "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "<<=", ">>="}
)


@dataclass(slots=True)
class BinaryOperator(Expr):
    """Binary operation including assignments and the comma operator.

    Clang models ``x += e`` as ``CompoundAssignOperator``; we keep a single
    class and distinguish through :attr:`is_assignment` /
    :attr:`is_compound_assignment`, which is what the analyses key on.
    """

    op: str = "+"
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]

    _fields = ("lhs", "rhs")

    @property
    def is_assignment(self) -> bool:
        return self.op in ASSIGN_OPS

    @property
    def is_compound_assignment(self) -> bool:
        return self.op in ASSIGN_OPS and self.op != "="


@dataclass(slots=True)
class ConditionalOperator(Expr):
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    els: Expr = None  # type: ignore[assignment]

    _fields = ("cond", "then", "els")


@dataclass(slots=True)
class CastExpr(Expr):
    to_type: TypeSpec = None  # type: ignore[assignment]
    operand: Expr = None  # type: ignore[assignment]

    _fields = ("to_type", "operand")


@dataclass(slots=True)
class SizeofExpr(Expr):
    """``sizeof(expr)`` or ``sizeof(type)``."""

    arg: Node = None  # type: ignore[assignment]

    _fields = ("arg",)


@dataclass(slots=True)
class InitListExpr(Expr):
    items: list[Expr] = field(default_factory=list)

    _fields = ("items",)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Stmt(Node):
    """Base class of all statements.

    ``pragmas`` holds the raw text of ``#pragma`` lines that immediately
    precede the statement; OMP_Serial labels come from parsing these with
    :mod:`repro.pragma`.
    """

    pragmas: list[str] = field(default_factory=list)


@dataclass(slots=True)
class CompoundStmt(Stmt):
    stmts: list[Stmt] = field(default_factory=list)

    _fields = ("stmts",)


@dataclass(slots=True)
class DeclStmt(Stmt):
    decls: list["VarDecl"] = field(default_factory=list)

    _fields = ("decls",)


@dataclass(slots=True)
class ExprStmt(Stmt):
    """An expression statement; ``expr is None`` is the null statement."""

    expr: Expr | None = None

    _fields = ("expr",)


@dataclass(slots=True)
class IfStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    els: Stmt | None = None

    _fields = ("cond", "then", "els")


@dataclass(slots=True)
class ForStmt(Stmt):
    """A ``for`` loop.  ``init`` is a DeclStmt, ExprStmt or None."""

    init: Stmt | None = None
    cond: Expr | None = None
    inc: Expr | None = None
    body: Stmt = None  # type: ignore[assignment]

    _fields = ("init", "cond", "inc", "body")


@dataclass(slots=True)
class WhileStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]

    _fields = ("cond", "body")


@dataclass(slots=True)
class DoStmt(Stmt):
    body: Stmt = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]

    _fields = ("body", "cond")


@dataclass(slots=True)
class ReturnStmt(Stmt):
    value: Expr | None = None

    _fields = ("value",)


@dataclass(slots=True)
class BreakStmt(Stmt):
    pass


@dataclass(slots=True)
class ContinueStmt(Stmt):
    pass


@dataclass(slots=True)
class GotoStmt(Stmt):
    label: str = ""


@dataclass(slots=True)
class LabelStmt(Stmt):
    name: str = ""
    stmt: Stmt = None  # type: ignore[assignment]

    _fields = ("stmt",)


@dataclass(slots=True)
class SwitchStmt(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]

    _fields = ("cond", "body")


@dataclass(slots=True)
class CaseStmt(Stmt):
    value: Expr = None  # type: ignore[assignment]
    stmt: Stmt | None = None

    _fields = ("value", "stmt")


@dataclass(slots=True)
class DefaultStmt(Stmt):
    stmt: Stmt | None = None

    _fields = ("stmt",)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Decl(Node):
    """Base class of declarations."""


@dataclass(slots=True)
class VarDecl(Decl):
    name: str = ""
    var_type: TypeSpec = field(default_factory=TypeSpec)
    init: Expr | None = None
    tok_i: int = -1

    _fields = ("var_type", "init")


@dataclass(slots=True)
class ParmDecl(Decl):
    name: str = ""
    var_type: TypeSpec = field(default_factory=TypeSpec)
    tok_i: int = -1

    _fields = ("var_type",)


@dataclass(slots=True)
class FieldDecl(Decl):
    name: str = ""
    var_type: TypeSpec = field(default_factory=TypeSpec)

    _fields = ("var_type",)


@dataclass(slots=True)
class StructDecl(Decl):
    name: str = ""
    fields_: list[FieldDecl] = field(default_factory=list)
    is_union: bool = False

    _fields = ("fields_",)


@dataclass(slots=True)
class EnumDecl(Decl):
    name: str = ""
    enumerators: list[str] = field(default_factory=list)


@dataclass(slots=True)
class TypedefDecl(Decl):
    name: str = ""
    aliased: TypeSpec = field(default_factory=TypeSpec)

    _fields = ("aliased",)


@dataclass(slots=True)
class FunctionDecl(Decl):
    name: str = ""
    ret_type: TypeSpec = field(default_factory=TypeSpec)
    params: list[ParmDecl] = field(default_factory=list)
    body: CompoundStmt | None = None
    is_variadic: bool = False

    _fields = ("params", "body")


@dataclass(slots=True)
class TranslationUnit(Node):
    """Root of a parsed source file."""

    decls: list[Decl] = field(default_factory=list)

    _fields = ("decls",)

    def functions(self) -> list[FunctionDecl]:
        return [d for d in self.decls if isinstance(d, FunctionDecl)]

    def function(self, name: str) -> FunctionDecl | None:
        for fn in self.functions():
            if fn.name == name and fn.body is not None:
                return fn
        return None


#: Loop statement kinds, used throughout the dataset and analysis layers.
LOOP_KINDS = (ForStmt, WhileStmt, DoStmt)


def loops_of(root: Node) -> list[Stmt]:
    """All loop statements in the subtree, in preorder."""
    return [n for n in root.walk() if isinstance(n, LOOP_KINDS)]
