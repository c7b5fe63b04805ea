"""Loop extraction and labelling from C source text.

Mirrors the paper's data-processing step (section 4.2): parse the file
(the compilability check), walk every function body, emit one sample per
loop, labelled by the OpenMP pragma attached to it.  Nested loops yield a
sample for the outermost statement only — the paper's loop count treats a
nest as one (outer) loop with ``Nested Loops`` set.
"""

from __future__ import annotations

from repro.cfront import parse_source, unparse
from repro.cfront.nodes import LOOP_KINDS, Stmt
from repro.dataset.sample import LoopSample
from repro.pragma import loop_label
from repro.tools.access import collect_accesses


def _outermost_loops(root) -> list[Stmt]:
    """Loop statements not contained in another loop, in preorder.

    Only statements can hold loops, and nothing inside a loop is
    outermost, so the visit follows ``Stmt`` children and stops at the
    first loop on each path.
    """
    out: list[Stmt] = []

    def visit(node) -> None:
        if isinstance(node, LOOP_KINDS):
            out.append(node)
            return
        for child in node.children():
            if isinstance(child, Stmt):
                visit(child)

    visit(root)
    return out


def _function_loop_samples(
    fn,
    origin: str = "github",
    file_id: int = -1,
    file_meta: dict | None = None,
) -> list[LoopSample]:
    """One labelled sample per outermost loop of one function body."""
    pointer_params = sorted(
        p.name for p in fn.params if p.var_type.pointers > 0
    )
    samples: list[LoopSample] = []
    for loop in _outermost_loops(fn.body):
        parallel, category = loop_label(loop.pragmas)
        pragma = loop.pragmas[0] if loop.pragmas else None
        # Re-emit the loop without its pragma: models must not see it.
        saved = loop.pragmas
        loop.pragmas = []
        loop_src = unparse(loop)
        loop.pragmas = saved
        # loc_of(loop) without unparsing the loop a second time
        loc = sum(1 for ln in loop_src.splitlines() if ln.strip())
        summary = collect_accesses(getattr(loop, "body", loop))
        pointer_arrays: list[str] = []
        if pointer_params:
            # One walk collects every name; checking each pointer param
            # with its own walk made extraction quadratic in parameter
            # count.
            names_in_loop = {
                name for n in loop.walk()
                if (name := getattr(n, "name", None)) is not None
            }
            pointer_arrays = [
                name for name in pointer_params if name in names_in_loop
            ]
        samples.append(LoopSample(
            source=loop_src,
            parallel=parallel,
            category=category,
            pragma=pragma,
            origin=origin,
            has_call=summary.has_calls,
            nested=summary.has_inner_loop,
            loc=loc,
            file_id=file_id,
            file_meta=dict(file_meta or {}),
            pointer_arrays=pointer_arrays,
        ))
    return samples


def extract_loops_by_function(
    source: str,
    origin: str = "github",
    file_id: int = -1,
    file_meta: dict | None = None,
):
    """Per-function loop extraction: ``[(function, samples), ...]``.

    Grouping by function keeps file-level analyses (liveness for
    ``lastprivate``) aligned with their loops even when one function
    misbehaves — consumers can fall back per function instead of
    dropping context for the whole file.
    """
    tu = parse_source(source)
    return [
        (fn, _function_loop_samples(fn, origin, file_id, file_meta))
        for fn in tu.functions()
        if fn.body is not None
    ]


def extract_loops_from_source(
    source: str,
    origin: str = "github",
    file_id: int = -1,
    file_meta: dict | None = None,
) -> list[LoopSample]:
    """Parse a C file and return one labelled sample per outermost loop.

    Raises :class:`ParseError`/:class:`LexError` when the file does not
    "compile" — callers drop such files, like the paper dropped the
    10 269 files Clang rejected.
    """
    return [
        sample
        for _, samples in extract_loops_by_function(
            source, origin=origin, file_id=file_id, file_meta=file_meta,
        )
        for sample in samples
    ]
