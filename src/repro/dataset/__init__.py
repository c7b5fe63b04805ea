"""OMP_Serial dataset: generation, extraction, statistics.

The paper builds OMP_Serial from (a) ~6000 GitHub repositories crawled
for C files using OpenMP and (b) Jinja2-generated synthetic programs.
Offline, (a) is replaced by a calibrated stochastic corpus generator
(:mod:`repro.dataset.corpus`) whose category proportions, function-call /
nested-loop rates and LOC distributions match Table 1; (b) is reproduced
with the same mechanism the paper used (:mod:`repro.dataset.synth`).

Labels always come from pragma presence on re-parsed source — the same
rule the paper applies (section 4.2) — never from generator bookkeeping,
so the extraction pipeline is exercised end to end.

Exports resolve lazily (PEP 562): serving imports
:mod:`repro.dataset.extract` through this package, and must not pay for
— or need ``jinja2`` for — the generators it never runs.
"""

from importlib import import_module

#: exported name -> defining submodule
_EXPORTS = {
    "LoopSample": "sample",
    "save_jsonl": "sample",
    "load_jsonl": "sample",
    "LoopRecipe": "recipes",
    "RecipeGenerator": "recipes",
    "CATEGORY_PROFILES": "recipes",
    "extract_loops_from_source": "extract",
    "SyntheticGenerator": "synth",
    "CorpusGenerator": "corpus",
    "OMPSerial": "omp_serial",
    "DatasetConfig": "omp_serial",
    "generate_omp_serial": "omp_serial",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
