"""Import-time dependencies of the serving path."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def _modules_loaded(imports: str, names: list[str]) -> list[bool]:
    """Which of ``names`` a fresh interpreter has in ``sys.modules``
    after ``import {imports}``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = (f"import sys, {imports}; "
            f"print([m in sys.modules for m in {names!r}])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return ast.literal_eval(proc.stdout.strip())


def test_serving_path_does_not_import_networkx():
    """``pyproject.toml`` does not require networkx: it is the optional
    ``cfg`` extra, so importing the serving stack must not load it."""
    assert _modules_loaded("repro.serve, repro.artifacts",
                           ["networkx"]) == [False]


def test_serving_path_does_not_import_dataset_generators():
    """``repro.dataset`` resolves its exports lazily: serving reaches
    ``repro.dataset.extract`` through the package, and must not load
    the generators (nor the ``jinja2`` they render with).  Loading a
    bundle imports ``repro.eval.context``, which must not load them
    either."""
    generators = ["jinja2", "repro.dataset.synth", "repro.dataset.corpus",
                  "repro.dataset.omp_serial"]
    for imports in ("repro.serve, repro.artifacts", "repro.eval.context"):
        assert _modules_loaded(
            imports, generators + ["repro.dataset.extract"]
        ) == [False] * len(generators) + [True], imports
