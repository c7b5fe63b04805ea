"""Import-time dependencies of the serving path."""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def test_serving_path_does_not_import_networkx():
    """``pyproject.toml`` requires only numpy: networkx is the optional
    ``cfg`` extra, so importing the serving stack must not load it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import sys, repro.serve, repro.artifacts; "
            "print('networkx' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
