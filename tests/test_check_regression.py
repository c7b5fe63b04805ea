"""``benchmarks/check_regression.py``: scaling baselines need ≥2 cpus."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (Path(__file__).resolve().parent.parent / "benchmarks"
           / "check_regression.py")
_spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _write(directory: Path, name: str, doc: dict) -> None:
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(json.dumps(doc))


@pytest.fixture
def dirs(tmp_path):
    fresh, base = tmp_path / "fresh", tmp_path / "base"
    _write(base, "BENCH_fabric.json",
           {"cpus": 1, "peer_speedup": 0.9, "warm_net_speedup": 20.0})
    _write(fresh, "BENCH_serve.json",
           {"speedup": 6.0, "end_to_end_speedup": 2.0})
    return fresh, base


@pytest.mark.parametrize("name", check_regression.SCALING)
def test_update_refuses_a_scaling_run_below_two_cpus(dirs, name, capsys):
    fresh, base = dirs
    _write(fresh, name, {"cpus": 1, "speedup": 2.0, "peer_speedup": 2.0})
    before = {p.name: p.read_text() for p in base.iterdir()}
    assert check_regression.main([str(fresh), "--baseline-dir", str(base),
                                  "--update"]) != 0
    assert name in capsys.readouterr().err
    # nothing written, not even the unrelated artifact
    assert {p.name: p.read_text() for p in base.iterdir()} == before


def test_update_banks_a_multicore_scaling_run(dirs):
    fresh, base = dirs
    _write(fresh, "BENCH_fabric.json",
           {"cpus": 2, "peer_speedup": 1.8, "warm_net_speedup": 25.0})
    assert check_regression.main([str(fresh), "--baseline-dir", str(base),
                                  "--update"]) == 0
    assert json.loads((base / "BENCH_fabric.json").read_text())["cpus"] == 2
    assert (base / "BENCH_serve.json").exists()


def test_trend_table_shows_cpus_on_scaling_rows(dirs):
    fresh, base = dirs
    _write(fresh, "BENCH_fabric.json",
           {"cpus": 2, "peer_speedup": 1.8, "warm_net_speedup": 25.0})
    rows, _ = check_regression.compare(fresh, base, 0.30)
    table = check_regression.trend_table(rows, 0.30)
    fabric = [line for line in table.splitlines()
              if "BENCH_fabric.json" in line]
    assert len(fabric) == 2
    assert all("| 1 → 2 |" in line for line in fabric)
    serve = [line for line in table.splitlines()
             if "BENCH_serve.json" in line]
    assert serve and not any("→" in line for line in serve)
