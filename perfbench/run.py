"""The repository benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``cold-suggest`` and ``cold-rewrite-sharded`` (see
``LAYERS.md``).

Run from the repository root.  The first run in a checkout trains the
suggester bundle once (a build step, outside every timed region) into
``.bench_build/perfbench``.  Inputs are generated from ``--seed``; the
program only sees the generated C files and requests.  Every output is
checked (digests identical across repetitions and serving paths,
verified rewrites re-parse, predictions align with the generator's
loops); a mismatch fails the run instead of reporting a number.

The last line of stdout is one JSON object: with ``--trace 0`` its
metrics are the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` the per-layer metrics read from spans recorded around the
public entry points of each ``repro`` layer (see ``tracing.py``), from
passes that include a traced daemon session whose replies are checked
against the in-process path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import CheckFailed, median, tail  # noqa: E402

WORKLOADS = ("cold-suggest", "cold-rewrite-sharded")
#: fixed training recipe of the bundle under test (a build input, not a
#: workload input: every seed is served by the same model)
TRAIN_ARGS = ("--scale", "0.02", "--epochs", "4", "--dim", "32",
              "--seed", "7")
COLD_SCALE = {"cold-suggest": 0.03, "cold-rewrite-sharded": 0.019}
COLD_SHARDS = {"cold-suggest": 1, "cold-rewrite-sharded": 2}
#: an extra labelled corpus (about 2,000 loops), suggested once
#: in-process per run, so that accuracy is not scored over the timed
#: corpus alone: its spread across seeds shrinks with the loop count
ACCURACY_SCALE = 0.06
MIN_REPS = 3


# -- build -------------------------------------------------------------------


def ensure_bundle(repo: Path, work: Path, env: dict) -> Path:
    """Train the bundle once per checkout and source tree."""
    h = hashlib.sha256(" ".join(TRAIN_ARGS).encode())
    for path in sorted((repo / "src" / "repro").rglob("*.py")):
        h.update(path.read_bytes())
    bundle = work / f"bundle-{h.hexdigest()[:12]}"
    if bundle.is_dir():
        return bundle
    staging = work / f"staging-{bundle.name}"
    shutil.rmtree(staging, ignore_errors=True)
    log = work / "build.log"
    with open(log, "wb") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "train", *TRAIN_ARGS,
             "--bundle-out", str(staging)],
            cwd=repo, env=env, stdout=fh, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"bundle training failed, see {log}")
    staging.rename(bundle)
    return bundle


# -- cold workloads ----------------------------------------------------------


def run_cold_child(repo: Path, env: dict, mode: str, corpus: Path,
                   bundle: Path, shards: int, out: Path,
                   trace: Path | None = None, order_seed: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "cold.py"), "--mode", mode,
           "--corpus", str(corpus), "--bundle", str(bundle),
           "--shards", str(shards), "--out", str(out),
           "--order-seed", str(order_seed)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    spawned = time.time()
    # own process group: on a timeout its shard workers die with it
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], cwd=repo,
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"cold child failed ({proc.returncode}):\n"
                           + err.decode(errors="replace")[-2000:])
    return json.loads(out.read_text())


def score(result: dict, labels: dict) -> tuple[int, int]:
    """Loops whose ``parallel`` prediction equals the generator's label,
    and loops scored; every result's loops must align with the labels."""
    right = total = 0
    for name, f in result["files"].items():
        if f["error"] is not None:
            continue
        if f["loops"] != labels[name]["loops"]:
            raise CheckFailed(f"loops of {name} do not align with labels")
        for predicted, label in zip(f["parallel"], labels[name]["labels"]):
            right += predicted == label
            total += 1
    return right, total


def cold_checks(reps: list[dict], labels: dict, reference: dict | None,
                ) -> dict:
    """Digest identity across repetitions (and against the reference
    path), label alignment, re-parse of verified rewrites."""
    first = reps[0]["files"]
    if sorted(first) != sorted(labels):
        raise CheckFailed("result files differ from the corpus")
    for k, rep in enumerate(reps[1:], 1):
        for name, f in rep["files"].items():
            if f["digest"] != first[name]["digest"]:
                raise CheckFailed(f"repetition {k} differs on {name}")
    if reference is not None:
        for name, f in reference["files"].items():
            if f["digest"] != first[name]["digest"]:
                raise CheckFailed(f"shards=1 and shards=2 differ on {name}")
    for rep in reps:
        if rep["reparse_failures"]:
            raise CheckFailed(f"{rep['reparse_failures']} verified "
                              f"rewrites do not re-parse")
    right, total = score(reps[0], labels)
    failed = sum(f["error"] is not None for f in first.values())
    verified = sum(code == "verified" for f in first.values()
                   for code in f["codes"])
    return {"right": right, "loops": total, "failed": failed,
            "files": len(first), "verified_share": verified / total}


def cold_metrics(reps: list[dict], loops: int) -> dict:
    """Throughput over all repetitions' work; the mean first-result
    time, because with two shard workers it is bimodal (both workers
    get a CPU, or they contend) and a median flips between the modes;
    medians of the rest."""
    return {
        "setup_s": median([r["setup_s"] for r in reps]),
        "loops_per_s": loops * len(reps) / sum(r["wall_s"] for r in reps),
        "first_result_s": statistics.mean(r["first_result_s"] for r in reps),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }


def cold_workload(ctx: dict, name: str, seconds: float) -> dict:
    from corpus import cold_corpus, derive_seed, write_corpus

    files = cold_corpus(derive_seed(name, ctx["seed"]), COLD_SCALE[name])
    corpus = ctx["run"] / "corpus"
    write_corpus(corpus, files)
    labels = {f["name"]: f for f in files}
    mode = "suggest" if name == "cold-suggest" else "rewrite"
    shards = COLD_SHARDS[name]
    args = (ctx["repo"], ctx["env"], mode, corpus, ctx["bundle"])

    start = time.perf_counter()
    extra = cold_corpus(derive_seed(name, ctx["seed"], "accuracy"),
                        ACCURACY_SCALE, dup_share=0.0)
    write_corpus(ctx["run"] / "accuracy", extra)
    right, scored = score(
        run_cold_child(ctx["repo"], ctx["env"], "suggest",
                       ctx["run"] / "accuracy", ctx["bundle"], 1,
                       ctx["run"] / "accuracy.json"),
        {f["name"]: f for f in extra})
    reference = None
    if shards > 1:
        # the in-process path over the same files, for the identity check
        reference = run_cold_child(*args, 1, ctx["run"] / "ref.json")
    reps = []
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        # each repetition sees the files in another seeded order, so the
        # medians do not hinge on which file happens to come first
        k = len(reps)
        reps.append(run_cold_child(
            *args, shards, ctx["run"] / f"rep{k}.json",
            order_seed=derive_seed(name, ctx["seed"], "order", k)))
    checked = cold_checks(reps, labels, reference)
    metrics = cold_metrics(reps, checked["loops"])
    metrics["accuracy"] = ((checked["right"] + right)
                           / (checked["loops"] + scored))
    metrics["ok_share"] = 1.0 - checked["failed"] / checked["files"]
    report = {
        "reps": len(reps),
        "files": checked["files"],
        "loops": checked["loops"],
        "accuracy_loops": checked["loops"] + scored,
        # per-file completion times since the call, median over reps
        "file_p50_ms": median([1e3 * median(r["done_at"]) for r in reps]),
        "file_tail_ms": median([1e3 * tail(r["done_at"])[0] for r in reps]),
        "file_tail_percentile": tail(reps[0]["done_at"])[1],
        "failed_share": checked["failed"] / checked["files"],
        "setup_s_all": [r["setup_s"] for r in reps],
        "wall_s_all": [r["wall_s"] for r in reps],
        "first_result_s_all": [r["first_result_s"] for r in reps],
        "cpu_s_all": [r["cpu_s"] for r in reps],
    }
    if mode == "rewrite":
        report["verified_share"] = checked["verified_share"]
        report["verify"] = reps[0]["stats"]["verify"]
    return {"metrics": metrics, "report": report,
            "attempted": checked["files"] * len(reps),
            "failed": checked["failed"] * len(reps)}


# -- entry point ---------------------------------------------------------------

#: report figures printed with their units but not gated: they do not
#: apply to every workload
REPORT_UNITS = {"verified_share": "share", "failed_share": "share",
                "file_p50_ms": "ms", "file_tail_ms": "ms"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    repo = Path.cwd()
    if not (repo / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro is "
              "missing here)", file=sys.stderr)
        return 2
    from daemon import env_with_src
    from env import fingerprint, host_noise

    env = env_with_src(repo)
    sys.path.insert(0, str(repo / "src"))
    work = repo / ".bench_build" / "perfbench"
    # temporary files of every child stay inside the checkout too
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(work / "tmp")
    bundle = ensure_bundle(repo, work, env)
    run_dir = work / f"run-{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ctx = {"repo": repo, "env": env, "bundle": bundle, "run": run_dir,
           "seed": args.seed, "work": work}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fingerprint(args.seed),
              "host_noise": host_noise()}
    results = work / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json"

    try:
        if args.trace:
            import layers

            result = layers.traced_run(ctx, args.workload)
        else:
            result = cold_workload(ctx, args.workload, args.seconds)
    except CheckFailed as exc:
        print(f"perfbench: OUTPUT CHECK FAILED: {exc}", file=sys.stderr)
        # recorded too, so that compare.py refuses a side with failures
        out.write_text(json.dumps(dict(record, correct=False,
                                       error=str(exc)), indent=1))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    spec = json.loads((repo / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        if m["name"] not in result["metrics"]:
            raise RuntimeError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": float(result["metrics"][m["name"]]),
                              "unit": m["unit"]}

    record.update(correct=True, metrics=metrics, report=result["report"])
    out.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"environment {json.dumps(record['fingerprint'])}")
    print(f"host noise  {json.dumps(record['host_noise'])}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, unit in REPORT_UNITS.items():
        value = result["report"].get(name)
        if isinstance(value, (int, float)):
            print(f"  {name:<40} {value:>14.6g} {unit}  (report only)")
    print("report " + json.dumps(result["report"], default=str))
    print(f"result file {out.relative_to(repo)}")
    print(json.dumps({"correct": True, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
