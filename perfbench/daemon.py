"""The ``repro serve`` daemon under an open-loop request schedule.

The daemon runs as its own process, through the traced launcher
``serve_traced.py``; this module spawns it, waits for its
``--ready-file``, and drives it from one generator process with two
client connections.  Each request is timed from when it was *due*, so a
stall also charges the requests queued behind it.  Its replies are
checked against the in-process path.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import CheckFailed, digest, median, tail

HERE = Path(__file__).resolve().parent
CONNECTIONS = 2
TAIL_LIMIT_MS = 100.0
#: a rate is invalid when the generator's own oversleep (tail) exceeds
#: this: the generator, not the daemon, fell behind
LATE_LIMIT_S = 0.010


def spawn(repo: Path, bundle: Path, cache_dir: Path, ready: Path, env: dict,
          log: Path, trace_out: Path) -> tuple[subprocess.Popen, str, float]:
    """Start a traced daemon; return it, its address and spawn-to-ready
    time."""
    cmd = [sys.executable, str(HERE / "serve_traced.py"),
           "--trace-out", str(trace_out), "--listen", "127.0.0.1:0",
           "--bundle", str(bundle), "--cache-dir", str(cache_dir),
           "--ready-file", str(ready)]
    if ready.exists():
        ready.unlink()
    t0 = time.perf_counter()
    with open(log, "ab") as sink:
        proc = subprocess.Popen(cmd, cwd=repo, env=env,
                                stdout=subprocess.DEVNULL, stderr=sink)
    deadline = t0 + 120.0
    while True:
        if ready.exists():
            address = ready.read_text().strip()
            if address:
                return proc, address, time.perf_counter() - t0
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited with {proc.returncode} "
                               f"before it was ready")
        if time.perf_counter() > deadline:
            stop(proc)
            raise RuntimeError("daemon not ready within 120 s")
        time.sleep(0.002)


def stop(proc: subprocess.Popen) -> int:
    """SIGTERM (the daemon drains and exits), then wait for it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def request(client, names: list[str], files: dict) -> dict:
    """One batch suggest request; outcome, per-file results, Done."""
    from repro.client import ClientError

    named = [(n, files[n]["source"]) for n in names]
    try:
        results = client.suggest_sources(named)
    except ClientError as exc:
        return {"ok": False, "code": exc.code, "files": []}
    done = client.last_done
    return {"ok": done is not None and done.errors == 0,
            "code": None if done is None else f"errors={done.errors}",
            "files": [(n, r.to_payload()) for n, r in zip(names, results)],
            "stats": {} if done is None else done.stats}


def run_rate(address: str, schedule: list[dict], files: dict,
             tracer) -> list[dict]:
    """Send ``schedule`` (due offsets in seconds) over two connections.

    A connection takes the next request in schedule order as soon as
    it is free, sleeps until the request is due, then sends it.
    ``late_s`` is how far the generator itself overslept: the send
    time minus the later of due time and pick-up time.
    """
    from repro.client import connect

    records: list[dict | None] = [None] * len(schedule)
    cursor = [0]
    lock = threading.Lock()
    clients = [connect(address, timeout=60.0, client_id=f"perfbench-{i}")
               for i in range(CONNECTIONS)]
    origin = time.perf_counter() + 0.05
    errors: list[Exception] = []

    def worker(client) -> None:
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(schedule):
                    return
                due = origin + schedule[i]["due"]
                picked = time.perf_counter()
                if due > picked:
                    time.sleep(due - picked)
                sent = time.perf_counter()
                tracer.request_id(i)
                outcome = request(client, schedule[i]["files"], files)
                finished = time.perf_counter()
                outcome.update(due=due, sent=sent, done=finished,
                               latency_s=finished - due,
                               late_s=sent - max(due, picked))
                records[i] = outcome
        except Exception as exc:  # re-raised by the caller
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(c,), daemon=True)
               for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    for c in clients:
        c.close()
    if errors:
        raise errors[0]
    if any(t.is_alive() for t in threads) or None in records:
        raise RuntimeError("load generator did not finish its schedule")
    return records


def stats_delta(after: dict, before: dict) -> dict:
    """Counter deltas between two ``Done.stats`` snapshots."""
    out = {}
    for group in ("forwards", "coalesce", "store"):
        a, b = after.get(group) or {}, before.get(group) or {}
        out[group] = {k: a.get(k, 0) - b.get(k, 0) for k in a}
    return out


def latest_stats(records: list[dict], fallback: dict) -> dict:
    """The newest service snapshot among ``records`` (the one that has
    seen the most coalesced requests)."""
    best = fallback
    for r in records:
        s = r.get("stats") or {}
        if (s.get("coalesce", {}).get("requests", -1)
                > best.get("coalesce", {}).get("requests", -1)):
            best = s
    return best


def rate_summary(rate: int, records: list[dict], before: dict) -> dict:
    """Latency, generator lateness and validity of one rate."""
    lat = [r["latency_s"] if r["ok"] else float("inf") for r in records]
    ok_lat = [r["latency_s"] for r in records if r["ok"]]
    late = [r["late_s"] for r in records]
    tail_s, q = tail(lat)
    third = max(1, len(ok_lat) // 3)
    growing = (median(ok_lat[-third:])
               > 2 * median(ok_lat[:third]) + 0.010) if ok_lat else True
    late_tail = tail(late)[0]
    valid = late_tail <= LATE_LIMIT_S
    failed = sum(not r["ok"] for r in records)
    after = latest_stats(records, before)
    return {
        "rate": rate, "sent": len(records), "succeeded": len(records) - failed,
        "failed": failed, "p50_ms": median(lat) * 1e3,
        "tail_ms": tail_s * 1e3, "tail_percentile": q,
        "generator_late_p50_ms": median(late) * 1e3,
        "generator_late_tail_ms": late_tail * 1e3,
        "valid": valid, "growing_backlog": growing,
        "meets_limit": (valid and failed == 0 and not growing
                        and tail_s * 1e3 <= TAIL_LIMIT_MS),
        "done_stats_delta": stats_delta(after, before),
        "_after": after,
    }


def session(ctx: dict, inputs: dict, trace_dir: Path, tracer) -> dict:
    """One traced daemon: pre-warm its store with the hot set, run every
    rate's schedule against it, then drain it with SIGTERM."""
    from repro.client import connect

    files = inputs["files"]
    proc, address, setup_s = spawn(
        ctx["repo"], ctx["bundle"], ctx["run"] / "store", ctx["run"] / "ready",
        ctx["env"], ctx["run"] / "daemon.log",
        trace_out=trace_dir / "daemon.trace.json")
    try:
        with connect(address, timeout=60.0) as client:
            warm = request(client, [n for n in files if n.startswith("hot/")],
                           files)
        if not warm["ok"]:
            raise CheckFailed(f"pre-warm request failed: {warm['code']}")
        before = warm["stats"]
        rates, records = [], []
        for sched in inputs["schedules"]:
            recs = run_rate(address, sched["requests"], files, tracer)
            summary = rate_summary(sched["rate"], recs, before)
            before = summary.pop("_after")
            rates.append(summary)
            records.append(recs)
    finally:
        code = stop(proc)
    if code != 0:
        raise CheckFailed(f"daemon exited {code} after SIGTERM")
    return {"setup_s": setup_s, "rates": rates, "records": records}


def check_replies(inputs: dict, records: list[dict], reference: dict) -> int:
    """Every request ended in ``Done`` with ``errors == 0``, replies for
    the same content are identical, and they equal ``reference`` (the
    in-process result for the same files).  Returns how many files were
    compared across the two paths."""
    files = inputs["files"]

    def content(name: str) -> str:
        return hashlib.sha256(files[name]["source"].encode()).hexdigest()

    by_content: dict[str, str] = {}
    for r in records:
        if not r["ok"]:
            raise CheckFailed(f"a daemon request failed: {r['code']}")
        for name, payload in r["files"]:
            d = digest(payload)
            if by_content.setdefault(content(name), d) != d:
                raise CheckFailed(f"daemon replies differ for {name}")
    compared = 0
    for name, f in reference["files"].items():
        if content(name) in by_content:
            compared += 1
            if by_content[content(name)] != f["digest"]:
                raise CheckFailed(f"daemon and in-process differ on {name}")
    if compared < len(reference["files"]) // 2:
        raise CheckFailed(f"only {compared} files compared across paths")
    return compared


def env_with_src(repo: Path) -> dict:
    env = dict(os.environ)
    src = str(repo / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
