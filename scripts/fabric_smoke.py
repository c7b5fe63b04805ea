"""CI smoke: the distributed serving fabric, end to end on localhost.

A coordinator (`repro suggest-dir --peers`, `repro rewrite-dir
--peers`) against two *empty* ``repro serve --accept-bundles``
daemons, driving the real CLI entry points throughout:

1. **self-provisioning push** — the first fabric run pushes the
   bundle archive to both peers (content-addressed by SHA-256) and
   produces output byte-identical to the in-process golden run;
2. **push-once contract** — a second run against the now-warm fleet
   reports a ``bundle-have`` cache hit for every peer: the archive's
   bytes never transit the wire twice;
3. **verified rewrites** — ``rewrite-dir --peers`` over the same fleet
   produces output byte-identical to the in-process ``rewrite-dir``
   golden run;
4. **peer loss mid-run** — against a *fresh* (cold-store) pair, one
   peer is SIGKILLed after the first streamed record; the supervisor
   requeues its shard onto the survivor and the completed run still
   matches the golden records file-for-file (requeue, never abort).

Every spawned daemon PID is tracked and killed in ``finally`` blocks,
so a wedged peer can never stall the runner after a failed check.

Usage::

    python scripts/fabric_smoke.py --bundle advisor \
        [--corpus DIR]   # default: a generated ~30-file corpus, big
                         # enough that the SIGKILL lands mid-run

Exit status 0 on success; any failed check raises with a message.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def make_corpus(work: Path) -> Path:
    """A deterministic corpus with enough files to outlive the kill."""
    from repro.dataset.corpus import CorpusGenerator

    corpus = work / "corpus"
    corpus.mkdir()
    _, files = CorpusGenerator(seed=41).generate(scale=0.004)
    for f in files:
        (corpus / f"file_{f.file_id}.c").write_text(f.source)
    return corpus


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    return env


def start_peer(work: Path, tag: str) -> subprocess.Popen:
    """One empty, push-accepting daemon on an ephemeral port."""
    ready = work / f"ready-{tag}.txt"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--listen", "127.0.0.1:0", "--accept-bundles",
         "--cache-dir", str(work / f"cache-{tag}"),
         "--ready-file", str(ready)],
        env=_env(), cwd=REPO_ROOT)
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if ready.exists() and ready.read_text().strip():
            proc.address = ready.read_text().strip()
            return proc
        if proc.poll() is not None:
            raise RuntimeError(f"peer {tag} exited {proc.returncode}")
        time.sleep(0.2)
    proc.kill()
    raise RuntimeError(f"peer {tag} never became ready")


def run_fabric(corpus: Path, bundle: str, peers: list[str],
               out: Path, command: str = "suggest-dir",
               ) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "repro.cli", command,
           str(corpus), "--peers", ",".join(peers), "--bundle", bundle,
           "--quiet", "--out", str(out)]
    proc = subprocess.run(cmd, env=_env(), cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(
            f"fabric {command} exited {proc.returncode}:\n"
            f"{proc.stderr}")
    return proc


def run_golden(corpus: Path, bundle: str, out: Path,
               command: str = "suggest-dir") -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", command, str(corpus),
         "--bundle", bundle, "--quiet", "--out", str(out)],
        env=_env(), cwd=REPO_ROOT, capture_output=True, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError(
            f"golden {command} exited {proc.returncode}:\n"
            f"{proc.stderr}")


def check_provision_and_identity(corpus: Path, bundle: str,
                                 peers: list[str], work: Path) -> None:
    golden, fabric = work / "golden.json", work / "fabric.json"
    run_golden(corpus, bundle, golden)
    first = run_fabric(corpus, bundle, peers, fabric)
    pushes = first.stderr.count(": pushed ")
    if pushes != len(peers):
        raise AssertionError(
            f"expected one push per peer ({len(peers)}), saw {pushes}:"
            f"\n{first.stderr}")
    if golden.read_bytes() != fabric.read_bytes():
        raise AssertionError(
            "fabric run diverged from the in-process golden")
    print(f"provisioning: {pushes} pushes, output byte-identical "
          f"to in-process")


def check_push_once(corpus: Path, bundle: str, peers: list[str],
                    work: Path) -> None:
    again = work / "fabric-again.json"
    second = run_fabric(corpus, bundle, peers, again)
    hits = second.stderr.count(": cache hit ")
    if hits != len(peers) or ": pushed " in second.stderr:
        raise AssertionError(
            f"re-push was not a pure cache hit ({hits} hits of "
            f"{len(peers)}):\n{second.stderr}")
    if again.read_bytes() != (work / "golden.json").read_bytes():
        raise AssertionError("warm fabric run diverged from golden")
    print(f"push-once: {hits} bundle-have cache hits, zero bytes "
          f"re-shipped")


def check_rewrite_identity(corpus: Path, bundle: str,
                           peers: list[str], work: Path) -> None:
    golden, fabric = work / "rewrite-golden.json", work / "rewrite.json"
    run_golden(corpus, bundle, golden, command="rewrite-dir")
    run_fabric(corpus, bundle, peers, fabric, command="rewrite-dir")
    if golden.read_bytes() != fabric.read_bytes():
        raise AssertionError(
            "fabric rewrite-dir diverged from the in-process golden")
    print("rewrite: fabric rewrite-dir output byte-identical to "
          "in-process")


def check_peer_loss(corpus: Path, bundle: str, peers: list[str],
                    victim: subprocess.Popen, work: Path) -> None:
    """SIGKILL one peer after the first streamed record lands.

    Must run against freshly spawned peers: a fleet warmed by the
    earlier checks would replay the corpus from its suggestion stores
    and finish before the kill could land mid-run.
    """
    cmd = [sys.executable, "-m", "repro.cli", "suggest-dir",
           str(corpus), "--peers", ",".join(peers), "--bundle", bundle,
           "--quiet", "--stream"]
    proc = subprocess.Popen(cmd, env=_env(), cwd=REPO_ROOT,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    records: dict[str, dict] = {}
    killed = False
    try:
        for line in proc.stdout:
            rec = json.loads(line)
            if rec.get("event") == "done":
                continue
            records[Path(rec["file"]).name] = rec
            if not killed:
                victim.kill()
                victim.wait(timeout=30)
                killed = True
        if proc.wait(timeout=600) != 0:
            raise AssertionError(
                f"fabric run aborted after peer loss:\n"
                f"{proc.stderr.read()}")
    finally:
        if proc.poll() is None:
            proc.kill()
    errored = [name for name, rec in records.items()
               if rec.get("event") == "error"]
    if errored:
        raise AssertionError(
            f"files errored instead of requeueing: {errored}")
    golden = {}
    for rec in json.loads((work / "golden.json").read_text()):
        golden[Path(rec["file"]).name] = rec
    if records != golden:
        raise AssertionError(
            f"peer-loss run diverged from golden: got "
            f"{sorted(records)}, want {sorted(golden)}")
    print(f"peer loss: survivor served all {len(records)} files "
          f"byte-identically after a mid-run SIGKILL")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bundle", required=True,
                        help="trained bundle directory or archive")
    parser.add_argument("--corpus", default=None,
                        help="directory of C files to serve (default: "
                             "generate a deterministic corpus)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if args.corpus:
            corpus = Path(args.corpus)
        else:
            corpus = make_corpus(work)
        n_files = len(sorted(corpus.glob("*.c")))
        if not n_files:
            raise SystemExit(f"no .c files under {corpus}")
        print(f"corpus: {n_files} files under {corpus}")
        daemons: list[subprocess.Popen] = []
        try:
            daemons = [start_peer(work, tag) for tag in ("a", "b")]
            peers = [d.address for d in daemons]
            print(f"fleet: {peers}")
            check_provision_and_identity(corpus, args.bundle, peers,
                                         work)
            check_push_once(corpus, args.bundle, peers, work)
            check_rewrite_identity(corpus, args.bundle, peers, work)
            # a cold pair for the kill check — warm stores would
            # replay the corpus before the SIGKILL lands
            fresh = [start_peer(work, tag) for tag in ("c", "d")]
            daemons += fresh
            check_peer_loss(corpus, args.bundle,
                            [d.address for d in fresh], fresh[1],
                            work)
        finally:
            for daemon in daemons:
                if daemon.poll() is None:
                    daemon.kill()
                    daemon.wait(timeout=30)
    print("fabric smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
