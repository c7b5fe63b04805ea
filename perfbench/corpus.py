"""Seeded benchmark inputs: C corpora and the daemon request schedule.

Everything here is a pure function of the workload seed.  The program
under test only ever sees the files and requests made here; the
generator's labels stay on the benchmark's side for the accuracy check.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

_PRAGMA = re.compile(r"^[ \t]*#[ \t]*pragma[ \t]+omp\b.*\n", re.M)


def derive_seed(*parts) -> int:
    """A stable 32-bit seed from the workload name and seed."""
    text = ":".join(str(p) for p in parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


def generate_files(seed: int, scale: float,
                   loops_per_file=(2, 7)) -> list[dict]:
    """Generated files with their developer pragmas removed (the user
    asks for advice on serial code) and one label per outermost loop,
    in extraction order."""
    from repro.dataset.corpus import CorpusGenerator

    samples, files = CorpusGenerator(
        seed=seed, loops_per_file=loops_per_file).generate(scale=scale)
    labels: dict[int, list[bool]] = {}
    loops: dict[int, list[str]] = {}
    for sample in samples:
        labels.setdefault(sample.file_id, []).append(bool(sample.parallel))
        loops.setdefault(sample.file_id, []).append(sample.source)
    return [{"source": _PRAGMA.sub("", f.source),
             "labels": labels.get(f.file_id, []),
             "loops": loops.get(f.file_id, [])}
            for f in files]


def cold_corpus(seed: int, scale: float, dup_share: float = 0.10,
                ) -> list[dict]:
    """A crawl-like corpus: about ``dup_share`` of the files appear a
    second time under another name."""
    files = generate_files(seed, scale)
    rng = np.random.default_rng(seed)
    out = [dict(f, name=f"src/f{i:04d}.c") for i, f in enumerate(files)]
    n_dup = int(round(dup_share * len(files)))
    for j, i in enumerate(sorted(rng.choice(len(files), size=n_dup,
                                            replace=False).tolist())):
        out.append(dict(files[i], name=f"mirror/copy{j:03d}_f{i:04d}.c"))
    return out


def write_corpus(directory: Path, files: list[dict]) -> None:
    """The C files the program reads, plus the benchmark's own labels
    (kept next to, not inside, the corpus directory)."""
    for f in files:
        path = directory / f["name"]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f["source"], encoding="utf-8")
    labels = {f["name"]: {"labels": f["labels"], "loops": f["loops"]}
              for f in files}
    (directory.parent / (directory.name + ".labels.json")).write_text(
        json.dumps(labels), encoding="utf-8")


def edit_one_loop(source: str, k: int) -> str:
    """``source`` with the first integer literal of its first loop
    changed: a user editing one loop of a file it already sent."""
    start = source.find("for (")
    m = re.compile(r"(?<![\w.])(\d+)(?![\w.])").search(source, start)
    if start < 0 or m is None:
        raise ValueError("no loop literal to edit")
    value = int(m.group(1)) + k
    return source[:m.start()] + str(value) + source[m.end():]


RATES = (25, 50, 100)
MIX = (("hot", 0.6), ("unseen", 0.3), ("edited", 0.1))


def daemon_inputs(seed: int, rates=RATES, per_rate_s: float = 8.0,
                  n_hot: int = 40) -> dict:
    """Hot set, per-rate Poisson schedules and request contents.

    Every request holds 1–2 files.  Unseen files are never reused, so
    each rate draws from its own; edited files are hot files with one
    loop literal changed (unique per request).
    """
    rng = np.random.default_rng(seed)
    schedules = []
    kinds, weights = zip(*MIX)
    n_unseen = 0
    for rate in rates:
        t = 0.0
        reqs = []
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= per_rate_s:
                break
            kind = str(rng.choice(kinds, p=weights))
            size = int(rng.integers(1, 3))
            reqs.append({"due": t, "kind": kind, "size": size})
            if kind == "unseen":
                n_unseen += size
        schedules.append({"rate": rate, "requests": reqs})

    small = (1, 3)
    hot = generate_files(derive_seed("hot", seed), 0.0015, small)
    while len(hot) < n_hot:
        hot += generate_files(derive_seed("hot", seed, len(hot)), 0.0015,
                              small)
    hot = hot[:n_hot]
    unseen: list[dict] = []
    while len(unseen) < n_unseen:
        unseen += generate_files(derive_seed("unseen", seed, len(unseen)),
                                 0.01, small)

    files: dict[str, dict] = {}
    for i, f in enumerate(hot):
        files[f"hot/h{i:03d}.c"] = f
    cursor = 0
    edits = 0
    for sched in schedules:
        for req in sched["requests"]:
            names = []
            for _ in range(req["size"]):
                if req["kind"] == "hot":
                    names.append(f"hot/h{int(rng.integers(n_hot)):03d}.c")
                elif req["kind"] == "unseen":
                    name = f"r{sched['rate']}/u{cursor:04d}.c"
                    files[name] = unseen[cursor]
                    cursor += 1
                    names.append(name)
                else:
                    h = int(rng.integers(n_hot))
                    edits += 1
                    for step in range(n_hot):
                        # a file whose first loop has no literal is
                        # skipped for the next hot file
                        try:
                            source = edit_one_loop(
                                hot[(h + step) % n_hot]["source"], edits)
                            break
                        except ValueError:
                            continue
                    else:
                        raise ValueError("no hot file has a loop literal")
                    name = f"edit/h{h:03d}_e{edits:04d}.c"
                    files[name] = {"source": source, "labels": [],
                                   "loops": []}
                    names.append(name)
            req["files"] = names
    # unseen files also served in-process for the cross-path check
    check = [n for n in files if n.startswith("hot/")] + [
        n for n in files if n.startswith("r")][:24]
    return {"files": files, "schedules": schedules, "check": check}
