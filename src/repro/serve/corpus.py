"""The one reader of ``(name, source)`` corpora from disk.

Every surface that serves files — the ``suggest-dir``/``rewrite-dir``
runner and a daemon reading its own filesystem — goes through
:func:`read_corpus`, so listing order and the unreadable-file
behaviour are the same everywhere: a file that cannot be read as
UTF-8 raises :class:`CorpusError` naming its path.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.serve.stream import ServeError


class CorpusError(ServeError):
    """A corpus file could not be read (missing, unreadable, not UTF-8)."""

    def __init__(self, path, reason) -> None:
        super().__init__(f"cannot read {path}: {reason}")
        self.path = str(path)


def read_corpus(files, pattern: str = "*.c", *,
                check=None) -> list[tuple[str, str]]:
    """``(name, source)`` pairs for a corpus.

    ``files`` is a directory — every ``pattern`` file under it,
    recursively, in sorted path order — or an iterable of file paths,
    kept in the given order.  Names are the paths as strings.
    ``check(path)``, when given, vets each path before it is read (a
    daemon's allowed-roots guard).
    """
    if isinstance(files, (str, os.PathLike)):
        files = sorted(Path(files).rglob(pattern))
    named = []
    for path in map(Path, files):
        if check is not None:
            check(path)
        try:
            named.append((str(path), path.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusError(path, exc) from exc
    return named
