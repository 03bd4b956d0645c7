"""Durable files: atomic publishing and quarantine of corrupt files.

Every file the reproduction keeps between runs (scenario results, atlas
exports, kernel successor tables) is published with
:func:`atomic_writer`, and a file found unreadable is moved aside with
:func:`quarantine` rather than deleted or left to poison later reads.
Standard library only, so any layer (the kernel cache included) can use
it without importing the scenario layer or ``sqlite3``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, Optional

__all__ = ["atomic_writer", "quarantine"]


@contextmanager
def atomic_writer(path: Path) -> Iterator[BinaryIO]:
    """A binary handle whose contents are published at ``path`` when the
    block exits cleanly: a reader (or a kill) mid-write sees either the
    old complete file or the new one.

    The handle writes a temp file next to the target, so ``os.replace``
    stays on one filesystem (rename atomicity), and the temp name is
    unique per call: with a fixed name a second writer of the same path
    truncates the first one's temp file, which then publishes a torn
    file while the second one's ``os.replace`` finds no temp file at
    all.  The data streams to disk as written (a large table is never
    held twice in memory).  The temp file never outlives the call.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def quarantine(path: Path) -> Optional[Path]:
    """Move a corrupt file aside to ``<name>.corrupt`` (evidence is kept,
    never deleted) and return where it went; ``None`` when the move
    failed (say, a racing process already moved or removed it)."""
    target = path.with_name(path.name + ".corrupt")
    try:
        os.replace(path, target)
    except OSError:
        return None
    return target
