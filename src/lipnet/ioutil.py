"""Atomic file writes: a temp file in the target directory, made if missing, then a rename."""

from __future__ import annotations

import os
import tempfile

# mkstemp makes its file owner-only; a written file gets open()'s mode instead
_UMASK = os.umask(0)
os.umask(_UMASK)


def atomic_write_bytes(path, blob: bytes) -> None:
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as f:
            os.fchmod(f.fileno(), 0o666 & ~_UMASK)
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
