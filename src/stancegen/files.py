"""Whole-file writes: an artifact is either the old file or the new one,
never a half-written mix."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a file object open on a temp file in path's directory; on a clean
    exit, os.replace moves it onto path. If the body raises, the temp file is
    deleted and path is left as it was. mode is "w" (UTF-8 text) or "wb"."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
