"""File access shared by every reader and writer. Whole-file writes: an
artifact is either the old file or the new one, never a half-written mix.
Reads: a file that cannot be read or is not UTF-8 raises an error that names
it."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

from .errors import DataError


def unreadable(path, exc: Exception, error: type[Exception] = DataError) -> Exception:
    """The error to raise for a file that open() or UTF-8 decoding refused."""
    if isinstance(exc, UnicodeDecodeError):
        return error(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x})")
    return error(f"{path}: cannot read ({exc.strerror or exc})")


def read_text(path, encoding: str = "utf-8", error: type[Exception] = DataError) -> str:
    """The whole file as text; raises `error` naming the file if it cannot
    be read or decoded."""
    try:
        return Path(path).read_text(encoding=encoding)
    except (OSError, UnicodeDecodeError) as exc:
        raise unreadable(path, exc, error) from None


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
