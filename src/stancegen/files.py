"""File access shared by every reader and writer. Whole-file writes: an
artifact is either the old file or the new one, never a half-written mix,
and one that cannot be written is a ConfigError naming it.
Reads: a file that cannot be read or is not UTF-8 raises an error that names
it."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

from .errors import ConfigError, DataError


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
    """Yield a file object open on a temp file in path's directory, which is
    made if missing; on a clean exit, os.replace moves it onto path. If the
    body raises, the temp file is deleted and path is left as it was; an
    OSError, from making the directory to the replace, becomes a ConfigError
    that names path. mode is "w" (UTF-8 text) or "wb"."""
    path = Path(path)
    if not path.name or "\0" in str(path):  # "." or "/", or a NUL byte
        raise ConfigError(f"cannot write {str(path)!r}: not a file path")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # also when tmp was never made
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"{path}: cannot write ({exc.strerror or exc})") from exc
        raise
