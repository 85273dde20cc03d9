"""Atomic file replacement, for files whose readers must never see a
partial write."""

from __future__ import annotations

import contextlib
import os
import uuid
from collections.abc import Iterator
from pathlib import Path


@contextlib.contextmanager
def replacing(path, durable: bool = True) -> Iterator[Path]:
    """Yield a temporary path beside `path` for the caller to create and
    write. When the block exits cleanly the file is renamed onto `path`,
    after it is synced to disk if `durable`; when it raises, the file is
    removed and `path` is left as it was. A file that can be rebuilt, and
    whose reader detects a torn write, can skip the sync.

    The temporary file is hidden (``.name.<uuid>.tmp``) in the target's
    directory, so the rename never crosses a file system. Callers create it
    with ``open(tmp, "x...")``, not `tempfile.mkstemp`, whose files are
    private (0600): the result keeps the permissions the umask gives any
    other file written there.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        yield tmp
        if durable:
            fd = os.open(tmp, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
