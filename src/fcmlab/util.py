"""Small shared helpers: atomic file writes and rank counting."""

from __future__ import annotations

import os
import secrets
from pathlib import Path
from typing import Iterable

import numpy as np


def atomic_write(path, chunks: Iterable[str]) -> None:
    """Write the strings ``chunks`` to ``path`` through a temp file and rename.

    The temp file gets a random hidden name in the destination directory
    and is created with mode ``0o666``, so the umask applies as it does
    for a plain ``open``. Chunks are written as they arrive, so a
    generator of lines never holds the whole file in memory. If writing
    fails, the temp file is removed and an existing ``path`` is left
    unchanged; readers never observe partial output.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def numerical_rank(values: np.ndarray, tol: float) -> int:
    """Count entries of a nonnegative spectrum at or above ``tol`` times its max.

    ``values`` may arrive in any order; nonpositive spectra have rank 0.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0
    top = float(values.max())
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(values >= tol * top))
