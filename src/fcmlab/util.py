"""Small shared helpers: input text and JSON reads, atomic file and CSV writes, JSON value checks, rank counting."""

from __future__ import annotations

import json
import os
import secrets
import sys
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from fcmlab.errors import ValidationError

# Cells of CSV text that ``write_csv`` formats and writes at a time. A
# budget in cells keeps blocks of wide row tables as small as a curve's.
_BLOCK_CELLS = 16384

# The text of every CSV cell: it round-trips every double and prints
# integers as plain digits.
CELL_FORMAT = "%.17g"

# Default relative rank cuts: of the truncated and direct solvers in
# `estimator`, and of the Gram spectrum and the recurrence residuals in
# `identifiability`.
DEFAULT_SVD_RTOL = 1e-10
DEFAULT_RESIDUAL_TOL = 1e-8

_JSON_TYPE_NAMES = {
    float: "a finite number",
    int: "an integer",
    bool: "true or false",
    str: "a string",
    list: "a list",
}


def read_text(path) -> str:
    """The UTF-8 text of ``path``, with ``\\r\\n`` and ``\\r`` read as ``\\n`` (universal newlines).

    Bytes that are not UTF-8 raise :class:`ValidationError` naming the file and their line.
    """
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"not UTF-8 text: {exc.reason}", source=path, line=line) from None


def read_json_object(path, not_an_object: str) -> dict:
    """Parse the JSON file ``path``, which must hold an object (else raise ``not_an_object``).

    Every failure, undecodable bytes and too deep nesting included, is a
    :class:`ValidationError` naming ``path``.
    """
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}", source=path) from None
    except RecursionError:
        raise ValidationError("invalid JSON: nested too deeply", source=path) from None
    if not isinstance(raw, dict):
        raise ValidationError(not_an_object, source=path)
    return raw


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


def block_rows(width: int) -> int:
    """Rows of ``width`` cells that one block of CSV text holds (at least one)."""
    return max(1, _BLOCK_CELLS // width)


def write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write ``columns`` of equal length under ``header`` as CSV, atomically.

    A 2-D column fills several cells of a row. Every cell is formatted
    with :data:`CELL_FORMAT`.
    """
    cols = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    width = sum(c.shape[1] for c in cols)
    template = ",".join([CELL_FORMAT] * width) + "\n"
    rows = block_rows(width)

    def blocks():
        yield ",".join(header) + "\n"
        for k in range(0, len(cols[0]), rows):
            block = np.concatenate([c[k : k + rows] for c in cols], axis=1, dtype=float)
            yield "".join([template % tuple(r) for r in block.tolist()])

    atomic_write(path, blocks())


def json_value(value, kind: type, key: str, field: str | None = None):
    """Return the parsed JSON ``value`` if it has type ``kind``.

    A boolean is never a number. ``float`` accepts any finite JSON number,
    integers included, and returns a float; ``int`` accepts JSON integers
    only; a ``str`` holds no NUL byte, which no file path may hold. Otherwise
    raises :class:`ValidationError` naming ``key`` and the JSON path
    ``field`` (default ``key``).
    """
    field = key if field is None else field
    if kind is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if abs(value) <= sys.float_info.max:  # false for nan, inf and huge integers
                return float(value)
    elif isinstance(value, kind) and (kind is bool) == isinstance(value, bool):
        if kind is str and "\0" in value:
            raise ValidationError(f"NUL byte in {key!r}", field=field)
        return value
    raise ValidationError(
        f"expected {_JSON_TYPE_NAMES[kind]} for {key!r}, got {type(value).__name__}", field=field
    )


# The default of a key that :func:`json_entry` requires.
_REQUIRED = object()


def json_entry(mapping: Mapping, key: str, kind: type, default=_REQUIRED, field: str = ""):
    """:func:`json_value` of ``mapping[key]``; ``default`` when the key is absent.

    A key with no ``default`` is required. Errors name the JSON path
    ``field.key`` (``key`` itself when ``field`` is empty).
    """
    path = f"{field}.{key}" if field else key
    if key in mapping:
        return json_value(mapping[key], kind, key, path)
    if default is _REQUIRED:
        raise ValidationError(f"missing required key {key!r}", field=path)
    return default


def reject_non_finite(value, field: str = "") -> None:
    """Raise :class:`ValidationError` at the first non-finite number in ``value``.

    Walks parsed JSON objects and lists; the error names the JSON path of
    the number, such as ``noise.sd`` or ``beta0[0]``.
    """
    if isinstance(value, Mapping):
        for key, item in value.items():
            reject_non_finite(item, f"{field}.{key}" if field else str(key))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            reject_non_finite(item, f"{field}[{k}]")
    elif isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{value!r} is not a finite number", field=field)


def numerical_rank(values: np.ndarray, tol: float) -> int:
    """Count entries of a spectrum at or above ``tol`` times its max.

    ``values`` may arrive in any order. Negative entries never count,
    and a spectrum whose largest entry is nonpositive has rank 0. The
    relative cut ``tol`` must lie in ``(0, 1]``.
    """
    if not 0.0 < tol <= 1.0:
        raise ValueError(f"rank tolerance must lie in (0, 1], got {tol!r}")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0
    top = float(values.max())
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(values >= tol * top))
