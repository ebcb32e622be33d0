"""Exception types shared across the package."""

from __future__ import annotations

from contextlib import contextmanager


class FcmlabError(Exception):
    """Base class for every error raised by this package."""


class GridError(FcmlabError, ValueError):
    """Invalid grid construction or misaligned grid operands."""


class ConformalityError(FcmlabError, ValueError):
    """Design, observation, and coefficient shapes do not line up."""


class ValidationError(FcmlabError, ValueError):
    """Malformed input file, manifest, or generator configuration.

    Carries enough context (source path, line number, field path) for
    batch tooling to point at the offending location.
    """

    def __init__(
        self,
        message: str,
        *,
        source: object = None,
        line: int | None = None,
        field: str | None = None,
    ) -> None:
        super().__init__(message)
        self.source = source
        self.line = line
        self.field = field

    def __str__(self) -> str:
        parts = []
        if self.source is not None:
            parts.append(str(self.source))
        if self.line is not None:
            parts.append(f"line {self.line}")
        if self.field is not None:
            parts.append(f"field {self.field!r}")
        prefix = ", ".join(parts)
        base = super().__str__()
        return f"{prefix}: {base}" if prefix else base


@contextmanager
def naming(source, field: str | None = None):
    """Attribute every error raised inside the block to the input file ``source``.

    A :class:`ValidationError` that names no file gets ``source``, and
    ``field`` when it names none; a :class:`GridError` or
    :class:`ConformalityError` becomes a :class:`ValidationError` with
    its message, ``source`` and ``field``. A :class:`NearSingularError`
    passes unchanged. Each reader wraps the file it reads once, so the
    checks below it name only the JSON path of what they reject.
    """
    try:
        yield
    except ValidationError as exc:
        if exc.source is None:
            exc.source = source
            if exc.field is None:
                exc.field = field
        raise
    except (GridError, ConformalityError) as exc:
        raise ValidationError(str(exc), source=source, field=field) from None


class NearSingularError(FcmlabError, RuntimeError):
    """A normal matrix is numerically rank deficient.

    Signals a possibly non-identifiable design. Callers should either
    diagnose the design or switch to a truncated or penalized solver
    instead of trusting a direct solve.
    """

    def __init__(self, min_eig: float, max_eig: float) -> None:
        super().__init__(
            "normal matrix is near singular: "
            f"min eigenvalue {min_eig:.6e}, max eigenvalue {max_eig:.6e}"
        )
        self.min_eig = float(min_eig)
        self.max_eig = float(max_eig)
