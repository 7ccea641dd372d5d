"""Source locations and compiler diagnostics.

Every token and AST node carries a :class:`SourceSpan` so that later phases
(analysis, flattening, backends) can point error messages at the exact input
region.  Diagnostics are plain values; phases collect them in lists instead of
raising on the first problem, which keeps error output stable and complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """A contiguous region of an input file (1-based line and column)."""

    filename: str
    line: int
    column: int
    length: int = 1

    def __post_init__(self) -> None:
        if self.line < 1 or self.column < 1:
            raise ValueError(f"span line/column must be >= 1, got {self.line}:{self.column}")

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """A single compiler message.  ``error`` aborts compilation, ``warning`` does not."""

    severity: str
    message: str
    span: SourceSpan

    def __post_init__(self) -> None:
        if self.severity not in (ERROR, WARNING):
            raise ValueError(f"bad severity {self.severity!r}")

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def render(self) -> str:
        return f"{self.span}: {self.severity}: {self.message}"


def error(message: str, span: SourceSpan) -> Diagnostic:
    return Diagnostic(ERROR, message, span)


def warning(message: str, span: SourceSpan) -> Diagnostic:
    return Diagnostic(WARNING, message, span)


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.is_error for d in diags)


@dataclass
class DiagnosticSink:
    """Accumulates diagnostics in emission order."""

    items: list[Diagnostic] = field(default_factory=list)

    def error(self, message: str, span: SourceSpan) -> None:
        self.items.append(Diagnostic(ERROR, message, span))

    def warning(self, message: str, span: SourceSpan) -> None:
        self.items.append(Diagnostic(WARNING, message, span))

    def extend(self, diags: list[Diagnostic]) -> None:
        self.items.extend(diags)

    @property
    def failed(self) -> bool:
        return has_errors(self.items)
