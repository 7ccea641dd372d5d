"""Exception types shared across the compiler, evaluator, backends, and solver."""

from __future__ import annotations


class ScommaError(Exception):
    """Base class for all errors raised by this package."""


class EvalError(ScommaError):
    """Runtime error while evaluating an expression (division by zero,
    inexact integer division, type misuse that slipped past analysis)."""


class OutOfBoundsError(EvalError, IndexError):
    """Array index outside the declared bounds.  Also an ``IndexError`` so
    generic callers can catch it the usual way."""

    def __init__(self, name: str, index: tuple[int, ...]):
        self.name = name
        self.index = index
        idx = ",".join(str(i) for i in index)
        super().__init__(f"index [{idx}] out of bounds for '{name}'")


class ContractError(ScommaError):
    """A caller violated an operation precondition (e.g. a partial assignment
    passed where a total one is required)."""


class FlattenError(ScommaError):
    """Flattening cannot proceed; carries the pipeline pass that failed and
    the source span of the construct at fault."""

    def __init__(self, message: str, pass_name: str = "", span=None):
        self.pass_name = pass_name
        if span is not None:
            message = f"{span}: {message}"
        super().__init__(f"[{pass_name}] {message}" if pass_name else message)


class BackendError(ScommaError):
    """Code generation failed: bad descriptor, missing template/field, or a
    construct the target cannot express."""


class UnsupportedModelError(ScommaError):
    """The embedded solver cannot handle this flat model.  ``constructs``
    lists the offending features so the caller can fall back to emission."""

    def __init__(self, constructs: list[str]):
        self.constructs = list(constructs)
        super().__init__("unsupported constructs: " + ", ".join(self.constructs))
