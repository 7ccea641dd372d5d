"""Flat intermediate representation: plain variables plus flat constraints.

A flat model is what backends render and the embedded solver consumes.  All
object structure, loops, conditionals, enum literals, and data constants are
gone; what remains is a list of typed variables with finite domains, constant
tables referenced by element constraints, flat constraint expressions, the
enum label tables needed to render solutions, and an optional objective.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, product
from typing import Iterator, Union

from . import nodes
from .diagnostics import SourceSpan
from .nodes import Expr, Ref

INT = "int"
REAL = "real"
BOOL = "bool"
SET = "set"

BASES = (INT, REAL, BOOL, SET)


@dataclass(frozen=True)
class IntInterval:
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo},{self.hi}]")

    def __contains__(self, v: object) -> bool:
        return isinstance(v, int) and self.lo <= v <= self.hi

    def values(self) -> range:
        return range(self.lo, self.hi + 1)

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class RealInterval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo},{self.hi}]")

    def __contains__(self, v: object) -> bool:
        return isinstance(v, (int, float)) and self.lo <= v <= self.hi


@dataclass(frozen=True)
class IntSet:
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("explicit domain must be non-empty")
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))

    def __contains__(self, v: object) -> bool:
        return v in self.members

    def values(self) -> tuple[int, ...]:
        return self.members

    @property
    def size(self) -> int:
        return len(self.members)


Domain = Union[IntInterval, RealInterval, IntSet]


def iter_indices(dims: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All 1-based index tuples of an array of shape ``dims``, row-major;
    just ``()`` for a scalar shape."""
    return product(*(range(1, d + 1) for d in dims))


@dataclass
class FlatVar:
    """One flat decision variable (scalar, array, or matrix).

    ``shape`` is ``()`` for a scalar, ``(n,)`` for an array, ``(r, c)`` for a
    matrix.  ``enum_tag`` names the enumeration whose labels render this
    variable's values in solutions.
    """

    name: str
    base: str
    shape: tuple[int, ...] = ()
    domain: Domain = None  # type: ignore[assignment]
    enum_tag: str | None = None

    def __post_init__(self) -> None:
        if self.base not in BASES:
            raise ValueError(f"bad base type {self.base!r}")
        if any(n < 1 for n in self.shape):
            raise ValueError(f"array/matrix sizes must be >= 1, got {self.shape}")

    @property
    def element_count(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def type_label(self) -> str:
        """The type word used in flat renderings: enum tag when present."""
        if self.base == SET:
            return "set of " + (self.enum_tag or "int")
        return self.enum_tag or self.base


@dataclass
class Table:
    """A constant array kept in the model because constraints index it with a
    non-constant subscript (a classic element constraint over constants)."""

    name: str
    shape: tuple[int, ...]
    values: tuple  # flat row-major tuple of int/float

    def lookup(self, index: tuple[int, ...]):
        """1-based lookup; raises IndexError outside bounds."""
        if len(index) != len(self.shape):
            raise IndexError(index)
        offset = 0
        for i, n in zip(index, self.shape):
            if not 1 <= i <= n:
                raise IndexError(index)
            offset = offset * n + i - 1
        return self.values[offset]

    def rows(self) -> list[tuple]:
        if len(self.shape) == 1:
            return [self.values]
        c = self.shape[1]
        return [self.values[i * c : (i + 1) * c] for i in range(self.shape[0])]


@dataclass
class FlatConstraint:
    expr: Expr
    origin: str = field(default="", compare=False)


@dataclass
class FlatObjective:
    kind: str  # "minimize" | "maximize"
    expr: Expr


@dataclass
class FlatModel:
    name: str
    variables: list[FlatVar] = field(default_factory=list)
    constraints: list[FlatConstraint] = field(default_factory=list)
    enum_types: dict[str, tuple[str, ...]] = field(default_factory=dict)
    tables: dict[str, Table] = field(default_factory=dict)
    objective: FlatObjective | None = None
    # the solution check compiled by evaluate.compile_check on first use, then
    # reused; a model is not changed in place once it has been checked
    _check: object = field(default=None, init=False, repr=False, compare=False)

    def var_named(self, name: str) -> FlatVar | None:
        for v in self.variables:
            if v.name == name:
                return v
        return None

    def all_exprs(self) -> Iterator[Expr]:
        for c in self.constraints:
            yield c.expr
        if self.objective is not None:
            yield self.objective.expr


FLATNESS_BANNED = (nodes.EnumRef,)


def flatness_violations(fm: FlatModel) -> list[tuple[str, SourceSpan | None]]:
    """Machine check of the flat invariants: every reference resolves to a
    declared variable or table, indices are in bounds when constant, and no
    unresolved construct survives.  Each problem is its text and the span of
    the node it names; a problem with a declaration has no span."""
    problems: list[tuple[str, SourceSpan | None]] = []
    vars_by_name = {v.name: v for v in fm.variables}
    for ci, expr in enumerate(fm.all_exprs()):
        for node in nodes.walk(expr):
            if isinstance(node, FLATNESS_BANNED):
                problems.append(
                    (f"constraint {ci}: unresolved node {type(node).__name__}", node.span)
                )
            if isinstance(node, Ref):
                if len(node.parts) != 1:
                    problems.append(
                        (f"constraint {ci}: dotted reference survives flattening", node.span)
                    )
                    continue
                part = node.parts[0]
                v = vars_by_name.get(part.name)
                t = fm.tables.get(part.name)
                if v is None and t is None:
                    problems.append((f"constraint {ci}: unknown name '{part.name}'", node.span))
                    continue
                shape = v.shape if v is not None else t.shape
                if part.indices and len(part.indices) != len(shape):
                    problems.append((
                        f"constraint {ci}: '{part.name}' takes {len(shape)} indices,"
                        f" got {len(part.indices)}",
                        node.span,
                    ))
                    continue
                for dim, idx in zip(shape, part.indices):
                    if isinstance(idx, nodes.IntLit) and not (1 <= idx.value <= dim):
                        problems.append((
                            f"constraint {ci}: index {idx.value} outside 1..{dim}"
                            f" for '{part.name}'",
                            idx.span or node.span,
                        ))
    counts = Counter(chain((v.name for v in fm.variables), fm.tables))
    for n in sorted(n for n, k in counts.items() if k > 1):
        problems.append((f"duplicate flat name '{n}'", None))
    for v in fm.variables:
        if v.enum_tag is not None and v.base != SET:
            labels = fm.enum_types.get(v.enum_tag)
            if labels is None:
                problems.append(
                    (f"variable '{v.name}': enum tag '{v.enum_tag}' not recorded", None)
                )
            elif isinstance(v.domain, IntInterval) and v.domain.size != len(labels):
                problems.append((
                    f"variable '{v.name}': domain width {v.domain.size} does not match"
                    f" enum '{v.enum_tag}' cardinality {len(labels)}",
                    None,
                ))
    return problems


# ---------------------------------------------------------------------------
# Solutions
# ---------------------------------------------------------------------------

SolutionKey = tuple[str, tuple[int, ...]]


@dataclass
class Solution:
    """A value for every flat variable element, keyed by (name, index tuple).

    Scalars use the empty index tuple.  Set-variable values are frozensets of
    ints; everything else is an int (bools as 0/1) or float.
    """

    values: dict[SolutionKey, object] = field(default_factory=dict)
    objective_value: object | None = None

    def get(self, name: str, *index: int):
        return self.values[(name, tuple(index))]

    def array(self, var: FlatVar) -> list:
        """Values of ``var`` in element order (nested lists for matrices)."""
        if not var.shape:
            return [self.values[(var.name, ())]]
        if len(var.shape) == 1:
            return [self.values[(var.name, (i,))] for i in range(1, var.shape[0] + 1)]
        return [
            [self.values[(var.name, (i, j))] for j in range(1, var.shape[1] + 1)]
            for i in range(1, var.shape[0] + 1)
        ]

    def as_frozen(self) -> frozenset:
        return frozenset(self.values.items())
