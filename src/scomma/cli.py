"""Command-line interface: compile, solve, check, bench, targets.

Exit codes are a stable contract:

    0  success (and, for solve, at least one solution)
    1  compilation diagnostics or other model-level failure, or an internal
       error (one ``error: internal error: <Type>: <message>`` line)
    2  usage error
    3  no solution (solve) / solution file violates constraints (check)
    4  the embedded solver does not support the model (emit with `compile`)
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .analyzer import TypedModel, analyze
from .backend import BackendDescriptor, compile_to_target, find_target, list_targets
from .backend.engine import load_descriptor_file
from .diagnostics import Diagnostic
from .errors import BackendError, ContractError, ScommaError, UnsupportedModelError
from .evaluate import check_solution
from .flattener import flatten
from .ir import FlatModel, FlatVar, SET, Solution
from .lexer import EOF, IDENT, INT, count_tokens
from .parser import TokenCursor, parse_data, parse_model
from .solver import (
    FIRST_FAIL,
    INPUT_ORDER,
    SearchConfig,
    VALUE_MAX,
    VALUE_MIN,
    build_space,
    optimize,
    solve,
)

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2
EXIT_NO_SOLUTION = 3
EXIT_UNSUPPORTED = 4


def _print_diags(diags: list[Diagnostic]) -> None:
    for d in diags:
        print(d.render(), file=sys.stderr)


class _LoadError(Exception):
    pass


def load_problem(model_path: str, data_paths: list[str]) -> tuple[TypedModel, FlatModel, list[str]]:
    """Parse, merge imports with explicit data files, analyze, flatten."""
    mpath = Path(model_path)
    try:
        text = mpath.read_text(encoding="utf-8")
    except OSError as exc:
        raise _LoadError(f"cannot read model file: {exc}") from exc
    model, diags = parse_model(text, str(mpath))
    _print_diags(diags)
    if model is None:
        raise _LoadError("model did not parse")

    from .nodes import DataFile

    data = DataFile()
    sources = [str((mpath.parent / imp)) for imp in model.imports] + list(data_paths)
    for source in sources:
        spath = Path(source)
        try:
            dtext = spath.read_text(encoding="utf-8")
        except OSError as exc:
            raise _LoadError(f"cannot read data file '{source}': {exc}") from exc
        part, ddiags = parse_data(dtext, str(spath))
        _print_diags(ddiags)
        if part is None:
            raise _LoadError(f"data file '{source}' did not parse")
        data, clashes = data.merged_with(part)
        if clashes:
            for c in clashes:
                print(f"{source}: error: {c}", file=sys.stderr)
            raise _LoadError("conflicting data files")

    tm, adiags = analyze(model, data)
    _print_diags(adiags)
    if tm is None:
        raise _LoadError("analysis failed")
    fm, _trace = flatten(tm)
    return tm, fm, [d.render() for d in adiags if d.severity == "warning"]


# ---------------------------------------------------------------------------
# Solution rendering and parsing
# ---------------------------------------------------------------------------


def _label_for(fm: FlatModel, var: FlatVar, value, warn: set[str]) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, frozenset):
        return "{" + ",".join(str(v) for v in sorted(value)) + "}"
    if var.enum_tag and var.base != SET:
        labels = fm.enum_types.get(var.enum_tag, ())
        if isinstance(value, int) and 1 <= value <= len(labels):
            return labels[value - 1]
        if var.name not in warn:
            warn.add(var.name)
            print(
                f"warning: value {value} of '{var.name}' has no label in enum"
                f" '{var.enum_tag}'; printing the integer",
                file=sys.stderr,
            )
    return str(value)


def render_solution(fm: FlatModel, sol: Solution) -> str:
    lines = []
    warn: set[str] = set()
    for var in fm.variables:
        values = sol.array(var)
        if not var.shape:
            lines.append(f"{var.name} = {_label_for(fm, var, values[0], warn)}")
        elif len(var.shape) == 1:
            body = ", ".join(_label_for(fm, var, v, warn) for v in values)
            lines.append(f"{var.name} = [{body}]")
        else:
            rows = ", ".join(
                "[" + ", ".join(_label_for(fm, var, v, warn) for v in row) + "]"
                for row in values
            )
            lines.append(f"{var.name} = [{rows}]")
    if sol.objective_value is not None:
        lines.append(f"objective = {sol.objective_value}")
    return "\n".join(lines)


def parse_solution_file(fm: FlatModel, text: str) -> Solution:
    """Read `name = value` lines (list syntax for arrays, labels allowed)."""
    values: dict = {}
    vars_by_name = {v.name: v for v in fm.variables}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("-", "=", "%", "//")):
            continue
        if "=" not in line:
            raise ContractError(f"solution line {lineno}: expected 'name = value'")
        name, _, rhs = line.partition("=")
        name = name.strip()
        if name == "objective":
            continue
        var = vars_by_name.get(name)
        if var is None:
            raise ContractError(f"solution line {lineno}: unknown variable '{name}'")
        parsed = _parse_value(rhs, fm, var, lineno)
        if not var.shape:
            values[(var.name, ())] = parsed
        elif len(var.shape) == 1:
            if not isinstance(parsed, list) or len(parsed) != var.shape[0]:
                raise ContractError(
                    f"solution line {lineno}: '{name}' needs {var.shape[0]} values"
                )
            for i, v in enumerate(parsed, start=1):
                values[(var.name, (i,))] = v
        else:
            rows, cols = var.shape
            if not isinstance(parsed, list) or len(parsed) != rows:
                raise ContractError(f"solution line {lineno}: '{name}' needs {rows} rows")
            for i, row in enumerate(parsed, start=1):
                if not isinstance(row, list) or len(row) != cols:
                    raise ContractError(
                        f"solution line {lineno}: row {i} of '{name}' needs {cols} values"
                    )
                for j, v in enumerate(row, start=1):
                    values[(var.name, (i, j))] = v
    return Solution(values)


def _parse_value(text: str, fm: FlatModel, var: FlatVar, lineno: int):
    """The value ``text`` gives ``var``: lists nested as deep as its shape,
    of integers, ``true``/``false``, labels of its enum or ``{...}`` integer
    sets.  Blank list and set entries are skipped."""
    cur = TokenCursor(text, "<solution>")
    labels = fm.enum_types.get(var.enum_tag, ()) if var.enum_tag else ()

    def entries(closer: str, entry) -> list:
        out = []
        while not cur.accept_symbol(closer):
            if not cur.accept_symbol(","):
                out.append(entry())
                if not cur.accept_symbol(","):
                    cur.expect_symbol(closer, "value")
                    break
        return out

    def integer() -> int:
        sign = -1 if cur.accept_symbol("-") else 1
        if sign == 1:
            cur.accept_symbol("+")
        if cur.cur.kind != INT:
            raise cur.fail(f"cannot read value {cur.describe(cur.cur)}")
        return sign * cur.advance().value

    def value(depth: int):
        if depth and cur.accept_symbol("["):
            return entries("]", lambda: value(depth - 1))
        if cur.accept_symbol("{"):
            return frozenset(entries("}", integer))
        if cur.at_keyword("true", "false"):
            return cur.advance().value
        if cur.cur.kind == IDENT and cur.cur.text in labels:
            return labels.index(cur.advance().text) + 1
        return integer()

    parsed = cur.run(value, len(var.shape))
    if parsed is not None and cur.cur.kind != EOF:
        cur.sink.error(f"unexpected {cur.describe(cur.cur)} after the value", cur.cur.span)
    if cur.sink.failed:
        raise ContractError(f"solution line {lineno}: {cur.sink.items[0].message}")
    return parsed


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_compile(args) -> int:
    try:
        _tm, fm, _ = load_problem(args.model, args.data)
    except _LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    target_name = "flat" if args.emit_flat or not args.target else args.target
    try:
        if target_name.endswith(".bd"):
            bd = load_descriptor_file(Path(target_name))
        else:
            bd = find_target(target_name)
        text = compile_to_target(fm, bd, no_rewrites=args.no_rewrites)
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    out = Path(args.out) if args.out else Path(args.model).with_suffix(bd.extension)
    out.write_text(text, encoding="utf-8")
    print(f"wrote {out}")
    return EXIT_OK


def _search_config(args) -> SearchConfig:
    limit = None if args.all else (args.limit if args.limit else 1)
    return SearchConfig(
        var_order=args.strategy,
        value_order=args.value_order,
        solution_limit=limit,
        time_limit=args.time_limit,
    )


def cmd_solve(args) -> int:
    try:
        _tm, fm, _ = load_problem(args.model, args.data)
    except _LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    try:
        space = build_space(fm)
    except UnsupportedModelError as exc:
        print(f"error: the embedded solver cannot handle this model:", file=sys.stderr)
        for c in exc.constructs:
            print(f"  - {c}", file=sys.stderr)
        print("hint: use 'scomma compile --target <name>' and run an external solver",
              file=sys.stderr)
        return EXIT_UNSUPPORTED
    cfg = _search_config(args)
    found = 0
    if fm.objective is not None:
        best, stats = optimize(space, cfg)
        if best is not None:
            found = 1
            print(render_solution(fm, best))
            print("----------")
            print("==========")
        search_stats = stats
        truncated = False
    else:
        search = solve(space, cfg)
        for sol in search:
            found += 1
            print(render_solution(fm, sol))
            print("----------")
        if not search.truncated and args.all:
            print("==========")
        search_stats = search.stats
        truncated = search.truncated
    if args.stats:
        for key, value in search_stats.as_dict().items():
            print(f"% {key} = {value}")
        if truncated:
            print("% truncated = true")
    return EXIT_OK if found else EXIT_NO_SOLUTION


def cmd_check(args) -> int:
    try:
        _tm, fm, _ = load_problem(args.model, args.data)
    except _LoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    try:
        text = Path(args.solution).read_text(encoding="utf-8")
        sol = parse_solution_file(fm, text)
        ok, violations = check_solution(fm, sol)
    except (ContractError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    if ok:
        print("solution satisfies all constraints")
        return EXIT_OK
    for v in violations:
        origin = fm.constraints[v.index].origin if v.index >= 0 else ""
        where = f" ({origin})" if origin else ""
        print(f"violated: {v}{where}")
    return EXIT_NO_SOLUTION


def _bench_one(path: Path, targets: list[BackendDescriptor], time_limit: float) -> dict:
    row: dict = {"name": path.stem, "status": "ok", "note": ""}
    try:
        tm, fm, _ = load_problem(str(path), [])
        source_tokens = count_tokens(path.read_text(encoding="utf-8"))
        for imp in tm.model.imports:
            source_tokens += count_tokens((path.parent / imp).read_text(encoding="utf-8"))
        row["variables"] = sum(v.element_count for v in fm.variables)
        row["constraints"] = len(fm.constraints)
        row["tokens_source"] = source_tokens
        for bd in targets:
            t0 = time.perf_counter()
            text = compile_to_target(fm, bd)
            row[f"emit_s_{bd.name}"] = round(time.perf_counter() - t0, 6)
            row[f"tokens_{bd.name}"] = count_tokens(text)
        t0 = time.perf_counter()
        try:
            space = build_space(fm)
        except UnsupportedModelError as exc:
            row["note"] = "emit-only: " + "; ".join(exc.constructs)
            row["solved"] = False
            return row
        cfg = SearchConfig(solution_limit=1, time_limit=time_limit)
        if fm.objective is not None:
            best, stats = optimize(space, cfg=SearchConfig(time_limit=time_limit))
            solutions = [best] if best is not None else []
        else:
            search = solve(space, cfg)
            solutions = list(search)
            stats = search.stats
        row["solved"] = bool(solutions)
        row["solve_time"] = round(time.perf_counter() - t0, 3)
        row["nodes"] = stats.nodes
        if solutions:
            ok, _ = check_solution(fm, solutions[0])
            row["verified"] = ok
    except (ScommaError, _LoadError, OSError) as exc:
        row["status"] = "failed"
        row["note"] = str(exc)
    return row


def cmd_bench(args) -> int:
    corpus = Path(args.corpus) if args.corpus else corpus_dir()
    if not corpus.is_dir():
        print(f"error: '{corpus}' is not a directory", file=sys.stderr)
        return EXIT_USAGE
    targets, _ = list_targets()
    rows = [
        _bench_one(path, targets, args.time_limit) for path in sorted(corpus.glob("*.scm"))
    ]
    columns = [
        "name", "status", "variables", "constraints", "tokens_source",
        "tokens_flat", "tokens_gecodej", "tokens_clp", "solved", "solve_time", "note",
    ]
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c)
              for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for r in rows:
        print("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns))
    report = Path(args.report)
    with report.open("w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(json.dumps(r, sort_keys=True) + "\n")
    print(f"report written to {report}")
    return EXIT_OK


def cmd_targets(_args) -> int:
    targets, warnings = list_targets()
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    for bd in targets:
        rules = ", ".join(name for name, _ in bd.rewrites) or "-"
        print(f"{bd.name:10s} extension={bd.extension:8s} rewrites: {rules}")
    return EXIT_OK


def corpus_dir() -> Path:
    from importlib import resources

    return Path(str(resources.files("scomma") / "corpus"))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scomma",
        description="Compile, solve, and inspect object-oriented constraint models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="flatten a model and emit target-solver text")
    c.add_argument("model")
    c.add_argument("data", nargs="*", help="extra data files merged with the imports")
    c.add_argument("--target", help="target name or a .bd descriptor path")
    c.add_argument("--emit-flat", action="store_true", help="emit the flat text format")
    c.add_argument("--out", help="output path (default: model path with target extension)")
    c.add_argument("--no-rewrites", action="store_true",
                   help="direct generation: skip the target's rewrite rules")
    c.set_defaults(fn=cmd_compile)

    s = sub.add_parser("solve", help="solve with the embedded finite-domain engine")
    s.add_argument("model")
    s.add_argument("data", nargs="*")
    s.add_argument("--all", action="store_true", help="enumerate every solution")
    s.add_argument("--limit", type=int, help="stop after this many solutions")
    s.add_argument("--stats", action="store_true", help="print search statistics")
    s.add_argument("--strategy", choices=[FIRST_FAIL, INPUT_ORDER], default=FIRST_FAIL)
    s.add_argument("--value-order", choices=[VALUE_MIN, VALUE_MAX], default=VALUE_MIN)
    s.add_argument("--time-limit", type=float, help="wall-clock limit in seconds")
    s.set_defaults(fn=cmd_solve)

    k = sub.add_parser("check", help="verify a solution file against a model")
    k.add_argument("model")
    k.add_argument("data", nargs="*")
    k.add_argument("--solution", required=True, help="file of 'name = value' lines")
    k.set_defaults(fn=cmd_check)

    b = sub.add_parser("bench", help="run the benchmark corpus and report")
    b.add_argument("corpus", nargs="?", help="corpus directory (default: built-in)")
    b.add_argument("--report", default="scomma-bench.jsonl",
                   help="machine-readable sidecar path")
    b.add_argument("--time-limit", type=float, default=10.0)
    b.set_defaults(fn=cmd_bench)

    t = sub.add_parser("targets", help="list available emission targets")
    t.set_defaults(fn=cmd_targets)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UnsupportedModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ScommaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except Exception as exc:  # a fault in scomma itself: one line, no traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS


if __name__ == "__main__":
    sys.exit(main())
