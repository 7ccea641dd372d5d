"""One workload run, in a fresh single-threaded process started by run.py.

    python3 perfbench/worker.py ROOT --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py ROOT --setup-only

Imports scomma from ROOT/src, runs one untimed warm-up instance, then runs
instances back to back (a closed loop with one client) for about S seconds,
and prints one JSON object with the raw samples and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, self_seconds, total_seconds  # noqa: E402
from workloads import WORKLOADS, Instance, Outcome, Workload  # noqa: E402

clock = time.perf_counter

LAYERS = ("bench", "parser", "analyzer", "flattener", "backend", "solver", "evaluate")
TARGETS = ("flat", "gecodej", "clp")
PASSES = ("substitute_enums", "substitute_data", "unroll_loops",
          "expand_composition", "remove_conditionals", "normalize_logic")

# Every per-layer metric: name, unit, better. Counts are the mean over the
# run's first ``prefix`` timed instances and repeat exactly; times are
# per-instance medians.
PER_LAYER = (
    [("parser.parse_model_s", "s", "lower"), ("parser.parse_data_s", "s", "lower"),
     ("lexer.source_tokens", "count", "lower"), ("parser.tokens_per_s", "1/s", "higher"),
     ("analyzer.analyze_s", "s", "lower"), ("flattener.flatten_s", "s", "lower")]
    + [(f"flattener.{p}_s", "s", "lower") for p in PASSES]
    + [("flattener.build_flat_model_s", "s", "lower"),
       ("flattener.trace_overhead_s", "s", "lower")]
    + [(f"flattener.nodes_after.{p}", "count", "lower") for p in PASSES]
    + [("flattener.flat_constraints", "count", "lower"), ("flattener.flat_vars", "count", "lower")]
    + [(f"backend.{m}.{t}", u, "lower") for m, u in (("rewrite_s", "s"), ("emit_s", "s"),
                                                     ("bytes", "bytes")) for t in TARGETS]
    + [("solver.build_space_s", "s", "lower"), ("solver.cells", "count", "lower"),
       ("solver.propagators", "count", "lower"), ("solver.search_s", "s", "lower"),
       ("solver.nodes", "count", "lower"), ("solver.failures", "count", "lower"),
       ("solver.propagations", "count", "lower"), ("solver.props_per_node", "ratio", "lower"),
       ("solver.us_per_node", "us", "lower"), ("solver.fail_ratio", "ratio", "lower"),
       ("solver.solutions", "count", "higher"),
       ("evaluate.check_s", "s", "lower"), ("evaluate.solutions_checked", "count", "lower")]
    + [(f"self_s.{layer}", "s", "lower") for layer in LAYERS]
    + [("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower"),
       ("phase.compile_s", "s", "lower"), ("phase.emit_s", "s", "lower"),
       ("phase.solve_s", "s", "lower"), ("phase.emit_bytes", "bytes", "lower"),
       ("phase.error_rate", "ratio", "lower"), ("phase.samples", "count", "higher")]
)


def import_scomma(root: Path):
    """``import scomma`` plus ``list_targets()``: what every CLI call pays."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = clock()
    import scomma

    targets, _ = scomma.list_targets()
    seconds = clock() - t0
    if Path(scomma.__file__).resolve().parent != src / "scomma":
        raise SystemExit(f"imported scomma from {scomma.__file__}, not from {src}")
    return scomma, targets, seconds


class Pipeline:
    """The calls one instance makes into scomma's public API, optionally with
    a span around each call."""

    def __init__(self, sc, targets, wl: Workload):
        import scomma.flattener
        import scomma.lexer
        import scomma.solver

        self.sc = sc
        self.flattener = scomma.flattener
        self.lexer = scomma.lexer
        self.solver = scomma.solver
        self.targets = [bd for bd in targets if bd.name in TARGETS]
        self.wl = wl

    @staticmethod
    def _call(tracer: Tracer | None, name: str, fn, *args):
        if tracer is None:
            return fn(*args)
        with tracer.span(name):
            return fn(*args)

    @staticmethod
    def _ok(result, what: str):
        value, diags = result
        if value is None:
            raise RuntimeError(f"{what} failed: " + "; ".join(d.render() for d in diags))
        return value

    def front(self, inst: Instance, tracer: Tracer | None):
        sc, call = self.sc, self._call
        model = self._ok(call(tracer, "parser.parse_model", sc.parse_model, inst.model,
                              "model.scm"), "parse_model")
        data = None
        if inst.data is not None:
            data = self._ok(call(tracer, "parser.parse_data", sc.parse_data, inst.data,
                                 "data.dat"), "parse_data")
        return self._ok(call(tracer, "analyzer.analyze", sc.analyze, model, data), "analyze")

    def run(self, inst: Instance, tracer: Tracer | None = None) -> tuple[Outcome, dict]:
        """Model and data text in, result out; returns the outcome and the
        phase times."""
        sc, call, wl = self.sc, self._call, self.wl
        out = Outcome()
        t0 = clock()
        tm = self.front(inst, tracer)
        t1 = clock()
        out.fm, out.passes = call(tracer, "flattener.flatten", sc.flatten, tm)
        t2 = clock()
        if wl.emits:
            for bd in self.targets:
                if tracer is None:
                    text = sc.compile_to_target(out.fm, bd)
                else:
                    fm = call(tracer, f"backend.rewrite.{bd.name}", sc.apply_rewrites,
                              out.fm, bd.rewrites)
                    text = call(tracer, f"backend.emit.{bd.name}", sc.emit, fm, bd)
                out.emitted[bd.name] = text
        t3 = clock()
        if wl.search:
            space = call(tracer, "solver.build_space", sc.build_space, out.fm)
            out.cells, out.propagators = len(space.mask), len(space.props)
            if tracer is None:
                self._search(space, out)
            else:
                self._traced_search(space, out, tracer)
        t4 = clock()
        return out, {"compile_s": t2 - t0, "flatten_s": t2 - t1, "emit_s": t3 - t2,
                     "solve_s": t4 - t3, "instance_s": t4 - t0}

    def _search(self, space, out: Outcome) -> None:
        if self.wl.search == "all":
            search = self.sc.solve(space)
            out.solutions = list(search)
            out.stats = search.stats
        else:
            best, out.stats = self.sc.optimize(space)
            out.solutions = [best] if best is not None else []

    def _traced_search(self, space, out: Outcome, tracer: Tracer) -> None:
        """The search, with a span around each solution check the solver
        makes through ``evaluate.check_solution``."""
        original = self.solver.check_solution

        def check_solution(fm, sol):
            with tracer.span("evaluate.check_solution"):
                return original(fm, sol)

        self.solver.check_solution = check_solution
        try:
            with tracer.span("solver.search"):
                self._search(space, out)
        finally:
            self.solver.check_solution = original

    def probe(self, inst: Instance, tracer: Tracer):
        """Drive the flattener's passes one by one from outside; returns the
        source token count and the flat model."""
        call, fl = self._call, self.flattener
        with tracer.span("probe"):
            tokens = call(tracer, "lexer.count_tokens", lambda: sum(
                self.lexer.count_tokens(t) for t in (inst.model, inst.data) if t is not None))
            tm = self.front(inst, None)
            state = call(tracer, "flattener.state_from_typed_model", fl.state_from_typed_model, tm)
            for name, pass_fn in fl.PIPELINE:
                state = call(tracer, f"flattener.{name}", pass_fn, state)
            fm = call(tracer, "flattener.build_flat_model", fl.build_flat_model, state)
        return tokens, fm


def counts(out: Outcome) -> dict:
    """The exact counts of one instance: the run's fingerprint."""
    c = {"flat_constraints": len(out.fm.constraints),
         "flat_vars": sum(v.element_count for v in out.fm.variables),
         "nodes_after": [after for _, _, after in out.passes.steps]}
    for target, text in out.emitted.items():
        data = text.encode("utf-8")
        c[f"bytes.{target}"] = len(data)
        c[f"sha256.{target}"] = hashlib.sha256(data).hexdigest()
    if out.stats is not None:
        c.update(nodes=out.stats.nodes, failures=out.stats.failures,
                 propagations=out.stats.propagations, solutions=len(out.solutions),
                 cells=out.cells, propagators=out.propagators)
    return c


def attempt(fn):
    """(result, None), or (None, message) when anything raises; an error in
    one instance must not stop the run."""
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - recorded and counted as a failure
        return None, f"{type(exc).__name__}: {str(exc)[:300]}"


class Run:
    def __init__(self, pipe: Pipeline, wl: Workload, trace: bool):
        self.pipe, self.wl, self.trace = pipe, wl, trace
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.errors: list[str] = []
        self.records: list[dict] = []

    def one(self, inst: Instance, index: int, tracer: Tracer | None) -> dict | None:
        """Run and check one instance; None when it failed."""
        self.attempted += 1
        if tracer is not None:
            tracer.instance = index
            result, err = attempt(lambda: self._traced(inst, tracer))
        else:
            result, err = attempt(lambda: self.pipe.run(inst))
        if err:
            self.errors.append(f"instance {index}: {err}")
            return None
        out, phases = result
        problem, err = attempt(lambda: self.wl.check(inst, out))
        if err or problem:
            self.errors.append(f"instance {index}: reference check: {err or problem}")
            return None
        return {"phases": phases, "counts": counts(out), "out": out}

    def _traced(self, inst: Instance, tracer: Tracer):
        with tracer.span("instance"):
            return self.pipe.run(inst, tracer)

    def loop(self, seed: int, seconds: float) -> None:
        rng = random.Random(seed)
        warm = self.wl.generate(rng)
        rec = self.one(warm, 0, None)  # untimed, and its flat emit read back
        if rec is not None and self.wl.emits:
            self._round_trip(rec["out"])
        start = clock()
        index = 0
        while True:
            index += 1
            inst = self.wl.generate(rng)
            t0 = clock()
            if not self.trace:
                rec = self.one(inst, index, None)
            elif index % 2:  # alternate which of the pair runs first
                rec = self._add_trace(self.one(inst, index, None), inst, index)
            else:
                rec = self._add_trace(None, inst, index)
            if rec is not None:
                rec.pop("out")
                self.records.append(rec)
            last = clock() - t0
            if index >= self.wl.prefix and clock() - start + last > seconds:
                break

    def _add_trace(self, rec: dict | None, inst: Instance, index: int) -> dict | None:
        """The instance with spans, the untraced run of it when ``rec`` is
        None, and the flattener probe."""
        traced = self.one(inst, index, self.tracer)
        if rec is None:
            rec = self.one(inst, index, None)
        if traced is None or rec is None:
            return None
        probe, err = attempt(lambda: self.pipe.probe(inst, self.tracer))
        if err:
            self.errors.append(f"instance {index}: probe: {err}")
            return None
        tokens, fm = probe
        if fm != traced["out"].fm:
            self.errors.append(f"instance {index}: the driven passes built another flat model")
            return None
        traced.pop("out")
        rec.update(traced=traced, tokens=tokens, index=index)
        return rec

    def _round_trip(self, out: Outcome) -> None:
        """The flat emit reads back through parse_flat with every constraint
        (the reference check has counted the constraints in that text)."""
        fm, diags = self.pipe.sc.parse_flat(out.emitted["flat"])
        if fm is None or len(fm.constraints) != len(out.fm.constraints):
            self.errors.append("parse_flat round trip lost constraints: "
                               + "; ".join(d.render() for d in diags))


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean_counts(records: list[dict], prefix: int) -> dict:
    """Mean of each numeric count over the first ``prefix`` records."""
    head = [r["counts"] for r in records[:prefix]]
    if not head:
        return {}
    out = {}
    for name, value in head[0].items():
        if isinstance(value, (int, float)):
            out[name] = sum(h.get(name, 0) for h in head) / len(head)
        elif isinstance(value, list):
            out[name] = [sum(h[name][i] for h in head) / len(head) for i in range(len(value))]
    return out


def per_layer(run: Run) -> dict[str, float]:
    recs = [r for r in run.records if "traced" in r]
    tr = run.tracer
    inst_spans = [tr.of_instance(r["index"], "instance") for r in recs]
    probe_spans = [tr.of_instance(r["index"], "probe") for r in recs]

    def med(fn) -> float:
        return median([fn(i) for i in range(len(recs))])

    def span_s(name: str, spans=inst_spans):
        return med(lambda i: total_seconds(spans[i], name))

    def prefix_mean(values: list) -> float:
        head = values[: run.wl.prefix]
        return sum(head) / len(head) if head else 0.0

    c = mean_counts(recs, run.wl.prefix)
    m: dict[str, float] = {}
    parse_s = [total_seconds(s, "parser.parse_model") + total_seconds(s, "parser.parse_data")
               for s in inst_spans]
    tokens = [r["tokens"] for r in recs]
    m["parser.parse_model_s"] = span_s("parser.parse_model")
    m["parser.parse_data_s"] = span_s("parser.parse_data")
    m["lexer.source_tokens"] = prefix_mean(tokens)
    m["parser.tokens_per_s"] = median([t / p for t, p in zip(tokens, parse_s) if p > 0])
    m["analyzer.analyze_s"] = span_s("analyzer.analyze")
    m["flattener.flatten_s"] = span_s("flattener.flatten")
    for p in PASSES:
        m[f"flattener.{p}_s"] = span_s(f"flattener.{p}", probe_spans)
    m["flattener.build_flat_model_s"] = span_s("flattener.build_flat_model", probe_spans)
    driven = [sum(s.seconds for s in spans if s.layer == "flattener") for spans in probe_spans]
    m["flattener.trace_overhead_s"] = median(
        [r["phases"]["flatten_s"] - d for r, d in zip(recs, driven)])
    for p, after in zip(PASSES, c.get("nodes_after", [0] * len(PASSES))):
        m[f"flattener.nodes_after.{p}"] = after
    m["flattener.flat_constraints"] = c.get("flat_constraints", 0)
    m["flattener.flat_vars"] = c.get("flat_vars", 0)
    for t in TARGETS:
        m[f"backend.rewrite_s.{t}"] = span_s(f"backend.rewrite.{t}")
        m[f"backend.emit_s.{t}"] = span_s(f"backend.emit.{t}")
        m[f"backend.bytes.{t}"] = c.get(f"bytes.{t}", 0)
    m["solver.build_space_s"] = span_s("solver.build_space")
    m["solver.cells"] = c.get("cells", 0)
    m["solver.propagators"] = c.get("propagators", 0)
    m["solver.search_s"] = span_s("solver.search")
    nodes = c.get("nodes", 0)
    for k in ("nodes", "failures", "propagations", "solutions"):
        m[f"solver.{k}"] = c.get(k, 0)
    m["solver.props_per_node"] = c.get("propagations", 0) / nodes if nodes else 0.0
    m["solver.fail_ratio"] = c.get("failures", 0) / nodes if nodes else 0.0
    m["solver.us_per_node"] = median([
        1e6 * total_seconds(s, "solver.search") / r["traced"]["counts"]["nodes"]
        for s, r in zip(inst_spans, recs) if r["traced"]["counts"].get("nodes")])
    checks = [[s for s in spans if s.name == "evaluate.check_solution"] for spans in inst_spans]
    m["evaluate.check_s"] = median([sum(s.seconds for s in cs) / len(cs) for cs in checks if cs])
    m["evaluate.solutions_checked"] = prefix_mean([len(cs) for cs in checks])
    selfs = [self_seconds(spans) for spans in inst_spans]
    for layer in LAYERS:
        key = "instance" if layer == "bench" else layer
        m[f"self_s.{layer}"] = median([s.get(key, 0.0) for s in selfs])
    m["trace.overhead_s"] = median([r["traced"]["phases"]["instance_s"] - r["phases"]["instance_s"]
                                    for r in recs])
    m["trace.spans"] = prefix_mean([len(s) for s in inst_spans])
    phases = phase_metrics(run)
    for k in ("compile_s", "emit_s", "solve_s", "emit_bytes", "error_rate", "samples"):
        m[f"phase.{k}"] = phases[k]
    return m


def phase_metrics(run: Run) -> dict[str, float]:
    """Phase medians of the untraced instances, emitted bytes, error rate."""
    ph = [r["phases"] for r in run.records]
    wl = run.wl
    c = run.records[0]["counts"] if run.records else {}
    return {
        "instance_s": median([p["instance_s"] for p in ph]),
        "compile_s": median([p["compile_s"] for p in ph]),
        "emit_s": median([p["emit_s"] for p in ph]) if wl.emits else 0.0,
        "solve_s": median([p["solve_s"] for p in ph]) if wl.search else 0.0,
        "emit_bytes": sum(c.get(f"bytes.{t}", 0) for t in TARGETS),
        "error_rate": len(run.errors) / max(1, run.attempted),
        "samples": len(ph),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("root", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sc, targets, setup_s = import_scomma(args.root)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    wl = WORKLOADS[args.workload]
    run = Run(Pipeline(sc, targets, wl), wl, bool(args.trace))
    run.loop(args.seed, args.seconds)
    result = {
        "workload": wl.name,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "threads": threading.active_count(),
        "attempted": run.attempted,
        "errors": run.errors,
        "samples": {k: [r["phases"][k] for r in run.records]
                    for k in ("instance_s", "compile_s", "emit_s", "solve_s")},
        "phases": phase_metrics(run),
        "fingerprint": [r["counts"] for r in run.records[: wl.prefix]],
    }
    if args.trace:
        result["per_layer"] = per_layer(run) if run.records else {}
        result["fingerprint_traced"] = [r["traced"]["counts"] for r in run.records[: wl.prefix]]
        spans = args.root / ".perfbench" / f"trace-{wl.name}-{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        run.tracer.write(spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
