"""scomma's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; scomma is imported from ./src. The
workload runs in a fresh worker process (see worker.py), after set-up
probes in fresh processes of their own, one process at a time. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones; the lines before it print every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 4  # fresh processes timing set-up before the workload, and again after
DEADLINE_S = 170  # the whole run, however slow the machine


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child(args: list[str], deadline: float) -> dict:
    """Run the worker and return the JSON object it prints; the child is
    always waited for, and killed when the deadline passes."""
    proc = subprocess.Popen([sys.executable, str(WORKER), str(ROOT), *args],
                            stdout=subprocess.PIPE, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {' '.join(args)} passed the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def percentile_note(samples: list[float]) -> str:
    """The highest of p90/p99 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            return f", p{p} {statistics.quantiles(samples, n=100)[p - 1]:.6g}"
    return ""


def summary(res: dict, setup: list[float]) -> list[str]:
    """Every end-to-end metric the workload exercises, by name and unit."""
    ph, samples = res["phases"], res["samples"]
    rows = [("instance_s", "s", samples["instance_s"]), ("setup_s", "s", setup),
            ("compile_s", "s", samples["compile_s"])]
    if ph["emit_s"]:
        rows.append(("emit_s", "s", samples["emit_s"]))
    if ph["solve_s"]:
        rows.append(("solve_s", "s", samples["solve_s"]))
    lines = [f"{res['workload']}: {len(samples['instance_s'])} timed instances, "
             "closed loop, one client"]
    for name, unit, vals in rows:
        if vals:
            lines.append(f"  {name:12s} {statistics.median(vals):.6g} {unit} "
                         f"(median of {len(vals)}{percentile_note(vals)})")
    lines.append(f"  {'peak_rss_mb':12s} {res['peak_rss_mb']:.6g} MB")
    if ph["emit_bytes"]:
        lines.append(f"  {'emit_bytes':12s} {ph['emit_bytes']} bytes")
    lines.append(f"  {'error_rate':12s} {ph['error_rate']:.6g} "
                 f"({len(res['errors'])} of {res['attempted']} instances)")
    lines += [f"  error: {e}" for e in res["errors"][:20]]
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "scomma" / "__init__.py").is_file():
        return fail(f"no scomma source under {ROOT / 'src'}; run from a source checkout")
    deadline = time.monotonic() + DEADLINE_S
    try:
        child(["--setup-only"], deadline)  # fills the bytecode cache
        setup = [child(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        res = child(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        setup += [child(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    except (RuntimeError, ValueError) as exc:
        return fail(str(exc))
    setup.append(res["setup_s"])

    for line in summary(res, setup):
        print(line)
    if res["threads"] != 1:
        return fail(f"the worker ran {res['threads']} threads, expected 1")
    print("fingerprint " + json.dumps(res["fingerprint"], sort_keys=True))
    if args.trace:
        print("fingerprint-traced " + json.dumps(res["fingerprint_traced"], sort_keys=True))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values = res["per_layer"]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        values = {"instance_s": res["phases"]["instance_s"],
                  "compile_s": res["phases"]["compile_s"],
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": res["peak_rss_mb"]}
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {n: {"value": values.get(n, 0.0), "unit": units[n]} for n in names}
    if args.trace:
        for n in names:
            print(f"  {n} {metrics[n]['value']:.6g} {metrics[n]['unit']}")
    failed = len(res["errors"])
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
