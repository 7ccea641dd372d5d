"""Exact-repeat check: runs on the same seed must agree on every count.

    python3 perfbench/repeat_check.py [--seed N]

Runs each workload three times on one seed with ``--seconds 1``, so that
only the fingerprint instances run: untraced under two different
PYTHONHASHSEED values, and traced. The emitted bytes, the per-target
SHA-256 of the emission, and the node, failure, propagation and solution
counts of each fingerprint instance must be identical across the three.
Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def fingerprints(workload: str, seed: int, trace: int, hash_seed: str) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr}")
    return [line.split(" ", 1)[1] for line in proc.stdout.splitlines()
            if line.startswith(("fingerprint ", "fingerprint-traced "))]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    bad = 0
    for name in WORKLOADS:
        a = fingerprints(name, args.seed, 0, "1")
        b = fingerprints(name, args.seed, 0, "2")
        c = fingerprints(name, args.seed, 1, "3")
        same = a[0] == b[0] == c[0] == c[1]
        bad += not same
        print(f"{name}: {'identical' if same else 'DIFFERENT'} across 3 runs on seed {args.seed}")
        if not same:
            for label, fp in (("untraced 1", a[0]), ("untraced 2", b[0]),
                              ("traced, untraced half", c[0]), ("traced", c[1])):
                print(f"  {label}: {fp}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
