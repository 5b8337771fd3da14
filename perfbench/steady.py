"""Steadiness check: repeat benchmark runs and compare spreads to bounds.

For each workload, runs ``run.py`` once per seed (untraced) and reports,
for every end-to-end metric, the quartile spread ``(q3 - q1) / median``
next to the metric's bound from ``BENCHMARK.json``.  With
``--counts-seed S`` it also makes two traced runs with seed ``S`` and
names every exact count (kernel flops, bytes and launches; plan
captures; shard maps opened; neighbor rebuilds; ...) that differs
between them.

Usage (from the repository root)::

    python3 perfbench/steady.py --workloads md_nve,fit_memory --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --counts-seed 3

Exits 1 when a spread (other than ``setup_s``'s) exceeds its bound, a
run fails, or an exact count differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import EXACT_COUNTS, OUT  # noqa: E402


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark run; returns (result or None, wall seconds, exit code)."""
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
    return result, wall, proc.returncode


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--counts-seed", type=int, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    ok = True
    summary = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        walls = []
        for seed in _seeds(args.seeds):
            result, wall, code = run_once(workload, seed, args.seconds, 0)
            walls.append(wall)
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {code})")
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {len(walls)} runs, wall max {max(walls):.1f} s, mean {statistics.mean(walls):.1f} s")
        summary[workload] = {"walls": walls, "metrics": {}}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            s, med = spread(vals)
            flag = "ok" if s <= bounds[name] / 3 else ("within bound" if s <= bounds[name] else "OVER BOUND")
            if s > bounds[name] and name != "setup_s":
                ok = False
            print(f"  {name:14s} median {med:12.4f} {units[name]:8s} spread {s:7.3%}  bound {bounds[name]:.0%}  {flag}")
            summary[workload]["metrics"][name] = {"values": vals, "median": med, "spread": s}
        if args.counts_seed is not None:
            runs = [run_once(workload, args.counts_seed, args.seconds, 1)[0] for _ in range(2)]
            if any(r is None for r in runs):
                print("  counts: a traced run failed")
                ok = False
                continue
            differ = [
                name
                for name in EXACT_COUNTS
                if runs[0]["metrics"][name]["value"] != runs[1]["metrics"][name]["value"]
            ]
            print(f"  exact counts differing between two seed-{args.counts_seed} runs: {differ or 'none'}")
            summary[workload]["counts_differ"] = differ
            ok = ok and not differ
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"steady-{int(time.time())}.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
