#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

    python3 perfbench/steady.py --workload cv-monks --seeds 1-5
    python3 perfbench/steady.py --workload all --seeds 1-10 --save perfbench/out/set1.json
    python3 perfbench/steady.py --workload all --seeds 1-10 --against perfbench/out/set1.json
    python3 perfbench/steady.py --workload all --counters

Runs `run.py` once per seed, one run at a time, and prints for every
end-to-end metric the median of the runs and their spread: the distance
between the first and third quartile as a share of the median. A spread
must stay within the metric's bound in BENCHMARK.json (setup_s is reported,
not gated); one above a third of its bound is marked `wide`, the margin the
benchmark aims for but does not always reach on a noisy host. `--against`
also checks that no median is worse than the saved set's by more than its
bound. `--counters` runs the traced
mode twice per workload on one seed and requires the exact counters to be
identical. Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTERS = (
    "search.nodes",
    "encode.components",
    "encode.cell_scans",
    "discretize.levels",
    "predict.fallback_fraction",
)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: NOT CORRECT\n{done.stderr}", file=sys.stderr)
    return result


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spreads(bench, names, seeds, saved) -> tuple[bool, dict]:
    ok = True
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    summary = {}
    for name in names:
        results = [run(name, s, bench["run_seconds"], 0) for s in seeds]
        ok &= all(r["correct"] for r in results)
        summary[name] = {}
        print(f"{name}: {len(seeds)} seeds")
        for metric, spec in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[name][metric] = values
            gated = metric != "setup_s"
            if gated and spread > spec["bound"]:
                verdict = "UNSTEADY"
            else:
                verdict = "wide" if gated and spread > spec["bound"] / 3 else "ok"
            line = f"  {metric:<16} median {med:<12.6g} spread {spread:6.3f}"
            line += f" (bound {spec['bound']})"
            line += " [" + " ".join(f"{v:.4g}" for v in values) + "]"
            if saved is not None:
                before = statistics.median(saved[name][metric])
                worse = (med - before) / before * (1 if spec["better"] == "lower" else -1)
                line += f" vs saved {before:.6g}: {worse:+.3f}"
                if worse > spec["bound"]:
                    verdict = "WORSE"
            ok &= verdict in ("ok", "wide")
            print(f"{line}  {verdict}")
    return ok, summary


def counters(names, seed) -> bool:
    ok = True
    for name in names:
        a, b = (run(name, seed, 1, 1)["metrics"] for _ in range(2))
        same = all(a[c]["value"] == b[c]["value"] for c in EXACT_COUNTERS)
        ok &= same
        shown = ", ".join(f"{c}={a[c]['value']}" for c in EXACT_COUNTERS)
        print(f"{name}: {'identical' if same else 'DIFFER'}: {shown}")
    return ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*names, "all"])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--save", type=Path)
    ap.add_argument("--against", type=Path)
    ap.add_argument("--counters", action="store_true")
    args = ap.parse_args()
    if args.workload != "all":
        names = [args.workload]
    if args.counters:
        return 0 if counters(names, args.seeds[0]) else 1
    saved = json.loads(args.against.read_text()) if args.against else None
    ok, summary = spreads(bench, names, args.seeds, saved)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
