#!/usr/bin/env python3
"""The localrules benchmark: one command, four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload cv-monks --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all   # each workload in its own process

`--trace 0` calls the library's stable entry points in passes over the
workload's requests for `--seconds` and prints the end-to-end metrics.
`--trace 1` ignores `--seconds`: in each of two rounds it does one pass of
the workload's work untraced and once more at one worker with the layer
functions wrapped in spans, so its counters are exact; it checks that both
give the same outputs, writes the spans to
`perfbench/out/spans-<workload>-seed<seed>.jsonl` and prints the per-layer
metrics. Every output is checked. The last line of stdout is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`; with
`all`, each workload prints its own.

Exit codes: 0 with a result line; 1 when the program's sources are not in
the checkout; 3 when a layer the traced run needs cannot be traced.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5  # set-ups before the timed loop; one more follows every pass
CALIBRATION_REF_S = 1.0e-3  # calibration_s() at the reference host speed
TRACE_ROUNDS = 2
MAX_NOTES = 5  # failure messages echoed to stderr per run


def import_program() -> None:
    """Put the checkout's own sources first on the path, or stop."""
    init = SRC / "localrules" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from the root of a localrules checkout")
    sys.path.insert(0, str(SRC))
    import localrules

    if Path(localrules.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported {localrules.__file__}, not the checkout's {init}")


class Tally:
    """Predictions attempted and failed, by request key."""

    def __init__(self):
        self.attempted = 0
        self.failed_keys: dict[str, int] = {}
        self.notes: list[str] = []

    def attempt(self, rows: int) -> None:
        self.attempted += rows

    def fail(self, key: str, rows: int, why: str) -> None:
        self.failed_keys[key] = self.failed_keys.get(key, 0) + rows
        if len(self.notes) < MAX_NOTES:
            self.notes.append(f"{key}: {why}")

    @property
    def failed(self) -> int:
        return min(self.attempted, sum(self.failed_keys.values()))


def call_checked(req, tally: Tally, first: dict):
    """Run one request and check its output: (wall s, host-scaled s)."""
    (out, exc), wall, scaled = timed(lambda: _capture(req.call))
    check(req, out, exc, tally, first)
    return wall, scaled


def check(req, out, exc, tally: Tally, first: dict) -> None:
    """Count the request; fail it if it raised, if its output is wrong or if
    it differs from the first output of a request with the same key."""
    tally.attempt(req.rows)
    if exc is not None:  # a failed prediction is counted, not fatal
        tally.fail(req.key, req.rows, f"raised {type(exc).__name__}: {exc}")
        return
    why = req.check(out)
    if why is None and first.setdefault(req.key, out) != out:
        why = "output changed between repeats of the same request"
    if why is not None:
        tally.fail(req.key, req.rows, why)


def _capture(fn):
    try:
        return fn(), None
    except Exception as exc:
        return None, exc


def warm_up(req, tally: Tally, first: dict) -> None:
    """One untimed, checked request: the first call in a process runs slower
    (a fork-pool evaluation took 1.19 s first, 0.67-0.74 s after)."""
    call_checked(req, tally, first)


def calibration_s() -> float:
    """Median seconds of three runs of a fixed pure-Python task (~1 ms)."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        x, seen = 0, {}
        for i in range(4000):
            x ^= (i * 2654435761) & 0xFFFFFFFF
            seen[i & 255] = x
        times.append(perf_counter() - t0)
    return statistics.median(times)


def timed(fn):
    """(result, wall seconds, host-scaled seconds) of one call.

    The scaled time is the wall time at the host speed where the calibration
    task takes CALIBRATION_REF_S, judged by calibrating right before and
    right after the call.
    """
    before = calibration_s()
    t0 = perf_counter()
    out = fn()
    wall = perf_counter() - t0
    speed = CALIBRATION_REF_S / ((before + calibration_s()) / 2)
    return out, wall, wall * speed


def time_setup(w, inputs, walls: list[float], scaled: list[float]):
    gc.collect()  # every repeat starts from the same heap, as a fresh process does
    state, wall, s = timed(lambda: w.setup(inputs))
    walls.append(wall)
    scaled.append(s)
    return state


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def end_to_end(w, seed: int, seconds: float):
    """Timed loop over passes of the workload's distinct requests.

    Every time is host-scaled (see `timed`), and each request's time is its
    median over the passes. On this kind of shared 2-vCPU host identical work
    ran up to twice as slow for seconds to minutes at a time: the median of
    one fixed task moved 29% between 25-second windows, and one workload's
    median moved 49% between two sets of runs twenty minutes apart. Scaled by
    the calibration task, the per-window median query latency spread 4.7%
    where the raw one spread 15.5%.
    """
    inputs, setup_walls, setup_scaled = w.inputs(seed), [], []
    for _ in range(SETUP_REPEATS):
        state = time_setup(w, inputs, setup_walls, setup_scaled)
    batch = w.requests(state, seed)
    tally, first = Tally(), {}
    warm_up(batch[0], tally, first)
    walls = [[] for _ in batch]
    scaled = [[] for _ in batch]
    passes = 0
    start = perf_counter()
    while True:
        t_pass = perf_counter()
        for j, req in enumerate(batch):
            wall, s = call_checked(req, tally, first)
            walls[j].append(wall)
            scaled[j].append(s)
        passes += 1
        now = perf_counter()
        if now - start + (now - t_pass) > seconds:
            break
        time_setup(w, inputs, setup_walls, setup_scaled)  # spread over the run
    elapsed = perf_counter() - start
    rss = peak_rss_mb()  # before the oracle check, which is not the program's work

    certified = certify(w, state, seed, tally)

    rows = sum(r.rows for r in batch)
    per_request = [statistics.median(x) for x in scaled]
    ms = sorted(x * 1000 for x in per_request)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "rows_per_s": (rows / sum(per_request), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    raw = [statistics.median(x) for x in walls]
    info = [
        f"{len(batch)} distinct requests x {passes} passes in {elapsed:.1f} s, "
        f"{len(setup_walls)} set-ups",
        f"latency samples: {len(ms)}, {sum(x > p90 for x in ms)} beyond p90",
        f"unscaled: rows_per_s {rows / sum(raw):.6g}, latency_p50_ms "
        f"{statistics.median(raw) * 1000:.6g}, setup_s {statistics.median(setup_walls):.6g}",
        f"error_rate: {tally.failed / tally.attempted:.6f} ({tally.failed}/{tally.attempted})",
    ]
    if certified:
        info.append(f"oracle-certified rows: {certified}")
    return metrics, tally, info


def certify(w, state, seed: int, tally: Tally) -> int:
    """Outside the timed loop: the workload's oracle check, if it has one."""
    import tracing

    try:
        certified, disagreements = w.certify(state, seed)
    except tracing.Untraceable as exc:
        tally.fail("certify", 1, f"oracle check could not run: {exc}")
        return 0
    for msg in disagreements:
        tally.fail("certify", 1, msg)
    return certified


def traced(w, seed: int):
    """Per-layer metrics from rounds of (untraced pass, traced pass).

    Each round sets up under a `data.parse` span and runs the workload's pass
    untraced, at its worker count and, if that is more than one, again at
    one. Then it runs the pass at one worker with the layer functions
    wrapped (see `tracing`). Every output is checked, and a traced output
    must equal the untraced one. The walls are the fastest of the rounds and
    the spans are those of the fastest traced pass, so that untraced and
    traced figures come from similar host conditions.
    """
    import tracing

    inputs = w.inputs(seed)
    tally, first = Tally(), {}
    walls, serial_walls, rounds = [], [], []
    for _ in range(TRACE_ROUNDS):
        tr = tracing.Tracer()
        with tr.span("data.parse"):
            state = w.setup(inputs)
        reqs = w.requests(state, seed)
        if not walls:
            warm_up(reqs[0], tally, first)
        walls.append(sum(call_checked(r, tally, first)[0] for r in reqs))
        serial = reqs if w.workers == 1 else w.requests(state, seed, 1)
        if serial is reqs:
            serial_walls.append(walls[-1])
        else:
            serial_walls.append(sum(call_checked(r, tally, first)[0] for r in serial))

        t0 = perf_counter()
        with tracing.traced_calls(tr):
            for req in serial:
                with tr.span(w.span):
                    out, exc = _capture(req.call)
                check(req, out, exc, tally, first)
        rounds.append((perf_counter() - t0, tr))
        tr.check()

    certified = certify(w, state, seed, tally)
    traced_wall, tr = min(rounds, key=lambda r: r[0])
    path = OUT / f"spans-{w.name}-seed{seed}.jsonl"
    tr.write(path)
    wall, serial_wall = min(walls), min(serial_walls)
    metrics = tracing.layer_metrics(tr, w.workers, wall, serial_wall, traced_wall)
    info = [
        f"spans: {len(tr.spans)} written to {path.relative_to(HERE.parent)}",
        f"best of {TRACE_ROUNDS} rounds: untraced {wall:.3f} s at {w.workers} worker(s), "
        f"serial {serial_wall:.3f} s, traced {traced_wall:.3f} s",
        f"error_rate: {tally.failed / tally.attempted:.6f} ({tally.failed}/{tally.attempted})",
    ]
    if certified:
        info.append(f"oracle-certified rows: {certified}")
    return metrics, tally, info


def run_one(w, seed: int, seconds: float, trace: bool) -> dict:
    metrics, tally, info = traced(w, seed) if trace else end_to_end(w, seed, seconds)
    print(f"== {w.name} seed={seed} {'traced' if trace else f'{seconds:g} s'}")
    for line in info:
        print(f"   {line}")
    for name, (value, unit) in metrics.items():
        print(f"   {name:<30} {value:>14.6g} {unit}")
    for note in tally.notes:
        print(f"perfbench: FAILED {note}", file=sys.stderr)
    return {
        "correct": not tally.failed_keys,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    import_program()
    import tracing
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":  # one process each, so peak_rss_mb is the workload's own
        code = 0
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = code or subprocess.run(cmd, check=False).returncode
        return code
    try:
        result = run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except tracing.Untraceable as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
