"""Benchmark of sbox-spectra: time the program's workloads, check every
output against an independent reference, and print the metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {tables,verify,rows,solvers} \
        --seed N --seconds S --trace {0,1}

The program is imported from `src/` of the checkout this file sits in.  The
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1).  A fuller record of the run goes to
`.bench_out/<workload>-seed<N>-trace<T>.json`, and with --trace 1 every span
goes to `.bench_out/<workload>-seed<N>-spans.csv`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(specs: list[tuple]) -> tuple[float, float]:
    """One cold set-up (import + field builds) in a fresh interpreter: its
    wall time and its time at the reference pace."""
    args = [",".join([str(p), str(n)] + ([":".join(map(str, rest[0]))] if rest else []))
            for p, n, *rest in specs]
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *args],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["seconds"], pace.scaled(out["seconds"], out["pace"], out["pace"])


def import_program():
    sys.path.insert(0, str(SRC))
    import sbox_spectra
    import sbox_spectra.cli  # noqa: F401  (CLI workloads call sbox_spectra.cli.main)

    if SRC.resolve() not in Path(sbox_spectra.__file__).resolve().parents:
        raise ImportError(f"sbox_spectra imported from {sbox_spectra.__file__}, not {SRC}")
    return sbox_spectra


MIN_ROUNDS = 2  # the warm-up round and at least one timed round


def measure(wl, sbox, seconds: float, tracer):
    """Run whole rounds while the next one is expected to end within
    `seconds`, and at least MIN_ROUNDS.  Round 1 is the warm-up: it pays
    the process's cold costs (the allocator's thresholds, first-touch
    pages; the F_{2^13} FBCT row takes about twice as long as the first
    call) and its times are not used.  With a tracer the later rounds
    alternate untraced (the overhead baseline) and traced, starting
    untraced, so that both see the same phases of the host; at least one
    is traced.

    Round 1's outcomes are kept for the checks; each later round is compared
    with them and dropped.  ru_maxrss is read after round 1, while only one
    round's outcomes are held.  Returns one dict per round, round 1's
    outcomes and the peak RSS in MiB."""
    rounds, first, peak_mib = [], None, 0.0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) >= MIN_ROUNDS and len(rounds) % 2 == 0
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            op_times, paces, outcomes = wl.run_round(sbox, pace.probe)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        if first is None:
            first = outcomes
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds.append({"wall_s": wall, "warm_up": not rounds, "traced": traced,
                       "same_outputs": wl.same_outputs(first, outcomes),
                       "attempted": wl.attempted(outcomes),
                       "failed": len(wl.failures(outcomes)),
                       "op_wall_s": dict(zip(wl.op_names(), op_times)),
                       "op_s": {name: pace.scaled(t, paces[i], paces[i + 1])
                                for i, (name, t) in enumerate(zip(wl.op_names(), op_times))},
                       "paces": paces})
        del outcomes
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS + (tracer is not None) and elapsed + wall > seconds:
            return rounds, first, peak_mib


def typical_round_s(rounds, key: str = "op_s") -> float:
    """Each part of the round at its median over the rounds, summed: by
    default the parts' times at the reference pace, with key="op_wall_s"
    their wall times."""
    names = rounds[0][key]
    return sum(statistics.median(r[key][k] for r in rounds) for k in names)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sbox_spectra" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/sbox_spectra", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setups = [probe_setup(wl.setup_fields()) for _ in range(SETUP_REPEATS)]
    sbox = import_program()
    wl.prepare(sbox)

    tracer = tracing.Tracer() if args.trace else None
    rounds, first, peak_rss_mib = measure(wl, sbox, args.seconds, tracer)

    problems = [f"round {i}: outputs differ from round 1"
                for i, r in enumerate(rounds, 1) if not r["same_outputs"]]
    problems += wl.check(first)
    failures = wl.failures(first)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    entries = wl.entries(first)

    timed = [r for r in rounds if not (r["traced"] or r["warm_up"])]
    run_s = typical_round_s(timed)
    end_to_end = {
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "entries_per_s": (entries / run_s, "1/s"),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": [scaled for _, scaled in setups],
        "setup_wall_samples_s": [wall for wall, _ in setups],
        "wall_run_s": typical_round_s(timed, "op_wall_s"),
        "rounds": rounds,
        "entries_per_round": entries,
        "attempted": attempted,
        "failed": failed,
        "failures_in_round_1": failures,
        "failure_groups": {name: {"why": why, "failed_ops": sorted(
            {f["op"] for f in failures if f.get("group") == name})}
            for name, why in workloads.FAILURE_GROUPS.items()},
        "problems": problems,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
    }
    if tracer is not None:
        traced = [r for r in rounds if r["traced"]]
        per_layer = tracing.layer_metrics(tracer.spans, len(traced))
        per_layer["trace.overhead_s"] = typical_round_s(traced) - run_s
        record["per_layer"] = per_layer
        tracing.write_spans(tracer.spans, OUT / f"{args.workload}-seed{args.seed}-spans.csv")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "MiB/s"
    return {"s": "s", "us": "us", "mib": "MiB"}.get(name.rsplit("_", 1)[-1], "count")


if __name__ == "__main__":
    sys.exit(main())
