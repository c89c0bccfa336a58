"""Compare two checkouts on the benchmark, in alternating pairs of runs.

    python3 tools/ab_bench.py BASE CHANGE --workload proof_search --pairs 10 --seed 5
    python3 tools/ab_bench.py BASE CHANGE --workload all --pairs 4 --seconds 20 --out ab.json
    python3 tools/ab_bench.py BASE CHANGE --workload proof_search --pairs 4 --trace 1

BASE and CHANGE are the roots of two conjcat checkouts.  Each pair runs
`bench/run.py --trace 0` once in each, in a fresh interpreter; even pairs
run BASE first and odd pairs CHANGE first, so that drift of the machine
falls on both sides alike.  For each workload and each end-to-end metric
it prints each side's median and quartiles, the ratio of the medians
(CHANGE over BASE), the number of pairs CHANGE wins, and whether the
medians differ by more than BASE's interquartile range.  That column
reads `unresolved` when BASE's interquartile range is wider than the
metric's bound times BASE's median: a metric whose own runs spread wider
than its bound is unresolved, not unchanged.  Under
`peak_rss_mb` it prints each side's median number of attempted
operations, since the run keeps 8 bytes of timing a timed operation and
a faster side completes more of them in the same time.  The direction
and bound of each metric are read from BASE's `BENCHMARK.json`.  It edits
no tracked file in either checkout.  It exits 1 when any run fails or
reports an incorrect answer, and it prints a `REJECT` line and exits 1
when CHANGE fails a larger share of operations than BASE, or when a
metric's CHANGE median is worse than its BASE median by more than the
metric's bound (a fraction of the BASE median).

With `--trace 1` the pairs run `bench/run.py --trace 1` instead, and the
same lines are printed for each per-layer metric of `BENCHMARK.json` that
is not 0 on every run, and for each span's self time (`self <span>`, in
microseconds a span, from the run's `self` lines).  A span that some run
lacks gets a note with the number of runs of each side that have it
instead.  Per-layer metrics have no bound, so they print no `REJECT`
line; a larger share of failed operations still does.  Each traced run writes its spans under the
checkout's `.bench_out/`.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("membership_sweep", "long_words", "proof_search", "cli_oneshot")
# a traced run's self time of one span name, e.g.
# "  self syntax.parse: 27036 spans, 0.4403 s, 16.3 us a span"
SELF_LINE = re.compile(r"  self (\S+): \d+ spans, \S+ s, (\S+) us a span$")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One run's result object; a traced run's `self` lines are added to
    its metrics as `self <span>`."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab_bench: {workload} in {checkout} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    for m in filter(None, map(SELF_LINE.match, lines[:-1])):
        result["metrics"][f"self {m[1]}"] = {"value": float(m[2]), "unit": "us"}
    return result


def self_metrics(runs: dict) -> tuple[dict, list]:
    """The `self <span>` metrics every run of both sides has (lower is
    better), and a note line for each one that some run lacks."""
    every = [set(r["metrics"]) for side in runs.values() for r in side]
    names = set.intersection(*every) if every else set()
    seen = set.union(*every) if every else set()
    notes = [f"  {n}: in {sum(n in r['metrics'] for r in runs['base'])} of"
             f" {len(runs['base'])} base runs and"
             f" {sum(n in r['metrics'] for r in runs['change'])} of"
             f" {len(runs['change'])} change runs, left out"
             for n in sorted(seen - names) if n.startswith("self ")]
    return {n: {"name": n, "better": "lower"} for n in sorted(names)
            if n.startswith("self ")}, notes


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(workload: str, runs: dict, metrics: dict) -> tuple[list, list]:
    """One line per metric, from the pairs of `runs["base"]` and
    `runs["change"]`, and the `REJECT` lines; `metrics` maps each metric's
    name to its `better` direction and its `bound`, if it has one.  A
    metric without a bound (a per-layer one) that reads 0 on every run is
    left out."""
    rejects = []
    width = max([14, *map(len, metrics)])
    lines = [f"{workload}: {len(runs['base'])} pairs",
             f"  {'metric':<{width}} {'base median [q1, q3]':<32}"
             f" {'change median [q1, q3]':<32} {'ratio':>6} {'wins':>6} {'> IQR':>10}"]
    for metric, spec in metrics.items():
        base = [r["metrics"][metric]["value"] for r in runs["base"]]
        change = [r["metrics"][metric]["value"] for r in runs["change"]]
        if "bound" not in spec and not any(base) and not any(change):
            continue
        b1, b2, b3 = quartiles(base)
        c1, c2, c3 = quartiles(change)
        sign = 1 if spec["better"] == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        ratio = c2 / b2 if b2 else float("nan")
        if "bound" in spec and b3 - b1 > spec["bound"] * abs(b2):
            beyond = "unresolved"
        else:
            beyond = "yes" if abs(c2 - b2) > b3 - b1 else "no"
        base_text = f"{b2:.5g} [{b1:.5g}, {b3:.5g}]"
        change_text = f"{c2:.5g} [{c1:.5g}, {c3:.5g}]"
        lines.append(f"  {metric:<{width}} {base_text:<32} {change_text:<32} {ratio:>6.3f}"
                     f" {wins:>3}/{len(base):<2} {beyond:>10}")
        if metric == "peak_rss_mb":
            base_ops, change_ops = (statistics.median(r["attempted"] for r in runs[side])
                                    for side in ("base", "change"))
            lines.append(f"  {'  attempted':<{width}} {base_ops:<32.5g} {change_ops:<32.5g}"
                         f" {change_ops / base_ops if base_ops else float('nan'):>6.3f}")
        if "bound" in spec and sign * (c2 - b2) < -spec["bound"] * abs(b2):
            rejects.append(f"REJECT {workload} {metric}: change median {c2:.5g} is worse"
                           f" than base median {b2:.5g} by more than {spec['bound']:.0%}")
    share = {}
    for side in ("base", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        share[side] = failed / max(attempted, 1)
        lines.append(f"  {side}: {failed} of {attempted} operations failed"
                     f" ({share[side]:.4%}), all correct: "
                     f"{all(r['correct'] for r in runs[side])}")
    if share["change"] > share["base"]:
        rejects.append(f"REJECT {workload}: change fails {share['change']:.4%} of operations,"
                       f" base {share['base']:.4%}")
    return lines, rejects


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: compare the per-layer metrics of traced runs")
    parser.add_argument("--out", type=Path, help="write every run's result here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    ok = True
    for workload in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run_once(getattr(args, side), workload, args.seed, args.seconds,
                                  args.trace)
                runs[side].append(result)
                ok &= result["correct"]
            print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
        results[workload] = runs
        spans, notes = self_metrics(runs)
        lines, rejects = report(workload, runs, {**metrics, **spans})
        print("\n".join(lines + notes + rejects), flush=True)
        ok &= not rejects
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    if not ok:
        print("ab_bench: some run reported an incorrect answer, or the change was rejected",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
