"""conjcat benchmark: one workload per run, or all of them one after another.

    python3 bench/run.py --workload membership_sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run from the root of a checkout; the library is imported from its `src/`.
A run sets the workload up several times (the median is `setup_s`), then
repeats whole rounds of the workload's operations until `--seconds` have
passed and, for `cli_oneshot`, at least 112 commands ran.  Every answer is
checked.  The end-to-end times are scaled to the machine's nominal speed,
measured throughout the run with a fixed reference loop (see
`workloads.Tally`).  The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end metrics
when `--trace 0` and the per-layer metrics when `--trace 1`.  A traced run
also writes its spans to `.bench_out/trace-<workload>-<seed>.json`.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("membership_sweep", "long_words", "proof_search", "cli_oneshot")
SETUP_SAMPLES = 9
SETUP_SAMPLE_S = 0.1

END_TO_END = {"setup_s": "s", "group1_per_s": "1/s", "group2_per_s": "1/s",
              "group3_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mb": "MB"}

# per-layer metric: (unit, statistic, span names)
# self_per_setup / self_per_round: summed self time over set-ups or rounds;
# calls_per_round: span count per round; median_us, mean_ms: per span.
SPAN_METRICS = {
    "fileformat.load_s": ("s", "self_per_setup", ("fileformat.load",)),
    "syntax.parse_s": ("s", "self_per_setup", ("syntax.parse",)),
    "transforms.translate_s": ("s", "self_per_setup", ("transforms.translate",)),
    "ccg.member_s": ("s", "self_per_round", ("ccg.member",)),
    "ccg.member_calls": ("count", "calls_per_round", ("ccg.member",)),
    "ccg.universe_us": ("us", "median_us", ("ccg.universe",)),
    "conj.member_topdown_s": ("s", "self_per_round", ("conj.member_topdown",)),
    "conj.member_bottomup_s": ("s", "self_per_round", ("conj.member_bottomup",)),
    "conj.member_calls": ("count", "calls_per_round",
                          ("conj.member_topdown", "conj.member_bottomup")),
    "conj.nullable_us": ("us", "median_us", ("conj.nullable",)),
    "cvp.encode_s": ("s", "self_per_round", ("cvp.encode",)),
    "cvp.csp_member_s": ("s", "self_per_round", ("cvp.csp_member",)),
    "prover.lambek_member_s": ("s", "self_per_round", ("prover.lambek_member",)),
    "prover.derivable_s": ("s", "self_per_round", ("prover.derivable",)),
    "prover.macll_derivable_s": ("s", "self_per_round", ("prover.macll_derivable",)),
    "cli.interpreter_ms": ("ms", "mean_ms", ("cli.interpreter",)),
    "cli.import_ms": ("ms", "mean_ms", ("cli.import",)),
    **{f"cli.{sub}_ms": ("ms", "mean_ms", (f"cli.{sub}",))
       for sub in ("member", "prove", "translate", "enumerate", "check_odd_form", "cvp")},
}
# per-layer metrics a workload computes itself (0 where it has none)
WORKLOAD_METRICS = {"ccg.member_2n_over_n": "ratio", "conj.topdown_2n_over_n": "ratio",
                    "conj.bottomup_2n_over_n": "ratio", "prover.memo_entries": "count",
                    "prover.memo_entries_per_query": "entries/query"}
PER_LAYER = {**{name: spec[0] for name, spec in SPAN_METRICS.items()}, **WORKLOAD_METRICS}


def import_library():
    """Put the checkout's `src/` first on the path; refuse to run without it."""
    if not (SRC / "conjcat" / "__init__.py").is_file():
        raise SystemExit(f"bench: no conjcat source tree at {SRC}; "
                         f"run from the root of a conjcat checkout")
    sys.path.insert(0, str(SRC))
    import conjcat
    if not Path(conjcat.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported conjcat from {conjcat.__file__}, not from {SRC}")


def span_metrics(tracer, rounds: int, setups: int) -> dict:
    selfs = tracer.self_times()
    out = {}
    for metric, (_, statistic, names) in SPAN_METRICS.items():
        count = sum(selfs.get(n, (0, 0.0))[0] for n in names)
        total = sum(selfs.get(n, (0, 0.0))[1] for n in names)
        if statistic == "self_per_setup":
            out[metric] = total / setups
        elif statistic == "self_per_round":
            out[metric] = total / rounds
        elif statistic == "calls_per_round":
            out[metric] = count / rounds
        elif statistic == "median_us":
            times = [t for n in names for t in tracer.durations(n)]
            out[metric] = statistics.median(times) * 1e6 if times else 0.0
        else:
            out[metric] = total / count * 1e3 if count else 0.0
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 out_dir: Path = ROOT / ".bench_out"):
    """Set up, run whole rounds for `seconds`, check every answer; the
    result object and the lines to print before it.  `tiny` shrinks the
    inputs for the benchmark's own tests."""
    import workloads
    from spans import Tracer

    tracer = Tracer() if trace else None
    out_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, tiny, out_dir)
    tally = workloads.Tally()
    try:
        setup_times = []
        setups = 0
        for _ in range(1 if tiny else SETUP_SAMPLES):
            # a sample repeats the set-up for SETUP_SAMPLE_S at least, and is
            # scaled by the reference loop's slowdown just before and after it
            before = tally.slowdown_now()
            start = perf_counter()
            repeats = 0
            while not repeats or perf_counter() - start < SETUP_SAMPLE_S:
                with workloads.span(tracer, "setup"):
                    workload.setup(tracer)
                repeats += 1
            sample = (perf_counter() - start) / repeats
            setup_times.append(sample / ((before + tally.slowdown_now()) / 2))
            setups += repeats
        if tracer is not None:
            with workloads.span(tracer, "probe"):
                workload.probe(tracer)
        round_times = []
        start = perf_counter()
        while True:
            begun = perf_counter()
            tally.new_round()
            with workloads.span(tracer, "round"):
                workload.round(tracer, tally)
            tally.end_round()
            round_times.append(perf_counter() - begun)
            wall = perf_counter() - start
            if wall >= seconds and tally.attempted >= workload.min_ops:
                break
        # before the percentiles below sort the latencies into a list
        who = resource.RUSAGE_CHILDREN if name == "cli_oneshot" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        rounds = len(round_times)
        extra = workload.layer_values(tally, rounds)
        setup_s = workload.setup_seconds(setup_times, tally)
        setups = workload.setup_count(setups)
    finally:
        workload.close()

    lines = [f"workload {name} seed {seed}: {rounds} rounds, {tally.attempted} operations, "
             f"{tally.failed} failed ({tally.wrong} wrong answers), {wall:.2f} s"]
    lines.append("  round times: " + " ".join(f"{t:.3f}" for t in round_times))
    slowdown = tally.slowdown()
    lines.append(f"  reference loop: {tally.references} times, mean {slowdown:.4f} x nominal")
    groups = tally.sums(lambda label: label.split(".")[0])
    lines += [f"  group {i} {g}: {groups[g][0]} timed ops a round, {groups[g][1]:.4f} s a round "
              f"scaled, {groups[g][0] / groups[g][1]:.1f} ops/s"
              for i, g in enumerate(workload.GROUPS, 1)]
    lines.append(f"  latencies: {len(tally.scaled)} timed operations")
    lines += [f"  {note}" for note in tally.notes]
    if tracer is None:
        # times scaled to the machine's nominal speed, see workloads.Tally
        deciles = statistics.quantiles(tally.scaled, n=10)
        metrics = {"setup_s": setup_s,
                   **{f"group{i}_per_s": groups[g][0] / groups[g][1]
                      for i, g in enumerate(workload.GROUPS, 1)},
                   "op_p50_ms": statistics.median(tally.scaled) * 1e3,
                   "op_p90_ms": deciles[8] * 1e3,
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    else:
        metrics = dict.fromkeys(WORKLOAD_METRICS, 0.0)
        metrics.update(span_metrics(tracer, rounds, setups))
        metrics.update(extra)
        units = PER_LAYER
        path = out_dir / f"trace-{name}-{seed}.json"
        tracer.dump(path)
        selfs = tracer.self_times()
        lines.append(f"  traced: {wall / rounds:.4f} s/round; spans in {path}")
        lines += [f"  self {n}: {c} spans, {t:.4f} s, {t / c * 1e6:.1f} us a span"
                  for n, (c, t) in sorted(selfs.items(), key=lambda kv: -kv[1][1])]
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units}}
    return result, lines


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    if args.workload == "all":
        return run_all(args)
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    for metric, value in result["metrics"].items():
        print(f"  {metric} = {value['value']:.6g} {value['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
