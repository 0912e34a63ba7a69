"""Run one rounds-lab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload search_cli|sort_cake \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports rounds_lab from the
checkout's src/ only, and exits 2 without a result when that is missing.

--trace 0 runs whole cycles of trials for S seconds with tracing off and
reports the end-to-end metrics. --trace 1 replays the first cycle untraced
and traced, alternating which goes first, until S seconds have passed,
writes the spans to perfbench/out/trace-<workload>-<seed>.jsonl and reports
the per-layer metrics derived from that file. Either way the line before
last describes the run (trial and sample counts, tail percentile, query
digest) and the last line is {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 0
SETUP_REPS = 5
MIN_BEYOND = 10  # samples the tail percentile must leave above it

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_p50_ms": "ms",
    "trial_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trials_ok_ratio": "ratio",
}


class LibraryMissing(Exception):
    pass


def load_library():
    """Import rounds_lab from this checkout's src/; returns (lib, seconds)."""
    package = os.path.join(SRC, "rounds_lab")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise LibraryMissing("no rounds_lab package under %s" % SRC)
    sys.path.insert(0, SRC)
    start = perf_counter()
    import rounds_lab
    from rounds_lab import cake, cli, harness, locate
    elapsed = perf_counter() - start
    if os.path.dirname(os.path.abspath(rounds_lab.__file__)) != package:
        raise LibraryMissing("imported rounds_lab from %s" % rounds_lab.__file__)
    lib = SimpleNamespace(
        HiddenInstance=rounds_lab.HiddenInstance,
        open_session=rounds_lab.open_session,
        locate_det=rounds_lab.locate_det,
        locate_rand=rounds_lab.locate_rand,
        locate_det_dist=rounds_lab.locate_det_dist,
        RankDistribution=locate.RankDistribution,
        select_det=rounds_lab.select_det,
        select_rand=rounds_lab.select_rand,
        build_schedule=rounds_lab.build_schedule,
        sort_rank=rounds_lab.sort_rank,
        forced_query_count=rounds_lab.forced_query_count,
        random_density=cake.random_density,
        proportional_protocol=rounds_lab.proportional_protocol,
        run_proportional=cake.run_proportional,
        verify_proportional=rounds_lab.verify_proportional,
        run_reduction=rounds_lab.run_reduction,
        ordered_to_locate_adapter=rounds_lab.ordered_to_locate_adapter,
        unordered_to_select_adapter=rounds_lab.unordered_to_select_adapter,
        cli_main=cli.main,
        harness=harness,
    )
    return lib, elapsed


class Runner:
    """Runs and checks trials of one workload, counting failures."""

    def __init__(self, lib, workload, seed):
        self.lib = lib
        self.workload = workload
        self.seed = seed
        self.state = None
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures that no known defect explains
        self.known = []       # failures of trials that exercise a known defect

    def setup(self):
        """Build the input pools and warm up on the small trials of the
        default seed's first cycle, so that the warm-up is the same work
        whatever the seed; returns the seconds it took."""
        start = perf_counter()
        self.state = self.workload.setup(self.lib, self.seed, OUT)
        quiet = Runner(self.lib, self.workload, DEFAULT_SEED)
        quiet.state = self.state
        for trial in quiet.cycle(0):
            if trial.n <= 64 and trial.known_defect is None:
                quiet.run_trial(trial, tracing.NullTracer(), -1)
        return perf_counter() - start

    def cycle(self, c):
        return self.workload.cycle(self.state, self.seed, c)

    def run_trial(self, trial, tracer, trial_id):
        """Time one trial, then check it; returns (nanoseconds, digest record)."""
        execute = workloads.KINDS[trial.kind][0]
        rng = random.Random(trial.seed)
        tracer.trial = trial_id
        start = perf_counter_ns()
        try:
            obs = tracer.call(tracing.TRIAL, execute, self.lib, tracer, trial, rng)
        except Exception as exc:  # a raised exception is a failed trial
            elapsed = perf_counter_ns() - start
            reason = "%s: %s" % (type(exc).__name__, exc)
            outcome = workloads.Outcome(False, reason, [trial.kind, "raised"])
        else:
            elapsed = perf_counter_ns() - start
            outcome = workloads.check(self.lib, trial, obs)
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            where = "%s n=%d k=%d: %s" % (trial.kind, trial.n, trial.k, outcome.reason)
            if trial.kind == "cli":
                where = "%s: %s" % (" ".join(trial.args["argv"])[:80], outcome.reason)
            (self.known if trial.known_defect else self.unexpected).append(where)
        return elapsed, outcome.record


def guard(runner, records):
    """Query total and digest of the first cycle, checked against the stored
    ones for the default seed: a change in any query count fails the run."""
    queries = sum(r[3] for r in records if len(r) > 3)
    summary = {"trials": len(records), "queries": queries,
               "digest": workloads.digest(records), "expected": None}
    if runner.seed == DEFAULT_SEED and os.path.exists(EXPECTED):
        with open(EXPECTED) as fh:
            want = json.load(fh).get(runner.workload.name)
        if want is not None:
            same = all(want[key] == summary[key] for key in ("trials", "queries", "digest"))
            summary["expected"] = "match" if same else "MISMATCH"
            if not same:
                runner.unexpected.append("query guard: first cycle gave %s, stored %s"
                                         % (summary, want))
    return summary


def tail(latencies):
    """The highest nearest-rank percentile with at least MIN_BEYOND samples
    above it, i.e. the (MIN_BEYOND + 1)-th largest sample; with too few
    samples, the median. Returns (percentile, value, beyond)."""
    ordered = sorted(latencies)
    count = len(ordered)
    rank = count - MIN_BEYOND if count > MIN_BEYOND else math.ceil(count / 2)
    return 100 * rank / count, ordered[rank - 1], count - rank


def measure(runner, seconds):
    """Whole cycles with tracing off until `seconds` have passed."""
    null = tracing.NullTracer()
    latencies = []
    first = None
    cycles = 0
    gc.collect()
    start = perf_counter()
    while cycles == 0 or perf_counter() - start < seconds:
        records = []
        for trial in runner.cycle(cycles):
            elapsed, record = runner.run_trial(trial, null, len(latencies))
            latencies.append(elapsed / 1e6)
            records.append(record)
        if first is None:
            first = records
        cycles += 1
    pct, tail_ms, beyond = tail(latencies)
    metrics = {
        "trials_per_s": len(latencies) / (sum(latencies) / 1e3),
        "trial_p50_ms": statistics.median(latencies),
        "trial_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trials_ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    details = {"cycles": cycles, "samples": len(latencies),
               "tail_percentile": pct, "tail_samples_beyond": beyond,
               "guard": guard(runner, first)}
    return metrics, details


def measure_traced(runner, seconds, trace_path):
    """Replay the first cycle untraced and traced, alternating which goes
    first, until `seconds` have passed; per-layer metrics come from the trace
    file written at the end."""
    tracer = tracing.Tracer()
    points = runner.workload.patch_points(runner.lib) if runner.workload.patch_points else []
    prefix = runner.cycle(0)
    kinds = {}
    digests = []
    untraced_ns = 0

    def replay(hooks, first_id=None):
        """Run the prefix once; traced trials get ids from first_id on."""
        records = []
        total = 0
        with hooks.patched(points):
            for i, trial in enumerate(prefix):
                trial_id = -1
                if first_id is not None:
                    trial_id = first_id + i
                    kinds[trial_id] = trial.kind
                elapsed, record = runner.run_trial(trial, hooks, trial_id)
                total += elapsed
                records.append(record)
        digests.append(workloads.digest(records))
        return total, records

    reps = 0
    gc.collect()
    start = perf_counter()
    while reps == 0 or perf_counter() - start < seconds:
        if reps % 2:
            replay(tracer, reps * len(prefix))
        untraced_ns += replay(tracing.NullTracer())[0]
        if reps % 2 == 0:
            records = replay(tracer, reps * len(prefix))[1]
            if reps == 0:
                summary = guard(runner, records)
        reps += 1
    if len(set(digests)) != 1:
        runner.unexpected.append("query digests differ between replays: %s" % digests)
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    header = {"workload": runner.workload.name, "seed": runner.seed, "reps": reps}
    tracing.write_trace(trace_path, header, kinds, tracer.spans)
    metrics = tracing.layer_metrics(trace_path, reps, untraced_ns)
    details = {"reps": reps, "trials_per_rep": len(prefix), "trace": trace_path,
               "guard": summary}
    return metrics, details


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        lib, import_s = load_library()
    except LibraryMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    runner = Runner(lib, workloads.WORKLOADS[args.workload], args.seed)
    setups = []
    for _ in range(SETUP_REPS):
        gc.collect()
        setups.append(runner.setup())
    setup_s = import_s + statistics.median(setups)
    if args.trace:
        path = os.path.join(OUT, "trace-%s-%d.jsonl" % (args.workload, args.seed))
        metrics, details = measure_traced(runner, args.seconds, path)
        units = tracing.PER_LAYER_UNITS
    else:
        metrics, details = measure(runner, args.seconds)
        metrics["setup_s"] = setup_s
        units = END_TO_END_UNITS
    details = dict({"workload": args.workload, "seed": args.seed,
                    "python": platform.python_version(), "setup_s": setup_s,
                    "attempted": runner.attempted, "failed": runner.failed,
                    "known_defect_failures": len(runner.known),
                    "unexpected_failures": runner.unexpected[:5]}, **details)
    for failure in runner.unexpected[:5]:
        print("perfbench: failed trial: %s" % failure, file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": not runner.unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
