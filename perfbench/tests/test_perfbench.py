"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/tests

The subprocess runs use --seconds 0.01, so each measures one cycle of its
workload (one to two seconds).
"""

import functools
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Trial  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def smoke(workload, trace, repeat=0):
    """(details, result) of one smoke run on the default seed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_prints_every_named_metric(workload, trace):
    details, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert result["failed"] == details["known_defect_failures"]
    if workload != "search_cli":
        assert result["failed"] == 0
    if not trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert all(value > 0 for value in metrics.values())
        ok = result["attempted"] - result["failed"]
        assert metrics["trials_ok_ratio"] == ok / result["attempted"]


def test_cli_failures_are_exactly_the_huge_n_bounds_runs(tmp_path):
    details, result = smoke("search_cli", 0)
    state = SimpleNamespace(out_dir=str(tmp_path))
    per_cycle = [t for t in workloads.cli_cycle(state, 0, 0) if t.known_defect]
    assert len(per_cycle) == 1 and workloads.HUGE_N in per_cycle[0].args["argv"]
    assert result["failed"] == details["cycles"] * len(per_cycle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_traced_trial_time(workload):
    _, result = smoke(workload, 1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    parts = sum(metrics[name + "_ms"] for name in tracing.LAYERS) + metrics["bench.other_ms"]
    assert parts == pytest.approx(metrics["bench.trial_ms"], rel=1e-9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_query_digest_repeats_across_runs_and_tracing(workload):
    guards = [smoke(workload, 0)[0]["guard"], smoke(workload, 0, repeat=1)[0]["guard"],
              smoke(workload, 1)[0]["guard"]]
    assert all(g == guards[0] for g in guards)
    assert guards[0]["expected"] == "match"


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def lib():
    return run.load_library()[0]


def outcome(lib, workload, trial, **fakes):
    """Run one trial against the library with some functions replaced."""
    runner = run.Runner(SimpleNamespace(**dict(vars(lib), **fakes)),
                        workloads.WORKLOADS[workload], 0)
    runner.run_trial(trial, tracing.NullTracer(), 0)
    return runner


def greedy_locate(session, n, k):
    """Right answer, but probes every rank in one round."""
    from rounds_lab.oracle import TARGET, RankQuery
    answers = session.submit_round([RankQuery(TARGET, t) for t in range(1, n + 1)])
    return answers.index("=") + 1


PERM = (3, 1, 4, 8, 5, 2, 7, 6)
CASES = [
    ("sort_cake", Trial("sort", 8, 2, 0, {"ranks": PERM}),
     {"sort_rank": lambda s, n, k: tuple(range(1, n + 1))}, "wrong order"),
    ("search_cli", Trial("locate_det", 64, 2, 0, {"ranks": tuple(range(1, 65)), "target": 9}),
     {"locate_det": greedy_locate}, "over the cap"),
    ("search_cli", Trial("select_det", 8, 2, 0, {"ranks": PERM, "target": 4, "p": Fraction(1),
                                                 "order": list(range(1, 9))}),
     {"select_det": lambda *a: 1 / 0}, "ZeroDivisionError"),
    ("sort_cake", Trial("forced", 16, 2, 0), {"forced_query_count": lambda alg, n, k: 10 ** 6},
     "the sorter ran 0 times"),
    ("sort_cake", Trial("cake", 4, 2, 7), {"verify_proportional": lambda a, agents: (False, [])},
     "not proportional"),
    ("sort_cake", Trial("reduce", 8, 2, 0, {"ranks": PERM}),
     {"run_reduction": lambda proto, n, rs: ((1,) * n, None, None)}, "wrong permutation"),
    ("search_cli", Trial("cli", 0, 0, 0, {"argv": ["select", "--n", "5", "--k", "0"],
                                          "code": 2, "rows": None, "out": None}),
     {"cli_main": lambda argv: 0}, "expected 2"),
]


@pytest.mark.parametrize("workload, trial, fakes, reason", CASES)
def test_wrong_algorithm_or_answer_counts_as_failed(lib, workload, trial, fakes, reason):
    assert outcome(lib, workload, trial).failed == 0  # the real library passes
    runner = outcome(lib, workload, trial, **fakes)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert len(runner.unexpected) == 1 and reason in runner.unexpected[0]


def test_known_defect_failure_is_counted_but_kept_apart(lib):
    trial = Trial("cli", 0, 0, 0, {"argv": ["bounds", "--n", workloads.HUGE_N, "--k", "3"],
                                   "code": 2, "rows": None, "out": None}, workloads.CLI_DEFECT)

    def overflowing(argv):
        raise OverflowError("int too large to convert to float")

    runner = outcome(lib, "search_cli", trial, cli_main=overflowing)
    assert (runner.attempted, runner.failed, runner.unexpected) == (1, 1, [])
    assert "OverflowError" in runner.known[0]


def test_ceil_root_is_exact():
    for n in range(1, 300):
        for k in range(1, 6):
            z = workloads.ceil_root(n, k)
            assert z ** k >= n and (z - 1) ** k < n
    assert workloads.ceil_root(10 ** 400, 3) ** 3 >= 10 ** 400
