import csv
import io
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction

import pytest

import rounds_lab
from rounds_lab import cli, harness
from rounds_lab.harness import CSV_COLUMNS
from rounds_lab.rank_sort import AdversaryState


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_rows(out):
    return list(csv.DictReader(io.StringIO(out)))


def test_locate_exact_to_stdout(capsys):
    code, out, err = run_cli(capsys, "locate", "--n", "32", "--k", "2")
    assert code == 0 and err == ""
    rows = parse_rows(out)
    assert len(rows) == 1
    assert list(rows[0]) == list(CSV_COLUMNS)
    assert rows[0]["pass"] == "true"
    assert rows[0]["problem"] == "locate"


def test_fraction_and_mc_flags(capsys):
    code, out, _ = run_cli(capsys, "select", "--n", "20", "--k", "2",
                           "--p", "1/2", "--mode", "mc",
                           "--trials", "2000", "--seed", "7")
    assert code == 0
    row = parse_rows(out)[0]
    assert row["mode"] == "mc" and row["trials"] == "2000"
    assert float(row["p"]) == 0.5


def test_few_sampled_select_trials_are_judged_by_the_exact_spread(capsys):
    """Every run of this row asks 6 queries or, when its coin says so,
    none, so two trials' own spread is often 0. The mean's band comes from
    the exact variance of a trial's count instead, and no seed fails."""
    for seed in range(200):
        code, _, err = run_cli(capsys, "select", "--n", "7", "--k", "1",
                               "--p", "1/3", "--mode", "mc", "--trials", "2",
                               "--seed", str(seed))
        assert (code, err) == (0, ""), seed


def test_out_file_and_svg(tmp_path, capsys):
    out = tmp_path / "sweep.svg"
    code, stdout, _ = run_cli(capsys, "bounds", "--n", str(2 ** 30), "--k", "4",
                              "--format", "svg", "--out", str(out))
    assert code == 0
    assert stdout == ""  # nothing doubles to stdout when a file is given
    assert out.read_text().startswith("<svg")


@pytest.mark.parametrize("p", ["1", "1/2"])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [2 ** 54, 2 ** 60])
def test_svg_of_a_row_whose_values_round_to_one_float(capsys, n, k, p):
    """Past 2**53 every value an exact select row plots rounds to the same
    float, so the chart's y range must still open to a nonzero span."""
    code, out, err = run_cli(capsys, "select", "--n", str(n), "--k", str(k),
                             "--p", p, "--format", "svg")
    assert (code, err) == (0, "")
    assert out.startswith("<svg") and out.count("<circle") == 1


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "cake", "--n", "5", "--k", "2")
    assert code == 2 and "InfeasibleExact" in err
    code, _, err = run_cli(capsys, "brute", "--n", "99", "--k", "9")
    assert code == 2 and "SearchSpaceTooLarge" in err
    code, _, err = run_cli(capsys, "locate", "--n", "10", "--k", "2",
                           "--p", "7/2")
    assert code == 2 and "ValueError" in err


def test_brute_runs_each_search_under_its_own_guard(capsys):
    # n = 1, k = 2 is inside select's guard, whose k <= n rule refuses it
    code, out, err = run_cli(capsys, "brute", "--n", "1", "--k", "2")
    assert (code, out, err) == (2, "", "ValueError: k must be in 1..n\n")
    # at k = 3 select's guard skips its row and locate's admits n = 1
    code, out, err = run_cli(capsys, "brute", "--n", "1", "--k", "3")
    assert (code, err) == (0, "")
    rows = parse_rows(out)
    assert [row["problem"] for row in rows] == ["brute_locate"]
    assert (rows[0]["mean_queries"], rows[0]["pass"]) == ("0.0", "true")
    # outside both guards the run is refused before bounds(), whose floats
    # overflow at this n
    code, out, err = run_cli(capsys, "brute", "--n", str(10 ** 400), "--k", "1")
    assert (code, out) == (2, "") and err.startswith("SearchSpaceTooLarge: ")


def test_locate_with_p_zero_asks_nothing_and_passes(capsys):
    for mode in ("exact", "mc"):
        code, out, err = run_cli(capsys, "locate", "--n", "5", "--k", "3",
                                 "--p", "0", "--mode", mode, "--trials", "50")
        assert code == 0 and err == ""
        row = parse_rows(out)[0]
        assert row["pass"] == "true" and row["mode"] == mode
        assert float(row["mean_queries"]) == 0 and float(row["success_rate"]) == 0


def test_failing_row_exits_one(capsys, monkeypatch):
    real = harness.run_experiment

    def rigged(config, fixed_cake_agents=None):
        report = real(config, fixed_cake_agents=fixed_cake_agents)
        rows = tuple(r.__class__(**{**r.__dict__, "passed": False})
                     for r in report.rows)
        return harness.BoundReport(config=report.config, rows=rows)

    monkeypatch.setattr(harness, "run_experiment", rigged)
    code, out, _ = run_cli(capsys, "select", "--n", "10", "--k", "2")
    assert code == 1
    assert parse_rows(out)[0]["pass"] == "false"


@pytest.mark.parametrize("problem, trials", [
    ("locate", 100_000), ("select", 100_000), ("sort", 100), ("cake", 100),
    ("reduce", 100)])
def test_sampled_run_without_trials_takes_the_problem_default(
        capsys, monkeypatch, problem, trials):
    """--mode mc without --trials leaves the count to the config, which
    takes the problem's default; the spy caps a run at 100 trials, so the
    100-trial defaults run as they are and no 100,000-trial row runs."""
    real = harness.run_experiment
    seen = []

    def spy(config, fixed_cake_agents=None):
        seen.append(config.trials)
        return real(replace(config, trials=min(config.trials, 100)),
                    fixed_cake_agents=fixed_cake_agents)

    monkeypatch.setattr(harness, "run_experiment", spy)
    code, out, err = run_cli(capsys, problem, "--n", "4", "--k", "2",
                             "--mode", "mc")
    assert (code, err) == (0, "")
    assert seen == [trials]
    assert parse_rows(out)[0]["trials"] == str(min(trials, 100))

def test_cake_save_and_reload(tmp_path, capsys):
    path = tmp_path / "inst.cake"
    code, out, _ = run_cli(capsys, "cake", "--n", "6", "--k", "2",
                           "--mode", "mc", "--save-cake", str(path))
    assert code == 0
    assert parse_rows(out)[0]["trials"] == "1"
    first = out
    code, out, _ = run_cli(capsys, "cake", "--n", "6", "--k", "2",
                           "--mode", "mc", "--cake-file", str(path))
    assert code == 0
    assert out == first


def test_cake_file_must_match_n(tmp_path, capsys):
    path = tmp_path / "inst.cake"
    path.write_text("0 1 1\n0 1 1\n")
    code, _, err = run_cli(capsys, "cake", "--n", "3", "--k", "1",
                           "--mode", "mc", "--cake-file", str(path))
    assert code == 2 and "2 agents" in err
    code, _, err = run_cli(capsys, "locate", "--n", "3", "--k", "1",
                           "--cake-file", str(path))
    assert code == 2


def test_cake_file_and_save_cake_exclude_each_other(tmp_path, capsys):
    """Reading agents from a file and saving sampled ones are alternatives:
    asking for both exits 2 before any run, with nothing on stdout and no
    file written."""
    source = tmp_path / "two.cake"
    source.write_text("0 1 1\n0 1 1\n")
    saved = tmp_path / "saved.cake"
    with pytest.raises(SystemExit) as exc:
        cli.main(["cake", "--n", "2", "--k", "1", "--cake-file", str(source),
                  "--save-cake", str(saved)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with argument" in captured.err
    assert not saved.exists()


def test_the_shared_parser_carries_nothing_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    plain = ["cake", "--n", "2", "--k", "1", "--mode", "mc", "--trials", "3"]
    code, first, _ = run_cli(capsys, *plain)
    assert code == 0 and first.startswith("problem,")
    cake = tmp_path / "two.cake"
    cake.write_text("0 1 1\n0 1 1\n")
    svg = tmp_path / "run.svg"
    code, out, _ = run_cli(capsys, *plain, "--p", "1/2", "--cake-file",
                           str(cake), "--format", "svg", "--out", str(svg))
    assert code == 0 and out == "" and svg.read_text().startswith("<svg")
    # the defaults come back: p = 1, sampled agents, csv on stdout
    code, out, _ = run_cli(capsys, *plain)
    assert code == 0 and out == first
    fresh = cli.build_parser.__wrapped__()
    assert cli.build_parser().parse_args(plain) == fresh.parse_args(plain)


def test_a_rejected_call_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["locate", "--n", "ten", "--k", "1", "--p", "1/2"])
    assert exc.value.code == 2
    code, out, err = run_cli(capsys, "locate", "--n", "10", "--k", "1")
    assert code == 0 and "invalid int" in err
    assert parse_rows(out)[0]["p"] == "1.0"


def test_missing_required_flags(capsys):
    with pytest.raises(SystemExit):
        cli.main(["locate", "--n", "4"])
    with pytest.raises(SystemExit):
        cli.main(["mystery", "--n", "4", "--k", "1"])
    # a zero denominator is a usage error, not a ZeroDivisionError
    for p in ("1/0", "0/0"):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["locate", "--n", "4", "--k", "2", "--p", p])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


MC1 = ("--mode", "mc", "--trials", "1")

# runs that may ask more than the default budget, each refused at once:
# exit 2, nothing on stdout, one line on stderr naming the refusal
REFUSED = [
    (("sort", "--n", "100000", "--k", "1") + MC1, "OverBudget"),
    (("sort", "--n", str(10 ** 400), "--k", "3") + MC1, "OverBudget"),
    (("reduce", "--n", "4000", "--k", "1") + MC1, "OverBudget"),
    # the refusal must not format n!, which has more than 4300 digits here
    (("sort", "--n", "2000", "--k", "2"), "InfeasibleExact"),
    (("reduce", "--n", "2000", "--k", "2"), "InfeasibleExact"),
    # one sampled trial would build a list of n probes or n items
    (("locate", "--n", str(10 ** 12), "--k", "1") + MC1, "OverBudget"),
    (("select", "--n", str(10 ** 12), "--k", "3") + MC1, "OverBudget"),
]

# runs that take minutes or hours unless the budget refuses them before
# any work grows with n or k; run in a separate process, so a hang times out
WOULD_HANG = [
    (("sort", "--n", "3000000", "--k", "2"), "InfeasibleExact"),  # n!
    (("locate", "--n", "100000", "--k", "1"), "InfeasibleExact"),  # n**2 queries
    (("select", "--n", "100000000", "--k", "100000000"), "InfeasibleExact"),
    (("cake", "--n", "100000", "--k", "1") + MC1, "OverBudget"),
]


def test_sampled_runs_over_the_budget_are_refused(capsys, monkeypatch):
    monkeypatch.delenv(harness.BUDGET_ENV, raising=False)
    for argv, error in REFUSED:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(error + ": ") and err.count("\n") == 1


def test_sampled_searches_take_n_up_to_sys_maxsize(capsys, monkeypatch):
    """Past sys.maxsize a sampled locate or select run is refused before
    any trial, as a known error; up to it, and in an exact select row, it
    runs."""
    monkeypatch.delenv(harness.BUDGET_ENV, raising=False)
    mc2 = ("--mode", "mc", "--trials", "2")
    for n in (sys.maxsize + 1, 10 ** 30):
        for argv in (("locate", "--n", str(n), "--k", "64") + mc2,
                     ("select", "--n", str(n), "--k", "3", "--p", "0") + mc2):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("ValueError: ") and err.count("\n") == 1, argv
    for argv in (("locate", "--n", str(sys.maxsize), "--k", "64") + mc2,
                 ("select", "--n", str(sys.maxsize), "--k", "3", "--p", "0") + mc2,
                 ("select", "--n", str(10 ** 30), "--k", "3", "--p", "1/3")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "", argv
        assert parse_rows(out)[0]["pass"] == "true", argv


def run_cli_process(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(rounds_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop(harness.BUDGET_ENV, None)
    return subprocess.run([sys.executable, "-m", "rounds_lab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=20)


@pytest.mark.parametrize("argv,error", REFUSED + WOULD_HANG)
def test_refusals_finish_fast(argv, error):
    proc = run_cli_process(argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(error + ": ") and proc.stderr.count("\n") == 1


def test_an_over_budget_save_cake_writes_nothing(tmp_path):
    """The budget refuses the run before an instance is sampled or the
    file is opened."""
    path = tmp_path / "big.cake"
    start = time.perf_counter()
    proc = run_cli_process(("cake", "--n", "200000", "--k", "1") + MC1
                           + ("--save-cake", str(path)))
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("OverBudget: ") and proc.stderr.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ("sort", "--n", "5", "--k", "100000000"),
    ("sort", "--n", "5", "--k", str(10 ** 12)),
    ("locate", "--n", "5", "--k", str(10 ** 12)),
    ("reduce", "--n", "4", "--k", "1000000"),
    ("cake", "--n", "4", "--k", "100000000", "--mode", "mc", "--trials", "1"),
    # the sampled budget guards clamp k to ceil(log2 n) as the runs do
    ("sort", "--n", "5", "--k", str(10 ** 12), "--mode", "mc", "--trials", "1"),
    ("reduce", "--n", "5", "--k", str(10 ** 12), "--mode", "mc", "--trials", "1"),
    # a million-round select schedule, built and summed in integers
    ("select", "--n", "100000000", "--k", "1000000", "--p", "1/3"),
])
def test_huge_round_budgets_finish_fast(argv):
    """A round budget far past ceil(log2 n) changes no split, and must not
    cost time that grows with k; a separate process, so a hang times out."""
    proc = run_cli_process(argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert parse_rows(proc.stdout)[0]["pass"] == "true"


@pytest.mark.parametrize("problem,n,k,cap", [
    ("sort", 10, 1, 2 * (2 * 10 ** 2)),       # trial cap and forced count
    ("sort", 16, 2, 2 * (2 * 2 * 16 * 4)),    # trial cap and forced count
    ("reduce", 16, 2, 2 * 16 * 4 + 2 * 16),   # k*n**(1+1/k) + k*n
    # past ceil(log2 16) = 4 rounds, the caps of k = 4
    ("sort", 16, 10 ** 12, 2 * (2 * 4 * 16 * 2)),
    ("reduce", 16, 10 ** 12, 4 * 16 * 2 + 4 * 16),
])
def test_budget_guards_one_sampled_trial(capsys, monkeypatch, problem, n, k, cap):
    argv = (problem, "--n", str(n), "--k", str(k), "--mode", "mc")
    monkeypatch.setenv(harness.BUDGET_ENV, str(cap - 1))
    code, out, err = run_cli(capsys, *argv, "--trials", "1")
    assert (code, out) == (2, "") and "OverBudget" in err
    monkeypatch.setenv(harness.BUDGET_ENV, str(cap))
    # the guard is per trial: many trials at the cap still run
    code, out, err = run_cli(capsys, *argv, "--trials", "5")
    assert code == 0 and err == "" and parse_rows(out)[0]["trials"] == "5"


@pytest.mark.parametrize("problem,n,k,cap", [
    ("locate", 10, 1, 10 * 10),         # n targets at k*ceil(n**(1/k)) each
    ("locate", 16, 2, 16 * 8),
    ("locate", 16, 10 ** 12, 16 * 8),   # past ceil(log2 16) = 4 rounds
    ("select", 5, 3, 1 + 3),            # one analytic run, k schedule steps
    ("sort", 3, 1, 6 * 18 + 18),        # 3! runs at 2k*n**(1+1/k),
    ("sort", 4, 2, 24 * 32 + 32),       # and the forced count once
    ("reduce", 3, 1, 6 * (9 + 3)),      # 3! runs at k*n**(1+1/k) + k*n
])
def test_budget_guards_an_exact_run(capsys, monkeypatch, problem, n, k, cap):
    argv = (problem, "--n", str(n), "--k", str(k))
    monkeypatch.setenv(harness.BUDGET_ENV, str(cap - 1))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("InfeasibleExact: ")
    monkeypatch.setenv(harness.BUDGET_ENV, str(cap))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""


def test_a_failing_check_is_named_on_stderr(capsys, monkeypatch):
    real = harness.sort_rank

    def wrong(session, n, k):
        # right against the opponent behind the forced count, wrong on
        # every hidden permutation
        got = real(session, n, k)
        return got if isinstance(session.backend, AdversaryState) else got[::-1]

    monkeypatch.setattr(harness, "sort_rank", wrong)
    code, out, err = run_cli(capsys, "sort", "--n", "4", "--k", "2")
    assert code == 1
    row = parse_rows(out)[0]
    assert (row["pass"], row["success_rate"]) == ("false", "0.0")
    assert err == "FAIL sort sorted: measured 0.0, bound 1\n"


# Measurement columns (problem through success_rate, plus pass) on a fixed
# grid of fast invocations. The thm* columns are left out: they come from
# libm pow and may differ in the last digit across platforms.
GOLDEN_REPORTS = [
    (("locate", "--n", "64", "--k", "3"),
     ["locate,64,3,1.0,exact,64,0,8.21875,0.0,1.0,true"]),
    (("locate", "--n", "64", "--k", "3", "--p", "3/4"),
     ["locate,64,3,0.75,exact,64,0,7.4375,0.0,0.75,true"]),
    (("select", "--n", "30", "--k", "3", "--p", "1/2"),
     ["select,30,3,0.5,exact,1,0,11.833333333333334,0.0,0.5,true"]),
    (("locate", "--n", "100", "--k", "3", "--p", "1/2",
      "--mode", "mc", "--trials", "200", "--seed", "3"),
     ["locate,100,3,0.5,mc,200,3,5.29,0.7365941773531414,0.51,true"]),
    (("select", "--n", "50", "--k", "4", "--p", "1/2",
      "--mode", "mc", "--trials", "200", "--seed", "3"),
     ["select,50,4,0.5,mc,200,3,16.61,2.5565012490475896,0.53,true"]),
    (("sort", "--n", "5", "--k", "2"),
     ["sort,5,2,1.0,exact,120,0,10.0,0.0,1.0,true"]),
    (("cake", "--n", "8", "--k", "2", "--mode", "mc", "--trials", "2",
      "--seed", "1"),
     ["cake,8,2,1.0,mc,2,1,30.0,0.0,1.0,true"]),
    (("reduce", "--n", "4", "--k", "2"),
     ["reduce,4,2,1.0,exact,24,0,8.0,0.0,1.0,true"]),
    (("reduce", "--n", "12", "--k", "2", "--mode", "mc", "--trials", "3",
      "--seed", "5"),
     ["reduce,12,2,1.0,mc,3,5,60.0,0.0,1.0,true"]),
    (("brute", "--n", "4", "--k", "2"),
     ["brute_select,4,2,1.0,exact,1,0,2.5,0.0,,true",
      "brute_locate,4,2,1.0,exact,1,0,2.0,0.0,,true"]),
]


@pytest.mark.parametrize("argv,want", GOLDEN_REPORTS,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_REPORTS])
def test_reports_are_stable(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    measured = CSV_COLUMNS[:CSV_COLUMNS.index("success_rate") + 1] + ("pass",)
    got = [",".join(row[c] for c in measured) for row in parse_rows(out)]
    assert got == want
