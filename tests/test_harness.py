import math
from fractions import Fraction

import pytest

from rounds_lab.cake import PiecewiseDensity
from rounds_lab.harness import (CSV_COLUMNS, DEFAULT_BUDGET, BUDGET_ENV,
                                BoundReport, ExperimentConfig, InfeasibleExact,
                                IoFailure, SearchSpaceTooLarge, bounds,
                                brute_force_locate, brute_force_select,
                                emit_report, exact_budget, run_experiment)
from rounds_lab.rank_sort import sorting_lower_bound
from rounds_lab.select import build_schedule, exact_expected_queries


def test_bound_bands():
    b = bounds(100, 4, Fraction(1, 2))
    assert b["thm1_hi"] - b["thm1_lo"] == 2
    assert b["thm1_lo"] == Fraction(100, 2) * Fraction(5, 8) - 1
    assert b["thm2_lo"] == Fraction(100, 2) * (1 - Fraction(3, 8) / 2) - 1
    assert b["thm5"] == sorting_lower_bound(4, 100)
    assert math.isclose(b["thm3"], 4 * 0.5 * 100 ** 0.25)
    assert math.isclose(b["thm4"], 4 * 0.5 ** 0.25 * 100 ** 0.25)


def test_bound_bands_agree_at_the_ends():
    for n, k in ((10, 1), (100, 3), (1000, 7)):
        for p in (Fraction(0), Fraction(1)):
            b = bounds(n, k, p)
            assert b["thm1_lo"] == b["thm2_lo"]
            assert b["thm1_hi"] == b["thm2_hi"]


def test_budget_env(monkeypatch):
    assert exact_budget() == DEFAULT_BUDGET
    monkeypatch.setenv(BUDGET_ENV, "123")
    assert exact_budget() == 123
    monkeypatch.setenv(BUDGET_ENV, "0")
    with pytest.raises(ValueError):
        exact_budget()


def test_config_validation():
    cfg = ExperimentConfig(problem="locate", n=4, k=2, mode="mc")
    assert cfg.mode == "mc"
    with pytest.raises(ValueError, match="mode must be exact or mc"):
        ExperimentConfig(problem="locate", n=4, k=2, mode="montecarlo")
    with pytest.raises(ValueError):
        ExperimentConfig(problem="nope", n=4, k=2)
    with pytest.raises(ValueError):
        ExperimentConfig(problem="locate", n=4, k=2, p=2)
    with pytest.raises(ValueError):
        ExperimentConfig(problem="locate", n=0, k=2)
    with pytest.raises(ValueError):
        ExperimentConfig(problem="locate", n=4, k=2, mode="fast")
    with pytest.raises(ValueError):
        ExperimentConfig(problem="locate", n=4, k=2, trials=0)



@pytest.mark.parametrize("problem, trials", [
    ("locate", 100_000), ("select", 100_000), ("sort", 100), ("cake", 100),
    ("reduce", 100), ("bounds", 1), ("brute", 1)])
def test_each_problem_has_its_default_trial_count(problem, trials):
    """A config without trials takes its problem's default; one with
    trials keeps them."""
    assert ExperimentConfig(problem=problem, n=4, k=2).trials == trials
    assert ExperimentConfig(problem=problem, n=4, k=2, mode="mc",
                            trials=7).trials == 7

def run(problem, **kw):
    kw.setdefault("n", 10)
    kw.setdefault("k", 2)
    return run_experiment(ExperimentConfig(problem=problem, **kw))


def test_locate_experiments_pass():
    assert run("locate", n=64, k=3).all_pass
    assert run("locate", n=40, k=2, p=Fraction(1, 4)).all_pass
    rep = run("locate", n=20, k=2, p=Fraction(1, 2), mode="mc", trials=3000)
    assert rep.all_pass
    row = rep.rows[0]
    assert 0 < row.success_rate < 1 and row.ci95 > 0
    # gated search runs over the full range: its mean may exceed the
    # p-subset cap and must be judged against thm3 instead
    rep = run("locate", n=100, k=2, p=Fraction(1, 2), mode="mc",
              trials=2000, seed=3)
    assert rep.all_pass
    assert rep.rows[0].mean_queries > 8  # above the old, wrong cap


def test_select_experiments_pass():
    rep = run("select", n=100, k=4, p=Fraction(3, 4))
    assert rep.all_pass
    assert rep.rows[0].mean_queries == float(
        exact_expected_queries(build_schedule(100, 4, Fraction(3, 4))))
    assert run("select", n=12, k=3, p=Fraction(1, 2), mode="mc",
               trials=4000).all_pass


def test_sort_and_cake_and_reduce_pass():
    assert run("sort", n=5, k=2, trials=1).all_pass
    assert run("sort", n=30, k=2, mode="mc", trials=15).all_pass
    assert run("cake", n=9, k=2, mode="mc", trials=15).all_pass
    assert run("reduce", n=4, k=2, trials=1).all_pass
    assert run("reduce", n=9, k=3, mode="mc", trials=10).all_pass


def test_exact_gates():
    with pytest.raises(InfeasibleExact):
        run("sort", n=10, k=2, trials=1)
    with pytest.raises(InfeasibleExact):
        run("cake", n=4, k=2, trials=1)
    with pytest.raises(InfeasibleExact):
        run("reduce", n=10, k=2, trials=1)


def test_fixed_cake_agents_must_fit_the_config():
    """Fixed agents are refused for any problem but cake, and for a cake
    config whose n they do not match."""
    uniform = PiecewiseDensity((0, 1), (1,))
    with pytest.raises(ValueError, match="only apply to the cake problem"):
        run_experiment(ExperimentConfig(problem="locate", n=2, k=1),
                       fixed_cake_agents=[uniform, uniform])
    with pytest.raises(ValueError, match="instance has 2 agents, expected 3"):
        run_experiment(ExperimentConfig(problem="cake", n=3, k=2),
                       fixed_cake_agents=[uniform, uniform])
    assert run_experiment(ExperimentConfig(problem="cake", n=2, k=1),
                          fixed_cake_agents=[uniform, uniform]).all_pass


def test_budget_env_tightens_gates(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "50")
    with pytest.raises(InfeasibleExact):
        run("sort", n=4, k=2, trials=1)
    monkeypatch.setenv(BUDGET_ENV, str(10 ** 8))
    assert run("sort", n=4, k=2, trials=1).all_pass


def test_bounds_sweep_shape():
    rep = run("bounds", n=2 ** 20, k=4)
    assert len(rep.rows) == 21
    assert [r.p for r in rep.rows] == [Fraction(j, 20) for j in range(21)]
    assert rep.all_pass
    assert rep.rows[0].mean_queries is None


def test_brute_rows_and_guards():
    rep = run("brute", n=4, k=2, p=Fraction(1, 2), trials=1)
    by_name = {r.problem: r for r in rep.rows}
    assert set(by_name) == {"brute_select", "brute_locate"}
    assert rep.all_pass
    with pytest.raises(SearchSpaceTooLarge):
        run("brute", n=100, k=5, trials=1)


def test_brute_force_select_matches_schedule():
    for n in (2, 3, 4, 5):
        for k in (1, 2):
            for p in (Fraction(1), Fraction(1, 2)):
                opt = brute_force_select(n, k, p)
                ours = exact_expected_queries(build_schedule(n, k, p))
                assert opt <= ours
    assert brute_force_select(4, 1, Fraction(1)) == 3
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_select(6, 1, Fraction(1))
    with pytest.raises(ValueError):
        brute_force_select(1, 2, Fraction(1))


def test_brute_force_locate_values():
    assert brute_force_locate(2, 1) == 1
    assert brute_force_locate(3, 1) == 1
    assert brute_force_locate(9, 2) == 3
    assert brute_force_locate(32, 3) <= 3 * 4
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_locate(33, 2)
    with pytest.raises(ValueError):
        brute_force_locate(0, 1)


def test_csv_report_shape(tmp_path):
    rep = run("select", n=10, k=2)
    text = emit_report(rep, fmt="csv")
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert lines[1].startswith("select,10,2,1.0,exact,")
    assert lines[1].endswith(",true")
    out = tmp_path / "r.csv"
    emit_report(rep, fmt="csv", out=str(out))
    assert out.read_text() == text


def test_svg_report_is_self_contained():
    rep = run("bounds", n=2 ** 20, k=4)
    svg = emit_report(rep, fmt="svg")
    assert svg.startswith("<svg xmlns=")
    assert svg.rstrip().endswith("</svg>")
    assert "thm1_lo" in svg and "polyline" in svg
    assert "href" not in svg and "script" not in svg


def test_emit_report_failures(tmp_path):
    rep = run("select", n=10, k=2)
    with pytest.raises(IoFailure):
        emit_report(BoundReport(config=rep.config, rows=()))
    with pytest.raises(IoFailure):
        emit_report(rep, fmt="csv", out=str(tmp_path / "no" / "dir" / "x.csv"))
    for fmt in ("json", "CSV"):
        with pytest.raises(ValueError):
            emit_report(rep, fmt=fmt)
