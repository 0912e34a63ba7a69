"""Measurement harness: exact enumeration, seeded sampling, closed-form
bound columns, and CSV/SVG reports."""

import csv
import io
import itertools
import math
import os
import random
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache, partial

from . import cake as cake_mod
from . import locate as locate_mod
from . import reductions
from . import select as select_mod
from .oracle import HiddenInstance, Session, random_ranks
from .rank_sort import forced_query_count, sort_rank, sorting_lower_bound
from .util import ceil_div, ceil_kth_root, root_multiple_exceeds, useful_rounds

DEFAULT_BUDGET = 10 ** 7
BUDGET_ENV = "ROUNDS_LAB_BUDGET"

PROBLEMS = ("locate", "select", "sort", "cake", "reduce", "bounds", "brute")

class InfeasibleExact(Exception):
    pass


class SearchSpaceTooLarge(Exception):
    pass


class IoFailure(Exception):
    pass


class OverBudget(Exception):
    pass


def trial_rng(seed, trial):
    """Independent stream per (seed, trial); stable across runs."""
    return random.Random((seed << 40) + trial)


def exact_budget():
    """Query budget of one row, exact or sampled; overridable by env var."""
    value = int(os.environ.get(BUDGET_ENV, DEFAULT_BUDGET))
    if value < 1:
        raise ValueError("%s must be a positive integer" % (BUDGET_ENV,))
    return value


def bounds(n, k, p):
    """Closed-form reference bounds for an (n, k, p) triple.

    thm1: randomized Select (unordered search, rank promise)
          n*p*(k+1)/(2k) +- 1
    thm2: deterministic Select (unordered search, uniform target)
          n*p*(1 - p*(k-1)/(2k)) +- 1
    thm3: randomized Locate (ordered search, element promise)
          k*p*n**(1/k)
    thm4: deterministic Locate (ordered search, uniform target)
          k*p**(1/k)*n**(1/k)
    thm5: sorting floor (rank queries)
          (k/2e)*n**(1+1/k) - k*n
    """
    p = Fraction(p)
    c1 = Fraction(n) * p * Fraction(k + 1, 2 * k)
    c2 = Fraction(n) * p * (1 - Fraction(k - 1, 2 * k) * p)
    root = n ** (1.0 / k)
    return {
        "thm1_lo": c1 - 1, "thm1_hi": c1 + 1,
        "thm2_lo": c2 - 1, "thm2_hi": c2 + 1,
        "thm3": k * float(p) * root,
        "thm4": k * float(p) ** (1.0 / k) * root,
        "thm5": sorting_lower_bound(k, n),
    }


@dataclass(frozen=True)
class Check:
    """One named test of a row: a measured value against its bound, which
    is a number or a (lo, hi) band."""

    name: str
    value: object
    bound: object
    ok: bool

    def __str__(self):
        b = self.bound
        b = "[%s, %s]" % tuple(map(_cell, b)) if isinstance(b, tuple) else _cell(b)
        return "%s: measured %s, bound %s" % (self.name, _cell(self.value), b)


def _at_most(name, value, bound):
    return Check(name, value, bound, value <= bound)


def _at_least(name, value, bound):
    return Check(name, value, bound, value >= bound)


def _within(name, value, lo, hi):
    return Check(name, value, (lo, hi), lo <= value <= hi)


def _near(name, value, target, tol):
    return Check(name, value, (target - tol, target + tol),
                 abs(value - target) <= tol)


@dataclass(frozen=True)
class BoundRow:
    problem: str
    n: int
    k: int
    p: Fraction
    mode: str
    trials: int
    seed: int
    mean_queries: object
    ci95: object
    success_rate: object
    thm1_lo: Fraction
    thm1_hi: Fraction
    thm2_lo: Fraction
    thm2_hi: Fraction
    thm3: float
    thm4: float
    thm5: float
    passed: bool
    checks: tuple = ()  # the Checks that decided `passed`; not a CSV column


_CSV_FIELDS = tuple(f.name for f in fields(BoundRow))[:-1]
CSV_COLUMNS = tuple("pass" if name == "passed" else name for name in _CSV_FIELDS)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    n: int
    k: int
    p: Fraction = Fraction(1)
    trials: int = 100_000
    seed: int = 0
    mode: str = "exact"

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError("unknown problem: %r" % (self.problem,))
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 <= self.p <= 1:
            raise ValueError("p must be in [0, 1]")
        mode = {"montecarlo": "mc"}.get(self.mode, self.mode)
        if mode not in ("exact", "mc"):
            raise ValueError("mode must be exact or mc")
        object.__setattr__(self, "mode", mode)
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")


@dataclass(frozen=True)
class BoundReport:
    config: ExperimentConfig
    rows: tuple

    @property
    def all_pass(self):
        return all(r.passed for r in self.rows)


def _row(cfg, b, trials, mean_queries, ci95, success_rate, checks,
         problem=None, p=None):
    return BoundRow(problem=problem or cfg.problem, n=cfg.n, k=cfg.k,
                    p=cfg.p if p is None else p, mode=cfg.mode, trials=trials,
                    seed=cfg.seed, mean_queries=mean_queries, ci95=ci95,
                    success_rate=success_rate,
                    passed=all(c.ok for c in checks), checks=checks, **b)


def _guard(cfg, cost, kk=1, once=(0, 0), runs=()):
    """The one budget rule; every problem but bounds and brute calls it
    before any trial and before bounds().

    A cost (c, d) stands for c * n**(1/kk) + d queries. An exact run
    enumerates as many instances as the product of `runs` and is refused
    with InfeasibleExact when they may ask more than the budget at
    max(1, cost) each; a sampled run is refused with OverBudget when one
    trial may. `once` is what the row spends once, in either mode. All is
    decided in exact integers, and the product stops growing as soon as it
    passes the budget, so n! is never built.
    """
    budget = exact_budget()
    exact = cfg.mode == "exact"
    count = 1
    for factor in runs if exact else ():
        count *= factor
        if count > budget:
            break
    c, d = cost if any(cost) else (0, 1)
    if count > budget or root_multiple_exceeds(
            count * c + once[0], cfg.n, kk, budget - count * d - once[1]):
        what = "exact %s runs" if exact else "one sampled %s trial"
        raise (InfeasibleExact if exact else OverBudget)(
            (what + " may need more than %d queries, the %s budget")
            % (cfg.problem, budget, BUDGET_ENV))
    if not exact and cfg.n > sys.maxsize:
        # a sampled trial takes len() of its instance, which stops at
        # sys.maxsize; ROADMAP direction 5 lifts this limit
        raise ValueError("a sampled %s run takes n up to %d"
                         % (cfg.problem, sys.maxsize))


def _mean_ci(counts):
    m = sum(counts) / len(counts)
    if len(counts) < 2:
        return m, 0.0
    # a plain left-to-right float sum: from Python 3.12 on, sum() rounds
    # float sums differently, which would move ci95's last digits between
    # supported versions
    squares = 0.0
    for c in counts:
        squares += (c - m) ** 2
    var = squares / (len(counts) - 1)
    return m, 1.96 * math.sqrt(var / len(counts))


def _measure(cfg, instances, trial, judge):
    """The one trial loop. `trial(instance)` returns (queries, hit) for
    each instance; `judge(b, max_queries, mean, ci95, rate)` returns the
    row's success_rate and its checks. An exact row has exact means and
    rates and no sampling error; a sampled one has float means and rates
    and a ci95 radius."""
    b = bounds(cfg.n, cfg.k, cfg.p)
    counts = []
    hits = 0
    for instance in instances:
        queries, hit = trial(instance)
        counts.append(queries)
        hits += hit
    runs = len(counts)
    if cfg.mode == "exact":
        mean, ci, rate = Fraction(sum(counts), runs), 0.0, Fraction(hits, runs)
    else:
        (mean, ci), rate = _mean_ci(counts), hits / runs
    success, checks = judge(b, max(counts), mean, ci, rate)
    return [_row(cfg, b, runs, float(mean), ci, success, checks)]


def _draws(cfg):
    return (trial_rng(cfg.seed, t) for t in range(cfg.trials))


def _permutations(cfg):
    """Every permutation of 1..n in exact mode, else one draw per trial,
    checked once the trial builds its instance over it."""
    if cfg.mode == "exact":
        return itertools.permutations(range(1, cfg.n + 1))
    return (random_ranks(cfg.n, rng) for rng in _draws(cfg))


def _sampled_rate(rate, p, trials):
    sem = math.sqrt(float(p) * (1 - float(p)) / trials)
    return _near("success_rate", rate, float(p), 3 * sem + 1e-9)


def _run_locate(cfg):
    n, k, p = cfg.n, cfg.k, cfg.p
    exact = cfg.mode == "exact"
    subset = n if p == 1 else math.ceil(p * n)
    kk = useful_rounds(n, k)
    # a sampled trial searches all n candidates whenever its coin allows
    searched = subset if exact else (n if p else 0)
    _guard(cfg, (0, kk * ceil_kth_root(searched, kk)), runs=(n,))
    ranks = range(1, n + 1)  # the identity instance, built in O(1)
    if not exact:
        def trial(rng):
            r = rng.randrange(1, n + 1)
            sess = Session(HiddenInstance(ranks, target_index=r), k)
            got = locate_mod.locate_rand(sess, n, k, p, rng)
            return sess.total_queries, got == r

        def judge(b, top, mean, ci, rate):
            # the coin-gated search runs over all n candidates, so its
            # expected cost is judged against thm3, randomized Locate
            # (ordered search, element promise) = k*p*n**(1/k), not the
            # subset cap
            return rate, (_sampled_rate(rate, p, cfg.trials),
                          _at_most("mean_queries", mean,
                                   b["thm3"] + 3 * ci / 1.96 + 1e-9))
        return _measure(cfg, _draws(cfg), trial, judge)
    # the ceil(p*n) most probable ranks of a uniform target, ties toward
    # the smaller rank: locate_det_dist's candidates, without the weights
    cands = range(1, subset + 1)

    def trial(r):
        sess = Session(HiddenInstance(ranks, target_index=r), k)
        got = locate_mod.locate_det_subset(sess, n, k, cands) if subset else None
        if got is not None and got != r:
            raise AssertionError("reported a wrong rank")
        return sess.total_queries, got == r

    def judge(b, top, mean, ci, rate):
        return float(rate), (_at_least("success_rate", rate, p),
                             _at_most("max_queries", top,
                                      k * ceil_kth_root(subset, k)))
    return _measure(cfg, ranks, trial, judge)


def _run_select(cfg):
    n, k, p = cfg.n, cfg.k, cfg.p
    exact = cfg.mode == "exact"
    # an exact row is analytic and asks nothing; a sampled trial shuffles
    # all n items unless its coin stops it. The schedule takes one step per
    # round, and build_schedule refuses k > n before it takes any
    _guard(cfg, (0, 0 if exact or not p else n), once=(0, min(k, n)))
    if exact:
        def trial(sched):
            # one analytic run: the expected queries over a uniform target
            # and the chance that the target is covered
            covered = min(n, sum(sched.round_sizes) + 1)
            return select_mod.exact_expected_queries(sched), Fraction(covered, n)

        def judge(b, top, mean, ci, rate):
            return float(rate), (
                _within("mean_queries", mean, b["thm2_lo"], b["thm2_hi"]),
                _at_least("success_rate", rate, p))
        return _measure(cfg, (select_mod.build_schedule(n, k, p),), trial, judge)
    # a trial's count is a p-coin times the cost c of a uniform target, so
    # its mean is p*E[c] and its variance p*E[c**2] - (p*E[c])**2, exactly
    mean_c, square_c = select_mod.query_moments(select_mod.full_schedule(n, k))
    analytic = p * mean_c
    sigma = math.sqrt(p * square_c - analytic ** 2)
    target = n  # any fixed index; the shuffled order makes them all alike
    ranks = range(1, n + 1)

    def trial(rng):
        sess = Session(HiddenInstance(ranks, target_index=target), k)
        got = select_mod.select_rand(sess, n, k, p, rng)
        return sess.total_queries, got == target

    def judge(b, top, mean, ci, rate):
        return rate, (
            _within("expected_queries", analytic, b["thm1_lo"], b["thm1_hi"]),
            _near("mean_queries", mean, float(analytic),
                  3 * sigma / math.sqrt(cfg.trials) + 1e-9),
            _sampled_rate(rate, p, cfg.trials))
    return _measure(cfg, _draws(cfg), trial, judge)


def _run_sort(cfg):
    n, k = cfg.n, cfg.k
    # a run asks at most 2k*n**(1+1/k) queries and so does the forced
    # count, whose opponent does O(n) work per carve step and takes at
    # most n steps; rounds past log2 n ask nothing more
    kk = useful_rounds(n, k)
    cap = (2 * kk * n, 0)
    _guard(cfg, cap, kk, once=cap, runs=range(2, n + 1))

    def trial(perm):
        sess = Session(HiddenInstance(perm), k)
        got = sort_rank(sess, n, k)
        return sess.total_queries, got == perm

    def judge(b, top, mean, ci, rate):
        forced = forced_query_count(sort_rank, n, k)
        return float(rate == 1), (
            _at_least("sorted", rate, 1),
            _at_most("max_queries", top, 2 * k * n ** (1 + 1 / k)),
            _at_least("forced_queries", forced, max(0.0, b["thm5"])))
    return _measure(cfg, _permutations(cfg), trial, judge)


def sample_cake_agents(cfg, trial):
    rng = trial_rng(cfg.seed, trial)
    return [cake_mod.random_density(rng) for _ in range(cfg.n)]


def check_cake_budget(cfg):
    """The cake row's budget rule, which `cli.main` also runs before it
    samples an instance to save."""
    kk = useful_rounds(cfg.n, cfg.k)
    _guard(cfg, (kk * cfg.n, kk * cfg.n), kk)


def _run_cake(cfg, fixed_agents=None):
    n, k = cfg.n, cfg.k
    if cfg.mode == "exact" and fixed_agents is None:
        raise InfeasibleExact("division instances admit no finite enumeration")
    check_cake_budget(cfg)
    instances = ((fixed_agents,) if fixed_agents is not None else
                 (sample_cake_agents(cfg, t) for t in range(cfg.trials)))

    def trial(agents):
        if len(agents) != n:
            raise ValueError("instance has %d agents, expected %d" % (len(agents), n))
        allocation, tx = cake_mod.proportional_protocol(agents, k)
        return tx.total_queries, cake_mod.verify_proportional(allocation, agents)[0]

    def judge(b, top, mean, ci, rate):
        return float(rate == 1), (
            _at_least("proportional", rate, 1),
            _at_most("max_queries", top, k * n ** (1 + 1 / k) + k * n))
    return _measure(cfg, instances, trial, judge)


def _run_reduce(cfg):
    n, k = cfg.n, cfg.k
    # the division queries of one run: the cake row's cap, at the rounds
    # run_proportional uses
    kk = useful_rounds(n, k)
    _guard(cfg, (kk * n, kk * n), kk, runs=range(2, n + 1))
    protocol = partial(cake_mod.run_proportional, k=k)

    def trial(perm):
        rank_sess = Session(HiddenInstance(perm), k)
        got, rw_tr, _ = reductions.run_reduction(protocol, n, rank_sess)
        ranked, divided = rank_sess.transcript().round_sizes, rw_tr.round_sizes
        # sorted, in the division run's rounds, none of them larger
        return rank_sess.total_queries, (
            got == perm and len(ranked) == len(divided)
            and all(a <= b for a, b in zip(ranked, divided)))

    def judge(b, top, mean, ci, rate):
        return float(rate == 1), (_at_least("faithful", rate, 1),)
    return _measure(cfg, _permutations(cfg), trial, judge)


def _run_bounds(cfg):
    rows = []
    for j in range(21):
        p = Fraction(j, 20)
        rows.append(_row(cfg, bounds(cfg.n, cfg.k, p), 0, None, None, None,
                         (), p=p))
    return rows


def brute_force_select(n, k, p):
    """Cheapest deterministic probe plan against a uniform target with
    success at least p: exact expectation under full-batch charging."""
    if n > 5 or k > 2:
        raise SearchSpaceTooLarge("exhaustive search is guarded to n <= 5, k <= 2")
    p = Fraction(p)
    if not 1 <= k <= n:
        raise ValueError("k must be in 1..n")
    best = None
    for sizes in itertools.product(range(n + 1), repeat=k):
        total = sum(sizes)
        if total > n:
            continue
        covered = min(n, total + 1)
        if Fraction(covered, n) < p:
            continue
        ev = select_mod.exact_expected_queries(
            select_mod.SelectSchedule(n, k, p, sizes))
        if best is None or ev < best:
            best = ev
    return best


def brute_force_locate(n, k):
    """Minimal worst-case probe count to pin a rank among n candidates.

    Probing L candidates splits the rest into L + 1 gaps; even gaps are
    never worse (the cost is monotone in gap size), so optimizing the
    per-round probe count searches the whole strategy space.
    """
    if n > 32 or k > 3:
        raise SearchSpaceTooLarge("exhaustive search is guarded to n <= 32, k <= 3")
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")

    @lru_cache(maxsize=None)
    def f(r, rounds):
        if r <= 1:
            return 0
        if rounds == 0:
            return math.inf
        best = math.inf
        for probes in range(1, r + 1):
            gap = ceil_div(r - probes, probes + 1)
            best = min(best, probes + f(gap, rounds - 1))
        return best

    return f(n, k)


def _run_brute(cfg):
    n, k = cfg.n, cfg.k
    small_select, small_locate = n <= 5 and k <= 2, n <= 32 and k <= 3
    if not (small_select or small_locate):
        raise SearchSpaceTooLarge(
            "n=%d k=%d is outside both exhaustive guards" % (n, k))
    b = bounds(n, k, cfg.p)
    rows = []
    if small_select:
        opt = brute_force_select(n, k, cfg.p)
        rows.append(_row(cfg, b, 1, float(opt), 0.0, None,
                         (_within("optimum", opt, b["thm2_lo"], b["thm2_hi"]),),
                         problem="brute_select"))
    if small_locate:
        opt = brute_force_locate(n, k)
        rows.append(_row(cfg, b, 1, float(opt), 0.0, None,
                         (_at_most("optimum", opt, k * ceil_kth_root(n, k)),),
                         problem="brute_locate"))
    return rows


_RUNNERS = {
    "locate": _run_locate,
    "select": _run_select,
    "sort": _run_sort,
    "cake": _run_cake,
    "reduce": _run_reduce,
    "bounds": _run_bounds,
    "brute": _run_brute,
}


def run_experiment(config, fixed_cake_agents=None):
    """Measure one problem family and attach the bound columns.

    Identical configs give byte-identical reports: sampling uses only
    random streams derived from (seed, trial index)."""
    if fixed_cake_agents is not None:
        if config.problem != "cake":
            raise ValueError("fixed instances only apply to the cake problem")
        rows = _run_cake(config, fixed_agents=fixed_cake_agents)
    else:
        rows = _RUNNERS[config.problem](config)
    return BoundReport(config=config, rows=tuple(rows))


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return repr(float(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([_cell(getattr(r, name)) for name in _CSV_FIELDS])
    return buf.getvalue()


def _render_svg(rows):
    width, height, pad = 640, 400, 50
    xs = [float(r.p) for r in rows]
    if len(set(xs)) < 2:
        xs = list(range(len(rows)))  # fall back to row index on the x axis
    series = [
        ("thm1_hi", "#c0392b", [float(r.thm1_hi) for r in rows]),
        ("thm1_lo", "#e74c3c", [float(r.thm1_lo) for r in rows]),
        ("thm2_hi", "#2c3e50", [float(r.thm2_hi) for r in rows]),
        ("thm2_lo", "#3498db", [float(r.thm2_lo) for r in rows]),
    ]
    points = [(x, float(r.mean_queries)) for x, r in zip(xs, rows)
              if r.mean_queries is not None]
    ys = [v for _, _, vals in series for v in vals] + [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def sx(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
        % (pad, height - pad, width - pad, height - pad),
        '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
        % (pad, pad, pad, height - pad),
    ]
    legend_y = pad
    for name, color, vals in series:
        pts = " ".join("%g,%g" % (sx(x), sy(v)) for x, v in zip(xs, vals))
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1.5"/>' % (pts, color))
        parts.append('<text x="%g" y="%g" font-size="12" fill="%s">%s</text>'
                     % (width - pad - 70, legend_y, color, name))
        legend_y += 14
    for x, y in points:
        parts.append('<circle cx="%g" cy="%g" r="3" fill="#27ae60"/>'
                     % (sx(x), sy(y)))
    parts.append('<text x="%g" y="%g" font-size="12">%g</text>'
                 % (pad, height - pad + 16, x_lo))
    parts.append('<text x="%g" y="%g" font-size="12" text-anchor="end">%g</text>'
                 % (width - pad, height - pad + 16, x_hi))
    parts.append('<text x="%g" y="%g" font-size="12">%.4g</text>'
                 % (4, height - pad, y_lo))
    parts.append('<text x="%g" y="%g" font-size="12">%.4g</text>'
                 % (4, pad, y_hi))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_RENDERERS = {"csv": _render_csv, "svg": _render_svg}


def emit_report(report, fmt="csv", out=None):
    """Render a report as CSV rows or a self-contained SVG chart; writes to
    `out` when given and always returns the rendered text."""
    render = _RENDERERS.get(fmt)
    if render is None:
        raise ValueError("unknown report format: %r" % (fmt,))
    rows = list(report.rows) if isinstance(report, BoundReport) else list(report)
    if not rows:
        raise IoFailure("refusing to write an empty report")
    text = render(rows)
    if out is not None:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
    return text
