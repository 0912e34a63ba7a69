"""Measurement harness: exact enumeration, seeded sampling, closed-form
bound columns, and CSV/SVG reports."""

import csv
import io
import itertools
import math
import os
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

from . import cake as cake_mod
from . import locate as locate_mod
from . import reductions
from . import select as select_mod
from .oracle import HiddenInstance, Session, open_session, random_instance
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
    """Evaluation budget for exact enumeration; overridable by env var."""
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    value = int(raw)
    if value < 1:
        raise ValueError("%s must be a positive integer" % (BUDGET_ENV,))
    return value


def _refuse_over_budget(problem, c, n, k, extra=0):
    """Refuse a sampled run when one trial may cost c * n**(1/k) + extra
    evaluations, more than the budget; decided in exact integers."""
    budget = exact_budget()
    if root_multiple_exceeds(c, n, k, budget - extra):
        raise OverBudget("one sampled %s trial may need more than %d "
                         "evaluations, the %s budget"
                         % (problem, budget, BUDGET_ENV))


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


CSV_COLUMNS = tuple("pass" if f.name == "passed" else f.name
                    for f in fields(BoundRow))


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    n: int
    k: int
    p: Fraction = Fraction(1)
    trials: int = 100_000
    seed: int = 0
    mode: str = "exact"
    out: str = None
    fmt: str = "csv"

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
        if self.fmt not in _RENDERERS:
            raise ValueError("format must be csv or svg")


@dataclass(frozen=True)
class BoundReport:
    config: ExperimentConfig
    rows: tuple

    @property
    def all_pass(self):
        return all(r.passed for r in self.rows)


def _row(cfg, b, mean_queries, ci95, success_rate, passed, problem=None,
         p=None, trials=None):
    return BoundRow(problem=problem or cfg.problem, n=cfg.n, k=cfg.k,
                    p=cfg.p if p is None else p, mode=cfg.mode,
                    trials=cfg.trials if trials is None else trials,
                    seed=cfg.seed, mean_queries=mean_queries, ci95=ci95,
                    success_rate=success_rate, passed=passed, **b)


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


def _sem(p, trials):
    return math.sqrt(float(p) * (1 - float(p)) / trials)


def _run_locate(cfg):
    n, k, p = cfg.n, cfg.k, cfg.p
    b = bounds(n, k, p)
    subset = n if p == 1 else math.ceil(p * n)
    cap = k * ceil_kth_root(subset, k)
    ranks = range(1, n + 1)  # the identity instance, built in O(1)
    if cfg.mode == "exact":
        if n > exact_budget():
            raise InfeasibleExact("enumerating %d targets exceeds the budget" % (n,))
        if p == 1:
            def run(sess):
                return locate_mod.locate_det(sess, n, k)
        elif p == 0:
            def run(sess):
                # the ceil(0 * n) = 0 most probable ranks: nothing to ask
                return None
        else:
            dist = locate_mod.RankDistribution((Fraction(1, n),) * n)

            def run(sess):
                return locate_mod.locate_det_dist(sess, n, k, p, dist)
        counts = []
        hits = 0
        for r in range(1, n + 1):
            sess = open_session(HiddenInstance(ranks, target_index=r), k)
            got = run(sess)
            counts.append(sess.total_queries)
            if got == r:
                hits += 1
            elif got is not None:
                raise AssertionError("reported a wrong rank")
        succ = Fraction(hits, n)
        ok = succ >= p and max(counts) <= cap
        return [_row(cfg, b, float(Fraction(sum(counts), n)), 0.0,
                     float(succ), ok, trials=n)]
    counts = []
    hits = 0
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        r = rng.randrange(1, n + 1)
        sess = open_session(HiddenInstance(ranks, target_index=r), k)
        got = locate_mod.locate_rand(sess, n, k, p, rng)
        counts.append(sess.total_queries)
        hits += got == r
    m, ci = _mean_ci(counts)
    succ = hits / cfg.trials
    # the coin-gated search runs over all n candidates, so its expected
    # cost is judged against thm3, randomized Locate (ordered search,
    # element promise) = k*p*n**(1/k), not the subset cap
    ok = (abs(succ - float(p)) <= 3 * _sem(p, cfg.trials) + 1e-9
          and m <= b["thm3"] + 3 * ci / 1.96 + 1e-9)
    return [_row(cfg, b, m, ci, succ, ok)]


def _run_select(cfg):
    n, k, p = cfg.n, cfg.k, cfg.p
    b = bounds(n, k, p)
    if cfg.mode == "exact":
        sched = select_mod.build_schedule(n, k, p)
        ev = select_mod.exact_expected_queries(sched)
        succ = Fraction(min(n, sum(sched.round_sizes) + 1), n)
        ok = b["thm2_lo"] <= ev <= b["thm2_hi"] and succ >= p
        return [_row(cfg, b, float(ev), 0.0, float(succ), ok, trials=1)]
    analytic = p * select_mod.exact_expected_queries(
        select_mod.build_schedule(n, k, Fraction(1)))
    target = n  # any fixed index; the shuffled order makes them all alike
    counts = []
    hits = 0
    for t in range(cfg.trials):
        rng = trial_rng(cfg.seed, t)
        sess = open_session(HiddenInstance(range(1, n + 1),
                                           target_index=target), k)
        got = select_mod.select_rand(sess, n, k, p, rng)
        counts.append(sess.total_queries)
        hits += got == target
    m, ci = _mean_ci(counts)
    succ = hits / cfg.trials
    ok = (b["thm1_lo"] <= analytic <= b["thm1_hi"]
          and abs(m - float(analytic)) <= 3 * ci / 1.96 + 1e-9
          and abs(succ - float(p)) <= 3 * _sem(p, cfg.trials) + 1e-9)
    return [_row(cfg, b, m, ci, succ, ok)]


def _sort_cap(n, k):
    return 2 * k * n ** (1 + 1 / k)


def _run_sort(cfg):
    n, k = cfg.n, cfg.k
    if cfg.mode == "mc":
        # a trial asks at most 2k*n**(1+1/k) queries and so does the forced
        # count, except that at k = 1 its opponent scans all n(n - 1) probes
        # at each of n carve steps; rounds past log2 n ask nothing more
        kk = useful_rounds(n, k)
        if kk == 1:
            _refuse_over_budget("sort", 2 * n, n, 1, extra=n ** 3)
        else:
            _refuse_over_budget("sort", 4 * kk * n, n, kk)
    b = bounds(n, k, cfg.p)
    cap = _sort_cap(n, k)
    if cfg.mode == "exact":
        est = math.factorial(n) * n * max(1, ceil_kth_root(n, k))
        if est > exact_budget():
            raise InfeasibleExact(
                "about %d evaluations needed, over the budget" % (est,))
        perms = itertools.permutations(range(1, n + 1))
        trials = math.factorial(n)
    else:
        perms = (random_instance(n, trial_rng(cfg.seed, t),
                                 with_target=False).ranks
                 for t in range(cfg.trials))
        trials = cfg.trials
    counts = []
    correct = True
    for perm in perms:
        inst = HiddenInstance(tuple(perm))
        sess = open_session(inst, k)
        got = sort_rank(sess, n, k)
        counts.append(sess.total_queries)
        correct = correct and got == inst.ranks
    forced = forced_query_count(sort_rank, n, k)
    ok = correct and max(counts) <= cap and forced >= max(0.0, b["thm5"])
    m, ci = _mean_ci(counts)
    return [_row(cfg, b, m, ci, 1.0 if correct else 0.0, ok, trials=trials)]


def cake_query_cap(n, k):
    return k * n ** (1 + 1 / k) + k * n


def sample_cake_agents(cfg, trial):
    rng = trial_rng(cfg.seed, trial)
    return [cake_mod.random_density(rng) for _ in range(cfg.n)]


def _run_cake(cfg, fixed_agents=None):
    n, k = cfg.n, cfg.k
    b = bounds(n, k, cfg.p)
    if cfg.mode == "exact" and fixed_agents is None:
        raise InfeasibleExact("division instances admit no finite enumeration")
    trials = 1 if fixed_agents is not None else cfg.trials
    counts = []
    all_fair = True
    for t in range(trials):
        agents = fixed_agents if fixed_agents is not None else sample_cake_agents(cfg, t)
        if len(agents) != n:
            raise ValueError("instance has %d agents, expected %d" % (len(agents), n))
        session = Session(cake_mod.DensityBackend(agents), k)
        allocation = cake_mod.run_proportional(session, n, k)
        counts.append(session.total_queries)
        fair, _ = cake_mod.verify_proportional(allocation, agents)
        all_fair = all_fair and fair
    ok = all_fair and max(counts) <= cake_query_cap(n, k)
    m, ci = _mean_ci(counts)
    return [_row(cfg, b, m, ci, 1.0 if all_fair else 0.0, ok, trials=trials)]


def _run_reduce(cfg):
    n, k = cfg.n, cfg.k
    if cfg.mode == "mc":
        # the division queries of one trial: cake_query_cap, at the rounds
        # run_proportional uses
        kk = useful_rounds(n, k)
        _refuse_over_budget("reduce", kk * n, n, kk, extra=kk * n)
    b = bounds(n, k, cfg.p)
    if cfg.mode == "exact":
        est = math.factorial(n) * n * n
        if est > exact_budget():
            raise InfeasibleExact(
                "about %d evaluations needed, over the budget" % (est,))
        perms = [tuple(perm) for perm in itertools.permutations(range(1, n + 1))]
    else:
        perms = [random_instance(n, trial_rng(cfg.seed, t),
                                 with_target=False).ranks
                 for t in range(cfg.trials)]
    counts = []
    ok = True
    for perm in perms:
        rank_sess = open_session(HiddenInstance(perm), k)
        got, rw_tr, _ = reductions.run_reduction(
            lambda s, nn: cake_mod.run_proportional(s, nn, k), n, rank_sess)
        rank_tr = rank_sess.transcript()
        counts.append(rank_tr.total_queries)
        ok = ok and got == perm
        ok = ok and rank_tr.total_queries <= rw_tr.total_queries
        rank_sizes, rw_sizes = rank_tr.round_sizes, rw_tr.round_sizes
        ok = ok and len(rank_sizes) == len(rw_sizes)
        ok = ok and all(a <= b for a, b in zip(rank_sizes, rw_sizes))
    m, ci = _mean_ci(counts)
    return [_row(cfg, b, m, ci, 1.0 if ok else 0.0, ok, trials=len(perms))]


def _run_bounds(cfg):
    rows = []
    for j in range(21):
        p = Fraction(j, 20)
        rows.append(_row(cfg, bounds(cfg.n, cfg.k, p), None, None, None,
                         True, p=p, trials=0))
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
        covered = min(n, total + (1 if total < n else 0))
        if Fraction(covered, n) < p:
            continue
        ev = Fraction(0)
        prefix = 0
        for s in sizes:
            prefix += s
            ev += Fraction(s, n) * prefix
        ev += Fraction(n - total, n) * total
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
    rows = []
    b = bounds(cfg.n, cfg.k, cfg.p)
    if cfg.n <= 5 and cfg.k <= 2:
        opt = brute_force_select(cfg.n, cfg.k, cfg.p)
        ok = b["thm2_lo"] <= opt <= b["thm2_hi"]
        rows.append(_row(cfg, b, float(opt), 0.0, None, ok,
                         problem="brute_select", trials=1))
    if cfg.n <= 32 and cfg.k <= 3:
        opt = brute_force_locate(cfg.n, cfg.k)
        ok = opt <= cfg.k * ceil_kth_root(cfg.n, cfg.k)
        rows.append(_row(cfg, b, float(opt), 0.0, None, ok,
                         problem="brute_locate", trials=1))
    if not rows:
        raise SearchSpaceTooLarge(
            "n=%d k=%d is outside both exhaustive guards" % (cfg.n, cfg.k))
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
    names = [f.name for f in fields(BoundRow)]
    for r in rows:
        writer.writerow([_cell(getattr(r, name)) for name in names])
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
