"""The benchmark's workloads: four seeded trial streams (search, sort, cake,
cli) paired into two workloads, the library calls each trial makes, and the
checks on its answer and query count.

A trial is one checked algorithm run on one generated input. Every workload
is a closed loop with one client: the next trial starts when the previous
one has been checked. Trials come in cycles; a cycle holds one trial per
stratum (an algorithm at one input size, or one CLI invocation shape) in a
seeded order, so every run sees the same mix whatever the seed, and a run
always ends on a cycle boundary.

Only `execute_*` functions run inside the timed region. Inputs are generated
before it (in `setup` pools or when a cycle is drawn) and answers are
checked after it, against caps and expectations computed here rather than
by the library under test.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

PS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


@dataclass(frozen=True)
class Trial:
    kind: str
    n: int
    k: int
    seed: int  # seeds the rng a randomized algorithm receives
    args: dict = field(default_factory=dict)
    known_defect: str = None  # a ROADMAP defect this trial exercises


@dataclass
class Outcome:
    ok: bool
    reason: str
    record: list  # what the query digest covers


class CheckFailed(Exception):
    pass


def expect(cond, reason):
    if not cond:
        raise CheckFailed(reason)


# ---------------------------------------------------------------- caps

def ceil_root(n, k):
    """Smallest integer z with z**k >= n, by integer bisection."""
    lo, hi = 1, 1 << -(-n.bit_length() // k)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** k >= n:
            hi = mid
        else:
            lo = mid + 1
    return lo


def locate_cap(n, k):
    return k * ceil_root(n, k)


def sort_cap(n, k):
    return 2 * k * n ** (1 + 1 / k)


def cake_cap(n, k):
    return k * n ** (1 + 1 / k) + k * n


def thm5_floor(n, k):
    return max(0.0, (k / (2 * math.e)) * n ** (1 + 1 / k) - k * n)


def ceil_log2(n):
    return (n - 1).bit_length()


def transcript_record(trial, tx):
    return [trial.kind, trial.n, trial.k, tx.total_queries, list(tx.round_sizes)]


def check_transcript(trial, tx, cap):
    expect(len(tx.rounds) <= trial.k, "used %d of %d rounds" % (len(tx.rounds), trial.k))
    expect(tx.total_queries <= cap,
           "%d queries over the cap %s" % (tx.total_queries, cap))


# ---------------------------------------------------------------- search

SEARCH_MAX_J = 20   # n = 2**j; HiddenInstance holds all n ranks
SEARCH_SMALL_J = 12  # locate_det_dist, select and shuffled instances
SEARCH_VIEW_J = 10   # comparison adapters
POOL = 4            # shuffled inputs kept per size


class SearchState:
    def __init__(self, lib, seed):
        rng = random.Random("search-setup/%d" % seed)
        self.identity = {}
        self.shuffled = {}
        self.orders = {}
        self.dists = {}
        self.top = {}
        for j in range(1, SEARCH_MAX_J + 1):
            n = 2 ** j
            self.identity[n] = tuple(range(1, n + 1))
            if j > SEARCH_SMALL_J:
                continue
            perms = []
            orders = []
            for _ in range(POOL):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                perms.append(tuple(perm))
                order = list(range(1, n + 1))
                rng.shuffle(order)
                orders.append(order)
            self.shuffled[n] = perms
            self.orders[n] = [list(range(1, n + 1))] + orders
            ws = [rng.randint(1, 8) for _ in range(n)]
            total = sum(ws)
            self.dists[n] = lib.RankDistribution(tuple(Fraction(w, total) for w in ws))
            by_weight = sorted(range(1, n + 1), key=lambda r: (-ws[r - 1], r))
            for p in PS[:3]:
                self.top[n, p] = frozenset(by_weight[:math.ceil(p * n)])


def search_cycle(state, seed, c):
    rng = random.Random("search/%d/%d" % (seed, c))
    trials = []
    for j in range(1, SEARCH_MAX_J + 1):
        n = 2 ** j
        kinds = ["locate_det", "locate_rand"]
        if j <= SEARCH_SMALL_J:
            kinds += ["locate_det_dist", "select_det", "select_rand"]
        if j <= SEARCH_VIEW_J:
            kinds += ["locate_view", "select_view"]
        for kind in kinds:
            # one round at n = 2**20 would ask 2**20 queries in one trial
            k = rng.randint(1 if j <= SEARCH_SMALL_J else 2, max(1, ceil_log2(n)))
            shuffled = (j <= SEARCH_SMALL_J and kind != "locate_view"
                        and rng.random() < 0.5)
            ranks = rng.choice(state.shuffled[n]) if shuffled else state.identity[n]
            args = {"ranks": ranks, "target": rng.randint(1, n)}
            if kind in ("locate_rand", "select_det", "select_rand"):
                args["p"] = rng.choice(PS)
            if kind == "locate_det_dist":
                args["p"] = rng.choice(PS[:3])
                args["dist"] = state.dists[n]
                args["top"] = state.top[n, args["p"]]
            if kind in ("select_det", "select_view"):
                args["order"] = rng.choice(state.orders[n])
            trials.append(Trial(kind, n, k, rng.getrandbits(64), args))
    rng.shuffle(trials)
    return trials


def _open(lib, ranks, target, k):
    return lib.open_session(lib.HiddenInstance(ranks, target_index=target), k)


def _build(lib, tr, t):
    return tr.call("oracle.build", _open, lib, t.args["ranks"], t.args["target"], t.k)


def execute_locate_det(lib, tr, t, rng):
    sess = _build(lib, tr, t)
    got = tr.call("locate.plan", lib.locate_det, tr.wrap(sess, "oracle.answer"), t.n, t.k)
    return got, sess


def execute_locate_rand(lib, tr, t, rng):
    sess = _build(lib, tr, t)
    got = tr.call("locate.plan", lib.locate_rand, tr.wrap(sess, "oracle.answer"),
                  t.n, t.k, t.args["p"], rng)
    return got, sess


def execute_locate_det_dist(lib, tr, t, rng):
    sess = _build(lib, tr, t)
    got = tr.call("locate.plan", lib.locate_det_dist, tr.wrap(sess, "oracle.answer"),
                  t.n, t.k, t.args["p"], t.args["dist"])
    return got, sess


def _select_det(lib, session, n, k, p, order):
    return lib.select_det(session, lib.build_schedule(n, k, p), order)


def execute_select_det(lib, tr, t, rng):
    sess = _build(lib, tr, t)
    got = tr.call("select.plan", _select_det, lib, tr.wrap(sess, "oracle.answer"),
                  t.n, t.k, t.args["p"], t.args["order"])
    return got, sess


def execute_select_rand(lib, tr, t, rng):
    sess = _build(lib, tr, t)
    got = tr.call("select.plan", lib.select_rand, tr.wrap(sess, "oracle.answer"),
                  t.n, t.k, t.args["p"], rng)
    return got, sess


def execute_locate_view(lib, tr, t, rng):
    sess = _build(lib, tr, t)
    view = tr.call("reductions.view", lib.ordered_to_locate_adapter,
                   tr.wrap(sess, "oracle.answer"))
    got = tr.call("locate.plan", lib.locate_det, tr.wrap(view, "reductions.view"), t.n, t.k)
    return got, sess


def execute_select_view(lib, tr, t, rng):
    sess = _build(lib, tr, t)
    view = tr.call("reductions.view", lib.unordered_to_select_adapter,
                   tr.wrap(sess, "oracle.answer"))
    got = tr.call("select.plan", _select_det, lib, tr.wrap(view, "reductions.view"),
                  t.n, t.k, Fraction(1), t.args["order"])
    return got, sess


def check_locate(t, obs, want):
    got, sess = obs
    tx = sess.transcript()
    expect(got == want, "answered %r, expected %r" % (got, want))
    check_transcript(t, tx, locate_cap(t.n, t.k))
    return transcript_record(t, tx)


def check_locate_det(lib, t, obs):
    return check_locate(t, obs, t.args["ranks"][t.args["target"] - 1])


def check_locate_view(lib, t, obs):
    return check_locate(t, obs, t.args["target"])


def check_locate_rand(lib, t, obs):
    got, sess = obs
    if got is None:  # the coin said skip: nothing may be asked
        tx = sess.transcript()
        expect(tx.total_queries == 0, "skipped but asked %d queries" % tx.total_queries)
        return transcript_record(t, tx)
    return check_locate_det(lib, t, obs)


def check_locate_det_dist(lib, t, obs):
    rank = t.args["ranks"][t.args["target"] - 1]
    return check_locate(t, obs, rank if rank in t.args["top"] else None)


def check_select(t, obs, want, cap):
    got, sess = obs
    tx = sess.transcript()
    expect(got == want, "answered %r, expected %r" % (got, want))
    check_transcript(t, tx, cap)
    return transcript_record(t, tx)


def check_select_det(lib, t, obs):
    # the schedule probes ceil(n*p) - 1 indices, then guesses the next one
    probes = max(0, math.ceil(t.n * t.args["p"]) - 1)
    order, target = t.args["order"], t.args["target"]
    want = target if target in order[:probes + 1] else order[probes]
    return check_select(t, obs, want, probes)


def check_select_view(lib, t, obs):
    return check_select(t, obs, t.args["target"], t.n - 1)


def check_select_rand(lib, t, obs):
    got, sess = obs
    if got is None:
        tx = sess.transcript()
        expect(tx.total_queries == 0, "skipped but asked %d queries" % tx.total_queries)
        return transcript_record(t, tx)
    return check_select(t, obs, t.args["target"], t.n - 1)


# ---------------------------------------------------------------- sort

SORT_SIZES = (16, 32, 64, 128, 256, 512, 1024)
SORT_K1_MAX = 256
# (n, k) of the forced-count trials: from n = 32, where the k = 2 floor turns
# positive, up to n = 256. One trial at n = 512 took 0.7 s (k = 3) to 2.3 s
# (k = 2), over a third of a cycle, so a run held too few cycles for its
# median and tail to settle.
FORCED = ((32, 2), (64, 2), (64, 3), (128, 2), (128, 3), (256, 2), (256, 3))


def sort_cycle(state, seed, c):
    rng = random.Random("sort/%d/%d" % (seed, c))
    trials = []
    for n in SORT_SIZES:
        for k in (1, 2, 3):
            if k == 1 and n > SORT_K1_MAX:
                continue
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            trials.append(Trial("sort", n, k, 0, {"ranks": tuple(perm)}))
    for n, k in FORCED:
        trials.append(Trial("forced", n, k, 0))
    rng.shuffle(trials)
    return trials


def execute_sort(lib, tr, t, rng):
    sess = tr.call("oracle.build", _open, lib, t.args["ranks"], None, t.k)
    got = tr.call("rank_sort.plan", lib.sort_rank, tr.wrap(sess, "oracle.answer"), t.n, t.k)
    return got, sess


def check_sort(lib, t, obs):
    got, sess = obs
    tx = sess.transcript()
    expect(tuple(got) == t.args["ranks"], "returned a wrong order")
    check_transcript(t, tx, sort_cap(t.n, t.k))
    return transcript_record(t, tx)


def execute_forced(lib, tr, t, rng):
    opponents = []

    def sorter(session, n, k):
        opponents.append(session)
        return tr.call("rank_sort.plan", lib.sort_rank,
                       tr.wrap(session, "rank_sort.opponent"), n, k)

    forced = tr.call("rank_sort.check", lib.forced_query_count, sorter, t.n, t.k)
    return forced, opponents


def check_forced(lib, t, obs):
    forced, opponents = obs
    expect(len(opponents) == 1, "the sorter ran %d times" % len(opponents))
    tx = opponents[0].transcript()
    expect(forced == tx.total_queries,
           "reported %r forced queries, the opponent saw %d" % (forced, tx.total_queries))
    expect(forced >= thm5_floor(t.n, t.k),
           "%d forced queries under the floor %s" % (forced, thm5_floor(t.n, t.k)))
    check_transcript(t, tx, sort_cap(t.n, t.k))
    return transcript_record(t, tx)


# ---------------------------------------------------------------- cake

CAKE_SIZES = (2, 4, 8, 16, 32, 64, 128, 256)
REDUCE_SIZES = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48)


def cake_cycle(state, seed, c):
    rng = random.Random("cake/%d/%d" % (seed, c))
    trials = []
    for n in CAKE_SIZES:
        for k in (1, 2, 3):
            trials.append(Trial("cake", n, k, rng.getrandbits(64)))
    for n in REDUCE_SIZES:
        for k in (1, 2):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            trials.append(Trial("reduce", n, k, 0, {"ranks": tuple(perm)}))
    rng.shuffle(trials)
    return trials


def _sample_agents(lib, rng, n):
    return [lib.random_density(rng) for _ in range(n)]


def execute_cake(lib, tr, t, rng):
    agents = tr.call("cake.density", _sample_agents, lib, rng, t.n)
    allocation, tx = tr.call("cake.plan", lib.proportional_protocol,
                             tr.wrap_densities(agents, "cake.answer"), t.k)
    fair, _ = tr.call("cake.verify", lib.verify_proportional, allocation, agents)
    return fair, tx


def check_cake(lib, t, obs):
    fair, tx = obs
    expect(fair is True, "the allocation is not proportional")
    check_transcript(t, tx, cake_cap(t.n, t.k))
    return transcript_record(t, tx)


def execute_reduce(lib, tr, t, rng):
    rank_sess = tr.call("oracle.build", _open, lib, t.args["ranks"], None, t.k)

    def protocol(session, n):
        return tr.call("cake.plan", lib.run_proportional,
                       tr.wrap(session, "reductions.answer"), n, t.k)

    got, cake_tx, _ = tr.call("reductions.verify", lib.run_reduction, protocol, t.n,
                              tr.wrap(rank_sess, "oracle.answer"))
    return got, cake_tx, rank_sess


def check_reduce(lib, t, obs):
    got, cake_tx, rank_sess = obs
    rank_tx = rank_sess.transcript()
    expect(tuple(got) == t.args["ranks"], "recovered a wrong permutation")
    probes, cuts = rank_tx.round_sizes, cake_tx.round_sizes
    expect(len(probes) == len(cuts) and all(a <= b for a, b in zip(probes, cuts)),
           "rank probes %r exceed division queries %r" % (probes, cuts))
    check_transcript(t, cake_tx, cake_cap(t.n, t.k))
    return transcript_record(t, rank_tx) + [list(cuts)]


# ---------------------------------------------------------------- cli

HUGE_N = str(10 ** 400)
CLI_DEFECT = "ROADMAP defect 1: huge n lets OverflowError escape cli.main"


class CliState:
    """Scratch directory for the report and cake files of the CLI runs."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        for name in os.listdir(out_dir):
            os.remove(os.path.join(out_dir, name))


def _cake_file_text(rng, n):
    """n random step densities in the --cake-file format."""
    lines = []
    for _ in range(n):
        m = rng.randint(1, 4)
        bps = [0] + sorted(rng.sample(range(1, 24), m - 1)) + [24]
        ws = [rng.randint(1, 4) for _ in range(m)]
        toks = ["0"]
        for w, a, b in zip(ws, bps, bps[1:]):
            toks += [str(Fraction(w * 24, sum(ws) * (b - a))), str(Fraction(b, 24))]
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


def cli_cycle(state, seed, c):
    rng = random.Random("cli/%d/%d" % (seed, c))
    out = state.out_dir
    trials = []

    def inv(argv, code, rows=None, out_file=None, defect=None):
        argv = [str(a) for a in argv]
        trials.append(Trial("cli", 0, 0, 0, {"argv": argv, "code": code, "rows": rows,
                                             "out": out_file}, defect))

    def nk(lo, hi, kmax):
        n = rng.randint(lo, hi)
        return ["--n", n, "--k", rng.randint(1, min(n, kmax))]

    def p():
        return ["--p", str(rng.choice(PS))]

    def mc(trials_):
        return ["--mode", "mc", "--trials", trials_, "--seed", rng.randrange(10 ** 6)]

    # exact and sampled runs of every problem; a sampled pass column is a
    # 3-sigma test, so only the exit code's agreement with it is checked
    inv(["locate"] + nk(2, 256, 4) + p(), 0, 1)
    inv(["locate"] + nk(100, 300, 4) + p() + mc(500), None, 1)
    inv(["select"] + nk(2, 1000, 8) + p(), 0, 1)
    inv(["select"] + nk(20, 100, 8) + p() + mc(500), None, 1)
    inv(["sort"] + nk(2, 6, 3), 0, 1)
    # the opponent behind the sort row grows fast with n at k = 1
    inv(["sort"] + nk(16, 64, 3) + mc(3), 0, 1)
    inv(["cake"] + nk(2, 32, 3) + mc(2), 0, 1)
    cake_file = os.path.join(out, "agents.txt")
    n = rng.randint(2, 16)
    with open(cake_file, "w") as fh:
        fh.write(_cake_file_text(rng, n))
    inv(["cake", "--n", n, "--k", rng.randint(1, 3), "--cake-file", cake_file], 0, 1)
    saved = os.path.join(out, "saved.txt")
    inv(["cake"] + nk(2, 16, 3) + mc(1) + ["--save-cake", saved], 0, 1, saved)
    inv(["reduce"] + nk(1, 4, 2), 0, 1)
    inv(["reduce"] + nk(5, 12, 2) + mc(2), 0, 1)
    inv(["bounds"] + ["--n", rng.randint(1, 2 ** 60), "--k", rng.randint(1, 6)], 0, 21)
    svg = os.path.join(out, "bounds.svg")
    inv(["bounds", "--n", rng.randint(1, 2 ** 40), "--k", rng.randint(1, 6),
         "--format", "svg", "--out", svg], 0, None, svg)
    inv(["brute", "--n", rng.randint(2, 5), "--k", rng.randint(1, 2)], 0, 2)
    inv(["brute", "--n", rng.randint(6, 32), "--k", rng.randint(1, 3)], 0, 1)
    report = os.path.join(out, "report.csv")
    inv(["locate"] + nk(2, 128, 4) + ["--out", report], 0, 1, report)
    # malformed input: the contract is exit 2 with no traceback
    inv(["cake"] + nk(2, 16, 3), 2)
    inv(["brute", "--n", rng.randint(33, 99), "--k", rng.randint(4, 9)], 2)
    inv(["locate"] + nk(2, 64, 3) + ["--p", "7/2"], 2)
    inv(["select", "--n", rng.randint(1, 64), "--k", 0], 2)
    inv(["sort", "--n", "n%d" % rng.randint(0, 9), "--k", 2], 2)
    inv(["sort"] + nk(12, 40, 3), 2)
    inv(["cake"] + nk(2, 8, 3) + ["--cake-file", os.path.join(out, "missing.txt")], 2)
    bad = os.path.join(out, "bad.txt")
    with open(bad, "w") as fh:
        fh.write("0 1 1/%d\n" % rng.randint(2, 9))
    inv(["cake", "--n", 1, "--k", 1, "--cake-file", bad], 2)
    inv(["locate"] + nk(2, 64, 3) + ["--save-cake", saved], 2)
    inv(["locate"] + nk(2, 64, 3) + ["--out", os.path.join(out, "missing", "r.csv")], 2)
    inv(["bounds", "--n", HUGE_N, "--k", 3], 2, defect=CLI_DEFECT)
    rng.shuffle(trials)
    return trials


def _invoke(main, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed arguments
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def execute_cli(lib, tr, t, rng):
    return tr.call("cli.main", _invoke, lib.cli_main, t.args["argv"])


def check_cli(lib, t, obs):
    code, stdout, stderr = obs
    argv, want, out_file = t.args["argv"], t.args["code"], t.args["out"]
    expect("Traceback" not in stderr, "printed a traceback")
    if want == 2:
        expect(code == 2, "exit %r, expected 2" % (code,))
        expect(stdout == "", "printed a report on an error")
        return ["cli", code]
    text = stdout
    if out_file:
        expect(os.path.exists(out_file), "wrote no %s" % os.path.basename(out_file))
        if "--out" in argv:
            expect(stdout == "", "printed to stdout although --out was given")
            with open(out_file) as fh:
                text = fh.read()
        os.remove(out_file)
    if "svg" in argv:
        expect(code == 0 and text.startswith("<svg"), "exit %r, no svg chart" % (code,))
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
        expect(len(rows) == t.args["rows"],
               "%d rows, expected %r" % (len(rows), t.args["rows"]))
        passed = [row["pass"] == "true" for row in rows]
        if want is None:
            expect(code == (0 if all(passed) else 1),
                   "exit %r disagrees with the pass column" % (code,))
        else:
            expect(code == 0 and all(passed), "exit %r, pass column %r" % (code, passed))
        n, k = argv[argv.index("--n") + 1], argv[argv.index("--k") + 1]
        for row in rows:
            expect(row["problem"].startswith(argv[0]) and row["n"] == n and row["k"] == k,
                   "row describes %s n=%s k=%s" % (row["problem"], row["n"], row["k"]))
    return ["cli", code, hashlib.sha256(text.encode()).hexdigest()[:16]]


# ---------------------------------------------------------------- registry

KINDS = {
    "locate_det": (execute_locate_det, check_locate_det),
    "locate_rand": (execute_locate_rand, check_locate_rand),
    "locate_det_dist": (execute_locate_det_dist, check_locate_det_dist),
    "select_det": (execute_select_det, check_select_det),
    "select_rand": (execute_select_rand, check_select_rand),
    "locate_view": (execute_locate_view, check_locate_view),
    "select_view": (execute_select_view, check_select_view),
    "sort": (execute_sort, check_sort),
    "forced": (execute_forced, check_forced),
    "cake": (execute_cake, check_cake),
    "reduce": (execute_reduce, check_reduce),
    "cli": (execute_cli, check_cli),
}


def check(lib, trial, obs):
    try:
        return Outcome(True, "", KINDS[trial.kind][1](lib, trial, obs))
    except CheckFailed as exc:
        reason = str(exc)
    except Exception as exc:  # a result too malformed for the checks to read
        reason = "%s: %s" % (type(exc).__name__, exc)
    return Outcome(False, reason, [trial.kind, "failed"])


# Trial streams: stream -> (setup, cycle). setup(lib, seed, out_dir) builds
# the stream's input pools; cycle(state, seed, c) draws the trials of cycle c.
STREAMS = {
    "search": (lambda lib, seed, out: SearchState(lib, seed), search_cycle),
    "sort": (lambda lib, seed, out: None, sort_cycle),
    "cake": (lambda lib, seed, out: None, cake_cycle),
    "cli": (lambda lib, seed, out: CliState(os.path.join(out, "cli")), cli_cycle),
}


@dataclass(frozen=True)
class Workload:
    """A cycle holds one cycle of each stream, shuffled together."""

    name: str
    streams: tuple
    patch_points: object = None  # (lib) -> module functions timed when traced

    def setup(self, lib, seed, out_dir):
        return [STREAMS[s][0](lib, seed, out_dir) for s in self.streams]

    def cycle(self, states, seed, c):
        trials = []
        for stream, state in zip(self.streams, states):
            trials += STREAMS[stream][1](state, seed, c)
        random.Random("%s/%d/%d" % (self.name, seed, c)).shuffle(trials)
        return trials


def _cli_patch_points(lib):
    return [(lib.harness, "run_experiment", "harness.run"),
            (lib.harness, "emit_report", "harness.render")]


# Two workloads of two streams each, so that each run can be long: on a
# shared 2-vCPU VM the speed of a fixed loop drifts by 10-30% over tens of
# seconds, and 25-30 s runs of one stream each did not average that out.
WORKLOADS = {
    "search_cli": Workload("search_cli", ("search", "cli"), _cli_patch_points),
    "sort_cake": Workload("sort_cake", ("sort", "cake")),
}


def digest(records):
    """Short hash of a trial sequence's (queries, round sizes) records."""
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16]
