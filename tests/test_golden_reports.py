"""A pinned digest over CLI reports on a fixed grid of fast invocations.

Each invocation runs `cli.main` in-process and contributes its argv, its
exit code, the class of the error it reported (if any) and the measured
CSV columns of every row: problem through success_rate, plus pass. The
thm* columns are left out, as in `test_cli.GOLDEN_REPORTS`: they come from
libm pow and may differ in the last digit across platforms. An SVG report
contributes its exit code and its count of measured points. The sha256 of
the whole record is pinned below; it was computed before the harness's
problems shared one trial loop.
"""

import contextlib
import csv
import hashlib
import io

from rounds_lab import cli, harness
from rounds_lab.harness import CSV_COLUMNS

MEASURED = CSV_COLUMNS[:CSV_COLUMNS.index("success_rate") + 1] + ("pass",)

PS = ("0", "1/7", "1/3", "1/2", "3/4", "1")


def grid():
    def mc(trials, seed):
        return ("--mode", "mc", "--trials", str(trials), "--seed", str(seed))

    def nk(n, k):
        return ("--n", str(n), "--k", str(k))

    for n in (1, 2, 7, 33, 200):
        for k in (1, 2, 3, 10 ** 12):
            for p in PS:
                yield ("locate",) + nk(n, k) + ("--p", p)
    for n in (5, 50, 300):
        for k in (1, 3):
            for p in PS:
                yield ("locate",) + nk(n, k) + ("--p", p) + mc(100, n + k)
    for n in (1, 5, 30):
        for k in (1, 2, 3, 7):
            for p in PS:
                yield ("select",) + nk(n, k) + ("--p", p)
    for n in (5, 40, 120):
        for k in (1, 3):
            for p in PS:
                yield ("select",) + nk(n, k) + ("--p", p) + mc(100, n * k)
    for n in range(1, 6):
        for k in (1, 2, 3):
            yield ("sort",) + nk(n, k)
    for n in (6, 20, 40):
        for k in (1, 2, 3, 9):
            yield ("sort",) + nk(n, k) + mc(3, k)
    for n in (1, 3, 8, 16):
        for k in (1, 2, 3, 9):
            yield ("cake",) + nk(n, k) + mc(2, n)
    yield ("cake",) + nk(3, 2)
    for n in range(1, 5):
        for k in (1, 2):
            yield ("reduce",) + nk(n, k)
    for n in (5, 9, 12):
        for k in (1, 2, 3):
            yield ("reduce",) + nk(n, k) + mc(2, k)
    for n in (1, 10, 2 ** 20):
        for k in (1, 3):
            yield ("bounds",) + nk(n, k)
    for n in (2, 4, 5, 6, 40):
        for k in (1, 2, 3):
            yield ("brute",) + nk(n, k) + ("--p", "1/2")
    # refused at the default budget, or malformed
    yield ("sort",) + nk(10, 2)
    yield ("reduce",) + nk(9, 1)
    yield ("select",) + nk(4, 2) + ("--p", "3/2")
    for argv in (("bounds",) + nk(2 ** 30, 4), ("select",) + nk(30, 3),
                 ("locate",) + nk(40, 2) + ("--p", "1/2") + mc(30, 1)):
        yield argv + ("--format", "svg")


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    text = out.getvalue()
    if code == 2:
        return [list(argv), code, err.getvalue().split(":")[0]]
    if "svg" in argv:
        return [list(argv), code, text.count("<circle")]
    rows = csv.DictReader(io.StringIO(text))
    return [list(argv), code, [[row[c] for c in MEASURED] for row in rows]]


def digest():
    return hashlib.sha256(repr([record(argv) for argv in grid()])
                          .encode()).hexdigest()


def test_grid_covers_every_problem_and_mode():
    argvs = list(grid())
    assert len(argvs) > 200
    assert {a[0] for a in argvs} == set(harness.PROBLEMS)
    assert {"exact", "mc"} <= {a[a.index("--mode") + 1] if "--mode" in a
                               else "exact" for a in argvs}


def test_report_digest(monkeypatch):
    monkeypatch.delenv(harness.BUDGET_ENV, raising=False)
    assert digest() == GOLDEN_DIGEST


GOLDEN_DIGEST = "e053908152296e2e87a591966cb9e458a502464bd6b3c99a14cf558d4872a0d0"
