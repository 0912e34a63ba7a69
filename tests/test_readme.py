import os
import re
import subprocess
import sys

from rounds_lab import harness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quick_start():
    """The Python block of README's "Library quick start" section."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    section = readme.split("## Library quick start\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_quick_start_runs():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", quick_start()], cwd=ROOT,
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "27 queries in 3 rounds\n"


def readme():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        return f.read()


def check_table():
    """README's check table as {(row problem, mode): check names}: the
    first backticked name of each `;`-separated part of a row's checks. A
    row of mode `both` or of no mode stands for exact and mc alike."""
    lines = readme().split("| problem | mode | checks |\n", 1)[1].splitlines()
    table = {}
    for line in lines[1:]:
        if not line.startswith("|"):
            break
        problem, mode, checks = (c.strip() for c in line.strip("|").split("|"))
        names = [re.match(r"`(\w+)`", part).group(1) for part in checks.split("; ")]
        for m in (mode,) if mode in ("exact", "mc") else ("exact", "mc"):
            assert (problem.strip("`"), m) not in table, line
            table[problem.strip("`"), m] = names
    return table


def test_the_check_table_names_the_checks_each_row_reports():
    """Every problem of the Problems line, run in both modes at a tiny
    size, reports the checks README's check table names, in its order; a
    row the table leaves out (bounds) reports none."""
    problems = re.findall(r"`(\w+)`", re.search(r"^Problems: (.*)$", readme(),
                                                re.M).group(1))
    assert problems == list(harness.PROBLEMS)
    reported = {}
    for problem in problems:
        for mode in ("exact", "mc"):
            config = harness.ExperimentConfig(problem=problem, n=4, k=2,
                                              mode=mode, trials=3)
            # an exact cake row runs on one fixed instance
            agents = (harness.sample_cake_agents(config, 0)
                      if (problem, mode) == ("cake", "exact") else None)
            for row in harness.run_experiment(config, agents).rows:
                reported[row.problem, mode] = [c.name for c in row.checks]
    assert reported == {**dict.fromkeys(reported, []), **check_table()}
