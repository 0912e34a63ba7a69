"""Command line front end: one experiment per invocation, report to
stdout or a file, exit 0 only when every pass column is true."""

import argparse
import sys
from fractions import Fraction
from functools import cache

from . import cake as cake_mod
from . import harness
from .oracle import MalformedQuery
from .reductions import NotProportional, ProtocolNotPrimitive

KNOWN_ERRORS = (harness.InfeasibleExact, harness.SearchSpaceTooLarge,
                harness.IoFailure, harness.OverBudget,
                cake_mod.MalformedAllocation,
                NotProportional, ProtocolNotPrimitive, MalformedQuery,
                ValueError, OSError)


def _fraction(text):
    """--p as a `Fraction`; a zero denominator is a usage error too."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "invalid Fraction value: %r" % (text,)) from None


@cache
def build_parser():
    """The one parser of this process. parse_args leaves a parser as it
    is, so every call still starts from the defaults below."""
    parser = argparse.ArgumentParser(
        prog="rounds-lab",
        description="simulate round-limited query algorithms and check "
                    "their costs against the closed-form bounds")
    parser.add_argument("problem", choices=harness.PROBLEMS)
    parser.add_argument("--n", type=int, required=True,
                        help="instance size (array length or agent count)")
    parser.add_argument("--k", type=int, required=True,
                        help="round budget")
    parser.add_argument("--p", type=_fraction, default=Fraction(1),
                        help="success probability target, e.g. 1/2 or 0.25")
    parser.add_argument("--trials", type=int, default=None,
                        help="sample count for mc mode (per-problem default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("exact", "mc"), default="exact")
    parser.add_argument("--out", default=None, metavar="FILE")
    parser.add_argument("--format", dest="fmt", choices=harness.RENDERERS,
                        default="csv")
    # a run either reads its agents or samples and saves them, not both
    cake_source = parser.add_mutually_exclusive_group()
    cake_source.add_argument("--cake-file", default=None, metavar="FILE",
                             help="run the cake problem on the agents in FILE")
    cake_source.add_argument("--save-cake", default=None, metavar="FILE",
                             help="write the sampled cake instance to FILE")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if (args.cake_file or args.save_cake) and args.problem != "cake":
        print("cake options only apply to the cake problem", file=sys.stderr)
        return 2
    try:
        config = harness.ExperimentConfig(
            problem=args.problem, n=args.n, k=args.k, p=args.p,
            trials=args.trials, seed=args.seed, mode=args.mode)
        agents = None
        if args.cake_file:
            with open(args.cake_file) as fh:
                agents = cake_mod.parse_cake_file(fh.read())
        elif args.save_cake:
            harness.check_cake_budget(config)  # before sampling or writing
            agents = harness.sample_cake_agents(config, 0)
            with open(args.save_cake, "w") as fh:
                fh.write(cake_mod.format_cake_file(agents))
        report = harness.run_experiment(config, fixed_cake_agents=agents)
        text = harness.emit_report(report, fmt=args.fmt, out=args.out)
    except KNOWN_ERRORS as exc:
        print("%s: %s" % (exc.__class__.__name__, exc), file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write(text)
    for row in report.rows:
        for check in row.checks:
            if not check.ok:
                print("FAIL %s %s" % (row.problem, check), file=sys.stderr)
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
