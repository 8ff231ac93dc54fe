"""Command-line entry points.

    epivec simulate --scenario s.json --replications N --seed S --out DIR [--threads T]
    epivec summarize --in DIR --out FILE
    epivec bench --agents N --steps H [--seed S] [--oracle]
    epivec verify --scenario s.json
    epivec compare --scenarios a.json b.json ... [--out FILE] [--threads T]

Exit codes: 0 success, 1 configuration or usage error, 2 invariant violation,
3 verification divergence, 4 unexpected error (one line on stderr).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import ConfigError, InvariantViolation, VerificationDivergence
from .runner import (QUARTILES, bench, csv_text, load_results, output_file,
                     run_scenario, summarize, summary_to_csv, summary_to_long_csv,
                     verify_equivalence, write_file)
from .scenario import default_scenario, load_scenario


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like configuration errors; argparse uses 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _workers(text: str) -> int:
    """A ``--threads`` value: a whole number of workers, at least 1."""
    if text.isdecimal() and int(text) >= 1:
        return int(text)
    raise argparse.ArgumentTypeError(f"expected a whole number >= 1, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epivec",
        description="Vectorized agent-based epidemic simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run seeded replications of a scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--replications", type=int, default=None,
                   help="override the scenario's replication count")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario's base seed")
    p.add_argument("--out", required=True, help="output directory for run CSVs")
    p.add_argument("--threads", type=_workers, default=1,
                   help="concurrent replication workers, at most one per "
                   "replication")

    p = sub.add_parser("summarize", help="quartile summary over a run directory")
    p.add_argument("--in", dest="run_dir", required=True)
    p.add_argument("--out", required=True, help="summary CSV path; a *_long.csv "
                   "plot file is written next to it")

    p = sub.add_parser("bench", help="engine throughput benchmark")
    p.add_argument("--agents", type=int, default=100_000)
    p.add_argument("--steps", type=int, default=180)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", action="store_true",
                   help="benchmark the naive reference implementation instead")

    p = sub.add_parser("verify", help="engine vs oracle bitwise equivalence")
    p.add_argument("--scenario", required=True)

    p = sub.add_parser("compare", help="matched-seed comparison of scenarios")
    p.add_argument("--scenarios", nargs="+", required=True)
    p.add_argument("--out", default=None, help="comparison CSV path")
    p.add_argument("--threads", type=_workers, default=1)

    return parser


def _cmd_simulate(args) -> int:
    config = load_scenario(args.scenario)
    overrides = {}
    if args.replications is not None:
        overrides["replications"] = args.replications
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if overrides:
        config = replace(config, **overrides)
    results = run_scenario(config, out_dir=args.out, workers=args.threads)
    total_edges = sum(r.n_edges_total for r in results)
    print(f"{config.name}: {len(results)} replications x {config.horizon} steps, "
          f"{total_edges:,} interactions -> {args.out}")
    return 0


def _cmd_summarize(args) -> int:
    # unusable output paths fail before any run file is read
    out = output_file(args.out)
    long_path = output_file(out.with_name(out.stem + "_long" + out.suffix))
    results = load_results(args.run_dir)
    summary = summarize(results)
    write_file(out, summary_to_csv(summary))
    write_file(long_path, summary_to_long_csv(summary))
    print(f"{len(results)} replications summarized -> {out}, {long_path}")
    return 0


def _cmd_bench(args) -> int:
    config = default_scenario(n_agents=args.agents, horizon=args.steps,
                              replications=1, base_seed=args.seed)
    report = bench(config, use_oracle=args.oracle)
    label = "oracle" if args.oracle else "engine"
    print(f"[{label}] {report}")
    return 0


def _cmd_verify(args) -> int:
    config = load_scenario(args.scenario)
    steps = verify_equivalence(config)
    print(f"equivalence verified: {config.population.n_agents} agents, "
          f"{steps} steps, trajectories bitwise identical")
    return 0


def _cmd_compare(args) -> int:
    # an unusable output path fails before any scenario runs
    out = output_file(args.out) if args.out else None
    rows = []
    for path in args.scenarios:
        config = load_scenario(path)
        results = run_scenario(config, workers=args.threads)
        summary = summarize(results)
        final_deaths = summary["cumulative_deaths"][-1]
        final_infections = summary["cumulative_infections"][-1]
        rows.append((config.name, final_infections, final_deaths))
    print(f"{'scenario':<32} {'median infections':>18} {'median deaths':>14}")
    for name, infections, deaths in rows:
        print(f"{name:<32} {infections[1]:>18.1f} {deaths[1]:>14.1f}")
    if out:
        header = ["scenario"] + [f"{metric}_q{q}" for metric in ("infections", "deaths")
                                 for q in QUARTILES]
        write_file(out, csv_text([], header, (
            [name, *infections.tolist(), *deaths.tolist()]
            for name, infections, deaths in rows)))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "summarize": _cmd_summarize,
    "bench": _cmd_bench,
    "verify": _cmd_verify,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 1
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 2
    except VerificationDivergence as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        print(f"unexpected error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
