"""epivec benchmark: one workload per run, or every workload with --workload all.

    python3 perfbench/run.py --workload default_100k --seed 5 --seconds 30 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.  Results, the environment and (when traced) the spans are
also written under .perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_runs"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="a workload name from BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, required=True,
                   help="workload seed (5 while developing; 11 is held out)")
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring budget: whole units are run while the next fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def declared(spec: dict, trace: bool) -> dict[str, str]:
    """Metric name -> unit, for the metrics a run of this mode must report."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def select(metrics: dict, units: dict[str, str]) -> dict:
    """The measured metrics in the output format; they must match BENCHMARK.json."""
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing "
            f"{sorted(set(units) - set(metrics))}, undeclared "
            f"{sorted(set(metrics) - set(units))}")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def run_once(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Measure one workload and check its outputs; returns the full record."""
    import checks
    import tracing
    import workloads

    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"environment": workloads.environment(workload, seed, seconds, trace)}
    if trace:
        unit, tracer, metrics = workloads.measure_traced(workload, seed, out_dir)
        tracer.write(out_dir / f"{workload.name}-seed{seed}-spans.json")
        units = [unit]
    else:
        units = workloads.measure(workload, seed, seconds, out_dir)
        metrics = workloads.end_to_end(units)

    problems = [p for u in units for rep in u.problems for p in rep]
    attempted = sum(u.replications for u in units)
    failed = sum(u.failed for u in units)
    extra = [checks.check_equivalence(workload.shrunk(seed))]
    if trace:
        config = workload.shrunk(seed)
        extra.append(checks.check_same_rows(
            workloads.replay_rows(config),
            workloads.replay_rows(config, tracing.Tracer())))
    digest = workloads.rows_digest(units)
    prior = out_dir / f"{workload.name}-seed{seed}-trace0.json"
    if trace and prior.exists():
        before = json.loads(prior.read_text())
        if before["environment"]["workload"] == asdict(workload):
            extra.append([] if before["rows_sha256"] == digest else
                         ["traced rows differ from the untraced run of this seed"])
    for found in extra:
        attempted += 1
        failed += bool(found)
        problems += found

    record.update(metrics=metrics, rows_sha256=digest, problems=problems,
                  attempted=attempted, failed=failed)
    (out_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return record


def run_all(args, spec: dict) -> int:
    """Each workload untraced then traced, in its own process; prints a table."""
    ok = True
    for w in spec["workloads"]:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        untraced, traced = results[0], results[1]
        ok &= untraced["correct"] and traced["correct"]
        print(f"== {w['name']}  ({w['why']})")
        for name, m in untraced["metrics"].items():
            print(f"  {name:<22} {m['value']:>16.6g} {m['unit']}")
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        layer = traced["metrics"]
        overhead = layer["trace.wall_s"]["value"] - untraced["metrics"]["wall_s"]["value"]
        print(f"  {'failed_share':<22} {failed / attempted:>16.6g} "
              f"({failed} of {attempted} checked runs)")
        print(f"  {'trace overhead':<22} {overhead:>16.6g} s "
              f"(traced wall_s minus untraced wall_s)")
        print(f"  {'unattributed share':<22} "
              f"{layer['trace.unattributed_share']['value']:>16.6g} of traced wall_s")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "epivec" / "__init__.py").is_file():
        print(f"epivec sources not found under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, spec)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    record = run_once(workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    metrics = select(record["metrics"], declared(spec, bool(args.trace)))
    print("environment " + json.dumps(record["environment"]))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"failed_share = {record['failed'] / record['attempted']!r} "
          f"({record['failed']} of {record['attempted']})")
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": not record["failed"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
