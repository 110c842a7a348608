"""Performance trajectory of cokernel-lab: every benchmark workload run k
times and tier-1 run once, written to one JSON file per change.

    python bench/trajectory.py --out BENCH_<n>.json [--runs 5] [--seconds 20]
        [--parent DIR]
    python bench/trajectory.py --compare BENCH_<n>.json
    python bench/trajectory.py --compare BENCH_<m>.json BENCH_<n>.json

Each workload runs as BENCHMARK.json's command (perfbench/run.py) with
--trace 0, seeds 1..k, one subprocess a run.  The file records, per
workload, each run's end-to-end metrics, `correct`, `failed` and
`exit2_rejections`, and the median and quartiles of each metric.  Tier-1
runs once with --durations=0; the file records its wall time, its pass and
fail counts, and each acceptance criterion's time next to the time gate
its test asserts.  The machine (nproc, CPU, Python, numpy) and the commit
are read from the provenance perfbench/run.py prints.

With --parent DIR, a checkout of the parent commit is measured the same
way, its runs alternating with this tree's (the parent first on odd
seeds), and the parent -> change table is printed.  --compare prints that
table again from one such file, or from the tree of a first file to that
of a second, and refuses two files measured on different machines.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# the fields of perfbench/run.py's provenance that name the machine
MACHINE = ("nproc", "cpu_model", "python", "numpy")
TIER1 = [
    sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
    "--durations=0", "--durations-min=0", "-p", "no:cacheprovider",
]


def run_workload(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run of the workload in the tree."""
    argv = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{tree}: {workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    summary, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {
        "seed": seed,
        "provenance": summary["provenance"],
        "correct": result["correct"],
        "failed": result["failed"],
        "exit2_rejections": summary["exit2_rejections"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
    }


def criterion_gates(path: Path) -> dict:
    """Each acceptance criterion's number, its test and the time gate the
    test asserts as `elapsed < gate`, or None where it asserts none."""
    gates = {}
    for node in ast.parse(path.read_text()).body:
        match = re.match(r"test_criterion_(\d+)_", getattr(node, "name", ""))
        if match:
            gate = next(
                (
                    compare.comparators[0].value
                    for compare in ast.walk(node)
                    if isinstance(compare, ast.Compare)
                    and isinstance(compare.left, ast.Name)
                    and compare.left.id == "elapsed"
                    and isinstance(compare.ops[0], ast.Lt)
                ),
                None,
            )
            gates[int(match[1])] = (node.name, gate)
    return gates


def run_tier1(tree: Path) -> dict:
    """Tier-1 in the tree: wall time, outcome counts and criterion times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    outcomes = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", proc.stdout)}
    seconds = {}
    for duration, test in re.findall(r"^([\d.]+)s \w+ +(\S+)$", proc.stdout, re.M):
        seconds[test] = seconds.get(test, 0.0) + float(duration)
    acceptance = tree / "tests" / "test_acceptance.py"
    criteria = {
        str(number): {
            "test": name,
            "seconds": seconds.get(f"tests/test_acceptance.py::{name}"),
            "gate_s": gate,
        }
        for number, (name, gate) in sorted(criterion_gates(acceptance).items())
    }
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "passed": outcomes.get("passed", 0),
        "failed": outcomes.get("failed", 0) + outcomes.get("error", 0),
        "criteria": criteria,
    }


def summarize(runs: list[dict]) -> dict:
    """The runs of one workload and the median and quartiles of each metric."""
    metrics = {}
    for name in runs[0]["metrics"]:
        q1, median, q3 = np.percentile([run["metrics"][name] for run in runs], [25, 50, 75])
        metrics[name] = {"median": float(median), "q1": float(q1), "q3": float(q3)}
    kept = ("seed", "correct", "failed", "exit2_rejections", "metrics")
    return {"runs": [{key: run[key] for key in kept} for run in runs], "metrics": metrics}


def measure(trees: dict, runs: int, seconds: float) -> dict:
    """Every workload of every tree, seeds 1..runs, the trees taking turns
    to go first from one seed to the next; then tier-1 in each tree."""
    labels = list(trees)
    workloads = [workload["name"] for workload in BENCHMARK["workloads"]]
    done = {label: {workload: [] for workload in workloads} for label in labels}
    for seed in range(1, runs + 1):
        for workload in workloads:
            for label in labels if seed % 2 else labels[::-1]:
                run = run_workload(trees[label], workload, seed, seconds)
                done[label][workload].append(run)
                print(f"{label} {workload} seed {seed}: {run['metrics']}", file=sys.stderr)
    machines = {
        tuple(run["provenance"][key] for key in MACHINE)
        for by_workload in done.values()
        for workload_runs in by_workload.values()
        for run in workload_runs
    }
    if len(machines) != 1:
        raise RuntimeError(f"runs on more than one machine: {sorted(machines)}")
    out = {"machine": dict(zip(MACHINE, machines.pop())), "runs": runs, "seconds": seconds}
    for label, by_workload in done.items():
        first = next(iter(by_workload.values()))[0]["provenance"]
        print(f"{label} tier-1", file=sys.stderr)
        out[label] = {
            "commit": first["commit"],
            "src_sha256": first["src_sha256"],
            "workloads": {workload: summarize(r) for workload, r in by_workload.items()},
            "tier1": run_tier1(trees[label]),
        }
    return out


def _spread(stats: dict) -> str:
    return f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"


def table(before: dict, after: dict) -> list[str]:
    """The before -> after table of two measured trees: each end-to-end
    metric's median and quartiles, its change, the seeds on which after is
    better, and a mark where the median is worse by more than its bound."""
    # the commit alone does not name a tree measured with changes not committed
    lines = [
        f"{side} {tree['commit']} (src {tree['src_sha256'][:12]})"
        for side, tree in (("before", before), ("after", after))
    ]
    for workload, b in before["workloads"].items():
        a = after["workloads"][workload]
        b_runs, a_runs = b["runs"], a["runs"]
        lines.append(
            f"{workload}: correct {all(r['correct'] for r in b_runs)} -> "
            f"{all(r['correct'] for r in a_runs)}, failed "
            f"{sum(r['failed'] for r in b_runs)} -> {sum(r['failed'] for r in a_runs)}"
        )
        for metric in BENCHMARK["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            b_stats, a_stats = b["metrics"][name], a["metrics"][name]
            change = a_stats["median"] / b_stats["median"] - 1
            paired = {r["seed"]: r["metrics"][name] for r in b_runs}
            pairs = [(paired[r["seed"]], r["metrics"][name]) for r in a_runs if r["seed"] in paired]
            wins = sum(sign * (y - x) > 0 for x, y in pairs)
            mark = "  WORSE THAN BOUND" if -sign * change > metric["bound"] else ""
            lines.append(
                f"  {name:<13} {_spread(b_stats):>28} -> {_spread(a_stats):<28} "
                f"{change:+7.1%}  better {wins}/{len(pairs)}{mark}"
            )
    b_t1, a_t1 = before["tier1"], after["tier1"]
    lines.append(
        f"tier-1: {b_t1['passed']} passed, {b_t1['failed']} failed, {b_t1['wall_s']:.1f} s -> "
        f"{a_t1['passed']} passed, {a_t1['failed']} failed, {a_t1['wall_s']:.1f} s"
    )
    for number, a_crit in a_t1["criteria"].items():
        b_crit = b_t1["criteria"].get(number, {})
        gate = f"gate {a_crit['gate_s']} s" if a_crit["gate_s"] else "no time gate"
        lines.append(
            f"  criterion {number}: {b_crit.get('seconds')} -> {a_crit['seconds']} s ({gate})"
        )
    return lines


def compare(path_a: Path, path_b: Path | None = None) -> int:
    """The table of one file's parent -> change, or from the tree of the
    first file to that of the second, measured on the same machine."""
    a = json.loads(path_a.read_text())
    if path_b is None:
        if "parent" not in a:
            print(f"refused: {path_a} holds no parent tree", file=sys.stderr)
            return 1
        print("\n".join(table(a["parent"], a["change"])))
        return 0
    b = json.loads(path_b.read_text())
    differ = [key for key in MACHINE if a["machine"][key] != b["machine"][key]]
    if differ:
        for key in differ:
            print(
                f"refused: {key} differs, {a['machine'][key]!r} in {path_a} "
                f"and {b['machine'][key]!r} in {path_b}",
                file=sys.stderr,
            )
        return 1
    print("\n".join(table(a["change"], b["change"])))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="the BENCH_<n>.json to write")
    parser.add_argument("--runs", type=int, default=5, help="runs per workload, seeds 1..runs")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--parent", type=Path, help="a checkout of the parent commit")
    parser.add_argument(
        "--compare", nargs="+", type=Path, metavar="FILE",
        help="one file measured with --parent, or the files before and after",
    )
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes one or two files")
        return compare(*args.compare)
    if args.out is None:
        parser.error("--out is required unless --compare is given")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    trees = {"change": ROOT}
    if args.parent is not None:
        trees = {"parent": args.parent.resolve(), **trees}
    result = measure(trees, args.runs, args.seconds)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return compare(args.out) if args.parent is not None else 0


if __name__ == "__main__":
    sys.exit(main())
