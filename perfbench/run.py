"""Benchmark of cokernel_lab: one closed-loop client runs a workload's op
list for a fixed time, checks every output and prints the metrics.

    python3 perfbench/run.py --workload cokernel-small-ring --seed 1 --seconds 20 --trace 0

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run.  The line
before it is a summary with provenance and the raw wall-clock figures.
Times are scaled to a reference machine speed measured by a fixed kernel
timed after every op (see reference_kernel).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("cokernel-small-ring", "cokernel-large-ring", "curve-stats", "exact-queries")
SETUP_SAMPLES = 9  # fresh interpreters timed for setup_s, this process included
SETUP_KERNEL_RUNS = 8  # reference-kernel runs after the import and after each set-up op
MIN_TIMED_OPS = 100  # so that p90 has at least ten ops beyond it
# Reference-kernel duration that every reported time is scaled to: about
# the kernel's median time on a 2-core Intel Xeon VM.
KERNEL_REF_S = 3.5e-4
# Rounds per second of an untraced run at the seed commit (kernel included);
# a traced run times a fixed op list of this many rounds per --seconds / 2,
# rounded up to whole cycles, so its call counts do not depend on speed.
TRACE_ROUNDS_PER_S = {
    "cokernel-small-ring": 3.4,
    "cokernel-large-ring": 1.35,
    "curve-stats": 0.48,
    "exact-queries": 3.3,
}

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)

# (metric, unit): "<layer>.<stat>" with stat calls, total_s or self_s read
# from the trace, and the named ratios computed in per_layer_metrics.
PER_LAYER = (
    ("chainring.LocalTables.coker_partition.calls", "count"),
    ("chainring.LocalTables.coker_partition.total_s", "s"),
    ("chainring.local_tables_for.total_s", "s"),
    ("modules.coker_type.calls", "count"),
    ("modules.coker_type.total_s", "s"),
    ("montecarlo.sample_cokernels.calls", "count"),
    ("montecarlo.sample_cokernels.self_s", "s"),
    ("montecarlo.sample_cokernels.w1_items_per_s", "1/s"),
    ("montecarlo.sample_cokernels.w2_items_per_s", "1/s"),
    ("montecarlo.tv_distance.total_s", "s"),
    ("curves.point_counts.calls", "count"),
    ("curves.point_counts.total_s", "s"),
    ("curves.char_poly_from_counts.calls", "count"),
    ("curves.char_poly_from_counts.total_s", "s"),
    ("curves.all_squarefree_monic.calls", "count"),
    ("curves.all_squarefree_monic.total_s", "s"),
    ("curves.sample_curve.calls", "count"),
    ("curves.sample_curve.total_s", "s"),
    ("curves.sample_curve.accept_ratio", "ratio"),
    ("curves.divisibility_stats.self_s", "s"),
    ("curves.independence_stats.self_s", "s"),
    ("algebra.poly_gcd.calls", "count"),
    ("algebra.poly_gcd.total_s", "s"),
    ("algebra.factor_multiplicity.calls", "count"),
    ("algebra.factor_multiplicity.total_s", "s"),
    ("measure.mu.calls", "count"),
    ("measure.mu.self_s", "s"),
    ("measure.rank_distribution.calls", "count"),
    ("measure.rank_distribution.total_s", "s"),
    ("measure.rank_distribution_partition_form.calls", "count"),
    ("measure.rank_distribution_partition_form.total_s", "s"),
    ("measure.moment_rank.calls", "count"),
    ("measure.moment_rank.total_s", "s"),
    ("measure.divisor_density.calls", "count"),
    ("measure.divisor_density.total_s", "s"),
    ("measure.eta.cache_hit_ratio", "ratio"),
    ("modules.surj_count.calls", "count"),
    ("modules.surj_count.self_s", "s"),
    ("modules.enumerate_submodules.total_s", "s"),
    ("modules.aut_order.calls", "count"),
    ("chainring.enumerate_submodules_chain.calls", "count"),
    ("chainring.enumerate_submodules_chain.total_s", "s"),
    ("chainring.brute_force_aut_order.calls", "count"),
    ("chainring.brute_force_aut_order.total_s", "s"),
    ("chainring.bfs_submodules.calls", "count"),
    ("chainring.bfs_submodules.total_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.items_per_s_ratio", "ratio"),
)


@functools.cache
def _kernel_arrays():
    # numpy is first imported by the library during set-up; importing it
    # here earlier would move that cost out of setup_s
    import numpy

    return numpy.arange(1 << 21, dtype=numpy.int32), numpy.random.default_rng(0).integers(0, 1 << 21, 20000)


def reference_kernel() -> int:
    """Fixed work, about 0.35 ms: a pure-Python loop and a numpy gather of
    20000 random entries from an 8 MiB table.  On a shared host the speed
    this process gets drifts by 25 % and more over seconds, and table-heavy
    ops drift more than interpreter-bound ones.  The kernel's duration,
    timed right after each op, tracks that drift, so dividing by it removes
    the host's share of the run-to-run spread."""
    d = {}
    acc = 0
    for i in range(900):
        k = (i * 2654435761) & 0xFFFF
        d[k] = d.get(k, 0) + i
        acc ^= k * 31 + (acc >> 3)
    table, picks = _kernel_arrays()
    return acc + len(d) + int(table[picks].sum())


def time_kernel(runs: int = 1) -> list[float]:
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - t0)
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 120:
        p.error("--seconds must be in (0, 120]")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def import_library():
    """Import cokernel_lab from this checkout's src/ and nowhere else."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import cokernel_lab

    where = Path(cokernel_lab.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"cokernel_lab imported from {where}, not from {ROOT / 'src'}")


# -- provenance ------------------------------------------------------------------


def _git_commit():
    """HEAD of the checkout's own repository, or None outside one (git
    does not look above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, nproc: int, timed_ops: int) -> dict:
    import numpy

    return {
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "timed_ops": timed_ops,
        "traced": bool(args.trace),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- measuring -------------------------------------------------------------------


def timed_setup(workload: str, tr=None):
    """Import the library and run the workload's set-up ops.  Returns the
    workloads module, the set-up seconds and the mean reference-kernel time
    of runs made after the import and after each set-up op (not counted in
    the seconds)."""
    kernel = []
    paused = 0.0

    def calibrate():
        nonlocal paused
        t = time.perf_counter()
        kernel.extend(time_kernel(SETUP_KERNEL_RUNS))
        paused += time.perf_counter() - t

    t0 = time.perf_counter()
    import_library()
    import workloads as wl

    calibrate()
    if tr is not None:
        tr.install()
        tr.begin_op(-1, "setup")
    wl.setup(workload, between=calibrate)
    if tr is not None:
        tr.end_op()
        tr.remove()
    seconds = time.perf_counter() - t0 - paused
    return wl, seconds, statistics.fmean(kernel)


def setup_in_child(workload: str) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    seconds, kernel = proc.stdout.split()[-2:]
    return float(seconds), float(kernel)


def trace_rounds(workload: str, seconds: float, cycle: int) -> int:
    cycles = -(-TRACE_ROUNDS_PER_S[workload] * seconds / 2 // cycle)
    return cycle * max(1, int(cycles))


def run_phase(wl, rounds, seconds, workload, seed, digests, tr=None, first_id=0, n_rounds=None):
    """Run whole cycles of rounds until `seconds` have passed and at least
    MIN_TIMED_OPS timed ops are done, or exactly `n_rounds` rounds when
    given; one result per op, each with the reference-kernel time measured
    right after it."""
    results = []
    timed = 0
    t_start = time.perf_counter()
    r = 0

    def more():
        if n_rounds is not None:
            return r < n_rounds
        return r == 0 or r % wl.CYCLE[workload] or timed < MIN_TIMED_OPS or time.perf_counter() - t_start < seconds

    while more():
        for pos, op in enumerate(rounds[r % len(rounds)]):
            op_id = first_id + len(results)
            if op["kind"] in wl.EXACT_KINDS:
                wl.clear_library_caches()
            if tr is not None:
                eta0 = wl.measure.eta.cache_info()
                tr.begin_op(op_id)
            t0 = time.perf_counter()
            error = out = None
            items = 0
            try:
                out, items = wl.run_op(op)
            except Exception as ex:  # an op that raises is a failed op, not a crash
                error = f"{type(ex).__name__}: {ex}"
            dt = time.perf_counter() - t0
            if tr is not None:
                tr.end_op()
                eta1 = wl.measure.eta.cache_info()
                tr.eta_hits += eta1.hits - eta0.hits
                tr.eta_misses += eta1.misses - eta0.misses
            kernel_s = time_kernel(2)[1]  # the first run refills the caches the op used
            timed += op["kind"] != "invalid"
            dig = None
            if error is None:
                dig = wl.digest(out)
                error = wl.check_op(op, out)
                want = wl.expected_digest(digests, workload, seed, r, pos, op)
                if error is None and want is not None and want != dig:
                    error = f"output digest {dig} differs from the recorded {want}"
            results.append(
                {
                    "id": op_id,
                    "round": r,
                    "pos": pos,
                    "op": op,
                    "digest": dig,
                    "items": items,
                    "seconds": dt,
                    "kernel_s": kernel_s,
                    "error": error,
                    "exit2": op["kind"] == "invalid" and out is not None and out["exit"] == 2,
                }
            )
        r += 1
    scale_to_reference(results)
    return results


def scale_to_reference(results) -> None:
    """Add each op's time scaled to the reference speed: its seconds times
    KERNEL_REF_S over the mean kernel time of its round."""
    kernel = {}
    for x in results:
        kernel.setdefault(x["round"], []).append(x["kernel_s"])
    for x in results:
        x["ref_seconds"] = x["seconds"] * KERNEL_REF_S / statistics.fmean(kernel[x["round"]])


def throughput(results, key="ref_seconds") -> float:
    timed = [x for x in results if x["op"]["kind"] != "invalid"]
    return sum(x["items"] for x in timed) / sum(x[key] for x in timed)


def latency_figures(results, setup_samples, key) -> dict:
    lat = [1000 * x[key] for x in results if x["op"]["kind"] != "invalid"]
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setup_samples),
        "items_per_s": throughput(results, key),
        "op_p50_ms": statistics.median(lat),
        "op_p90_ms": deciles[8],
    }


def end_to_end_metrics(results, setup_samples) -> dict:
    """The metrics, times scaled to the reference speed; setup_samples are
    (seconds, mean kernel seconds) pairs."""
    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    scaled = [s * KERNEL_REF_S / k for s, k in setup_samples]
    return {**latency_figures(results, scaled, "ref_seconds"), "peak_rss_mib": rss_kib / 1024}


def scaled_records(records, results, setup_kernel_s):
    """The trace records with each duration scaled to the reference speed
    by the factor of the op (or set-up) it belongs to."""
    factor = {x["id"]: x["ref_seconds"] / x["seconds"] for x in results if x["seconds"] > 0}
    factor[-1] = KERNEL_REF_S / setup_kernel_s
    return [
        tracer.Record(r.id, r.parent, r.op, r.name, r.calls, r.total * factor.get(r.op, 1.0), r.children)
        for r in records
    ]


def per_layer_metrics(records, tr, traced, untraced) -> dict:
    stats = tracer.layer_stats(records)
    by_id = {r.id: r for r in records}
    ops = {x["id"]: x["op"] for x in traced}
    out = {}
    for name, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat in ("calls", "total_s", "self_s"):
            out[name] = stats.get(layer, {}).get(stat, 0)
    for w in (1, 2):
        trials = secs = 0.0
        for r in records:
            op = ops.get(r.op)
            if r.name == "montecarlo.sample_cokernels" and op is not None and op.get("workers") == w:
                trials += op["trials"]
                secs += r.total
        out[f"montecarlo.sample_cokernels.w{w}_items_per_s"] = trials / secs if secs else 0.0
    tests = sum(
        r.calls
        for r in records
        if r.name == "algebra.poly_gcd" and by_id[r.parent].name == "curves.sample_curve"
    )
    out["curves.sample_curve.accept_ratio"] = (
        stats.get("curves.sample_curve", {}).get("calls", 0) / tests if tests else 0.0
    )
    lookups = tr.eta_hits + tr.eta_misses
    out["measure.eta.cache_hit_ratio"] = tr.eta_hits / lookups if lookups else 0.0
    out["trace.items_per_s_ratio"] = throughput(traced) / throughput(untraced)
    return out


def write_spans(records, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [[r.id, r.parent, r.op, r.name, r.calls, r.total] for r in records]
    path.write_text(json.dumps({"columns": ["id", "parent", "op", "name", "calls", "total_s"], "spans": rows}))


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    tr = tracer.Tracer() if args.trace else None
    try:
        wl, setup_main, setup_kernel = timed_setup(args.workload, tr)
    except ImportError as ex:
        print(f"error: cannot import the library: {ex}", file=sys.stderr)
        return 1

    rounds = wl.op_rounds(args.workload, args.seed)
    try:
        wl.check_load(args.workload, rounds, nproc)
    except ValueError as ex:
        print(f"error: refusing the op list: {ex}", file=sys.stderr)
        return 1
    common = dict(workload=args.workload, seed=args.seed, digests=wl.load_digests())

    problems = []
    if not args.trace:
        setup_samples = [(setup_main, setup_kernel)]
        setup_samples += [setup_in_child(args.workload) for _ in range(SETUP_SAMPLES - 1)]
        results = run_phase(wl, rounds, args.seconds, **common)
        n_rounds = results[-1]["round"] + 1
        values = end_to_end_metrics(results, setup_samples)
        units = dict(END_TO_END)
    else:
        n_rounds = trace_rounds(args.workload, args.seconds, wl.CYCLE[args.workload])
        untraced = run_phase(wl, rounds, 0, n_rounds=n_rounds, **common)
        tr.install()
        traced = run_phase(wl, rounds, 0, tr=tr, first_id=len(untraced), n_rounds=n_rounds, **common)
        tr.remove()
        leftover = tracer.leftover_wrappers()
        if leftover:
            problems.append(f"wrappers left installed: {leftover}")
        before = {(x["round"], x["pos"]): x["digest"] for x in untraced}
        for x in traced:
            key = (x["round"], x["pos"])
            if key in before and before[key] != x["digest"]:
                problems.append(f"op {key} output differs between traced and untraced runs")
        results = untraced + traced
        records = scaled_records(tr.records, traced, setup_kernel)
        values = per_layer_metrics(records, tr, traced, untraced)
        units = dict(PER_LAYER)
        write_spans(records, ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json")

    failed = [x for x in results if x["error"] is not None]
    for x in failed[:20]:
        print(f"failed op {x['id']} ({x['op']['kind']}): {x['error']}", file=sys.stderr)
    for msg in problems:
        print(f"error: {msg}", file=sys.stderr)
    timed_ops = sum(1 for x in results if x["op"]["kind"] != "invalid")
    summary = {
        "provenance": provenance(args, nproc, timed_ops),
        "attempted": len(results),
        "invalid_ops": len(results) - timed_ops,
        "fail_ratio": len(failed) / len(results),
        "exit2_rejections": sorted({x["op"]["label"] for x in results if x["exit2"]}),
        "items": sum(x["items"] for x in results),
        "rounds": n_rounds,
        "kernel_ms_median": 1000 * statistics.median(x["kernel_s"] for x in results),
    }
    if not args.trace:
        summary["setup_samples_s"] = setup_samples
        summary["wall_clock"] = latency_figures(results, [s for s, _ in setup_samples], "seconds")
    print(json.dumps(summary))
    print(
        json.dumps(
            {
                "correct": not failed and not problems,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
