"""Record the output digests that run.py checks ops against.

    python3 perfbench/record_digests.py

Runs, without a time limit, every op of the pinned seeds' op lists for the
seeded workloads and every entry of the exact-query catalogue, checks each
output, and writes perfbench/digests.json.  Record only at a commit whose
outputs are trusted: later commits are checked against these digests, and
a change to the op generators in workloads.py requires recording again.
"""

import json
import sys

import run

PINNED_SEEDS = (1, 2, 3, 4, 5)
SEEDED_WORKLOADS = ("cokernel-small-ring", "cokernel-large-ring", "curve-stats")


def _checked_digest(wl, op) -> str:
    out, _ = wl.run_op(op)
    error = wl.check_op(op, out)
    if error is not None:
        raise SystemExit(f"refusing to record a failing op {op}: {error}")
    return wl.digest(out)


def main() -> int:
    run.import_library()
    import workloads as wl

    record = {
        "commit": run._git_commit(),
        "src_sha256": run._src_digest(),
        "pinned_seeds": list(PINNED_SEEDS),
        "seeded": {},
        "exact": {},
    }
    for workload in SEEDED_WORKLOADS:
        wl.setup(workload)
        record["seeded"][workload] = {
            str(seed): [
                [None if op["kind"] == "invalid" else _checked_digest(wl, op) for op in ops]
                for ops in wl.op_rounds(workload, seed)
            ]
            for seed in PINNED_SEEDS
        }
        print(f"recorded {workload}", file=sys.stderr)
    for ops in wl.EXACT_CATALOGUE.values():
        for op in ops:
            wl.clear_library_caches()
            record["exact"][wl.op_key(op)] = _checked_digest(wl, op)
    wl.DIGESTS_PATH.write_text(json.dumps(record, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
