"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

import json

import pytest

import run

run.import_library()

import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Record  # noqa: E402


def _tree(*rows):
    """Records from (id, parent, name, calls, total) rows."""
    recs = {i: Record(i, parent, 0, name, calls, total) for i, parent, name, calls, total in rows}
    for r in recs.values():
        if r.parent is not None:
            recs[r.parent].children.append(r.id)
    return list(recs.values())


def test_self_time_on_synthetic_span_tree():
    recs = _tree(
        (0, None, "op", 1, 10.0),
        (1, 0, "a", 1, 6.0),
        (2, 0, "b", 3, 3.0),
        (3, 1, "c", 5, 4.0),
        (4, 3, "a", 2, 1.5),
    )
    assert tracer.self_times(recs) == {0: 1.0, 1: 2.0, 2: 3.0, 3: 2.5, 4: 1.5}
    stats = tracer.layer_stats(recs)
    # the nested call of a is inside the outer one, so its time counts once
    assert stats["a"] == {"calls": 3, "total_s": 6.0, "self_s": 3.5}
    assert stats["c"] == {"calls": 5, "total_s": 4.0, "self_s": 2.5}


def test_tracer_aggregates_calls_under_their_parent():
    tr = tracer.Tracer()
    inner = tr._wrap("inner", lambda x: x + 1)
    outer = tr._wrap("outer", lambda n: sum(inner(i) for i in range(n)))
    tr.begin_op(7)
    assert outer(4) == 10
    tr.end_op()
    assert outer(2) == 3  # not recorded: no op is open
    names = {r.name: r for r in tr.records}
    assert names["outer"].calls == 1 and names["inner"].calls == 4
    assert names["inner"].parent == names["outer"].id
    assert {r.op for r in tr.records} == {7}
    assert tracer.self_times(tr.records)[names["op"].id] >= 0


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_op_list_is_a_pure_function_of_the_seed(workload):
    assert wl.op_rounds(workload, 7) == wl.op_rounds(workload, 7)
    assert wl.op_rounds(workload, 7) != wl.op_rounds(workload, 8)
    assert len(wl.op_rounds(workload, 7)) == wl.ROUNDS[workload]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_and_untraced_runs_give_identical_outputs(workload):
    wl.setup(workload)
    rounds = wl.op_rounds(workload, 3)[:1]
    digests = {"seeded": {}, "exact": {}}
    plain = run.run_phase(wl, rounds, 0, workload, 3, digests, n_rounds=1)
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = run.run_phase(wl, rounds, 0, workload, 3, digests, tr=tr, n_rounds=1)
    finally:
        tr.remove()
    assert [x["error"] for x in plain + traced] == [None] * (2 * len(plain))
    assert [x["digest"] for x in plain] == [x["digest"] for x in traced]
    assert any(r.calls for r in tr.records if r.name != "op")


def test_a_run_times_at_least_the_minimum_number_of_ops():
    wl.setup("exact-queries")
    rounds = wl.op_rounds("exact-queries", 3)
    results = run.run_phase(wl, rounds, 0, "exact-queries", 3, {"seeded": {}, "exact": {}})
    timed = [x for x in results if x["op"]["kind"] != "invalid"]
    assert len(timed) >= run.MIN_TIMED_OPS > len(timed) - len(rounds[0])
    assert results[-1]["pos"] == len(rounds[results[-1]["round"]]) - 1


def test_times_are_scaled_by_the_kernel_time_of_their_round():
    results = [
        {"round": 0, "seconds": 1.0, "kernel_s": 2 * run.KERNEL_REF_S},
        {"round": 0, "seconds": 3.0, "kernel_s": 2 * run.KERNEL_REF_S},
        {"round": 1, "seconds": 1.0, "kernel_s": run.KERNEL_REF_S / 2},
    ]
    run.scale_to_reference(results)
    assert [x["ref_seconds"] for x in results] == [0.5, 1.5, 2.0]


def test_a_traced_run_has_a_fixed_op_list():
    assert run.trace_rounds("cokernel-large-ring", 20, 6) == 18
    assert run.trace_rounds("curve-stats", 20, 1) == 5
    assert run.trace_rounds("curve-stats", 1, 1) == 1


def test_every_wrapper_is_removed_after_a_traced_run():
    originals = {(m.__name__, k): v for m in tracer.package_modules() for k, v in vars(m).items()}
    tr = tracer.Tracer()
    tr.install()
    assert tracer.leftover_wrappers()
    tr.begin_op(0)
    wl.run_op(wl.EXACT_CATALOGUE["lattice"][0])
    tr.end_op()
    tr.remove()
    assert tracer.leftover_wrappers() == []
    for m in tracer.package_modules():
        for key, value in vars(m).items():
            if (m.__name__, key) in originals:
                assert value is originals[(m.__name__, key)]


def test_checks_catch_wrong_outputs():
    op = wl.EXACT_CATALOGUE["lattice"][0]
    out, _ = wl.run_op(op)
    assert wl.check_op(op, out) is None
    out["subs"][0][1] += 1
    assert wl.check_op(op, out) is not None
    bad = {"kind": "invalid", "label": "x", "argv": ["eta", "--Q", "3"], "accept": [1]}
    out, _ = wl.run_op(bad)
    assert "exit code 0" in wl.check_op(bad, out)


def test_load_limits_are_checked_before_running():
    rounds = wl.op_rounds("cokernel-small-ring", 1)
    wl.check_load("cokernel-small-ring", rounds, nproc=2)
    with pytest.raises(ValueError, match="workers"):
        wl.check_load("cokernel-small-ring", rounds, nproc=1)
    too_big = [[{"kind": "cokernel", "ring": "F3[X]/(X^8)", "n": 4, "workers": 1}]]
    with pytest.raises(ValueError, match="table ring"):
        wl.check_load("cokernel-small-ring", too_big, nproc=2)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_run_refuses_bad_arguments():
    for argv in (
        ["--workload", "nope", "--seed", "1", "--seconds", "1"],
        ["--workload", "curve-stats", "--seed", "1", "--seconds", "0"],
        ["--workload", "curve-stats", "--seed", "-1", "--seconds", "1"],
    ):
        with pytest.raises(SystemExit) as ex:
            run.parse_args(argv)
        assert ex.value.code == 2
