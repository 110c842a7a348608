"""Smoke tests of the trajectory script, outside tier-1 (pyproject.toml's
testpaths name tests/ only):

    python -m pytest bench -q
"""

import json

import pytest

import trajectory


@pytest.fixture(scope="module")
def bench_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_0.json"
    assert trajectory.main(["--out", str(out), "--runs", "1", "--seconds", "1"]) == 0
    return out


def test_one_second_run_writes_a_file_that_parses(bench_file):
    data = json.loads(bench_file.read_text())
    assert set(data["machine"]) == set(trajectory.MACHINE)
    change = data["change"]
    workloads = [workload["name"] for workload in trajectory.BENCHMARK["workloads"]]
    assert list(change["workloads"]) == workloads
    names = {metric["name"] for metric in trajectory.BENCHMARK["end_to_end"]}
    for entry in change["workloads"].values():
        (run,) = entry["runs"]
        assert run["seed"] == 1 and run["correct"] and run["failed"] == 0
        assert names <= set(entry["metrics"])
        for name, stats in entry["metrics"].items():
            assert stats["q1"] == stats["median"] == stats["q3"] == run["metrics"][name]
    tier1 = change["tier1"]
    assert tier1["passed"] > 0 and tier1["wall_s"] > 0
    criteria = tier1["criteria"]
    assert all(c["seconds"] is not None for c in criteria.values())
    assert any(c["gate_s"] for c in criteria.values())


def test_compare_prints_the_table_and_refuses_other_machines(bench_file, tmp_path, capsys):
    assert trajectory.main(["--compare", str(bench_file), str(bench_file)]) == 0
    out = capsys.readouterr().out
    assert all(workload["name"] in out for workload in trajectory.BENCHMARK["workloads"])
    assert "items_per_s" in out and "better 0/1" in out
    # measured without --parent, the file holds no parent -> change table
    assert trajectory.main(["--compare", str(bench_file)]) == 1
    assert "holds no parent tree" in capsys.readouterr().err
    other = json.loads(bench_file.read_text())
    other["machine"]["cpu_model"] = "another CPU"
    path = tmp_path / "other.json"
    path.write_text(json.dumps(other))
    assert trajectory.main(["--compare", str(bench_file), str(path)]) == 1
    assert "refused: cpu_model differs" in capsys.readouterr().err
