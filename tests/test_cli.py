import hashlib
import json

import jsonschema
import pytest

from cokernel_lab.algebra import Poly
from cokernel_lab.cli import main, parse_poly_text

try:
    from importlib.resources import files

    SCHEMA = json.loads(
        (files("cokernel_lab") / "schemas/report.schema.json").read_text()
    )
except Exception:  # pragma: no cover
    SCHEMA = None


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def _assert_valid(doc):
    jsonschema.validate(doc, SCHEMA)


def test_parse_poly_text():
    assert parse_poly_text("X^2+2", 3) == Poly(3, (2, 0, 1))
    assert parse_poly_text("X-1", 3) == Poly(3, (2, 1))
    assert parse_poly_text("X-a", 3, a=1) == Poly(3, (2, 1))
    assert parse_poly_text("2X^3 + X - 2", 5) == Poly(5, (3, 1, 0, 2))
    assert parse_poly_text("X", 3) == Poly(3, (0, 1))
    with pytest.raises(ValueError):
        parse_poly_text("X-a", 3)
    with pytest.raises(ValueError):
        parse_poly_text("garbage!", 3)


def test_eta_subcommand(capsys):
    code, doc, err = run_cli(capsys, "eta", "--Q", "3")
    assert code == 0
    _assert_valid(doc)
    assert abs(doc["result"]["value"] - 0.560126) < 1e-5
    assert "eta" in err
    assert not err.strip().startswith("{")


def test_density_subcommand(capsys):
    code, doc, err = run_cli(
        capsys, "density", "--l", "3", "--cond", "X-a:1", "--a", "1"
    )
    assert code == 0
    _assert_valid(doc)
    assert doc["result"]["rational"] == "3/16"
    assert doc["result"]["hypothesis_eta_gt_half"] is True
    assert doc["manifest"]["subcommand"] == "density"


def test_rank_dist_subcommand(capsys):
    code, doc, _ = run_cli(
        capsys, "rank-dist", "--l", "3", "--p", "X", "--e", "2", "--m", "2"
    )
    assert code == 0
    _assert_valid(doc)
    assert doc["result"]["rational"] == "3/16"


def test_moments_subcommand(capsys):
    code, doc, _ = run_cli(capsys, "moments", "--Q", "3", "--e", "1", "--k", "2")
    assert code == 0
    _assert_valid(doc)
    assert doc["result"]["moment"] == 6


def test_measure_subcommand(capsys):
    code, doc, _ = run_cli(
        capsys,
        "measure",
        "--ring",
        '{"l":3,"factors":[{"p":[0,1],"e":1}]}',
        "--types",
        "[[1]]",
    )
    assert code == 0
    _assert_valid(doc)
    assert doc["result"]["rational"] == "3/4"


def test_simulate_cokernel_deterministic(capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    args = (
        "simulate",
        "cokernel",
        "--ring",
        '{"l":3,"factors":[{"p":[0,1],"e":1}]}',
        "--n",
        "3",
        "--trials",
        "400",
        "--seed",
        "5",
        "--emit-csv",
        str(csv_path),
    )
    code, doc1, _ = run_cli(capsys, *args)
    assert code == 0
    _assert_valid(doc1)
    code, doc2, _ = run_cli(capsys, *args)
    assert doc1["result"]["counts"] == doc2["result"]["counts"]
    assert doc1["result"]["total"] == 400
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "type,empirical,theoretical"
    assert len(lines) > 1


def test_simulate_curves_subcommand(capsys):
    code, doc, _ = run_cli(
        capsys,
        "simulate",
        "curves",
        "--l",
        "3",
        "--q",
        "5",
        "--g",
        "1",
        "--cond",
        "X-1:1",
        "--trials",
        "0",
        "--seed",
        "7",
        "--exhaustive",
    )
    assert code == 0
    _assert_valid(doc)
    assert doc["result"]["trials"] == 100
    assert doc["manifest"]["hypotheses"]["eta_product_gt_half"] is True
    # X - 1 pairs with X - 2 at q = 5, which is not a condition here
    assert doc["manifest"]["hypotheses"]["prediction_applies_at_q"] is True


def test_hypothesis_gate_exit_code(capsys):
    code, doc, err = run_cli(
        capsys,
        "simulate",
        "curves",
        "--l",
        "3",
        "--q",
        "13",
        "--g",
        "1",
        "--cond",
        "X-1:1",
        "--trials",
        "10",
        "--seed",
        "1",
    )
    assert code == 1
    assert doc is None
    assert "divides P(q)" in err


def test_invalid_json_exit_code(capsys):
    code, doc, err = run_cli(capsys, "measure", "--ring", "{bad", "--types", "[[1]]")
    assert code == 1
    assert doc is None


F3_LOCAL = '{"l": 3, "factors": [{"p": [0, 1], "e": 2}]}'
CURVES = ("simulate", "curves", "--l", "3", "--q", "5", "--g", "1", "--cond", "X-1:0")


@pytest.mark.parametrize(
    "argv, cause",
    [
        (("simulate", "cokernel", "--ring", F3_LOCAL, "--n", "2"), "trials >= 1"),
        (CURVES, "trials >= 1"),
        (CURVES + ("--trials", "5", "--workers", "0"), "worker count"),
        (("measure", "--ring", F3_LOCAL, "--types", "[3]"), "--types must be"),
        (("measure", "--ring", F3_LOCAL, "--types", '["2"]'), "--types must be"),
        # F_{13^5}, the first field past the cap, is refused before it is built
        (
            ("simulate", "curves", "--l", "3", "--q", "13", "--g", "8",
             "--cond", "X^2+X+2:0", "--trials", "1"),
            "above MAX_RING_SIZE",
        ),
        (("simulate", "cokernel", "--ring", F3_LOCAL, "--n", "17", "--trials", "1"),
         "MAX_MATRIX_SIZE"),
        # F_28571: a residue field above MAX_RING_SIZE = 13^4 elements,
        # refused before any draw
        (("simulate", "cokernel", "--ring",
          '{"l": 28571, "factors": [{"p": [0, 1], "e": 1}]}',
          "--n", "2", "--trials", "1"),
         "above MAX_RING_SIZE"),
        # F_3[X]/(X^40): 3^40 elements, not below LOCAL_RING_CAP = 2^63
        (("simulate", "cokernel", "--ring",
          '{"l": 3, "factors": [{"p": [0, 1], "e": 40}]}',
          "--n", "1", "--trials", "1"),
         "LOCAL_RING_CAP"),
        # refused before any stream is seeded or any polynomial counted
        (("simulate", "cokernel", "--ring", F3_LOCAL, "--n", "2", "--trials", "1",
          "--workers", "1000000000"),
         "MAX_WORKERS"),
        (CURVES + ("--trials", "5", "--workers", "1000000000"), "MAX_WORKERS"),
        # 13^9, about 1.06 * 10^10 monic polynomials of degree 9
        (("simulate", "curves", "--l", "3", "--q", "13", "--g", "4",
          "--cond", "X-2:0", "--exhaustive"),
         "CENSUS_CAP"),
        (("measure", "--ring", "[1]", "--types", "[[1]]"), "--ring must be a JSON object"),
        (("measure", "--ring", '{"l": 3, "factors": {"p": [0, 1], "e": 2}}',
          "--types", "[[1]]"),
         "factors must be a non-empty list of objects"),
        (("measure", "--ring", '{"l": 3, "factors": [{"p": "X", "e": 2}]}',
          "--types", "[[1]]"),
         "p must be a list of integers"),
        (("measure", "--ring", '{"l": 3, "factors": [{"p": [0, 1], "e": "2"}]}',
          "--types", "[[1]]"),
         "e must be an integer"),
        (("measure", "--ring", '{"l": 3, "factors": [{"p": [0, 1], "e": 2.0}]}',
          "--types", "[[1]]"),
         "e must be an integer"),
        (("measure", "--ring", '{"l": 3.0, "factors": [{"p": [0, 1], "e": 2}]}',
          "--types", "[[1]]"),
         "l must be an integer"),
        (("rank-dist", "--e", "2", "--m", "2"), "one of the arguments --p --Q is required"),
        (("rank-dist", "--p", "X", "--Q", "9", "--e", "2", "--m", "2"), "not allowed with"),
        (("moments", "--Q", "1", "--e", "2", "--k", "2"), "Q = 1 is not a prime power"),
        (("moments", "--Q", "0", "--e", "2", "--k", "2"), "Q = 0 is not a prime power"),
        (("moments", "--Q", "6", "--e", "2", "--k", "2"), "Q = 6 is not a prime power"),
        (("simulate", "curves", "--l", "3", "--q", "5", "--g", "0", "--cond", "X-1:0",
          "--trials", "5"),
         "g = 0 must be >= 1"),
        (("simulate", "curves", "--l", "3", "--q", "5", "--g", "-1", "--cond", "X-1:0",
          "--trials", "5"),
         "g = -1 must be >= 1"),
        # with --Q the prime comes from Q, so --l must match it and --a has no root
        (("rank-dist", "--l", "5", "--Q", "9", "--e", "2", "--m", "2"),
         "--l 5 is not the prime of --Q 9"),
        (("rank-dist", "--a", "1", "--Q", "9", "--e", "2", "--m", "2"),
         "--a names a root in --p"),
        (("moments", "--Q", "3", "--e", "0", "--k", "2"), "exponent e = 0 must be >= 1"),
        (("moments", "--Q", "3", "--e", "-1", "--k", "2"), "exponent e = -1 must be >= 1"),
        # l is refused before any coefficient is reduced mod l
        (("density", "--l", "0", "--cond", "X:0"), "modulus l = 0"),
        (("simulate", "curves", "--l", "0", "--q", "5", "--g", "1", "--cond", "X-1:0",
          "--trials", "5"),
         "modulus l = 0"),
        (("rank-dist", "--l", "0", "--p", "X", "--e", "2", "--m", "2"), "modulus l = 0"),
        (("measure", "--ring", '{"l": 0, "factors": [{"p": [0, 1], "e": 2}]}',
          "--types", "[[1]]"),
         "modulus l = 0"),
        (("simulate", "cokernel", "--ring", F3_LOCAL, "--n", "2", "--trials", "5",
          "--emit-csv", "/nonexistent/dir/x.csv"),
         "--emit-csv /nonexistent/dir/x.csv"),
        (CURVES + ("--trials", "5", "--emit-csv", "/nonexistent/dir/x.csv"),
         "--emit-csv /nonexistent/dir/x.csv"),
        # NaN passes tol <= 0 and would certify the empty product
        (("eta", "--Q", "3", "--tol", "nan"), "tolerance tol = nan"),
        (("eta", "--Q", "3", "--tol", "inf"), "tolerance tol = inf"),
        (("density", "--l", "3", "--cond", "X-1:x"),
         "--cond 'X-1:x': multiplicity 'x' is not an integer"),
        (("density", "--l", "3", "--cond", "X^0:0"), "coeffs=[1]) is constant"),
        # F_{13^5} is above MAX_RING_SIZE: refused before any curve is drawn
        (("simulate", "curves", "--l", "5", "--q", "13", "--g", "5", "--cond", "X-1:0",
          "--trials", "3000"),
         "genus g = 5 with q = 13 counts points over F_{13^5}, above MAX_RING_SIZE"),
        # refused before any type is listed: these recursed past Python's
        # limit, ran for minutes, or gave values too long to print
        (("moments", "--Q", "3", "--e", "1", "--k", "1200"),
         "moment k = 1200 with e = 1 counts the submodules of a module of length 1200, "
         "above MAX_TYPE_LENGTH = 32"),
        (("rank-dist", "--Q", "3", "--e", "1", "--m", "1200"),
         "rank m = 1200 over residue degree 1 lists modules of length 1200, "
         "above MAX_TYPE_LENGTH = 32"),
        (("density", "--l", "3", "--cond", "X:700"),
         "rank m = 1400 over residue degree 1 lists modules of length 1400"),
        (("rank-dist", "--Q", "3", "--e", "3", "--m", "120"),
         "lists modules of length 120, above MAX_TYPE_LENGTH = 32"),
        (("moments", "--Q", "3", "--e", "2", "--k", "200"),
         "a module of length 400, above MAX_TYPE_LENGTH = 32"),
        # mu itself is unbounded; its report is refused before it is printed
        (("measure", "--ring", '{"l":3,"factors":[{"p":[0,1],"e":100000}]}',
          "--types", "[[100000]]"),
         "the exact mass of --types [[100000]] has more than MAX_PRINTED_DIGITS = 4300 digits"),
    ],
)
def test_invalid_input_exits_1_naming_cause(capsys, argv, cause):
    code, doc, err = run_cli(capsys, *argv)
    assert code == 1
    assert doc is None
    assert cause in err


def test_unwritable_emit_csv_refused_before_any_draw(capsys, monkeypatch, tmp_path):
    """A directory as --emit-csv exits 1 naming the path before any cokernel
    is drawn or any curve counted."""
    from cokernel_lab import cli, curves

    calls = []
    monkeypatch.setattr(cli, "sample_cokernels", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(curves, "point_counts", lambda *a, **k: calls.append(a))
    for argv in (
        ("simulate", "cokernel", "--ring", F3_LOCAL, "--n", "2", "--trials", "5"),
        CURVES + ("--trials", "5"),
    ):
        code, doc, err = run_cli(capsys, *argv, "--emit-csv", str(tmp_path))
        assert code == 1
        assert doc is None
        assert f"cannot write --emit-csv {tmp_path}" in err
    assert calls == []


def test_genus_refused_before_any_draw(capsys, monkeypatch):
    """A genus g with q^g above MAX_RING_SIZE exits 1 naming g, q and the cap
    before any curve is drawn or counted; g = 100000 never builds q^g."""
    from cokernel_lab import curves

    calls = []
    monkeypatch.setattr(curves, "sample_curve", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(curves, "point_counts", lambda *a, **k: calls.append(a))
    for q, g in ((13, 5), (3, 100000)):
        code, doc, err = run_cli(
            capsys, "simulate", "curves", "--l", "5", "--q", str(q), "--g", str(g),
            "--cond", "X-1:0", "--trials", "3000",
        )
        assert code == 1
        assert doc is None
        assert f"genus g = {g} with q = {q}" in err
        assert "MAX_RING_SIZE = 28561" in err
    assert calls == []


def test_long_condition_refused_before_any_draw(capsys, monkeypatch):
    """A condition whose predicted density lists modules longer than
    MAX_TYPE_LENGTH exits 1 naming the bound before any curve is drawn or
    counted."""
    from cokernel_lab import curves

    calls = []
    monkeypatch.setattr(curves, "sample_curve", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(curves, "point_counts", lambda *a, **k: calls.append(a))
    code, doc, err = run_cli(
        capsys, "simulate", "curves", "--l", "3", "--q", "13", "--g", "4",
        "--cond", "X^2+X+2:700", "--trials", "20000",
    )
    assert code == 1
    assert doc is None
    assert "rank m = 2800 over residue degree 2 lists modules of length 1400" in err
    assert calls == []


def test_manifest_started_before_the_run(capsys, monkeypatch):
    """started is stamped before the subcommand runs, so finished - started
    covers a slowed sample_cokernels."""
    import time
    from datetime import datetime

    from cokernel_lab import cli

    delay = 0.2
    sample = cli.sample_cokernels

    def slow_sample(cfg):
        time.sleep(delay)
        return sample(cfg)

    monkeypatch.setattr(cli, "sample_cokernels", slow_sample)
    code, doc, _ = run_cli(
        capsys, "simulate", "cokernel", "--ring", F3_LOCAL, "--n", "2", "--trials", "5"
    )
    assert code == 0
    _assert_valid(doc)
    started, finished = (
        datetime.fromisoformat(doc["manifest"][key]) for key in ("started", "finished")
    )
    assert (finished - started).total_seconds() >= delay


def test_unknown_flag_exit_code(capsys):
    code, _, _ = run_cli(capsys, "eta", "--Q", "3", "--bogus")
    assert code == 1


@pytest.mark.parametrize("suite", ["exact", "montecarlo", "curves-small"])
def test_verify_suite_passes(capsys, suite):
    code, doc, err = run_cli(capsys, "verify", "--suite", suite)
    assert code == 0
    _assert_valid(doc)
    assert doc["result"]["passed"] is True
    assert all(c["passed"] for c in doc["result"]["checks"])
    assert "PASS" in err


def test_verify_exact_digest_pinned(capsys):
    """The exact suite's report is deterministic, so its bytes are pinned.
    curves-small is not: its detail line prints an np.roots float."""
    assert main(["verify", "--suite", "exact"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest().startswith("7bbdfda6b00f6e0a")


def test_verify_reports_byte_identical():
    # capture raw stdout text across two runs
    import io
    from contextlib import redirect_stdout

    buf1, buf2 = io.StringIO(), io.StringIO()
    with redirect_stdout(buf1):
        main(["verify", "--suite", "curves-small", "--seed", "7"])
    with redirect_stdout(buf2):
        main(["verify", "--suite", "curves-small", "--seed", "7"])
    assert buf1.getvalue() == buf2.getvalue()
