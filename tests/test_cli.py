import hashlib
import json
import re

import jsonschema
import pytest

from cokernel_lab.algebra import Poly
from cokernel_lab.cli import build_parser, main, parse_poly_text

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
        # refused by the trial-division bound, not divided by every integer
        # up to 10^9: 10^18 + 3 is prime
        (("moments", "--Q", "1000000000000000003", "--e", "1", "--k", "1"),
         "trial division of 1000000000000000003 up to MAX_TRIAL_DIVISOR = 1048576"),
        (("density", "--l", "1000000000000000003", "--cond", "X-1:0"),
         "trial division of 1000000000000000003 up to MAX_TRIAL_DIVISOR = 1048576"),
        (("simulate", "curves", "--l", "1000000000000000003", "--q", "5", "--g", "1",
          "--cond", "X-1:0", "--trials", "3"),
         "trial division of 1000000000000000003 up to MAX_TRIAL_DIVISOR = 1048576"),
        # refused by the degree bound before Rabin's test or the coefficient list
        (("density", "--l", "3", "--cond", "X^2000+X+2:0"),
         "polynomial 'X^2000+X+2' has degree 2000, above MAX_POLY_DEGREE = 32"),
        (("rank-dist", "--l", "3", "--p", "X^3000+X+2", "--e", "1", "--m", "0"),
         "polynomial 'X^3000+X+2' has degree 3000, above MAX_POLY_DEGREE = 32"),
        (("simulate", "curves", "--l", "3", "--q", "13", "--g", "4",
          "--cond", "X^600+X+2:0", "--trials", "2"),
         "polynomial 'X^600+X+2' has degree 600, above MAX_POLY_DEGREE = 32"),
        (("density", "--l", "3", "--cond", "X^99999999999:1"),
         "polynomial 'X^99999999999' has degree 99999999999, above MAX_POLY_DEGREE = 32"),
        (("rank-dist", "--Q", str(3**96), "--e", "1", "--m", "0"),
         "the extension F_3^96 of F_3 has degree 96, above MAX_POLY_DEGREE = 32"),
        # a large l with a degree past the bound is refused by that bound
        # before any candidate is tested
        (("rank-dist", "--Q", str(1000003**33), "--e", "1", "--m", "0"),
         "the extension F_1000003^33 of F_1000003 has degree 33, above MAX_POLY_DEGREE = 32"),
        # the census draws no stream, and is refused as the seeded route is
        (("simulate", "curves", "--l", "3", "--q", "5", "--g", "1", "--cond", "X-1:0",
          "--exhaustive", "--workers", "0"),
         "worker count must be positive"),
        (("simulate", "curves", "--l", "3", "--q", "5", "--g", "1", "--cond", "X-1:0",
          "--exhaustive", "--workers", "100"),
         "worker count 100 exceeds MAX_WORKERS = 64"),
        # the monic check names the condition, not the p of LocalRingSpec
        (("density", "--l", "3", "--cond", "2X-1:0"),
         "condition Poly(l=3, coeffs=[2, 2]) must be monic"),
        # an empty polynomial names the flag and its text
        (("density", "--l", "3", "--cond", ":0"), "--cond ':0': empty polynomial"),
        (("rank-dist", "--p", "", "--e", "1", "--m", "0"), "--p '': empty polynomial"),
        (("density", "--l", "3", "--cond", "X-1"), "condition 'X-1' must look like 'X-1:0'"),
        (("simulate", "curves", "--l", "5", "--q", "5", "--g", "1", "--cond", "X-1:0",
          "--trials", "5"),
         "l = 5 divides q = 5"),
        (("verify", "--suite", "nope"), "invalid choice: 'nope'"),
        # an unknown --ring key is refused naming it, not ignored
        (("simulate", "cokernel", "--ring",
          '{"l": 3, "factors": [{"p": [0, 1], "e": 2}], "x": 1}', "--n", "2",
          "--trials", "5"),
         "--ring key 'x' is not one of l, factors"),
        (("measure", "--ring", '{"l": 3, "factors": [{"p": [0, 1], "e": 2, "q": 1}]}',
          "--types", "[[1]]"),
         "--ring factor key 'q' is not one of p, e"),
        # the required flags of the shared flag groups
        (("simulate", "curves", "--l", "3", "--q", "5", "--g", "1", "--trials", "5"),
         "the following arguments are required: --cond"),
        (("simulate", "cokernel", "--n", "2", "--trials", "5"),
         "the following arguments are required: --ring"),
        # a factor that makes no local ring is named by --ring and its index
        (("measure", "--ring", '{"l":3,"factors":[{"p":[],"e":1}]}', "--types", "[[1]]"),
         "--ring factor 0: p = Poly(l=3, coeffs=[]) is constant; it must have positive degree"),
        (("measure", "--ring", '{"l":3,"factors":[{"p":[1],"e":1}]}', "--types", "[[1]]"),
         "--ring factor 0: p = Poly(l=3, coeffs=[1]) is constant; it must have positive degree"),
        (("measure", "--ring", '{"l":3,"factors":[{"p":[0,1],"e":0}]}', "--types", "[[1]]"),
         "--ring factor 0: exponent e = 0 must be >= 1"),
        (("measure", "--ring", '{"l":3,"factors":[{"p":[2,0,1],"e":1}]}', "--types", "[[1]]"),
         "--ring factor 0: p = Poly(l=3, coeffs=[2, 0, 1]) is reducible over F_3"),
        (("measure", "--ring", '{"l":3,"factors":[{"p":[0,1],"e":1},{"p":[1,1],"e":0}]}',
          "--types", "[[1], [1]]"),
         "--ring factor 1: exponent e = 0 must be >= 1"),
        # the one polynomial check names a reducible condition
        (("density", "--l", "3", "--cond", "X^2+X+1:0"),
         "condition Poly(l=3, coeffs=[1, 1, 1]) is reducible over F_3"),
        (("simulate", "curves", "--l", "3", "--q", "5", "--g", "1",
          "--cond", "X^2+X+1:0", "--trials", "5"),
         "condition Poly(l=3, coeffs=[1, 1, 1]) is reducible over F_3"),
        # text that is no JSON, and a repeated factor, are named by their flag
        (("measure", "--ring", "nope", "--types", "[[1]]"),
         "--ring is not JSON: Expecting value"),
        (("measure", "--ring", '{"l":3,"factors":[{"p":[0,1],"e":2}]}', "--types", "nope"),
         "--types is not JSON: Expecting value"),
        (("simulate", "cokernel", "--ring",
          '{"l":3,"factors":[{"p":[0,1],"e":2},{"p":[0,1],"e":1}]}', "--n", "2",
          "--trials", "5"),
         "--ring: repeated irreducible factor Poly(l=3, coeffs=[0, 1])"),
        # a refused type, exponent, rank or moment order names its flag
        (("measure", "--ring", F3_LOCAL, "--types", "[[1,2]]"),
         "--types [[1,2]]: parts must be weakly decreasing"),
        (("measure", "--ring", F3_LOCAL, "--types", "[[0]]"),
         "--types [[0]]: parts must be positive"),
        (("measure", "--ring", F3_LOCAL, "--types", "[[3]]"),
         "--types [[3]]: part 3 exceeds the factor exponent 2"),
        (("measure", "--ring", F3_LOCAL, "--types", "[]"),
         "--types []: one partition per local factor required"),
        (("rank-dist", "--Q", "9", "--e", "0", "--m", "2"), "--e 0: exponent e = 0 must be >= 1"),
        (("rank-dist", "--Q", "9", "--e", "1", "--m", "-2"), "--m -2: rank must be nonnegative"),
        (("moments", "--Q", "3", "--e", "1", "--k", "-1"),
         "--k -1: moment order must be nonnegative"),
        (("moments", "--Q", "3", "--e", "0", "--k", "1"), "--e 0: exponent e = 0 must be >= 1"),
        # a field size that is no prime power, or below 2, names --Q
        (("rank-dist", "--Q", "6", "--e", "1", "--m", "2"), "--Q 6: Q = 6 is not a prime power"),
        (("moments", "--Q", "6", "--e", "1", "--k", "1"), "--Q 6: Q = 6 is not a prime power"),
        (("eta", "--Q", "1"), "--Q 1: field size must be at least 2"),
        # a simulation's sizes and base field name their flag
        (("simulate", "cokernel", "--ring", F3_LOCAL, "--n", "0", "--trials", "5"),
         "--n 0: matrix size must be positive"),
        (("simulate", "cokernel", "--ring", F3_LOCAL, "--n", "17", "--trials", "1"),
         "--n 17: matrix size 17 exceeds MAX_MATRIX_SIZE = 16"),
        (("simulate", "cokernel", "--ring", F3_LOCAL, "--n", "2", "--trials", "5",
          "--workers", "0"),
         "--workers 0: worker count must be positive"),
        (("simulate", "cokernel", "--ring", F3_LOCAL, "--n", "2", "--trials", "-3"),
         "--trials -3: random sampling needs trials >= 1, got -3"),
        (("simulate", "curves", "--l", "3", "--q", "9", "--g", "1", "--cond", "X-1:0",
          "--trials", "5"),
         "--q 9: only odd prime base fields are supported"),
        # the genus, the modulus, q against l and the exhaustive cap name
        # their flag too
        (("simulate", "curves", "--l", "3", "--q", "5", "--g", "0", "--cond", "X-1:0",
          "--trials", "5"),
         "--g 0: genus g = 0 must be >= 1"),
        (("simulate", "curves", "--l", "0", "--q", "5", "--g", "1", "--cond", "X-1:0",
          "--trials", "5"),
         "--l 0: modulus l = 0 must be an odd prime"),
        (("simulate", "curves", "--l", "4", "--q", "5", "--g", "1", "--cond", "X-1:0",
          "--trials", "5"),
         "--l 4: modulus l = 4 must be an odd prime"),
        (("density", "--l", "4", "--cond", "X-1:0"),
         "--l 4: modulus l = 4 must be an odd prime"),
        (("simulate", "curves", "--l", "5", "--q", "5", "--g", "1", "--cond", "X-1:0",
          "--trials", "5"),
         "--q 5: l = 5 divides q = 5"),
        (("simulate", "cokernel", "--ring", F3_LOCAL, "--n", "5", "--exhaustive"),
         "--n 5: exhaustive enumeration of 9^25 matrices exceeds the cap of 10000000"),
        # the library's rules, each refused once in its own words and named
        # by the one flag that can break it
        (("rank-dist", "--l", "0", "--p", "X", "--e", "2", "--m", "2"),
         "--l 0: modulus l = 0 must be an odd prime"),
        (("rank-dist", "--l", "4", "--p", "X", "--e", "2", "--m", "2"),
         "--l 4: modulus l = 4 must be an odd prime"),
        (("eta", "--Q", "3", "--tol", "nan"), "--tol nan: tolerance tol = nan"),
        (("rank-dist", "--Q", "9", "--e", "1", "--m", "100"),
         "--m 100: rank m = 100 over residue degree 2"),
        (("moments", "--Q", "3", "--e", "2", "--k", "200"),
         "--k 200: moment k = 200 with e = 2"),
        # a term that does not parse names the flag and its text
        (("rank-dist", "--p", "X-a", "--e", "2", "--m", "2"),
         "--p 'X-a': cannot parse polynomial term '-a'"),
        # with --e checked, only --Q can make the local ring fail
        (("rank-dist", "--Q", str(3**33), "--e", "1", "--m", "0"),
         f"--Q {3**33}: the extension F_3^33 of F_3 has degree 33, above MAX_POLY_DEGREE"),
        # and with --l and --e checked, only --p
        (("rank-dist", "--l", "3", "--p", "X^2-1", "--e", "2", "--m", "2"),
         "--p X^2-1: p = Poly(l=3, coeffs=[2, 0, 1]) is reducible over F_3"),
        (("rank-dist", "--l", "3", "--p", "2X", "--e", "2", "--m", "2"),
         "--p 2X: p = Poly(l=3, coeffs=[0, 2]) must be monic"),
    ],
)
def test_invalid_input_exits_1_naming_cause(capsys, argv, cause):
    code, doc, err = run_cli(capsys, *argv)
    assert code == 1
    assert doc is None
    assert cause in err


@pytest.mark.parametrize(
    "l, d, p",
    [(1031, 3, (4, 1, 0, 1)), (1000003, 4, (1, 1, 0, 0, 1))],
    ids=["1031^3", "1000003^4"],
)
def test_rank_dist_answers_where_every_binomial_is_reducible(capsys, l, d, p):
    """Every X^d + c is reducible at 1031 = 2 mod 3 with d = 3 and at
    1000003 = 3 mod 4 with d = 4.  The binomials are decided in closed form,
    so the capped Rabin scan starts past them and meets X^d + X + c."""
    code, doc, err = run_cli(capsys, "rank-dist", "--Q", str(l**d), "--e", "1", "--m", "0")
    assert code == 0, err
    _assert_valid(doc)
    assert doc["manifest"]["config"]["p"] == list(p)
    assert doc["result"]["rational"] == "1/1"


def test_unwritable_emit_csv_refused_before_any_draw(capsys, monkeypatch, tmp_path):
    """A directory as --emit-csv exits 1 naming the path before any cokernel
    is drawn or any curve counted."""
    from cokernel_lab import cli, curves

    calls = []
    monkeypatch.setattr(cli, "sample_cokernels", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(curves, "_draw_curves", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(curves, "_counts_and_squarefree", lambda *a, **k: calls.append(a))
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
    monkeypatch.setattr(curves, "_draw_curves", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(curves, "_counts_and_squarefree", lambda *a, **k: calls.append(a))
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
    monkeypatch.setattr(curves, "_draw_curves", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(curves, "_counts_and_squarefree", lambda *a, **k: calls.append(a))
    code, doc, err = run_cli(
        capsys, "simulate", "curves", "--l", "3", "--q", "13", "--g", "4",
        "--cond", "X^2+X+2:700", "--trials", "20000",
    )
    assert code == 1
    assert doc is None
    assert "rank m = 2800 over residue degree 2 lists modules of length 1400" in err
    assert calls == []


def test_long_condition_named_among_several(capsys):
    """The length refusal names the condition that asked for it and its
    multiplicity, whichever place the condition has among the others."""
    for conds in (("X:700", "X+1:1"), ("X+1:1", "X:700")):
        argv = ["density", "--l", "3"]
        for cond in conds:
            argv += ["--cond", cond]
        code, doc, err = run_cli(capsys, *argv)
        assert code == 1
        assert doc is None
        assert (
            "condition Poly(l=3, coeffs=[0, 1]) with multiplicity 700: rank m = 1400 "
            "over residue degree 1 lists modules of length 1400" in err
        )
        assert "coeffs=[1, 1]" not in err


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (("simulate", "curves", "--l", "3", "--q", "5", "--g", "2", "--cond", "X-1:1",
          "--trials", "3000", "--seed", "4", "--workers", "2"),
         "72b347dfd767fa9e"),
        (("simulate", "curves", "--l", "3", "--q", "5", "--g", "2", "--cond", "X-1:0",
          "--exhaustive"),
         "e1342f9531e022c7"),
        (("simulate", "curves", "--l", "3", "--q", "7", "--g", "3", "--cond", "X^2+X+2:0",
          "--trials", "600", "--seed", "4", "--workers", "2"),
         "54a8f350f0675a90"),
        (("simulate", "curves", "--l", "5", "--q", "7", "--g", "2", "--cond", "X^2+2:0",
          "--cond", "X-1:1", "--trials", "2000", "--seed", "4", "--workers", "2"),
         "3c90a350b59ddd80"),
        (("simulate", "curves", "--l", "3", "--q", "13", "--g", "4", "--cond", "X-2:0",
          "--trials", "300", "--seed", "4", "--workers", "2"),
         "3295ae807daf9a1d"),
    ],
    ids=[
        "seeded", "census", "seeded-q-divides-degree", "seeded-degree-2-condition",
        "seeded-genus-4",
    ],
)
def test_curve_csv_bytes_pinned(capsys, tmp_path, argv, prefix):
    """The per-curve CSV of a two-worker seeded (2, 5) run, of the (2, 5)
    census, of a two-worker seeded (3, 7) run, where q divides deg f = 7 so
    that f' drops its leading term on every draw, and of a two-worker seeded
    (2, 7) run at l = 5 with a condition of degree 2, where both conditions
    occur with multiplicities 0, 1 and 2, and of a two-worker seeded (4, 13)
    run, whose orbit table joins the four fields up to F_{13^4}, the largest
    of the grid: every curve, P_C and multiplicity in stream order, pinned
    by its sha256."""
    csv_path = tmp_path / "curves.csv"
    code, _, _ = run_cli(capsys, *argv, "--emit-csv", str(csv_path))
    assert code == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest().startswith(prefix)


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


def test_verify_montecarlo_digest_pinned(capsys):
    """The montecarlo suite's report at seed 7 reads seeded counts only, so
    its bytes are pinned: a change to the sampling or to the elimination
    that classifies the draws shows here."""
    assert main(["verify", "--suite", "montecarlo", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest().startswith("c0df47436d71f601")


def test_verify_unknown_suite_lists_every_suite(capsys):
    """An unknown suite is refused naming every suite, by the CLI's --suite
    choices and by run_suite, both read from one table."""
    from cokernel_lab.verify import SUITES, run_suite

    code, doc, err = run_cli(capsys, "verify", "--suite", "nope")
    assert (code, doc) == (1, None)
    assert all(name in err for name in SUITES)
    with pytest.raises(ValueError, match="the suites are exact, montecarlo, curves-small"):
        run_suite("nope", 7)


def test_verify_fails_on_a_forced_oracle_disagreement(capsys, monkeypatch):
    """A brute-force |Aut| one too many fails aut-order-brute-force alone,
    with the detail of its last failing case, and verify exits 1."""
    from cokernel_lab import verify

    brute = verify.brute_force_aut_order
    monkeypatch.setattr(verify, "brute_force_aut_order", lambda l, lam: brute(l, lam) + 1)
    code, doc, err = run_cli(capsys, "verify", "--suite", "exact")
    assert code == 1
    _assert_valid(doc)
    assert doc["result"]["passed"] is False
    closed = brute(3, (2, 2))
    detail = f"(3, (2, 2)): closed {closed} != brute {closed + 1}"
    assert f"[FAIL] aut-order-brute-force: {detail}" in err
    lines = err.splitlines()
    assert sum(line.startswith("[FAIL]") for line in lines) == 1
    assert sum(line.startswith("[PASS]") for line in lines) == 5
    assert [c["passed"] for c in doc["result"]["checks"]] == [False] + [True] * 5


def test_parser_built_once_and_stateless(capsys):
    build_parser.cache_clear()
    first = ("simulate", "cokernel", "--ring", F3_LOCAL, "--n", "2", "--trials", "5")
    code, doc, _ = run_cli(capsys, *first, "--seed", "3", "--workers", "2")
    assert code == 0
    assert (doc["manifest"]["seed"], doc["manifest"]["config"]["workers"]) == (3, 2)
    # the second call takes the defaults again, not the first call's values
    code, doc, _ = run_cli(capsys, *first)
    assert code == 0
    assert (doc["manifest"]["seed"], doc["manifest"]["config"]["workers"]) == (0, 1)
    # an appended option starts from an empty list on every call
    for conds in (["X-1:0", "X+1:1"], ["X-1:0"]):
        code, doc, _ = run_cli(capsys, "density", "--l", "3", *(f"--cond={c}" for c in conds))
        assert code == 0
        assert len(doc["manifest"]["config"]["conditions"]) == len(conds)
    # a refused call leaves the parser usable
    assert main(["eta", "--Q", "3", "--bogus"]) == 1
    assert main(["eta", "--Q", "3"]) == 0
    capsys.readouterr()
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 5)


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


MASKED = re.compile(r'"(started|finished|runtime_ms)": ("[^"]*"|\d+)')


@pytest.mark.parametrize(
    "argv, out_prefix, err_prefix",
    [
        (("eta", "--Q", "3"),
         "c2236656dad3c738", "6329fc44685c9685"),
        (("measure", "--ring", F3_LOCAL, "--types", "[[2, 1]]"),
         "ed09e97d80eea3cc", "476d787f1af21ed5"),
        (("moments", "--Q", "3", "--e", "2", "--k", "3"),
         "8a15f411c3f3a000", "cf6a634872b49c46"),
        (("rank-dist", "--Q", "9", "--e", "2", "--m", "2"),
         "94d1fc0d57228a59", "41e6dc484e4378c1"),
        (("rank-dist", "--l", "3", "--p", "X^2+X+2", "--e", "2", "--m", "2"),
         "ccf5e0eba5f68ba9", "41e6dc484e4378c1"),
        # the eta product is below 1/2, so the warning is printed
        (("density", "--l", "3", "--cond", "X-1:0", "--cond", "X+1:0", "--cond", "X:0"),
         "430a7d784bcdb426", "e14555e7f1a09ffe"),
        (("simulate", "cokernel", "--ring", F3_LOCAL, "--n", "3", "--trials", "200",
          "--seed", "5", "--workers", "2"),
         "7a4f3e70986d01bc", "2f02c696f6da6787"),
        (("simulate", "curves", "--l", "3", "--q", "5", "--g", "1", "--cond", "X-1:1",
          "--trials", "200", "--seed", "4"),
         "0d4a65611200646e", "cad4dc9f9fe8e354"),
    ],
    ids=["eta", "measure", "moments", "rank-dist-Q", "rank-dist-p", "density-warning",
         "simulate-cokernel", "simulate-curves"],
)
def test_reports_pinned(capsys, argv, out_prefix, err_prefix):
    """Every report but verify's, stdout and stderr, pinned by its sha256;
    the timestamps and run time of stdout are masked."""
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    out = MASKED.sub(r'"\1": null', captured.out)
    digests = [hashlib.sha256(t.encode()).hexdigest()[:16] for t in (out, captured.err)]
    assert digests == [out_prefix, err_prefix]
