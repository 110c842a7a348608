import pytest

from cokernel_lab.algebra import Poly, poly_gcd
from cokernel_lab.curves import (
    CENSUS_CAP,
    all_squarefree_monic,
    char_poly_from_counts,
    curve_sample_from_f,
    divisibility_stats,
    independence_stats,
    point_counts,
    sample_curve,
    validate_conditions,
    weil_root_error,
)


def _is_squarefree(f: Poly) -> bool:
    """The Poly oracle for gcd(f, f') = 1."""
    deriv = Poly(f.l, [i * c for i, c in enumerate(f.coeffs)][1:])
    return poly_gcd(f, deriv).degree == 0


def _naive_counts(f, q, g):
    """Independent oracle: double loop over F_{q^d} realized as polynomials
    modulo a fixed irreducible, no shared code with the fast path."""
    from cokernel_lab.algebra import find_irreducible, poly_divmod

    out = []
    for d in range(1, g + 1):
        modulus = find_irreducible(q, d)
        elems = [Poly.from_code(q, n) for n in range(q**d)]
        squares = set()
        for x in elems:
            squares.add(poly_divmod(x * x, modulus)[1].coeffs)
        n_pts = 1
        for x in elems:
            val = Poly(q, ())
            for c in reversed(f):
                val = poly_divmod(val * x + Poly(q, (c,)), modulus)[1]
            if val.is_zero():
                n_pts += 1
            elif val.coeffs in squares:
                n_pts += 2
        out.append(n_pts)
    return out


def test_point_counts_against_naive_oracle():
    cases = [
        ((1, 1, 0, 1), 5, 1),
        ((2, 0, 1, 0, 3, 1), 5, 2),
        ((1, 2, 3, 4, 0, 1), 7, 2),
    ]
    for f, q, g in cases:
        assert point_counts([f], q, g).tolist() == [_naive_counts(f, q, g)], (f, q, g)


def test_batched_point_counts_on_census_against_naive_oracle():
    q, g = 5, 1
    census = all_squarefree_monic(q, 2 * g + 1)
    assert len(census) == 100
    assert point_counts(census, q, g).tolist() == [_naive_counts(f, q, g) for f in census]


def test_batched_point_counts_across_digit_blocks(monkeypatch):
    """A seeded batch larger than the digit block, which is shrunk so that
    the fields F_25 and F_125 split the batch into several blocks."""
    import numpy as np

    from cokernel_lab import curves

    q, g = 5, 3
    monkeypatch.setattr(curves, "DIGIT_BLOCK", 256)
    rng = np.random.default_rng(4)
    fs = [sample_curve(q, g, rng) for _ in range(12)]
    assert point_counts(fs, q, g).tolist() == [_naive_counts(f, q, g) for f in fs]


@pytest.mark.parametrize(
    "q, d",
    [(q, d) for q in (5, 7, 11, 13) for d in range(1, 7) if q**d <= 13**4],
)
def test_frobenius_orbits_partition_the_field(q, d):
    """The orbit sizes sum to q^d and each divides d; the orbits of size k
    are as many as the monic irreducibles of degree k over F_q."""
    from collections import Counter

    from cokernel_lab.curves import _orbit_tables

    _, sizes, chi = _orbit_tables(q, d, 1)
    assert sizes.sum() == q**d
    assert all(d % k == 0 for k in sizes)
    mobius = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1}
    by_size = Counter(sizes.tolist())
    for k in range(1, d + 1):
        if d % k == 0:
            divisors = [j for j in range(1, k + 1) if k % j == 0]
            irreducibles = sum(mobius[k // j] * q**j for j in divisors) // k
            assert by_size[k] == irreducibles, (q, d, k)
    # half of the nonzero elements are squares
    assert (chi == 1).sum() == (chi == -1).sum() == (q**d - 1) // 2


def test_char_poly_known_curve():
    s = curve_sample_from_f((1, 1, 0, 1), 5, 1)
    assert s.char_poly == (5, 3, 1)
    assert Poly(3, s.char_poly).coeffs == (2, 0, 1)


def test_char_poly_functional_equation():
    for f in all_squarefree_monic(5, 5)[:60]:
        s = curve_sample_from_f(f, 5, 2)
        cp = s.char_poly
        g, q = 2, 5
        assert cp[2 * g] == 1
        assert cp[0] == q**g
        for i in range(g + 1):
            assert cp[i] == q ** (g - i) * cp[2 * g - i]


def test_weil_bound():
    for f in all_squarefree_monic(5, 5)[:60]:
        s = curve_sample_from_f(f, 5, 2)
        assert weil_root_error(s.char_poly, 5) < 1e-6


def test_point_count_trace_bound():
    """|q + 1 - N_1| is at most 2g sqrt(q) for every census curve."""
    from math import sqrt

    q, g = 5, 2
    for n1 in point_counts(all_squarefree_monic(q, 2 * g + 1), q, g)[:, 0].tolist():
        assert abs(q + 1 - n1) <= 2 * g * sqrt(q) + 1e-9


def test_newton_integrality_guard():
    with pytest.raises(ArithmeticError):
        char_poly_from_counts([7, 8], 5, 2)


def _one_draw_curve(q, g, rng):
    """The one-draw route: one draw of 2g+1 coefficients per attempt, kept
    when gcd(f, f') = 1 over Poly."""
    while True:
        f = tuple(int(x) for x in rng.integers(0, q, 2 * g + 1)) + (1,)
        if _is_squarefree(Poly(q, f)):
            return f


@pytest.mark.parametrize("g, q", [(1, 3), (1, 5), (2, 5), (2, 7), (3, 7), (3, 11), (4, 13)])
def test_sample_curves_match_one_draw_route(g, q):
    """Each worker stream's block draws give the curves of the one-draw
    route, in order, and leave the generator where that route leaves it:
    numpy must draw a (k, n) block as k draws of n, buffered 32-bit half
    included."""
    from cokernel_lab.curves import sample_curves
    from cokernel_lab.montecarlo import worker_streams

    for seed in range(50):
        for trials, workers in ((30, 1), (30, 2), (7, 2)):
            blocks = worker_streams("cokernel-lab-curves", seed, trials, workers)
            singles = worker_streams("cokernel-lab-curves", seed, trials, workers)
            for (rng, count), (oracle_rng, _) in zip(blocks, singles):
                got = sample_curves(q, g, rng, count).tolist()
                want = [list(_one_draw_curve(q, g, oracle_rng)) for _ in range(count)]
                assert got == want, (seed, trials, workers)
                assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_curve_chunks_do_not_move_the_stream(monkeypatch):
    """Seeded streams and the census cut into chunks of 7 curves hand
    on_sample the curves, P_C and multiplicities of one-chunk runs."""
    from cokernel_lab import curves

    l, q, g = 3, 5, 2
    conds = [(Poly(l, (2, 1)), 1)]

    def seen(trials, workers, exhaustive):
        out = []
        divisibility_stats(
            l, conds, q, g, trials, 3, workers, exhaustive,
            on_sample=lambda s, ms: out.append((s.f, s.char_poly, ms)),
        )
        return out

    cases = ((40, 1, False), (41, 3, False), (0, 1, True))
    whole = [seen(*case) for case in cases]
    monkeypatch.setattr(curves, "CURVE_CHUNK", 7)
    assert [seen(*case) for case in cases] == whole
    assert [len(w) for w in whole] == [40, 41, 2500]


def test_squarefree_where_the_derivative_drops_degree():
    """f' loses its leading term when q divides deg f, and is zero when
    every exponent of f is a multiple of q."""
    from cokernel_lab.curves import _squarefree

    cases = [
        ((0, 0, 0, 0, 0, 1), 5, False),  # X^5 = X * X^4
        ((3, 0, 0, 0, 0, 1), 5, False),  # X^5 + 3 = (X + 3)^5, f' = 0
        ((3, 1, 0, 0, 0, 1), 5, True),  # X^5 + X + 3, f' = 1
        ((1, 0, 0, 1, 0, 0, 1), 3, False),  # f = (X^2 + X + 1)^3, f' = 0
        ((1, 2, 0, 1), 3, True),  # X^3 + 2X + 1, f' = 2
        ((0, 0, 1, 1), 3, False),  # X^2 (X + 1)
        ((1,), 3, True),
        ((2, 1), 7, True),
    ]
    for f, q, want in cases:
        assert _is_squarefree(Poly(q, f)) is want, f
        assert _squarefree(list(f), q) is want, f


def test_sample_curve_squarefree_and_monic():
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(50):
        f = sample_curve(5, 2, rng)
        assert len(f) == 6
        assert f[-1] == 1


def test_validate_conditions_gate():
    with pytest.raises(ValueError, match="divides P"):
        validate_conditions(3, 13, [(Poly(3, (2, 1)), 1)])
    with pytest.raises(ValueError):
        validate_conditions(3, 9, [(Poly(3, (1, 1)), 0)])
    with pytest.raises(ValueError):
        validate_conditions(3, 5, [(Poly(3, (1, 1)), 0), (Poly(3, (1, 1)), 1)])
    with pytest.raises(ValueError):
        validate_conditions(4, 5, [(Poly(3, (1, 1)), 0)])
    # measure's condition check runs first
    with pytest.raises(ValueError, match="not a polynomial over F_3"):
        validate_conditions(3, 5, [(Poly(5, (2, 1)), 0)])
    with pytest.raises(ValueError, match="multiplicities are nonnegative"):
        validate_conditions(3, 5, [(Poly(3, (2, 1)), -1)])
    with pytest.raises(ValueError, match="l = 0 must be an odd prime"):
        validate_conditions(0, 5, [])
    out = validate_conditions(3, 5, [(Poly(3, (2, 1)), 1)])
    assert len(out) == 1


def test_exhaustive_census_partition_of_outcomes():
    """Exact multiplicity classes of (X-1) partition the census."""
    l, q, g = 3, 5, 1
    p = Poly(l, (2, 1))
    total = None
    hits = 0
    for m in range(0, 3):
        rep = divisibility_stats(l, [(p, m)], q, g, 0, 0, exhaustive=True)
        if total is None:
            total = rep.trials
        hits += rep.hits
    assert total == 100
    assert hits == total


def test_census_cap():
    # 13^7 > CENSUS_CAP; a huge degree is refused without computing q^degree
    for q, degree in ((13, 7), (13, 9), (3, 10**9)):
        with pytest.raises(ValueError, match="CENSUS_CAP"):
            all_squarefree_monic(q, degree)
    assert 7**7 <= CENSUS_CAP
    with pytest.raises(ValueError, match="degree = -1"):
        all_squarefree_monic(5, -1)
    assert all_squarefree_monic(5, 0) == [(1,)]


def test_census_sieve_against_gcd_oracle(monkeypatch):
    """The census sieve, the sampler's squarefree test and the per-code Poly
    gcd(f, f') test accept the same monic f, in the same order, also with
    the digit block shrunk so that the sieve and the output span many
    blocks. The sampler's test and poly_gcd share one Euclid, so the
    independent checks are the closed count, q^n - q^(n-1) for n >= 2, and
    the sieve, which multiplies h^2 k and divides nothing."""
    from cokernel_lab import curves
    from cokernel_lab.curves import _squarefree

    for q in (3, 5, 7, 11, 13):
        for n in range(1, 10):
            if q**n > 2 * 10**4:
                break
            codes = [Poly.from_code(q, code) for code in range(q**n, 2 * q**n)]
            oracle = [f.coeffs for f in codes if _is_squarefree(f)]
            assert len(oracle) == (q if n == 1 else q**n - q ** (n - 1))
            # the sampler's test, n a multiple of q included
            fast = [f.coeffs for f in codes if _squarefree(list(f.coeffs), q)]
            assert fast == oracle, (q, n)
            for digit_block in (curves.DIGIT_BLOCK, 64):
                with monkeypatch.context() as patch:
                    patch.setattr(curves, "DIGIT_BLOCK", digit_block)
                    census = all_squarefree_monic(q, n)
                assert census == oracle, (q, n, digit_block)
                assert all(type(c) is int for f in census for c in f)


def test_census_deterministic():
    l, q, g = 3, 5, 1
    p = Poly(l, (2, 1))
    a = divisibility_stats(l, [(p, 0)], q, g, 0, 1, exhaustive=True)
    b = divisibility_stats(l, [(p, 0)], q, g, 0, 2, exhaustive=True)
    assert (a.hits, a.trials) == (b.hits, b.trials)


def test_random_sampling_reproducible():
    l, q, g = 3, 5, 2
    p = Poly(l, (2, 1))
    a = divisibility_stats(l, [(p, 0)], q, g, 150, 7, workers=3)
    b = divisibility_stats(l, [(p, 0)], q, g, 150, 7, workers=3)
    assert (a.hits, a.trials) == (b.hits, b.trials)
    assert a.trials == 150


def test_independence_stats_shape():
    l, q, g = 3, 5, 1
    stats = independence_stats(
        l, (Poly(l, (2, 1)), 0), (Poly(l, (0, 1)), 0), q, g, 0, 0, exhaustive=True
    )
    assert sum(sum(row) for row in stats["table"]) == stats["trials"] == 100
    assert 0 <= stats["joint"] <= 1
    assert stats["gap_std_error"] >= 0


def test_stats_match_direct_census_count():
    """Both statistics on the exhaustive (1, 5) and (2, 5) censuses at l = 3
    equal a direct count of multiplicities over the census, and the curves
    handed to on_sample are the census in order, each with the P_C and
    multiplicities of the per-curve route."""
    from cokernel_lab.algebra import factor_multiplicity

    l, q = 3, 5
    a, b = Poly(l, (2, 1)), Poly(l, (0, 1))
    for g in (1, 2):
        census = all_squarefree_monic(q, 2 * g + 1)
        direct = []
        for f in census:
            char_poly = curve_sample_from_f(f, q, g).char_poly
            reduced = Poly(l, char_poly)
            mults = (factor_multiplicity(reduced, a), factor_multiplicity(reduced, b))
            direct.append((f, char_poly, mults))
        mults = [m for _, _, m in direct]
        for m in range(3):
            table = [[0, 0], [0, 0]]
            for mult_a, mult_b in mults:
                table[mult_a != m][mult_b != 0] += 1
            stats = independence_stats(l, (a, m), (b, 0), q, g, 0, 0, exhaustive=True)
            assert stats["table"] == table
            rep = divisibility_stats(l, [(a, m)], q, g, 0, 0, exhaustive=True)
            assert (rep.hits, rep.trials) == (sum(ma == m for ma, _ in mults), len(census))
            seen = []
            joint = divisibility_stats(
                l, [(a, m), (b, 0)], q, g, 0, 0, exhaustive=True,
                on_sample=lambda s, ms: seen.append((s.f, s.char_poly, ms)),
            )
            assert joint.hits == table[0][0]
            assert seen == direct, (g, m)


def test_reciprocal_partners_divide_equally_in_census():
    """X - 3 and X - 4 are partners at q = 7, l = 5 (3 * 4 = 7 mod 5), so
    every curve of the (g, q) = (1, 7) census has them to equal multiplicity,
    matching the density of 0 for unequal multiplicities."""
    from cokernel_lab.algebra import factor_multiplicity
    from cokernel_lab.measure import divisor_density

    a, b = Poly(5, (2, 1)), Poly(5, (1, 1))
    census = all_squarefree_monic(7, 3)
    assert len(census) == 294
    divisible = 0
    for f in census:
        reduced = Poly(5, curve_sample_from_f(f, 7, 1).char_poly)
        m = factor_multiplicity(reduced, a)
        assert factor_multiplicity(reduced, b) == m, f
        divisible += m > 0
    assert divisible == 63
    assert divisor_density(5, [(a, 1), (b, 0)], q=7).rational == 0
    assert divisor_density(5, [(a, 1), (b, 1)], q=7) == divisor_density(5, [(a, 1)], q=7)
