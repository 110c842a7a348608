import functools

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


def _squarefree_mask(fs, q):
    """The orbit kernel's mask on monic fs of one degree n, coefficients low
    degree first: no repeated irreducible factor of degree <= n // 2, which
    is squarefreeness."""
    import numpy as np

    from cokernel_lab.curves import _counts_and_squarefree

    rows = np.array(fs, dtype=np.int64).reshape(len(fs), -1)
    return _counts_and_squarefree(rows, q, (rows.shape[1] - 1) // 2)[1].tolist()


def _naive_counts(fs, q, g):
    """Independent oracle: for each f of the sequence fs, N_1..N_g by a loop
    over every element of F_{q^d} = F_q[X]/(m), m = find_irreducible(q, d),
    held as a tuple of d ints with schoolbook products reduced mod m; each
    field's elements, squares and powers x^k are built once for all of fs.
    No shared code with the fast path."""
    from itertools import product

    from cokernel_lab.algebra import find_irreducible

    fs = [[int(c) % q for c in f] for f in fs]
    n = max(map(len, fs)) - 1
    out = [[] for _ in fs]
    for d in range(1, g + 1):
        modulus = find_irreducible(q, d).coeffs

        def times(a, b):
            full = [0] * (2 * d - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    full[i + j] += x * y
            # X^k = X^(k-d) (X^d - m) mod m, from the top down; m is monic
            for k in range(2 * d - 2, d - 1, -1):
                top = full[k] % q
                for j in range(d + 1):
                    full[k - d + j] -= top * modulus[j]
            return tuple(c % q for c in full[:d])

        zero = (0,) * d
        elems = list(product(range(q), repeat=d))
        squares = {times(x, x) for x in elems}
        counts = [1] * len(fs)
        for x in elems:
            powers = [(1,) + zero[1:]]
            for _ in range(n):
                powers.append(times(powers[-1], x))
            for i, f in enumerate(fs):
                value = tuple(
                    sum(c * p[j] for c, p in zip(f, powers)) % q for j in range(d)
                )
                if value == zero:
                    counts[i] += 1
                elif value in squares:
                    counts[i] += 2
        for row, count in zip(out, counts):
            row.append(count)
    return out


def test_point_counts_against_naive_oracle():
    cases = [
        ((1, 1, 0, 1), 5, 1),
        ((2, 0, 1, 0, 3, 1), 5, 2),
        ((1, 2, 3, 4, 0, 1), 7, 2),
    ]
    for f, q, g in cases:
        assert point_counts([f], q, g).tolist() == _naive_counts([f], q, g), (f, q, g)


def test_batched_point_counts_on_census_against_naive_oracle():
    q, g = 5, 1
    census = all_squarefree_monic(q, 2 * g + 1)
    assert len(census) == 100
    assert point_counts(census, q, g).tolist() == _naive_counts(census, q, g)


def test_batched_point_counts_across_digit_blocks(monkeypatch):
    """A seeded batch larger than the digit block, which is shrunk so that
    the fields F_25 and F_125 split the batch into several blocks."""
    import numpy as np

    from cokernel_lab import curves

    q, g = 5, 3
    monkeypatch.setattr(curves, "DIGIT_BLOCK", 256)
    rng = np.random.default_rng(4)
    fs = [sample_curve(q, g, rng) for _ in range(12)]
    assert point_counts(fs, q, g).tolist() == _naive_counts(fs, q, g)


def test_drawn_curves_carry_their_point_counts(monkeypatch):
    """The counts that _draw_curves returns with its curves, from the passes
    that tested the draws, are those of point_counts and of the naive
    oracle, also with the digit block shrunk so that a pass spans blocks."""
    from cokernel_lab import curves
    from cokernel_lab.montecarlo import worker_streams

    for digit_block in (curves.DIGIT_BLOCK, 64):
        monkeypatch.setattr(curves, "DIGIT_BLOCK", digit_block)
        for g, q in ((1, 3), (2, 5), (3, 7)):
            fs, counts = curves._draw_curves(q, g, list(worker_streams("t", g, 40, 3)))
            assert counts.tolist() == point_counts(fs, q, g).tolist()
            assert counts[:4].tolist() == _naive_counts(fs[:4].tolist(), q, g)


def test_orbit_table_dtype_switches_at_two_to_the_twenty():
    """The powers are float32 exactly when (degree + 1)(q - 1)^2 < 2^20:
    at q = 257, 15 * 256^2 is below it and 16 * 256^2 is 2^20."""
    import numpy as np

    from cokernel_lab.curves import _orbit_tables

    assert 15 * 256**2 < 2**20 == 16 * 256**2
    assert _orbit_tables(257, 1, 14)[0].dtype == np.float32
    assert _orbit_tables(257, 1, 15)[0].dtype == np.float64


def test_one_orbit_pass_over_every_field(monkeypatch):
    """The kernel evaluates all g fields F_{q^d}, d <= g, in one pass: a new
    (q, g, degree) costs one table, whatever g is, and at g = 3 without the
    squarefree test the kernel reduces once per row block, the digit block
    shrunk so that 12 rows take three blocks of the 5 + 15 + 45
    representatives' 3 digits each."""
    import numpy as np

    from cokernel_lab import curves

    tables = functools.lru_cache(maxsize=None)(curves._orbit_tables.__wrapped__)
    monkeypatch.setattr(curves, "_orbit_tables", tables)
    q, rng = 5, np.random.default_rng(2)
    for g in (1, 2, 3, 4):
        rows = np.ones((12, 2 * g + 2), dtype=np.int64)
        rows[:, :-1] = rng.integers(0, q, (12, 2 * g + 1))
        curves._counts_and_squarefree(rows, q, g)
        curves._counts_and_squarefree(rows[:5], q, g, test_squarefree=False)
        assert tables.cache_info().misses == g, g
    reduced, reduce = [], curves._reduce

    def counted(x, l):
        reduced.append(x.shape)
        return reduce(x, l)

    monkeypatch.setattr(curves, "_reduce", counted)
    monkeypatch.setattr(curves, "DIGIT_BLOCK", 5 * 3 * (5 + 15 + 45))
    rows = np.ones((12, 8), dtype=np.int64)
    rows[:, :-1] = rng.integers(0, q, (12, 7))
    counts, free = curves._counts_and_squarefree(rows, q, 3, test_squarefree=False)
    assert free is None
    assert reduced == [(5, 3 * 65), (5, 3 * 65), (2, 3 * 65)]
    assert counts.tolist() == _naive_counts(rows.tolist(), q, 3)


@pytest.mark.parametrize("q, g, dtype", [(28559, 1, "float64"), (13, 4, "float32")])
def test_float_point_counts_exact_at_the_edges(q, g, dtype):
    """Seeded curves at the float64 edge, q^g = 28559 the largest prime
    field, where values reach 4 * 28558^2, and at the float32 field
    F_{13^4}, the largest of the grid, count as the naive oracle does."""
    import numpy as np

    from cokernel_lab.curves import _orbit_tables, sample_curves

    assert _orbit_tables(q, g, 2 * g + 1)[0].dtype == dtype
    fs = sample_curves(q, g, np.random.default_rng(q), 2).tolist()
    assert all(_is_squarefree(Poly(q, f)) for f in fs)
    assert point_counts(fs, q, g).tolist() == _naive_counts(fs, q, g)


@pytest.mark.parametrize(
    "q, d",
    [(q, d) for q in (5, 7, 11, 13) for d in range(1, 7) if q**d <= 13**4],
)
def test_frobenius_orbits_partition_the_field(q, d):
    """The orbit sizes sum to q^d and each divides d; the orbits of size k
    are as many as the monic irreducibles of degree k over F_q."""
    from collections import Counter

    from cokernel_lab.curves import _orbit_tables

    # field d's slice of the table that joins every field the cases reach at q
    top = max(k for k in range(1, 7) if q**k <= 13**4)
    _, sizes, bounds, roots, offsets = _orbit_tables(q, top, 1)
    field = slice(bounds[d - 1], bounds[d])
    sizes = sizes[field]
    chi = roots[offsets[field][0] :][: q**d].astype(int) - 1
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


@pytest.mark.parametrize(
    "f, g",
    [
        ((0, 0, 0, 1), 1),  # the cusp y^2 = x^3
        ((0, 0, 0, 0, 0, 1), 2),  # x^5 is not squarefree
        ((1, 1, 0, 1), 2),  # a cubic is no model of genus 2
    ],
)
def test_curve_sample_refuses_a_singular_or_mis_sized_model(f, g):
    """f must be squarefree of degree 2g+1 mod q; otherwise no Frobenius
    polynomial is returned, and the refusal names f, q and g."""
    with pytest.raises(ValueError, match=rf"f = \({', '.join(map(str, f))}\) .* F_5 at g = {g}"):
        curve_sample_from_f(f, 5, g)


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
    """A count vector with a non-integer e_k raises, alone and among the
    genuine count vectors of a chunk, whose whole pass it fails."""
    from cokernel_lab.curves import char_polys_from_counts

    with pytest.raises(ArithmeticError):
        char_poly_from_counts([7, 8], 5, 2)
    counts = point_counts(all_squarefree_monic(5, 5)[:3], 5, 2).tolist()
    char_polys_from_counts(counts, 5, 2)
    with pytest.raises(ArithmeticError, match="non-integer Newton output"):
        char_polys_from_counts(counts[:2] + [[7, 8]] + counts[2:], 5, 2)


def _python_newton(counts, q, g):
    """The Python-int oracle for the int64 Newton pass: power sums, Newton's
    identities with an exact division, and the functional equation, one row
    at a time; None where some e_k is not an integer."""
    p = [0] + [q**i + 1 - counts[i - 1] for i in range(1, g + 1)]
    e = [1]
    for k in range(1, g + 1):
        ek, rem = divmod(sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1)), k)
        if rem:
            return None
        e.append(ek)
    a = [(-1) ** i * e[i] for i in range(g + 1)]
    full = a + [q ** (g - i) * a[i] for i in range(g - 1, -1, -1)]
    return tuple(full[2 * g - j] for j in range(2 * g + 1))


def _weil_counts(q, g, traces):
    """N_1..N_g of the q-Weil polynomial prod (X^2 - t X + q) over the
    traces t, |t| <= 2 sqrt(q), and that polynomial low degree first: its
    2g roots have modulus sqrt(q), so the counts meet the Hasse-Weil bound."""
    poly = [1]
    for t in traces:
        factor = [q, -t, 1]
        poly = [
            sum(poly[i] * factor[j - i] for i in range(len(poly)) if 0 <= j - i < 3)
            for j in range(len(poly) + 2)
        ]
    # e_k = (-1)^k times the coefficient of X^(2g-k); power sums by Newton
    e = [(-1) ** k * poly[2 * g - k] for k in range(g + 1)]
    sums = [0]
    for k in range(1, g + 1):
        sums.append(
            (-1) ** (k - 1) * k * e[k]
            + sum((-1) ** (k - 1 + i) * e[k - i] * sums[i] for i in range(1, k))
        )
    return [q**i + 1 - sums[i] for i in range(1, g + 1)], tuple(poly)


@pytest.mark.parametrize("q", [3, 5, 7, 13, 28559])
def test_batched_newton_against_python_newton(q):
    """char_polys_from_counts equals the Python-int Newton on random counts
    across the Hasse-Weil range, at the largest g with q^g <= MAX_RING_SIZE:
    row by row on uniform counts, most of which have a non-integer e_k and
    raise, and as one chunk on the counts of random q-Weil polynomials,
    which it returns."""
    import random
    from math import isqrt

    from cokernel_lab.chainring import MAX_RING_SIZE
    from cokernel_lab.curves import char_polys_from_counts

    g = max(g for g in range(1, 20) if q**g <= MAX_RING_SIZE)
    rng = random.Random(q)
    for _ in range(60):
        reach = [isqrt(4 * g * g * q**i) for i in range(1, g + 1)]
        counts = [q**i + 1 + rng.randint(-r, r) for i, r in enumerate(reach, 1)]
        want = _python_newton(counts, q, g)
        if want is None:
            with pytest.raises(ArithmeticError):
                char_polys_from_counts([counts], q, g)
        else:
            assert tuple(char_polys_from_counts([counts], q, g)[0].tolist()) == want
    t = isqrt(4 * q)
    rows, polys = zip(*(_weil_counts(q, g, [rng.randint(-t, t) for _ in range(g)]) for _ in range(200)))
    got = [tuple(row) for row in char_polys_from_counts(rows, q, g).tolist()]
    assert got == [_python_newton(row, q, g) for row in rows] == list(polys)


def test_newton_refuses_inputs_past_its_int64_bound():
    """Counts past the Hasse-Weil bound, and a (q, g) whose Newton bound
    reaches 2^63, are refused by name, never wrapped."""
    # |6 - 100| > 2 sqrt(5), and at q = 5, g = 2: |26 - 0| > 4 * 5
    for counts, q, g in (([100], 5, 1), ([6, 0], 5, 2), ([2**62, 0], 5, 2)):
        with pytest.raises(ValueError, match="Hasse-Weil bound"):
            char_poly_from_counts(counts, q, g)
    # g C(3g-1, g) q^g: about 4.9 * 10^19 at (3, 15), 2.4 * 10^18 at
    # (3, 14), and 2^63 at (2^62, 1)
    for q, g in ((3, 15), (3, 63), (2**62, 1)):
        with pytest.raises(ValueError, match="not below 2\\^63"):
            char_poly_from_counts([q + 1] * g, q, g)
    assert char_poly_from_counts([3**i + 1 for i in range(1, 15)], 3, 14)[0] == 3**14
    for counts in ([6], [6, 26, 126]):
        with pytest.raises(ValueError, match="not rows of N_1..N_2"):
            char_poly_from_counts(counts, 5, 2)


def _monic_irreducibles_by_roots(l, degree):
    """The monic P of degree 1 or 2 over F_l without a root in F_l past
    degree 1: the irreducibles of those degrees."""
    out = []
    for code in range(l**degree):
        p = Poly(l, [code // l**i % l for i in range(degree)] + [1])
        if degree == 1 or all(p(x) for x in range(l)):
            out.append(p)
    return out


def test_taylor_multiplicities_every_small_polynomial():
    """The first nonzero Taylor coefficient at a root of P gives the
    multiplicity of P that long division finds, for every monic F of degree
    at most 6 over F_3 and every monic irreducible P of degree 1 and 2."""
    import numpy as np

    from cokernel_lab.algebra import factor_multiplicity
    from cokernel_lab.curves import _multiplicities

    l, g = 3, 3
    fs = [
        [code // l**i % l for i in range(degree)] + [1]
        for degree in range(2 * g + 1)
        for code in range(l**degree)
    ]
    rows = np.array([f + [0] * (2 * g + 1 - len(f)) for f in fs])
    irreducibles = _monic_irreducibles_by_roots(l, 1) + _monic_irreducibles_by_roots(l, 2)
    assert len(fs) == 1093 and len(irreducibles) == 6
    for p in irreducibles:
        want = [factor_multiplicity(Poly(l, f), p) for f in fs]
        assert _multiplicities(rows, p, g).tolist() == want, p


@pytest.mark.parametrize("l", [5, 7, 2**31 - 1, 2**32 + 15])
def test_taylor_multiplicities_of_seeded_powers(l):
    """F = P^m G of degree 8, G random monic, against long division, for two
    random irreducible P of each degree 1 to 3 and every m up to 8 / deg P,
    so that each multiplicity up to that bound occurs.  At l = 2^31 - 1 the
    table's products pass int64, and it holds Python ints; at l = 2^32 + 15
    the powers of Y it is built from are Python ints too."""
    import random

    import numpy as np

    from cokernel_lab.algebra import factor_multiplicity, is_irreducible
    from cokernel_lab.curves import _multiplicities, _taylor_table

    g = 4
    rng = random.Random(l)

    def monic(degree):
        return Poly(l, [rng.randrange(l) for _ in range(degree)] + [1])

    for degree in (1, 2, 3):
        chosen = []
        while len(chosen) < 2:
            p = monic(degree)
            if is_irreducible(p) and p not in chosen:
                chosen.append(p)
        for p in chosen:
            fs = []
            for m in range(8 // degree + 1):
                for _ in range(4):
                    f = monic(8 - m * degree)
                    for _ in range(m):
                        f = f * p
                    fs.append(f)
            want = [factor_multiplicity(f, p) for f in fs]
            assert set(want) == set(range(8 // degree + 1))
            rows = np.array([list(f.coeffs) for f in fs], dtype=np.int64)
            assert _multiplicities(rows, p, g).tolist() == want, p
            assert (_taylor_table(p, g).dtype == object) is (l > 2**30)


def test_worker_pieces_joined_into_chunks(monkeypatch):
    """Consecutive pieces of the worker streams are counted and reduced in
    one chunk until the next would pass CURVE_CHUNK curves, with every
    curve, P_C and multiplicity of the unjoined run, in stream order."""
    from cokernel_lab import curves

    l, q, g = 3, 5, 2
    conds = [(Poly(l, (2, 1)), 1), (Poly(l, (0, 1)), 0)]
    sizes = []
    newton = curves.char_polys_from_counts

    def counting(counts, q, g):
        sizes.append(len(counts))
        return newton(counts, q, g)

    def seen(trials, workers):
        out = []
        divisibility_stats(
            l, conds, q, g, trials, 9, workers,
            on_sample=lambda s, ms: out.append((s.f, s.char_poly, ms)),
        )
        return out

    monkeypatch.setattr(curves, "char_polys_from_counts", counting)
    # at 4, every one of the three streams of 4 draws is a chunk of its own
    monkeypatch.setattr(curves, "CURVE_CHUNK", 4)
    apart = seen(12, 3)
    assert sizes == [4, 4, 4]
    monkeypatch.setattr(curves, "CURVE_CHUNK", 10)
    sizes.clear()
    assert seen(12, 3) == apart
    assert sizes == [8, 4]
    monkeypatch.setattr(curves, "CURVE_CHUNK", 1024)
    sizes.clear()
    assert seen(12, 3) == apart
    assert sizes == [12]


def _one_draw_curve(q, g, rng, attempts=None):
    """The one-draw route: one draw of 2g+1 coefficients per attempt, kept
    when gcd(f, f') = 1 over Poly; attempts, a list, gets one item per draw."""
    while True:
        f = tuple(int(x) for x in rng.integers(0, q, 2 * g + 1)) + (1,)
        if attempts is not None:
            attempts.append(f)
        if _is_squarefree(Poly(q, f)):
            return f


@pytest.mark.parametrize("g, q", [(1, 3), (1, 5), (2, 5), (2, 7), (3, 7), (3, 11), (4, 13)])
def test_sample_curves_match_one_draw_route(g, q):
    """Each worker stream's block draws give the curves of the one-draw
    route, in order, and leave the generator where that route leaves it:
    numpy must draw a (k, n) block as k draws of n, buffered 32-bit half
    included.  The first round of a stream wanting count curves draws
    count + count // (q - 1) rows; the streams cover a first round that
    runs out and needs a second, one that leaves rows unused and rewinds,
    and, at q = 13 with fewer than 12 curves wanted, one with no overdraw."""
    from cokernel_lab.curves import sample_curves
    from cokernel_lab.montecarlo import worker_streams

    seen = set()
    for seed in range(50):
        for trials, workers in ((30, 1), (30, 2), (7, 2)):
            blocks = worker_streams("cokernel-lab-curves", seed, trials, workers)
            singles = worker_streams("cokernel-lab-curves", seed, trials, workers)
            for (rng, count), (oracle_rng, _) in zip(blocks, singles):
                got = sample_curves(q, g, rng, count).tolist()
                attempts = []
                want = [list(_one_draw_curve(q, g, oracle_rng, attempts)) for _ in range(count)]
                assert got == want, (seed, trials, workers)
                assert rng.bit_generator.state == oracle_rng.bit_generator.state
                first = count + count // (q - 1)
                seen.add("second round" if len(attempts) > first else "rows unused"
                         if len(attempts) < first else "first round exact")
                if first == count:
                    seen.add("no overdraw")
    assert {"second round", "rows unused"} <= seen
    if q == 13:
        assert "no overdraw" in seen


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
        assert _squarefree_mask([f], q) == [want], f


def test_sample_curve_squarefree_and_monic():
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(50):
        f = sample_curve(5, 2, rng)
        assert len(f) == 6
        assert f[-1] == 1


def test_reducible_condition_refused():
    """X^2 + X + 1 = (X + 2)^2 over F_3 is refused by both statistics, before
    any curve is drawn, as divisor_density refuses it."""
    square = (Poly(3, (1, 1, 1)), 0)
    with pytest.raises(ValueError, match="is reducible over F_3"):
        independence_stats(3, square, (Poly(3, (2, 1)), 0), 5, 2, 200, 1)
    with pytest.raises(ValueError, match="is reducible over F_3"):
        divisibility_stats(3, [square], 5, 2, 200, 1)
    with pytest.raises(ValueError, match="MAX_POLY_DEGREE"):
        validate_conditions(3, 5, [(Poly(3, (2,) + (0,) * 39 + (1,)), 0)])


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
    """The census sieve, the orbit kernel's squarefree mask and the per-code
    Poly gcd(f, f') test accept the same monic f, in the same order, also
    with the digit block shrunk so that the sieve and the output span many
    blocks.  The three share no code: the sieve multiplies h^2 k and
    divides nothing, the mask evaluates f and f' on Frobenius orbits, and
    poly_gcd runs Euclid; the closed count, q^n - q^(n-1) for n >= 2,
    checks the oracle."""
    from cokernel_lab import curves

    for q in (3, 5, 7, 11, 13):
        for n in range(1, 10):
            if q**n > 2 * 10**4:
                break
            codes = [Poly.from_code(q, code) for code in range(q**n, 2 * q**n)]
            oracle = [f.coeffs for f in codes if _is_squarefree(f)]
            assert len(oracle) == (q if n == 1 else q**n - q ** (n - 1))
            # the mask, n a multiple of q included
            mask = _squarefree_mask([f.coeffs for f in codes], q)
            assert [f.coeffs for f, free in zip(codes, mask) if free] == oracle, (q, n)
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


CENSUS_LAW_CASES = [(1, 5, 9), (2, 5, 81), (2, 7, 138), (3, 5, 1283)]


@pytest.mark.parametrize("g, q, distinct", CENSUS_LAW_CASES)
def test_census_law_tally_equals_streamed_tally(g, q, distinct):
    """The memoized law of P_C holds each distinct P_C of the census once,
    weighted by its number of curves, q^(2g+1) - q^(2g) in all; its tally
    of every one- and two-condition request at l = 3 and 5 equals, key for
    key, the tally of the census streamed to on_sample."""
    from itertools import combinations

    from cokernel_lab.curves import _census_law, _tally

    char_polys, weights = _census_law(q, g)
    assert char_polys.shape == (distinct, 2 * g + 1)
    assert len({tuple(row) for row in char_polys.tolist()}) == distinct
    assert int(weights.sum()) == q ** (2 * g + 1) - q ** (2 * g)
    assert weights.min() >= 1
    # X - 1, X and an irreducible quadratic over each F_l
    polys = {3: [(2, 1), (0, 1), (1, 0, 1)], 5: [(4, 1), (0, 1), (2, 0, 1)]}
    for l, coeffs in polys.items():
        if q % l == 0:
            continue
        ps = [Poly(l, c) for c in coeffs]
        for request in [[p] for p in ps] + [list(pair) for pair in combinations(ps, 2)]:
            law = _tally(l, request, q, g, 0, 0, 1, True)
            streamed = _tally(l, request, q, g, 0, 0, 1, True, on_sample=lambda *_: None)
            assert law == streamed, (l, request)


def test_census_law_arrays_are_read_only():
    from cokernel_lab.curves import _census_law

    for array in _census_law(5, 2):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_census_law_refuses_counts_outside_the_hasse_weil_window(monkeypatch):
    """A count row past the Hasse-Weil window could share its mixed-radix
    key with a row inside it: (N_1 + r_1, N_2 - 1) has the key of
    (N_1, N_2) for the width r_1 of the window of N_1.  The law refuses such
    a row, and one just below or above the window, with the error of
    char_polys_from_counts instead of counting it under some key."""
    import numpy as np

    from cokernel_lab import curves

    q, g = 5, 2
    _, least, most, _ = curves._newton_constants(q, g)
    (lo_1, lo_2), (hi_1, hi_2) = least.tolist(), most.tolist()
    width = hi_1 - lo_1 + 1
    counts = curves.point_counts

    def key(n_1, n_2):
        return n_1 - lo_1 + width * (n_2 - lo_2)

    breaks = [
        lambda n_1, n_2: (n_1 + width, n_2 - 1),
        lambda n_1, n_2: (lo_1 - 1, n_2),
        lambda n_1, n_2: (n_1, hi_2 + 1),
    ]
    seen = []
    for broken in breaks:

        def patched(fs, q, g):
            out = counts(fs, q, g)
            row = np.flatnonzero(out[:, 1] > lo_2)[0]
            seen.append(tuple(out[row].tolist()))
            out[row] = broken(*seen[-1])
            return out

        curves._census_law.cache_clear()
        monkeypatch.setattr(curves, "point_counts", patched)
        with pytest.raises(ValueError, match="break the Hasse-Weil bound"):
            curves._census_law(q, g)
        monkeypatch.undo()
    assert key(*breaks[0](*seen[0])) == key(*seen[0])
    assert curves._census_law(q, g)[1].sum() == q**5 - q**4


def test_census_law_keys_fit_in_int64():
    """The mixed-radix key of a count row ranges over the product of the
    Hasse-Weil window widths, below 2^63 for every (g, q) whose census
    CENSUS_CAP admits; the widest is (6, 3), at about 2^44.2."""
    from math import log2, prod

    from cokernel_lab.algebra import is_prime
    from cokernel_lab.curves import _newton_constants

    ranges = {}
    for g in range(1, CENSUS_CAP.bit_length()):
        for q in range(3, CENSUS_CAP, 2):
            if q ** (2 * g + 1) > CENSUS_CAP:
                break
            if is_prime(q):
                _, least, most, _ = _newton_constants(q, g)
                ranges[g, q] = prod((most - least + 1).tolist())
    assert (1, 211) in ranges and (6, 3) in ranges and (7, 3) not in ranges
    widest = max(ranges, key=ranges.get)
    assert widest == (6, 3)
    assert ranges[widest] < 2**63
    assert 44 < log2(ranges[widest]) < 44.5


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
