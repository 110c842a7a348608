import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cokernel_lab import algebra, measure
from cokernel_lab.algebra import (
    MAX_POLY_DEGREE,
    MAX_TRIAL_DIVISOR,
    LocalRingSpec,
    Poly,
    RingSpec,
    factor_multiplicity,
    find_irreducible,
    is_irreducible,
    is_prime,
    poly_divmod,
    poly_gcd,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(2, 30):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


class _Watched(int):
    """An int that fails when divided by a number above MAX_TRIAL_DIVISOR."""

    def __mod__(self, d):
        if d > MAX_TRIAL_DIVISOR:
            raise AssertionError(f"divided by {d}, past MAX_TRIAL_DIVISOR")
        return int(self) % d


def test_trial_division_refuses_above_its_bound():
    """A number with no factor up to MAX_TRIAL_DIVISOR and above its square
    is refused by name before any division past the bound; below the
    square, or with small factors, the answer is exact."""
    assert MAX_TRIAL_DIVISOR == 2**20
    with pytest.raises(ValueError, match=r"trial division of 1000000000000000003 up to MAX_TRIAL_DIVISOR = 1048576 leaves"):
        is_prime(_Watched(10**18 + 3))
    # a small factor leaves the cofactor 2^61 - 1, itself above 2^40
    for n in (3 * (2**61 - 1), (2**20 + 7) ** 2):
        with pytest.raises(ValueError, match=rf"trial division of {n} up to MAX_TRIAL_DIVISOR"):
            algebra._prime_power(n)
    assert is_prime(2**31 - 1)
    assert algebra._prime_factors(2 * 3**5 * (2**31 - 1)) == [2, 3, 2**31 - 1]
    assert algebra._prime_power(3**96) == (3, 96)
    for Q in (0, 1, 6, -9):
        with pytest.raises(ValueError, match=rf"Q = {Q} is not a prime power"):
            algebra._prime_power(Q)


def test_poly_normalization_strips_leading_zeros():
    p = Poly(3, (1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert Poly(3, (0, 0)).is_zero()
    assert Poly(3, ()).degree == -1


def test_from_code_hand_values():
    assert Poly.from_code(3, 0).is_zero()
    assert Poly.from_code(3, 5).coeffs == (2, 1)
    # l^d + idx: the monic polynomial of degree d with lower digits idx
    assert Poly.from_code(5, 5**3 + 7).coeffs == (2, 1, 0, 1)


def test_poly_arithmetic_hand_values():
    l = 3
    a = Poly(l, (1, 1))
    b = Poly(l, (2, 1))
    assert (a * b).coeffs == (2, 0, 1)
    assert (a + b).coeffs == (0, 2)
    assert (a - b).coeffs == (2,)


def test_divmod_hand_value():
    l = 5
    a = Poly(l, (3, 0, 0, 1))
    b = Poly(l, (1, 1))
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(Poly(3, (1,)), Poly(3, ()))


@settings(max_examples=200)
@given(
    st.integers(0, 3 ** 6 - 1),
    st.integers(1, 5 ** 4 - 1),
    st.sampled_from([3, 5]),
)
def test_divmod_property(ac, bc, l):
    a = Poly.from_code(l, ac)
    b = Poly.from_code(l, bc % l ** 4)
    if b.is_zero():
        return
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_gcd_hand_values():
    l = 3
    f = Poly(l, (2, 0, 1))  # X^2 + 2 = (X-1)(X+1)
    g = Poly(l, (2, 1))  # X - 1
    assert poly_gcd(f, g) == g.monic()
    assert poly_gcd(f, Poly(l, (1, 1))).degree == 1


def _all_polys(l, deg):
    """Monic polynomials of degree deg."""
    for code in range(l ** deg, 2 * l ** deg):
        yield Poly.from_code(l, code)


def test_irreducibility_against_trial_division():
    """Exhaustive cross-check of the Rabin test for degrees 2..4."""
    for l in (3, 5):
        lower = {
            d: [p for p in _all_polys(l, d)] for d in range(1, 3)
        }
        for deg in (2, 3, 4):
            for p in _all_polys(l, deg):
                has_factor = any(
                    poly_divmod(p, q)[1].is_zero()
                    for d in range(1, deg // 2 + 1)
                    for q in lower.get(d, [])
                )
                if deg == 4:
                    has_factor = has_factor or any(
                        poly_divmod(p, q)[1].is_zero() for q in _all_polys(l, 2)
                    )
                assert is_irreducible(p) == (not has_factor), p
            if deg < 4:
                lower[deg] = list(_all_polys(l, deg))


def test_poly_gcd_against_common_divisors():
    """Over F_3 and F_5, the gcd of every two monic polynomials of degree
    <= 3 is their common monic divisor of largest degree. The divisors come
    from multiplying every two monic d and k once with Poly.__mul__, which
    shares no code with the long division behind poly_gcd."""
    for l in (3, 5):
        monic = [p for deg in range(4) for p in _all_polys(l, deg)]
        divisors = {p.coeffs: set() for p in monic}
        for d in monic:
            for k in monic:
                if d.degree + k.degree <= 3:
                    divisors[(d * k).coeffs].add(d.coeffs)
        for f in monic:
            for g in monic:
                common = divisors[f.coeffs] & divisors[g.coeffs]
                assert poly_gcd(f, g).coeffs == max(common, key=len), (f, g)


def test_irreducibility_of_binomials():
    """Rabin's test on every X^d + c, for odd primes l <= 37, 2 <= d <= 9
    and l^d <= 10^9, against the binomial criterion (Lidl-Niederreiter,
    Finite Fields, Thm. 3.75), which shares no code with the long division
    behind both Rabin's test and poly_divmod: for a != 0, X^d - a is
    irreducible over F_l iff every prime r | d divides l - 1 with
    a^((l-1)/r) != 1, and l = 1 mod 4 when 4 | d; X^d is reducible."""
    cases = 0
    for l in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        for d in range(2, 10):
            if l**d > 10**9:
                break
            primes = [r for r in (2, 3, 5, 7) if d % r == 0]
            for c in range(l):
                a = -c % l
                want = (
                    a != 0
                    and (d % 4 != 0 or l % 4 == 1)
                    and all((l - 1) % r == 0 and pow(a, (l - 1) // r, l) != 1 for r in primes)
                )
                p = Poly(l, (c,) + (0,) * (d - 1) + (1,))
                assert is_irreducible(p) is want, (l, d, c)
                cases += 1
    assert cases == 1067


def test_find_irreducible_properties():
    for l, d in [(3, 1), (3, 2), (3, 4), (5, 2), (7, 3)]:
        p = find_irreducible(l, d)
        assert p.degree == d
        assert p.is_monic()
        assert is_irreducible(p)


@settings(max_examples=200)
@given(
    st.sampled_from([3, 5]),
    st.integers(0, 4),
    st.integers(0, 3 ** 4 - 1),
)
def test_factor_multiplicity_roundtrip(l, m, code):
    p = find_irreducible(l, 2)
    u = Poly.from_code(l, code)
    if u.is_zero() or poly_divmod(u, p)[1].is_zero():
        return
    f = u
    for _ in range(m):
        f = f * p
    assert factor_multiplicity(f, p) == m


def test_degree_refused_above_its_bound(monkeypatch):
    """A p or a residue degree above MAX_POLY_DEGREE is refused by name
    before Rabin's test runs; MAX_POLY_DEGREE itself is allowed."""

    def tested(*args):
        raise AssertionError("Rabin's test ran before the refusal")

    assert MAX_POLY_DEGREE == 32
    monkeypatch.setattr(algebra, "is_irreducible", tested)
    long_p = Poly(3, (2, 1) + (0,) * 31 + (1,))
    with pytest.raises(
        ValueError, match=re.escape(f"p = {long_p} has degree 33, above MAX_POLY_DEGREE = 32")
    ):
        LocalRingSpec(3, long_p, 1)
    with pytest.raises(ValueError, match="F_3\\^96 of F_3 has degree 96, above MAX_POLY_DEGREE"):
        find_irreducible(3, 96)
    monkeypatch.setattr(algebra, "is_irreducible", lambda p: True)
    assert LocalRingSpec(3, Poly(3, (2, 1) + (0,) * 30 + (1,)), 1).residue_degree == 32


def test_find_irreducible_refuses_at_its_candidate_cap(monkeypatch):
    """A Rabin scan that meets no irreducible stops after
    MAX_IRREDUCIBLE_CANDIDATES tests past the binomials and names the cap;
    a degree whose X^d + c are all reducible still finds the first
    irreducible past them below it."""
    tested = []

    def never(p):
        tested.append(p)
        return False

    assert find_irreducible(101, 3) == Poly(101, (1, 1, 0, 1))
    monkeypatch.setattr(algebra, "is_irreducible", never)
    # 3 does not divide 5 - 1, so every X^3 + c is reducible
    with pytest.raises(
        ValueError,
        match="no irreducible of degree 3 over F_5 among the binomials X\\^3 \\+ c "
        "and the next MAX_IRREDUCIBLE_CANDIDATES = 1024 monic polynomials",
    ):
        algebra.find_irreducible(5, 3)
    assert len(tested) == algebra.MAX_IRREDUCIBLE_CANDIDATES
    assert tested[0] == Poly(5, (0, 1, 0, 1))


def test_find_irreducible_matches_an_uncapped_rabin_scan():
    """Deciding the binomials in closed form keeps every chosen p: for each
    odd prime l <= 61 and 2 <= d <= 5 with l^d <= 10^7, find_irreducible
    gives the first monic polynomial of degree d, by coefficient order,
    that Rabin's test passes."""
    cases = 0
    for l in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        for d in range(2, 6):
            if l**d > 10**7:
                break
            code = l**d
            while not is_irreducible(Poly.from_code(l, code)):
                code += 1
            assert find_irreducible(l, d) == Poly.from_code(l, code), (l, d)
            cases += 1
    assert cases == 57


def test_local_ring_spec_derived_fields():
    spec = LocalRingSpec(3, find_irreducible(3, 2), 2)
    assert spec.residue_degree == 2
    assert spec.Q == 9
    assert spec.size == 81


def test_local_ring_spec_validation():
    with pytest.raises(ValueError):
        LocalRingSpec(3, Poly(3, (2, 0, 1)), 1)  # X^2+2 reducible
    with pytest.raises(ValueError):
        LocalRingSpec(4, Poly(3, (1, 1)), 1)


@pytest.mark.parametrize(
    "coeffs",
    [(), (1,), (2, 2), (1, 1, 1), (2, 1) + (0,) * 31 + (1,)],
    ids=["zero", "constant", "not-monic", "reducible", "degree-33"],
)
def test_local_factor_and_condition_share_one_polynomial_check(coeffs):
    """A p that is no monic irreducible of degree 1 to MAX_POLY_DEGREE over
    F_3 is refused as the base of a local factor and as a condition in the
    same words, after each caller's own prefix."""
    p = Poly(3, coeffs)
    with pytest.raises(ValueError) as local:
        LocalRingSpec(3, p, 1)
    with pytest.raises(ValueError) as condition:
        measure._validate_conditions(3, [(p, 0)])
    assert str(local.value).startswith(f"p = {p!r} ")
    assert str(condition.value).startswith(f"condition {p!r} ")
    assert str(local.value).removeprefix("p = ") == str(condition.value).removeprefix("condition ")


def test_ring_spec_coprime_validation():
    l = 3
    p1 = Poly(l, (2, 1))
    with pytest.raises(ValueError):
        RingSpec((LocalRingSpec(l, p1, 1), LocalRingSpec(l, p1, 2)))
