"""The finite-ring layer against Poly arithmetic: the rows of the X-power
table at the edge of their integer type, the digits, structure constants
and Frobenius map of chainring.field_products and the curves'
quadratic character built from them, and the multiplication tensor
LocalTables.times that the cokernel classifier and the submodule oracles
compute with.  Poly arithmetic shares no code with the X-power digits they
are all read off."""

import random

import numpy as np
import pytest

from cokernel_lab.algebra import (
    LocalRingSpec,
    Poly,
    find_irreducible,
    is_irreducible,
    poly_divmod,
)
from cokernel_lab.chainring import MAX_RING_SIZE, LocalTables, _x_power_digits, field_products
from cokernel_lab.curves import _orbit_tables


def _pairs(N: int, rng):
    """Every pair for small fields, 2000 random pairs otherwise."""
    if N <= 27:
        return [(a, b) for a in range(N) for b in range(N)]
    return [(rng.randrange(N), rng.randrange(N)) for _ in range(2000)]


def _times(digits, structure, a, b, l):
    """The codes of the products of the codes a and b, through the
    structure constants."""
    d = digits.shape[1]
    pairs = (digits[a][:, :, None] * digits[b][:, None]).reshape(len(a), d * d)
    return pairs @ structure % l @ l ** np.arange(d)


@pytest.mark.parametrize(
    "modulus",
    [
        find_irreducible(5, 1),  # F_5
        find_irreducible(3, 2),  # F_9
        find_irreducible(5, 2),  # F_25
        find_irreducible(3, 3),  # F_27, a cubic extension
        find_irreducible(13, 2),  # F_{13^2}, a point-counting field
    ],
)
def test_tables_match_poly_arithmetic(modulus):
    l, d = modulus.l, modulus.degree
    Q = l**d
    elems = [Poly.from_code(l, c) for c in range(Q)]
    digits, structure, frobenius = field_products(l, d)
    for c, x in enumerate(elems):
        assert tuple(digits[c]) == x.coeffs + (0,) * (d - len(x.coeffs))
        power = Poly.one(l)
        for _ in range(l):
            power = poly_divmod(power * x, modulus)[1]
        assert elems[frobenius[c]] == power
    pairs = _pairs(Q, random.Random(Q))
    a, b = np.array(pairs).T
    for x, y, code in zip(a, b, _times(digits, structure, a, b, l)):
        assert elems[code] == poly_divmod(elems[x] * elems[y], modulus)[1]


def _from_chain_digits(digits, p: Poly, d: int) -> Poly:
    """sum_i c_i(X) p^i, c_i(X) the polynomial of the digits of block i."""
    out, power = Poly.zero(p.l), Poly.one(p.l)
    for i in range(0, len(digits), d):
        out = out + Poly(p.l, tuple(int(x) for x in digits[i : i + d])) * power
        power = power * p
    return out


@pytest.mark.parametrize(
    "l, p, e",
    [
        (3, (0, 1), 3),  # F_3[X]/(X^3)
        (5, (2, 1), 2),  # F_5[X]/((X+2)^2), p not X
        (5, (2, 4, 1), 1),  # F_25 = F_5[X]/(X^2+4X+2), a field
        (3, (1, 0, 1), 2),  # F_3[X]/((X^2+1)^2)
        (3, (2, 1, 1), 3),  # F_3[X]/((X^2+X+2)^3): X^a X^b carries into the next p-block
    ],
)
def test_local_tables_times_match_poly_multiplication(l, p, e):
    """The product of two elements through LocalTables.times, read back from
    chain digits, is their Poly product mod p^e: every pair when the ring
    has at most 27 elements, 2000 random pairs otherwise."""
    spec = LocalRingSpec(l, Poly(l, p), e)
    ring = LocalTables(spec)
    m, d = ring.m, ring.d
    times = ring.times.reshape(m, m, m)
    place = l ** np.arange(m)
    modulus = Poly.one(l)
    for _ in range(e):
        modulus = modulus * spec.p
    for x, y in _pairs(l**m, random.Random(l**m)):
        dx, dy = x // place % l, y // place % l
        product = np.einsum("a,b,abk->k", dx, dy, times) % l
        want = poly_divmod(
            _from_chain_digits(dx, spec.p, d) * _from_chain_digits(dy, spec.p, d), modulus
        )[1]
        assert _from_chain_digits(product, spec.p, d) == want, (x, y)


def test_pointwise_and_character_on_extension_field():
    """Every element times a random one through the structure constants of
    field_products, and the quadratic character of the point-counting orbit
    tables, on F_{13^2}."""
    modulus = find_irreducible(13, 2)
    digits, structure, _ = field_products(13, 2)
    N = len(digits)
    elems = [Poly.from_code(13, c) for c in range(N)]
    codes = np.random.default_rng(5).integers(0, N, N)
    got = _times(digits, structure, codes, np.arange(N), 13)
    for x in range(N):
        assert elems[got[x]] == poly_divmod(elems[codes[x]] * elems[x], modulus)[1]
    squares = {poly_divmod(x * x, modulus)[1].coeffs for x in elems[1:]}
    # F_169's slice of the table joining F_13, F_169 and F_2197
    _, _, bounds, roots, offsets = _orbit_tables(13, 3, 1)
    chi = roots[offsets[bounds[1]] :][:N].astype(int) - 1
    for c, x in enumerate(elems):
        want = 0 if c == 0 else (1 if x.coeffs in squares else -1)
        assert chi[c] == want


def test_size_cap():
    assert MAX_RING_SIZE >= 13**4
    with pytest.raises(ValueError, match="above MAX_RING_SIZE"):
        field_products(13, 5)


@pytest.mark.parametrize(
    "l, dtype", [(28559, np.int64), (2**31 - 1, np.int64), (2**32 + 15, object)]
)
def test_x_power_rows_exact_at_their_integer_type_edge(l, dtype):
    """The rows of the X-power table against X^k = X X^(k-1) mod p in Poly
    arithmetic, for 20 random monic irreducible cubics p with coefficients
    in [l/2, l), where the products of two digits are largest: int64 rows
    while (l-1)^2 < 2^63, Python ints past it, as at l = 2^32 + 15."""
    rng = random.Random(l)
    x = Poly(l, (0, 1))
    moduli = []
    while len(moduli) < 20:
        p = Poly(l, [rng.randrange(l // 2, l) for _ in range(3)] + [1])
        if is_irreducible(p):
            moduli.append(p)
    for p in moduli:
        rows = _x_power_digits(p, 1, 12)
        assert rows.dtype == dtype
        power = Poly.one(l)
        for k, row in enumerate(rows.tolist()):
            assert row == list(power.coeffs) + [0] * (3 - len(power.coeffs)), (p, k)
            power = poly_divmod(power * x, p)[1]
