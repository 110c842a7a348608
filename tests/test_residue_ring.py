"""The finite-ring layer against Poly arithmetic: the digits, structure
constants and Frobenius map of chainring.field_products and the curves'
quadratic character built from them, and the multiplication tensor
LocalTables.times that the cokernel classifier and the submodule oracles
compute with.  Poly arithmetic shares no code with the X-power digits they
are all read off."""

import random

import numpy as np
import pytest

from cokernel_lab.algebra import LocalRingSpec, Poly, find_irreducible, poly_mod
from cokernel_lab.chainring import MAX_RING_SIZE, LocalTables, field_products
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
            power = poly_mod(power * x, modulus)
        assert elems[frobenius[c]] == power
    pairs = _pairs(Q, random.Random(Q))
    a, b = np.array(pairs).T
    for x, y, code in zip(a, b, _times(digits, structure, a, b, l)):
        assert elems[code] == poly_mod(elems[x] * elems[y], modulus)


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
    for x, y in _pairs(l**m, random.Random(l**m)):
        dx, dy = x // place % l, y // place % l
        product = np.einsum("a,b,abk->k", dx, dy, times) % l
        want = poly_mod(
            _from_chain_digits(dx, spec.p, d) * _from_chain_digits(dy, spec.p, d), spec.modulus
        )
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
        assert elems[got[x]] == poly_mod(elems[codes[x]] * elems[x], modulus)
    squares = {poly_mod(x * x, modulus).coeffs for x in elems[1:]}
    _, _, chi = _orbit_tables(13, 2, 1)
    for c, x in enumerate(elems):
        want = 0 if c == 0 else (1 if x.coeffs in squares else -1)
        assert chi[c] == want


def test_size_cap():
    assert MAX_RING_SIZE >= 13**4
    with pytest.raises(ValueError, match="above MAX_RING_SIZE"):
        field_products(13, 5)
