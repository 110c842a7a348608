"""The finite-field layer against Poly arithmetic: the digits, structure
constants and Frobenius map of chainring.field_products, and the ChainRing
code tables and the curves' quadratic character built from them.  Poly
arithmetic shares no code with the X-power digits they are all read off."""

import random

import numpy as np
import pytest

from cokernel_lab.algebra import Poly, find_irreducible, poly_mod
from cokernel_lab.chainring import MAX_RING_SIZE, ChainRing, field_products
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
        find_irreducible(5, 1),  # F_5, a ChainRing residue field
        find_irreducible(3, 2),  # F_9
        find_irreducible(5, 2),  # F_25
        find_irreducible(3, 3),  # F_27, a cubic extension
        find_irreducible(13, 2),  # F_{13^2}, a point-counting field
    ],
)
def test_tables_match_poly_arithmetic(modulus):
    l, d = modulus.l, modulus.degree
    ring = ChainRing(l, d, 1)
    assert ring.Q == l**d
    elems = [Poly.from_code(l, c) for c in range(ring.Q)]
    digits, structure, frobenius = field_products(l, d)
    for c, x in enumerate(elems):
        assert tuple(digits[c]) == x.coeffs + (0,) * (d - len(x.coeffs))
        power = Poly.one(l)
        for _ in range(l):
            power = poly_mod(power * x, modulus)
        assert elems[frobenius[c]] == power
    pairs = _pairs(ring.Q, random.Random(ring.Q))
    a, b = np.array(pairs).T
    for x, y, code in zip(a, b, _times(digits, structure, a, b, l)):
        assert elems[code] == poly_mod(elems[x] * elems[y], modulus)
    for a, b in pairs:
        assert elems[ring.field_mul[a][b]] == poly_mod(elems[a] * elems[b], modulus)
        assert elems[ring.field_sub[a][b]] == poly_mod(elems[a] - elems[b], modulus)
    for a, x in enumerate(elems):
        assert elems[ring.field_neg[a]] == poly_mod(-x, modulus)
    # the tables do not shadow the chain-ring operations
    assert ring.mul((2,), (3,)) == (ring.field_mul[2][3],)


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
