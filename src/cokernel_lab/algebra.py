"""Exact arithmetic on dense polynomials over prime fields F_l, and the
quotient rings F_l[X]/(p^e) together with their CRT products.

Primality and prime powers are read off one trial-division routine,
_prime_factors; it, the irreducibility test and the scan for an
irreducible refuse, by named bounds, inputs whose work would be unbounded
before that work starts.

Polynomials are stored as coefficient tuples, low degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  All coefficients
are canonical residues in [0, l).  One long division on such sequences,
_divmod, with Euclid's gcd on top of it, serves Poly division and gcd,
multiplicities, Rabin's test and the oracle of the curves' squarefree test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "MAX_TRIAL_DIVISOR",
    "MAX_POLY_DEGREE",
    "MAX_IRREDUCIBLE_CANDIDATES",
    "Poly",
    "LocalRingSpec",
    "RingSpec",
    "poly_divmod",
    "poly_gcd",
    "is_irreducible",
    "factor_multiplicity",
    "find_irreducible",
]


# _prime_factors divides by every integer up to this bound and refuses a
# number that has no factor up to it and is above its square: about 10^6
# divisions, a fraction of a second.  Every l, q and Q of the tests, verify
# and perfbench is far below it.
MAX_TRIAL_DIVISOR = 2**20
# The largest degree of an irreducible p that LocalRingSpec tests, that
# find_irreducible scans for, or that cli.parse_poly_text reads: Rabin's
# test costs about degree^3 log l, and over F_3 the scan of degree 32 takes
# 0.2 s.  The tests, verify and perfbench use degrees up to 4.
MAX_POLY_DEGREE = 32
# The most candidates past the binomials X^d + c that find_irreducible runs
# Rabin's test on before it refuses.  The binomials are decided in closed
# form, and the scan runs only when all of them are reducible (d = 3 with
# l = 2 mod 3, d = 4 with l = 3 mod 4, ...); past them it meets an
# irreducible within about d candidates.  At (1000003, 4) each Rabin test
# costs about 0.3 ms.
MAX_IRREDUCIBLE_CANDIDATES = 1024


def check_degree(what: str, d: int) -> None:
    """Refuses a degree d above MAX_POLY_DEGREE, naming what has it."""
    if d > MAX_POLY_DEGREE:
        raise ValueError(f"{what} has degree {d}, above MAX_POLY_DEGREE = {MAX_POLY_DEGREE}")


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending; [] for n < 2."""
    out = []
    m, d = n, 2
    while d * d <= m:
        if d > MAX_TRIAL_DIVISOR:
            raise ValueError(
                f"trial division of {n} up to MAX_TRIAL_DIVISOR = {MAX_TRIAL_DIVISOR} "
                "leaves a cofactor above its square"
            )
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def check_modulus(l: int) -> None:
    if l < 3 or not is_prime(l):
        raise ValueError(f"modulus l = {l} must be an odd prime")


def check_exponent(e: int) -> None:
    if e < 1:
        raise ValueError(f"exponent e = {e} must be >= 1")


def _prime_power(Q: int) -> tuple[int, int]:
    """The prime l and the exponent d >= 1 with Q = l^d."""
    primes = _prime_factors(Q)
    if len(primes) != 1:
        raise ValueError(f"Q = {Q} is not a prime power")
    l, d = primes[0], 1
    while l**d < Q:
        d += 1
    return l, d


def _normalize(coeffs, l: int) -> tuple[int, ...]:
    cs = [c % l for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class Poly:
    """Dense polynomial over F_l, coefficients low degree first."""

    l: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.l < 2:
            raise ValueError(f"polynomial modulus l = {self.l} must be at least 2")
        object.__setattr__(self, "coeffs", _normalize(self.coeffs, self.l))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @classmethod
    def zero(cls, l: int) -> "Poly":
        return cls(l, ())

    @classmethod
    def one(cls, l: int) -> "Poly":
        return cls(l, (1,))

    @classmethod
    def x(cls, l: int) -> "Poly":
        return cls(l, (0, 1))

    @classmethod
    def from_code(cls, l: int, code: int) -> "Poly":
        """The polynomial whose coefficients are the base-l digits of code,
        low degree first; l^d + i codes the monic one of degree d with lower
        digits i."""
        digits = []
        while code:
            code, digit = divmod(code, l)
            digits.append(digit)
        return cls(l, digits)

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.l
        return Poly(self.l, out)

    def __neg__(self) -> "Poly":
        return Poly(self.l, tuple(-c % self.l for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.l)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(self.l, out)

    def scale(self, c: int) -> "Poly":
        return Poly(self.l, tuple(a * c for a in self.coeffs))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(pow(self.leading(), -1, self.l))

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.l
        return acc

    def _check(self, other: "Poly") -> None:
        if self.l != other.l:
            raise ValueError("mixed moduli")

    def __repr__(self) -> str:
        return f"Poly(l={self.l}, coeffs={list(self.coeffs)})"


def _divmod(a, b, l: int) -> tuple[list[int], tuple[int, ...]]:
    """Quotient and remainder of a by b over F_l, for normalized sequences
    of residues low degree first, b nonzero: the quotient as a list and the
    remainder as a tuple, both normalized."""
    n = len(b) - 1
    inv = pow(b[-1], -1, l)
    low = b[:n]
    rem = list(a)
    quot = [0] * max(0, len(rem) - n)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + n] * inv % l
        if c:
            quot[i] = c
            # reduced at once: residues below 257 are CPython's shared small
            # ints, so no step allocates
            for j, bj in enumerate(low, i):
                rem[j] = (rem[j] - c * bj) % l
    del rem[n:]
    while rem and not rem[-1]:
        rem.pop()
    return quot, tuple(rem)


def _gcd(a, b, l: int) -> tuple[int, ...]:
    """A gcd of a and b over F_l, up to a unit, by Euclid on coefficient
    sequences low degree first; normalized, and empty when a = b = 0."""
    a, b = _normalize(a, l), _normalize(b, l)
    while b:
        a, b = b, _divmod(a, b, l)[1]
    return a


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with deg r < deg b."""
    a._check(b)
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    quot, rem = _divmod(a.coeffs, b.coeffs, a.l)
    return Poly(a.l, quot), Poly(a.l, rem)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, b) = monic b."""
    a._check(b)
    return Poly(a.l, _gcd(a.coeffs, b.coeffs, a.l)).monic()


@lru_cache(maxsize=None)
def is_irreducible(p: Poly) -> bool:
    """Rabin's test: p of degree n is irreducible over F_l iff
    X^(l^n) = X mod p and gcd(X^(l^(n/t)) - X, p) = 1 for primes t | n.
    It runs on coefficient sequences low degree first: those of p, and the
    normalized residues mod p.  Memoized, since every LocalRingSpec of the
    same p reruns it."""
    n = p.degree
    if n < 1:
        raise ValueError("irreducibility undefined for constants")
    if n == 1:
        return True
    l = p.l
    x = (0, 1)
    for t in _prime_factors(n):
        # padded, so that X can be taken off; _gcd normalizes
        h = [*_pow_mod(x, l ** (n // t), p.coeffs, l), 0, 0]
        h[1] -= 1
        if len(_gcd(p.coeffs, h, l)) != 1:
            return False
    return _pow_mod(x, l**n, p.coeffs, l) == x


def _pow_mod(base, exp: int, modulus, l: int) -> tuple[int, ...]:
    """base^exp mod the modulus, by squaring, on residue sequences."""
    result = (1,)
    while exp:
        if exp & 1:
            result = _mul_mod(result, base, modulus, l)
        base = _mul_mod(base, base, modulus, l)
        exp >>= 1
    return result


def _mul_mod(a, b, modulus, l: int) -> tuple[int, ...]:
    """a b mod the modulus, for residue sequences."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return _divmod([c % l for c in out], modulus, l)[1]


def factor_multiplicity(f: Poly, p: Poly) -> int:
    """Largest m with p^m dividing f."""
    f._check(p)
    if f.is_zero():
        raise ValueError("multiplicity undefined for the zero polynomial")
    if p.degree < 1:
        raise ValueError("divisor must be nonconstant")
    coeffs, m = f.coeffs, 0
    while True:
        quot, rem = _divmod(coeffs, p.coeffs, p.l)
        if rem:
            return m
        coeffs = quot
        m += 1


def find_irreducible(l: int, d: int) -> Poly:
    """Smallest monic irreducible of degree d over F_l, by coefficient order.

    The first l candidates are the binomials X^d + c, c = 0, ..., l - 1,
    decided in closed form (Lidl-Niederreiter, Finite Fields, Thm. 3.75):
    X^d - a is irreducible iff a != 0, every prime r | d divides l - 1 with
    a^((l-1)/r) != 1, and l = 1 mod 4 when 4 | d.  When the conditions on l
    and d hold, a generator of F_l^* passes, so some binomial is chosen;
    otherwise Rabin's test runs on at most MAX_IRREDUCIBLE_CANDIDATES
    candidates after them."""
    check_degree(f"the extension F_{l}^{d} of F_{l}", d)
    if d == 1:
        return Poly.x(l)
    primes = _prime_factors(d)
    if all((l - 1) % r == 0 for r in primes) and (d % 4 or l % 4 == 1):
        for c in range(1, l):
            if all(pow(l - c, (l - 1) // r, l) != 1 for r in primes):
                return Poly(l, (c,) + (0,) * (d - 1) + (1,))
    # an irreducible lies below 2 l^d, so the scan never leaves degree d
    start = l**d + l
    for code in range(start, start + MAX_IRREDUCIBLE_CANDIDATES):
        cand = Poly.from_code(l, code)
        if is_irreducible(cand):
            return cand
    raise ValueError(
        f"no irreducible of degree {d} over F_{l} among the binomials X^{d} + c "
        f"and the next MAX_IRREDUCIBLE_CANDIDATES = {MAX_IRREDUCIBLE_CANDIDATES} "
        "monic polynomials"
    )


def check_monic_irreducible(what: str, l: int, p: Poly) -> None:
    """Refuses, naming what and p, a p that is not a monic irreducible
    polynomial over F_l of degree 1 to MAX_POLY_DEGREE: the base of a local
    factor F_l[X]/(p^e) and a condition on P_C mod l alike."""
    if not isinstance(p, Poly) or p.l != l:
        raise ValueError(f"{what} {p!r} is not a polynomial over F_{l}")
    if p.degree < 1:
        raise ValueError(f"{what} {p} is constant; it must have positive degree")
    if not p.is_monic():
        raise ValueError(f"{what} {p} must be monic")
    check_degree(f"{what} {p}", p.degree)
    if not is_irreducible(p):
        raise ValueError(f"{what} {p} is reducible over F_{l}")


@dataclass(frozen=True)
class LocalRingSpec:
    """The local ring F_l[X]/(p^e) with p monic irreducible."""

    l: int
    p: Poly
    e: int

    def __post_init__(self) -> None:
        check_modulus(self.l)
        check_exponent(self.e)
        check_monic_irreducible("p =", self.l, self.p)

    @property
    def residue_degree(self) -> int:
        return self.p.degree

    @property
    def Q(self) -> int:
        """Residue field size l^deg(p)."""
        return self.l ** self.p.degree

    @property
    def size(self) -> int:
        return self.Q**self.e


@dataclass(frozen=True)
class RingSpec:
    """A finite quotient F_l[X]/(prod p_i^{e_i}) held as its CRT factors."""

    factors: tuple[LocalRingSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("at least one local factor required")
        l = self.factors[0].l
        if any(f.l != l for f in self.factors):
            raise ValueError("all factors must share the same l")
        seen = set()
        for f in self.factors:
            if f.p.coeffs in seen:
                raise ValueError(f"repeated irreducible factor {f.p}")
            seen.add(f.p.coeffs)
        # the generated hash's value, computed once: sets and dicts keyed by
        # rings or module types hash them on every lookup
        object.__setattr__(self, "_hash", hash((self.factors,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def l(self) -> int:
        return self.factors[0].l

    @property
    def size(self) -> int:
        n = 1
        for f in self.factors:
            n *= f.size
        return n
