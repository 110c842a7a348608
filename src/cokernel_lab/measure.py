"""Exact evaluation of the limiting cokernel measure: eta products,
normalizing constants, module masses, rank distributions, moments, and
divisor densities.

Values are carried as an exact rational times a multiset of eta(Q)
factors, divided by a second such multiset, so identities between formulas
are checked as exact rational equalities and floats appear only at the
final numeric step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isfinite

from .algebra import (
    LocalRingSpec,
    Poly,
    RingSpec,
    _prime_power,
    check_degree,
    find_irreducible,
    is_irreducible,
    is_prime,
)
from .modules import (
    ModuleType,
    Partition,
    _local_aut_order,
    aut_order,
    partitions_of,
    submodule_counts,
)

__all__ = [
    "MeasureValue",
    "MAX_TYPE_LENGTH",
    "EtaEval",
    "eta",
    "c_constant",
    "mu",
    "rank_distribution",
    "rank_distribution_partition_form",
    "moment_rank",
    "divisor_density",
    "divisor_density_hypothesis",
    "prediction_applies_at_q",
    "local_ring_with_residue_size",
]

DEFAULT_TOL = 1e-9
# The rank distributions and moments list the module types of one length
# (the sum of the parts, log_Q of the size) and refuse a length above this:
# 32 has 8349 partitions, and a moment module (e,) * k of length e k <= 32
# at most C(12, 4) = 495 submodule types.  Past it the listing recurses as
# deep as the length, runs for minutes, and gives rationals with thousands
# of digits; the tests, verify and perfbench ask for lengths up to 18.
MAX_TYPE_LENGTH = 32


@dataclass(frozen=True)
class MeasureValue:
    """rational * prod of eta(Q) over eta_factors / prod of eta(Q) over
    eta_divisors, held exactly. A Q listed on both sides cancels, so equal
    values compare equal."""

    rational: Fraction
    eta_factors: tuple[int, ...] = ()
    eta_divisors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rational", Fraction(self.rational))
        factors = sorted(self.eta_factors)
        divisors = []
        for Q in sorted(self.eta_divisors):
            if Q in factors:
                factors.remove(Q)
            else:
                divisors.append(Q)
        object.__setattr__(self, "eta_factors", tuple(factors))
        object.__setattr__(self, "eta_divisors", tuple(divisors))
        if self.rational < 0:
            raise ValueError("measure values are nonnegative")

    def __add__(self, other: "MeasureValue") -> "MeasureValue":
        if (self.eta_factors, self.eta_divisors) != (
            other.eta_factors,
            other.eta_divisors,
        ):
            if self.rational == 0:
                return other
            if other.rational == 0:
                return self
            raise ValueError("cannot add values with different eta factors")
        return MeasureValue(
            self.rational + other.rational, self.eta_factors, self.eta_divisors
        )

    def __mul__(self, other) -> "MeasureValue":
        if isinstance(other, MeasureValue):
            return MeasureValue(
                self.rational * other.rational,
                self.eta_factors + other.eta_factors,
                self.eta_divisors + other.eta_divisors,
            )
        return MeasureValue(
            self.rational * Fraction(other), self.eta_factors, self.eta_divisors
        )

    __rmul__ = __mul__

    def numeric(self, tol: float = DEFAULT_TOL) -> float:
        n_eta = len(self.eta_factors) + len(self.eta_divisors)
        if not n_eta:
            return float(self.rational)
        per = tol / n_eta
        out = float(self.rational)
        for Q in self.eta_factors:
            out *= eta(Q, per).value
        for Q in self.eta_divisors:
            out /= eta(Q, per).value
        return out


@dataclass(frozen=True)
class EtaEval:
    """Truncation of eta(Q) = prod_{u>=1} (1 - Q^-u) with a certified tail."""

    Q: int
    tol: float
    value: float
    depth: int


@lru_cache(maxsize=None)
def eta(Q: int, tol: float = DEFAULT_TOL) -> EtaEval:
    if Q < 2:
        raise ValueError("field size must be at least 2")
    if not (tol > 0 and isfinite(tol)):
        raise ValueError(f"tolerance tol = {tol} must be a positive finite number")
    # the truncated product is at most 1 and the tail takes off at most
    # 1 - prod_{u>depth} (1 - Q^-u) <= sum_{u>depth} Q^-u, which is
    # Q^-(depth+1) / (1 - 1/Q): that sum bounds the value error
    depth = 0
    while Q ** -(depth + 1) / (1 - 1 / Q) >= tol:
        depth += 1
    value = 1.0
    for u in range(1, depth + 1):
        value *= 1.0 - Q ** (-u)
    return EtaEval(Q, tol, value, depth)


def c_constant(ring: RingSpec, j) -> MeasureValue:
    """The normalizing constant of the stratum with Tor vector j."""
    j = tuple(j)
    if len(j) != len(ring.factors):
        raise ValueError("one stratum index per local factor required")
    rational = Fraction(1)
    factors = []
    for ji, f in zip(j, ring.factors):
        if ji < 0:
            raise ValueError("stratum indices are nonnegative")
        Q = f.Q
        num = Q ** (ji * (ji + 1) // 2)
        den = 1
        for k in range(1, ji + 1):
            den *= Q**k - 1
        rational *= Fraction(num, den)
        factors.append(Q)
    return MeasureValue(rational, tuple(factors))


def mu(t: ModuleType) -> MeasureValue:
    """Mass of the isomorphism class under the limiting cokernel measure: the
    stratum of each factor is its number of parts equal to e, the
    Tor-difference invariant for these rings."""
    j = tuple(lam.parts.count(f.e) for lam, f in zip(t.local_types, t.ring.factors))
    return c_constant(t.ring, j) * Fraction(1, aut_order(t))


def _rank_types(m: int, e: int, residue_degree: int):
    """The module types of F_l-dimension m over a chain ring of exponent e
    and the given residue degree: the partitions of m / residue_degree with
    parts bounded by e, none when the residue degree does not divide m.  A
    negative rank, and a length m / residue_degree above MAX_TYPE_LENGTH,
    are refused."""
    if m < 0:
        raise ValueError("rank must be nonnegative")
    if m % residue_degree:
        return ()
    length = m // residue_degree
    if length > MAX_TYPE_LENGTH:
        raise ValueError(
            f"rank m = {m} over residue degree {residue_degree} lists modules of "
            f"length {length}, above MAX_TYPE_LENGTH = {MAX_TYPE_LENGTH}"
        )
    return partitions_of(length, e)


def rank_distribution(local: LocalRingSpec, m: int) -> MeasureValue:
    """eta(Q) times the sum of 1/|Aut| over the module types of
    F_l-dimension m over the local ring, as _rank_types lists them, |Aut|
    by the run-index product of aut_order; zero when the residue degree
    does not divide m."""
    Q = local.Q
    total = Fraction(0)
    for lam in _rank_types(m, local.e, local.residue_degree):
        total += Fraction(1, _local_aut_order(lam, Q))
    return MeasureValue(total, (Q,))


def rank_distribution_partition_form(
    Q: int, e: int, m: int, residue_degree: int = 1
) -> MeasureValue:
    """The partition-sum form of the rank distribution: 1/|Aut| summed over
    the module types that rank_distribution sums over, with |Aut| from
    Macdonald's formula (Symmetric Functions and Hall Polynomials, ch. II
    §1), not the run-index product of aut_order:
    Q^(sum_i lam'_i^2) prod_i prod_{k<=m_i} (1 - Q^-k), lam' the conjugate
    partition and m_i the number of parts equal to i."""
    total = Fraction(0)
    for lam in _rank_types(m, e, residue_degree):
        aut = Q ** sum(c * c for c in Partition(lam).conjugate().parts)
        for i in set(lam):
            for k in range(1, lam.count(i) + 1):
                aut = aut // Q**k * (Q**k - 1)
        total += Fraction(1, aut)
    return MeasureValue(total, (Q,))


def moment_rank(Q: int, e: int, k: int) -> int:
    """The k-th moment of Q^rank: the number of submodules of the rank-k free
    module over the chain quotient with exponent e."""
    _prime_power(Q)
    if e < 1:
        raise ValueError(f"exponent e = {e} must be >= 1")
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    if e * k > MAX_TYPE_LENGTH:
        raise ValueError(
            f"moment k = {k} with e = {e} counts the submodules of a module of "
            f"length {e * k}, above MAX_TYPE_LENGTH = {MAX_TYPE_LENGTH}"
        )
    return sum(count for _, count in submodule_counts(Q, (e,) * k))


def _check_modulus(l: int) -> None:
    if l < 3 or not is_prime(l):
        raise ValueError(f"modulus l = {l} must be an odd prime")


def _validate_conditions(l: int, conditions) -> list[tuple[Poly, int]]:
    """The conditions (P_i, m_i) as lists of pairs, once l is an odd prime and
    each P_i is a monic irreducible polynomial over F_l of degree 1 to
    MAX_POLY_DEGREE, with m_i >= 0 and no P_i repeated; otherwise
    ValueError, naming the failing condition."""
    _check_modulus(l)
    out = []
    seen = set()
    for p, m in conditions:
        if not isinstance(p, Poly):
            raise ValueError("condition polynomials must be Poly values")
        if p.l != l:
            raise ValueError(f"condition {p} is not a polynomial over F_{l}")
        if p.degree < 1:
            raise ValueError(f"condition {p} is constant; it must have positive degree")
        if not p.is_monic():
            raise ValueError(f"condition {p} must be monic")
        check_degree(f"condition {p}", p.degree)
        if not is_irreducible(p):
            raise ValueError(f"condition {p} is reducible over F_{l}")
        if m < 0:
            raise ValueError(f"multiplicities are nonnegative; condition {p} has {m}")
        if p.coeffs in seen:
            raise ValueError(f"conditions must be pairwise coprime; {p} repeats")
        seen.add(p.coeffs)
        out.append((p, m))
    return out


def divisor_density(l: int, conditions, q: int | None = None) -> MeasureValue:
    """Limiting probability that each P_i divides the reduced Frobenius
    characteristic polynomial with multiplicity exactly m_i.

    Per condition this is the mass of the F_l-dimension 2*m_i*deg(P_i)
    stratum over F_l[X]/(P_i^{m_i+1}); the factor of two reflects that the
    functional equation ties each divisor to its reciprocal partner.

    Given the field size q, a condition that the functional equation ties
    to itself gets its limit at q instead; see _self_paired_density. Such a
    condition whose limit is not known here raises ValueError. Two
    conditions that are each other's partners at q always divide P_C mod l
    equally often, so the pair has mass 0 when their multiplicities differ
    and counts once when they agree.
    """
    conds = _validate_conditions(l, conditions)
    if q is not None and (q < 2 or q % l == 0):
        raise ValueError(f"q = {q} must be a field size coprime to l = {l}")
    out = MeasureValue(Fraction(1))
    counted = {}
    for p, m in conds:
        partner = None if q is None or p == Poly.x(l) else _reciprocal(p, q)
        if partner is not None and partner.coeffs in counted:
            value = MeasureValue(Fraction(int(counted[partner.coeffs] == m)))
        elif q is not None and partner in (None, p):
            value = _self_paired_density(p, m, q)
        else:
            try:
                value = rank_distribution(LocalRingSpec(l, p, m + 1), 2 * m * p.degree)
            except ValueError as err:
                # the length refusal, with the condition that asked for it
                raise ValueError(f"condition {p} with multiplicity {m}: {err}") from err
        counted[p.coeffs] = m
        out = out * value
    return out


def _reciprocal(p: Poly, q: int) -> Poly:
    """p^*(X) = X^d p(q/X) / p(0), the partner of p under the pairing
    t <-> q/t of the roots of P_C; p(0) must be nonzero."""
    l = p.l
    d = p.degree
    c0_inv = pow(p.coeffs[0], -1, l)
    return Poly(
        l, tuple(p.coeffs[d - k] * pow(q, d - k, l) * c0_inv for k in range(d + 1))
    )


def prediction_applies_at_q(l: int, conditions, q: int) -> bool:
    """Whether the q-free divisor_density(l, conditions) is also the limit
    at q: false when a condition is X, is its own reciprocal partner at q,
    or is the partner of another condition, the cases that
    divisor_density(..., q=q) treats apart."""
    conds = _validate_conditions(l, conditions)
    polys = {p.coeffs for p, _ in conds}
    return not any(
        p == Poly.x(l) or _reciprocal(p, q).coeffs in polys for p, _ in conds
    )


def _self_paired_density(p: Poly, m: int, q: int) -> MeasureValue:
    """The limit at q of Prob(p^m || P_C mod l) for p = X or p = p^*.

    The Weil pairing puts Frobenius in GSp_2g with multiplier q, so the
    roots of P_C pair as t <-> q/t and p pairs with its reciprocal p^*.
    X never divides P_C, whose constant term q^g is a unit mod l. For
    X - a with a^2 = q mod l, Frob/a mod l lies in Sp_2g(F_l), and X - a
    divides P_C exactly when that matrix has the eigenvalue 1, which has
    even multiplicity. Multiplicity 0 has the large-g mass
    prod_{i>=1} (1 - l^(1-2i)) = eta(l)/eta(l^2) (Rudvalis-Shinoda; Fulman)
    and odd multiplicities have mass 0. Other self-reciprocal conditions,
    p^* = p of degree >= 2 or X - a with even m >= 2, raise ValueError.
    """
    l = p.l
    if p == Poly.x(l):
        return MeasureValue(Fraction(int(m == 0)))
    if p.degree == 1 and m == 0:
        return MeasureValue(Fraction(1), (l,), (l * l,))
    if p.degree == 1 and m % 2:
        return MeasureValue(Fraction(0))
    raise ValueError(
        f"condition {p} with multiplicity {m} is self-reciprocal at q = {q}; "
        "its limit is not known"
    )


def divisor_density_hypothesis(l: int, conditions) -> bool:
    """Whether prod eta(F_i) > 1/2, the uniqueness hypothesis."""
    conds = _validate_conditions(l, conditions)
    prod = 1.0
    for p, _ in conds:
        prod *= eta(l**p.degree, DEFAULT_TOL).value
    return prod > 0.5


def local_ring_with_residue_size(Q: int, e: int) -> LocalRingSpec:
    """A local ring F_l[X]/(p^e) whose residue field has exactly Q elements."""
    l, d = _prime_power(Q)
    return LocalRingSpec(l, find_irreducible(l, d), e)
