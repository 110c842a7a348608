"""Hyperelliptic curve statistics: point counting over small prime fields,
integer Frobenius characteristic polynomials, and divisor-multiplicity
frequencies compared against the exact density predictions."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import sqrt

import numpy as np

from .algebra import Poly, factor_multiplicity, is_prime, poly_gcd
from .chainring import MAX_RING_SIZE, field_products
from .measure import (
    MeasureValue,
    _validate_conditions as _validate_measure_conditions,
    divisor_density,
    divisor_density_hypothesis,
    prediction_applies_at_q,
)
from .montecarlo import worker_streams

__all__ = [
    "CurveSample",
    "DensityReport",
    "sample_curve",
    "point_counts",
    "char_poly_from_counts",
    "curve_sample_from_f",
    "all_squarefree_monic",
    "divisibility_stats",
    "independence_stats",
    "weil_root_error",
]

# all_squarefree_monic iterates over q^(2g+1) polynomials, at most this many
CENSUS_CAP = 10**7
# point_counts evaluates at most this many digits in one block; a block
# much larger than the cache costs more per curve
DIGIT_BLOCK = 2**18
# _tally counts the curves of a census or a stream this many at a time
CURVE_CHUNK = 1024


@dataclass(frozen=True)
class CurveSample:
    """y^2 = f(x) over F_q with the integer characteristic polynomial of
    Frobenius, stored low degree first (degree 2g, constant term q^g)."""

    q: int
    g: int
    f: tuple[int, ...]
    char_poly: tuple[int, ...]


@dataclass(frozen=True)
class DensityReport:
    l: int
    q: int
    g: int
    conditions: tuple
    trials: int
    hits: int
    empirical: float
    predicted: MeasureValue
    predicted_value: float
    std_error: float
    hypothesis_eta_gt_half: bool
    prediction_applies_at_q: bool
    exhaustive: bool


def _validate_q(q: int) -> None:
    if q % 2 == 0 or not is_prime(q):
        raise ValueError("only odd prime base fields are supported")


@lru_cache(maxsize=None)
def _orbit_tables(q: int, d: int, degree: int):
    """F_{q^d}, as chainring.field_products gives it, cut into the orbits of
    Frobenius x -> x^q, each represented by its least code: the digits of
    x^k at the representatives for k <= degree, one row per k, in an
    integer type wide enough for their products with the coefficients; the
    orbit sizes; and the quadratic character by code (1 on nonzero squares,
    -1 on the other nonzero elements, 0 on zero)."""
    digits, structure, frobenius = field_products(q, d)
    place = q ** np.arange(d)
    least = step = np.arange(q**d)
    for _ in range(d - 1):
        step = frobenius[step]
        least = np.minimum(least, step)
    reps, sizes = np.unique(least, return_counts=True)

    def times(a, b):
        return (a[:, :, None] * b[:, None]).reshape(len(a), d * d) @ structure % q

    # squaring commutes with Frobenius, so the squares of the representatives
    # meet every orbit of nonzero squares
    square_orbit = np.zeros(q**d, dtype=bool)
    square_orbit[least[times(digits[reps], digits[reps]) @ place]] = True
    chi = np.where(square_orbit[least], 1, -1)
    chi[0] = 0
    # code 1 is the element 1
    powers = [np.tile(digits[1], (len(reps), 1))]
    for _ in range(degree):
        powers.append(times(powers[-1], digits[reps]))
    # each value of f is a sum of at most degree + 1 products of two digits
    # below q
    width = np.int32 if (degree + 1) * (q - 1) ** 2 < 2**31 else np.int64
    return np.stack(powers).reshape(degree + 1, -1).astype(width), sizes, chi


def point_counts(fs, q: int, g: int) -> np.ndarray:
    """Projective point counts of y^2 = f(x) over F_{q^i}, i = 1..g, with a
    single point at infinity for the odd-degree model, for every f of the
    sequence fs (coefficients low degree first, all of one length): an
    int64 array of shape (len(fs), g).

    f has its coefficients in F_q, so f(x^q) = f(x)^q and chi(f(x)) is
    constant on each Frobenius orbit: each field sums chi(f(x)) over the
    orbit representatives, weighted by the orbit sizes, for a block of
    curves at once."""
    _validate_q(q)
    coeffs = np.array(fs, dtype=np.int64) % q
    out = np.empty((len(coeffs), g), dtype=np.int64)
    for d in range(1, g + 1):
        powers, sizes, chi = _orbit_tables(q, d, coeffs.shape[1] - 1)
        place = q ** np.arange(d)
        block = max(1, DIGIT_BLOCK // powers.shape[1])
        for start in range(0, len(coeffs), block):
            # einsum's integer loop: integer matmul is several times slower,
            # and a float matmul goes to BLAS, whose threads stall on a
            # loaded machine
            block_coeffs = coeffs[start : start + block].astype(powers.dtype)
            values = np.einsum("bk,kn->bn", block_coeffs, powers)
            codes = (values % q).reshape(len(values), -1, d) @ place
            out[start : start + block, d - 1] = chi[codes] @ sizes
        out[:, d - 1] += 1 + q**d
    return out


def char_poly_from_counts(counts, q: int, g: int) -> tuple[int, ...]:
    """Integer characteristic polynomial of Frobenius from N_1..N_g, via
    power sums, Newton's identities, and the functional equation; returned
    low degree first."""
    p = [0] + [q**i + 1 - counts[i - 1] for i in range(1, g + 1)]
    e = [1]
    for k in range(1, g + 1):
        s = sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1))
        ek, rem = divmod(s, k)
        if rem:
            raise ArithmeticError("non-integer Newton output signals a count bug")
        e.append(ek)
    a = [(-1) ** i * e[i] for i in range(g + 1)]
    full = a + [q ** (g - i) * a[i] for i in range(g - 1, -1, -1)]
    return tuple(full[2 * g - j] for j in range(2 * g + 1))


def weil_root_error(char_poly: tuple[int, ...], q: int) -> float:
    """Largest deviation of |root| from sqrt(q)."""
    roots = np.roots(list(reversed(char_poly)))
    return float(np.max(np.abs(np.abs(roots) - sqrt(q))))


def curve_sample_from_f(f, q: int, g: int) -> CurveSample:
    counts = point_counts([f], q, g)[0].tolist()
    return CurveSample(q, g, tuple(f), char_poly_from_counts(counts, q, g))


def _is_squarefree(f: Poly) -> bool:
    deriv = Poly(f.l, [i * c for i, c in enumerate(f.coeffs)][1:])
    return poly_gcd(f, deriv).degree == 0


def sample_curve(q: int, g: int, rng) -> tuple[int, ...]:
    """Uniform monic squarefree f of degree 2g+1 by rejection on gcd(f, f')."""
    _validate_q(q)
    while True:
        f = tuple(int(x) for x in rng.integers(0, q, 2 * g + 1)) + (1,)
        if _is_squarefree(Poly(q, f)):
            return f


def _monic_rows(q: int, degree: int, codes: np.ndarray) -> np.ndarray:
    """Coefficients, low degree first, of the monic polynomials of the given
    degree whose lower base-q digits are codes: one row per code."""
    rows = np.ones((len(codes), degree + 1), dtype=np.int64)
    rows[:, :degree] = codes[:, None] // q ** np.arange(degree) % q
    return rows


def _times(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Row-wise products mod q of two arrays of coefficient rows."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), dtype=np.int64)
    for i in range(a.shape[1]):
        out[:, i : i + b.shape[1]] += a[:, i, None] * b
    return out % q


def all_squarefree_monic(q: int, degree: int) -> list[tuple[int, ...]]:
    """Every squarefree monic f of the given degree over F_q, coefficients
    low degree first, in ascending order of code.

    f fails to be squarefree exactly when f = h^2 k with h and k monic and
    deg h = j >= 1, so a sieve marks the lower digits of each such product,
    q^(degree - j) of them for each j; rows are built DIGIT_BLOCK digits at
    a time."""
    _validate_q(q)
    if degree < 0:
        raise ValueError(f"census degree = {degree} must be >= 0")
    # q >= 3, so q^degree > CENSUS_CAP whenever degree exceeds the cap's bit
    # length, and the power is only computed when it is small
    if degree > CENSUS_CAP.bit_length() or q**degree > CENSUS_CAP:
        raise ValueError(
            f"census of {q}^{degree} monic polynomials exceeds CENSUS_CAP = {CENSUS_CAP}"
        )
    place = q ** np.arange(degree)
    block = max(1, DIGIT_BLOCK // (degree + 1))
    divisible = np.zeros(q**degree, dtype=bool)
    for j in range(1, degree // 2 + 1):
        # a pair (h, k) is coded by the lower digits of k below those of h
        split = q ** (degree - 2 * j)
        pairs = split * q**j
        for start in range(0, pairs, block):
            codes = np.arange(start, min(start + block, pairs))
            h = _monic_rows(q, j, codes // split)
            k = _monic_rows(q, degree - 2 * j, codes % split)
            divisible[_times(_times(h, h, q), k, q)[:, :degree] @ place] = True
    free = np.flatnonzero(~divisible)
    out = []
    for start in range(0, len(free), block):
        out += map(tuple, _monic_rows(q, degree, free[start : start + block]).tolist())
    return out


def validate_conditions(l: int, q: int, conditions) -> list[tuple[Poly, int]]:
    """The printed hypotheses, enforced at configuration time with the
    failing condition named: measure's checks on l and the conditions, then
    q an odd prime coprime to l, each P_i monic, and l not dividing P_i(q)."""
    conds = _validate_measure_conditions(l, conditions)
    _validate_q(q)
    if q % l == 0:
        raise ValueError(f"l = {l} divides q = {q}")
    for p, _ in conds:
        if not p.is_monic():
            raise ValueError(f"condition {p} must be monic")
        if p(q % l) == 0:
            raise ValueError(
                f"hypothesis violated for condition {p}: l = {l} divides P(q)"
            )
    return conds


def _tally(
    l, polys, q, g, trials, seed, workers, exhaustive, on_sample=None
) -> Counter:
    """How many curves have each tuple of multiplicities of polys in P_C mod
    l: the census of squarefree monic f, or the seeded worker streams."""
    if g < 1:
        raise ValueError(f"genus g = {g} must be >= 1")
    # q >= 3, so q^g > MAX_RING_SIZE whenever g exceeds the cap's bit length,
    # and the power is only computed when it is small
    if g > MAX_RING_SIZE.bit_length() or q**g > MAX_RING_SIZE:
        raise ValueError(
            f"genus g = {g} with q = {q} counts points over F_{{{q}^{g}}}, "
            f"above MAX_RING_SIZE = {MAX_RING_SIZE} elements"
        )
    if exhaustive:
        fs = all_squarefree_monic(q, 2 * g + 1)
    else:
        streams = worker_streams("cokernel-lab-curves", seed, trials, workers)
        fs = (sample_curve(q, g, rng) for rng, count in streams for _ in range(count))
    fs = iter(fs)
    # curves with equal counts N_1..N_g have equal P_C, so each distinct
    # count vector is reduced once: to P_C and its multiplicities
    reductions = {}
    tally = Counter()
    while chunk := list(islice(fs, CURVE_CHUNK)):
        for f, counts in zip(chunk, point_counts(chunk, q, g).tolist()):
            key = tuple(counts)
            if key not in reductions:
                char_poly = char_poly_from_counts(counts, q, g)
                reduced = Poly(l, char_poly)
                mults = tuple(factor_multiplicity(reduced, p) for p in polys)
                reductions[key] = char_poly, mults
            char_poly, mults = reductions[key]
            sample = CurveSample(q, g, tuple(f), char_poly)
            if on_sample is not None:
                on_sample(sample, mults)
            tally[mults] += 1
    return tally


def divisibility_stats(
    l: int,
    conditions,
    q: int,
    g: int,
    trials: int,
    seed: int,
    workers: int = 1,
    exhaustive: bool = False,
    on_sample=None,
) -> DensityReport:
    """Empirical frequency of the joint exact-divisibility event
    P_i^{m_i} || P_C mod l over sampled curves, with the exact prediction."""
    conds = validate_conditions(l, q, conditions)
    # first, so that a condition the exact layer refuses draws no curve
    predicted = divisor_density(l, conds)
    polys = [p for p, _ in conds]
    targets = tuple(m for _, m in conds)
    tally = _tally(l, polys, q, g, trials, seed, workers, exhaustive, on_sample)
    hits = tally[targets]
    total = sum(tally.values())
    emp = hits / total
    return DensityReport(
        l=l,
        q=q,
        g=g,
        conditions=tuple((p.coeffs, m) for p, m in conds),
        trials=total,
        hits=hits,
        empirical=emp,
        predicted=predicted,
        predicted_value=predicted.numeric(),
        std_error=sqrt(emp * (1 - emp) / total),
        hypothesis_eta_gt_half=divisor_density_hypothesis(l, conds),
        prediction_applies_at_q=prediction_applies_at_q(l, conds, q),
        exhaustive=exhaustive,
    )


def independence_stats(
    l: int,
    cond_a,
    cond_b,
    q: int,
    g: int,
    trials: int,
    seed: int,
    workers: int = 1,
    exhaustive: bool = False,
) -> dict:
    """2x2 contingency of the two divisibility events, the chi-square
    statistic, and the joint-vs-product gap with its delta-method standard
    error."""
    conds = validate_conditions(l, q, [cond_a, cond_b])
    (pa, ma), (pb, mb) = conds
    table = [[0, 0], [0, 0]]
    for (mult_a, mult_b), count in _tally(
        l, [pa, pb], q, g, trials, seed, workers, exhaustive
    ).items():
        table[0 if mult_a == ma else 1][0 if mult_b == mb else 1] += count
    total = sum(map(sum, table))
    p11 = table[0][0] / total
    p_a = (table[0][0] + table[0][1]) / total
    p_b = (table[0][0] + table[1][0]) / total
    gap = p11 - p_a * p_b
    # delta method for p11 - (p11+p10)(p11+p01) under the multinomial
    probs = [count / total for row in table for count in row]
    grads = [1 - p_a - p_b, -p_a, -p_b, 0.0]
    mean_g = sum(gi * pi for gi, pi in zip(grads, probs))
    var = sum(gi * gi * pi for gi, pi in zip(grads, probs)) - mean_g * mean_g
    se = sqrt(max(var, 0.0) / total)
    chi2 = 0.0
    for i in range(2):
        for j in range(2):
            row = table[i][0] + table[i][1]
            col = table[0][j] + table[1][j]
            expected = row * col / total
            if expected > 0:
                chi2 += (table[i][j] - expected) ** 2 / expected
    return {
        "table": table,
        "trials": total,
        "joint": p11,
        "marginal_a": p_a,
        "marginal_b": p_b,
        "gap": gap,
        "gap_std_error": se,
        "chi_square": chi2,
    }
