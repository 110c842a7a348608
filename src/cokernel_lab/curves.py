"""Hyperelliptic curve statistics: point counting over small prime fields,
integer Frobenius characteristic polynomials, and divisor-multiplicity
frequencies compared against the exact density predictions.

The harness works on chunks of curves as arrays: one float pass over the
Frobenius orbit representatives of every field F_{q^d}, d <= g, laid side
by side in one table, gives the point counts N_1..N_g of a round of drawn
f and whether each is squarefree (f and f' share no zero there), P_C by
one int64 Newton pass over the chunk, and the multiplicity of each
condition P in P_C mod l from one product with a Taylor table of P;
algebra.factor_multiplicity, long division by P, is the tests' oracle for
that table, and poly_gcd for the squarefree test."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb, isqrt, sqrt

import numpy as np

from .algebra import Poly, is_prime
from .chainring import MAX_RING_SIZE, _float_dtype, _reduce, _x_power_digits, field_products
from .measure import (
    MeasureValue,
    _validate_conditions as _validate_measure_conditions,
    divisor_density,
    divisor_density_hypothesis,
    prediction_applies_at_q,
)
from .montecarlo import _check_workers, joined_pieces

__all__ = [
    "CurveSample",
    "DensityReport",
    "sample_curve",
    "sample_curves",
    "point_counts",
    "char_polys_from_counts",
    "char_poly_from_counts",
    "curve_sample_from_f",
    "all_squarefree_monic",
    "divisibility_stats",
    "independence_stats",
    "weil_root_error",
]

# the census sieve iterates over q^(2g+1) polynomials, at most this many
CENSUS_CAP = 10**7
# the orbit pass evaluates at most this many digits in one block, rows
# times the joined table's columns (g digits of every representative of
# every field), and the census sieve at most this many coefficients; a
# block whose float arrays outgrow the L2 cache (2 MiB a core on the Xeon
# it was timed on) costs more per curve
DIGIT_BLOCK = 2**17
# _tally counts the curves of a census or a stream this many at a time
CURVE_CHUNK = 1024


@dataclass(frozen=True)
class CurveSample:
    """y^2 = f(x) over F_q with the integer characteristic polynomial of
    Frobenius, stored low degree first (degree 2g, constant term q^g)."""

    f: tuple[int, ...]
    char_poly: tuple[int, ...]


@dataclass(frozen=True)
class DensityReport:
    """A joint divisibility frequency, its exact prediction and hypotheses."""

    trials: int
    hits: int
    empirical: float
    predicted: MeasureValue
    std_error: float
    hypothesis_eta_gt_half: bool
    prediction_applies_at_q: bool


def _validate_q(q: int) -> None:
    if q % 2 == 0 or not is_prime(q):
        raise ValueError("only odd prime base fields are supported")


def _check_base_field(l: int, q: int) -> None:
    """q an odd prime that the odd prime l does not divide."""
    _validate_q(q)
    if q % l == 0:
        raise ValueError(f"l = {l} divides q = {q}")


def _check_genus(g: int) -> None:
    if g < 1:
        raise ValueError(f"genus g = {g} must be >= 1")


def _field_times(a, b, structure, q: int):
    """Row-wise products of two arrays of digit rows of F_{q^d}, given the
    structure constants of chainring.field_products."""
    d = a.shape[1]
    return (a[:, :, None] * b[:, None]).reshape(len(a), d * d) @ structure % q


@lru_cache(maxsize=None)
def _orbit_tables(q: int, g: int, degree: int):
    """The fields F_{q^d}, d = 1..g >= 1, as chainring.field_products gives
    them, each cut into the orbits of Frobenius x -> x^q, each orbit
    represented by its least code, and the representatives of all fields
    laid side by side, field by field.  Five arrays:
    - powers, the digits of x^k at the representatives for k <= degree, one
      row per k, digit-major: every representative's digit 0, then every
      digit 1, ..., g digits each, those from d on zero at a representative
      of F_{q^d};
    - sizes, the orbit size of each representative;
    - bounds, where the representatives of F_{q^d} start, at index d - 1,
      with their total number at index g;
    - roots, each field's count of the square roots of every code, 1 +
      chi for the quadratic character chi (2 on nonzero squares, 0 on the
      other nonzero elements, 1 on zero), the fields joined one after
      another;
    - offsets, where each representative's field starts in roots.
    sizes and roots are int8, and so is their product, at most 2g: g <= 9,
    as q >= 3 and field_products refuses a field above MAX_RING_SIZE.

    The powers are floats, for chainring._reduce: a value of a polynomial
    of this degree with coefficients below q is a sum of degree + 1
    products of two digits below q, so below (degree + 1)(q - 1)^2 in every
    field.  Their dtype is chainring._float_dtype of that bound; at degree
    2g + 1 with q^g <= MAX_RING_SIZE the bound is largest, 4 * 28558^2 <
    2^49, at g = 1, q = 28559.  Each field's powers are written straight into its
    slice of the one table.  Read-only, since they are shared."""
    fields = []
    for d in range(1, g + 1):
        digits, structure, frobenius = field_products(q, d)
        least = step = np.arange(q**d)
        for _ in range(d - 1):
            step = frobenius[step]
            least = np.minimum(least, step)
        reps, sizes = np.unique(least, return_counts=True)
        reps = digits[reps]
        # squaring commutes with Frobenius, so the squares of the
        # representatives meet every orbit of nonzero squares
        square_orbit = np.zeros(q**d, dtype=bool)
        square_orbit[least[_field_times(reps, reps, structure, q) @ q ** np.arange(d)]] = True
        roots = np.where(square_orbit[least], 2, 0)
        roots[0] = 1
        fields.append((reps, structure, sizes, roots))
    bounds = np.array([0, *accumulate(len(sizes) for _, _, sizes, _ in fields)])
    dtype = _float_dtype((degree + 1) * (q - 1) ** 2)
    powers = np.zeros((degree + 1, g, bounds[-1]), dtype=dtype)
    offsets = np.empty(bounds[-1], dtype=np.intp)
    roots_starts = accumulate((len(roots) for *_, roots in fields), initial=0)
    for d, start, end, roots_start, (reps, structure, _, _) in zip(
        range(1, g + 1), bounds, bounds[1:], roots_starts, fields
    ):
        offsets[start:end] = roots_start
        # x^0 = 1 at every representative
        power = np.zeros_like(reps)
        power[:, 0] = 1
        powers[0, :d, start:end] = power.T
        for k in range(1, degree + 1):
            power = _field_times(power, reps, structure, q)
            powers[k, :d, start:end] = power.T
    sizes = np.concatenate([sizes for _, _, sizes, _ in fields]).astype(np.int8)
    roots = np.concatenate([roots for *_, roots in fields]).astype(np.int8)
    out = powers.reshape(degree + 1, -1), sizes, bounds, roots, offsets
    for array in out:
        array.flags.writeable = False
    return out


def _counts_and_squarefree(coeffs: np.ndarray, q: int, g: int, test_squarefree: bool = True):
    """For each row of the int64 array coeffs, the coefficients below q, low
    degree first, of an f of degree n: the projective point counts N_1..N_g
    of y^2 = f(x), with a single point at infinity for the odd-degree
    model, an int64 array of shape (rows, g); and, unless test_squarefree
    is false (then None), whether f has no repeated irreducible factor of
    degree at most g, which for n <= 2g + 1 is whether f is squarefree.

    f has its coefficients in F_q, so f(x^q) = f(x)^q, and the number of y
    with y^2 = f(x) is constant on each Frobenius orbit: N_d - 1 sums it
    over the orbit representatives of F_{q^d}, weighted by the orbit sizes.
    One pass evaluates f at the representatives of every field d <= g, for
    a block of rows at once, and sums each field's share of the row.  An
    irreducible h with h^2 | f has a root in F_{q^deg h} at which f and f'
    vanish, and a common root of f and f' has a minimal polynomial dividing
    f twice (Lidl-Niederreiter, Finite Fields, Ch. 1), so f' is evaluated
    only at the representatives where f vanishes, 1 + chi(f(x)) = 1."""
    n = coeffs.shape[1] - 1
    free = np.ones(len(coeffs), dtype=bool) if test_squarefree else None
    if g < 1:
        return np.empty((len(coeffs), 0), dtype=np.int64), free
    powers, sizes, bounds, roots, offsets = _orbit_tables(q, g, n)
    counts = np.empty((len(coeffs), g), dtype=np.int64)
    block = max(1, DIGIT_BLOCK // powers.shape[1])
    for start in range(0, len(coeffs), block):
        rows = coeffs[start : start + block].astype(powers.dtype)
        values = _reduce(rows @ powers, q).reshape(len(rows), g, -1)
        codes = values[:, -1].copy()
        for j in range(g - 2, -1, -1):
            codes *= q
            codes += values[:, j]
        codes = codes.astype(np.intp)
        codes += offsets
        above = roots[codes]
        # summed in the dtype of out, int64
        np.add.reduceat(above * sizes, bounds[:-1], axis=1, out=counts[start : start + block])
        if test_squarefree and len(zeros := np.flatnonzero(above == 1)):
            # f' = sum of k c_k x^(k-1) at each representative where f
            # vanishes, from the rows x^0..x^(n-1) of the table
            row, rep = np.divmod(zeros, len(sizes))
            at = powers[:-1].reshape(n, g, -1)[:, :, rep]
            slope = (coeffs[start + row, 1:] * np.arange(1, n + 1) % q).astype(powers.dtype)
            shared = ~_reduce(np.einsum("pk,kdp->pd", slope, at), q).any(axis=1)
            free[start + row[shared]] = False
    # the point at infinity
    counts += 1
    return counts, free


def point_counts(fs, q: int, g: int) -> np.ndarray:
    """Projective point counts of y^2 = f(x) over F_{q^i}, i = 1..g, with a
    single point at infinity for the odd-degree model, for every f of the
    sequence fs (coefficients low degree first, all of one length): an
    int64 array of shape (len(fs), g), counted by Frobenius orbits."""
    _validate_q(q)
    coeffs = np.array(fs, dtype=np.int64) % q
    return _counts_and_squarefree(coeffs, q, g, test_squarefree=False)[0]


@lru_cache(maxsize=None)
def _newton_constants(q: int, g: int):
    """For char_polys_from_counts at (q, g), once the int64 bound admits
    it: q^0..q^g, the least and the largest N_i the Hasse-Weil bound
    admits, and (-1)^i for i <= g; read-only, since they are shared.
    Memoized: computed once per chunk instead, they cost about 4 % of the
    throughput of small seeded requests at g = 1 to 4."""
    _check_genus(g)
    # q >= 2, so q^g >= 2^63 from g = 63 on, and the power is only computed
    # when it is small
    if g >= 63 or g * comb(3 * g - 1, g) * q**g >= 2**63:
        raise ValueError(
            f"genus g = {g} with q = {q}: Newton's identities reach "
            "g C(3g-1, g) q^g, not below 2^63, so are not exact in int64"
        )
    powers = q ** np.arange(g + 1, dtype=np.int64)
    reach = np.array([isqrt(4 * g * g * q**i) for i in range(1, g + 1)], dtype=np.int64)
    signs = np.where(np.arange(g + 1) % 2, -1, 1)
    out = powers, powers[1:] + 1 - reach, powers[1:] + 1 + reach, signs
    for array in out:
        array.flags.writeable = False
    return out


def char_polys_from_counts(counts, q: int, g: int) -> np.ndarray:
    """Integer characteristic polynomials of Frobenius from the point counts
    N_1..N_g of each row of the 2-D counts, via the power sums
    s_i = q^i + 1 - N_i, Newton's identities and the functional equation:
    an int64 array of shape (rows, 2g+1), low degree first.

    Exact in int64 under the Hasse-Weil bound |s_i| <= 2g q^(i/2), which
    every curve's counts meet: Newton's identities then give
    |e_k| <= C(2g+k-1, k) q^(k/2), and no power, product, partial sum or
    coefficient exceeds g C(3g-1, g) q^g in absolute value.  A (q, g) with
    that bound at 2^63 or more, or a row past the Hasse-Weil bound, is
    refused with ValueError; a non-integer e_k, the sign of a count bug,
    raises ArithmeticError."""
    powers, least, most, signs = _newton_constants(q, g)
    counts = np.array(counts, dtype=np.int64, ndmin=2)
    if counts.ndim != 2 or counts.shape[1] != g:
        raise ValueError(f"point counts of shape {counts.shape} are not rows of N_1..N_{g}")
    # compared before any subtraction, so that no count wraps
    outside = (counts < least) | (counts > most)
    if outside.any():
        row = counts[outside.any(axis=1)][0].tolist()
        raise ValueError(
            f"point counts {row} at q = {q} break the Hasse-Weil bound "
            "|q^i + 1 - N_i| <= 2g q^(i/2) under which Newton's identities are exact in int64"
        )
    # (-1)^(i-1) s_i for i = 1..g
    sums = (counts - powers[1:] - 1) * signs[1:]
    e = np.ones((len(counts), g + 1), dtype=np.int64)
    for k in range(1, g + 1):
        # k e_k = sum over i = 1..k of (-1)^(i-1) e_(k-i) s_i
        e[:, k], rem = np.divmod((e[:, k - 1 :: -1] * sums[:, :k]).sum(axis=1), k)
        if rem.any():
            raise ArithmeticError("non-integer Newton output signals a count bug")
    # a_i = (-1)^i e_i; P_C = sum over i <= g of a_i X^(2g-i) + q^(g-i) a_i X^i
    a = e * signs
    return np.concatenate([a[:, :g] * powers[:0:-1], a[:, ::-1]], axis=1)


def char_poly_from_counts(counts, q: int, g: int) -> tuple[int, ...]:
    """Integer characteristic polynomial of Frobenius from N_1..N_g, low
    degree first: the one-row case of char_polys_from_counts."""
    return tuple(char_polys_from_counts([counts], q, g)[0].tolist())


def weil_root_error(char_poly: tuple[int, ...], q: int) -> float:
    """Largest deviation of |root| from sqrt(q)."""
    roots = np.roots(list(reversed(char_poly)))
    return float(np.max(np.abs(np.abs(roots) - sqrt(q))))


def curve_sample_from_f(f, q: int, g: int) -> CurveSample:
    """y^2 = f(x) with its P_C; f must be squarefree of degree 2g+1 mod q."""
    _validate_q(q)
    f = tuple(f)
    if g >= 1 and len(f) == 2 * g + 2 and f[-1] % q:
        counts, free = _counts_and_squarefree(np.array([f], dtype=np.int64) % q, q, g)
        if free[0]:
            return CurveSample(f, char_poly_from_counts(counts[0], q, g))
    raise ValueError(f"f = {f} is not squarefree of degree 2g+1 over F_{q} at g = {g}")


def _draw_curves(q: int, g: int, pieces):
    """The curves of every piece (rng, count) of the nonempty list pieces:
    count uniform monic squarefree f of degree 2g+1 drawn on rng by
    rejection, each kept or rejected, in order, as one draw of 2g+1
    coefficients at a time would keep it, and rng left where that route
    leaves it.  Two int64 arrays, the pieces' curves in order: their
    coefficients, low degree first, of shape (rows, 2g+2), and their point
    counts N_1..N_g.

    Each round draws, for every piece short of its count by want, want +
    want // (q - 1) rows, about as many as hold want squarefree ones, and
    tests the rows of all pieces in one pass of _counts_and_squarefree.  A
    piece that finds all it wants before its last row rewinds its generator
    and draws again only the rows up to its last kept one: numpy draws a
    (k, n) block as k draws of n."""
    n = 2 * g + 1
    ends = list(accumulate(count for _, count in pieces))
    filled = [end - count for end, (_, count) in zip(ends, pieces)]
    fs = np.ones((ends[-1], n + 1), dtype=np.int64)
    ns = np.empty((ends[-1], g), dtype=np.int64)
    while short := [i for i, end in enumerate(ends) if filled[i] < end]:
        states, blocks = [], []
        for i in short:
            rng, want = pieces[i][0], ends[i] - filled[i]
            states.append(rng.bit_generator.state)
            blocks.append(rng.integers(0, q, (want + want // (q - 1), n)))
        rows = np.ones((sum(map(len, blocks)), n + 1), dtype=np.int64)
        rows[:, :-1] = np.concatenate(blocks)
        counts, free = _counts_and_squarefree(rows, q, g)
        start = 0
        for i, state, block in zip(short, states, blocks):
            stop = start + len(block)
            kept = start + np.flatnonzero(free[start:stop])[: ends[i] - filled[i]]
            if filled[i] + len(kept) == ends[i] and kept[-1] + 1 < stop:
                rng = pieces[i][0]
                rng.bit_generator.state = state
                rng.integers(0, q, (kept[-1] + 1 - start, n))
            fs[filled[i] : filled[i] + len(kept)] = rows[kept]
            ns[filled[i] : filled[i] + len(kept)] = counts[kept]
            filled[i] += len(kept)
            start = stop
    return fs, ns


def sample_curves(q: int, g: int, rng, count: int) -> np.ndarray:
    """count uniform monic squarefree f of degree 2g+1 by rejection on
    gcd(f, f') = 1, as _draw_curves draws them: an int64 array of shape
    (count, 2g+2), coefficients low degree first, holding the curves of
    count calls of sample_curve, with rng left where those calls leave it."""
    _validate_q(q)
    return _draw_curves(q, g, [(rng, count)])[0]


def sample_curve(q: int, g: int, rng) -> tuple[int, ...]:
    """Uniform monic squarefree f of degree 2g+1 by rejection on gcd(f, f')."""
    return tuple(sample_curves(q, g, rng, 1)[0].tolist())


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


def _census(q: int, degree: int):
    """The coefficient rows, low degree first, of every squarefree monic f
    of the given degree over F_q, in ascending order of the code of their
    lower base-q digits, CURVE_CHUNK rows at a time.

    f fails to be squarefree exactly when f = h^2 k with h and k monic and
    deg h = j >= 1, so a sieve marks the lower digits of each such product,
    q^(degree - j) of them for each j, DIGIT_BLOCK digits at a time."""
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
    for start in range(0, len(free), CURVE_CHUNK):
        yield _monic_rows(q, degree, free[start : start + CURVE_CHUNK])


def all_squarefree_monic(q: int, degree: int) -> list[tuple[int, ...]]:
    """Every squarefree monic f of the given degree over F_q, coefficients
    low degree first, in ascending order of code."""
    return [tuple(f) for rows in _census(q, degree) for f in rows.tolist()]


def validate_conditions(l: int, q: int, conditions) -> list[tuple[Poly, int]]:
    """The printed hypotheses, enforced at configuration time with the
    failing condition named: measure's checks on l and the conditions (each
    P_i monic and irreducible over F_l among them), then q an odd prime
    coprime to l, and l not dividing P_i(q)."""
    conds = _validate_measure_conditions(l, conditions)
    _check_base_field(l, q)
    for p, _ in conds:
        if p(q % l) == 0:
            raise ValueError(
                f"hypothesis violated for condition {p}: l = {l} divides P(q)"
            )
    return conds


@lru_cache(maxsize=None)
def _taylor_table(p: Poly, g: int) -> np.ndarray:
    """T_P for the coefficient rows of length n = 2g+1 over F_l, l = p.l:
    an (n, n k) array, k = deg p, whose entry (i, j k + s) is digit s of
    C(i, j) Y^(i-j) in F_l[Y]/(p).  A row F times T_P, mod l, lists the
    Taylor coefficients of F(X + Y) at the root Y of p, k digits each
    (Lidl-Niederreiter, Finite Fields: the Hasse derivatives of F at Y).
    Integer typed when the products of that matmul fit in int64, Python
    ints otherwise; read-only, since it is shared.

    Memoized, so that a long-lived process asked about the same (p, g)
    again finds the table built; a new (p, g) pays one build, a binomial
    table times the stacked powers of Y, rows of the X-power table mod p,
    a few percent of a request of 2 curves at g = 4."""
    l, k, n = p.l, p.degree, 2 * g + 1
    dtype = np.int64 if n * (l - 1) ** 2 < 2**63 else object
    # C(i, j) = 0 for j > i, whatever power of Y the clipped offset picks
    binomials = np.array([[comb(i, j) % l for j in range(n)] for i in range(n)], dtype=dtype)
    offsets = np.maximum(np.arange(n)[:, None] - np.arange(n), 0)
    powers = _x_power_digits(p, 1, n).astype(dtype)
    table = (binomials[:, :, None] * powers[offsets] % l).reshape(n, n * k)
    table.flags.writeable = False
    return table


def _multiplicities(rows: np.ndarray, p: Poly, g: int) -> np.ndarray:
    """The multiplicity of the irreducible p in each nonzero F over F_l of
    degree at most 2g, given as its row of 2g+1 coefficients below l, low
    degree first.

    p is irreducible over a finite field, so separable, and F has its
    coefficients in F_l: the multiplicity of p is that of X - Y for the
    root Y of p in F_l[Y]/(p), the index of the first nonzero Taylor
    coefficient of F(X + Y)."""
    table = _taylor_table(p, g)
    taylor = rows.astype(table.dtype, copy=False) @ table % p.l
    return (taylor.reshape(len(rows), 2 * g + 1, p.degree) != 0).any(axis=2).argmax(axis=1)


def _tally(
    l, polys, q, g, trials, seed, workers, exhaustive, on_sample=None
) -> Counter:
    """How many curves have each tuple of multiplicities of polys in P_C mod
    l: the census of squarefree monic f, or the seeded worker streams, whose
    consecutive pieces are grouped as joined_pieces groups them.  Each chunk
    of at most CURVE_CHUNK curves is reduced in array passes: its point
    counts (for a seeded chunk, those of the passes that tested its draws),
    one Newton pass to its P_C, and one Taylor table product per condition;
    on_sample sees the curves in stream order."""
    _check_genus(g)
    _check_workers(workers)
    # q >= 3, so q^g > MAX_RING_SIZE whenever g exceeds the cap's bit length,
    # and the power is only computed when it is small
    if g > MAX_RING_SIZE.bit_length() or q**g > MAX_RING_SIZE:
        raise ValueError(
            f"genus g = {g} with q = {q} counts points over F_{{{q}^{g}}}, "
            f"above MAX_RING_SIZE = {MAX_RING_SIZE} elements"
        )
    if exhaustive:
        chunks = ((fs, point_counts(fs, q, g)) for fs in _census(q, 2 * g + 1))
    else:
        chunks = (
            _draw_curves(q, g, pieces)
            for pieces in joined_pieces("cokernel-lab-curves", seed, trials, workers, CURVE_CHUNK)
        )
    tally = Counter()
    for fs, counts in chunks:
        char_polys = char_polys_from_counts(counts, q, g)
        reduced = char_polys % l
        mults = np.empty((len(fs), len(polys)), dtype=np.int64)
        for column, p in enumerate(polys):
            mults[:, column] = _multiplicities(reduced, p, g)
        keys = list(map(tuple, mults.tolist()))
        tally.update(keys)
        if on_sample is not None:
            for f, char_poly, key in zip(fs.tolist(), char_polys.tolist(), keys):
                on_sample(CurveSample(tuple(f), tuple(char_poly)), key)
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
        trials=total,
        hits=hits,
        empirical=emp,
        predicted=predicted,
        std_error=sqrt(emp * (1 - emp) / total),
        hypothesis_eta_gt_half=divisor_density_hypothesis(l, conds),
        prediction_applies_at_q=prediction_applies_at_q(l, conds, q),
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
    """The 2x2 contingency table of the two divisibility events (row 0 where
    a holds, column 0 where b holds) with its total, the joint and the two
    marginal frequencies, and the joint-vs-product gap with its
    delta-method standard error."""
    conds = validate_conditions(l, q, [cond_a, cond_b])
    (pa, ma), (pb, mb) = conds
    table = [[0, 0], [0, 0]]
    tally = _tally(l, [pa, pb], q, g, trials, seed, workers, exhaustive)
    for (mult_a, mult_b), count in tally.items():
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
    return {
        "table": table,
        "trials": total,
        "joint": p11,
        "marginal_a": p_a,
        "marginal_b": p_b,
        "gap": gap,
        "gap_std_error": se,
    }
