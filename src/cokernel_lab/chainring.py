"""The one finite-ring layer, shared by the counting, sampling and curve
layers, and the oracles that check the closed forms in modules.

Every local ring F_l[X]/(p^e) is a chain ring with uniformizer p: each
element has one p-adic expansion sum_{i<e} c_i(X) p^i with deg c_i < deg p.
This module holds one table of the powers of X written in those p-adic
digits.  It gives the multiplication tensor of each local ring
(LocalTables) and, for e = 1, the digits, structure constants and Frobenius
map of each field F_{l^d} (field_products), which the point counting of
curves reads, and the powers of Y in F_l[Y]/(P) that the curves' Taylor
table of a condition P is built from.  LocalTables classifies cokernels for
every local ring by a valuation elimination on the p-adic digits, batched
over the draws, which moves each draw's pivot to the front, so that the
next matrix, the pivot row and its column are slices of the array, and
reads the pivot row's products off one 2-D matmul.  The independent oracles
for the closed forms in modules run on the same tables: a canonical-form
enumeration of submodules, whose candidates from every pivot profile are
typed by that elimination in chunks that may cross from one profile into
the next; element-level brute-force counters, on which an element is one
integer code, the base-l number of all its chain digits, so that addition,
multiplication by p and the cyclic submodules R g are table lookups and a
submodule is a frozenset of codes, built as a sum of cyclic submodules; and
a brute-force |Aut| by determinants over F_l, which walks only the slots
outside the last column when the last part is 1 and tests that column's
cofactors.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations, permutations, product
from math import prod

import numpy as np

from .algebra import LocalRingSpec, Poly, find_irreducible
from .modules import MAX_MODULE_SIZE, Partition

__all__ = [
    "MAX_RING_SIZE",
    "field_products",
    "LOCAL_RING_CAP",
    "LocalTables",
    "local_tables_for",
    "ORACLE_ELEMENT_CAP",
    "enumerate_submodules_chain",
    "bfs_submodules",
    "brute_hom_count",
    "brute_surj_count",
    "MAX_AUT_ENDOMORPHISMS",
    "brute_force_aut_order",
]


MAX_RING_SIZE = 13**4
# local rings of this many elements or more are refused: their codes are
# drawn and decoded in int64
LOCAL_RING_CAP = 2**63
# LocalTables.coordinates gathers from tables of at most this many rows,
# unless l alone is larger
COORD_TABLE_ROWS = 2**13


def field_products(l: int, d: int):
    """F_{l^d} = F_l[X]/(f), f = find_irreducible(l, d), as three int64
    arrays: digits, of shape (Q, d), the base-l digits of every code, low
    first; structure, of shape (d d, d), the digits of X^a X^b = X^(a+b) in
    row a d + b, so that x y has the digits sum_ab x_a y_b structure[a d + b]
    mod l; and frobenius, of shape (Q,), the code of x^l at each code x:
    x^l = sum_j x_j X^(jl), since x_j^l = x_j.  They serve point counting
    over F_{q^d}, all read off the digits of X^k mod f, and are not kept
    here: curves._orbit_tables caches what it builds from them.  A field
    above MAX_RING_SIZE is refused before f is sought."""
    _refuse_above_cap(l, d)
    powers = _x_power_digits(find_irreducible(l, d), 1, max(2 * d - 1, l * (d - 1) + 1))
    place = l ** np.arange(d)
    digits = np.arange(l**d)[:, None] // place % l
    structure = powers[np.add.outer(range(d), range(d)).ravel()]
    frobenius = digits @ powers[l * np.arange(d)] % l @ place
    return digits, structure, frobenius


def _refuse_above_cap(l: int, d: int) -> None:
    if l**d > MAX_RING_SIZE:
        raise ValueError(
            f"F_{l}[X]/(f) with deg f = {d} has {l}^{d} = {l**d} elements, "
            f"above MAX_RING_SIZE = {MAX_RING_SIZE}"
        )


def _x_power_digits(p: Poly, e: int, count: int):
    """An array whose row k < count holds the p-adic digits of X^k mod p^e:
    the coefficients of the c_i(X) in X^k = sum_i c_i(X) p^i, deg c_i < d =
    deg p, as digit i d + j.  Its rows are int64 when (l-1)^2 < 2^63, so
    that each product of two digits fits, and Python ints (dtype object)
    above that, as for the primes near 2^40 that a condition may have.

    Each row is X times the one before: X c_i = a_i p + (X c_i - a_i p),
    a_i the top digit of c_i, so every block moves up one digit, takes a_i
    times p - X^d off, and carries a_i into the constant digit of the next
    block; the carry out of the last block is a multiple of p^e."""
    l, d = p.l, p.degree
    dtype = np.int64 if (l - 1) ** 2 < 2**63 else object
    low = np.array(p.coeffs[:d], dtype=dtype)
    rows = np.zeros((count, e, d), dtype=dtype)
    rows[0, 0, 0] = 1
    for k in range(1, count):
        top = rows[k - 1, :, -1:]
        carry = np.concatenate([[[0]], top[:-1]])
        rows[k] = (np.concatenate([carry, rows[k - 1, :, :-1]], axis=1) - top * low) % l
    return rows.reshape(count, d * e)


class LocalTables:
    """Cokernel classification over one local ring R = F_l[X]/(p^e) whose
    residue field has at most MAX_RING_SIZE elements, by valuation
    elimination on p-adic digits batched over the draws.

    An element is held as its m = d e digits over F_l in the basis
    {X^j p^i}, digit i d + j: the coefficients of its p-adic expansion
    sum_{i<e} c_i(X) p^i, deg c_i < d.  A nonzero c_i is prime to p, so a
    unit, and the valuation of an element is the index of its first nonzero
    block of d digits.  The row k of to_chain holds the digits of X^k.

    A code of R, the base-l number of the digits of its residue polynomial,
    is cut into K chunks of c base-l digits, c the largest for which
    l^c <= COORD_TABLE_ROWS (at least 1).  The table chunk_tables[k],
    of shape (l^c, m) in the float dtype that the elimination reads, holds
    for every value x of chunk k the chain digits of the code x l^(c k),
    its base-l digits times to_chain mod l, so the chain digits of a code
    are the sum of K gathered rows mod l, below K l and so exact, and a
    single gather, never cast, when K = 1, as on every ring of <= 2^13 elements.

    The digits are floats, so that the products run as BLAS matmuls, in
    the one dtype that __init__ derives from the ring.  The largest sums are
    those of b * (pivot row) in _partitions, which reduces them only after
    the subtraction: m terms, each a digit below l times a sum of m products
    of two digits, so below m^2 (l-1)^3; every term of every matmul is a
    product of nonnegative integers, so each partial sum is an integer no
    larger than the whole.  The dtype is float32 when m^2 (l-1)^3 < 2^20,
    the bound that _reduce needs in float32, as for F_3[X]/(X^39), so that
    the elimination moves half the bytes, and float64 otherwise, as for
    F_103: with l <= 28559 and l^m < LOCAL_RING_CAP the sums stay below the
    2^49 that _reduce needs in float64, their largest at l = 28559, m = 4.
    """

    def __init__(self, spec: LocalRingSpec):
        l, d, e = spec.l, spec.residue_degree, spec.e
        _refuse_above_cap(l, d)
        if spec.size >= LOCAL_RING_CAP:
            raise ValueError(
                f"local ring of {l}^{d * e} elements is not below "
                f"LOCAL_RING_CAP = 2^63"
            )
        self.l, self.d, self.e = l, d, e
        self.m = m = d * e
        self.dtype = np.dtype(np.float32 if m * m * (l - 1) ** 3 < 2**20 else np.float64)
        # the products read the rows X^(a+b), a, b < d
        powers = _x_power_digits(spec.p, e, max(m, 2 * d - 1))
        self.to_chain = powers[:m]
        c = 1
        while l ** (c + 1) <= COORD_TABLE_ROWS:
            c += 1
        self.chunk_tables = []
        for k in range(0, m, c):
            table = np.zeros((1, m), self.dtype)
            for row in self.to_chain[k : k + c]:
                # table[y l^j + x] = y * row + table[x] mod l, for the next
                # code digit y
                multiples = (np.arange(l)[:, None] * row % l).astype(self.dtype)
                table = (multiples[:, None] + table).reshape(-1, m)
                table[table >= l] -= l
            self.chunk_tables.append(table)
        # times[x, y] holds the digits of the product of basis elements x and
        # y: X^a p^i * X^b p^k = X^(a+b) p^(i+k), the digits of X^(a+b)
        # shifted up by i + k blocks and truncated at m
        times = np.zeros((m, m, m), self.dtype)
        for a, b in product(range(d), repeat=2):
            for i, k in product(range(e), repeat=2):
                if i + k < e:
                    s = (i + k) * d
                    times[i * d + a, k * d + b, s:] = powers[a + b, : m - s]
        self.times = times.reshape(m, m * m)

    def coordinates(self, codes):
        """Chain digits of codes of R: an array of self.dtype with one more
        axis, of length m, gathered from the chunk tables (by take, several
        times faster here than indexing with the code array)."""
        *low, top = self.chunk_tables
        if not low:
            return top.take(codes, axis=0)
        out = self.dtype.type(0)
        for table in low:
            codes, chunk = np.divmod(codes, len(table))
            out = out + table.take(chunk, axis=0)
        return _reduce(out + top.take(codes, axis=0), self.l)

    def coker_partition(self, codes) -> list[tuple]:
        """Partition of coker of each n x n code matrix in the array
        (B, n, n), parts descending, classified in chunks of draws whose
        arrays hold about 2^18 entries at most."""
        batch, n, _ = codes.shape
        step = self._chunk(n)
        out = []
        for start in range(0, batch, step):
            out += self._partitions(self.coordinates(codes[start : start + step]))
        return out

    def _chunk(self, n: int) -> int:
        """Draws of n x n matrices per chunk, so that the arrays of the
        elimination hold about 2^18 entries at most."""
        return max(1, (1 << 18) // (n * self.m * max(n, self.m)))

    def _partitions(self, A) -> list[tuple]:
        """Partitions of the cokernels of the matrices of chain digits A
        (B, n, n, m), which the elimination overwrites.  Each step takes in
        each draw an entry u p^v of least valuation as its pivot, adds the
        part v, and moves the pivot to (0, 0): column 0 into the pivot's
        column, then row 0 into the pivot's row, which leaves the cokernel's
        type unchanged.  It then replaces every other row by
        u * row - b * (pivot row), where b p^v is the row's entry in the
        pivot's column, and drops row 0 and column 0, so the next matrix is
        read off the slice A[:, 1:, 1:]: scaling a row by the unit u leaves
        the cokernel unchanged, and the pivot row is then cleared by column
        operations that touch nothing else.  Laid out digit-major, a draw's
        first nonzero digit lies in the block of the least valuation v, at
        an entry of valuation v (v = e if there is none), so one argmax
        finds the pivot and its v; only a step in which some pivot has
        v > 0 divides u and b by p^v.  b * (pivot row) is two products: the
        pivot row's entries times every basis element, one 2-D matmul,
        which the draw's b then combines in one batched matmul; those sums
        are reduced mod l only after the subtraction."""
        l, d, e, m = self.l, self.d, self.e, self.m
        batch, n = A.shape[:2]
        draws = np.arange(batch)
        vals = []
        for r in range(n, 0, -1):
            digits = A.reshape(batch, r * r, m).transpose(0, 2, 1)
            nonzero = np.not_equal(digits, 0, order="C").reshape(batch, -1)
            first = nonzero.argmax(axis=1)
            v = np.where(nonzero[draws, first], first // (r * r * d), e)
            vals.append(v)
            if r == 1:
                break
            pi, pj = np.divmod(first % (r * r), r)
            u = A[draws, pi, pj]
            column = A[draws, :, pj]
            A[draws, :, pj] = A[:, :, 0]
            row = A[draws, pi, 1:]
            column[draws, pi] = column[:, 0]
            A[draws, pi] = A[:, 0]
            b = column[:, 1:]
            if v.any():
                # x / p^v for x of valuation >= v: its digits below v d are
                # zero, so a cyclic shift by v d digits brings zeros in at
                # the top
                down = (np.arange(m) + v[:, None] * d) % m
                u = np.take_along_axis(u, down, axis=-1)
                b = np.take_along_axis(b, down[:, None], axis=-1)
            times_u = _reduce(u @ self.times, l).reshape(batch, m, m)
            # times_row[draw, x, j m + z]: digit z of basis element x times
            # the pivot row's entry j, since times is symmetric in its factors
            times_row = (row.reshape(-1, m) @ self.times).reshape(batch, r - 1, m, m)
            times_row = times_row.transpose(0, 2, 1, 3).reshape(batch, m, -1)
            A = A[:, 1:, 1:].reshape(batch, -1, m) @ times_u
            A -= (b @ times_row).reshape(A.shape)
            A = _reduce(A, l).reshape(batch, r - 1, r - 1, m)
        parts = -np.sort(-np.stack(vals, axis=1), axis=1)
        sizes = np.count_nonzero(parts, axis=1).tolist()
        return [tuple(p[:k]) for p, k in zip(parts.tolist(), sizes)]


def _reduce(x, l: int):
    """x mod l, in place, for a float array of integers with l < 2^15 and
    |x| < 2^(t-4), t the dtype's significand bits: 2^49 in float64 (t = 53),
    2^20 in float32 (t = 24).  x / l is then within |x / l| 2^-t < 2^-4 / l
    of k + f/l with 0 <= f < l, and f/l is 0 (then x / l is exact) or at
    least 1/l from an integer, so floor(x / l) is exact.  np.remainder gives
    the same but takes several times longer."""
    q = x / l
    np.floor(q, out=q)
    q *= l
    x -= q
    return x


@lru_cache(maxsize=None)
def local_tables_for(spec: LocalRingSpec) -> LocalTables:
    return LocalTables(spec)


# perfbench's _run_bfs reaches the oracles' tables under this name
chain_ring_for = local_tables_for


# The element-level oracles list every element of the module they read and
# tabulate R/(p^top) twice over, top its largest part.  The largest module
# that the tests, verify and perfbench give them has 9^3 = 729 elements:
# type (2, 1) over F_9[t]/(t^2).
ORACLE_ELEMENT_CAP = 3**6


def _refuse_parts_outside(ring: LocalTables, lam: tuple) -> None:
    """The oracles read a type lam as ⊕_c R/(p^lam[c]), so every part must
    lie in 1..e."""
    for part in lam:
        if not 1 <= part <= ring.e:
            raise ValueError(f"type {tuple(lam)} has part {part} outside 1..e, e = {ring.e}")


def _refuse_above(ring: LocalTables, lam: tuple, cap: int) -> None:
    size = ring.l ** (ring.d * sum(lam))
    if size > cap:
        raise ValueError(f"module of size {size} exceeds the cap {cap}")


def _vector_space_submodule_counts(Q: int, k: int) -> dict:
    """Subspace counts of F_Q^k grouped by dimension, via reduced-echelon
    pivot profiles: a pivot set S contributes one free field entry for every
    (pivot column, later non-pivot column) pair."""
    counts = {}
    for r in range(k + 1):
        # pivot i, at column c, has k - 1 - c later columns, r - 1 - i of them pivots
        free = (sum(k - c - r + i for i, c in enumerate(p)) for p in combinations(range(k), r))
        counts[(1,) * r] = sum(Q**f for f in free)
    return counts


def _span_types(ring: LocalTables, A) -> list[tuple]:
    """Isomorphism types of the row spans of the n x n matrices of chain
    digits A (B, n, n, m), parts descending.  The elimination of _partitions
    keeps the row span up to an automorphism of R^n and ends with the span
    ⊕_i p^(v_i) R ≅ ⊕_i R/(p^(e - v_i)) over its n pivot valuations v_i, of
    which it returns the nonzero ones, descending: v = 0 gives a part e, and
    v = e none."""
    e, n = ring.e, A.shape[1]
    return [
        (e,) * (n - len(coker)) + tuple(e - v for v in reversed(coker) if v < e)
        for coker in ring._partitions(A)
    ]


def enumerate_submodules_chain(ring: LocalTables, ambient: tuple) -> dict:
    """All submodules of the ambient module ⊕_c R/(p^ambient[c]), grouped by
    isomorphism type (partition tuple), with exact multiplicities.

    Submodules correspond bijectively to canonical row sets: one row per
    pivot coordinate c with pivot p^{v_c}, later entries reduced modulo
    p^{v_{c'}} (modulo p^{ambient[c']} at non-pivot coordinates), subject to
    the closure condition that p^{ambient[c]-v_c} times each row lies in the
    span of the later rows.  An entry reduced modulo p^n is one whose chain
    digits from block n on are zero, so every lower digit runs over F_l.
    The combinations sum_c a_c row_c, a_c over the residues of R modulo
    p^(ambient[c] - v_c), are Q^(sum_c (ambient[c] - v_c)) distinct elements
    of the span, and they are the whole span exactly when the closure
    condition holds.  So the span's type decides each candidate, by its
    size, and gives its type.

    Multiplying coordinate c by p^(e - ambient[c]) embeds the ambient module
    in R^k, so the candidates are built as k x k matrices of chain digits,
    padded with zero rows.  Every pivot profile's candidates are numbered in
    turn, and each chunk of LocalTables._chunk(k) consecutive numbers, which
    may span several profiles, is typed by one _span_types call, each
    candidate against the size of its own profile.
    """
    _refuse_parts_outside(ring, ambient)
    _refuse_above(ring, ambient, MAX_MODULE_SIZE)
    k = len(ambient)
    if k == 0:
        return {(): 1}
    l, d, e, m = ring.l, ring.d, ring.e, ring.m
    # kept: without it 5 of exact-queries' 8 BFS cases take the general path, op_p90 +35 %
    if all(a == 1 for a in ambient):
        return _vector_space_submodule_counts(l**d, k)
    # per profile: its span size, and its pivot entries and its free entries
    # as (row, column, chain digit) index arrays
    profiles = []
    for v in product(*(list(range(lam)) + [None] for lam in ambient)):
        active = [c for c in range(k) if v[c] is not None]
        size = sum(ambient[c] - v[c] for c in active)
        pivots = [(r, c, (v[c] + e - ambient[c]) * d) for r, c in enumerate(active)]
        free = []
        for r, c in enumerate(active):
            for c2 in range(c + 1, k):
                n = ambient[c2] if v[c2] is None else v[c2]
                low = (e - ambient[c2]) * d
                free += [(r, c2, low + i) for i in range(n * d)]
        pivots = np.array(pivots, dtype=np.intp).reshape(-1, 3).T
        free = np.array(free, dtype=np.intp).reshape(-1, 3).T
        profiles.append((size, tuple(pivots), tuple(free)))
    # candidate number starts[i] + x is the code x of profile i, whose base-l
    # digits fill its free entries
    starts = list(accumulate((l ** len(free[0]) for *_, free in profiles), initial=0))
    step = ring._chunk(k)
    counts = Counter()
    for lo in range(0, starts[-1], step):
        hi = min(lo + step, starts[-1])
        A = np.zeros((hi - lo, k, k, m), ring.dtype)
        sizes = np.empty(hi - lo, dtype=np.int64)
        for (size, pivots, free), first, end in zip(profiles, starts, starts[1:]):
            if end <= lo or first >= hi:
                continue
            a, b = max(lo, first), min(hi, end)
            part = A[a - lo : b - lo]
            part[(slice(None),) + pivots] = 1
            codes = np.arange(a - first, b - first)
            part[(slice(None),) + free] = codes[:, None] // l ** np.arange(len(free[0])) % l
            sizes[a - lo : b - lo] = size
        counts.update(t for t, size in zip(_span_types(ring, A), sizes.tolist()) if sum(t) == size)
    return dict(counts)


def _element_tables(ring: LocalTables, ambient: tuple):
    """The tables of the element-level oracles for ⊕_c R/(p^ambient[c]),
    after their refusals, on element codes: add, N lists of N codes with
    add[a][b] the code of a + b; cyclic, N frozensets with cyclic[g] the
    cyclic submodule R g; and times_p, N codes with times_p[x] the code of
    p x.  N is the size of the module, at most ORACLE_ELEMENT_CAP.

    A coordinate of R/(p^lam) is coded by the base-l number of its chain
    digits, sum_i Q^i (block i), so that x mod p^lam is x % Q^lam and p x
    is x Q % Q^lam.  An element is the base-l number of all its chain
    digits, its coordinates in mixed radix with the last coordinate lowest,
    so the codes run in the lexicographic order of the coordinates.
    Addition adds the digits mod l.  The products r x_c, r over R/(p^top),
    top the largest part, are read off the product table of R/(p^top),
    whose products keep the digits below block top of the products in R,
    the first top d digits of the tensor times."""
    _refuse_parts_outside(ring, ambient)
    _refuse_above(ring, ambient, ORACLE_ELEMENT_CAP)
    l, d, m = ring.l, ring.d, ring.m
    Q = l**d
    mods = np.array([Q**lam for lam in ambient], dtype=np.int64)
    # place[c] = prod_{c' > c} mods[c']
    place = np.ones_like(mods)
    place[:-1] = np.cumprod(mods[:0:-1])[::-1]
    size = int(np.prod(mods))
    codes = np.arange(size)
    digits = codes[:, None] // l ** np.arange(d * sum(ambient)) % l
    add = np.zeros((size, size), dtype=np.int64)
    for i, column in enumerate(digits.T):
        add += np.add.outer(column, column) % l * l**i
    coords = codes[:, None] // place % mods
    n = d * max(ambient, default=1)
    ring_digits = np.arange(l**n)[:, None] // l ** np.arange(n) % l
    times = ring.times.reshape(m, m, m)[:n, :n, :n].astype(np.int64)
    # mul[r, x] is the code of r x in R/(p^top): by_r[r] maps the digits of
    # x to those of r x, before the reduction
    by_r = np.tensordot(ring_digits, times, 1)
    mul = ring_digits @ by_r % l @ l ** np.arange(n)
    cyclic = mul[:, coords] % mods @ place
    times_p = coords * Q % mods @ place
    return add.tolist(), list(map(frozenset, cyclic.T.tolist())), times_p.tolist()


def _module_sum(add, span: frozenset, cyclic: frozenset) -> frozenset:
    """The submodule span + cyclic, read off the addition table as a union
    of cosets b + span, one for each b of cyclic that the cosets so far
    miss."""
    total = set(span)
    for b in cyclic:
        if b not in total:
            total.update(map(add[b].__getitem__, span))
    return frozenset(total)


def bfs_submodules(ring: LocalTables, ambient: tuple) -> dict:
    """Element-level submodule enumeration, an independent oracle for the
    canonical enumeration.

    A submodule is the sum of the cyclic submodules R g it contains, so the
    sums of the subsets of the distinct cyclic submodules are every
    submodule.  They are built by summing in one cyclic submodule at a time:
    after C_1, ..., C_j the set holds the sums of the subsets of those j.
    A submodule is a frozenset of element codes.  It keeps the name of the
    breadth-first walk it replaced, because perfbench, its tracer and the
    verify check submodule-census-bfs call it by that name."""
    add, cyclic, times_p = _element_tables(ring, ambient)
    subs = {frozenset({0})}
    for c in set(cyclic):
        subs |= {_module_sum(add, s, c) for s in subs if not c <= s}
    return dict(Counter(_set_type(ring.l**ring.d, times_p, s) for s in subs))


def _set_type(Q: int, times_p, span) -> tuple:
    """The type of a submodule M, given as a set of element codes, from its
    layer sizes logs[i] = log_Q |p^i M|, listed until p^i M = 0:
    logs[i] - logs[i+1] counts the parts above i, so the nonzero
    differences form the conjugate partition."""
    logs = []
    cur = span
    while len(cur) > 1:
        s = 0
        while Q**s < len(cur):
            s += 1
        logs.append(s)
        cur = set(map(times_p.__getitem__, cur))
    diffs = (a - b for a, b in zip(logs, logs[1:] + [0]))
    return Partition(tuple(x for x in diffs if x)).conjugate().parts


def _killed_by(times_p, order: int) -> list:
    """Codes of the elements killed by p^order."""
    images = list(range(len(times_p)))
    for _ in range(order):
        images = [times_p[x] for x in images]
    return [x for x, y in enumerate(images) if y == 0]


def brute_hom_count(ring: LocalTables, lam_m: tuple, lam_a: tuple) -> int:
    """Homomorphisms M -> A, counted as the choices of an image killed by
    p^lam_m[j] for each generator of M."""
    _refuse_parts_outside(ring, lam_m)
    times_p = _element_tables(ring, lam_a)[2]
    return prod(len(_killed_by(times_p, mj)) for mj in lam_m)


def brute_surj_count(ring: LocalTables, lam_m: tuple, lam_a: tuple) -> int:
    """Surjections M -> A, counted over every homomorphism by the span of
    the generators' images, the sum of their cyclic submodules; at most
    ORACLE_ELEMENT_CAP homomorphisms are walked."""
    _refuse_parts_outside(ring, lam_m)
    add, cyclic, times_p = _element_tables(ring, lam_a)
    image_sets = [_killed_by(times_p, mj) for mj in lam_m]
    homs = prod(len(images) for images in image_sets)
    if homs > ORACLE_ELEMENT_CAP:
        raise ValueError(f"{homs} homomorphisms exceed the cap {ORACLE_ELEMENT_CAP}")
    count = 0
    for images in product(*image_sets):
        span = frozenset({0})
        for g in images:
            span = _module_sum(add, span, cyclic[g])
        if len(span) == len(add):
            count += 1
    return count


# slot assignments whose minors are expanded in one numpy batch
_AUT_CHUNK = 1 << 18
# the most endomorphisms, l^P for a type of P slots, that brute_force_aut_order
# admits: the 3^16 of type (1, 1, 1, 1) over F_3, the largest case of
# acceptance criterion 3.  It bounds l^P, though the walk covers only the
# l^(P - s) assignments of the slots outside the cofactor column.
MAX_AUT_ENDOMORPHISMS = 3**16


def brute_force_aut_order(l: int, lam: tuple) -> int:
    """Count automorphisms of ⊕_j F_l[t]/(t^lam[j]) as the endomorphisms
    whose matrix on an F_l basis has a determinant nonzero mod l.

    The basis is {t^i g_j}; an endomorphism is determined by the generator
    images, whose coordinates at g_j2 range over t^{max(0, lam_j2 - lam_j)}
    times the local quotient, P slots over F_l in all.  When the last part
    is 1, the image of its generator fills the last column of the matrix
    alone, one slot per summand, s = len(lam) in all, so the determinant is
    linear in those s slots with the column's cofactors as coefficients.
    The walk then runs over the l^(P - s) assignments of the other slots,
    and each whose cofactor vector is nonzero mod l counts the
    l^s - l^(s-1) column values off the hyperplane it defines; otherwise
    s = 0 and the walk tests the determinant itself.  No |Aut| formula is
    used.  Determinants are expanded by permutations, so the total F_l
    dimension must stay small, and a type with more than
    MAX_AUT_ENDOMORPHISMS endomorphisms is refused before any permutation
    is listed.
    """
    lam = tuple(sorted(lam, reverse=True))
    m = sum(lam)
    if m == 0:
        return 1
    if m > 5:
        raise ValueError("brute-force determinant expansion capped at dimension 5")
    base_idx = {}
    for j, part in enumerate(lam):
        for i in range(part):
            base_idx[(j, i)] = len(base_idx)
    slots = []
    for j, lj in enumerate(lam):
        for j2, lj2 in enumerate(lam):
            for s in range(max(0, lj2 - lj), lj2):
                slots.append((j, j2, s))
    P = len(slots)
    if l**P > MAX_AUT_ENDOMORPHISMS:
        raise ValueError(
            f"type {lam} over F_{l} has {l}^{P} endomorphisms, above "
            f"MAX_AUT_ENDOMORPHISMS = 3^16"
        )
    # the slot at each filled (row, column) entry of the matrix
    slot_at = {}
    for idx, (j, j2, shift) in enumerate(slots):
        for i in range(lam[j]):
            if shift + i < lam[j2]:
                slot_at[base_idx[(j2, shift + i)], base_idx[(j, i)]] = idx
    # the slots of the last generator come last; for a part 1 they are the
    # last column, and its cofactors are the minors off that column (their
    # signs do not change whether the vector is zero)
    s = len(lam) if lam[-1] == 1 else 0
    if s:
        minors = [
            [r for r in range(m) if r != row] for row, col in slot_at if col == m - 1
        ]
    else:
        minors = [list(range(m))]
    # each minor as (sign, slots) terms: a term is nonzero only on the
    # permutations that the slots fill, and its sign is the parity of the
    # permutation's inversions
    expansions = []
    for rows in minors:
        terms = []
        for p in permutations(range(len(rows))):
            entries = [(r, p[a]) for a, r in enumerate(rows)]
            if all(entry in slot_at for entry in entries):
                sign = (-1) ** sum(a > b for a, b in combinations(p, 2))
                terms.append((sign, [slot_at[entry] for entry in entries]))
        expansions.append(terms)
    walk = l ** (P - s)
    count = 0
    for off in range(0, walk, _AUT_CHUNK):
        # entries < l, so each term is below l^m <= l^P <= 3^16 and a minor,
        # at most 5! terms, stays far inside int64
        codes = np.arange(off, min(off + _AUT_CHUNK, walk), dtype=np.int64)
        digits = [codes // l**idx % l for idx in range(P - s)]
        invertible = np.zeros(len(codes), dtype=bool)
        for terms in expansions:
            det = np.zeros(len(codes), dtype=np.int64)
            for sign, idxs in terms:
                det += sign * prod(digits[idx] for idx in idxs)
            invertible |= det % l != 0
        count += int(np.count_nonzero(invertible))
    return count * (l**s - l ** (s - 1) if s else 1)

