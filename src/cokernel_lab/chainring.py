"""Chain-ring machinery shared by the counting, sampling and curve layers.

Every local ring F_l[X]/(p^e) is a chain ring with uniformizer p: each
element has one p-adic expansion sum_{i<e} c_i(X) p^i with deg c_i < deg p.
This module provides the one finite-ring layer: the powers of X written in
those p-adic digits, which give the multiplication tensor of each local
ring and, for e = 1, the digits, structure constants and Frobenius map of
each field F_{l^d} (field_products), which the point counting of curves
and the residue fields of the ChainRing oracle both read; the cokernel
classifier (valuation elimination on the p-adic digits, batched over the
draws, for every local ring); and the independent oracles for the closed
forms in modules: exact arithmetic on F_Q[t]/(t^e), Q = l^deg(p), a
canonical-form enumeration of submodules, a BFS lattice walk and
element-level brute-force counters.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product

import numpy as np

from .algebra import LocalRingSpec, Poly, find_irreducible
from .modules import Partition

__all__ = [
    "MAX_RING_SIZE",
    "field_products",
    "ChainRing",
    "chain_ring_for",
    "enumerate_submodules_chain",
    "LOCAL_RING_CAP",
    "LocalTables",
    "local_tables_for",
    "bfs_submodules",
    "brute_hom_count",
    "brute_surj_count",
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
    over F_{q^d} and the residue fields of the ChainRing oracle, all read off
    the digits of X^k mod f, and are not kept here: chain_ring_for and
    curves._orbit_tables cache what they build from them.  A field above
    MAX_RING_SIZE is refused before f is sought."""
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
    """An int64 array whose row k < count holds the p-adic digits of X^k
    mod p^e: the coefficients of the c_i(X) in X^k = sum_i c_i(X) p^i,
    deg c_i < d = deg p, as digit i d + j.

    Each row is X times the one before: X c_i = a_i p + (X c_i - a_i p),
    a_i the top digit of c_i, so every block moves up one digit, takes a_i
    times p - X^d off, and carries a_i into the constant digit of the next
    block; the carry out of the last block is a multiple of p^e."""
    l, d = p.l, p.degree
    low = np.array(p.coeffs[:d])
    rows = np.zeros((count, e, d), dtype=np.int64)
    rows[0, 0, 0] = 1
    for k in range(1, count):
        top = rows[k - 1, :, -1:]
        carry = np.concatenate([[[0]], top[:-1]])
        rows[k] = (np.concatenate([carry, rows[k - 1, :, :-1]], axis=1) - top * low) % l
    return rows.reshape(count, d * e)


class ChainRing:
    """F_Q[t]/(t^e) with Q = l^d: elements are length-e tuples of F_Q codes,
    low first, added and multiplied through F_Q code tables."""

    def __init__(self, l: int, d: int, e: int):
        self.Q = l**d
        self.e = e
        self.zero = (0,) * e
        digits, structure, _ = field_products(l, d)
        powers = l ** np.arange(d)
        # field_sub[a][b] is the code of a - b, field_mul[a][b] of a b
        self.field_sub = ((digits[:, None] - digits[None]) % l @ powers).tolist()
        self.field_neg = (-digits % l @ powers).tolist()
        pairs = (digits[:, None, :, None] * digits[None, :, None]).reshape(-1, d * d)
        self.field_mul = (pairs @ structure % l @ powers).reshape(self.Q, -1).tolist()

    def elements(self):
        return [tuple(reversed(t)) for t in product(range(self.Q), repeat=self.e)]

    def add(self, x, y):
        sub, neg = self.field_sub, self.field_neg
        return tuple(sub[a][neg[b]] for a, b in zip(x, y))

    def sub(self, x, y):
        sub = self.field_sub
        return tuple(sub[a][b] for a, b in zip(x, y))

    def mul(self, x, y):
        sub, neg, mul = self.field_sub, self.field_neg, self.field_mul
        out = [0] * self.e
        for i, xi in enumerate(x):
            if xi:
                # out + xi * y, as out - (-xi) * y
                row = mul[neg[xi]]
                for j in range(self.e - i):
                    yj = y[j]
                    if yj:
                        out[i + j] = sub[out[i + j]][row[yj]]
        return tuple(out)

    def shift_up(self, x, i: int):
        if i == 0:
            return x
        if i >= self.e:
            return self.zero
        return (0,) * i + x[: self.e - i]

    def shift_down(self, x, i: int):
        if i == 0:
            return x
        return x[i:] + (0,) * i


@lru_cache(maxsize=None)
def chain_ring_for(spec: LocalRingSpec) -> ChainRing:
    return ChainRing(spec.l, spec.residue_degree, spec.e)


def _trunc(x, lam: int):
    if lam >= len(x):
        return x
    return x[:lam] + (0,) * (len(x) - lam)


def _vector_space_submodule_counts(Q: int, k: int) -> dict:
    """Subspace counts of F_Q^k grouped by dimension, via reduced-echelon
    pivot profiles: a pivot set S contributes one free field entry for every
    (pivot column, later non-pivot column) pair."""
    counts = {}
    for r in range(k + 1):
        total = 0
        for pivots in combinations(range(k), r):
            pivot_set = set(pivots)
            free = sum(
                sum(1 for c2 in range(c + 1, k) if c2 not in pivot_set)
                for c in pivots
            )
            total += Q**free
        counts[(1,) * r if r else ()] = total
    return counts


def _refuse_parts_outside(ring: ChainRing, lam: tuple) -> None:
    """The oracles read a type lam as ⊕_c C/(t^lam[c]) over C = F_Q[t]/(t^e),
    so every part must lie in 1..e."""
    for part in lam:
        if not 1 <= part <= ring.e:
            raise ValueError(f"type {tuple(lam)} has part {part} outside 1..e, e = {ring.e}")


def _span_type(rows, ambient, ring: ChainRing) -> tuple:
    """Isomorphism type of the span of the rows inside ⊕_c C/(t^ambient[c]),
    C = F_Q[t]/(t^e), parts descending.

    Multiplying coordinate c by t^(e - ambient[c]) embeds that module in C^k.
    There each step takes an entry u t^v of least valuation as its pivot,
    replaces each other row whose entry b t^v in the pivot's column is
    nonzero by u * row - b * (pivot row), and drops the pivot's row and
    column, until no row, no column or no nonzero entry is left.  The unit u
    keeps the row span, and the pivot row is then cleared by column
    operations, an automorphism of C^k, so the span is ⊕_i C/(t^(e - v_i)).
    v never falls, so the parts come out descending."""
    e = ring.e
    rows = [[ring.shift_up(x, e - lam) for x, lam in zip(r, ambient)] for r in rows]
    parts = []
    while rows and rows[0]:
        # the first nonzero digit, level by level, is an entry of least
        # valuation
        pivots = (
            (v, i, j)
            for v in range(e)
            for i, r in enumerate(rows)
            for j, x in enumerate(r)
            if x[v]
        )
        v, i, j = next(pivots, (e, 0, 0))
        if v == e:
            break
        parts.append(e - v)
        pivot = rows.pop(i)
        u = ring.shift_down(pivot.pop(j), v)
        for r in rows:
            b = ring.shift_down(r.pop(j), v)
            if b != ring.zero:
                r[:] = [ring.sub(ring.mul(u, x), ring.mul(b, y)) for x, y in zip(r, pivot)]
    return tuple(parts)


def enumerate_submodules_chain(ring: ChainRing, ambient: tuple) -> dict:
    """All submodules of the ambient module ⊕_c C/(t^ambient[c]), grouped by
    isomorphism type (partition tuple), with exact multiplicities.

    Submodules correspond bijectively to canonical row sets: one row per
    pivot coordinate c with pivot t^{v_c}, later entries reduced modulo
    t^{v_{c'}} (modulo t^{ambient[c']} at non-pivot coordinates), subject to
    the closure condition that t^{ambient[c]-v_c} times each row lies in the
    span of the later rows.  The combinations sum_c a_c row_c with a_c in
    F_Q[t], deg a_c < ambient[c] - v_c, are Q^(sum_c (ambient[c] - v_c))
    distinct elements of the span, and they are the whole span exactly when
    the closure condition holds.  So one _span_type per candidate decides it,
    by the size of the type, and gives its type.
    """
    _refuse_parts_outside(ring, ambient)
    k = len(ambient)
    if k == 0:
        return {(): 1}
    Q = ring.Q
    if all(a == 1 for a in ambient):
        return _vector_space_submodule_counts(Q, k)
    counts: dict = {}
    choices = [list(range(lam)) + [None] for lam in ambient]
    field_codes = list(range(Q))
    for v in product(*choices):
        active = [c for c in range(k) if v[c] is not None]
        size = sum(ambient[c] - v[c] for c in active)
        slots = []
        for c in active:
            for c2 in range(c + 1, k):
                n = ambient[c2] if v[c2] is None else v[c2]
                for pos in range(n):
                    slots.append((c, c2, pos))
        for assignment in product(field_codes, repeat=len(slots)):
            rows = {}
            for c in active:
                row = [ring.zero] * k
                row[c] = tuple(
                    1 if i == v[c] else 0 for i in range(ring.e)
                )
                rows[c] = row
            for (c, c2, pos), code in zip(slots, assignment):
                if code:
                    old = rows[c][c2]
                    rows[c][c2] = old[:pos] + (code,) + old[pos + 1 :]
            t = _span_type(list(rows.values()), ambient, ring)
            if sum(t) == size:
                counts[t] = counts.get(t, 0) + 1
    return counts


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
    of shape (l^c, m) in the smallest integer type that holds them, holds
    for every value x of chunk k the chain digits of the code x l^(c k),
    its base-l digits times to_chain mod l, so the chain digits of
    a code are the sum of K gathered rows mod l, and a single gather when
    K = 1, as for every ring of at most 2^13 elements.

    The digits are float64, so that the products run as BLAS matmuls.  A
    product sums m terms below l^2, and l < 2^15 (l^d <= MAX_RING_SIZE)
    and m < 40 (l >= 3 and l^m < LOCAL_RING_CAP), so every sum stays below
    2^36, far inside the 2^53 of exact float64 integers.
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
        # the products read the rows X^(a+b), a, b < d
        powers = _x_power_digits(spec.p, e, max(m, 2 * d - 1))
        self.to_chain = powers[:m]
        c = 1
        while l ** (c + 1) <= COORD_TABLE_ROWS:
            c += 1
        # the smallest integer type that holds a sum of two digits
        dtype = np.min_scalar_type(2 * (l - 1))
        self.chunk_tables = []
        for k in range(0, m, c):
            table = np.zeros((1, m), dtype)
            for row in self.to_chain[k : k + c]:
                # table[y l^j + x] = y * row + table[x] mod l, for the next
                # code digit y
                multiples = (np.arange(l)[:, None] * row % l).astype(dtype)
                table = (multiples[:, None] + table).reshape(-1, m)
                table[table >= l] -= l
            self.chunk_tables.append(table)
        # times[x, y] holds the digits of the product of basis elements x and
        # y: X^a p^i * X^b p^k = X^(a+b) p^(i+k), the digits of X^(a+b)
        # shifted up by i + k blocks and truncated at m
        times = np.zeros((m, m, m))
        for a, b in product(range(d), repeat=2):
            for i, k in product(range(e), repeat=2):
                if i + k < e:
                    s = (i + k) * d
                    times[i * d + a, k * d + b, s:] = powers[a + b, : m - s]
        self.times = times.reshape(m, m * m)

    def coordinates(self, codes):
        """Chain digits of codes of R: a float64 array with one more
        axis, of length m, gathered from the chunk tables."""
        *low, top = self.chunk_tables
        out = 0.0
        for table in low:
            codes, chunk = np.divmod(codes, len(table))
            out = out + table[chunk]
        if not low:
            return top[codes].astype(np.float64)
        return _reduce(out + top[codes], self.l)

    def coker_partition(self, codes) -> list[tuple]:
        """Partition of coker of each n x n code matrix in the array
        (B, n, n), parts descending, classified in chunks of draws whose
        arrays hold about 2^20 entries at most."""
        batch, n, _ = codes.shape
        step = max(1, (1 << 20) // (n * self.m * max(n, self.m)))
        out = []
        for start in range(0, batch, step):
            out += self._partitions(self.coordinates(codes[start : start + step]))
        return out

    def _partitions(self, A) -> list[tuple]:
        """Partitions of the cokernels of the matrices of chain digits A
        (B, n, n, m).  Each step takes in each draw an entry u p^v of least
        valuation as its pivot, adds the part v, replaces every other row by
        u * row - b * (pivot row), where b p^v is the row's entry in the
        pivot's column, and drops the pivot's row and column: scaling a row
        by the unit u leaves the cokernel unchanged, and the pivot row is
        then cleared by column operations that touch nothing else."""
        l, d, e, m = self.l, self.d, self.e, self.m
        batch, n = A.shape[:2]
        draws = np.arange(batch)
        digit = np.arange(m)
        # a nonzero digit in block i weighs (d+1)^(e-1-i), more than all the
        # later blocks together, so the heaviest entry has least valuation
        weights = float(d + 1) ** (e - 1 - digit // d)
        vals = []
        for r in range(n, 0, -1):
            heaviest = ((A != 0).reshape(-1, m) @ weights).reshape(batch, r * r)
            pi, pj = np.divmod(heaviest.argmax(axis=1), r)
            pivot_row = A[draws, pi]
            pivot = pivot_row[draws, pj]
            nonzero = pivot.reshape(batch, e, d).any(axis=-1)
            v = np.where(nonzero.any(axis=-1), nonzero.argmax(axis=-1), e)
            vals.append(v)
            if r == 1:
                break
            ar = np.arange(r - 1)
            rows = ar + (ar >= pi[:, None])
            cols = ar + (ar >= pj[:, None])
            # x / p^v for x of valuation >= v: its digits below v d are zero,
            # so a cyclic shift by v d digits brings zeros in at the top
            down = (digit + v[:, None] * d) % m
            u = np.take_along_axis(pivot, down, axis=-1)
            b = np.take_along_axis(A[draws[:, None], rows, pj[:, None]], down[:, None], axis=-1)
            times_u = _reduce(u @ self.times, l).reshape(batch, m, m)
            times_b = _reduce(b.reshape(-1, m) @ self.times, l).reshape(batch, r - 1, m, m)
            # one take at flat (draw, row, column) offsets is several times
            # faster than indexing by three arrays
            entries = (draws[:, None, None] * r + rows[:, :, None]) * r + cols[:, None, :]
            rest = A.reshape(-1, m).take(entries, axis=0)
            A = (rest.reshape(batch, -1, m) @ times_u).reshape(rest.shape)
            A -= pivot_row[draws[:, None], cols][:, None] @ times_b
            A = _reduce(A, l)
        parts = -np.sort(-np.stack(vals, axis=1), axis=1)
        sizes = np.count_nonzero(parts, axis=1).tolist()
        return [tuple(p[:k]) for p, k in zip(parts.tolist(), sizes)]


def _reduce(x, l: int):
    """x mod l, in place, for a float64 array of integers |x| < 2^36 with
    l < 2^15: x / l is then within 2^-17 of k + f/l with 0 <= f < l, and
    f/l is 0 or more than 2^-15 from an integer, so floor(x / l) is exact.
    np.remainder gives the same but takes several times longer."""
    q = x / l
    np.floor(q, out=q)
    q *= l
    x -= q
    return x


@lru_cache(maxsize=None)
def local_tables_for(spec: LocalRingSpec) -> LocalTables:
    return LocalTables(spec)


def _module_elements(ring: ChainRing, ambient: tuple):
    """The elements of ⊕_c C/(t^ambient[c]): coordinate c is a ring element
    whose digits from ambient[c] on are zero."""
    per_coord = [[x for x in ring.elements() if not any(x[lam:])] for lam in ambient]
    return [tuple(v) for v in product(*per_coord)]


def _extend_span(ring: ChainRing, ambient: tuple, span: frozenset, g) -> frozenset:
    ring_elems = ring.elements()
    out = set()
    for s in span:
        for r in ring_elems:
            v = tuple(
                _trunc(ring.add(sc, ring.mul(r, gc)), lam)
                for sc, gc, lam in zip(s, g, ambient)
            )
            out.add(v)
    return frozenset(out)


def bfs_submodules(ring: ChainRing, ambient: tuple) -> dict:
    """Element-level submodule enumeration by closing spans, used as an
    independent oracle for the canonical enumeration."""
    _refuse_parts_outside(ring, ambient)
    zero_vec = tuple(ring.zero for _ in ambient)
    elements = _module_elements(ring, ambient)
    start = frozenset({zero_vec})
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for span in frontier:
            for g in elements:
                if g in span:
                    continue
                bigger = _extend_span(ring, ambient, span, g)
                if bigger not in seen:
                    seen.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    counts: dict = {}
    for span in seen:
        t = _set_type(ring, ambient, span)
        counts[t] = counts.get(t, 0) + 1
    return counts


def _set_type(ring: ChainRing, ambient: tuple, span: frozenset) -> tuple:
    logs = []
    cur = span
    for i in range(ring.e + 1):
        size = len(cur)
        s = 0
        while ring.Q**s < size:
            s += 1
        logs.append(s)
        if size == 1:
            break
        cur = {
            tuple(_trunc(ring.shift_up(c, 1), lam) for c, lam in zip(v, ambient))
            for v in cur
        }
    return _type_from_layers(logs)


def _type_from_layers(logs) -> tuple:
    """The partition of a module M over F_Q[t]/(t^e) from its layer sizes
    logs[i] = log_Q |t^i M|, listed until the first 0 (or through i = e):
    logs[i] - logs[i+1] counts the parts above i, so the nonzero
    differences form the conjugate partition."""
    diffs = (a - b for a, b in zip(logs, logs[1:] + [0]))
    return Partition(tuple(x for x in diffs if x)).conjugate().parts


def _admissible_images(ring: ChainRing, ambient: tuple, order: int):
    """Elements of the ambient module killed by t^order."""
    out = []
    for v in _module_elements(ring, ambient):
        killed = all(
            _trunc(ring.shift_up(c, order), lam) == ring.zero
            for c, lam in zip(v, ambient)
        )
        if killed:
            out.append(v)
    return out


def brute_hom_count(ring: ChainRing, lam_m: tuple, lam_a: tuple) -> int:
    _refuse_parts_outside(ring, lam_m)
    _refuse_parts_outside(ring, lam_a)
    total = 1
    for mj in lam_m:
        total *= len(_admissible_images(ring, lam_a, mj))
    return total


def brute_surj_count(ring: ChainRing, lam_m: tuple, lam_a: tuple) -> int:
    _refuse_parts_outside(ring, lam_m)
    _refuse_parts_outside(ring, lam_a)
    zero_vec = tuple(ring.zero for _ in lam_a)
    full_size = ring.Q ** sum(lam_a)
    image_sets = [_admissible_images(ring, lam_a, mj) for mj in lam_m]
    count = 0
    for images in product(*image_sets):
        span = frozenset({zero_vec})
        for g in images:
            span = _extend_span(ring, lam_a, span, g)
        if len(span) == full_size:
            count += 1
    return count


# endomorphisms whose determinants are expanded in one numpy batch
_AUT_CHUNK = 1 << 18


@lru_cache(maxsize=None)
def brute_force_aut_order(l: int, lam: tuple) -> int:
    """Count automorphisms of ⊕_j F_l[t]/(t^lam[j]) by enumerating every
    endomorphism and testing invertibility of its matrix on an F_l basis.

    The basis is {t^i g_j}; an endomorphism is determined by the generator
    images, whose coordinates at g_j2 range over t^{max(0, lam_j2 - lam_j)}
    times the local quotient.  Determinants are expanded by permutations, so
    the total F_l dimension must stay small.
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
    total = l**P
    perms = [(p, _perm_sign(p)) for p in permutations(range(m))]
    count = 0
    off = 0
    while off < total:
        size = min(_AUT_CHUNK, total - off)
        codes = np.arange(off, off + size, dtype=np.int64)
        M = np.zeros((size, m, m), dtype=np.int16)
        for idx, (j, j2, s) in enumerate(slots):
            digit = ((codes // (l**idx)) % l).astype(np.int16)
            for i in range(lam[j]):
                if s + i < lam[j2]:
                    M[:, base_idx[(j2, s + i)], base_idx[(j, i)]] = digit
        # entries < l <= 5 and m <= 5, so signed products and their sum stay
        # far below the int32 range; one final mod suffices
        det = np.zeros(size, dtype=np.int32)
        for p, sign in perms:
            term = M[:, 0, p[0]].astype(np.int32)
            for r in range(1, m):
                term = term * M[:, r, p[r]]
            if sign > 0:
                det += term
            else:
                det -= term
        count += int(np.count_nonzero(det % l))
        off += size
    return count


def _perm_sign(p) -> int:
    sign = 1
    seen = [False] * len(p)
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
