"""Finite modules over quotients of F_l[X]: classification by partitions,
Smith normal form over the polynomial ring, and exact counts of
automorphisms, homomorphisms, surjections, and submodules."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod

from .algebra import (
    Poly,
    RingSpec,
    factor_multiplicity,
    poly_divmod,
)

__all__ = [
    "Partition",
    "ModuleType",
    "MAX_MODULE_SIZE",
    "snf_invariant_factors",
    "coker_type",
    "aut_order",
    "hom_count",
    "qbinom",
    "submodule_counts",
    "surj_count",
    "enumerate_submodules",
    "enumerate_module_types",
    "partitions_of",
]


# Largest module whose submodules are listed or that surj_count takes as a
# target: the per-type lists grow with the number of parts.
MAX_MODULE_SIZE = 3**10


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive integers; () is the zero module."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        for i, p in enumerate(self.parts):
            if p < 1:
                raise ValueError("parts must be positive")
            if i and self.parts[i - 1] < p:
                raise ValueError("parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        top = self.parts[0] if self.parts else 0
        return Partition(tuple(self.conj_part(i) for i in range(1, top + 1)))

    def conj_part(self, j: int) -> int:
        """Number of parts >= j, with conj_part(0) = number of parts."""
        return sum(1 for p in self.parts if p >= j)


@dataclass(frozen=True)
class ModuleType:
    """Isomorphism class of a finite module: one partition per local factor."""

    ring: RingSpec
    local_types: tuple[Partition, ...]

    def __post_init__(self) -> None:
        lt = tuple(
            t if isinstance(t, Partition) else Partition(tuple(t))
            for t in self.local_types
        )
        object.__setattr__(self, "local_types", lt)
        if len(lt) != len(self.ring.factors):
            raise ValueError("one partition per local factor required")
        for t, f in zip(lt, self.ring.factors):
            if t.parts and t.parts[0] > f.e:
                raise ValueError(
                    f"part {t.parts[0]} exceeds the factor exponent {f.e}"
                )
        # the generated hash's value, computed once, as for RingSpec
        object.__setattr__(self, "_hash", hash((self.ring, lt)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim_fl(self) -> int:
        return sum(
            f.residue_degree * t.size for t, f in zip(self.local_types, self.ring.factors)
        )

    @property
    def size(self) -> int:
        n = 1
        for t, f in zip(self.local_types, self.ring.factors):
            n *= f.Q**t.size
        return n


def snf_invariant_factors(mat) -> list[Poly]:
    """Smith normal form diagonal of a square matrix over F_l[X]: monic
    invariant factors with d_1 | d_2 | ..., zeros last for rank deficiency."""
    n = len(mat)
    M = [list(row) for row in mat]
    for t in range(n):
        while True:
            bd = None
            bi = bj = -1
            for i in range(t, n):
                for j in range(t, n):
                    p = M[i][j]
                    if not p.is_zero() and (bd is None or p.degree < bd):
                        bd = p.degree
                        bi, bj = i, j
            if bd is None:
                break
            if bi != t:
                M[t], M[bi] = M[bi], M[t]
            if bj != t:
                for row in M:
                    row[t], row[bj] = row[bj], row[t]
            piv = M[t][t]
            dirty = False
            for i in range(t + 1, n):
                if not M[i][t].is_zero():
                    q, rem = poly_divmod(M[i][t], piv)
                    M[i] = [M[i][j] - q * M[t][j] for j in range(n)]
                    if not rem.is_zero():
                        dirty = True
            for j in range(t + 1, n):
                if not M[t][j].is_zero():
                    q, rem = poly_divmod(M[t][j], piv)
                    for i in range(t, n):
                        M[i][j] = M[i][j] - q * M[i][t]
                    if not rem.is_zero():
                        dirty = True
            if dirty:
                continue
            bad = -1
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if not poly_divmod(M[i][j], piv)[1].is_zero():
                        bad = i
                        break
                if bad >= 0:
                    break
            if bad >= 0:
                M[t] = [M[t][j] + M[bad][j] for j in range(n)]
                continue
            break
        if bd is None:
            break
    return [M[i][i].monic() for i in range(n)]


def coker_type(ring: RingSpec, rows) -> ModuleType:
    """Isomorphism class of the cokernel of a square matrix over the ring,
    given as one F_l[X] lift per entry.  One Smith form of the lift,
    F_l[X]^n / A = ⊕ F_l[X]/(d_i), serves every local factor: over
    F_l[X]/(p^e) the summand of d_i becomes F_l[X]/(p^min(v_p(d_i), e)),
    and that of d_i = 0 the whole ring.  As d_1 | d_2 | ..., the parts
    ascend along the diagonal."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("cokernel classification requires a square matrix")
    if any(x.l != ring.l for row in rows for x in row):
        raise ValueError("entry ring mismatch")
    diag = snf_invariant_factors(rows)[::-1]
    types = []
    for f in ring.factors:
        parts = (f.e if d.is_zero() else min(factor_multiplicity(d, f.p), f.e) for d in diag)
        types.append(Partition(tuple(m for m in parts if m)))
    return ModuleType(ring, tuple(types))


def _local_aut_order(parts: tuple[int, ...], Q: int) -> int:
    """|Aut| of ⊕_i F_Q[t]/(t^e_i) by the run-index product: with e sorted
    ascending, k = 0..n-1, and d, c the last and first 1-based index of the
    run of e_k, prod_k (Q^d - Q^k) Q^(e_k (n - d) + (e_k - 1) (n - c + 1))."""
    es = sorted(parts)
    n = len(es)
    out = 1
    for k, e in enumerate(es):
        d, c = bisect_right(es, e), bisect_left(es, e) + 1
        out *= (Q**d - Q**k) * Q ** (e * (n - d) + (e - 1) * (n - c + 1))
    return out


def aut_order(t: ModuleType) -> int:
    out = 1
    for lam, f in zip(t.local_types, t.ring.factors):
        out *= _local_aut_order(lam.parts, f.Q)
    return out


def hom_count(m: ModuleType, a: ModuleType) -> int:
    if m.ring != a.ring:
        raise ValueError("ring mismatch")
    out = 1
    for lm, la, f in zip(m.local_types, a.local_types, m.ring.factors):
        exp = sum(min(x, y) for x in lm.parts for y in la.parts)
        out *= f.Q**exp
    return out


def qbinom(n: int, k: int, Q: int) -> int:
    """Gaussian binomial: subspaces of dimension k in an n-space over F_Q.
    Out-of-range k gives 0."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(1, k + 1):
        num *= Q ** (n - k + i) - 1
        den *= Q**i - 1
    assert num % den == 0
    return num // den


def _subpartitions(lam: tuple[int, ...]):
    """Partitions nu with nu_i <= lam_i for every i, zero parts dropped."""
    if not lam:
        yield ()
        return
    for first in range(lam[0], 0, -1):
        for rest in _subpartitions(tuple(min(x, first) for x in lam[1:])):
            yield (first,) + rest
    yield ()


@lru_cache(maxsize=None)
def submodule_counts(Q: int, lam: tuple[int, ...]) -> tuple:
    """Submodules of each type nu in a module of type lam over a chain ring
    with residue field F_Q, as sorted (nu, count) pairs.

    Birkhoff's formula (Birkhoff 1935; Macdonald, Symmetric Functions and
    Hall Polynomials, ch. II): with primes for conjugate partitions,
    prod_{i>=1} Q^{nu'_{i+1} (lam'_i - nu'_i)}
        * [lam'_i - nu'_{i+1} choose nu'_i - nu'_{i+1}]_Q.
    Every nu contained in lam occurs."""
    lam_c = Partition(lam).conjugate().parts
    out = []
    for nu in _subpartitions(lam):
        nu_p = Partition(nu)
        count = 1
        for i, lam_i in enumerate(lam_c, start=1):
            a = nu_p.conj_part(i + 1)
            b = nu_p.conj_part(i)
            count *= Q ** (a * (lam_i - b)) * qbinom(lam_i - a, b - a, Q)
        out.append((nu, count))
    return tuple(sorted(out))


def _local_surj(Q: int, lam_m: tuple[int, ...], lam_a: tuple[int, ...]) -> int:
    """Surjections M -> A over a chain ring with residue field F_Q, lam_a
    descending: #Hom(M, A) prod_k (1 - Q^(k - s_k)), s_k the number of
    parts of M at least lam_a[k].

    By Nakayama's lemma a map is onto exactly when its reduction to
    A/mA = F_Q^r is.  Generator j of M goes to an element killed by
    m^lam_m[j], whose reduction is free on the generators of A of part at
    most lam_m[j] and zero on the others, so row k of the r x n matrix of
    reductions is uniform on s_k coordinates.  These sets grow with k, so
    row k avoids the span of the k rows above it with probability
    1 - Q^(k - s_k)."""
    s = [sum(1 for x in lam_m if x >= y) for y in lam_a]
    out = Q ** (sum(min(x, y) for x in lam_m for y in lam_a) - sum(s))
    for k, s_k in enumerate(s):
        out *= Q**s_k - Q**k
    return out


def surj_count(m: ModuleType, a: ModuleType) -> int:
    """Number of surjections M -> A, the product of the local counts."""
    if m.ring != a.ring:
        raise ValueError("ring mismatch")
    if a.size > MAX_MODULE_SIZE:
        raise ValueError(f"target of size {a.size} exceeds the cap {MAX_MODULE_SIZE}")
    out = 1
    for lm, la, f in zip(m.local_types, a.local_types, m.ring.factors):
        out *= _local_surj(f.Q, lm.parts, la.parts)
    return out


def enumerate_submodules(a: ModuleType) -> dict:
    """Submodules of a module of the given type, grouped by isomorphism type
    with exact multiplicities (a dict ModuleType -> count)."""
    if a.size > MAX_MODULE_SIZE:
        raise ValueError(f"module of size {a.size} exceeds the cap {MAX_MODULE_SIZE}")
    per_factor = [
        submodule_counts(f.Q, lam.parts)
        for lam, f in zip(a.local_types, a.ring.factors)
    ]
    return {
        ModuleType(a.ring, tuple(Partition(sub) for sub, _ in combo)): prod(
            cnt for _, cnt in combo
        )
        for combo in product(*per_factor)
    }


def partitions_of(n: int, max_part: int):
    """Weakly decreasing partitions of n with parts bounded by max_part."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def enumerate_module_types(ring: RingSpec, dim_fl: int) -> list[ModuleType]:
    """All isomorphism classes of the given F_l-dimension over the ring."""
    if dim_fl < 0:
        raise ValueError("dimension must be nonnegative")
    factors = ring.factors
    out: list[ModuleType] = []

    def rec(idx, remaining, acc):
        if idx == len(factors):
            if remaining == 0:
                out.append(ModuleType(ring, tuple(acc)))
            return
        f = factors[idx]
        deg = f.residue_degree
        last = idx == len(factors) - 1
        dims = [remaining] if last else range(0, remaining + 1)
        for dim in dims:
            if dim % deg:
                continue
            for lam in partitions_of(dim // deg, f.e):
                rec(idx + 1, remaining - dim, acc + [Partition(lam)])

    rec(0, dim_fl, [])
    return out
