import dataclasses
import random
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np
import pytest

from cokernel_lab.algebra import (
    LocalRingSpec,
    Poly,
    RingSpec,
    find_irreducible,
    poly_divmod,
)
from cokernel_lab import chainring, modules
from cokernel_lab.chainring import (
    MAX_AUT_ENDOMORPHISMS,
    ORACLE_ELEMENT_CAP,
    LocalTables,
    _element_tables,
    _module_sum,
    _set_type,
    _span_types,
    bfs_submodules,
    brute_force_aut_order,
    brute_hom_count,
    brute_surj_count,
    enumerate_submodules_chain,
    local_tables_for,
)
from cokernel_lab.modules import (
    MAX_MODULE_SIZE,
    ModuleType,
    Partition,
    aut_order,
    coker_type,
    enumerate_module_types,
    enumerate_submodules,
    hom_count,
    snf_invariant_factors,
    surj_count,
)
from cokernel_lab.montecarlo import SampleConfig, sample_cokernels


def _spec(l, d, e):
    return LocalRingSpec(l, find_irreducible(l, d), e)


def _mt(l, d, e, lam):
    return ModuleType(RingSpec((_spec(l, d, e),)), (Partition(lam),))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((0,))
    assert Partition(()).size == 0


def test_partition_conjugate():
    lam = Partition((3, 2, 2))
    assert lam.conjugate().parts == (3, 3, 1)
    assert lam.conj_part(2) == 3
    assert lam.conj_part(0) == 3
    assert lam.conj_part(4) == 0


def test_module_type_rejects_oversized_parts():
    with pytest.raises(ValueError):
        _mt(3, 1, 2, (3,))


def test_module_type_dims():
    t = _mt(3, 2, 2, (2, 1))
    assert t.size == 9 ** 3


def test_ring_and_module_type_hash_once():
    """RingSpec and ModuleType keep the generated hash's value, computed once,
    and nothing of it shows in their fields, repr, str or equality."""
    def build():
        ring = RingSpec((_spec(3, 1, 2), LocalRingSpec(3, Poly(3, (1, 1)), 1)))
        return ring, ModuleType(ring, ((2, 1), Partition((1,))))

    r, t = build()
    r2, t2 = build()
    assert r is not r2 and t is not t2
    assert hash(r) == hash((r.factors,)) == hash(r2)
    assert hash(t) == hash((t.ring, t.local_types)) == hash(t2)
    assert r == r2 and t == t2
    assert t != ModuleType(r, ((2,), (1,)))
    assert [f.name for f in dataclasses.fields(RingSpec)] == ["factors"]
    assert [f.name for f in dataclasses.fields(ModuleType)] == ["ring", "local_types"]
    f0, f1 = r.factors
    assert repr(r) == str(r) == f"RingSpec(factors=({f0!r}, {f1!r}))"
    assert repr(t) == str(t) == (
        f"ModuleType(ring={r!r}, local_types=(Partition(parts=(2, 1)), Partition(parts=(1,))))"
    )
    assert "_hash" not in repr(t)


def test_snf_diagonal_example():
    l = 3
    x = Poly.x(l)
    one = Poly.one(l)
    diag = snf_invariant_factors([[x, Poly.zero(l)], [Poly.zero(l), x * x]])
    assert diag == [x, x * x]
    diag = snf_invariant_factors([[one, x], [x, x * x]])
    assert diag == [one, Poly.zero(l)]


def test_snf_divisibility_property():
    rng = random.Random(5)
    l = 3
    for _ in range(200):
        n = rng.randrange(1, 4)
        mat = [
            [
                Poly(l, [rng.randrange(l) for _ in range(rng.randrange(4))])
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        diag = snf_invariant_factors(mat)
        for a, b in zip(diag, diag[1:]):
            if b.is_zero():
                continue
            assert not a.is_zero()
            assert poly_divmod(b, a)[1].is_zero()


def test_coker_type_examples():
    l = 3
    ring = RingSpec((LocalRingSpec(l, Poly.x(l), 2),))
    x, zero = Poly.x(l), Poly.zero(l)

    def parts(rows):
        return coker_type(ring, rows).local_types[0].parts

    assert parts([[x, zero], [zero, Poly.one(l)]]) == (1,)
    assert parts([[zero]]) == (2,)
    assert parts([[Poly(l, (2,))]]) == ()


def test_coker_type_refuses_bad_matrices():
    ring = RingSpec((LocalRingSpec(3, Poly.x(3), 2),))
    with pytest.raises(ValueError, match="square"):
        coker_type(ring, [[Poly.one(3), Poly.one(3)]])
    with pytest.raises(ValueError, match="entry ring mismatch"):
        coker_type(ring, [[Poly.one(5)]])


def test_coker_type_unimodular_invariance():
    """Multiplying by invertible matrices fixes the cokernel type; the
    products are unreduced lifts, of degree up to 3 against X^2."""
    l = 3
    ring = RingSpec((LocalRingSpec(l, Poly.x(l), 2),))
    rng = random.Random(13)

    def rand_matrix(n):
        return [
            [Poly(l, [rng.randrange(l), rng.randrange(l)]) for _ in range(n)]
            for _ in range(n)
        ]

    def rand_invertible(n):
        while True:
            m = rand_matrix(n)
            if all(not p.parts for p in coker_type(ring, m).local_types):
                return m

    def matmul(a, b, n):
        return [
            [sum((a[i][k] * b[k][j] for k in range(n)), Poly.zero(l)) for j in range(n)]
            for i in range(n)
        ]

    for _ in range(30):
        n = rng.randrange(1, 4)
        a = rand_matrix(n)
        u = rand_invertible(n)
        v = rand_invertible(n)
        t0 = coker_type(ring, a)
        t1 = coker_type(ring, matmul(matmul(u, a, n), v, n))
        assert t0 == t1


def test_coker_type_crt_product_ring():
    l = 3
    p1, p2 = Poly(l, (2, 1)), Poly(l, (1, 1))
    ring = RingSpec((LocalRingSpec(l, p1, 1), LocalRingSpec(l, p2, 2)))
    # X - 1 is zero at the first factor and a unit at the second
    t = coker_type(ring, [[p1]])
    assert t.local_types[0].parts == (1,)
    assert t.local_types[1].parts == ()


def _three_factor_ring():
    """F_3[X]/(X^2) x F_3[X]/((X+1)^2) x F_3[X]/(X^2+1)."""
    l = 3
    return RingSpec(
        (
            LocalRingSpec(l, Poly(l, (0, 1)), 2),
            LocalRingSpec(l, Poly(l, (1, 1)), 2),
            LocalRingSpec(l, Poly(l, (1, 0, 1)), 1),
        )
    )


def test_coker_type_reads_every_crt_factor_off_one_smith_form():
    """Lifts of degree up to 7, above each factor's modulus and the product
    modulus of degree 6: factor by factor, coker_type gives the table
    classifier's partition of the matrix reduced into that factor."""
    l = 3
    ring = _three_factor_ring()
    rng = random.Random(20)
    moduli = []
    for f in ring.factors:
        m = Poly.one(l)
        for _ in range(f.e):
            m = m * f.p
        moduli.append(m)
    seen = set()
    for _ in range(120):
        n = rng.randrange(1, 5)
        rows = [
            [Poly(l, [rng.randrange(l) for _ in range(rng.randrange(9))]) for _ in range(n)]
            for _ in range(n)
        ]
        got = coker_type(ring, rows).local_types
        for f, modulus, lam in zip(ring.factors, moduli, got):
            codes = [
                [
                    sum(c * l**i for i, c in enumerate(poly_divmod(x, modulus)[1].coeffs))
                    for x in row
                ]
                for row in rows
            ]
            assert [lam.parts] == local_tables_for(f).coker_partition(np.array([codes]))
            seen.add(lam.parts)
    # full parts (d_i = 0 or p^e | d_i), capped ones and empty ones all occur
    assert {(), (1,), (2,), (2, 1)} <= seen


def test_coker_type_runs_one_smith_form_per_matrix(monkeypatch):
    """Three local factors, one Smith form of the lifted matrix."""
    l = 3
    ring = _three_factor_ring()
    calls = []
    snf = modules.snf_invariant_factors
    monkeypatch.setattr(
        modules, "snf_invariant_factors", lambda mat: calls.append(mat) or snf(mat)
    )
    x = Poly.x(l)
    coker_type(ring, [[x * x, x], [Poly.zero(l), x + Poly.one(l)]])
    coker_type(ring, [[Poly.zero(l)]])
    assert len(calls) == 2


def test_aut_order_hand_values():
    assert aut_order(_mt(3, 1, 1, (1, 1))) == 48
    assert aut_order(_mt(3, 1, 2, (2,))) == 6
    assert aut_order(_mt(3, 1, 2, (2, 1))) == 108
    assert aut_order(_mt(3, 1, 3, (2, 1))) == 108
    assert aut_order(_mt(3, 1, 1, (1,))) == 2


def test_aut_order_brute_force_sweep():
    """Every type of size <= 3 over F_3, F_5 and F_7, and over F_3 the
    types (2, 2), (3, 1), (2, 1, 1) and (3, 1, 1): a final part 1 takes the
    cofactor column, also behind parts above 1, and (2, 2) walks every
    endomorphism."""
    small = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
    cases = [(l, lam) for l in (3, 5, 7) for lam in small]
    cases += [(3, (2, 2)), (3, (3, 1)), (3, (2, 1, 1)), (3, (3, 1, 1))]
    for l, lam in cases:
        e = max(lam) if lam else 1
        closed = aut_order(_mt(l, 1, e, lam))
        assert closed == brute_force_aut_order(l, lam), (l, lam)
    # entries beyond the int16 range: 65536 wraps to 0
    assert brute_force_aut_order(65537, (1,)) == 65536


def test_brute_force_aut_order_refuses_unbounded_walks(monkeypatch):
    """3^25 and 13^25 endomorphisms of F_l^5, and the 3^17 of type
    (2, 1, 1, 1), are refused by name before the permutations of the
    determinant expansion are listed; 3^16, criterion 3's (1, 1, 1, 1), is
    the bound."""

    def listed(*args):
        raise AssertionError("permutations listed before the refusal")

    monkeypatch.setattr(chainring, "permutations", listed)
    for l, P in [(3, 25), (13, 25)]:
        with pytest.raises(ValueError, match=rf"{l}\^{P} endomorphisms, above MAX_AUT_ENDOMORPHISMS"):
            brute_force_aut_order(l, (1, 1, 1, 1, 1))
    with pytest.raises(ValueError, match=r"3\^17 endomorphisms"):
        brute_force_aut_order(3, (2, 1, 1, 1))
    # 3^6 endomorphisms, under the bound: the dimension cap refuses it
    with pytest.raises(ValueError, match="capped at dimension 5"):
        brute_force_aut_order(3, (6,))
    assert MAX_AUT_ENDOMORPHISMS == 3**16


def test_hom_count_matches_brute_force():
    ring = local_tables_for(_spec(3, 1, 2))
    for lam_m in [(1,), (2,), (2, 1)]:
        for lam_a in [(1,), (2,), (1, 1)]:
            assert hom_count(
                _mt(3, 1, 2, lam_m), _mt(3, 1, 2, lam_a)
            ) == brute_hom_count(ring, lam_m, lam_a)


def test_surj_count_matches_brute_force():
    ring = local_tables_for(_spec(3, 1, 2))
    for lam_m in [(1,), (2,), (2, 1), (2, 2)]:
        for lam_a in [(1,), (2,), (1, 1)]:
            assert surj_count(
                _mt(3, 1, 2, lam_m), _mt(3, 1, 2, lam_a)
            ) == brute_surj_count(ring, lam_m, lam_a)


def test_surj_count_zero_when_target_larger():
    assert surj_count(_mt(3, 1, 2, (1,)), _mt(3, 1, 2, (2,))) == 0
    assert surj_count(_mt(3, 1, 2, (1,)), _mt(3, 1, 2, (1, 1))) == 0


def test_submodule_enumeration_matches_bfs():
    cases = [
        (3, 1, 2, (2, 1)),
        (3, 1, 2, (2, 2)),
        (3, 1, 3, (3, 1)),
        (5, 1, 2, (2, 1)),
        (3, 2, 2, (2,)),
        (3, 2, 1, (1, 1)),
        (3, 1, 3, (3, 2)),
        (3, 1, 3, (3, 1, 1)),
        (5, 1, 2, (2, 2)),
        (3, 2, 2, (2, 1)),
        (3, 1, 2, (2, 1, 1)),
        (3, 1, 2, (2, 2, 1)),
        (5, 1, 2, (2, 1, 1)),
        (7, 1, 2, (2, 1)),
    ]
    for l, d, e, lam in cases:
        ring = local_tables_for(_spec(l, d, e))
        assert enumerate_submodules_chain(ring, lam) == bfs_submodules(ring, lam), (
            l,
            d,
            e,
            lam,
        )


@pytest.mark.parametrize("chunk", [1, 7])
def test_submodule_enumeration_across_chunk_boundaries(monkeypatch, chunk):
    """Chunks of 1 and of 7 candidates split pivot profiles and cross from
    one profile into the next; the counts stay those of whole chunks.  In
    the types (2, 2) and (3, 2) some candidates of a profile fail the
    closure condition, so a chunk that typed the wrong candidates of a
    profile would move the counts."""
    cases = [(3, 1, 2, (2, 2)), (3, 1, 3, (3, 2)), (3, 1, 2, (2, 1, 1)), (3, 2, 2, (2, 1))]
    want = [
        enumerate_submodules_chain(local_tables_for(_spec(l, d, e)), lam)
        for l, d, e, lam in cases
    ]
    monkeypatch.setattr(LocalTables, "_chunk", lambda self, n: chunk)
    for (l, d, e, lam), counts in zip(cases, want):
        assert enumerate_submodules_chain(local_tables_for(_spec(l, d, e)), lam) == counts


def test_zero_module_has_one_submodule():
    ring = local_tables_for(_spec(3, 1, 2))
    assert enumerate_submodules_chain(ring, ()) == bfs_submodules(ring, ()) == {(): 1}


def test_submodule_counts_vector_space_case():
    ring = local_tables_for(_spec(3, 1, 1))
    counts = enumerate_submodules_chain(ring, (1, 1, 1))
    # subspace counts of F_3^3 by dimension
    assert counts == {(): 1, (1,): 13, (1, 1): 13, (1, 1, 1): 1}


@pytest.mark.parametrize(
    "oracle",
    [
        enumerate_submodules_chain,
        bfs_submodules,
        lambda ring, lam: brute_hom_count(ring, (2,), lam),
        lambda ring, lam: brute_surj_count(ring, (2,), lam),
    ],
    ids=["enumerate_submodules_chain", "bfs_submodules", "brute_hom_count", "brute_surj_count"],
)
def test_oracles_refuse_parts_outside_one_to_e(oracle):
    """Over F_3[X]/(X^2), a part 3 or 0 names no module R/(X^part)."""
    ring = LocalTables(_spec(3, 1, 2))
    with pytest.raises(ValueError, match=r"part 3 outside 1\.\.e, e = 2"):
        oracle(ring, (3,))
    with pytest.raises(ValueError, match=r"part 0 outside 1\.\.e, e = 2"):
        oracle(ring, (2, 0))


@pytest.mark.parametrize(
    "l, d, e, ambient",
    [
        (3, 1, 2, (2, 1)),
        (3, 1, 3, (3, 2)),
        (3, 1, 3, (3, 1, 1)),
        (5, 1, 2, (2, 2)),
        (3, 2, 2, (2, 1)),
    ],
)
def test_span_type_matches_closed_span(l, d, e, ambient):
    """The batched span typing of random rows, with pivots that need not be
    monic and more rows than columns, against the type of the span formed
    on element codes as the sum of the rows' cyclic submodules.  Coordinate
    c of a row is embedded in R by p^(e - ambient[c]), that is times
    Q^(e - ambient[c]) on coordinate codes, and the rows are padded with
    zeros to 3 x 3 matrices of chain digits."""
    ring = local_tables_for(_spec(l, d, e))
    Q = l**d
    add, cyclic, times_p = _element_tables(ring, ambient)
    rng = random.Random(l**d * 100 + e * 10 + len(ambient))
    place = l ** np.arange(ring.m)
    A = np.zeros((40, 3, 3, ring.m))
    want = []
    for trial in range(40):
        rows = [rng.choice(range(len(add))) for _ in range(rng.randint(1, 3))]
        span = frozenset({0})
        for i, g in enumerate(rows):
            span = _module_sum(add, span, cyclic[g])
            # the coordinate codes of g, the last coordinate lowest
            for c in reversed(range(len(ambient))):
                g, x = divmod(g, Q ** ambient[c])
                A[trial, i, c] = x * Q ** (e - ambient[c]) // place % l
        want.append(_set_type(Q, times_p, span))
    assert _span_types(ring, A) == want


def test_oracles_refuse_modules_above_their_caps():
    """The canonical enumeration refuses a module above MAX_MODULE_SIZE as
    enumerate_submodules does, and the element-level oracles one above
    ORACLE_ELEMENT_CAP, before anything is listed or tabulated; the surjection
    count also refuses to walk more than ORACLE_ELEMENT_CAP homomorphisms."""
    ring = local_tables_for(_spec(3, 1, 2))
    with pytest.raises(ValueError, match=rf"^module of size {3**12} exceeds") as chain:
        enumerate_submodules_chain(ring, (2,) * 6)
    with pytest.raises(ValueError) as closed:
        enumerate_submodules(_mt(3, 1, 2, (2,) * 6))
    assert str(chain.value) == str(closed.value)
    big = (2, 2, 2, 1)  # 3^7 = 2187 elements
    assert ORACLE_ELEMENT_CAP == 729
    for oracle in (
        bfs_submodules,
        lambda ring, lam: brute_hom_count(ring, (1,), lam),
        lambda ring, lam: brute_surj_count(ring, (1,), lam),
    ):
        with pytest.raises(ValueError, match=r"module of size 2187 exceeds the cap 729"):
            oracle(ring, big)
    # Hom(F_3^7, F_3^2) has 3^14 elements
    with pytest.raises(ValueError, match=r"4782969 homomorphisms exceed the cap 729"):
        brute_surj_count(ring, (1,) * 7, (1, 1))


def test_hom_equals_sum_of_surjections():
    """#Hom(M, A) = sum over submodules B of A of #Surj(M, B)."""
    ring = RingSpec((_spec(3, 1, 2),))
    for lam_m in [(1,), (2, 1)]:
        m = ModuleType(ring, (Partition(lam_m),))
        for lam_a in [(1,), (2,), (2, 1)]:
            a = ModuleType(ring, (Partition(lam_a),))
            total = sum(
                cnt * surj_count(m, b) for b, cnt in enumerate_submodules(a).items()
            )
            assert total == hom_count(m, a)


# (l, type) of the perfbench lattice queries
LATTICE_SHAPES = [
    (3, (2, 1)), (3, (3, 2)), (3, (2, 2, 1)), (3, (3, 3)), (3, (2, 1, 1, 1)),
    (3, (5, 2)), (5, (2, 2)), (5, (3, 2)), (7, (2, 2)), (11, (2, 1)),
]


@pytest.mark.parametrize(
    "l, d, lam",
    [
        (l, d, lam)
        for d in (1, 2)
        for l, lam in LATTICE_SHAPES
        if l ** (d * sum(lam)) <= MAX_MODULE_SIZE
    ],
)
def test_surj_count_from_free_matches_nakayama(l, d, lam):
    """#Surj(R^k, A) = |A|^k prod_{i<r} (1 - Q^(i-k)) for A with r parts: by
    Nakayama's lemma a map is onto exactly when the images of the k
    generators span A/mA = F_Q^r.  This is the free case of surj_count's
    closed form, written out on its own; Sum #Sub * #Surj = #Hom and the
    brute-force counts check the other sources.  Every submodule type of
    the shape is a target too."""
    e = max(lam)
    Q = l**d
    for a in enumerate_submodules(_mt(l, d, e, lam)):
        r = len(a.local_types[0].parts)
        for k in range(1, len(lam) + 3):
            expected = a.size**k * prod(1 - Fraction(Q) ** (i - k) for i in range(r))
            assert surj_count(_mt(l, d, e, (e,) * k), a) == expected, (a, k)


def test_enumerate_module_types_counts():
    ring = RingSpec((_spec(3, 1, 2),))
    types = enumerate_module_types(ring, 3)
    assert {t.local_types[0].parts for t in types} == {(2, 1), (1, 1, 1)}
    ring2 = RingSpec((_spec(3, 2, 1),))
    assert enumerate_module_types(ring2, 3) == []
    assert len(enumerate_module_types(ring2, 4)) == 1


def _snf_partition(spec, codes):
    """The oracle: coker_type's partition of a code matrix, by Smith normal
    form over Poly."""
    rows = [[Poly.from_code(spec.l, c) for c in row] for row in codes]
    return coker_type(RingSpec((spec,)), rows).local_types[0].parts


def test_fast_table_coker_agrees_with_snf():
    rng = random.Random(3)
    spec = _spec(3, 1, 2)
    tables = LocalTables(spec)
    for _ in range(150):
        n = rng.randrange(1, 4)
        codes = [[rng.randrange(spec.size) for _ in range(n)] for _ in range(n)]
        assert [_snf_partition(spec, codes)] == tables.coker_partition(np.array([codes]))


def test_fast_table_coker_agrees_quadratic_residue_field():
    rng = random.Random(9)
    spec = _spec(3, 2, 2)
    tables = LocalTables(spec)
    for _ in range(50):
        n = rng.randrange(1, 3)
        codes = [[rng.randrange(spec.size) for _ in range(n)] for _ in range(n)]
        assert [_snf_partition(spec, codes)] == tables.coker_partition(np.array([codes]))


# (l, p low degree first, e): F_9[t]/(t^4), F_3[X]/(X^8) and F_5[X]/(X^5) are
# the cokernel-large-ring benchmark's rings; over F_3[X]/((X^2+X+2)^3) the
# p-adic digits of a code are not its base-3 digits; F_2053[X]/(X^2),
# F_3[X]/((X^7+X^2+2)^2) and F_{13^4} have residue fields above 2048
# elements; the last four are the cokernel-small-ring benchmark's rings
CHAIN_RINGS = [
    (3, (1, 0, 1), 4),
    (3, (0, 1), 8),
    (5, (0, 1), 5),
    (3, (2, 1, 1), 3),
    (2053, (0, 1), 2),
    (3, (2, 0, 1, 0, 0, 0, 0, 1), 2),
    (13, (2, 0, 12, 0, 1), 1),
    (3, (0, 1), 2),
    (3, (1, 1), 1),
    (3, (1, 0, 1), 3),
    (11, (0, 1), 3),
]


@pytest.mark.parametrize(
    "l, p, e",
    CHAIN_RINGS,
    ids=[
        "F9[t]/(t^4)",
        "F3[X]/(X^8)",
        "F5[X]/(X^5)",
        "F3[X]/((X^2+X+2)^3)",
        "F2053[X]/(X^2)",
        "F3[X]/((X^7+X^2+2)^2)",
        "F13[X]/(X^4+12X^2+2)",
        "F3[X]/(X^2)",
        "F3[X]/(X+1)",
        "F9[t]/(t^3)",
        "F11[X]/(X^3)",
    ],
)
def test_chain_classifier_agrees_with_snf(l, p, e):
    spec = LocalRingSpec(l, Poly(l, p), e)
    tables = LocalTables(spec)
    d = len(p) - 1
    if e > 1:
        # X^d = (X^d mod p) + p carries into block 1
        assert any(tables.coordinates(np.array(l**d))[d:])
    rng = random.Random(11)
    p_powers = [Poly.one(l)]
    for _ in range(e):
        p_powers.append(p_powers[-1] * spec.p)

    def entry():
        # a random element times p^v for a random v, so every valuation occurs
        x = Poly.from_code(l, rng.randrange(spec.size))
        f = poly_divmod(x * p_powers[rng.randrange(e + 1)], p_powers[e])[1]
        return sum(c * l**i for i, c in enumerate(f.coeffs))

    for n in range(1, 9):
        mats = [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(12)]
        mats.append([[0] * n for _ in range(n)])
        mats.append([[int(i == j) for j in range(n)] for i in range(n)])
        got = tables.coker_partition(np.array(mats))
        assert got[-2:] == [(e,) * n, ()]
        for mat, parts in zip(mats, got):
            assert parts == _snf_partition(spec, mat), (n, mat)


@pytest.mark.parametrize(
    "l, p, e",
    [(5, (0, 1), 5), (2053, (0, 1), 1), (3, (2, 0, 1, 0, 0, 0, 0, 1), 1)],
    ids=["F5[X]/(X^5)", "F2053", "F3[X]/(X^7+X^2+2)"],
)
def test_exhaustive_census_above_table_cap(l, p, e):
    """All 1 x 1 matrices over a local ring of more than 2048 elements: (Q-1) Q^(e-v-1)
    elements of valuation v give coker type (v,), zero gives (e,), units ()."""
    spec = LocalRingSpec(l, Poly(l, p), e)
    Q = spec.Q
    dist = sample_cokernels(SampleConfig(RingSpec((spec,)), 1, 0, 0, mode="exhaustive"))
    expected = {(v,): (Q - 1) * Q ** (e - v - 1) for v in range(1, e)}
    expected[(e,)] = 1
    expected[()] = (Q - 1) * Q ** (e - 1)
    assert dist.total == Q**e
    assert {t.local_types[0].parts: c for t, c in dist.counts.items()} == expected


def test_chain_classifier_refuses_residue_field_above_cap():
    # F_28571, the first prime field above MAX_RING_SIZE = 13^4
    with pytest.raises(ValueError, match="above MAX_RING_SIZE"):
        LocalTables(LocalRingSpec(28571, Poly(28571, (0, 1)), 1))


def test_chunked_batch_agrees_with_single_matrices():
    # F_3[X]/(X^39), the largest power of X below LOCAL_RING_CAP = 2^63: at
    # n = 16 a chunk holds 2^18 // (16 * 39 * 39) = 10 draws, so 100 draws
    # span ten chunks
    l, e, n = 3, 39, 16
    tables = LocalTables(LocalRingSpec(l, Poly(l, (0, 1)), e))
    rng = np.random.default_rng(2)
    # entries times X^v for random v, so that the cokernels are not trivial
    shifts = l ** rng.integers(0, 6, size=(100, n, n))
    codes = rng.integers(0, l**e, size=(100, n, n)) // shifts * shifts
    got = tables.coker_partition(codes)
    assert got == [tables.coker_partition(mat[None])[0] for mat in codes]
    assert len(set(got)) > 10


def _valued_codes(spec, seed):
    """v -> the code of a random unit of R = F_l[X]/(p^e) times p^v, and 0
    for v = e."""
    l, e = spec.l, spec.e
    rng = random.Random(seed)
    p_powers = [Poly.one(l)]
    for _ in range(e):
        p_powers.append(p_powers[-1] * spec.p)

    def code(v):
        x = Poly.from_code(l, rng.randrange(spec.size))
        while poly_divmod(x, spec.p)[1].is_zero():
            x = Poly.from_code(l, rng.randrange(spec.size))
        f = poly_divmod(x * p_powers[v], p_powers[e])[1]
        return sum(c * l**i for i, c in enumerate(f.coeffs))

    return code


@pytest.mark.parametrize(
    "l, p, e",
    [(3, (1, 0, 1), 3), (3, (2, 1, 1), 3), (11, (0, 1), 3), (5, (0, 1), 5)],
    ids=["F9[t]/(t^3)", "F3[X]/((X^2+X+2)^3)", "F11[X]/(X^3)", "F5[X]/(X^5)"],
)
def test_pivot_move_on_crafted_batches(l, p, e):
    """The elimination moves each pivot to (0, 0).  Each batch holds, for
    every least valuation v0 < e, matrices whose only entries of valuation
    v0 sit at (0, 0), in row 0 only, in column 0 only or at (n-1, n-1), all
    other entries of higher valuation; so in the first step some draws
    have a unit pivot and others not, and only those are shifted.  The
    zero matrix and p times random matrices ride along.  So the pivot
    search's argmax meets both its edges: no nonzero digit, so v = e at
    every step, in the zero matrix, and a first nonzero digit at the last
    entry, index n^2 - 1 of its digit block, at (n-1, n-1)."""
    spec = LocalRingSpec(l, Poly(l, p), e)
    tables = LocalTables(spec)
    code = _valued_codes(spec, 17)
    rng = random.Random(23)
    for n in range(2, 6):
        places = {
            "corner": [(0, 0)],
            "row 0": [(0, j) for j in rng.sample(range(1, n), rng.randint(1, n - 1))],
            "column 0": [(i, 0) for i in rng.sample(range(1, n), rng.randint(1, n - 1))],
            "last": [(n - 1, n - 1)],
        }
        mats = []
        for least in places.values():
            for v0 in range(e):
                mat = [[code(rng.randint(v0 + 1, e)) for _ in range(n)] for _ in range(n)]
                for i, j in least:
                    mat[i][j] = code(v0)
                mats.append(mat)
        mats.append([[0] * n for _ in range(n)])
        mats += [[[code(rng.randint(1, e)) for _ in range(n)] for _ in range(n)] for _ in range(3)]
        got = tables.coker_partition(np.array(mats))
        assert got == [_snf_partition(spec, mat) for mat in mats], n


def _assert_udv_batches_match_snf(spec, seed):
    """Half of 80 draws, n = 1 to 4, have entries of random valuations; the
    other half are U D V, U and V uniform and D diagonal with entries p^v,
    whose cokernels show only if every cancellation is exact.  All must
    match the Smith form."""
    l, e = spec.l, spec.e
    tables = LocalTables(spec)
    code = _valued_codes(spec, seed)
    rng = random.Random(seed + 2)
    modulus = Poly.one(l)
    for _ in range(e):
        modulus = modulus * spec.p

    def uniform(n):
        return [[Poly.from_code(l, rng.randrange(spec.size)) for _ in range(n)] for _ in range(n)]

    mats = []
    for k in range(80):
        n = 1 + k % 4
        if k % 2:
            mat = [[code(rng.randint(0, e)) for _ in range(n)] for _ in range(n)]
        else:
            U, V = uniform(n), uniform(n)
            D = [Poly.from_code(l, code(rng.randint(0, e))) for _ in range(n)]
            mat = [[0] * n for _ in range(n)]
            for i, j in product(range(n), repeat=2):
                x = sum((U[i][c] * D[c] * V[c][j] for c in range(n)), Poly.zero(l))
                x = poly_divmod(x, modulus)[1]
                mat[i][j] = sum(c * l**t for t, c in enumerate(x.coeffs))
        mats.append(mat)
    for n in range(1, 5):
        batch = [mat for mat in mats if len(mat) == n]
        assert tables.coker_partition(np.array(batch)) == [_snf_partition(spec, mat) for mat in batch]


@pytest.mark.parametrize("p", [(0, 1), (1, 1)], ids=["X^4", "(X+1)^4"])
def test_largest_prime_field_stays_exact(p):
    """F_28559[X]/(p^4): 28559 is the largest prime below MAX_RING_SIZE, and
    its fourth power lies below LOCAL_RING_CAP, so the bound m^2 (l-1)^3 on
    the elimination's unreduced sums is largest here, below 2^49 with
    m = 4, in float64.  (With d = 1 the product tensor holds only 0 and 1,
    so the sums stay below m (l-1)^2.)  Over (X+1)^4 the digits of a code
    are not its chain digits."""
    spec = LocalRingSpec(28559, Poly(28559, p), 4)
    assert LocalTables(spec).dtype == np.float64
    _assert_udv_batches_match_snf(spec, 29)


# (l, p low degree first, e) on either side of the float32 rule
# m^2 (l-1)^3 < 2^20: F_101 and F_61[X]/(X^2) are the last rings inside it,
# F_103 and F_67[X]/(X^2) the first past it; F_3[X]/(X^24), with its 24
# digits per entry, lies inside it, as every F_3[X]/(X^e) below
# LOCAL_RING_CAP does
SINGLE_EDGE = [(101, (0, 1), 1), (61, (0, 1), 2), (3, (0, 1), 24)]
DOUBLE_EDGE = [(103, (0, 1), 1), (67, (0, 1), 2)]


@pytest.mark.parametrize(
    "l, p, e, dtype",
    [ring + (np.float32,) for ring in SINGLE_EDGE] + [ring + (np.float64,) for ring in DOUBLE_EDGE],
    ids=["F101", "F61[X]/(X^2)", "F3[X]/(X^24)", "F103", "F67[X]/(X^2)"],
)
def test_dtype_rule_at_its_edges(l, p, e, dtype):
    """The product tensor and the chain digits, from which the elimination
    builds every matrix, take the dtype that LocalTables derives from the
    ring."""
    tables = LocalTables(LocalRingSpec(l, Poly(l, p), e))
    assert tables.dtype == dtype
    assert tables.times.dtype == dtype
    assert tables.coordinates(np.arange(64).reshape(4, 4, 4)).dtype == dtype


@pytest.mark.parametrize("e", [24, 39])
def test_pivot_weights_stay_exact(e):
    """Over F_3[X]/(X^e) the entry 2 (X^v + ... + X^(e-1)) has valuation v
    and a nonzero digit in every block from v on: the pivot search reads v
    off the first of them, whatever follows.  Its 1 x 1 matrix has
    cokernel type (v,), () for v = 0."""
    tables = LocalTables(LocalRingSpec(3, Poly(3, (0, 1)), e))
    codes = np.array([[[sum(2 * 3**i for i in range(v, e))]] for v in range(e)])
    assert tables.coker_partition(codes) == [(v,) if v else () for v in range(e)]


@pytest.mark.parametrize(
    "l, p, e",
    SINGLE_EDGE + [(41, (3, 1, 1), 2), (3, (0, 1), 25)],
    ids=["F101", "F61[X]/(X^2)", "F3[X]/(X^24)", "F41[X]/((X^2+X+3)^2)", "F3[X]/(X^25)"],
)
def test_single_precision_rings_stay_exact(l, p, e):
    """On the float32 rings at the rule's edges, on F_41[X]/(p^2) with
    deg p = 2, whose product tensor holds more than 0 and 1 and whose bound
    m^2 (l-1)^3 = 1024000 lies just below 2^20 = 1048576, and on
    F_3[X]/(X^25), whose entries hold 25 digits and whose bound is 5000,
    the crafted U D V products match the Smith form."""
    spec = LocalRingSpec(l, Poly(l, p), e)
    assert LocalTables(spec).dtype == np.float32
    _assert_udv_batches_match_snf(spec, 37)


@pytest.mark.parametrize(
    "l, p, e, chunks, dtype",
    [
        (3, (1, 0, 1), 4, 1, np.float32),
        (3, (1, 0, 1), 5, 2, np.float32),
        (3, (0, 1), 39, 5, np.float32),
        (3, (1, 1), 39, 5, np.float32),
    ],
    ids=["F9[t]/(t^4)", "F9[t]/(t^5)", "F3[X]/(X^39)", "F3[X]/((X+1)^39)"],
)
def test_coordinates_match_digit_split(l, p, e, chunks, dtype):
    """The chunk-table gather gives the chain digits of the digit split: the
    code's base-l digits times the basis change, reduced mod l.  Over
    F_3[X]/(X^e) the basis change is the identity, so the chunks' rows never
    overlap; over the other rings their sum needs the reduction."""
    spec = LocalRingSpec(l, Poly(l, p), e)
    tables = LocalTables(spec)
    assert len(tables.chunk_tables) == chunks
    assert all(table.dtype == tables.dtype for table in tables.chunk_tables)
    rng = np.random.default_rng(5)
    # random codes and the top of the range, just under LOCAL_RING_CAP for
    # the rings of 3^39 elements
    codes = np.concatenate(
        [rng.integers(0, spec.size, size=200), spec.size - 1 - np.arange(56)]
    ).reshape(4, 8, 8)
    digits = codes[..., None] // l ** np.arange(tables.m) % l
    expected = np.remainder(digits @ tables.to_chain, l)
    got = tables.coordinates(codes)
    assert got.dtype == dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "l, p, e",
    [(3, (1, 0, 1), 4), (3, (2, 1, 1), 3), (3, (1, 1), 39)],
    ids=["F9[t]/(t^4)", "F3[X]/((X^2+X+2)^3)", "F3[X]/((X+1)^39)"],
)
def test_to_chain_rows_are_p_adic_digits(l, p, e):
    """Row k of to_chain, read as the digits of sum_i c_i(X) p^i, gives
    X^k mod p^e back, by Poly arithmetic."""
    spec = LocalRingSpec(l, Poly(l, p), e)
    tables = LocalTables(spec)
    d = spec.residue_degree
    assert tables.to_chain.shape == (d * e, d * e)
    modulus = Poly.one(l)
    for _ in range(e):
        modulus = modulus * spec.p
    for k, row in enumerate(tables.to_chain.tolist()):
        assert all(0 <= c < l for c in row)
        x = Poly.zero(l)
        for i in reversed(range(e)):
            x = x * spec.p + Poly(l, row[i * d : (i + 1) * d])
        assert x == poly_divmod(Poly(l, (0,) * k + (1,)), modulus)[1], k


def test_module_size_cap():
    big = _mt(3, 1, 2, (2,) * 6)  # 3^12 elements, above MAX_MODULE_SIZE = 3^10
    with pytest.raises(ValueError, match="exceeds the cap"):
        enumerate_submodules(big)
    with pytest.raises(ValueError, match="exceeds the cap"):
        surj_count(big, big)
    assert sum(enumerate_submodules(_mt(3, 1, 2, (2, 2))).values()) == 23
