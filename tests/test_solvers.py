"""Solver tests.  Every solver is checked against direct exhaustive
evaluation over the whole field (the oracle never goes through the solver
logic); the full-scale sweeps demanded by the acceptance suite live in
test_acceptance.py, smaller instances here for fast feedback."""

import copy
import dataclasses
import gc
import inspect
import math
import pickle
import random
import textwrap
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbox_spectra import (
    BadParametersError,
    EvenCharacteristicError,
    LeadingCoefficientZeroError,
    OddCharacteristicError,
    RootResult,
    UnparsableElementError,
    ZeroLinearCoefficientError,
    affine_root_count,
    build_AL,
    make_field,
    solve_linearized_trinomial,
    solve_quadratic,
    sqrt_in_field,
)
from sbox_spectra import fields, solvers
from sbox_spectra._conway import CONWAY_POLYNOMIALS
from sbox_spectra.fields import Field
from sbox_spectra.polyarith import int_to_coeffs, is_irreducible


def quadratic_roots_oracle(f, a2, a1, a0):
    return [
        x
        for x in range(f.order)
        if f.add(f.add(f.mul(a2, f.mul(x, x)), f.mul(a1, x)), a0) == 0
    ]


def trinomial_value_table(f, k, a):
    xs = f.xs()
    return f.pow_vec(xs, 1 << k) ^ f.mul_vec(np.int64(a), xs)


def draw_binary_field(data, n):
    """F_{2^n} with the first irreducible x^n + ... + 1 at or after a drawn
    middle part."""
    middle = data.draw(st.integers(0, (1 << (n - 1)) - 1), label="middle")
    while True:
        mod = int_to_coeffs((1 << n) | (middle << 1) | 1)
        if len(mod) == n + 1 and is_irreducible(mod, 2):
            return make_field(2, n, mod)
        middle = (middle + 1) % (1 << (n - 1))


def affine_value_table(f, coeffs, b):
    xs = f.xs()
    acc = np.full(f.order, b, dtype=np.int64)
    for i, c in enumerate(coeffs):
        acc ^= f.mul_vec(np.int64(c), f.pow_vec(xs, 1 << i))
    return acc


# -- square roots ---------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (7, 1), (3, 4)])
def test_sqrt_exhaustive(p, n):
    f = make_field(p, n)
    for y in range(1, f.order):
        s = f.mul(y, y)
        r = sqrt_in_field(f, s)
        assert f.mul(r, r) == s
        assert r in (y, f.neg(y))
    with pytest.raises(BadParametersError):
        nonsq = next(x for x in range(1, f.order) if f.quadratic_character(x) == -1)
        sqrt_in_field(f, nonsq)


def reference_sqrt(f, s):
    """Tonelli-Shanks in F_{p^n}* by field.mul and field.pow, for every odd
    order (e = 1 when p^n = 3 mod 4), with the first nonsquare as the
    auxiliary nonresidue; the smaller of the two roots."""
    q, e = f.order - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = next(i for i in range(1, f.order) if f.pow(i, (f.order - 1) // 2) != 1)
    c, r, t, m = f.pow(z, q), f.pow(s, (q + 1) // 2), f.pow(s, q), e
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = f.mul(t2, t2)
            i += 1
        b = f.pow(c, 1 << (m - i - 1))
        r, c = f.mul(r, b), f.mul(b, b)
        t, m = f.mul(t, c), i
    return min(r, f.neg(r))


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
                                 (5, 3), (7, 2), (11, 2)])
def test_sqrt_table_path_equals_tonelli_shanks(p, n):
    f = make_field(p, n)  # orders 3 and 1 mod 4 both occur
    squares = sorted({f.mul(y, y) for y in range(1, f.order)})
    assert [sqrt_in_field(f, s) for s in squares] == [reference_sqrt(f, s) for s in squares]
    assert f._exp is not None  # the table path ran
    nonsquares = set(range(1, f.order)) - set(squares)
    for s in sorted(nonsquares)[:50]:
        with pytest.raises(BadParametersError):
            sqrt_in_field(f, s)


@pytest.mark.parametrize("p,n", [(3, 13), (5, 9)])  # orders 3 and 1 mod 4, above TABLE_CAP
def test_sqrt_and_quadratic_past_the_table_cap(p, n):
    f = make_field(p, n)
    s = f._mul_raw(123457, 123457)
    r = sqrt_in_field(f, s)
    assert f._mul_raw(r, r) == s and r == min(123457, f.neg(123457))
    a2, r1, r2 = 5, 1000, 424242  # a2 (x - r1)(x - r2), expanded with raw ops
    a1 = f.neg(f._mul_raw(a2, f.add(r1, r2)))
    a0 = f._mul_raw(a2, f._mul_raw(r1, r2))
    res = solve_quadratic(f, a2, a1, a0)
    assert res.kind == "pair" and res.roots == tuple(sorted((r1, r2)))
    nonsquare = 2  # 2 is a nonsquare in F_3 and F_5, so in their odd-degree extensions
    with pytest.raises(BadParametersError):
        sqrt_in_field(f, nonsquare)
    assert solve_quadratic(f, 1, 0, f.neg(nonsquare)) is solvers._NO_ROOTS
    assert f._np_exp is None and f._exp is None  # no table was built


def both_regimes(p, n, compute):
    """compute(field) over F_{p^n} on a table-backed Field, and on a fresh
    Field built and used while TABLE_CAP is 1, so on polynomial arithmetic
    alone (make_field's interned Field may hold tables already)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "TABLE_CAP", 1)
        bare = Field(p, n, CONWAY_POLYNOMIALS[p, n])
        without = compute(bare)
        assert bare._np_exp is None and bare._exp is None and bare._zech is None
    tabled = make_field(p, n)
    with_tables = compute(tabled)
    assert tabled._exp is not None
    return with_tables, without


def sqrts_and_quadratics(f):
    q, step = f.order, f.order // 7
    roots = [f.sqrt(s) for s in range(q)]
    assert all(r is None or f.mul(r, r) == s for s, r in enumerate(roots))
    assert roots.count(None) == (q - 1) // 2
    canonical = []
    for s in range(q):
        try:
            canonical.append(sqrt_in_field(f, s))
        except BadParametersError:
            canonical.append(None)
    quadratics = [solve_quadratic(f, a2, a1, a0) for a2 in range(1, q, step)
                  for a1 in range(0, q, step) for a0 in range(0, q, step)]
    assert {r.kind for r in quadratics} == {"none", "unique", "pair"}
    return [None if r is None else min(r, f.neg(r)) for r in roots], canonical, quadratics


@pytest.mark.parametrize("p,n", [(3, 3), (3, 4), (5, 3), (7, 2)])  # q = 3, 1, 1, 1 mod 4
def test_sqrt_and_quadratic_agree_with_and_without_tables(p, n):
    with_tables, without = both_regimes(p, n, sqrts_and_quadratics)
    assert with_tables == without


def binary_solvers(f):
    rng = random.Random(6)
    coeffs = [[rng.randrange(64) if rng.random() < 0.5 else 0 for _ in range(6)]
              for _ in range(40)]
    counts = [affine_root_count(f, c, b) for c in coeffs for b in range(64)]
    assert {0, 1, 2, 4} <= set(counts)
    trinomials = [solve_linearized_trinomial(f, k, a, b, enumerate_roots=True)
                  for k in range(6) for a in range(1, 64) for b in range(64)]
    return counts, trinomials


def test_binary_solvers_agree_with_and_without_tables():
    with_tables, without = both_regimes(2, 6, binary_solvers)
    assert with_tables == without


# -- quadratics ------------------------------------------------------------------

def test_quadratic_trivial_cases(f33):
    res = solve_quadratic(f33, 1, 0, 0)  # x^2 = 0
    assert res.kind == "unique" and res.roots == (0,)
    g = next(x for x in range(1, 27) if f33.quadratic_character(x) == -1)
    res = solve_quadratic(f33, 1, 0, f33.neg(g))  # x^2 = nonsquare
    assert res.kind == "none" and res.count == 0


def test_quadratic_count_is_one_plus_eta(f32):
    four = 4 % 3
    for a2 in range(1, 9):
        for a1 in range(9):
            for a0 in range(9):
                res = solve_quadratic(f32, a2, a1, a0)
                delta = f32.sub(f32.mul(a1, a1), f32.mul(four, f32.mul(a0, a2)))
                assert res.count == 1 + f32.quadratic_character(delta)
                assert sorted(res.roots) == quadratic_roots_oracle(f32, a2, a1, a0)


def test_quadratic_shifted_golden_example():
    # x^2 + x - 1: discriminant 1 + 4 = 2 in characteristic 3, so the count
    # is 1 + eta(2), which flips with the parity of n
    for n in (1, 2, 3):
        f = make_field(3, n)
        res = solve_quadratic(f, 1, 1, f.neg(1))
        assert res.count == len(quadratic_roots_oracle(f, 1, 1, f.neg(1)))
        assert res.count == 1 + f.quadratic_character(2)


@pytest.mark.parametrize("p,n", [(3, 3), (7, 2)])
def test_quadratic_every_instance(p, n):
    f = make_field(p, n)
    xs = f.xs()
    for a2 in range(1, f.order):
        for a1 in range(f.order):
            vals = f.add_vec(f.mul_vec(np.int64(a2), f.mul_vec(xs, xs)), f.mul_vec(np.int64(a1), xs))
            order = np.argsort(vals, kind="stable")  # roots of a2 x^2 + a1 x = t, ascending
            bounds = np.searchsorted(vals[order], np.arange(f.order + 1))
            for a0 in range(f.order):
                t = f.neg(a0)
                roots = tuple(order[bounds[t]:bounds[t + 1]].tolist())
                res = solve_quadratic(f, a2, a1, a0)
                assert (res.count, res.roots) == (len(roots), roots), (a2, a1, a0)
                assert res.kind == ("none", "unique", "pair")[len(roots)]


def test_quadratic_errors(f26, f33):
    with pytest.raises(EvenCharacteristicError):
        solve_quadratic(f26, 1, 1, 1)
    with pytest.raises(LeadingCoefficientZeroError):
        solve_quadratic(f33, 0, 1, 1)


# -- linearized trinomials ---------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_trinomial_exhaustive_oracle(n):
    f = make_field(2, n)
    N = f.order
    for k in range(n):
        for a in range(1, N):
            counts = np.bincount(trinomial_value_table(f, k, a), minlength=N)
            for b in range(N):
                res = solve_linearized_trinomial(f, k, a, b)
                assert res.count == counts[b], (n, k, a, b)
                if res.kind == "unique":
                    x = res.root
                    assert f.pow(x, 1 << k) ^ f.mul(a, x) == b
                elif res.kind == "subspace":
                    x = res.representative
                    assert f.pow(x, 1 << k) ^ f.mul(a, x) == b
                    assert f.pow(res.direction, (1 << k) - 1) == a


def test_trinomial_subspace_roots_enumerated(f24):
    hits = 0
    for k in range(1, 4):
        for a in range(1, 16):
            for b in range(16):
                res = solve_linearized_trinomial(f24, k, a, b, enumerate_roots=True)
                truth = [
                    x for x in range(16) if f24.pow(x, 1 << k) ^ f24.mul(a, x) == b
                ]
                assert sorted(res.roots) == sorted(truth)
                if res.kind == "subspace":
                    hits += 1
                    assert res.count == len(truth) and res.count > 1
    assert hits > 0


def test_trinomial_b_zero_subspace_contains_zero(f26):
    # x^(2^k) + ax = 0 always has root 0; when the kernel is nontrivial the
    # subspace representative must still evaluate to zero
    for k in (2, 3):
        for a in range(1, 64):
            res = solve_linearized_trinomial(f26, k, a, 0, enumerate_roots=True)
            assert 0 in res.roots


def test_trinomial_k_zero_linear(f26):
    # x + ax + b = 0: unique root b/(1+a) when a != 1
    for a in range(2, 64):
        for b in (0, 1, 17, 63):
            res = solve_linearized_trinomial(f26, 0, a, b)
            assert res.kind == "unique"
            assert res.root == f26.div(b, 1 ^ a)
    res = solve_linearized_trinomial(f26, 0, 1, 5)
    assert res.kind == "none"
    res = solve_linearized_trinomial(f26, 0, 1, 0)
    assert res.kind == "subspace" and res.count == 64


def test_trinomial_count_trichotomy(f26):
    import math

    seen = set()
    for k in range(6):
        d = math.gcd(k, 6)
        for a in range(1, 64, 5):
            for b in range(0, 64, 7):
                res = solve_linearized_trinomial(f26, k, a, b)
                assert res.count in (0, 1, 2**d)
                seen.add(res.count)
    assert {0, 1}.issubset(seen)


def reference_trinomial(f, k, a, b):
    """The per-call closed forms the solver's linear maps are built from:
    beta and alpha, the trace construction of the representative with the
    first element (in enumeration order) of nonzero trace, and the first
    direction tau (in enumeration order) with tau^(2^k - 1) = a."""
    d = math.gcd(k, f.n)
    t = f.n // d
    m = f.order - 1
    alpha = f.pow(a, sum(1 << (k * j) for j in range(t)))
    a_pows = [f.pow(a, sum(1 << (k * (j + 1)) for j in range(i, t - 1))) for i in range(t)]
    b_exps = [(1 << (k * i)) % m if m > 1 else 1 for i in range(t)]
    beta = 0
    for i in range(t):
        beta ^= f.mul(a_pows[i], f.pow(b, b_exps[i]))
    if alpha != 1:
        return "unique", f.div(beta, 1 ^ alpha), None
    if beta != 0:
        return "none", None, None
    c = next(i for i in range(1, f.order) if f.trace(i, d) != 0)
    acc = gamma = 0
    for i in range(t):
        gamma ^= f.pow(c, b_exps[i])
        acc ^= f.mul(gamma, f.mul(a_pows[i], f.pow(b, b_exps[i])))
    x0 = f.mul(f.inv(f.trace(c, d)), acc)
    tau = next(x for x in range(1, f.order) if f.pow(x, (1 << k) - 1) == a)
    return "subspace", x0, tau


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_trinomial_matches_per_call_closed_forms(data):
    n = data.draw(st.integers(1, 9), label="n")
    f = draw_binary_field(data, n)
    k = data.draw(st.integers(0, n - 1), label="k")
    a = data.draw(st.integers(1, f.order - 1), label="a")
    if data.draw(st.booleans(), label="a is a (2^k - 1)th power"):
        a = f.pow(a, (1 << k) - 1)  # the drawn a is then in the kernel: the subspace case
    b = data.draw(st.integers(0, f.order - 1), label="b")
    roots = np.flatnonzero(trinomial_value_table(f, k, a) == b).tolist()
    kind, x, tau = reference_trinomial(f, k, a, b)
    res = solve_linearized_trinomial(f, k, a, b, enumerate_roots=True)
    assert (res.kind, res.count, list(res.roots)) == (kind, len(roots), roots)
    if kind == "unique":
        assert res.root == x
    if kind == "subspace":
        assert (res.representative, res.direction) == (x, tau)
    plain = solve_linearized_trinomial(f, k, a, b)
    assert plain.kind == res.kind and plain.count == res.count
    assert (plain.representative, plain.direction) == (res.representative, res.direction)


def raw_trinomial(f, k, a, x):
    return f._pow_raw(x, 1 << k) ^ f._mul_raw(a, x)


def test_trinomial_past_the_table_cap(monkeypatch):
    f = make_field(2, 22)
    a_cube = f._pow_raw(123457, 3)  # gcd(3, 2^22 - 1) = 3: a nontrivial kernel for k = 2
    calls = 0
    mul_raw = Field._mul_raw

    def counting(self, i, j):
        nonlocal calls
        calls += 1
        return mul_raw(self, i, j)

    monkeypatch.setattr(Field, "_mul_raw", counting)
    res = solve_linearized_trinomial(f, 2, a_cube, 0)
    # one build per (k, a), independent of q: a scan for tau would take millions
    assert 0 < calls < 50_000
    monkeypatch.undo()
    assert res.kind == "subspace" and res.count == 4 and res.representative == 0
    assert f._pow_raw(res.direction, 3) == a_cube
    for k, a, b in ((2, a_cube, 987654), (2, a_cube, raw_trinomial(f, 2, a_cube, 4242)),
                    (1, 123457, 77), (3, 5, 3_000_000), (0, 9, 1 << 21)):
        res = solve_linearized_trinomial(f, k, a, b)
        assert res.count == (0 if res.kind == "none" else 1 if res.kind == "unique" else 4)
        if res.kind == "unique":
            assert raw_trinomial(f, k, a, res.root) == b
        if res.kind == "subspace":
            assert raw_trinomial(f, k, a, res.representative) == b
            assert f._pow_raw(res.direction, (1 << k) - 1) == a
            assert raw_trinomial(f, k, a, res.direction) == 0
    # b = L(4242) is solvable; its root set is the representative's kernel coset
    res = solve_linearized_trinomial(f, 2, a_cube, raw_trinomial(f, 2, a_cube, 4242),
                                     enumerate_roots=True)
    assert 4242 in res.roots and len(res.roots) == 4


def test_solver_cache_dies_with_its_field():
    f = Field(2, 6, CONWAY_POLYNOMIALS[2, 6])  # make_field's is interned and lives on
    solve_linearized_trinomial(f, 3, 5, 7)
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_solver_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(solvers, "_CACHE_ENTRIES", 5)
    f = Field(2, 5, CONWAY_POLYNOMIALS[2, 5])  # an empty cache: make_field's may hold entries
    for a in range(1, 12):
        for b in (0, 3):
            res = solve_linearized_trinomial(f, 1, a, b)
            assert res.count == int(np.count_nonzero(trinomial_value_table(f, 1, a) == b))
        assert len(f._solver_cache) == min(a, 5)
    assert list(f._solver_cache) == [(1, a) for a in range(7, 12)]  # the oldest go first


def test_trinomial_errors(f26, f33):
    with pytest.raises(OddCharacteristicError):
        solve_linearized_trinomial(f33, 1, 1, 1)
    with pytest.raises(ZeroLinearCoefficientError):
        solve_linearized_trinomial(f26, 1, 0, 1)
    with pytest.raises(BadParametersError):
        solve_linearized_trinomial(f26, 6, 1, 1)


# -- affine polynomials -------------------------------------------------------------

def test_build_AL_n2_square_map():
    f4 = make_field(2, 2)
    assert build_AL(f4, [0, 1]) == [[0, 1], [1, 0]]  # L(x) = x^2
    assert build_AL(f4, [1, 0]) == [[1, 0], [0, 1]]


def test_build_AL_patterns(f24):
    n = 4
    assert build_AL(f24, [1, 0, 0, 0]) == [
        [1 if i == j else 0 for j in range(n)] for i in range(n)
    ]
    AL = build_AL(f24, [0, 1, 0, 0])  # L(x) = x^2
    assert AL[0] == [0, 1, 0, 0]
    assert AL[1] == [0, 0, 1, 0]
    assert AL[2] == [0, 0, 0, 1]
    assert AL[3] == [1, 0, 0, 0]
    assert build_AL(f24, [0, 0, 0, 0]) == [[0] * 4 for _ in range(4)]
    with pytest.raises(BadParametersError):
        build_AL(f24, [1, 2, 3])


def test_affine_trivial_counts(f26):
    for b in (0, 1, 33):
        assert affine_root_count(f26, [1, 0, 0, 0, 0, 0], b) == 1
    assert affine_root_count(f26, [0] * 6, 0) == 64
    assert affine_root_count(f26, [0] * 6, 3) == 0


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_affine_random_oracle(data):
    n = data.draw(st.integers(2, 5))
    f = make_field(2, n)
    coeffs = [data.draw(st.integers(0, f.order - 1)) for _ in range(n)]
    b = data.draw(st.integers(0, f.order - 1))
    count = affine_root_count(f, coeffs, b)
    truth = int(np.count_nonzero(affine_value_table(f, coeffs, b) == 0))
    assert count == truth


def test_affine_agrees_with_trinomial_solver(f24):
    # L(x) = x^(2^k) + a x expressed through the generic affine machinery
    for k in range(4):
        for a in range(1, 16):
            coeffs = [0] * 4
            coeffs[k] ^= 1
            coeffs[0] ^= a
            for b in range(16):
                tri = solve_linearized_trinomial(f24, k, a, b)
                assert affine_root_count(f24, coeffs, b) == tri.count


def test_rank_multiset_invariant_under_modulus_change():
    # the multiset of root counts over all trinomial instances is an
    # isomorphism invariant, so two different moduli must agree on it
    fa = make_field(2, 4)  # Conway: x^4 + x + 1
    fb = make_field(2, 4, [1, 1, 0, 0, 1])
    fc = make_field(2, 4, [1, 0, 0, 1, 1])  # x^4 + x^3 + 1
    assert fa.modulus != fc.modulus

    def count_multiset(f):
        out = Counter()
        for k in range(4):
            for a in range(1, 16):
                coeffs = [0] * 4
                coeffs[k] ^= 1
                coeffs[0] ^= a
                for b in range(16):
                    out[affine_root_count(f, coeffs, b)] += 1
        return out

    assert count_multiset(fa) == count_multiset(fc)
    assert count_multiset(fa) == count_multiset(fb)


def reference_affine_count(f, coeffs, b):
    """The count read off A_L itself: forward elimination over F_{2^n} of A_L
    augmented by the column b^(2^i), first-nonzero pivots; 2^(n - rank) when
    the rows left below the pivots are zero in b too, else 0."""
    n = f.n
    rows = [row + [f.frobenius(b, i)] for i, row in enumerate(build_AL(f, coeffs))]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        for r in range(rank + 1, n):
            if rows[r][col] != 0:
                factor = f.div(rows[r][col], pivot_row[col])
                rows[r] = [rv ^ f.mul(factor, pv) for rv, pv in zip(rows[r], pivot_row)]
        rank += 1
    if any(rows[r][n] for r in range(rank, n)):
        return 0
    return 1 << (n - rank)


def affine_disagreements(count, f, coeffs, b):
    """The oracles (exhaustive evaluation, the A_L elimination) that disagree
    with count(f, coeffs, b)."""
    got = count(f, coeffs, b)
    out = []
    if got != int(np.count_nonzero(affine_value_table(f, coeffs, b) == 0)):
        out.append("exhaustive")
    if got != reference_affine_count(f, coeffs, b):
        out.append("A_L")
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_affine_matches_exhaustive_and_AL_elimination(data):
    n = data.draw(st.integers(1, 8), label="n")
    f = make_field(2, n) if data.draw(st.booleans(), label="conway") else draw_binary_field(data, n)
    element = st.integers(0, f.order - 1)
    shape = data.draw(st.sampled_from(["dense", "sparse", "zero", "kernel"]), label="shape")
    coeffs = [0] * n
    if shape == "dense":
        coeffs = data.draw(st.lists(element, min_size=n, max_size=n), label="coeffs")
    elif shape == "sparse":
        for i in data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2), label="support"):
            coeffs[i] = data.draw(st.integers(1, f.order - 1), label="coefficient")
    elif shape == "kernel":  # x^(2^k) + a x with a a (2^k - 1)th power: rank n - gcd(k, n)
        k = data.draw(st.integers(1, n - 1), label="k") if n > 1 else 0
        coeffs[k] ^= 1
        coeffs[0] ^= f.pow(data.draw(st.integers(1, f.order - 1), label="a"), (1 << k) - 1)
    b = data.draw(element, label="b")
    if data.draw(st.booleans(), label="b in the image"):
        b = int(affine_value_table(f, coeffs, 0)[b])
    assert affine_disagreements(affine_root_count, f, coeffs, b) == []


def test_affine_past_the_table_cap():
    f = make_field(2, 22)
    kernel = [0] * 22  # x^4 + a^3 x: a kernel of size 4
    kernel[2], kernel[0] = 1, f._pow_raw(123457, 3)
    dense = [f._pow_raw(3, 7 * i + 1) for i in range(22)]
    image = f._pow_raw(4242, 4) ^ f._mul_raw(kernel[0], 4242)  # L(4242)
    for coeffs, b, want in ((kernel, image, 4), (kernel, 987654, None), (dense, 3_000_000, None)):
        count = affine_root_count(f, coeffs, b)
        assert count == reference_affine_count(f, coeffs, b)
        assert want is None or count == want
    assert f._np_exp is None  # no table was built


def test_affine_oracles_catch_a_dropped_consistency_test():
    # a copy of affine_root_count without the test that b lies in the image
    source = textwrap.dedent(inspect.getsource(solvers.affine_root_count))
    consistency = "    if _reduce(pivots, b):\n        return 0\n"
    assert consistency in source
    namespace = dict(vars(solvers))
    exec(source.replace(consistency, ""), namespace)
    mutant = namespace["affine_root_count"]
    f = make_field(2, 4)
    coeffs = [1, 1, 0, 0]  # L(x) = x^2 + x: kernel F_2, image the elements of trace 0
    caught = [b for b in range(16) if affine_disagreements(mutant, f, coeffs, b)]
    assert caught == [b for b in range(16) if f.trace(b)]
    assert all(affine_disagreements(affine_root_count, f, coeffs, b) == [] for b in range(16))


# -- results and errors -----------------------------------------------------------------

def test_results_equal_the_dataclass_built_ones(f24, f33):
    results = {
        "none": solve_linearized_trinomial(f24, 1, 1, next(b for b in range(16) if f24.trace(b))),
        "unique": solve_quadratic(f33, 1, 0, 0),
        "pair": solve_quadratic(f33, 1, 0, f33.neg(1)),
        "subspace": solve_linearized_trinomial(f24, 1, 1, 0),
        "subspace-enumerated": solve_linearized_trinomial(f24, 1, 1, 0, enumerate_roots=True),
    }
    assert results["subspace-enumerated"].roots == (0, 1)
    for label, res in results.items():
        assert type(res) is RootResult and res.kind == label.split("-")[0]
        built = RootResult(**{fld.name: getattr(res, fld.name) for fld in dataclasses.fields(res)})
        assert res == built and built == res and not res != built
        assert hash(res) == hash(built) and repr(res) == repr(built)
        assert vars(res) == vars(built) and dataclasses.asdict(res) == dataclasses.asdict(built)
        assert pickle.loads(pickle.dumps(res)) == res and copy.copy(res) == res
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.count = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.extra = 1
        if res.kind == "unique":
            assert res.root == res.roots[0] == built.root
        else:
            with pytest.raises(ValueError):
                res.root
    assert results["unique"] != RootResult("unique", 1, (1,))
    assert len({*results.values(), *(RootResult(**vars(r)) for r in results.values())}) == 5


def test_results_take_no_more_memory_than_dataclass_built_ones():
    def traced_bytes(build):
        tracemalloc.start()
        try:
            kept = [build(i) for i in range(4000)]
            return tracemalloc.get_traced_memory()[0], kept
        finally:
            tracemalloc.stop()

    fast, _ = traced_bytes(lambda i: solvers._result("unique", 1, (i,)))
    built, _ = traced_bytes(lambda i: RootResult("unique", 1, (i,)))
    assert fast <= 1.05 * built  # a filled __dict__ per result would add about 60%


def test_error_types_per_argument(f26, f33):
    affine_cases = [
        (f33, [1, 0, 0], 0, OddCharacteristicError),
        (f33, [1, 0], 0, OddCharacteristicError),
        (f33, [1, 0, 0], 27, UnparsableElementError),  # b is coerced first
        (f26, [1, 0, 0, 0, 0], 0, BadParametersError),
        (f26, [1] * 7, 0, BadParametersError),
        (f26, [1, 0, 0, 0, 0, 64], 0, UnparsableElementError),
        (f26, [1, 0, 0, 0, 64], 0, UnparsableElementError),  # encodings before the count
        (f26, [1, 0, 0, 0, 0, -1], 0, UnparsableElementError),
        (f26, [1, 0, 0, 0, 0, 0], 64, UnparsableElementError),
        (f26, [1, 0, 0, 0, 0], 64, UnparsableElementError),
        (f26, [1, 0, 0, 0, 0, 0], "9", None),
        (f26, [1, np.int64(3), 0, 0, 0, True], np.int64(5), None),
    ]
    for f, coeffs, b, error in affine_cases:
        if error is None:
            assert affine_root_count(f, coeffs, b) == reference_affine_count(
                f, [f.as_index(c) for c in coeffs], f.as_index(b))
        else:
            with pytest.raises(error):
                affine_root_count(f, coeffs, b)
    quadratic_cases = [
        (f26, (1, 1, 1), EvenCharacteristicError),
        (f26, (0, 1, 99), EvenCharacteristicError),
        (f33, (0, 1, 1), LeadingCoefficientZeroError),
        (f33, (0, 1, 27), UnparsableElementError),  # coerced before the a2 test
        (f33, (27, 1, 1), UnparsableElementError),
        (f33, (1, -1, 1), UnparsableElementError),
        (f33, (1.7, 0, 2.2), UnparsableElementError),  # not truncated to x^2 + 2
        (f33, ("1.7", 0, 1), UnparsableElementError),
        (f33, (2, np.int64(1), "1"), None),
        (f33, (2.0, True, "5"), None),
    ]
    for f, args, error in quadratic_cases:
        if error is None:
            assert solve_quadratic(f, *args) == solve_quadratic(f, *(f.as_index(x) for x in args))
        else:
            with pytest.raises(error):
                solve_quadratic(f, *args)
    for f, s, error in ((f26, 1, EvenCharacteristicError), (f33, 27, UnparsableElementError),
                        (f33, 2, BadParametersError)):
        with pytest.raises(error):
            sqrt_in_field(f, s)
