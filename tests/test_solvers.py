"""Solver tests.  Every solver is checked against direct exhaustive
evaluation over the whole field (the oracle never goes through the solver
logic); the full-scale sweeps demanded by the acceptance suite live in
test_acceptance.py, smaller instances here for fast feedback."""

import gc
import math
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
    ZeroLinearCoefficientError,
    affine_root_count,
    build_AL,
    make_field,
    solve_linearized_trinomial,
    solve_quadratic,
    sqrt_in_field,
)
from sbox_spectra import solvers
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
    # the first irreducible x^n + ... + 1 at or after a drawn middle part
    middle = data.draw(st.integers(0, (1 << (n - 1)) - 1), label="middle")
    while True:
        mod = int_to_coeffs((1 << n) | (middle << 1) | 1)
        if len(mod) == n + 1 and is_irreducible(mod, 2):
            break
        middle = (middle + 1) % (1 << (n - 1))
    f = make_field(2, n, mod)
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
    f = make_field(2, 6)
    solve_linearized_trinomial(f, 3, 5, 7)
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_solver_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(solvers, "_CACHE_ENTRIES", 5)
    f = make_field(2, 5)
    for a in range(1, 12):
        for b in (0, 3):
            res = solve_linearized_trinomial(f, 1, a, b)
            assert res.count == int(np.count_nonzero(trinomial_value_table(f, 1, a) == b))
        assert len(solvers._caches[f]) == min(a, 5)
    assert list(solvers._caches[f]) == [(1, a) for a in range(7, 12)]  # the oldest go first


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
