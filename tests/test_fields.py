import gc
import io
import json
import math
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
    NoBuiltinModulusError,
    NotADivisorError,
    NotPrimeError,
    ReduciblePolynomialError,
    UnparsableElementError,
    UnparsableFieldSpecError,
    UnsupportedSizeError,
    ddt_row_power,
    make_field,
    parse_field_spec,
    solve_linearized_trinomial,
    solve_quadratic,
    sozd_row_power,
)
from sbox_spectra import cli, fields
from sbox_spectra._conway import CONWAY_POLYNOMIALS
from sbox_spectra.fields import MAX_SIZE_ENV, TABLE_CAP, Field
from sbox_spectra.polyarith import is_irreducible, prime_factors
from sbox_spectra.spectra import power_row_summary, write_row_csv


# -- construction ------------------------------------------------------------

def test_builtin_modulus_lookup(f26):
    assert f26.order == 64
    assert f26.spec_string() == "p=2;n=6;mod=1,1,0,1,1,0,1"


def test_not_prime():
    with pytest.raises(NotPrimeError):
        make_field(4, 2)


def test_no_builtin_modulus():
    with pytest.raises(NoBuiltinModulusError):
        make_field(13, 2)


def test_size_bound():
    with pytest.raises(UnsupportedSizeError):
        make_field(2, 25)
    with pytest.raises(UnsupportedSizeError):
        make_field(2, 7, max_size=64)


def test_env_override(monkeypatch):
    monkeypatch.setenv(MAX_SIZE_ENV, "64")
    with pytest.raises(UnsupportedSizeError):
        make_field(2, 7)
    assert make_field(2, 6).order == 64


def test_user_modulus_validation():
    f9 = make_field(3, 2, [1, 0, 1])  # x^2 + 1, irreducible over F_3
    assert f9.order == 9
    with pytest.raises(ReduciblePolynomialError):
        make_field(3, 2, [2, 0, 1])  # x^2 + 2 = (x-1)(x+1)
    with pytest.raises(BadParametersError):
        make_field(3, 2, [1, 0, 0, 1])  # wrong length
    with pytest.raises(BadParametersError):
        make_field(3, 2, [1, 0, 2])  # not monic
    with pytest.raises(BadParametersError):
        make_field(3, 0)


# -- the intern of small fields -----------------------------------------------

def test_small_fields_are_interned():
    f = make_field(2, 12)
    assert make_field(2, 12) is f and parse_field_spec("p=2;n=12") is f
    assert make_field(3, 7) is parse_field_spec(" p=3;n=7 ")
    assert make_field(2, 6, [1, 1, 0, 0, 0, 0, 1]) is parse_field_spec("p=2;n=6;mod=1,1,0,0,0,0,1")
    assert make_field(2, 6, [1, 1, 0, 0, 0, 0, 1]) is not make_field(2, 6)
    assert make_field(2, 13) is not make_field(2, 13)  # above INTERN_MAX_ORDER
    assert parse_field_spec("p=3;n=8") is not parse_field_spec("p=3;n=8")


def test_explicit_conway_modulus_shares_the_entry():
    fields._interned_field.cache_clear()
    f = make_field(3, 5)
    assert make_field(3, 5, CONWAY_POLYNOMIALS[3, 5]) is f
    assert make_field(3, 5, list(CONWAY_POLYNOMIALS[3, 5])) is f
    assert parse_field_spec(f.spec_string()) is f
    assert fields._interned_field.cache_info().currsize == 1


def test_a_field_that_fails_validation_is_not_interned():
    fields._interned_field.cache_clear()
    for _ in range(2):
        with pytest.raises(ReduciblePolynomialError):
            make_field(3, 2, [2, 0, 1])
        with pytest.raises(BadParametersError):
            make_field(3, 2, [1, 0, 2])
    assert fields._interned_field.cache_info().currsize == 0


def test_interned_field_keeps_the_size_bound(monkeypatch):
    make_field(2, 7)
    with pytest.raises(UnsupportedSizeError):
        make_field(2, 7, max_size=64)
    with pytest.raises(UnsupportedSizeError):
        parse_field_spec("p=2;n=7", max_size=64)
    monkeypatch.setenv(MAX_SIZE_ENV, "64")
    with pytest.raises(UnsupportedSizeError):
        make_field(2, 7)
    with pytest.raises(UnsupportedSizeError):
        make_field(2, 7, CONWAY_POLYNOMIALS[2, 7])


def irreducible_moduli(p, n):
    """Every monic irreducible modulus of degree n over F_p, constant term first."""
    for low in range(p**n):
        mod = [low // p**i % p for i in range(n)] + [1]
        if is_irreducible(mod, p):
            yield mod


def test_intern_is_bounded_and_evicted_fields_die():
    assert fields.INTERN_ENTRIES == 32 and fields.INTERN_MAX_ORDER == 1 << 12
    fields._interned_field.cache_clear()
    moduli = list(irreducible_moduli(2, 8))
    first = weakref.ref(make_field(2, 8, moduli[0]))
    first().mul(3, 5)  # tables and list mirrors built
    gc.collect()
    assert first() is not None  # the intern holds it
    for mod in moduli[1:33]:
        make_field(2, 8, mod)
        assert fields._interned_field.cache_info().currsize <= 32
    for p, n in CONWAY_POLYNOMIALS:
        if p**n <= fields.INTERN_MAX_ORDER:
            make_field(p, n)
            assert fields._interned_field.cache_info().currsize <= 32
    gc.collect()
    assert first() is None


def test_registry_builds_each_field_once(monkeypatch, capsys):
    calls = []
    search = Field._find_generator
    monkeypatch.setattr(Field, "_find_generator", lambda self: calls.append(1) or search(self))
    fields._interned_field.cache_clear()
    assert cli.main(["verify", "--registry"]) == 1  # the known defective rows
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 55
    built = {(r["p"], r["n"]) for r in rows if r["status"] != "skipped"}
    assert len(calls) == len(built) == 17


# -- arithmetic -------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 4), (3, 2), (5, 2), (2, 6), (3, 3)])
def test_field_axioms_exhaustive_pairs(p, n):
    f = make_field(p, n)
    N = f.order
    one = 1
    for i in range(N):
        assert f.add(i, 0) == i
        assert f.mul(i, one) == i
        assert f.add(i, f.neg(i)) == 0
        if i:
            assert f.mul(i, f.inv(i)) == one
            assert f.pow(i, N - 1) == one
    for i in range(N):
        for j in range(N):
            assert f.add(i, j) == f.add(j, i)
            assert f.mul(i, j) == f.mul(j, i)
            assert f.sub(f.add(i, j), j) == i


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1023), st.integers(0, 1023), st.integers(0, 1023))
def test_axioms_random_f2_10(i, j, k):
    f = make_field(2, 10)
    assert f.mul(f.add(i, j), k) == f.add(f.mul(i, k), f.mul(j, k))
    assert f.mul(f.mul(i, j), k) == f.mul(i, f.mul(j, k))
    assert f.add(f.add(i, j), k) == f.add(i, f.add(j, k))
    assert f.add(i, i) == 0  # characteristic 2


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 242), st.integers(0, 242), st.integers(0, 242))
def test_axioms_random_f3_5(i, j, k):
    f = make_field(3, 5)
    assert f.mul(f.add(i, j), k) == f.add(f.mul(i, k), f.mul(j, k))
    assert f.mul(f.mul(i, j), k) == f.mul(i, f.mul(j, k))


@pytest.mark.parametrize("p,n", [(2, 12), (3, 8)])
def test_axioms_random_above_2_10(p, n):
    # spot checks on fields past the exhaustive-testing size
    f = make_field(p, n)
    rng = np.random.default_rng(5)
    for _ in range(100):
        i, j, k = (int(v) for v in rng.integers(0, f.order, 3))
        assert f.mul(f.add(i, j), k) == f.add(f.mul(i, k), f.mul(j, k))
        assert f.mul(f.mul(i, j), k) == f.mul(i, f.mul(j, k))
        if i:
            assert f.mul(i, f.inv(i)) == 1


def test_division_by_zero(f26):
    with pytest.raises(ZeroDivisionError):
        f26.inv(0)
    with pytest.raises(ZeroDivisionError):
        f26.div(5, 0)


def test_pow_edge_cases(f33):
    assert f33.pow(0, 0) == 1
    assert f33.pow(0, 5) == 0
    assert f33.pow(7, 0) == 1
    with pytest.raises(BadParametersError):
        f33.pow(2, -1)


# -- frobenius / trace / subfields -------------------------------------------

def test_frobenius_identity_powers(f26):
    for x in range(64):
        assert f26.frobenius(x, 0) == x
        assert f26.frobenius(x, 6) == x
        assert f26.frobenius(x, 1) == f26.pow(x, 2)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 5))
def test_frobenius_is_automorphism(x, y, j):
    f = make_field(2, 6)
    assert f.frobenius(f.add(x, y), j) == f.add(f.frobenius(x, j), f.frobenius(y, j))
    assert f.frobenius(f.mul(x, y), j) == f.mul(f.frobenius(x, j), f.frobenius(y, j))


def test_trace_fibers_f16(f24):
    # onto F_4: every target element hit exactly 4 times
    fibers = Counter(f24.trace(x, 2) for x in range(16))
    assert sorted(fibers.values()) == [4, 4, 4, 4]
    targets = set(fibers)
    assert all(f24.in_subfield(t, 2) for t in targets)


def test_trace_linear_and_subfield_valued(f26):
    for x in range(0, 64, 5):
        for y in range(0, 64, 7):
            assert f26.trace(f26.add(x, y), 3) == f26.add(f26.trace(x, 3), f26.trace(y, 3))
    assert f26.trace(0, 2) == 0
    for x in range(64):
        y = f26.trace(x, 2)
        assert f26.frobenius(y, 2) == y
    with pytest.raises(NotADivisorError):
        f26.trace(1, 4)


def test_trace_surjective_and_subfield_linear(f26):
    for d in (1, 2, 3):
        images = {f26.trace(x, d) for x in range(64)}
        assert images == set(f26.subfield_indices(d))
        # F_{p^d}-linearity: trace(c*x) = c*trace(x) for subfield scalars c
        for c in f26.subfield_indices(d):
            for x in (7, 22, 51):
                assert f26.trace(f26.mul(c, x), d) == f26.mul(c, f26.trace(x, d))


def test_subfield_counts(f26):
    assert len(f26.subfield_indices(1)) == 2
    assert len(f26.subfield_indices(2)) == 4
    assert len(f26.subfield_indices(3)) == 8
    assert len(f26.subfield_indices(6)) == 64
    assert f26.in_subfield(0, 3)
    with pytest.raises(NotADivisorError):
        f26.in_subfield(1, 5)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 6), (3, 1), (3, 4), (5, 2), (7, 2)])
def test_subfield_indices_equal_the_scan(p, n):
    f = make_field(p, n)
    for d in range(1, n + 1):
        if n % d == 0:
            assert f.subfield_indices(d) == [i for i in range(f.order) if f.in_subfield(i, d)]
    with pytest.raises(NotADivisorError):
        f.subfield_indices(n + 1)


@pytest.mark.parametrize("p,n,d", [(2, 22, 2), (2, 22, 11), (3, 14, 2)])
def test_subfield_indices_past_the_table_cap(p, n, d):
    f = make_field(p, n)
    sub = f.subfield_indices(d)
    assert len(sub) == p**d and sub == sorted(set(sub)) and sub[:2] == [0, 1]
    assert all(f.frobenius(x, d) == x for x in sub[:: max(1, len(sub) // 50)])


def test_generator_search_runs_once_past_the_table_cap(monkeypatch):
    calls = []
    search = Field._find_generator
    monkeypatch.setattr(Field, "_find_generator", lambda self: calls.append(1) or search(self))
    f = make_field(2, 22)
    a = f.pow(123457, 3)
    first = solve_linearized_trinomial(f, 2, a, 0, enumerate_roots=True)
    second = solve_linearized_trinomial(f, 2, a, 0, enumerate_roots=True)
    assert first == second and first.count == len(first.roots) == 4
    assert len(calls) == 1
    assert f._np_exp is None  # the generator is kept without building tables


def test_generator_past_the_table_cap_builds_no_tables():
    """Above TABLE_CAP the generator is the search's, primitive, and no
    tables are built; at the cap reading it still builds exp."""
    f = Field(2, 22, CONWAY_POLYNOMIALS[2, 22])  # make_field's is interned and may hold it
    g = f.generator
    m = f.order - 1
    assert all(f.pow(g, m // r) != 1 for r in prime_factors(m)) and f.pow(g, m) == 1
    assert f.generator == g and f._np_exp is None
    at_cap = Field(2, 20, CONWAY_POLYNOMIALS[2, 20])
    assert at_cap.order == TABLE_CAP
    g = at_cap.generator
    assert at_cap._np_exp is not None and int(at_cap._np_exp[1]) == g


def test_tables_reuse_the_generator_a_subfield_query_found(monkeypatch):
    calls = []
    search = Field._find_generator
    monkeypatch.setattr(Field, "_find_generator", lambda self: calls.append(1) or search(self))
    f = Field(2, 12, CONWAY_POLYNOMIALS[2, 12])  # make_field's is interned and may hold it
    subfield = f.subfield_indices(4)  # its scalar products build the tables
    table = f.power_map_table(7)
    assert len(calls) == 1
    assert all(int(table[x]) == f._pow_raw(x, 7) for x in range(0, f.order, 37))
    assert subfield == [x for x in range(f.order) if f.frobenius(x, 4) == x]


# -- quadratic character ------------------------------------------------------

def test_quadratic_character_basics(f33):
    assert f33.quadratic_character(0) == 0
    for y in range(1, 27):
        assert f33.quadratic_character(f33.mul(y, y)) == 1
    plus = sum(1 for x in range(1, 27) if f33.quadratic_character(x) == 1)
    assert plus == 13  # (p^n - 1) / 2


@pytest.mark.parametrize("n,expected", [(1, -1), (2, 1), (3, -1), (4, 1)])
def test_eta_minus_one_parity(n, expected):
    f = make_field(3, n)
    assert f.quadratic_character(f.neg(1)) == expected


def test_eta_multiplicative(f52):
    for x in range(1, 25):
        for y in range(1, 25):
            assert f52.quadratic_character(f52.mul(x, y)) == (
                f52.quadratic_character(x) * f52.quadratic_character(y)
            )


def test_eta_even_characteristic(f26):
    with pytest.raises(EvenCharacteristicError):
        f26.quadratic_character(1)


# -- enumeration and encoding --------------------------------------------------

def test_enumeration_order(f33):
    assert len(f33) == 27
    # coefficient vectors sort like their encodings (constant term least significant)
    digits = [f33.coeffs(i) for i in range(27)]
    assert digits == sorted(digits, key=lambda c: c[::-1]) and len(set(digits)) == 27
    for i, c in enumerate(digits):
        assert f33.from_coeffs(c) == i


def test_power_facts(f26, f28):
    pf = f26.power_facts(11)  # gcd(11, 63) = 1
    assert pf.g == 1 and pf.is_permutation
    pf = f28.power_facts(21)  # gcd(21, 255) = 3
    assert pf.g == 3 and not pf.is_permutation
    assert f26.power_facts(1).g == 1


# -- parsing -------------------------------------------------------------------

def test_field_spec_round_trip(f26):
    f = parse_field_spec(f26.spec_string())
    assert f.spec_string() == f26.spec_string()
    g = parse_field_spec("p=3;n=2")
    assert g.order == 9 and "mod=" in g.spec_string()


@pytest.mark.parametrize("bad", ["", "p=2", "n=6", "p=2;n=6;extra=1", "p=x;n=6",
                                 "p=2;n=6;mod=1,2,3"])
def test_field_spec_errors(bad):
    with pytest.raises((UnparsableFieldSpecError, BadParametersError, ValueError)):
        parse_field_spec(bad)


def test_element_parsing(f26, f33):
    assert f26.parse_element("0x0b") == 11
    assert f26.parse_element("11") == 11
    assert f26.parse_element("1,1,0,1") == 11
    assert f33.parse_element("2,1") == 5
    with pytest.raises(UnparsableElementError):
        f33.parse_element("0x5")  # hex words only for p = 2
    with pytest.raises(UnparsableElementError):
        f26.parse_element("64")  # out of range
    with pytest.raises(UnparsableElementError):
        f26.parse_element("zz")
    assert f26.format_element(11) == "0x0b"
    assert f33.format_element(5) == "2,1,0"  # all n digits, constant term first


# -- odd-p addition: Zech logarithms and limb tables ------------------------------

# moduli for fields without a built-in one: x^2 - 2 over F_13, x^2 - 3 over
# F_17 and F_257, all irreducible.  Limb widths: w = 2 for 13, w = 1 for 17,
# and 257 > 256 has no limb table.
NO_BUILTIN_MODULUS = {(13, 2): [11, 0, 1], (17, 2): [14, 0, 1], (257, 2): [254, 0, 1]}


def odd_field(p, n):
    return make_field(p, n, NO_BUILTIN_MODULUS.get((p, n)))


def digit_add(f, i, j, sign=1):
    return f.from_coeffs((x + sign * y) % f.p for x, y in zip(f.coeffs(i), f.coeffs(j)))


def assert_digitwise(f, pairs):
    """Scalar and vector add/sub/neg of f on these (i, j) equal digit_add."""
    I, J = (np.array(v, dtype=np.int64) for v in zip(*pairs))
    add, sub, neg = f.add_vec(I, J), f.sub_vec(I, J), f.sub_vec(0, I)
    for k, (i, j) in enumerate(pairs):
        assert f.add(i, j) == add[k] == digit_add(f, i, j)
        assert f.sub(i, j) == sub[k] == digit_add(f, i, j, -1)
        assert f.neg(i) == neg[k] == digit_add(f, 0, i, -1)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 3), (5, 2), (7, 2), (13, 2), (17, 2)])
def test_zech_arithmetic_every_pair(p, n):
    f = odd_field(p, n)
    assert_digitwise(f, [(i, j) for i in range(f.order) for j in range(f.order)])
    assert f._zech is not None


@pytest.mark.parametrize("p,n", [(3, 6), (11, 2), (257, 2), (3, 13), (5, 9)])
def test_zech_arithmetic_sampled_pairs(p, n):
    # (3, 13) and (5, 9) lie above TABLE_CAP: no Zech logarithms there
    f = odd_field(p, n)
    rng = np.random.default_rng(p * n)
    assert_digitwise(f, rng.integers(0, f.order, (3000, 2)).tolist())
    assert (f._zech is None) == (f.order > TABLE_CAP)


# x^25 + 2x^3 + 1 over F_3, irreducible: an order past 2^31, where the vector ops refuse
F3_25 = (3, 25, [1, 0, 0, 2] + [0] * 21 + [1])


@pytest.mark.parametrize("p,n,modulus", [(3, 13, None), F3_25], ids=["F3^13", "F3^25"])
def test_scalar_ops_past_the_table_cap_never_reach_the_vector_ops(monkeypatch, p, n, modulus):
    # above TABLE_CAP every scalar op runs on polynomial arithmetic; 3^13 lies
    # below 2^31, where a vector op would still answer, and 3^25 above it
    def refuse(self, *args):
        raise AssertionError("a scalar op called a vector op")

    for name in ("add_vec", "sub_vec", "mul_vec", "pow_vec"):
        monkeypatch.setattr(Field, name, refuse)
    f = make_field(p, n, modulus, max_size=p**n)
    assert f.order > TABLE_CAP
    pairs = np.random.default_rng(n).integers(0, f.order, (300, 2)).tolist()
    for i, j in pairs:
        assert f.add(i, j) == digit_add(f, i, j)
        assert f.sub(i, j) == digit_add(f, i, j, -1)
        assert f.neg(i) == digit_add(f, 0, i, -1)
    assert f.mul(5, 7) == 26  # (2 + x)(1 + 2x) = 2 + 2x + 2x^2
    (r, s), (x, y) = pairs[:2]
    assert f.trace(1) == n % p and f.trace(f.add(x, y)) == f.add(f.trace(x), f.trace(y)) < p
    assert f.sqrt(f.mul(r, r)) in (r, f.neg(r))
    res = solve_quadratic(f, 1, f.neg(f.add(r, s)), f.mul(r, s))  # (x - r)(x - s)
    assert res.kind == "pair" and res.roots == tuple(sorted((r, s)))
    assert f._np_exp is None


def test_odd_p_addition_is_linear_memory():
    f = make_field(3, 12)
    q = f.order
    A, B = np.random.default_rng(12).integers(0, q, (2, q))
    make_field(3, 2).add_vec(1, 1)  # builds the tables shared by every field of characteristic 3
    tracemalloc.start()
    try:
        s = f.add_vec(A, B)
        d = f.sub_vec(A, B)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * q  # six q-length int64 arrays, results included
    assert kept - s.nbytes - d.nbytes < 2 << 20  # nothing O(q) stays with the Field
    assert np.array_equal(f.sub_vec(s, B), A) and np.array_equal(f.add_vec(d, B), A)


# -- int32 encodings: the arithmetic that could pass 2^31 -------------------
#
# CI runs these under NumPy 1.24 (value-based promotion) and the latest NumPy
# (NEP 50), which differ in the dtype an int32 array takes from a Python int.


NON_CONWAY_MODULI = [
    (2, 8, [1, 1, 0, 1, 1, 0, 0, 0, 1]),  # AES x^8+x^4+x^3+x+1: x is not primitive
    (2, 10, [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]),  # x^10+x^3+1
    (2, 5, [1, 0, 0, 1, 0, 1]),  # x^5+x^3+1
    (3, 3, [1, 2, 0, 1]),  # x^3+2x+1
]


def top_log_encodings(f):
    """Encodings with the largest logs, q - 2 down to q - 9, and the smallest."""
    exp, _ = f.log_tables()
    return np.concatenate((exp[::-1][:8], exp[:8]))


@pytest.mark.parametrize("p,n", [(2, 20), (3, 12)])
def test_pow_vec_past_2_31_equals_scalar_pow(p, n):
    # log * e passes 2^31 here; e = -1 (mod q - 1) is the inverse
    f = make_field(p, n)
    m = f.order - 1
    rng = np.random.default_rng(n)
    A = np.concatenate(([0, 1], top_log_encodings(f), rng.integers(0, f.order, 64)))
    minus_one = ((1 << 31) // m + 1) * m - 1
    # e = 0 (mod q - 1) too: x^e = 1 on every nonzero x, 0^e = 0
    for e in (minus_one, minus_one + (m << 40), (1 << 31) + 5, 1 << 70, m, m << 33, minus_one + 1):
        got = f.pow_vec(A, e)
        assert got.dtype == np.int32
        assert got.tolist() == [f.pow(x, e) for x in A.tolist()]
    assert f.pow_vec(A, m << 33).tolist() == [int(x != 0) for x in A.tolist()]
    nz = A[A != 0]
    inverses = f.pow_vec(nz, minus_one)
    assert np.array_equal(inverses, f.div_vec(1, nz))
    assert all(f._mul_raw(x, y) == 1 for x, y in zip(nz.tolist(), inverses.tolist()))
    # the inverse map's images: an exponent near q costs no more than d = 7
    assert np.array_equal(f.power_map_table(minus_one)[A], f.pow_vec(A, minus_one))


@pytest.mark.parametrize("p,n,mod", [pytest.param(p, n, None, id=f"{p}-{n}") for p, n in
                                     ((2, 1), (2, 6), (3, 1), (3, 4), (5, 2), (7, 3))]
                         + [pytest.param(p, n, mod, id=f"{p}-{n}-mod")
                            for p, n, mod in (NON_CONWAY_MODULI[0], NON_CONWAY_MODULI[3])])
def test_pow_vec_over_the_whole_field_equals_scalar_pow(p, n, mod):
    # every element, 0 included, at exponents 0, 1 and e = 0, 1 (mod q - 1)
    f = make_field(p, n, mod)
    q = f.order
    m = q - 1
    xs = f.xs()
    for e in (0, 1, 2, m, m + 1, 2 * m, 5 * m + 3, m << 40):
        got = f.pow_vec(xs, e)
        assert got.dtype == np.int32 and got.shape == xs.shape
        assert got.tolist() == [f.pow(x, e) for x in range(f.order)], e
        for x in (0, 1, f.order - 1):  # a 0-d array in, a 0-d array out
            one = f.pow_vec(x, e)
            assert one.shape == () and int(one) == f.pow(x, e), (x, e)
    # power_map_table reads exp alone; over F_2 every d is 0 (mod q - 1)
    for d in (1, 2, 7, q - 2, m, q, 2 * m, 3 * q + 5, (1 << 64) + 3):
        if d >= 1:
            tab = f.power_map_table(d)
            assert tab.dtype == np.int32 and np.array_equal(tab, f.pow_vec(xs, d)), d


@pytest.mark.parametrize("p,n", [(2, 20), (3, 12)])
def test_mul_div_vec_at_logs_near_q_minus_2(p, n):
    f = make_field(p, n)
    A, B = (v.ravel() for v in np.meshgrid(top_log_encodings(f), top_log_encodings(f)))
    mul, div = f.mul_vec(A, B), f.div_vec(A, B)
    assert mul.dtype == div.dtype == np.int32
    for i, j, ij, i_j in zip(A.tolist(), B.tolist(), mul.tolist(), div.tolist()):
        assert ij == f._mul_raw(i, j) == f.mul(i, j)
        assert f._mul_raw(i_j, j) == i and i_j == f.div(i, j)


@pytest.mark.parametrize("p,n,mod", [(3, 13, None), (3, 15, None),
                                     (257, 2, NO_BUILTIN_MODULUS[257, 2]),
                                     (40009, 1, (0, 1)), ((1 << 31) - 1, 1, (0, 1))])
def test_odd_p_add_sub_at_the_top_digits(p, n, mod):
    # every digit p - 1: at 3^15 a limb index formed as A * P + B (P = 243)
    # would pass 2^31, and at p = 2^31 - 1 so would the sum a + b of two digits
    f = make_field(p, n, mod, max_size=1 << 31)
    top = f.order - 1
    rng = np.random.default_rng(p)
    assert_digitwise(f, [(top, top), (top, 0), (0, top), (top, 1), (1, top), (top - 1, top),
                         (top // 2, top // 2 + 1)] + rng.integers(0, f.order, (200, 2)).tolist())
    assert f.add_vec([top], [top]).dtype == f.sub_vec(top, 1).dtype == np.int32


@pytest.mark.parametrize("spec", ["p=2;n=3", "p=3;n=3", "p=5;n=2", "p=7;n=2",
                                  "p=40009;n=1;mod=0,1"])
def test_add_sub_vec_broadcast_either_operand(spec):
    """A broadcasts against a larger B as B against a larger A, as in
    mul_vec: (1, 3) with (2, 1) gives a (2, 3) result, each cell the
    scalar op's, in both orders and against a scalar."""
    f = parse_field_spec(spec)
    rng = np.random.default_rng(f.p)
    row = rng.integers(0, f.order, (1, 3))
    col = rng.integers(0, f.order, (2, 1))
    for vec, scalar in ((f.add_vec, f.add), (f.sub_vec, f.sub)):
        for A, B in ((row, col), (col, row), (row[0], col), (5 % f.order, col)):
            out = vec(A, B)
            A2, B2 = np.broadcast_arrays(A, B)
            assert out.shape == A2.shape
            assert out.tolist() == [[scalar(int(x), int(y)) for x, y in zip(xa, ya)]
                                    for xa, ya in zip(A2.tolist(), B2.tolist())]


def test_vector_ops_refuse_orders_from_2_31():
    f = make_field(2147483659, 1, (0, 1), max_size=1 << 32)  # the first prime past 2^31
    for op in (f.xs, lambda: f.add_vec(1, 2), lambda: f.sub_vec(1, 2), lambda: f.mul_vec(1, 2),
               lambda: f.div_vec(1, 2), lambda: f.pow_vec(3, 2)):
        with pytest.raises(UnsupportedSizeError, match="int32"):
            op()
    assert f.mul(3, 5) == 15 and f._xs is None


@pytest.mark.parametrize("p,n", [(3, 2), (5, 3), (7, 1)])
def test_zech_cells_where_one_plus_g_k_vanishes(p, n):
    f = make_field(p, n)
    f.mul(1, 1)  # the first scalar call builds the Zech table
    half = (f.order - 1) // 2  # g^half = -1
    assert f._zech.count(-1) == 1 and f._zech[half] == -1
    exp = f._np_exp.tolist()
    for s in range(f.order - 1):
        i, j = exp[s], exp[(s + half) % (f.order - 1)]
        assert f.add(i, j) == 0 == digit_add(f, i, j)
        assert f.sub(i, f.neg(j)) == 0 and f.neg(i) == j


def test_zech_table_is_built_only_by_a_scalar_call():
    f = Field(3, 5, CONWAY_POLYNOMIALS[3, 5])  # a fresh Field: make_field's may be built
    f.power_map_table(7)
    assert f._zech is None and f._exp is None
    f.mul(1, 1)
    assert len(f._zech) == f.order - 1
    f2 = Field(2, 6, CONWAY_POLYNOMIALS[2, 6])
    f2.mul(1, 1)
    assert f2._zech is None  # p = 2 adds by XOR


# -- vectorized operations agree with scalar ------------------------------------

@pytest.mark.parametrize("p,n", [(2, 6), (3, 3), (5, 2), (7, 2), (11, 2)])
def test_vector_ops_match_scalar(p, n):
    f = make_field(p, n)
    N = f.order
    rng = np.random.default_rng(42)
    A = rng.integers(0, N, 200)
    B = rng.integers(0, N, 200)
    add = f.add_vec(A, B)
    sub = f.sub_vec(A, B)
    mul = f.mul_vec(A, B)
    for i in range(200):
        assert add[i] == f.add(int(A[i]), int(B[i]))
        assert sub[i] == f.sub(int(A[i]), int(B[i]))
        assert mul[i] == f.mul(int(A[i]), int(B[i]))
    Bn = np.where(B == 0, 1, B)
    div = f.div_vec(A, Bn)
    pw = f.pow_vec(A, 7)
    for i in range(200):
        assert div[i] == f.div(int(A[i]), int(Bn[i]))
        assert pw[i] == f.pow(int(A[i]), 7)
    tab = f.power_map_table(5)
    for x in range(N):
        assert tab[x] == f.pow(x, 5)


# -- exp/log tables ------------------------------------------------------------

def sequential_tables(f):
    """Reference build: the first g (by encoding) whose powers, taken one
    _mul_raw at a time, run through all q - 1 nonzero elements."""
    m = f.order - 1
    for g in range(1, f.order):
        exp = [1]
        while len(exp) < m:
            nxt = f._mul_raw(exp[-1], g)
            if nxt == 1:
                break
            exp.append(nxt)
        if len(exp) == m and f._mul_raw(exp[-1], g) == 1:
            log = [-1] * f.order
            for i, e in enumerate(exp):
                log[e] = i
            return g, exp, log
    raise AssertionError("no generator")


CONWAY_UP_TO_2_12 = sorted(k for k in CONWAY_POLYNOMIALS if k[0] ** k[1] <= 1 << 12)


@pytest.mark.parametrize("p,n,mod", [(p, n, None) for p, n in CONWAY_UP_TO_2_12]
                         + [(2, 1, None), (3, 1, None), (11, 1, None)] + NON_CONWAY_MODULI
                         + [(p, n, NO_BUILTIN_MODULUS[p, n]) for p, n in ((13, 2), (17, 2))])
def test_tables_equal_sequential_build(p, n, mod):
    f = make_field(p, n, mod)
    g, exp, log = sequential_tables(f)
    assert f.generator == g
    f.mul(1, 1)  # the list mirrors are made on the first scalar call
    assert f._exp == exp and f._log == log
    assert all(type(v) is int for v in f._exp) and all(type(v) is int for v in f._log)
    assert f._np_exp.dtype == np.int32 and f._np_log.dtype == np.int32
    assert f._np_exp.tolist() == exp and f._np_log.tolist() == log


@pytest.mark.parametrize("p,n", [(2, 20), (3, 12)])
def test_tables_at_the_cap(p, n):
    f = make_field(p, n)
    q, g = f.order, f.generator
    exp, log = f.log_tables()
    assert np.array_equal(np.sort(exp), np.arange(1, q))
    assert np.array_equal(log[exp], np.arange(q - 1))
    assert log[0] == -1
    f.mul(1, 1)  # the list mirrors are made on the first scalar call
    for i in np.random.default_rng(20).integers(0, q - 2, 1000).tolist():
        assert f._exp[i + 1] == f._mul_raw(f._exp[i], g)
    assert f._mul_raw(f._exp[-1], g) == 1


@pytest.mark.parametrize("p,n", [(2, 16), (3, 9)])
def test_table_build_makes_few_scalar_products(monkeypatch, p, n):
    # the build is O(n log q) scalar products, not one per element
    calls = 0
    mul_raw = Field._mul_raw

    def counting(self, i, j):
        nonlocal calls
        calls += 1
        return mul_raw(self, i, j)

    monkeypatch.setattr(Field, "_mul_raw", counting)
    f = make_field(p, n)
    f._ensure_tables()
    assert 0 < calls < 20 * n * math.log2(f.order)


def test_rows_leave_the_list_mirrors_unbuilt():
    # the vectorised row path reads only the int32 exp table: no list
    # mirrors, and no log until an op reads it
    f = make_field(2, 16)
    row = sozd_row_power(f, 7)
    ddt = ddt_row_power(f, 7)
    power_row_summary(f, "ddt", ddt)
    write_row_csv(f, "sozd", "x^7", row, io.BytesIO())
    assert f._np_exp is not None and f._exp is None and f._log is None
    assert f._np_log is None
    fresh = make_field(2, 16)
    for built, ref in zip(f.log_tables(), fresh.log_tables()):
        assert np.array_equal(built, ref)
    fresh.mul(1, 1)
    rng = np.random.default_rng(16)
    for i, j in rng.integers(1, f.order, (200, 2)).tolist():
        assert f.mul(i, j) == fresh.mul(i, j) == f._mul_raw(i, j)
        assert f.div(i, j) == fresh.div(i, j) and f.inv(i) == fresh.inv(i)
        assert f.pow(i, j) == fresh.pow(i, j)
    assert f._exp == fresh._exp and f._log == fresh._log
    assert np.array_equal(row, sozd_row_power(fresh, 7))


def test_scalar_ops_past_the_table_cap():
    f = make_field(2, 21)
    with pytest.raises(UnsupportedSizeError, match="exp/log tables not built"):
        f._ensure_tables()
    assert f.mul(3, 5) == f._mul_raw(3, 5)  # scalar ops fall back to polynomials
    f3 = make_field(3, 13)  # odd-p add/sub/neg run on one element through the limbs
    for i, j in [(1, 2), (f3.order - 1, 1), (12345, 1594322), (797161, 797161)]:
        assert f3.add(i, j) == digit_add(f3, i, j)
        assert f3.sub(i, j) == digit_add(f3, i, j, -1)
        assert f3.neg(i) == digit_add(f3, 0, i, -1)
    assert f3._np_exp is None
