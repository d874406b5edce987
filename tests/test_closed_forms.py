"""Predictor and verification-harness tests.

The frozen expected numbers in this module come from the exhaustive
brute-force oracle (cross-validated against scalar evaluation, the
fast-path/brute-force pair, and modulus independence in test_spectra);
where they differ from the published per-entry claims, the registry and
verify reports are required to flag the difference rather than hide it.
"""

import itertools
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbox_spectra import (
    BadParametersError,
    EvenCharacteristicError,
    PowerMap,
    ddt_table,
    make_field,
    predict_ddt_x4_f3n,
    predict_fbct_2m3,
    predict_fbct_2m5,
    predict_sozd_pk1,
    Prediction,
    registry_cases,
    sozd_table,
    verify_ddt_x4,
    verify_fbct_2m3,
    verify_fbct_2m5,
    verify_registry,
    verify_sozd_pk1,
    verify_theorem,
)
from sbox_spectra import cli, fields
from sbox_spectra._conway import CONWAY_POLYNOMIALS
from sbox_spectra.closed_forms import (
    _check_pk1,
    _claim_ddt_x4,
    _claim_fbct_2m3,
    _claim_fbct_2m5,
    _claim_rows,
    _claim_sozd_pk1,
    _first_case,
    _m_of,
    predicted_ddt_x4_table,
    predicted_fbct_2m3_table,
    predicted_fbct_2m5_table,
    predicted_sozd_pk1_table,
)
from sbox_spectra.polyarith import is_irreducible
from sbox_spectra.spectra import expand_rows, iter_rows


# -- the published claims, per cell: the oracle ----------------------------------
#
# The claims as the papers state them, at any cell (a, b), evaluated with
# pow_vec on the grid.  The library states each on rows a = 0 and 1 only,
# as Frobenius fixed-point tests; its rows expanded by the row scaling must
# give these cells.  (a/b in t3's stated condition is a * b^(q-2).)

def _published_fbct_2m3(field, a, b):
    m = _m_of(field)
    e = (1 << m) - 1  # b/a in F_{2^m}^* iff a^e = b^e
    return _first_case(
        ("degenerate", (a == 0) | (b == 0) | (a == b), field.order),
        ("subfield-coset", field.pow_vec(a, e) == field.pow_vec(b, e), 1 << m),
        ("residual", None, 4),
    )


def _published_fbct_2m5(field, a, b):
    m = _m_of(field)
    e = (1 << m) - 1
    return _first_case(
        ("degenerate", (a == 0) | (b == 0) | (a == b), field.order),
        ("cube-equal", field.pow_vec(a, 3) == field.pow_vec(b, 3), 4 if m % 2 else 0),
        ("subfield-coset", field.pow_vec(a, e) == field.pow_vec(b, e), 1 << m),
        ("residual-bound-only", None, (0, 16)) if m == 3 else ("residual", None, 16),
    )


def _published_sozd_pk1(field, a, b, k, condition):
    _check_pk1(field, k, condition)
    pn = field.order
    if condition == "exact":
        e = field.p**k - 1
        total = field.add_vec(field.pow_vec(a, e), field.pow_vec(b, e))
        vanishes = (a == 0) | (b == 0) | (total == 0)
        return _first_case(("vanishing-difference", vanishes, pn), ("nonvanishing", None, 0))
    ratio = field.mul_vec(a, field.pow_vec(np.where(b == 0, 1, b), pn - 2))  # a/b where b != 0
    square = field.pow_vec(ratio, 2)
    frobenius = field.p ** math.gcd(field.n, k)  # x in F_{p^s} iff x^(p^s) = x
    return _first_case(
        ("b-zero", b == 0, pn),
        ("square-ratio-in-subfield", field.pow_vec(square, frobenius) == square, pn),
        ("outside-subfield", None, 0),
    )


def _published_ddt_x4(field, a, b):
    if field.p != 3:
        raise BadParametersError("this family lives over F_{3^n}")
    return _first_case(
        ("zero-row", (a == 0) & (b == 0), field.order),
        ("zero-row", a == 0, 0),
        ("planar-row", None, 1) if field.n % 2 else ("even-degree-row", None, (0, 3)),
    )


def _published_grid(field, published, rows=None):
    """The published claim at the rows a in `rows` (every row by default)
    and every b."""
    xs = field.xs()
    rows = xs if rows is None else np.asarray(rows, dtype=np.int32)
    return published(field, *np.broadcast_arrays(rows[:, None], xs))


def _second_modulus(p, n):
    """The least monic irreducible of degree n over F_p, by encoding, that is
    not the built-in one."""
    for c in range(1, p**n):
        mod = [c // p**i % p for i in range(n)] + [1]
        if tuple(mod) != CONWAY_POLYNOMIALS[p, n] and is_irreducible(mod, p):
            return mod


# -- scalar predictors ---------------------------------------------------------

def test_predict_2m3_cases(f26):
    n = 64
    assert predict_fbct_2m3(f26, 5, 5).value == n  # a = b
    assert predict_fbct_2m3(f26, 0, 9).value == n
    sub = [u for u in f26.subfield_indices(3) if u not in (0, 1)]
    for a in (1, 7):
        for u in sub:
            p = predict_fbct_2m3(f26, a, f26.mul(a, u))
            assert p.case == "subfield-coset" and p.value == 8
    generic = next(
        b for b in range(2, 64) if f26.pow(b, 7) != 1
    )
    assert predict_fbct_2m3(f26, 1, generic).value == 4


def test_predict_2m3_bad_parameters():
    with pytest.raises(BadParametersError):
        predict_fbct_2m3(make_field(2, 4), 1, 2)  # m = 2 not covered
    with pytest.raises(BadParametersError):
        predict_fbct_2m3(make_field(2, 5), 1, 2)  # odd degree
    with pytest.raises(BadParametersError):
        predict_fbct_2m3(make_field(3, 2), 1, 2)


def test_predict_2m5_cases(f28):
    f10 = make_field(2, 10)
    # m = 4: cube-equal pairs predict 0
    cube = next(u for u in range(2, 256) if f28.pow(u, 3) == 1)
    p = predict_fbct_2m5(f28, 1, cube)
    assert p.case == "cube-equal" and p.value == 0
    # m = 5: cube-equal predicts 4, coset predicts 32, residual 16
    cube10 = next(u for u in range(2, 1024) if f10.pow(u, 3) == 1)
    assert predict_fbct_2m5(f10, 1, cube10).value == 4
    sub = [u for u in f10.subfield_indices(5) if u not in (0, 1)]
    assert predict_fbct_2m5(f10, 3, f10.mul(3, sub[0])).value == 32
    gen = next(
        b for b in range(2, 1024)
        if f10.pow(b, 31) != 1 and f10.pow(b, 3) != 1
    )
    assert predict_fbct_2m5(f10, 1, gen).value == 16


def test_predict_2m5_m3_interval(f26):
    gen = next(
        b for b in range(2, 64) if f26.pow(b, 7) != 1 and f26.pow(b, 3) != 1
    )
    p = predict_fbct_2m5(f26, 1, gen)
    assert not p.is_exact and p.bounds == (0, 16)
    assert p.admits(0) and p.admits(4) and p.admits(16) and not p.admits(20)


def test_predict_pk1_dual(f33):
    dp = predict_sozd_pk1(f33, 1, 4, 0)
    assert dp.exact.value == 27 and dp.stated.value == 27
    # a = b != 0 in odd n: exact says 0, stated says 27 (the discrepancy)
    dp = predict_sozd_pk1(f33, 1, 4, 4)
    assert dp.exact.value == 0 and dp.stated.value == 27
    with pytest.raises(EvenCharacteristicError):
        predict_sozd_pk1(make_field(2, 4), 1, 1, 2)
    with pytest.raises(BadParametersError):
        predict_sozd_pk1(f33, 3, 1, 2)


def test_predict_pk1_even_degree_square_root_of_minus_one(f32):
    # n even: a/b a square root of -1 gives p^n under both conditions
    i2 = next(x for x in range(1, 9) if f32.mul(x, x) == f32.neg(1))
    b = 5
    a = f32.mul(i2, b)
    dp = predict_sozd_pk1(f32, 1, a, b)
    assert dp.exact.value == 9 and dp.stated.value == 9


def test_predict_ddt_x4(f33, f32):
    assert predict_ddt_x4_f3n(f33, 0, 0).value == 27
    assert predict_ddt_x4_f3n(f33, 0, 5).value == 0
    assert predict_ddt_x4_f3n(f33, 2, 5).value == 1
    p = predict_ddt_x4_f3n(f32, 1, 5)
    assert p.bounds == (0, 3)
    with pytest.raises(BadParametersError):
        predict_ddt_x4_f3n(make_field(5, 2), 1, 1)


def test_coset_test_agrees_with_subfield_membership(f26, f28):
    # (b/a)^(2^m - 1) = 1 and membership of b/a in F_{2^m} decide the same set
    for field, m in ((f26, 3), (f28, 4)):
        for u in range(1, field.order):
            power_test = field.pow(u, (1 << m) - 1) == 1
            assert power_test == field.in_subfield(u, m)


def test_predictor_value_domains(f26, f28):
    f10 = make_field(2, 10)
    # x^(2^m+3): values in {4, 2^m, 2^n}
    assert set(predicted_fbct_2m3_table(f26)[::7].ravel().tolist()) <= {4, 8, 64}
    # x^(2^m+5), m >= 4 exact: values in {0, 4, 16, 2^m, 2^n}
    vals8, interval8 = predicted_fbct_2m5_table(f28)
    assert set(vals8[::31].ravel().tolist()) <= {0, 4, 16, 256}
    assert not interval8.any()
    vals10, interval10 = predicted_fbct_2m5_table(f10)
    assert set(vals10[[0, 1, 77]].ravel().tolist()) <= {0, 4, 16, 32, 1024}
    assert not interval10.any()


# -- predicted tables agree with the published claims ------------------------------
#
# A predicted table expands the claim's rows 0 and 1 by the row scaling; the
# published claim evaluated at every cell must give the same table.

def test_vectorized_2m3_matches_scalar(f26):
    grid = _published_grid(f26, _published_fbct_2m3)
    assert np.array_equal(predicted_fbct_2m3_table(f26), grid.span[..., 0])


def test_vectorized_2m5_matches_scalar(f26, f28):
    for field in (f26, f28):
        table, interval = predicted_fbct_2m5_table(field)
        grid = _published_grid(field, _published_fbct_2m5).span
        assert np.array_equal(table, grid[..., 0])
        assert np.array_equal(interval, grid[..., 0] != grid[..., 1])


def test_vectorized_pk1_matches_scalar(f33):
    for condition in ("exact", "stated"):
        grid = _published_grid(f33, partial(_published_sozd_pk1, k=1, condition=condition))
        assert np.array_equal(predicted_sozd_pk1_table(f33, 1, condition), grid.span[..., 0])


def test_vectorized_ddt_x4_matches_scalar(f33, f32):
    for field in (f33, f32):
        table, interval = predicted_ddt_x4_table(field)
        grid = _published_grid(field, _published_ddt_x4).span
        assert np.array_equal(table, grid[..., 0])
        assert np.array_equal(interval, grid[..., 0] != grid[..., 1])


# -- the claims on rows 0 and 1 against the published claims ---------------------------

def _claim_cases():
    """(id, field, claim, published claim, row scale) for every claim and the
    fields its rows are checked over at every cell."""
    out = []
    for m in (3, 4, 5):
        for mod, tag in ((None, "conway"), (_second_modulus(2, 2 * m), "second")):
            f = make_field(2, 2 * m, mod)
            out += [(f"t1-m{m}-{tag}", f, _claim_fbct_2m3, _published_fbct_2m3, 1),
                    (f"t2-m{m}-{tag}", f, _claim_fbct_2m5, _published_fbct_2m5, 1)]
    for p, n in ((3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2), (7, 3)):
        f = make_field(p, n)
        out += [(f"t3-{p}^{n}-k{k}-{c}", f, partial(_claim_sozd_pk1, k=k, condition=c),
                 partial(_published_sozd_pk1, k=k, condition=c), 1)
                for k in range(1, n) for c in ("exact", "stated")]
    out += [(f"t4-3^{n}", make_field(3, n), _claim_ddt_x4, _published_ddt_x4, 4)
            for n in (2, 3, 4, 5)]
    return out


CLAIM_CASES = _claim_cases()


@pytest.mark.parametrize("field,claim,published,scale", [c[1:] for c in CLAIM_CASES],
                         ids=[c[0] for c in CLAIM_CASES])
def test_expanded_claim_rows_equal_the_published_claim(field, claim, published, scale):
    rows = _claim_rows(field, claim)
    want = _published_grid(field, published)
    assert rows.names == want.names
    assert np.array_equal(rows.spans, want.spans)
    assert rows.case.shape == (2, field.order)
    assert np.array_equal(expand_rows(field, rows.case, scale), want.case)


def _claims():
    """(id, field, published claim, e) for every claim and the fields it is
    tested over: row-first verification assumes claim(ca, c^e b) =
    claim(a, b), c != 0."""
    out = []
    for n in (6, 8):
        f = make_field(2, n)
        out += [(f"t1-2^{n}", f, _published_fbct_2m3, 1), (f"t2-2^{n}", f, _published_fbct_2m5, 1)]
    for p, n in ((3, 3), (3, 4), (5, 2)):
        f = make_field(p, n)
        out += [(f"t3-{p}^{n}-k{k}-{c}", f, partial(_published_sozd_pk1, k=k, condition=c), 1)
                for k in range(1, n) for c in ("exact", "stated")]
    out += [(f"t4-3^{n}", make_field(3, n), _published_ddt_x4, 4) for n in (2, 3)]
    return out


CLAIMS = _claims()


@pytest.mark.parametrize("field,claim,e", [c[1:] for c in CLAIMS], ids=[c[0] for c in CLAIMS])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_claims_are_invariant_under_row_scaling(field, claim, e, data):
    q = field.order
    cells = data.draw(st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)),
                               min_size=1, max_size=64))
    c = data.draw(st.integers(1, q - 1))
    a, b = np.array(cells).T
    base = claim(field, a, b)
    scaled = claim(field, field.mul_vec(c, a), field.mul_vec(field.pow(c, e), b))
    assert scaled.names == base.names
    assert np.array_equal(scaled.case, base.case)
    assert np.array_equal(scaled.spans, base.spans)


def _stride(field):
    """Every cell up to q = 64; every 31st cell in (a, b) order above, where
    the one-cell calls (about 0.1-0.4 ms each) would dominate the suite."""
    return 1 if field.order <= 64 else 31


def _grid_predictions(field, published):
    """(case name, (lo, hi)) at the checked cells, in (a, b) order, from the
    published claim over the whole grid."""
    grid = _published_grid(field, published)
    names = np.array(grid.names)[grid.case].ravel().tolist()
    return list(zip(names, map(tuple, grid.span.reshape(-1, 2).tolist())))[::_stride(field)]


def _cell_predictions(field, predict, conditions=None):
    """The same from the one-cell predictor; with conditions, one list per
    condition of a DualPrediction."""
    q = field.order
    cells = [predict(*divmod(i, q)) for i in range(0, q * q, _stride(field))]
    if conditions is None:
        return [(p.case, p.span) for p in cells]
    return [[(getattr(d, c).case, getattr(d, c).span) for d in cells] for c in conditions]


@pytest.mark.parametrize("n", [6, 8])
def test_one_cell_fbct_predictions_equal_the_grid(n):
    f = make_field(2, n)
    for predict, published in ((predict_fbct_2m3, _published_fbct_2m3),
                               (predict_fbct_2m5, _published_fbct_2m5)):
        assert _cell_predictions(f, partial(predict, f)) == _grid_predictions(f, published)


@pytest.mark.parametrize("p,n", [(3, 3), (3, 4), (5, 2)])
def test_one_cell_pk1_predictions_equal_the_grid(p, n):
    f = make_field(p, n)
    conditions = ("exact", "stated")
    for k in range(1, n):
        one_cell = _cell_predictions(f, partial(predict_sozd_pk1, f, k), conditions)
        assert one_cell == [_grid_predictions(f, partial(_published_sozd_pk1, k=k, condition=c))
                            for c in conditions]


def test_one_cell_pk1_maps_the_cell_once(monkeypatch):
    """Both conditions read one cell (1, b/a): one _pow_raw chain per call
    at a != 0 (the parent ran one per condition), none at a = 0."""
    f = make_field(3, 4)
    want = [predict_sozd_pk1(f, 1, a, b) for a, b in ((5, 7), (0, 9), (3, 0))]
    calls = []
    pow_raw = fields.Field._pow_raw
    monkeypatch.setattr(fields.Field, "_pow_raw",
                        lambda self, i, e: calls.append(e) or pow_raw(self, i, e))
    for (a, b), dual in zip(((5, 7), (0, 9), (3, 0)), want):
        calls.clear()
        assert predict_sozd_pk1(f, 1, a, b) == dual
        assert len(calls) == (1 if a else 0), (a, b, calls)


@pytest.mark.parametrize("n", [2, 3])
def test_one_cell_ddt_x4_predictions_equal_the_grid(n):
    f = make_field(3, n)
    one_cell = _cell_predictions(f, partial(predict_ddt_x4_f3n, f))
    assert one_cell == _grid_predictions(f, _published_ddt_x4)


def test_predictions_past_the_tables_read_no_table():
    """The claims test b by Frobenius powers and _row_cell maps (a, b) to row
    1 by table-free scalar arithmetic, so the predictors answer above
    TABLE_CAP and build neither the exp/log arrays nor their list mirrors."""
    f22, f315 = make_field(2, 22), make_field(3, 15)
    assert f22.order > fields.TABLE_CAP and f315.order > fields.TABLE_CAP
    assert predict_fbct_2m3(f22, 1, 2) == Prediction("residual", 4)
    assert predict_fbct_2m3(f22, 7, 7) == Prediction("degenerate", f22.order)
    sub = f22.subfield_indices(11)[5]  # b/a in F_{2^11}^*, not 0 or 1
    assert predict_fbct_2m3(f22, 3, f22._mul_raw(3, sub)).case == "subfield-coset"
    cube = f22.subfield_indices(2)[2]  # b/a a cube root of 1
    assert predict_fbct_2m5(f22, 5, f22._mul_raw(5, cube)) == Prediction("cube-equal", 4)
    assert predict_fbct_2m5(f22, 1, 2) == Prediction("residual", 16)
    # over F_{3^15}, k = 5: at b/a = 1, 1 + 1^(p^k - 1) = 2 does not vanish,
    # while (a/b)^2 = 1 lies in F_{3^5}
    dual = predict_sozd_pk1(f315, 5, 4, 4)
    assert dual.exact == Prediction("nonvanishing", 0)
    assert dual.stated == Prediction("square-ratio-in-subfield", f315.order)
    assert predict_sozd_pk1(f315, 5, 0, 9).exact == Prediction("vanishing-difference", f315.order)
    assert predict_ddt_x4_f3n(f315, 2, 9) == Prediction("planar-row", 1)
    assert predict_ddt_x4_f3n(f315, 0, 0) == Prediction("zero-row", f315.order)
    for f in (f22, f315):
        assert f._np_exp is None and f._np_log is None and f._exp is None


# -- verification harness -----------------------------------------------------------

def test_verify_t1_m3_report_is_truthful():
    report = verify_fbct_2m3(3)
    assert report.uniformity_claimed == 8
    assert report.uniformity_actual == 8
    assert report.agrees
    # the residual class is claimed constant 4 but splits {0, 4}: the report
    # must expose this rather than claim a clean match
    assert report.mismatch_count == 2268
    assert report.extras["value_histogram"] == {0: 2268, 4: 1260, 8: 378, 64: 190}
    a, b, predicted, actual = report.mismatches[0]
    assert predicted == 4 and actual == 0


def test_verify_t2_m3_interval_containment():
    report = verify_fbct_2m5(3)
    assert report.mismatch_count == 0  # residual checked as interval at m = 3
    assert report.uniformity_actual == 8 and report.agrees
    assert report.extras["value_histogram"][4] == 1260  # 126 cube + 1134 residual


def test_verify_t2_m4():
    report = verify_fbct_2m5(4)
    assert report.uniformity_actual == 16 and report.agrees
    # cube-equal and coset classes are exact; residual (claimed 16) is all 0
    assert report.extras["value_histogram"] == {0: 61710, 16: 3060, 256: 766}
    assert report.mismatch_count == 61200


@pytest.mark.parametrize("p,k,n", [(3, 1, 2), (3, 1, 3), (5, 1, 2)])
def test_verify_t3_exact_condition_always_matches(p, k, n):
    report = verify_sozd_pk1(p, k, n, condition="exact")
    assert report.mismatch_count == 0
    assert set(report.extras["entry_values"]) <= {0, p**n}
    assert report.agrees


def test_verify_t3_stated_condition_flags_discrepancy():
    report = verify_sozd_pk1(3, 1, 3, condition="stated")
    assert report.mismatch_count > 0
    assert report.extras["stated_vs_exact_discrepancies"] == report.mismatch_count
    # a = b != 0 pairs are among the disagreements
    pairs = {(a, b) for a, b, _, _ in report.mismatches}
    assert (1, 1) in pairs
    # while n even has none for k = 1... the diagonal there satisfies both
    report2 = verify_sozd_pk1(3, 1, 2, condition="stated")
    assert report2.extras["stated_vs_exact_discrepancies"] == report2.mismatch_count


def test_verify_t4():
    r3 = verify_ddt_x4(3)
    assert r3.ok and r3.extras["permutation_rows"]
    r2 = verify_ddt_x4(2)
    assert r2.ok
    assert r2.extras["rows_attain_max_3"] and r2.extras["row_sums_equal_order"]
    assert r2.uniformity_actual == 3
    r4 = verify_ddt_x4(4)
    assert r4.ok and r4.uniformity_actual == 3


def test_verify_theorem_dispatch():
    r = verify_theorem("t1", m=3)
    assert r.target == "t1"
    r = verify_theorem("t3", p=3, k=1, n=2)
    assert r.target == "t3" and r.ok
    with pytest.raises(BadParametersError):
        verify_theorem("t9")


def test_verify_builds_no_scalar_tables(monkeypatch):
    # F_{2^14} is above the intern bound, so verify_fbct_2m3 builds a fresh Field
    def no_scalar_tables(self):
        pytest.fail("verification made the scalar exp/log mirrors")

    monkeypatch.setattr(fields.Field, "_have_tables", no_scalar_tables)
    report = verify_fbct_2m3(7)
    assert report.mismatch_count > 0 and len(report.mismatches) == 200


def test_fbct_verify_holds_one_case_byte_per_claimed_cell():
    """The claim rows of t1 and t2 are an int8 case index per cell with one
    span per case, not a (lo, hi) int64 pair per cell (the size of 8 q-length
    int32 arrays).  The traced peak of verify at m = 10 (q = 2^20, a field
    above the intern bound, so its exp/log tables are built inside) covers
    those tables, the claim and the SOZD row kernel: about 16.5 arrays."""
    q = 1 << 20
    peaks = []
    for verify in (verify_fbct_2m3, verify_fbct_2m5):
        tracemalloc.start()
        try:
            verify(10)
            peaks.append(tracemalloc.get_traced_memory()[1] / (4 * q))
        finally:
            tracemalloc.stop()
    assert max(peaks) < 20, peaks
    f = make_field(2, 20)
    assert _claim_rows(f, _claim_fbct_2m5).case.dtype == np.int8


def test_claim_rows_take_the_rows_as_a_column():
    """t1 and t2 evaluate their conditions on the rows a = 0, 1 as a (2, 1)
    column against every b, and each condition on b is a Frobenius power:
    on a fresh field at q = 2^20 the claim rows build no exp/log table and
    peak at under 4 q-length int32 arrays (about 3.5 and 3.8), the int8
    case index half an array of it.  xs is the field's, not the claim's."""
    for claim in (_claim_fbct_2m3, _claim_fbct_2m5):
        f = fields.Field(2, 20, CONWAY_POLYNOMIALS[2, 20])
        q = f.order
        f.xs()
        tracemalloc.start()
        try:
            rows = _claim_rows(f, claim)
            peak = tracemalloc.get_traced_memory()[1] / (4 * q)
        finally:
            tracemalloc.stop()
        assert rows.case.shape == (2, q)
        assert f._np_exp is None and f._np_log is None
        assert peak <= 4, peak


@pytest.mark.parametrize("p,n,modulus", [(3, 3, None), (3, 6, None), (5, 4, None),
                                          (7, 3, None), (257, 2, [254, 0, 1])],
                         ids=["3^3", "3^6", "5^4", "7^3", "257^2"])
def test_pk1_claim_rows_equal_the_full_grid(p, n, modulus):
    # the rows a = 0, 1 and the first rows a != 0 of their expansion equal
    # the published claim (one limb, several, and p > 256, x^2 - 3 as 3 is a
    # nonsquare mod 257); the odd-p add meets the rows as a column
    f = make_field(p, n, modulus)
    first = 1 + min(f.order - 1, 64)
    for k in range(1, n):
        for condition in ("exact", "stated"):
            rows = _claim_rows(f, partial(_claim_sozd_pk1, k=k, condition=condition))
            want = _published_grid(f, partial(_published_sozd_pk1, k=k, condition=condition),
                                   range(first))
            assert rows.names == want.names
            assert np.array_equal(rows.spans, want.spans)
            got = np.array(list(itertools.islice(iter_rows(f, rows.case, 1), first)))
            assert np.array_equal(got, want.case)


def test_verification_report_serializable(capsys):
    cli._emit(verify_fbct_2m3(3))
    blob = capsys.readouterr().out
    assert "uniformity_actual" in blob


# -- row-first verification against the brute-force oracle -----------------------------

def _oracle_claims(field, published):
    """Every cell's published claim as inclusive (lo, hi)."""
    return _published_grid(field, published).span


def _oracle_diff(entries, claims):
    lo, hi = claims[..., 0], claims[..., 1]
    bad = (entries < lo) | (entries > hi)
    listing = []
    for a, b in np.argwhere(bad)[:200]:
        pred = int(lo[a, b]) if lo[a, b] == hi[a, b] else [int(lo[a, b]), int(hi[a, b])]
        listing.append([int(a), int(b), pred, int(entries[a, b])])
    return entries.size - int(bad.sum()), int(bad.sum()), listing


def _assert_diff(report, entries, claims):
    matches, n_bad, listing = _oracle_diff(entries, claims)
    assert (report.matches, report.mismatch_count) == (matches, n_bad)
    assert report.mismatches == listing


@pytest.mark.parametrize("theorem,m", [("t1", 3), ("t1", 4), ("t2", 3), ("t2", 4)])
def test_row_first_fbct_verify_matches_oracle(theorem, m):
    f = make_field(2, 2 * m)
    d, claim, verify = {
        "t1": ((1 << m) + 3, _published_fbct_2m3, verify_fbct_2m3),
        "t2": ((1 << m) + 5, _published_fbct_2m5, verify_fbct_2m5),
    }[theorem]
    table = sozd_table(f, PowerMap(d), method="bruteforce").entries
    report = verify(m)
    _assert_diff(report, table, _oracle_claims(f, claim))
    values, counts = np.unique(table, return_counts=True)
    assert report.extras["value_histogram"] == dict(zip(values.tolist(), counts.tolist()))


@pytest.mark.parametrize("condition", ["exact", "stated"])
@pytest.mark.parametrize("p,k,n", [(3, 1, 2), (3, 1, 3), (3, 2, 4), (5, 1, 2)])
def test_row_first_pk1_verify_matches_oracle(p, k, n, condition):
    f = make_field(p, n)
    table = sozd_table(f, PowerMap(p**k + 1), method="bruteforce").entries
    claims = {
        c: _oracle_claims(f, partial(_published_sozd_pk1, k=k, condition=c))
        for c in ("exact", "stated")
    }
    report = verify_sozd_pk1(p, k, n, condition)
    _assert_diff(report, table, claims[condition])
    disc = np.argwhere(claims["exact"][..., 0] != claims["stated"][..., 0])
    assert report.extras == {
        "entry_values": np.unique(table).tolist(),
        "stated_vs_exact_discrepancies": len(disc),
        "stated_vs_exact_examples": disc[:20].tolist(),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_row_first_ddt_x4_verify_matches_oracle(n):
    f = make_field(3, n)
    table = ddt_table(f, PowerMap(4), method="bruteforce").entries
    report = verify_ddt_x4(n)
    _assert_diff(report, table, _oracle_claims(f, _published_ddt_x4))
    if n % 2:
        assert report.extras == {"permutation_rows": bool((table[1:] == 1).all())}
    else:
        assert report.extras == {
            "rows_attain_max_3": bool((table[1:].max(axis=1) == 3).all()),
            "row_sums_equal_order": bool((table[1:].sum(axis=1) == f.order).all()),
        }


# -- registry --------------------------------------------------------------------------

def test_registry_contains_required_rows():
    cases = {(c.name, c.p, c.n): c for c in registry_cases()}
    assert cases[("inverse", 2, 5)].expected == 2
    assert cases[("inverse", 2, 6)].expected == 4
    gold = next(c for c in registry_cases() if c.name == "gold" and c.n == 6 and c.params.get("k") == 2)
    assert gold.expected == 64
    assert cases[("x7-char2", 2, 6)].expected == 4
    assert cases[("x7-char3", 3, 3)].expected == 3
    assert cases[("x5-oddp", 5, 2)].expected == 3
    assert cases[("x3-oddp", 5, 2)].expected == 1
    assert cases[("x4-oddp", 5, 2)].expected == 2
    assert cases[("ternary-inverse", 3, 3)].expected == 3
    for m in (3, 4, 5):
        assert cases[("fam-2m3", 2, 2 * m)].expected == 2**m
        assert cases[("fam-2m5", 2, 2 * m)].expected == 2**m
    assert cases[("fam-pk1", 3, 2)].expected == 9
    assert cases[("fam-pk1", 3, 3)].expected == 0
    assert cases[("fam-x4-f3n", 3, 4)].expected == 81


def test_registry_family_rows_expect_the_verifiers_claims():
    # the registry's fam-* rows and verify_theorem read one statement of
    # each claimed uniformity, so they cannot drift apart
    theorems = {"fam-2m3": "t1", "fam-2m5": "t2", "fam-pk1": "t3"}
    rows = [c for c in registry_cases() if c.name in theorems]
    assert len(rows) == 12
    for case in rows:
        if case.name == "fam-pk1":
            params = {"p": case.p, "k": case.params["k"], "n": case.n, "condition": "exact"}
        else:
            params = {"m": case.params["m"]}
        report = verify_theorem(theorems[case.name], **params)
        assert report.uniformity_claimed == case.expected, (case.name, params)


def test_registry_report_statuses():
    report = verify_registry(max_size=1024)
    by_key = {(r["name"], r["p"], r["n"]): r for r in report.rows}
    # strong rows hold
    for key in [("inverse", 2, 6), ("gold", 2, 6), ("x7-char2", 2, 6),
                ("x7-char3", 3, 3), ("x5-oddp", 3, 3), ("x3-oddp", 5, 2),
                ("x4-oddp", 5, 2), ("ternary-inverse", 3, 4),
                ("fam-2m3", 2, 6), ("fam-2m5", 2, 8), ("fam-pk1", 3, 3),
                ("fam-x4-f3n", 3, 5)]:
        assert by_key[key]["status"] == "match", key
    # known defects in the published table, verified exhaustively:
    # the inverse map is APN for odd n (so 0, not 2); x^5 over F_25 is the
    # Frobenius map (every entry 25); x^7 over F_32 is APN (0, not 4)
    assert by_key[("inverse", 2, 5)]["status"] == "mismatch"
    assert by_key[("inverse", 2, 5)]["actual"] == 0
    assert by_key[("x5-oddp", 5, 2)]["status"] == "mismatch"
    assert by_key[("x5-oddp", 5, 2)]["actual"] == 25
    assert by_key[("x7-char2", 2, 5)]["status"] == "mismatch"
    assert by_key[("x7-char2", 2, 5)]["actual"] == 0
    assert report.mismatched == 3
    assert report.matched >= 8


def test_registry_skips_over_bound():
    report = verify_registry(max_size=128)
    skipped = [r for r in report.rows if r["status"] == "skipped"]
    assert skipped and all(r["p"] ** r["n"] > 128 for r in skipped)
    assert all(r["actual"] is None for r in skipped)
    # nothing silently dropped
    assert len(report.rows) == len(registry_cases())


def test_registry_uniformities_from_fast_path_match_bruteforce():
    # one spot check that the registry's fast-path uniformity equals the
    # brute-force value on an odd-characteristic row
    f = make_field(3, 3)
    fast = sozd_table(f, PowerMap(25))
    brute = sozd_table(f, PowerMap(25), method="bruteforce")
    assert np.array_equal(fast.entries, brute.entries)
