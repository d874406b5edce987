import contextlib
import io
import itertools
import math
import os
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sbox_spectra import (
    PowerMap,
    SpectraError,
    SpectrumTable,
    TableMap,
    UnsupportedSizeError,
    WrongLengthError,
    ddt_entry,
    ddt_row_power,
    ddt_table,
    differential_uniformity,
    fbct_property_check,
    image_table,
    make_field,
    sozd_entry,
    sozd_row_power,
    sozd_table,
    sozd_uniformity,
    write_table_csv,
)
from sbox_spectra import spectra
from sbox_spectra._conway import CONWAY_POLYNOMIALS
from sbox_spectra.fields import Field
from sbox_spectra.spectra import (
    expand_rows,
    fbct_row_property_check,
    flagged_cells,
    iter_rows,
    power_row_summary,
    power_rows,
    power_table_summary,
    row_scale,
    write_row_csv,
)


def hist(entries):
    return dict(Counter(np.asarray(entries).ravel().tolist()))


# -- DDT ------------------------------------------------------------------------

def test_ddt_zero_row(f26):
    row = ddt_table(f26, PowerMap(11)).entries[0]
    assert row[0] == 64 and row[1:].sum() == 0
    # and for an arbitrary S-box too
    rng = np.random.default_rng(3)
    tm = TableMap(tuple(int(v) for v in rng.integers(0, 64, 64)))
    assert ddt_entry(f26, tm, 0, 0) == 64
    assert ddt_entry(f26, tm, 0, 5) == 0


def test_ddt_row_sums(f26, f33):
    for field, fmap in ((f26, PowerMap(11)), (f33, PowerMap(4))):
        t = ddt_table(field, fmap)
        assert (t.entries.sum(axis=1) == field.order).all()


def test_ddt_x4_over_f3(f33, f32):
    t3 = ddt_table(f33, PowerMap(4))
    assert t3.entries[1:, :].max() == 1  # planar for odd n
    assert differential_uniformity(f33, table=t3).uniformity == 1
    t2 = ddt_table(f32, PowerMap(4))
    assert differential_uniformity(f32, table=t2).uniformity == 3


def test_ddt_identity_map(f33):
    summary = differential_uniformity(f33, PowerMap(1))
    assert summary.uniformity == 27  # constant difference: one cell per row
    row = ddt_row_power(f33, 1)
    assert row[1] == 27 and row.sum() == 27


def test_ddt_row_power_multiset_matches_all_rows(f32):
    # spec example: d = 4, p = 3, n = 2, checked against the full table
    t = ddt_table(f32, PowerMap(4), method="bruteforce")
    row1 = ddt_row_power(f32, 4)
    assert (row1 == t.entries[1]).all()
    want = sorted(row1.tolist())
    for a in range(1, 9):
        assert sorted(t.entries[a].tolist()) == want


def test_ddt_fast_equals_bruteforce(f28, f33):
    for field, d in ((f28, 19), (f33, 4)):
        fast = ddt_table(field, PowerMap(d), method="auto")
        brute = ddt_table(field, PowerMap(d), method="bruteforce")
        assert np.array_equal(fast.entries, brute.entries)


def test_ddt_entry_scalar(f32):
    t = ddt_table(f32, PowerMap(4))
    for a in range(9):
        for b in range(9):
            assert ddt_entry(f32, PowerMap(4), a, b) == t.entries[a, b]


# -- SOZD / FBCT -----------------------------------------------------------------

def test_sozd_degenerate_values(f26):
    t = sozd_table(f26, PowerMap(11))
    assert (t.entries[0] == 64).all()
    assert (t.entries[:, 0] == 64).all()
    assert (np.diag(t.entries) == 64).all()


def test_fbct_x11_known_distribution(f26):
    # frozen from the exhaustive oracle: degenerate 190 @ 64, subfield coset
    # 378 @ 8, residual class split between 4 and 0
    t = sozd_table(f26, PowerMap(11), method="bruteforce")
    assert hist(t.entries) == {64: 190, 8: 378, 4: 1260, 0: 2268}
    assert sozd_uniformity(t).uniformity == 8


def test_fbct_coset_cells_exact(f26):
    sub = [u for u in f26.subfield_indices(3) if u not in (0, 1)]
    for a in (1, 7, 30):
        for u in sub:
            assert sozd_entry(f26, PowerMap(11), a, f26.mul(a, u)) == 8


def test_sozd_entry_over_a_large_prime_field():
    # p > 2^14: a sum of two digits does not fit in int16
    p = 32749
    f = make_field(p, 1, [0, 1])
    for a, b in [(20000, 20000), (1, 2), (p - 1, 16375), (5, 0)]:
        by_definition = sum(
            (pow(x + a + b, 3, p) - pow(x + a, 3, p) - pow(x + b, 3, p) + pow(x, 3, p)) % p == 0
            for x in range(p))
        assert sozd_entry(f, PowerMap(3), a, b) == by_definition, (a, b)


def test_sozd_fast_equals_bruteforce():
    for p, n, d in ((2, 6, 11), (3, 3, 4), (2, 8, 19), (5, 2, 6), (3, 4, 10)):
        f = make_field(p, n)
        fast = sozd_table(f, PowerMap(d), method="auto")
        brute = sozd_table(f, PowerMap(d), method="bruteforce")
        assert np.array_equal(fast.entries, brute.entries), (p, n, d)


def test_sozd_odd_p_pk1_rule(f33):
    # x^(p^k+1): entry is p^n exactly when a*b*(a^(p^k-1) + b^(p^k-1)) = 0
    d = 3 + 1
    t = sozd_table(f33, PowerMap(d), method="bruteforce")
    for a in range(27):
        for b in range(27):
            cond = f33.mul(f33.mul(a, b), f33.add(f33.pow(a, 2), f33.pow(b, 2)))
            assert t.entries[a, b] == (27 if cond == 0 else 0)


def test_sozd_row_power_reconstruction(f26):
    row1 = sozd_row_power(f26, 11)
    t = sozd_table(f26, PowerMap(11), method="bruteforce")
    assert (row1 == t.entries[1]).all()
    assert row1[0] == 64
    for a in (3, 25, 60):
        for b in (0, 5, 17):
            assert t.entries[a, b] == row1[f26.div(b, a)]


def test_sozd_uniformity_examples(f28):
    assert sozd_uniformity(sozd_table(f28, PowerMap(19))).uniformity == 16
    f10 = make_field(2, 10)
    assert sozd_uniformity(sozd_table(f10, PowerMap(37))).uniformity == 32
    f33 = make_field(3, 3)
    assert sozd_uniformity(sozd_table(f33, PowerMap(4))).uniformity == 0


def test_sozd_uniformity_domains(f26, f33):
    t2 = sozd_table(f26, PowerMap(11))
    s2 = sozd_uniformity(t2)
    assert "a != b" in s2.domain
    t3 = sozd_table(f33, PowerMap(4))
    s3 = sozd_uniformity(t3)
    assert s3.domain == "a, b nonzero"
    # diagonal (a = b) is excluded only for p = 2
    f32 = make_field(3, 2)
    t = sozd_table(f32, PowerMap(4))
    assert sozd_uniformity(t).uniformity == 9  # attained at a = b among others


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("kind", ["ddt", "sozd"])
@pytest.mark.parametrize("p,n", [(2, 5), (2, 6), (3, 3), (5, 2)])
def test_power_row_summary_equals_table_summary(p, n, kind, d):
    # p = 2 SOZD excludes b = a (u = 1) as well as b = 0; odd p only b = 0
    f = make_field(p, n)
    table = (ddt_table if kind == "ddt" else sozd_table)(f, PowerMap(d))
    whole = (differential_uniformity(f, table=table) if kind == "ddt"
             else sozd_uniformity(table))
    rows = power_rows(f, kind, d)
    summary = power_row_summary(f, kind, rows[1])
    assert summary.uniformity == whole.uniformity
    assert summary.domain.startswith(whole.domain)
    assert summary.histogram == hist_pairs(rows[1])
    assert power_table_summary(f, kind, rows) == whole
    assert whole.histogram == hist_pairs(table.entries)


@pytest.mark.parametrize("p,n,kind", [(2, 8, "sozd"), (2, 10, "sozd"), (3, 5, "sozd"),
                                      (2, 8, "ddt"), (3, 5, "ddt"), (2, 1, "sozd"),
                                      (2, 1, "ddt"), (3, 1, "sozd")])
def test_table_summary_across_blocks_equals_the_cell_reference(p, n, kind):
    """A table summarized block by block (the last block of F_{3^5} is
    short: 243 rows in blocks of 67) has the uniformity and histogram of
    the cell masks: the largest cells sit where the maximum must not look,
    row 0, column 0 and, for the p = 2 SOZD table, the diagonal.  Over F_2
    every FBCT cell lies outside the domain, so its uniformity is 0."""
    f = make_field(p, n)
    q = f.order
    entries = np.random.default_rng(q).integers(0, 20, (q, q))
    entries[0] = 90
    entries[:, 0] = 80
    np.fill_diagonal(entries, 70)
    domain = np.ones((q, q), dtype=bool)
    domain[0] = False
    if kind == "sozd":
        domain[:, 0] = False
        if p == 2:
            np.fill_diagonal(domain, False)
    table = SpectrumTable(kind, f, "table", entries)
    summary = sozd_uniformity(table) if kind == "sozd" else differential_uniformity(f, table=table)
    assert summary.uniformity == entries[domain].max(initial=0)
    assert summary.histogram == hist_pairs(entries)


def hist_pairs(entries):
    values, counts = np.unique(entries, return_counts=True)
    return tuple(zip(values.tolist(), counts.tolist()))


def test_histograms_cover_all_pairs(f26, f33):
    for field, fmap, kind in ((f26, PowerMap(11), "sozd"), (f33, PowerMap(4), "ddt")):
        t = (sozd_table if kind == "sozd" else ddt_table)(field, fmap)
        s = (sozd_uniformity(t) if kind == "sozd"
             else differential_uniformity(field, table=t))
        assert sum(c for _, c in s.histogram) == field.order**2
        values = [v for v, _ in s.histogram]
        assert values == sorted(values)


# -- table maps --------------------------------------------------------------------

def test_table_map_equals_power_map(f26):
    images = tuple(int(v) for v in f26.power_map_table(11))
    tm = TableMap(images)
    t_tm = sozd_table(f26, tm)
    t_pm = sozd_table(f26, PowerMap(11))
    assert np.array_equal(t_tm.entries, t_pm.entries)
    assert t_tm.map_label == "table" and t_pm.map_label == "11"


def test_table_map_validation(f26):
    with pytest.raises(WrongLengthError):
        image_table(f26, TableMap((0, 1, 2)))
    with pytest.raises(SpectraError):
        image_table(f26, TableMap(tuple(range(60)) + (99, 1, 2, 3)))


def test_random_sbox_row_sums(f26):
    rng = np.random.default_rng(11)
    tm = TableMap(tuple(int(v) for v in rng.integers(0, 64, 64)))
    t = ddt_table(f26, tm)
    assert (t.entries.sum(axis=1) == 64).all()
    s = sozd_table(f26, tm)
    report = fbct_property_check(s)
    assert report.ok, report.counts


SBOX_FIELDS = (
    make_field(2, 4),
    make_field(2, 5),
    make_field(2, 5, [1, 0, 0, 1, 0, 1]),  # x^5 + x^3 + 1, not the Conway modulus
    make_field(3, 3),
    make_field(5, 2),
    make_field(7, 2),
)


@st.composite
def sboxes(draw):
    field = draw(st.sampled_from(SBOX_FIELDS))
    q = field.order
    if draw(st.booleans()):  # at most 4 image values: long runs of equal derivative
        values = st.sampled_from(draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=4)))
    else:
        values = st.integers(0, draw(st.integers(0, q - 1)))  # a narrow image range
    images = draw(st.lists(values, min_size=q, max_size=q))
    return field, TableMap(tuple(images))


@settings(max_examples=20, deadline=None)
@given(sboxes())
def test_row_kernels_match_definitions(case):
    field, tm = case
    q = field.order
    ddt = ddt_table(field, tm, method="bruteforce").entries
    sozd = sozd_table(field, tm, method="bruteforce").entries
    for a in range(q):
        assert ddt[a].tolist() == [ddt_entry(field, tm, a, b) for b in range(q)], a
        assert sozd[a].tolist() == [sozd_entry(field, tm, a, b) for b in range(q)], a
    assert np.array_equal(sozd.sum(axis=1), (ddt**2).sum(axis=1))


@pytest.mark.parametrize("p,n,d", [(2, 10, 35), (2, 10, 7), (2, 8, 2), (3, 6, 4), (3, 5, 2)])
def test_sozd_row_flushes_are_bounded_by_the_pairs(monkeypatch, p, n, d):
    # the pair differences are binned once per >= (rows x q) pairs, not once
    # per shift: for row 1 alone and for the block of rows 1, 2, 3
    f = make_field(p, n)
    tab = f.power_map_table(d)
    bruteforce = sozd_table(f, PowerMap(d), method="bruteforce").entries
    bincount = np.bincount
    for a in (np.array([1]), np.arange(1, 4)):
        ddt = spectra._ddt_rows(f, tab, a)
        flushes = 0

        def counting(*args, **kwargs):
            nonlocal flushes
            flushes += 1
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting)
        block = spectra._sozd_rows(f, tab, a)
        monkeypatch.undo()
        assert flushes <= (ddt**2).sum() / ddt.size + 2, (a, flushes)
        assert np.array_equal(block, bruteforce[a])


# -- the row kernel's transform of the large derivative classes ------------------------

# the row kernel's threshold: every class transformed, or none
CUTS = {"default": None, "transform": lambda q, n: 0, "scan": lambda q, n: q}


@contextlib.contextmanager
def kernel_cut(mode):
    """Run the SOZD row kernel with the threshold CUTS[mode]; yields the
    list of the transform's calls, one list of class sizes each."""
    cut = CUTS[mode]
    calls = []
    transform = spectra._class_autocorrelation

    def spy(field, classes, out):
        calls.append([len(c) for c in classes])
        return transform(field, classes, out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_class_autocorrelation", spy)
        if cut is not None:
            mp.setattr(spectra, "_transform_threshold", cut)
        yield calls


@settings(max_examples=25, deadline=None)
@given(sboxes(), st.sampled_from([1, 3, 64]))
def test_row_kernel_transformed_and_scanned_classes_match_definitions(case, rows):
    """Every class transformed (threshold 0) or none (threshold q): both
    kernels' blocks of 1 row, of 3 rows and of the whole table (64 rows
    reach past every field here) equal ddt_entry and sozd_entry at every
    (a, b); each row of a block takes its own transform."""
    field, tm = case
    q = field.order
    tab = image_table(field, tm)
    want = {kind: [[entry(field, tm, a, b) for b in range(q)] for a in range(q)]
            for kind, entry in (("ddt", ddt_entry), ("sozd", sozd_entry))}
    blocks = [np.arange(a, min(a + rows, q)) for a in range(0, q, rows)]
    for mode in ("transform", "scan"):
        with kernel_cut(mode) as calls:
            for a in blocks:
                assert spectra._sozd_rows(field, tab, a).tolist() == want["sozd"][a[0]:a[-1] + 1], (a, mode)
                assert spectra._ddt_rows(field, tab, a).tolist() == want["ddt"][a[0]:a[-1] + 1], (a, mode)
        assert len(calls) == (q if mode == "transform" else 0)


def test_additive_maps_collide_everywhere():
    """x^(p^k) is additive, so D_1 x^(p^k) is constant and SOZD(1, b) = q at
    every b: one class of q elements, transformed at the default threshold,
    and scanned where q <= 8, the threshold's floor."""
    for p, n, d in [(2, 1, 1), (2, 10, 2), (2, 10, 4), (2, 12, 2**11), (3, 1, 3), (3, 6, 3),
                    (3, 6, 9), (5, 4, 5), (5, 4, 125), (7, 3, 7), (7, 3, 49), (11, 2, 11)]:
        f = make_field(p, n)
        with kernel_cut("default") as calls:
            row = sozd_row_power(f, d)
        assert row.tolist() == [f.order] * f.order, (p, n, d)
        assert calls == ([] if f.order <= 8 else [[f.order]]), (p, n, d)


@pytest.mark.parametrize("n,k", [(6, 2), (6, 3), (8, 4), (9, 3), (10, 1), (10, 5), (12, 4)])
@pytest.mark.parametrize("mode", list(CUTS))
def test_gold_map_row_is_q_on_the_subfield(n, k, mode):
    """D_1 x^(2^k+1) = x^(2^k) + x + 1 is affine with kernel F_{2^g},
    g = gcd(k, n): SOZD(1, b) = q for b in F_{2^g} and 0 otherwise."""
    f = make_field(2, n)
    g = math.gcd(k, n)
    want = [f.order if f.pow(b, 2**g) == b else 0 for b in range(f.order)]
    with kernel_cut(mode) as calls:
        row = sozd_row_power(f, 2**k + 1)
    assert row.tolist() == want
    assert sum(want) == f.order * 2**g
    if mode == "transform":
        assert calls == [[2**g] * (f.order >> g)]
    elif mode == "scan":
        assert calls == []


@pytest.mark.parametrize("p,n,d,cut", [
    pytest.param(p, n, d, cut, id=f"{p}-{n}-{d}")
    for p, n, d, cut in [(3, 8, 3, "default"), (5, 4, 5, "default"),
                         (7, 1, 5, "transform"), (11, 1, 5, "transform")]])
def test_odd_p_transform_equals_the_scan(p, n, d, cut):
    """Over F_7 and F_11 every class is below the threshold's floor, so the
    transform is forced there."""
    f = make_field(p, n)
    with kernel_cut(cut) as calls:
        transformed = sozd_row_power(f, d)
    with kernel_cut("scan"):
        scanned = sozd_row_power(f, d)
    assert calls and np.array_equal(transformed, scanned)


@pytest.mark.parametrize("p,n,d", [(7, 1, 5), (11, 1, 5), (2, 3, 1), (5, 1, 1)])
def test_classes_of_at_most_8_elements_are_scanned(p, n, d):
    """The threshold's floor: classes of up to 8 elements stay on the scan
    even where sqrt(q n) is smaller, as in fields of a few dozen elements."""
    f = make_field(p, n)
    assert spectra._transform_threshold(f.order, n) == 8
    with kernel_cut("default") as calls:
        row = sozd_row_power(f, d)
    assert calls == []
    assert row.tolist() == [sozd_entry(f, PowerMap(d), 1, b) for b in range(f.order)]


@pytest.mark.parametrize("error", ["residue", "sum"])
def test_odd_p_transform_falls_back_to_the_scan_when_inexact(monkeypatch, error):
    """A rounded FFT row is used only if every residue is below 1/4 and the
    entries sum to sum_c |c|^2; otherwise the kernel scans every class."""
    f = make_field(3, 5)
    tab = f.power_map_table(3)
    irfftn = np.fft.irfftn

    def perturbed(*args, **kwargs):
        out = irfftn(*args, **kwargs)
        if error == "residue":
            out += 0.3
        else:
            out.flat[7] += 1
        return out

    monkeypatch.setattr(np.fft, "irfftn", perturbed)
    out = np.zeros(f.order, dtype=np.int64)
    assert spectra._class_autocorrelation(f, [f.xs()], out) is None and not out.any()
    assert spectra._sozd_rows(f, tab, np.array([1]))[0].tolist() == [f.order] * f.order


def test_linear_row_at_f2_16_within_a_time_bound():
    # the pair scan took 49 s here
    f = make_field(2, 16)
    start = time.perf_counter()
    row = sozd_row_power(f, 4)
    assert time.perf_counter() - start < 5
    assert row.tolist() == [f.order] * f.order


def test_transformed_row_memory_in_int32_arrays():
    """The F_{2^20} SOZD row of x^4, field and exp/log tables included,
    peaks at about 10 q-length int32 arrays (measured): exp, log, xs and the
    images, the sorted derivative and its order, and the transform's two
    int64 arrays."""
    q = 1 << 20
    tracemalloc.start()
    try:
        row = sozd_row_power(make_field(2, 20), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.dtype == np.int64 and (row == q).all()
    assert peak <= 11 * 4 * q, peak / (4 * q)


def test_scanned_row_memory_in_int32_arrays():
    """The F_{2^18} SOZD row of x^7, field and exp/log tables included, is
    all scan (no class passes the threshold) and peaks at 15.5 q-length
    int32 arrays (measured): a lone row builds no per-block offset arrays."""
    q = 1 << 18
    sozd_row_power(make_field(2, 10), 7)  # first-call imports and caches out of the peak
    tracemalloc.start()
    try:
        row = sozd_row_power(make_field(2, 18), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row[0] == q and row.sum() == (ddt_row_power(make_field(2, 18), 7) ** 2).sum()
    assert peak <= 16.5 * 4 * q, peak / (4 * q)


# -- streamed rows -------------------------------------------------------------------

ROW_FIELDS = (
    make_field(2, 1),
    make_field(2, 5),
    make_field(2, 6),
    make_field(2, 6, [1, 1, 0, 0, 0, 0, 1]),  # x^6 + x + 1, not the Conway modulus
    make_field(3, 1),
    make_field(3, 3),
    make_field(3, 3, [1, 2, 0, 1]),  # x^3 + 2x + 1, not the Conway modulus
    make_field(5, 2),
)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ROW_FIELDS), st.integers(1, 200), st.sampled_from(["ddt", "sozd"]))
def test_streamed_rows_equal_bruteforce(field, d, kind):
    brute = (ddt_table if kind == "ddt" else sozd_table)(field, PowerMap(d), method="bruteforce")
    rows = power_rows(field, kind, d)
    streamed = list(iter_rows(field, rows, row_scale(kind, d)))
    assert len(streamed) == field.order
    for a, row in enumerate(streamed):
        assert np.array_equal(row, brute.entries[a]), a
    # trailing axes ride along
    pairs = [np.stack([r, -r], axis=-1) for r in rows]
    both = expand_rows(field, pairs, row_scale(kind, d))
    assert np.array_equal(both[..., 0], brute.entries) and np.array_equal(both[..., 1], -brute.entries)


def test_streamed_rows_where_scale_times_log_passes_2_31():
    # x^(q-2), the inverse, over F_{2^16}: the rotation scale * log(a) reaches
    # about 2^32 on most rows, past int32
    f = make_field(2, 16)
    d = f.order - 2
    tab = image_table(f, PowerMap(d))
    rows = itertools.islice(iter_rows(f, power_rows(f, "ddt", d), d), 40)
    for a, row in enumerate(rows):
        assert np.array_equal(row, spectra._ddt_rows(f, tab, np.array([a]))[0]), a


# -- flagged cells -------------------------------------------------------------------

LISTER_FIELDS = (make_field(2, 1), make_field(2, 3), make_field(2, 6), make_field(3, 1),
                 make_field(3, 2), make_field(3, 4))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LISTER_FIELDS), st.one_of(st.just(1), st.integers(2, 200)),
       st.sampled_from([0.0, 0.02, 0.3, 1.0]), st.integers(0, 2**32 - 1), st.data())
def test_flagged_cells_equal_argwhere_of_the_expanded_table(field, scale, density, seed, data):
    q = field.order
    rng = np.random.default_rng(seed)
    bad = rng.random((2, q)) < density
    expected = np.argwhere(expand_rows(field, bad, scale))
    count = len(expected)
    cap = data.draw(st.sampled_from([0, max(count - 1, 0) // 2, count, count + 5]))
    got_count, cells = flagged_cells(field, bad, scale, cap)
    assert got_count == count
    assert [[a, b] for a, b, _, _ in cells] == expected[:cap].tolist()
    for a, b, r, u in cells:  # the cell reads bad[r] at u
        assert r == int(a != 0) and bad[r][u]
        assert b == (u if r == 0 else field.mul(field.pow(a, scale), u))


def test_row_property_check_builds_no_scalar_tables():
    f = Field(2, 6, CONWAY_POLYNOMIALS[2, 6])  # make_field's is interned and may hold them
    rows = [row.copy() for row in power_rows(f, "sozd", 11)]
    rows[0][9] -= 4
    rows[1][5] += 2
    rows[1][1] -= 64
    report = fbct_row_property_check(f, rows)
    assert all(report.counts.values()) and len(report.violations) == 4 * 50
    assert f._exp is None


def test_clean_row_property_check_builds_no_log():
    """Row 1's column is gathered through the inverse map's image table,
    from exp alone; only a listing of violations multiplies."""
    f = Field(2, 16, CONWAY_POLYNOMIALS[2, 16])
    report = fbct_row_property_check(f, power_rows(f, "sozd", 7))
    assert report.ok and report.violations == []
    assert f._np_exp is not None and f._np_log is None


def test_table_property_check_memory_is_one_row_and_column():
    """The q x q check holds O(q) beyond its table: a q = 1024 table's
    boolean q x q mask alone would be 1 MiB."""
    table = sozd_table(make_field(2, 10), PowerMap(37))
    table.entries[np.arange(0, 1022, 7), np.arange(3, 1024, 7)] += 2
    tracemalloc.start()
    try:
        report = fbct_property_check(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.ok and len(report.violations) > 50
    assert peak < 2**18, peak


def test_ddt_row_memory_in_int32_arrays():
    """The F_{2^20} DDT row, field and exp table included, peaks at 7
    q-length int32 arrays (measured): exp, xs and the map's images, the
    derivative's intp copy for bincount (2) and the int64 counts (2).  No
    log table is built; with it the call peaked at 8, and with int64
    encodings at 12.25."""
    q = 1 << 20
    tracemalloc.start()
    try:
        row = ddt_row_power(make_field(2, 20), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.dtype == np.int64 and row.sum() == q and row[0] == 0
    assert peak <= 8 * 4 * q, peak / (4 * q)


def test_tables_past_physical_memory_are_refused():
    # F_{2^16}: a q x q int64 table is 32 GiB
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if ram >= 8 << 32:
        pytest.skip("a 32 GiB table fits in this machine's physical memory")
    f = make_field(2, 16)
    with pytest.raises(UnsupportedSizeError, match="32.0 GiB"):
        sozd_table(f, PowerMap(7))
    with pytest.raises(UnsupportedSizeError, match="physical memory"):
        ddt_table(f, TableMap(tuple(range(f.order))), method="bruteforce")


# -- structural properties ------------------------------------------------------------

def test_property_check_clean_tables(f26, f28):
    for field, d in ((f26, 11), (f26, 13), (f28, 19), (f28, 21)):
        report = fbct_property_check(sozd_table(field, PowerMap(d)))
        assert report.ok
        assert all(v == 0 for v in report.counts.values())


def test_property_check_catches_mutation(f26):
    t = sozd_table(f26, PowerMap(11))
    t.entries[5, 9] -= 1
    report = fbct_property_check(t)
    assert not report.ok
    assert sum(report.counts.values()) >= 1
    props = {v.property for v in report.violations}
    assert "multiplicity-mod-4" in props or "symmetry" in props


def test_property_check_diagonal(f26):
    t = sozd_table(f26, PowerMap(11))
    assert (np.diag(t.entries) == 64).all()


def reference_property_check(e):
    """The identities on a whole table, cell masks in np.argwhere order."""
    q = e.shape[0]
    xs = np.arange(q)
    trivial = (xs[:, None] == 0) | (xs[None, :] == 0) | (xs[:, None] == xs[None, :])
    shift = e[xs[:, None], xs[:, None] ^ xs[None, :]]  # entry (a, a^b)
    checks = [
        ("symmetry", e != e.T, lambda a, b: f"{e[a, b]} != {e[b, a]}"),
        ("fixed-values", trivial & (e != q), lambda a, b: f"{e[a, b]} != {q}"),
        ("multiplicity-mod-4", ~trivial & (e % 4 != 0), lambda a, b: f"{e[a, b]} % 4 != 0"),
        ("translate-equality", e != shift, lambda a, b: f"{e[a, b]} != {e[a, a ^ b]}"),
    ]
    counts, listing = {}, []
    for prop, mask, detail in checks:
        idx = np.argwhere(mask)
        counts[prop] = len(idx)
        listing += [(prop, int(a), int(b), detail(a, b)) for a, b in idx[:50]]
    return counts, listing


def as_tuples(report):
    return report.counts, [(v.property, v.a, v.b, v.detail) for v in report.violations]


C9_MAPS = [(6, 11), (6, 13), (8, 19), (8, 21), (10, 37)]
FBCT_FIELDS = [make_field(2, n) for n in (1, 2, 3, 6)] + [make_field(2, 6, [1, 1, 0, 0, 0, 0, 1])]


def check_rows_against_table(field, rows):
    table = SpectrumTable("sozd", field, "rows", expand_rows(field, rows, 1))
    by_rows, by_table = fbct_row_property_check(field, rows), fbct_property_check(table)
    expected = reference_property_check(table.entries)
    assert as_tuples(by_rows) == as_tuples(by_table) == expected
    assert by_rows.ok == by_table.ok == (not any(expected[0].values()))
    return by_rows


@pytest.mark.parametrize("n,d", C9_MAPS)
def test_row_property_check_on_c9_maps(n, d):
    f = make_field(2, n)
    report = check_rows_against_table(f, power_rows(f, "sozd", d))
    assert report.ok and report.violations == []


@pytest.mark.parametrize("prop,r,u,delta", [  # rows[r][u] += delta, q = 64
    ("symmetry", 1, 3, 4),
    ("symmetry", 0, 63, -64),
    ("fixed-values", 0, 0, -4),
    ("fixed-values", 1, 1, -64),
    ("multiplicity-mod-4", 1, 5, 2),
    ("translate-equality", 1, 62, 8),
])
def test_row_property_check_catches_each_mutation(prop, r, u, delta):
    f = make_field(2, 6)
    rows = [row.copy() for row in power_rows(f, "sozd", 11)]
    rows[r][u] += delta
    report = check_rows_against_table(f, rows)
    assert report.counts[prop] > 0 and not report.ok


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FBCT_FIELDS), st.integers(1, 100), st.data())
def test_row_property_check_equals_table_check(field, d, data):
    q = field.order
    rows = [r.copy() for r in power_rows(field, "sozd", d)]
    cells = st.tuples(st.integers(0, 1), st.integers(0, q - 1), st.integers(-q, q))
    for r, u, delta in data.draw(st.lists(cells, max_size=4)):
        rows[r][u] = max(rows[r][u] + delta, 0)
    check_rows_against_table(field, rows)


@pytest.mark.parametrize("n,d", [(8, 19), (10, 37)])
def test_table_property_check_across_blocks_equals_the_cell_reference(n, d):
    """The q x q check walks blocks of rows (4 of 64 rows at q = 256, 64 of
    16 at q = 1024); with cells corrupted in several blocks, in row 0,
    column 0 and on the diagonal, more than 50 per property, its counts and
    its first 50 violations per property are the per-cell reference's."""
    f = make_field(2, n)
    q = f.order
    table = sozd_table(f, PowerMap(d))
    rng = np.random.default_rng(n)
    a, b = rng.integers(0, q, (2, 120))
    table.entries[a, b] += rng.choice([-4, 1, 2, 4], 120)
    t = rng.choice(np.arange(1, q), 60, replace=False)
    table.entries[t[:40], t[:40]] -= 4  # trivial cells: the diagonal, row 0, column 0
    table.entries[0, t[40:50]] -= 4
    table.entries[t[50:], 0] -= 4
    report = fbct_property_check(table)
    assert as_tuples(report) == reference_property_check(table.entries)
    assert all(count > 50 for count in report.counts.values()), report.counts


def test_f2_fbct_passes_and_trivial_cells_are_fixed_values():
    f = make_field(2, 1)
    table = sozd_table(f, PowerMap(3))
    assert (table.entries == 2).all()
    report = fbct_property_check(table)
    assert report.ok and not any(report.counts.values())
    table.entries[0, 1] = 0  # a trivial cell: fixed-values, never mod 4
    counts = fbct_property_check(table).counts
    assert counts["fixed-values"] == 1 and counts["multiplicity-mod-4"] == 0


def test_property_check_requires_fbct(f33, f26):
    with pytest.raises(SpectraError):
        fbct_property_check(sozd_table(f33, PowerMap(4)))
    with pytest.raises(SpectraError):
        fbct_property_check(ddt_table(f26, PowerMap(11)))


# -- APN and PN links -------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_apn_link_gold(n):
    f = make_field(2, n)
    t = sozd_table(f, PowerMap(3))  # gcd(1, n) = 1: APN
    mask = np.ones((f.order, f.order), dtype=bool)
    mask[0, :] = mask[:, 0] = False
    np.fill_diagonal(mask, False)
    fbct_zero = not t.entries[mask].any()
    delta = differential_uniformity(f, PowerMap(3)).uniformity
    assert fbct_zero and delta == 2


def test_apn_link_negative_control():
    f = make_field(2, 6)
    t = sozd_table(f, PowerMap(5))  # gcd(2, 6) = 2: not APN
    mask = np.ones((64, 64), dtype=bool)
    mask[0, :] = mask[:, 0] = False
    np.fill_diagonal(mask, False)
    assert t.entries[mask].any()
    assert differential_uniformity(f, PowerMap(5)).uniformity > 2


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("d", [2, 4])
def test_pn_link_odd_characteristic(n, d):
    f = make_field(3, n)
    t = sozd_table(f, PowerMap(d))
    mask = np.ones((f.order, f.order), dtype=bool)
    mask[0, :] = mask[:, 0] = False
    assert not t.entries[mask].any()
    assert differential_uniformity(f, PowerMap(d)).uniformity == 1


# -- modulus independence -----------------------------------------------------------

def test_histogram_invariant_under_modulus(f26):
    alt = make_field(2, 6, [1, 1, 0, 0, 0, 0, 1])  # x^6 + x + 1
    assert alt.modulus != f26.modulus
    for d in (11, 13):
        h1 = hist(sozd_table(f26, PowerMap(d)).entries)
        h2 = hist(sozd_table(alt, PowerMap(d)).entries)
        assert h1 == h2


# -- serialization and determinism -----------------------------------------------------

def test_csv_format_small():
    f = make_field(2, 2)
    t = ddt_table(f, PowerMap(1))
    buf = io.BytesIO()
    write_table_csv(f, "ddt", "1", t.entries, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == b"DDT,2,2,1"
    assert len(lines) == 5
    assert lines[1] == b"4,0,0,0"
    assert lines[2] == b"0,4,0,0"  # difference of x is constant a


def csv_mismatch(written, header, rows):
    """First line where the bytes `written` differ from the reference
    `",".join(map(str, row.tolist()))` serialization, or None."""
    written = written.decode("ascii")
    lines = [header, *(",".join(map(str, row.tolist())) for row in rows)]
    if not written.endswith("\n"):
        return "no final newline"
    got = written[:-1].split("\n")
    if len(got) != len(lines):
        return f"{len(got)} lines, expected {len(lines)}"
    return next((i for i, (a, b) in enumerate(zip(got, lines)) if a != b), None)


def test_csv_bytes_equal_reference():
    f10 = make_field(2, 10)
    fbct = sozd_table(f10, PowerMap(7))
    assert fbct.entries.min() == 0 and fbct.entries.max() == 1024
    f35 = make_field(3, 5)
    rng = np.random.default_rng(11)
    sbox = TableMap(tuple(rng.integers(0, 64, 64).tolist()))
    random_table = sozd_table(make_field(2, 6), sbox)
    for table, header in [(fbct, "SOZD,2,10,7"), (random_table, f"SOZD,2,6,{random_table.map_label}")]:
        buf = io.BytesIO()
        write_table_csv(table.field, table.kind, table.map_label, table.entries, buf)
        assert csv_mismatch(buf.getvalue(), header, table.entries) is None
    for field, kind, row in [(f10, "fbct", fbct.entries[1]), (f35, "sozd", sozd_row_power(f35, 7))]:
        buf = io.BytesIO()
        write_row_csv(field, kind, "7", row, buf)
        assert csv_mismatch(buf.getvalue(), f"{kind.upper()},{field.p},{field.n},7", [row]) is None


_PIECE = spectra._PIECE
# counts of 1 to 8 digits up to the largest order, 2^24, with the ends of the
# 8-byte width
_COUNTS = (st.integers(1, 8).flatmap(lambda k: st.integers(10 ** (k - 1), min(10**k - 1, 2**24)))
           | st.sampled_from([0, 9_999_999, 10**7, 2**24]))


def _csv(rows) -> bytes:
    buf = io.BytesIO()
    write_table_csv(make_field(2, 2), "ddt", "3", rows, buf)
    return buf.getvalue()


@pytest.mark.parametrize("length", [1, _PIECE - 1, _PIECE, _PIECE + 1, 3 * _PIECE + 7])
@settings(max_examples=8, deadline=None)
@given(pool=st.lists(_COUNTS, min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
def test_csv_row_bytes_equal_reference(length, pool, seed):
    row = np.random.default_rng(seed).choice(np.array(pool, dtype=np.int64), size=length)
    assert csv_mismatch(_csv([row]), "DDT,2,2,3", [row]) is None


@settings(max_examples=15, deadline=None)
@given(pools=st.lists(st.lists(_COUNTS, min_size=1, max_size=5), min_size=2, max_size=4),
       wide=st.integers(10**7, 2**24 - 4), length=st.sampled_from([1, 7, _PIECE + 1]),
       seed=st.integers(0, 2**32 - 1))
def test_csv_table_bytes_equal_reference_as_the_lookup_grows(pools, wide, length, seed):
    """Each row's maximum is above the last one's, the first row's is below
    10^7 and the last row's at least 10^7, so each row's lookup is longer
    than the last one's and the tokens widen from 8 to 16 bytes mid-table."""
    rng = np.random.default_rng(seed)
    rows, top = [], -1
    for i, pool in enumerate(pools):
        pool = [v % 10**7 for v in pool] if i == 0 else pool
        row = rng.choice(np.array(pool, dtype=np.int64), size=length)
        top = max(top + 1, int(row.max()), wide if i == len(pools) - 1 else 0)
        row[rng.integers(length)] = top
        rows.append(row)
    assert max(rows[0]) < 10**7 <= max(rows[-1])
    assert csv_mismatch(_csv(rows), "DDT,2,2,3", rows) is None


@pytest.mark.parametrize("small,big,widths", [(9, 10, (2, 4)), (999, 1000, (4, 8))])
@pytest.mark.parametrize("layout", ["one-piece", "across-pieces", "across-rows"])
def test_csv_bytes_where_counts_gain_a_digit(monkeypatch, small, big, widths, layout):
    """A row's tokens are 2 bytes wide below 10, 4 below 1000 and 8 below
    10^7: counts that cross 9 -> 10 or 999 -> 1000 within one piece, from
    one piece to the next, or from one row to the next (each row at the
    width of its own largest count) are written as the reference is."""
    rng = np.random.default_rng(small)
    if layout == "one-piece":
        rows = [np.array([small, 0, small, big, small - 1, big, 1, small])]
    elif layout == "across-pieces":
        row = rng.integers(0, small + 1, size=2 * _PIECE + 3)
        row[[0, _PIECE - 1]] = small
        row[[_PIECE, -1]] = big
        rows = [row]
    else:
        narrow = rng.integers(0, small + 1, size=_PIECE + 1)
        narrow[-1] = small
        wide = rng.integers(0, small + 1, size=_PIECE + 1)
        wide[[3, -2]] = big
        rows = [narrow, wide, narrow]
    seen = []  # the token width of each row's lookup
    count_text = spectra._count_text

    def spy(counts):
        lookup = count_text(counts)
        seen.append(lookup.itemsize)
        return lookup

    monkeypatch.setattr(spectra, "_count_text", spy)
    text = _csv(rows)
    assert seen == [widths[int(row.max() >= big)] for row in rows]
    assert csv_mismatch(text, "DDT,2,2,3", rows) is None


@settings(max_examples=40, deadline=None)
@given(pool=st.lists(_COUNTS | st.sampled_from([9, 10, 999, 1000]), min_size=1, max_size=6),
       length=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
@example(pool=[9, 10], length=8, seed=0).via("9 -> 10")
@example(pool=[999, 1000], length=8, seed=0).via("999 -> 1000")
@example(pool=[9_999_999, 10**7], length=8, seed=0).via("9,999,999 -> 10^7")
def test_count_text_formats_the_rows_counts_at_its_own_width(pool, length, seed):
    """Each count of the row maps to its text and comma, NUL-padded to the
    narrowest of 2, 4, 8 and 16 bytes that holds the row's largest count
    and its comma; every count absent from the row maps to all NULs."""
    row = np.random.default_rng(seed).choice(np.array(pool, dtype=np.int64), size=length)
    lookup = spectra._count_text(row)
    top = int(row.max())
    width = min(w for w in (2, 4, 8, 16) if w > len(str(top)))
    assert lookup.itemsize == width and lookup.size > top
    present = set(row.tolist())
    for v in present:
        assert lookup[v:v + 1].tobytes() == (b"%d," % v).ljust(width, b"\0")
    # the present entries hold exactly their text's bytes, so the nonzero
    # bytes of the whole lookup are theirs alone: the absent ones are all NUL
    text_bytes = sum(len(b"%d," % v) for v in present)
    assert np.count_nonzero(lookup.view(np.uint8)) == text_bytes


def test_csv_file_and_string_buffer_agree(tmp_path):
    rng = np.random.default_rng(5)
    rows = [rng.integers(0, top, size=size)
            for top, size in [(10, 3), (10**4, _PIECE + 1), (10**3, 2 * _PIECE), (10, 5)]]
    rows[2][[5, -1]] = 10**7, 2**24
    path = tmp_path / "t.csv"
    with open(path, "wb") as fh:
        write_table_csv(make_field(2, 2), "ddt", "3", rows, fh)
    assert path.read_bytes() == _csv(rows)
    assert csv_mismatch(_csv(rows), "DDT,2,2,3", rows) is None


@pytest.mark.parametrize("row", [[-1], [3, 0, -2], [5] * _PIECE + [-7]])
def test_csv_negative_count_raises(row):
    with pytest.raises(SpectraError):
        _csv([np.array(row, dtype=np.int64)])


@pytest.mark.parametrize("big", [False, True], ids=["ddt-like", "fbct-like"])
def test_csv_writer_memory_is_the_lookup_and_pieces(big):
    """Writing a 2^20-count row allocates the row's lookup (8 bytes per count
    up to the largest), one bool per count up to the largest to mark the
    counts that occur, and one piece of _PIECE tokens and its text, not a
    copy of the row's text."""
    q = 1 << 20
    row = np.random.default_rng(3).integers(0, 7, size=q) * 2
    if big:
        row[:2] = q  # an FBCT row's b = 0 and b = 1
    lookup = (int(row.max()) + 1) * 8
    with open(os.devnull, "wb") as sink:
        tracemalloc.start()
        try:
            write_row_csv(make_field(2, 20), "fbct", "7", row, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= lookup + 2 * 2**20


@pytest.mark.parametrize("p,n,d,kind,widths", [
    (2, 6, 11, "sozd", (4, 2)), (2, 6, 11, "ddt", (4, 2)), (2, 1, 3, "sozd", (2, 2)),
    (3, 4, 7, "sozd", (4, 2)), (3, 4, 7, "ddt", (4, 2)), (5, 2, 3, "ddt", (4, 2)),
    (2, 12, 67, "sozd", (8, 4)), (2, 12, 67, "ddt", (8, 2)),
])
def test_power_table_csv_formats_rows_0_and_1_only(monkeypatch, p, n, d, kind, widths):
    """Given the scale, write_table_csv formats row 0 and row 1 without its
    cells u = 0 and u = 1 once each, each at its own width (an FBCT's count
    q at u = 0 and u = 1, a DDT's at u = 1 over F_{2^12}, no longer widens
    row 1's tokens), and gathers every other line from row 1's text; the
    bytes are those of the expanded table."""
    f = make_field(p, n)
    rows = power_rows(f, kind, d)
    calls = []  # (counts, token width) of each call of the formatter, _count_text
    count_text = spectra._count_text

    def spy(counts):
        lookup = count_text(counts)
        calls.append((counts.copy(), lookup.itemsize))
        return lookup

    monkeypatch.setattr(spectra, "_count_text", spy)
    buf = io.BytesIO()
    write_table_csv(f, kind, str(d), rows, buf, scale=row_scale(kind, d))
    assert len(calls) == 2
    for (counts, width), row, want in zip(calls, (rows[0], rows[1][2:]), widths):
        assert np.array_equal(counts, row) and width == want
    table = expand_rows(f, rows, row_scale(kind, d))
    assert csv_mismatch(buf.getvalue(), f"{kind.upper()},{p},{n},{d}", table) is None


@pytest.mark.parametrize("path", ["power", "streamed"])
@pytest.mark.parametrize("wide", [False, True], ids=["2-byte", "4-byte"])
def test_two_byte_tokens_skip_the_nul_strip(monkeypatch, path, wide):
    """A 2-byte token is one digit and its comma, with no NUL, so a line of
    them is written as its bytes, unstripped; a line of wider tokens is
    stripped.  To tell the two apart, the formatter here drops the comma of
    count 4, whose token then keeps a NUL: it reaches the file from 2-byte
    lines only.  On the power path row 1's count 64 at u = 0 and u = 1 is
    written apart, so it does not widen the other tokens."""
    count_text = spectra._count_text

    def comma_less_4(counts):
        lookup = count_text(counts)
        lookup[4] = b"4"
        return lookup

    monkeypatch.setattr(spectra, "_count_text", comma_less_4)
    row = np.array([64 if path == "power" else 8] * 2 + [4, 0, 4, 2, 4, 0])
    if wide:
        row[3] = 12
    buf = io.BytesIO()
    if path == "power":
        write_table_csv(make_field(2, 3), "sozd", "3", (np.full(8, 64), row), buf, scale=1)
    else:
        write_table_csv(make_field(2, 3), "sozd", "3", [row, row], buf)
    lines = 7 if path == "power" else 2  # the lines with three count-4 cells each
    assert buf.getvalue().count(b"\0") == (0 if wide else 3 * lines)


def test_power_table_csv_memory_is_a_few_rows():
    """The FBCT of x^67 over F_{2^12} written from its rows 0 and 1 peaks at
    5.1 q-length int64 arrays, measured (row 0's 8-byte tokens, row 1's
    4-byte ones and their doubled copy, the log and shift arrays, a line
    and its bytes); with row 1 at the 8-byte width of its cells u = 0 and
    u = 1 it peaked at 9.1-9.4, and formatting every line through the
    lookup and a piece buffer at 12.4."""
    f = make_field(2, 12)
    rows = power_rows(f, "sozd", 67)
    with open(os.devnull, "wb") as sink:
        write_table_csv(make_field(2, 3), "sozd", "3", power_rows(make_field(2, 3), "sozd", 3),
                        sink, scale=1)  # first-call imports and caches out of the peak
        f.log_tables()
        tracemalloc.start()
        try:
            write_table_csv(f, "sozd", "67", rows, sink, scale=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 10.5 * 8 * f.order


def test_spectrum_table_kind_flags(f26, f33):
    assert sozd_table(f26, PowerMap(11)).is_fbct
    assert not sozd_table(f33, PowerMap(4)).is_fbct
    assert not ddt_table(f26, PowerMap(11)).is_fbct
