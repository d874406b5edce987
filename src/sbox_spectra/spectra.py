"""Difference distribution tables and second-order zero differential spectra.

A spectrum table counts, for every pair (a, b) of field elements, the
solutions x of

  DDT:   F(x+a) - F(x) = b
  SOZD:  F(x+a+b) - F(x+a) - F(x+b) + F(x) = 0

over F_{p^n}.  For p = 2 the SOZD table is the FBCT.

A power map x^d is fixed by its rows a = 0 and a = 1 (`power_rows`): every
other row follows by the scalings DDT(a, b) = DDT(1, b/a^d) and SOZD(a, b) =
SOZD(1, b/a).  Read in log order, b = g^k, row a is row 1 in log order
rotated by log(a^d) (DDT) or log(a) (SOZD), so `iter_rows` yields the table
one row at a time at one gather per row, and `expand_rows` stacks it.  The
table's summary (`power_table_summary`), its FBCT property check
(`fbct_row_property_check`) and its CSV (`write_table_csv` given the row
scale) all come from the two rows in O(q) memory.  Of these only the row
expansion (iter_rows, and so the CSV) reads the field's log table, and the
check only when it lists violations: a clean check reads exp alone.  That
check and the q x q one of a table map (`fbct_property_check`) apply one
rule set, `_identities`, to a block of rows and its columns.  The cells
outside the uniformity's domain, which the FBCT identities fix at q, are
one mask (`_outside_domain`): every summary's maximum and both checks read
it.  `flagged_cells` is the one lister of the cells where a check fails,
for the row check and for closed_forms' verification: given the check's
boolean rows 0 and 1, it counts them (row 0's plus q - 1 times
row 1's) and lists the first few in (a, b) order.  The CSV writer turns
a row of counts into text by a byte gather from that row's own lookup of
formatted counts (`_count_text`).  Where the row's counts of two digits
or more are a few distinct values in few cells, every token is 2 bytes, a
digit or a mark byte for one wide count, and a comma, and the text is the
tokens' bytes with each mark replaced by its digits (one bytes.replace
per mark); otherwise tokens are NUL-padded to the width of the largest
count, and the NULs are dropped on output.  A power map's row 0 is
formatted once, and so is row 1 without its cells u = 0 and u = 1, which
are written apart since they hold its widest counts (an FBCT's q).  Every
other line is then one gather from row 1's tokens (`_rotations`, the rows
of iter_rows with their shifts) joined with the two cells' text, so a
line costs one gather of tokens in row 1's own form, one expansion or
strip and one write.  The brute-force path, `kernel_blocks`, runs the row
kernel for any map on blocks of rows a, as many as fill _PIECE cells (64
rows at q = 256, one row from q = 2^14 on); it is kept selectable for
cross-validation.  Each stage takes a whole block per call:
`RunningSummary` summarizes the blocks as they stream, the q x q check
walks the table in the same blocks (`table_blocks`), and the CSV writer
makes one lookup, one gather, one expansion or strip and one write per
block (a row longer than _PIECE goes out in pieces of _PIECE counts).  A
power map's property check reads its own rows 0 and 1.  The reports,
SpectrumSummary and PropertyReport, are written by the CLI as their
fields in declared order: a field's name and place are its JSON key's.

Both paths count rows through the derivative D_aF(x) = F(x+a) - F(x), with
the same code for every characteristic, formed over x in chunks of at most
_PIECE cells (_derivative).  A DDT row is the histogram of D_aF, each
chunk added into the int64 row by np.add.at, so the row holds no q-length
index; the SOZD row is a collision count:

  SOZD(a, b) = #{x : D_aF(x+b) = D_aF(x)},

the number of pairs (x, y = x+b) with equal derivative; summed over b the
row gives sum_c DDT(a, c)^2.  Sorting x by D_aF groups the classes of equal
derivative.  A class of s <= T = max(8, sqrt(q n)) elements, q = p^n, is
scanned pair by pair, s^2 pairs, each shift's pairs added into the row by
np.add.at; a larger one is autocorrelated by a
transform over the additive group F_p^n in O(q n), and there are at most
q / T of them.  So
a row takes O(q log q + q sqrt(q n)) time at worst, against the scan's
O(q^2) for a map whose derivative takes few values, and O(q) memory.  A
block of rows is sorted row by row and scanned as one array, its rows kept
apart by an offset of r * q on row r's derivatives and on its bins; each
row still takes its own transform, so row 0 (D_0F = 0, one class of q
elements) is transformed as in a lone row, not scanned in q passes.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .errors import SpectraError, UnsupportedSizeError, WrongLengthError
from .fields import Field


@dataclass(frozen=True)
class PowerMap:
    """The power function x -> x^d (with 0^d = 0)."""

    d: int


@dataclass(frozen=True)
class TableMap:
    """An arbitrary S-box given by its image encodings in enumeration order."""

    images: tuple[int, ...]


def image_table(field: Field, fmap) -> np.ndarray:
    """Image encoding of every element under fmap, in enumeration order."""
    if isinstance(fmap, PowerMap):
        return field.power_map_table(fmap.d)
    if isinstance(fmap, TableMap):
        if len(fmap.images) != field.order:
            raise WrongLengthError(
                f"table has {len(fmap.images)} entries, field has {field.order}"
            )
        tab = np.asarray(fmap.images, dtype=np.int64)  # validated before the int32 cast
        if tab.size and (tab.min() < 0 or tab.max() >= field.order):
            raise SpectraError("table image outside the field")
        return tab.astype(np.int32)
    raise SpectraError(f"not a map spec: {fmap!r}")


def map_label(fmap) -> str:
    return str(fmap.d) if isinstance(fmap, PowerMap) else "table"


@dataclass
class SpectrumTable:
    kind: str  # "ddt" | "sozd"
    field: Field
    map_label: str
    entries: np.ndarray  # (p^n, p^n) int64 counts (encodings are int32), indexed [a, b]

    @property
    def is_fbct(self) -> bool:
        return self.kind == "sozd" and self.field.p == 2


@dataclass(frozen=True)
class SpectrumSummary:
    uniformity: int
    histogram: tuple[tuple[int, int], ...]  # (value, pair count), ascending value
    domain: str


# Cells per block of the brute-force path (the kernel's, the summary's, the
# property check's and the CSV writer's), per chunk of x of the row kernels
# and per write of a longer row: 128 KiB of tokens at width 8.  Much larger pieces each come from a fresh
# mmap that every write page-faults in, and a whole-row gather adds the
# line's bytes to peak memory.
_PIECE = 1 << 14


def _block_rows(q: int) -> int:
    """Rows a per block: as many as fill _PIECE cells, at least one."""
    return max(1, _PIECE // q)


def _derivative(field: Field, tab: np.ndarray, a: np.ndarray):
    """D_aF(x) = F(x+a) - F(x) per row a of the 1-D array a, in chunks of x:
    yields (the slice of x, the (a.size, x-range) block of the derivative),
    each block of at most _PIECE cells (one x at least).  Each chunk builds
    its own x, so no q-length index exists.  One row adds a scalar, as the
    limbs of odd p add it most cheaply."""
    q, shift = field.order, a[:, None] if a.size > 1 else a[0]
    width = max(1, _PIECE // a.size)
    for lo in range(0, q, width):
        x = slice(lo, min(lo + width, q))
        d = tab[field.add_vec(np.arange(x.start, x.stop, dtype=np.int32), shift)]
        if field.p == 2:  # subtraction is XOR: in place
            d ^= tab[x]
        else:
            d = field.sub_vec(d, tab[x])
        yield x, d.reshape(a.size, -1)


def _ddt_rows(field: Field, tab: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The DDT rows a, a block of a.size rows: each chunk of the derivative
    (_derivative) is added into the int64 rows by np.add.at, cell (r, b) at
    bin r * q + b, so nothing q-length is held beyond the rows."""
    counts = np.zeros((a.size, field.order), dtype=np.int64)
    offsets = np.arange(0, counts.size, field.order, dtype=np.int32)[:, None]  # r * q on row r
    for _, bins in _derivative(field, tab, a):
        if a.size > 1:
            bins += offsets
        np.add.at(counts.reshape(-1), bins, 1)
    return counts


def _transform_threshold(q: int, n: int) -> int:
    """Derivative classes of more elements than this are autocorrelated by a
    transform: a class of s elements costs the scan s^2 pairs, a transform
    about q * n operations, and s^2 passes q * n at s = sqrt(q * n).  The
    floor of 8 keeps the classes of fields of a few dozen elements on the
    scan, below the transform's fixed cost of a few NumPy calls."""
    return max(8, math.isqrt(q * n))


def _wht(v: np.ndarray, n: int) -> None:
    """The Walsh-Hadamard transform of the length-2^n array v, in place:
    W(k) = sum_x v(x) (-1)^(k . x), one butterfly level per bit."""
    for k in range(n):
        pairs = v.reshape(-1, 2, 1 << k)
        lo, hi = pairs[:, 0], pairs[:, 1]
        lo += hi  # lo + hi
        hi *= -2
        hi += lo  # (lo + hi) - 2 hi = lo - hi


def _class_autocorrelation(field: Field, classes: list, out: np.ndarray) -> np.ndarray | None:
    """sum over the classes c (arrays of elements) of #{x in c : x + b in c},
    at every b, by Wiener-Khinchin over the additive group F_p^n: the
    autocorrelation of 1_c is the inverse transform of |transform of 1_c|^2
    (Carlet, Boolean Functions for Cryptography and Coding Theory, CUP 2021).
    It is written into `out`, a q-length int64 row of zeros, and returned.
    For p = 2 the transform is the WHT, its own inverse up to 1/q, in int64:
    by Parseval every entry of sum_c W_c^2, and of its transform, is at most
    q * sum_c |c| <= q^2.  For odd p it is the FFT over shape (p,) * n (an
    encoding's base-p digits), in floating point; the rounded sum is written
    only if every residue is below 1/4 and the entries sum to sum_c |c|^2,
    else out is left as it is and None returned."""
    q, n = field.order, field.n
    if field.p == 2:
        ind = np.empty(q, dtype=np.int64)
        for members in classes:
            ind.fill(0)
            ind[members] = 1
            _wht(ind, n)
            ind *= ind
            out += ind
        del ind
        _wht(out, n)
        out >>= n
        return out
    shape = (field.p,) * n
    power = 0.0
    for members in classes:
        ind = np.zeros(q)
        ind[members] = 1
        spectrum = np.fft.rfftn(ind.reshape(shape))  # the half k_last <= p // 2
        del ind
        power += np.square(spectrum.real)
        power += np.square(spectrum.imag)
    corr = np.fft.irfftn(power, s=shape, axes=tuple(range(n))).ravel()
    del power
    rounded = np.rint(corr)
    if (np.abs(corr - rounded).max() >= 0.25
            or rounded.sum() != sum(len(members) ** 2 for members in classes)):
        return None
    out[:] = rounded
    return out


def _sozd_rows(field: Field, tab: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The SOZD rows a, a block of a.size rows: SOZD(a, b) = #{x : D_aF(x+b)
    = D_aF(x)}, summed over the classes of elements with equal derivative.
    The derivative is written chunk by chunk (_derivative) into one key
    array, each row's x is sorted by it once, and row r's keys are raised by
    r * q, so the block is one sorted array of keys in which equal keys
    never cross rows.  A class of more than T elements
    (_transform_threshold) shows as key[i] == key[i + T], one compare over
    the block; each row's such classes are autocorrelated by one transform
    (_class_autocorrelation), and the scan below covers the others.  In the
    scan, the pairs x != y of equal derivative sit j = 1, 2, ... places
    apart, and each adds to the cells (r, b) of its row r at b = y - x and
    b = x - y, bin r * q + b: np.add.at adds each step's differences into
    the rows, twice over for p = 2 (y - x = x - y), both directions in one
    call for odd p.  The first j with no such pair ends the scan: a longer
    run of equal keys would have one.  A block of one row needs no offsets:
    it builds the arrays of a lone row."""
    q, size = field.order, a.size * field.order
    key = np.empty((a.size, q), dtype=np.int32)
    for xs, d in _derivative(field, tab, a):
        key[:, xs] = d
    order = np.argsort(key, axis=1)
    if a.size == 1:  # gathered by the intp order, before it is cast to int32
        key = key[0][order[0]]
    else:  # blocks of more than one row hold at most _PIECE cells
        key = np.take_along_axis(key, order, axis=1)
        key += np.arange(0, size, q, dtype=np.int32)[:, None]  # r * q on row r
    key = key.reshape(-1)
    order = order.astype(np.int32).reshape(-1)  # its entries x, y go to sub_vec
    counts = np.zeros((a.size, q), dtype=np.int64)
    paired = key[1:] == key[:-1]  # i with key[i] == key[i + 1]
    cut = min(_transform_threshold(q, field.n), q)
    large = key[cut:] == key[:size - cut]  # i opens a run of more than cut values
    if large.any():
        large[1:] &= ~paired[:size - cut - 1]  # keep each class's first i
        firsts = np.flatnonzero(large)
        del large
        lasts = np.searchsorted(key, key[firsts], side="right")
        for r, classes in itertools.groupby(zip(firsts.tolist(), lasts.tolist()),
                                            lambda c: c[0] // q):
            classes = list(classes)
            if _class_autocorrelation(field, [order[i:k] for i, k in classes], counts[r]) is not None:
                for i, k in classes:
                    paired[i:k] = False
    starts = np.flatnonzero(paired)
    del paired
    counts[:, 0] = q
    flat = counts.reshape(-1)
    j = 1
    while starts.size:
        x, y = order[starts], order[starts + j]
        if field.p == 2:  # y - x = x - y
            bins = field.sub_vec(y, x)
        else:  # y - x and x - y in one call
            bins = field.sub_vec(np.concatenate((y, x)), np.concatenate((x, y)))
        if a.size > 1:  # to bin r * q + b
            bins = bins.reshape(-1, starts.size)
            bins += starts // q * q
        np.add.at(flat, bins, 2 if field.p == 2 else 1)
        j += 1
        starts = starts[starts + j < size]
        starts = starts[key[starts + j] == key[starts]]
    return counts


def ddt_entry(field: Field, fmap, a, b) -> int:
    """Exact count of x with F(x+a) - F(x) = b."""
    a = field.as_index(a)
    b = field.as_index(b)
    tab = image_table(field, fmap)
    xs = field.xs()
    diff = field.sub_vec(tab[field.add_vec(xs, a)], tab)
    return int(np.count_nonzero(diff == b))


def sozd_entry(field: Field, fmap, a, b) -> int:
    """Exact count of x with F(x+a+b) - F(x+a) - F(x+b) + F(x) = 0.

    For p = 2 this is the FBCT entry at (a, b).
    """
    a = field.as_index(a)
    b = field.as_index(b)
    tab = image_table(field, fmap)
    xs = field.xs()
    xa = field.add_vec(xs, a)
    xb = field.add_vec(xs, b)
    xab = field.add_vec(xa, b)
    total = field.add_vec(field.sub_vec(tab[xab], tab[xa]), field.sub_vec(tab, tab[xb]))
    return int(np.count_nonzero(total == 0))


def ddt_row_power(field: Field, d: int) -> np.ndarray:
    """DDT row at a = 1 for x^d; rows a != 0 follow by b -> b/a^d."""
    return _ddt_rows(field, field.power_map_table(d), np.array([1]))[0]


def sozd_row_power(field: Field, d: int) -> np.ndarray:
    """SOZD row at a = 1 for x^d; rows a != 0 follow by b -> b/a."""
    return _sozd_rows(field, field.power_map_table(d), np.array([1]))[0]


def ddt_table(field: Field, fmap, method: str = "auto") -> SpectrumTable:
    """Full DDT.  method: "auto" (fast path for power maps) or "bruteforce"
    (the oracle path, selectable for cross-validation)."""
    entries = _table(field, fmap, method, kind="ddt")
    return SpectrumTable("ddt", field, map_label(fmap), entries)


def sozd_table(field: Field, fmap, method: str = "auto") -> SpectrumTable:
    """Full second-order zero differential spectrum (FBCT for p = 2)."""
    entries = _table(field, fmap, method, kind="sozd")
    return SpectrumTable("sozd", field, map_label(fmap), entries)


def row_scale(kind: str, d: int) -> int:
    """The scale of x^d's row expansion (see iter_rows): d for the DDT, 1 for
    the SOZD table."""
    return d if kind == "ddt" else 1


def power_rows(field: Field, kind: str, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows a = 0 and a = 1 of the DDT or SOZD table of x^d.  Row 0 is the
    same for every map: DDT(0, b) = q at b = 0 only, SOZD(0, b) = q."""
    q = field.order
    row1 = ddt_row_power(field, d) if kind == "ddt" else sozd_row_power(field, d)
    row0 = np.full(q, 0 if kind == "ddt" else q, dtype=np.int64)  # after row 1: not held during it
    row0[0] = q
    return row0, row1


def iter_rows(field: Field, rows, scale: int):
    """Rows a = 0, 1, ..., q - 1, one at a time, of the table whose row 0 is
    rows[0] and whose row a != 0 reads rows[1] at u = b / a^scale (see
    row_scale).  Trailing axes of the rows are carried along.  Row 0 is
    rows[0] itself; every later row is a new array (see _rotations)."""
    row0, row1 = rows
    yield row0
    for _, row in _rotations(field, row1, scale):
        yield row


def _rotations(field: Field, row1, scale: int):
    """(shift, row a) for a = 1, ..., q - 1, the rows a != 0 of iter_rows.
    With b = g^k, row a in log order is row 1 in log order rotated by
    shift = log(a^scale), so each row is one gather, and its cell u = 1
    sits at b = exp[shift]."""
    exp, log = field.log_tables()
    m = field.order - 1
    doubled = row1[np.concatenate((exp, exp))]  # row 1 in log order, twice
    logs = log[1:].astype(np.intp)  # take would cast int32 on every row; scale * log passes 2^31
    for shift in (scale % m) * logs % m:  # not .tolist(): q Python ints held through the walk
        out = np.empty_like(row1)
        out[0] = row1[0]
        # indices are in range; "clip" lets take write into out unbuffered
        np.take(doubled[m - shift:], logs, axis=0, out=out[1:], mode="clip")
        yield shift, out


def expand_rows(field: Field, rows, scale: int) -> np.ndarray:
    """The whole table of iter_rows."""
    row1 = rows[1]
    return np.fromiter(iter_rows(field, rows, scale), count=field.order,
                       dtype=np.dtype((row1.dtype, row1.shape)))


def flagged_cells(field: Field, bad_rows, scale: int, cap: int) -> tuple[int, list]:
    """The number of flagged cells of the boolean table whose rows 0 and 1
    are bad_rows (see iter_rows), and the first `cap` of them in (a, b)
    order as (a, b, r, u): the cell reads bad_rows[r] at u.  Row a != 0
    holds a cell b = a^scale * u for each flagged u of row 1, so only the
    first rows that fill the listing are expanded."""
    bad0, bad1 = bad_rows
    q = field.order
    us = np.flatnonzero(bad1)
    cells = [(0, b, 0, b) for b in np.flatnonzero(bad0)[:cap].tolist()]
    listed_rows = min(q - 1, -(-(cap - len(cells)) // us.size)) if us.size else 0
    if listed_rows:  # one call for them all: row a - 1 of bs holds the cells b of row a
        a = np.arange(1, listed_rows + 1)
        bs = field.mul_vec(field.pow_vec(a, scale)[:, None], us)
        order = np.argsort(bs, axis=1)
        room = cap - len(cells)
        cells += zip(a.repeat(us.size)[:room].tolist(),
                     np.take_along_axis(bs, order, axis=1).ravel()[:room].tolist(),
                     itertools.repeat(1), us[order].ravel()[:room].tolist())
    return int(np.count_nonzero(bad0)) + (q - 1) * us.size, cells


def kernel_blocks(field: Field, fmap, kind: str):
    """(a, the block of rows a, a + 1, ...) for a = 0, B, 2B, ... (B =
    _block_rows(q)), each block from the row kernel, of the DDT or SOZD
    table of any map: the brute-force path."""
    tab = image_table(field, fmap)
    kernel = _ddt_rows if kind == "ddt" else _sozd_rows
    q, rows = field.order, _block_rows(field.order)
    return ((a, kernel(field, tab, np.arange(a, min(a + rows, q)))) for a in range(0, q, rows))


def table_blocks(entries: np.ndarray):
    """(a, the block of rows a, a + 1, ...) of a q x q table, in the blocks of
    kernel_blocks."""
    rows = _block_rows(len(entries))
    return ((a, entries[a:a + rows]) for a in range(0, len(entries), rows))


def uses_power_rows(fmap, method: str) -> bool:
    """Whether `method` takes the table from rows 0 and 1 ("auto" on a power
    map) rather than from kernel_blocks ("bruteforce", or "auto" on a table
    map)."""
    if method not in ("auto", "bruteforce"):
        raise SpectraError(f"unknown method {method!r}")
    return method == "auto" and isinstance(fmap, PowerMap)


def _table(field: Field, fmap, method: str, kind: str) -> np.ndarray:
    """The q x q table of counts, refused before allocating when its bytes
    pass the machine's physical RAM: the allocation would fail or the
    process be killed."""
    q = field.order
    nbytes = q * q * np.dtype(np.int64).itemsize
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > ram:
        raise UnsupportedSizeError(
            f"a {q} x {q} table needs {nbytes / 2**30:.1f} GiB, "
            f"more than the {ram / 2**30:.1f} GiB of physical memory"
        )
    if uses_power_rows(fmap, method):
        return expand_rows(field, power_rows(field, kind, fmap.d), row_scale(kind, fmap.d))
    entries = np.empty((q, q), dtype=np.int64)
    for a, block in kernel_blocks(field, fmap, kind):
        entries[a:a + len(block)] = block
    return entries


# -- uniformities and histograms ----------------------------------------------

def _domain(field: Field, kind: str) -> str:
    """The uniformity's domain in words (see _outside_domain)."""
    if kind == "ddt":
        return "a != 0"
    return "a, b nonzero and a != b" if field.p == 2 else "a, b nonzero"


def _outside_domain(kind: str, p: int, shape: tuple[int, int], a: int) -> np.ndarray:
    """The boolean block, of the given shape, of the cells (r, b) of rows a,
    a + 1, ... that lie outside the uniformity's domain: row 0; for the SOZD
    table column 0 too, and for p = 2 the cells b = a (the Feistel boomerang
    uniformity).  For the FBCT these are the cells with ab(a+b) = 0, which
    its identities fix at q (see _identities)."""
    outside = np.zeros(shape, dtype=bool)
    if a == 0:
        outside[0] = True
    if kind == "sozd":
        outside[:, 0] = True
        if p == 2:  # cell (r, a + r) sits at flat index a + r (q + 1)
            outside.ravel()[a::shape[1] + 1] = True
    return outside


class RunningSummary:
    """Uniformity and histogram of a DDT or SOZD table fed as blocks of rows,
    in memory of a block.  The maximum ranges over the cells inside the
    domain (_outside_domain); the histogram covers all p^2n pairs.  A row
    may stand for several rows a of the same values and the same maximum,
    as row 1 of a power map does for every row a != 0: it is added once
    with that multiplicity."""

    def __init__(self, field: Field, kind: str):
        self.field = field
        self.kind = kind
        self._counts = Counter()  # value -> pair count
        self._max = 0

    def add(self, rows: np.ndarray, a: int, multiplicity: int = 1) -> np.ndarray:
        """Count the block of rows a, a + 1, ..., `multiplicity` times each,
        and return it.  The maximum is one masked maximum of the block, 0
        where no cell lies in the domain.  The cells are counts in [0, q],
        so the histogram is one bincount (nonzero is faster on bools)."""
        counts = np.bincount(rows.ravel())
        values = np.flatnonzero(counts > 0)
        self._counts.update(dict(zip(values.tolist(), (multiplicity * counts[values]).tolist())))
        outside = _outside_domain(self.kind, self.field.p, rows.shape, a)
        self._max = max(self._max, int(rows.max(where=~outside, initial=0)))
        return rows

    def summary(self) -> SpectrumSummary:
        return SpectrumSummary(
            uniformity=self._max,
            histogram=tuple(sorted(self._counts.items())),
            domain=_domain(self.field, self.kind),
        )


def power_row_summary(field: Field, kind: str, row: np.ndarray) -> SpectrumSummary:
    """Uniformity of x^d from its a = 1 row, and the histogram of that row:
    every row a != 0 is the a = 1 row read at u = b/a^d (DDT) or u = b/a
    (SOZD), so b = 0 and b = a sit at u = 0 and u = 1."""
    running = RunningSummary(field, kind)
    running.add(row[None], 1)
    summary = running.summary()
    return replace(summary, domain=f"{summary.domain} (from the a = 1 row of a power map)")


def power_table_summary(field: Field, kind: str, rows) -> SpectrumSummary:
    """The summary of the whole table of x^d from its rows 0 and 1 alone:
    row 1 stands for each of the q - 1 rows a != 0."""
    running = RunningSummary(field, kind)
    running.add(rows[0][None], 0)
    running.add(rows[1][None], 1, field.order - 1)
    return running.summary()


def differential_uniformity(field: Field, fmap=None,
                            table: SpectrumTable | None = None) -> SpectrumSummary:
    """Max DDT entry over a != 0 (all b), plus the full-table histogram."""
    if table is None:
        table = ddt_table(field, fmap)
    elif table.kind != "ddt":
        raise SpectraError("differential uniformity needs a DDT table")
    return _table_summary(table)


def sozd_uniformity(table: SpectrumTable) -> SpectrumSummary:
    """Second-order zero differential uniformity (see RunningSummary)."""
    if table.kind != "sozd":
        raise SpectraError("sozd uniformity needs a SOZD table")
    return _table_summary(table)


def _table_summary(table: SpectrumTable) -> SpectrumSummary:
    """The summary of a whole table, fed to RunningSummary block by block."""
    running = RunningSummary(table.field, table.kind)
    for a, rows in table_blocks(table.entries):
        running.add(rows, a)
    return running.summary()


# -- structural FBCT properties -------------------------------------------------

@dataclass(frozen=True)
class PropertyViolation:
    property: str
    a: int
    b: int
    detail: str


@dataclass
class PropertyReport:
    ok: bool
    counts: dict[str, int]  # violations per property
    violations: list[PropertyViolation]  # capped listing


_VIOLATION_CAP = 50
_PROPERTIES = ("symmetry", "fixed-values", "multiplicity-mod-4", "translate-equality")


def _report(counts: dict[str, int], listing: dict[str, list]) -> PropertyReport:
    return PropertyReport(ok=not any(counts.values()), counts=counts,
                          violations=[v for prop in _PROPERTIES for v in listing[prop]])


def _identities(rows: np.ndarray, cols: np.ndarray, a: int):
    """The structural FBCT identities on the block of rows a, a + 1, ... of a
    q x q table, given the rows and their columns (as rows): symmetry; the
    trivial cells, ab(a+b) = 0, the FBCT's _outside_domain mask, equal
    q = 2^n; every other entry = 0 (mod 4); and entry (a, b) = entry
    (a, a+b).  Yields for each, in _PROPERTIES order, the name, the boolean
    block of the cells (r, b) of row a + r that break it, and the detail
    text of cell (r, b); one at a time, so the block's temporaries of one
    identity are gone before the next."""
    q = rows.shape[1]
    trivial = _outside_domain("sozd", 2, rows.shape, a)
    yield "symmetry", rows != cols, lambda r, b: f"{rows[r, b]} != {cols[r, b]}"
    yield "fixed-values", trivial & (rows != q), lambda r, b: f"{rows[r, b]} != {q}"
    yield "multiplicity-mod-4", ~trivial & (rows & 3 != 0), lambda r, b: f"{rows[r, b]} % 4 != 0"
    yield ("translate-equality", rows != _translates(rows, a),
           lambda r, b: f"{rows[r, b]} != {rows[r, b ^ (a + r)]}")


def _translates(rows: np.ndarray, a: int) -> np.ndarray:
    """Entry (a, a + b) at each cell (a, b) of the block of rows a, a + 1, ...,
    gathered one row at a time: an index the size of the block would double
    the check's memory."""
    out = np.empty_like(rows)
    xs = np.arange(rows.shape[1])
    for r, row in enumerate(rows):
        np.take(row, xs ^ (a + r), out=out[r])
    return out


def fbct_property_check(table: SpectrumTable) -> PropertyReport:
    """Check the structural FBCT identities (see _identities) on a p = 2
    SOZD table.  The walk reads one block of rows and its columns at a time
    (table_blocks), so it needs memory of a block beyond the table."""
    if not table.is_fbct:
        raise SpectraError("property check applies to SOZD tables over p = 2")
    e = table.entries
    counts = dict.fromkeys(_PROPERTIES, 0)
    listing = {prop: [] for prop in _PROPERTIES}
    for a, rows in table_blocks(e):
        for prop, bad, detail in _identities(rows, e[:, a:a + len(rows)].T, a):
            counts[prop] += int(np.count_nonzero(bad))
            rs, bs = np.divmod(np.flatnonzero(bad)[:_VIOLATION_CAP - len(listing[prop])], len(e))
            listing[prop] += [PropertyViolation(prop, a + r, b, detail(r, b))
                              for r, b in zip(rs.tolist(), bs.tolist())]
    return _report(counts, listing)


def fbct_row_property_check(field: Field, rows) -> PropertyReport:
    """fbct_property_check of the FBCT given by rows 0 and 1 (see iter_rows,
    scale 1), without building it.  Entry (a, b) is row1[u] for a != 0,
    u = b/a, so the identities of row 0 and of row 1 (see _identities) give
    each property's pair of boolean rows, counted and listed by
    flagged_cells.  Column 0 holds entry (b, 0) = row1[0] for b != 0; row
    1's column holds entry (b, a) = row1[1/u], and row1[0] at u = 0, whose
    cells (a, 0) are symmetry's row-0 cells (0, a) transposed, added here.
    1/u = u^(q-2) (u on F_2) is gathered from exp alone (power_map_table)."""
    if field.p != 2:
        raise SpectraError("property check applies to SOZD tables over p = 2")
    row0, row1 = rows
    col0 = np.full(field.order, row1[0])
    col0[0] = row0[0]
    col1 = row1[field.power_map_table(max(field.order - 2, 1))]
    counts, listing = {}, {}
    for (prop, bad0, detail0), (_, bad1, detail1) in zip(_identities(row0[None], col0[None], 0),
                                                         _identities(row1[None], col1[None], 1)):
        counts[prop], cells = flagged_cells(field, (bad0[0], bad1[0]), 1, _VIOLATION_CAP)
        found = [(a, b, (detail0, detail1)[r](0, u)) for a, b, r, u in cells]
        if prop == "symmetry":
            counts[prop] += int(np.count_nonzero(bad0))
            found = sorted(found + [(b, 0, f"{row1[0]} != {row0[b]}")
                                    for _, b, r, _ in cells if r == 0])[:_VIOLATION_CAP]
        listing[prop] = [PropertyViolation(prop, *cell) for cell in found]
    return _report(counts, listing)


# -- serialization ---------------------------------------------------------------

# A lookup of counts takes 2-byte tokens with marks (_count_text) when its
# counts of two digits or more take at most len(_MARKS) distinct values and
# fill at most _MARK_SHARE of its cells: a marked cell costs more than a
# padded one, and each mark a scan of the text.  Over 16384 cells marks won
# at shares up to 1/16 for 1 to 8 wide values (README "Limits").
_MARKS = [bytes([m]) for m in range(1, 9)]  # never a digit, comma, newline or NUL
_MARK_SHARE = 1 / 16


def _count_text(counts: np.ndarray) -> tuple[np.ndarray, tuple | None]:
    """The CSV token lookup of a row or block of counts, indexed by the
    count, and the marks that _text expands in the tokens' bytes.  Each
    count is formatted once, so the tokens are one gather from the lookup;
    the entries of counts absent from the row are all NULs.  When the row's
    counts of two digits or more are few (see _MARK_SHARE), every token is
    2 bytes: a count below 10 is its digit and a comma, and each wider count
    is a mark of its own (_MARKS) and a comma; the marks are then the
    (mark, digits) pairs of the wider counts, ascending.  Otherwise entry v
    is the text of v and a comma, NUL-padded to the narrowest power-of-2
    width that holds the largest count and its comma (4 bytes below 1000, 8
    below 10^7, 16 below 10^15), and the marks are None: the NULs are
    dropped."""
    if counts.min(initial=0) < 0:
        raise SpectraError("a CSV row of counts holds a negative value")
    top = int(counts.max(initial=0))
    seen = np.zeros(top + 1, dtype=bool)
    seen[counts] = True
    values = np.flatnonzero(seen).tolist()
    wide = values[np.count_nonzero(seen[:10]):]
    if len(wide) <= len(_MARKS) and (not wide or np.count_nonzero(counts >= 10)
                                     <= _MARK_SHARE * counts.size):
        lookup = np.zeros(top + 1, dtype="S2")
        narrow = [b"%d," % v for v in values[:len(values) - len(wide)]]
        lookup[values] = narrow + [m + b"," for m in _MARKS[:len(wide)]]
        return lookup, tuple((m, b"%d" % v) for m, v in zip(_MARKS, wide))
    width = 1 << len(str(top)).bit_length()  # the power of 2 past the digits: the comma fits
    lookup = np.zeros(top + 1, dtype=f"S{width}")
    lookup[values] = [b"%d," % v for v in values]
    return lookup, None


def _end_line(tokens: np.ndarray) -> None:
    """The comma of the last token becomes a newline (in the array)."""
    tokens[-1] = tokens[-1].replace(b",", b"\n")


def _text(data, marks: tuple | None) -> bytes:
    """The CSV bytes of data, the bytes of tokens from a lookup of
    _count_text with these marks, and of any texts of counts between them:
    each mark becomes its count's digits, one bytes.replace per mark, or,
    for padded tokens (marks None), the NULs are dropped."""
    data = bytes(data)
    if marks is None:
        return data.translate(None, b"\0")
    for mark, digits in marks:
        data = data.replace(mark, digits)
    return data


def write_table_csv(field: Field, kind: str, label: str, rows, fobj, *,
                    scale: int | None = None) -> None:
    """Write to the binary file fobj the header `kind,p,n,d_or_table`, then
    one line per row of counts: p^n rows of p^n counts for a whole table.
    Counts become tokens by a gather from a lookup of their own
    (_count_text), 2-byte tokens with marks for a few wide counts or padded
    ones, and the tokens' bytes become text by _text.  Given a scale, rows
    are the rows 0 and 1 of a power map's table (see iter_rows and
    row_scale).  Row 0 is turned into tokens once.  Row 1's cells u = 0 and
    u = 1 are formatted apart, since they hold its widest counts (an FBCT's
    q), and the rest of row 1 is turned into tokens once, its token form
    chosen from its own counts.  Line a != 0 holds the u = 0 cell at b = 0
    and the u = 1 cell at b = a^scale; the rest is one gather from row 1's
    tokens (_rotations), and the pieces are joined, made text once and go
    out in one write per line.  Otherwise the rows may stream, each item a
    row or a block of rows, as kernel_blocks yields them.  A block gets one
    lookup, its tokens one gather, in which the comma of each line's last
    token becomes a newline, and their bytes one _text and one write; a row
    of more than _PIECE counts is gathered and written in pieces of at most
    _PIECE.  The writer holds one block's lookup, O(largest count) bytes,
    and O(max(q, _PIECE)) bytes of tokens.  Its writes are calls to
    fobj.write; the file object's buffer sets how many bytes each write
    syscall carries (the CLI opens its CSV files with a 256 KiB buffer)."""
    fobj.write(f"{kind.upper()},{field.p},{field.n},{label}\n".encode())
    if scale is not None:
        row0, row1 = rows
        lookup, marks = _count_text(row0)
        tokens = lookup[row0]
        _end_line(tokens)
        fobj.write(_text(tokens, marks))
        zero, one = row1[:2].tolist()
        if min(zero, one) < 0:
            raise SpectraError("a CSV row of counts holds a negative value")
        zero, one, one_end = b"%d," % zero, b"%d," % one, b"%d\n" % one
        lookup, marks = _count_text(row1[2:])
        tokens = np.zeros(row1.size, dtype=lookup.dtype)  # cells u = 0, 1 stay NUL, never written
        tokens[2:] = lookup[row1[2:]]
        exp, _ = field.log_tables()
        last = field.order - 1
        for shift, line in _rotations(field, tokens, scale):
            at = exp[shift]  # b = a^scale, the cell u = 1 of line a
            if at != last:
                _end_line(line)
            fobj.write(_text(b"".join((zero, line[1:at], one_end if at == last else one,
                                       line[at + 1:])), marks))
        return
    for block in map(np.atleast_2d, rows):
        lookup, marks = _count_text(block)
        size = block.shape[1]
        for start in range(0, size, _PIECE):
            tokens = lookup[block[:, start:start + _PIECE]]
            if start + _PIECE >= size:  # each line's last token ends it
                for line in tokens:
                    _end_line(line)
            fobj.write(_text(tokens, marks))


def write_row_csv(field: Field, kind: str, label: str, row: np.ndarray, fobj) -> None:
    write_table_csv(field, kind, label, [row], fobj)
