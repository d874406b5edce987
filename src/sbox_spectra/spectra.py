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
scale) all come from the two rows in O(q) memory.  That check and the
q x q one of a table map (`fbct_property_check`) apply one rule set,
`_identities`, to a row and its column.  `flagged_cells` is the one
lister of the cells where a check fails, for the row check and for
closed_forms' verification: given
the check's boolean rows 0 and 1, it counts them (row 0's plus q - 1 times
row 1's) and lists the first few in (a, b) order.  The CSV writer turns
a row of counts into text by a byte gather from that row's own lookup of
formatted counts (`_count_text`); the NULs that pad a token are dropped
on output, except from 2-byte tokens, which have none.  A power map's row
0 is formatted once, and so is row 1 without its cells u = 0 and u = 1,
which are written apart since they hold its widest counts (an FBCT's q).
Every other line is then one gather from row 1's text (`_rotations`, the
rows of iter_rows with their shifts) and the two cells put in place, so a
line costs one gather of tokens at row 1's own width, at most one NUL
strip and one write; streamed rows are gathered a piece of at most _PIECE
counts at a time.  The brute-force path, `kernel_rows`, runs the row
kernel at every a for any map; it is kept selectable for
cross-validation, `RunningSummary` summarizes its rows as they stream,
and a power map's property check reads its own rows 0 and 1.  The reports, SpectrumSummary and
PropertyReport, are written by the CLI as their fields in declared order:
a field's name and place are its JSON key's.

Both paths count rows through the derivative D_aF(x) = F(x+a) - F(x), with
the same code for every characteristic.  A DDT row is the histogram of D_aF,
and the SOZD row is a collision count:

  SOZD(a, b) = #{x : D_aF(x+b) = D_aF(x)},

the number of pairs (x, y = x+b) with equal derivative; summed over b the
row gives sum_c DDT(a, c)^2.  Sorting x by D_aF groups the classes of equal
derivative.  A class of s <= T = max(8, sqrt(q n)) elements, q = p^n, is
scanned pair by pair, s^2 pairs; a larger one is autocorrelated by a
transform over the additive group F_p^n in O(q n), and there are at most
q / T of them.  So
a row takes O(q log q + q sqrt(q n)) time at worst, against the scan's
O(q^2) for a map whose derivative takes few values, and O(q) memory.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .errors import NotAPowerMapError, SpectraError, UnsupportedSizeError, WrongLengthError
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


def _derivative(field: Field, tab: np.ndarray, a: int) -> np.ndarray:
    """D_aF(x) = F(x+a) - F(x), per x."""
    shifted = tab[field.add_vec(field.xs(), a)]
    if field.p == 2:  # subtraction is XOR: in place, one q-length array fewer
        shifted ^= tab
        return shifted
    return field.sub_vec(shifted, tab)


def _ddt_row(field: Field, tab: np.ndarray, a: int) -> np.ndarray:
    # bincount reads intp: cast here, the int32 derivative is freed before the counts exist
    return np.bincount(_derivative(field, tab, a).astype(np.intp), minlength=field.order)


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


def _class_autocorrelation(field: Field, classes: list) -> np.ndarray | None:
    """sum over the classes c (arrays of elements) of #{x in c : x + b in c},
    at every b, by Wiener-Khinchin over the additive group F_p^n: the
    autocorrelation of 1_c is the inverse transform of |transform of 1_c|^2
    (Carlet, Boolean Functions for Cryptography and Coding Theory, CUP 2021).
    For p = 2 the transform is the WHT, its own inverse up to 1/q, in int64:
    by Parseval every entry of sum_c W_c^2, and of its transform, is at most
    q * sum_c |c| <= q^2.  For odd p it is the FFT over shape (p,) * n (an
    encoding's base-p digits), in floating point; the rounded sum is returned
    only if every residue is below 1/4 and the entries sum to sum_c |c|^2,
    else None."""
    q, n = field.order, field.n
    if field.p == 2:
        acc = np.zeros(q, dtype=np.int64)
        ind = np.empty(q, dtype=np.int64)
        for members in classes:
            ind.fill(0)
            ind[members] = 1
            _wht(ind, n)
            ind *= ind
            acc += ind
        del ind
        _wht(acc, n)
        acc >>= n
        return acc
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
    return rounded.astype(np.int64)


def _sozd_row(field: Field, tab: np.ndarray, a: int) -> np.ndarray:
    """SOZD(a, b) = #{x : D_aF(x+b) = D_aF(x)}, summed over the classes of
    elements with equal derivative.  x is sorted by D_aF once.  A class of
    more than T elements (_transform_threshold) shows as deriv[i] ==
    deriv[i + T] in that order, one compare over the row; such classes are
    autocorrelated by a transform (_class_autocorrelation), and the scan
    below covers the others.  In the scan, the pairs x != y of equal
    derivative sit j = 1, 2, ... places apart, and each adds to the entries
    at b = y - x and b = x - y.  The first j with no such pair ends the scan:
    a longer run of equal values would have one.  The differences are binned
    once at least q of them are pending, so there are at most
    sum_c DDT(a, c)^2 / q + 1 bincounts of length q, the sum over the
    scanned classes."""
    q = field.order
    deriv = _derivative(field, tab, a)
    order = np.argsort(deriv).astype(np.int32)  # its entries x, y go to sub_vec
    deriv = deriv[order]
    row = None
    cut = min(_transform_threshold(q, field.n), q)
    large = deriv[cut:] == deriv[:q - cut]  # i opens a run of more than cut values
    if large.any():
        large[1:] &= deriv[1:q - cut] != deriv[:q - cut - 1]  # keep each class's first i
        firsts = np.flatnonzero(large)
        del large
        lasts = np.searchsorted(deriv, deriv[firsts], side="right")
        row = _class_autocorrelation(field, [order[i:k] for i, k in zip(firsts, lasts)])
    if row is None:
        row = np.zeros(q, dtype=np.int64)
        starts = np.arange(q - 1)  # i with deriv[i] == deriv[i + j - 1]
    else:
        scanned = np.ones(q - 1, dtype=bool)
        for i, k in zip(firsts.tolist(), lasts.tolist()):
            scanned[i:k] = False
        starts = np.flatnonzero(scanned)
    row[0] = q
    pending, size = [], 0
    j = 1
    while True:
        starts = starts[deriv[starts + j] == deriv[starts]]
        if starts.size:
            x, y = order[starts], order[starts + j]
            if field.p == 2:  # y - x = x - y
                diff = field.sub_vec(y, x)
                pending += (diff, diff)
            else:  # y - x and x - y in one call
                pending.append(field.sub_vec(np.concatenate((y, x)), np.concatenate((x, y))))
            size += 2 * starts.size
        if pending and (size >= q or not starts.size):
            row += np.bincount(np.concatenate(pending, dtype=np.intp), minlength=q)
            pending, size = [], 0
        if not starts.size:
            return row
        j += 1
        starts = starts[starts + j < q]


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
    return _ddt_row(field, field.power_map_table(d), 1)


def sozd_row_power(field: Field, d: int) -> np.ndarray:
    """SOZD row at a = 1 for x^d; rows a != 0 follow by b -> b/a."""
    return _sozd_row(field, field.power_map_table(d), 1)


def ddt_table(field: Field, fmap, method: str = "auto") -> SpectrumTable:
    """Full DDT.  method: "auto" (fast path for power maps), "fast", or
    "bruteforce" (the oracle path, selectable for cross-validation)."""
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


def kernel_rows(field: Field, fmap, kind: str):
    """Rows a = 0, 1, ..., q - 1, one at a time, of the DDT or SOZD table of
    any map, each from the row kernel: the brute-force path."""
    tab = image_table(field, fmap)
    kernel = _ddt_row if kind == "ddt" else _sozd_row
    return (kernel(field, tab, a) for a in range(field.order))


def uses_power_rows(fmap, method: str) -> bool:
    """Whether `method` takes the table from rows 0 and 1 ("fast", or "auto"
    on a power map) rather than from kernel_rows ("bruteforce", or "auto" on
    a table map)."""
    if method not in ("auto", "fast", "bruteforce"):
        raise SpectraError(f"unknown method {method!r}")
    if method == "fast" or (method == "auto" and isinstance(fmap, PowerMap)):
        if not isinstance(fmap, PowerMap):
            raise NotAPowerMapError("fast path needs a power map")
        return True
    return False


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
    return np.fromiter(kernel_rows(field, fmap, kind), dtype=np.dtype((np.int64, (q,))), count=q)


# -- uniformities and histograms ----------------------------------------------

def _domain(field: Field, kind: str) -> str:
    if kind == "ddt":
        return "a != 0"
    return "a, b nonzero and a != b" if field.p == 2 else "a, b nonzero"


class RunningSummary:
    """Uniformity and histogram of a DDT or SOZD table fed as rows, in O(q)
    memory.  The maximum ranges over a != 0: all b for the DDT; for the SOZD
    table b != 0, and b != a too for p = 2 (the Feistel boomerang
    uniformity).  The histogram covers all p^2n pairs.  A row may stand for
    several rows a of the same values and the same maximum, as row 1 of a
    power map does for every row a != 0: it is added once with that
    multiplicity."""

    def __init__(self, field: Field, kind: str):
        self.field = field
        self.kind = kind
        self._counts = Counter()  # value -> pair count
        self._max = 0

    def add(self, row: np.ndarray, a: int, multiplicity: int = 1) -> np.ndarray:
        """Count row a, `multiplicity` times, and return it."""
        values, counts = np.unique(row, return_counts=True)
        self._counts.update(dict(zip(values.tolist(), (multiplicity * counts).tolist())))
        if a and self.kind == "ddt":
            self._max = max(self._max, int(row.max()))
        elif a:
            cut = a if self.field.p == 2 else row.size
            self._max = max(self._max, int(row[1:cut].max(initial=0)),
                            int(row[cut + 1:].max(initial=0)))
        return row

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
    running.add(row, 1)
    summary = running.summary()
    return replace(summary, domain=f"{summary.domain} (from the a = 1 row of a power map)")


def power_table_summary(field: Field, kind: str, rows) -> SpectrumSummary:
    """The summary of the whole table of x^d from its rows 0 and 1 alone:
    row 1 stands for each of the q - 1 rows a != 0."""
    running = RunningSummary(field, kind)
    running.add(rows[0], 0)
    running.add(rows[1], 1, field.order - 1)
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
    """The summary of a whole table, fed to RunningSummary row by row."""
    running = RunningSummary(table.field, table.kind)
    for a, row in enumerate(table.entries):
        running.add(row, a)
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


def _identities(row: np.ndarray, col: np.ndarray, a: int) -> list:
    """The structural FBCT identities on row a of a q x q table, given the
    row and its column: symmetry; the trivial cells, ab(a+b) = 0 (all of
    row 0, b = 0 and b = a elsewhere), equal q = 2^n; every other entry = 0
    (mod 4); and entry (a, b) = entry (a, a+b).  For each, in _PROPERTIES
    order: the name, the boolean row of the cells b that break it, and the
    detail text of cell b."""
    q = row.size
    trivial = np.full(q, a == 0)
    trivial[0] = trivial[a] = True
    shifted = np.arange(q)
    shifted ^= a
    shifted = row[shifted]  # entry (a, a + b)
    return [
        ("symmetry", row != col, lambda b: f"{row[b]} != {col[b]}"),
        ("fixed-values", trivial & (row != q), lambda b: f"{row[b]} != {q}"),
        ("multiplicity-mod-4", ~trivial & (row & 3 != 0), lambda b: f"{row[b]} % 4 != 0"),
        ("translate-equality", row != shifted, lambda b: f"{row[b]} != {shifted[b]}"),
    ]


def fbct_property_check(table: SpectrumTable) -> PropertyReport:
    """Check the structural FBCT identities (see _identities) on a p = 2
    SOZD table.  The walk reads one row and its column at a time, so it
    needs O(q) memory beyond the table."""
    if not table.is_fbct:
        raise SpectraError("property check applies to SOZD tables over p = 2")
    e = table.entries
    counts = dict.fromkeys(_PROPERTIES, 0)
    listing = {prop: [] for prop in _PROPERTIES}
    for a, (row, col) in enumerate(zip(e, e.T)):
        for prop, bad, detail in _identities(row, col, a):
            bs = np.flatnonzero(bad)
            counts[prop] += bs.size
            listing[prop] += [PropertyViolation(prop, a, b, detail(b))
                              for b in bs[:_VIOLATION_CAP - len(listing[prop])].tolist()]
    return _report(counts, listing)


def fbct_row_property_check(field: Field, rows) -> PropertyReport:
    """fbct_property_check of the FBCT given by rows 0 and 1 (see iter_rows,
    scale 1), without building it.  Entry (a, b) is row1[u] for a != 0,
    u = b/a, so the identities of row 0 and of row 1 (see _identities) give
    each property's pair of boolean rows, counted and listed by
    flagged_cells.  Column 0 holds entry (b, 0) = row1[0] for b != 0; row
    1's column holds entry (b, a) = row1[1/u], and row1[0] at u = 0, whose
    cells (a, 0) are symmetry's row-0 cells (0, a) transposed, added here."""
    if field.p != 2:
        raise SpectraError("property check applies to SOZD tables over p = 2")
    row0, row1 = rows
    col0 = np.full(field.order, row1[0])
    col0[0] = row0[0]
    col1 = row1.copy()
    col1[1:] = row1[field.div_vec(1, field.xs()[1:])]
    counts, listing = {}, {}
    for (prop, bad0, detail0), (_, bad1, detail1) in zip(_identities(row0, col0, 0),
                                                         _identities(row1, col1, 1)):
        counts[prop], cells = flagged_cells(field, (bad0, bad1), 1, _VIOLATION_CAP)
        found = [(a, b, (detail0, detail1)[r](u)) for a, b, r, u in cells]
        if prop == "symmetry":
            counts[prop] += int(np.count_nonzero(bad0))
            found = sorted(found + [(b, 0, f"{row1[0]} != {row0[b]}")
                                    for _, b, r, _ in cells if r == 0])[:_VIOLATION_CAP]
        listing[prop] = [PropertyViolation(prop, *cell) for cell in found]
    return _report(counts, listing)


# -- serialization ---------------------------------------------------------------

# Counts per write of a streamed row: 128 KiB of tokens at width 8.  Much
# larger pieces each come from a fresh mmap that every write page-faults in,
# and a whole-row gather adds the line's bytes to peak memory.
_PIECE = 1 << 14


def _count_text(counts: np.ndarray) -> np.ndarray:
    """The CSV token lookup of a row of counts, indexed by the count.  Entry v
    is the decimal text of v and a comma, NUL-padded to the narrowest
    power-of-2 width that holds the row's largest count and its comma (2
    bytes below 10, 4 below 1000, 8 below 10^7, 16 below 10^15), for each v
    in the row; every other entry is all NULs.  Each count in the row is
    formatted once, so a row's tokens are one gather from the lookup.  An
    empty row gets the 2-byte lookup of count 0."""
    if counts.min(initial=0) < 0:
        raise SpectraError("a CSV row of counts holds a negative value")
    top = int(counts.max(initial=0))
    seen = np.zeros(top + 1, dtype=bool)
    seen[counts] = True
    values = np.flatnonzero(seen).tolist()
    width = 1 << len(str(top)).bit_length()  # the power of 2 past the digits: the comma fits
    lookup = np.zeros(top + 1, dtype=f"S{width}")
    lookup[values] = [b"%d," % v for v in values]
    return lookup


def _text(tokens: np.ndarray, line_end: bool = True) -> bytes:
    """The tokens' bytes, NULs dropped; at a line's end the last token's
    comma becomes a newline (in the array).  A 2-byte token is one digit
    and its delimiter, with no NUL to drop, so its bytes are not stripped."""
    if line_end:
        tokens[-1] = tokens[-1].replace(b",", b"\n")
    data = tokens.tobytes()
    return data if tokens.itemsize == 2 else data.translate(None, b"\0")


def write_table_csv(field: Field, kind: str, label: str, rows, fobj, *,
                    scale: int | None = None) -> None:
    """Write to the binary file fobj the header `kind,p,n,d_or_table`, then
    one line per row of counts: p^n rows of p^n counts for a whole table.
    Each row's counts become tokens by a gather from that row's own lookup
    (_count_text).  Given a scale, rows are the rows 0 and 1 of a power
    map's table (see iter_rows and row_scale).  Row 0 is turned into tokens
    once.  Row 1's cells u = 0 and u = 1 are formatted apart, since they
    hold its widest counts (an FBCT's q), and the rest of row 1 is turned
    into tokens once, at the width of its own largest count.  Line a != 0
    holds the u = 0 cell at b = 0 and the u = 1 cell at b = a^scale; the
    rest is one gather from row 1's tokens (_rotations), and the pieces go
    out in one write per line.  Otherwise the rows may stream, as those of
    kernel_rows do, and each line is gathered and written in pieces of at
    most _PIECE counts.  The writer holds one row's lookup, O(largest
    count) bytes, and O(q) bytes of tokens."""
    fobj.write(f"{kind.upper()},{field.p},{field.n},{label}\n".encode())
    if scale is not None:
        row0, row1 = rows
        fobj.write(_text(_count_text(row0)[row0]))
        zero, one = row1[:2].tolist()
        if min(zero, one) < 0:
            raise SpectraError("a CSV row of counts holds a negative value")
        zero, one, one_end = b"%d," % zero, b"%d," % one, b"%d\n" % one
        lookup = _count_text(row1[2:])
        tokens = np.zeros(row1.size, dtype=lookup.dtype)  # cells u = 0, 1 stay NUL, never written
        tokens[2:] = lookup[row1[2:]]
        exp, _ = field.log_tables()
        last = field.order - 1
        for shift, line in _rotations(field, tokens, scale):
            at = exp[shift]  # b = a^scale, the cell u = 1 of line a
            end = at == last
            fobj.write(b"".join((zero, _text(line[1:at], False), one_end if end else one,
                                 _text(line[at + 1:], not end))))
        return
    for row in rows:
        lookup = _count_text(row)
        for start in range(0, row.size, _PIECE):
            fobj.write(_text(lookup[row[start:start + _PIECE]], start + _PIECE >= row.size))


def write_row_csv(field: Field, kind: str, label: str, row: np.ndarray, fobj) -> None:
    write_table_csv(field, kind, label, [row], fobj)
