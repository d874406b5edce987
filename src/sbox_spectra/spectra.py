"""Difference distribution tables and second-order zero differential spectra.

A spectrum table counts, for every pair (a, b) of field elements, the
solutions x of

  DDT:   F(x+a) - F(x) = b
  SOZD:  F(x+a+b) - F(x+a) - F(x+b) + F(x) = 0

over F_{p^n}.  For p = 2 the SOZD table is the FBCT.  Power maps x^d admit
a fast path: one exhaustive row at a = 1 determines every other nonzero row
by the scalings DDT(a, b) = DDT(1, b/a^d) and SOZD(a, b) = SOZD(1, b/a);
the brute-force path is kept selectable for cross-validation.  `power_rows`
gives rows 0 and 1, `expand_rows` the full table from them, and
`power_row_summary` / `rows_histogram` its summary without building it.

Both paths count rows through the derivative D_aF(x) = F(x+a) - F(x), with
the same code for every characteristic.  A DDT row is the histogram of D_aF,
and the SOZD row is a collision count:

  SOZD(a, b) = #{x : D_aF(x+b) = D_aF(x)},

the number of pairs (x, y = x+b) with equal derivative.  Sorting x by D_aF
finds those pairs in O(q log q + sum_c DDT(a, c)^2) time and O(q) memory per
row, q = p^n; summed over b the row gives sum_c DDT(a, c)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAPowerMapError, SpectraError, WrongLengthError
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
        tab = np.asarray(fmap.images, dtype=np.int64)
        if tab.size and (tab.min() < 0 or tab.max() >= field.order):
            raise SpectraError("table image outside the field")
        return tab
    raise SpectraError(f"not a map spec: {fmap!r}")


def map_label(fmap) -> str:
    return str(fmap.d) if isinstance(fmap, PowerMap) else "table"


@dataclass
class SpectrumTable:
    kind: str  # "ddt" | "sozd"
    field: Field
    map_label: str
    entries: np.ndarray  # (p^n, p^n) int64, indexed [a, b] in enumeration order

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
    return field.sub_vec(tab[field.add_vec(field.xs(), a)], tab)


def _ddt_row(field: Field, tab: np.ndarray, a: int) -> np.ndarray:
    return np.bincount(_derivative(field, tab, a), minlength=field.order)


def _sozd_row(field: Field, tab: np.ndarray, a: int) -> np.ndarray:
    """SOZD(a, b) = #{x : D_aF(x+b) = D_aF(x)}.  With x sorted by D_aF, the
    pairs x != y of equal derivative sit j = 1, 2, ... places apart, and each
    adds to the entries at b = y - x and b = x - y.  The first j with no such
    pair ends the scan: a longer run of equal values would have one."""
    q = field.order
    deriv = _derivative(field, tab, a)
    order = np.argsort(deriv)
    deriv = deriv[order]
    row = np.zeros(q, dtype=np.int64)
    row[0] = q
    starts = np.arange(q - 1)  # i with deriv[i] == deriv[i + j - 1]
    j = 1
    while True:
        starts = starts[deriv[starts + j] == deriv[starts]]
        if not starts.size:
            return row
        x, y = order[starts], order[starts + j]
        row += np.bincount(field.sub_vec(y, x), minlength=q)
        row += np.bincount(field.sub_vec(x, y), minlength=q)
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


def ddt_row_power(field: Field, d: int, normalize: bool = False) -> np.ndarray:
    """DDT row at a = 1 for x^d; rows a != 0 follow by b -> b/a^d.

    With normalize=True the counts are divided by p^n, giving the
    differential transition probabilities of the row."""
    row = _ddt_row(field, field.power_map_table(d), 1)
    if normalize:
        return row / field.order
    return row


def sozd_row_power(field: Field, d: int) -> np.ndarray:
    """SOZD row at a = 1 for x^d; rows a != 0 follow by b -> b/a."""
    return _sozd_row(field, field.power_map_table(d), 1)


def _require_power(fmap) -> int:
    if not isinstance(fmap, PowerMap):
        raise NotAPowerMapError("fast path needs a power map")
    return fmap.d


def ddt_table(field: Field, fmap, method: str = "auto") -> SpectrumTable:
    """Full DDT.  method: "auto" (fast path for power maps), "fast", or
    "bruteforce" (the oracle path, selectable for cross-validation)."""
    entries = _table(field, fmap, method, kind="ddt")
    return SpectrumTable("ddt", field, map_label(fmap), entries)


def sozd_table(field: Field, fmap, method: str = "auto") -> SpectrumTable:
    """Full second-order zero differential spectrum (FBCT for p = 2)."""
    entries = _table(field, fmap, method, kind="sozd")
    return SpectrumTable("sozd", field, map_label(fmap), entries)


def power_rows(field: Field, kind: str, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows a = 0 and a = 1 of the DDT or SOZD table of x^d.  Row 0 is the
    same for every map: DDT(0, b) = q at b = 0 only, SOZD(0, b) = q."""
    q = field.order
    if kind == "ddt":
        row0 = np.zeros(q, dtype=np.int64)
        row0[0] = q
        return row0, ddt_row_power(field, d)
    return np.full(q, q, dtype=np.int64), sozd_row_power(field, d)


def expand_rows(field: Field, rows, scale: int) -> np.ndarray:
    """The table whose row 0 is rows[0] and whose row a != 0 reads rows[1]
    at u = b / a^scale (scale d for the DDT of x^d, 1 for its SOZD table).
    Trailing axes of the rows are carried along."""
    row0, row1 = rows
    q = field.order
    xs = field.xs()
    out = np.empty((q,) + row1.shape, dtype=row1.dtype)
    out[0] = row0
    for a in range(1, q):
        out[a] = row1[field.div_vec(xs, np.int64(field.pow(a, scale)))]
    return out


def _table(field: Field, fmap, method: str, kind: str) -> np.ndarray:
    if method not in ("auto", "fast", "bruteforce"):
        raise SpectraError(f"unknown method {method!r}")
    if method == "fast" or (method == "auto" and isinstance(fmap, PowerMap)):
        d = _require_power(fmap)
        return expand_rows(field, power_rows(field, kind, d), d if kind == "ddt" else 1)
    tab = image_table(field, fmap)
    kernel = _ddt_row if kind == "ddt" else _sozd_row
    n = field.order
    out = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        out[a] = kernel(field, tab, a)
    return out


# -- uniformities and histograms ----------------------------------------------

def value_histogram(entries: np.ndarray) -> tuple[tuple[int, int], ...]:
    """(value, count) for every distinct value, ascending."""
    values, counts = np.unique(entries, return_counts=True)
    return tuple((int(v), int(c)) for v, c in zip(values, counts))


def rows_histogram(field: Field, rows) -> tuple[tuple[int, int], ...]:
    """value_histogram of a table given by rows 0 and 1 (see expand_rows):
    row 0 counts once, row 1 once for each of the q - 1 rows a != 0."""
    counts = dict(value_histogram(rows[0]))
    for v, c in value_histogram(rows[1]):
        counts[v] = counts.get(v, 0) + (field.order - 1) * c
    return tuple(sorted(counts.items()))


def _domain(field: Field, kind: str) -> str:
    if kind == "ddt":
        return "a != 0"
    return "a, b nonzero and a != b" if field.p == 2 else "a, b nonzero"


def power_row_summary(field: Field, kind: str, row: np.ndarray) -> SpectrumSummary:
    """Uniformity of x^d from its a = 1 row, and the histogram of that row.

    Every row a != 0 is the a = 1 row read at u = b/a^d (DDT) or u = b/a
    (SOZD), so b = 0 and b = a sit at u = 0 and u = 1: the SOZD maximum skips
    u = 0, and u = 1 too for p = 2, exactly as sozd_uniformity's domain."""
    skip = 0 if kind == "ddt" else 2 if field.p == 2 else 1
    return SpectrumSummary(
        uniformity=int(row[skip:].max()) if row.size > skip else 0,
        histogram=value_histogram(row),
        domain=f"{_domain(field, kind)} (from the a = 1 row of a power map)",
    )


def differential_uniformity(field: Field, fmap=None,
                            table: SpectrumTable | None = None) -> SpectrumSummary:
    """Max DDT entry over a != 0 (all b), plus the full-table histogram."""
    if table is None:
        table = ddt_table(field, fmap)
    elif table.kind != "ddt":
        raise SpectraError("differential uniformity needs a DDT table")
    e = table.entries
    return SpectrumSummary(
        uniformity=int(e[1:, :].max()) if e.shape[0] > 1 else 0,
        histogram=value_histogram(e),
        domain=_domain(field, "ddt"),
    )


def sozd_uniformity(table: SpectrumTable) -> SpectrumSummary:
    """Second-order zero differential uniformity.

    The max ranges over a, b nonzero with a != b for p = 2 (the Feistel
    boomerang uniformity) and over a, b nonzero for p > 2.  The histogram
    still covers all p^2n pairs.
    """
    if table.kind != "sozd":
        raise SpectraError("sozd uniformity needs a SOZD table")
    e = table.entries
    n = e.shape[0]
    mask = np.ones((n, n), dtype=bool)
    mask[0, :] = False
    mask[:, 0] = False
    if table.field.p == 2:
        np.fill_diagonal(mask, False)
    uniformity = int(e[mask].max()) if mask.any() else 0
    return SpectrumSummary(
        uniformity=uniformity,
        histogram=value_histogram(e),
        domain=_domain(table.field, "sozd"),
    )


def summary_to_dict(summary: SpectrumSummary) -> dict:
    return {
        "uniformity": summary.uniformity,
        "histogram": [[v, c] for v, c in summary.histogram],
        "domain": summary.domain,
    }


# -- structural FBCT properties -------------------------------------------------

@dataclass(frozen=True)
class PropertyViolation:
    prop: str
    a: int
    b: int
    detail: str


@dataclass
class PropertyReport:
    ok: bool
    counts: dict[str, int]  # violations per property
    violations: list[PropertyViolation]  # capped listing


_VIOLATION_CAP = 50


def fbct_property_check(table: SpectrumTable) -> PropertyReport:
    """Check the structural FBCT identities on a p = 2 SOZD table:
    symmetry, first line/column/diagonal = 2^n, every entry = 0 (mod 4),
    and entry (a, b) = entry (a, a+b)."""
    if not table.is_fbct:
        raise SpectraError("property check applies to SOZD tables over p = 2")
    e = table.entries
    n = e.shape[0]
    xs = np.arange(n)
    counts: dict[str, int] = {}
    violations: list[PropertyViolation] = []

    def record(prop, mask, detail_fn):
        idx = np.argwhere(mask)
        counts[prop] = len(idx)
        for a, b in idx[:_VIOLATION_CAP]:
            violations.append(PropertyViolation(prop, int(a), int(b), detail_fn(a, b)))

    record("symmetry", e != e.T, lambda a, b: f"{e[a, b]} != {e[b, a]}")
    fixed = np.zeros((n, n), dtype=bool)
    fixed[0, :] = e[0, :] != n
    fixed[:, 0] |= e[:, 0] != n
    fixed[xs, xs] |= e[xs, xs] != n
    record("fixed-values", fixed, lambda a, b: f"{e[a, b]} != {n}")
    record("multiplicity-mod-4", e % 4 != 0, lambda a, b: f"{e[a, b]} % 4 != 0")
    shift = e[xs[:, None], xs[:, None] ^ xs[None, :]]  # entry (a, a^b)
    record("translate-equality", e != shift, lambda a, b: f"{e[a, b]} != {e[a, a ^ b]}")

    total = sum(counts.values())
    return PropertyReport(ok=total == 0, counts=counts, violations=violations)


def property_report_to_dict(report: PropertyReport) -> dict:
    return {
        "ok": report.ok,
        "counts": report.counts,
        "violations": [
            {"property": v.prop, "a": v.a, "b": v.b, "detail": v.detail}
            for v in report.violations
        ],
    }


# -- serialization ---------------------------------------------------------------

class _FormatCache(dict):
    """str(v) per distinct value, made on first use: a table has few
    distinct counts, so each is formatted once instead of once per cell."""

    def __missing__(self, v: int) -> str:
        text = self[v] = str(v)
        return text


def _write_csv_line(fobj, values: np.ndarray, cache: _FormatCache) -> None:
    fobj.write(",".join(map(cache.__getitem__, values.tolist())))
    fobj.write("\n")


def write_table_csv(table: SpectrumTable, fobj) -> None:
    """Header `kind,p,n,d_or_table`, then p^n rows of p^n counts."""
    fobj.write(f"{table.kind.upper()},{table.field.p},{table.field.n},{table.map_label}\n")
    cache = _FormatCache()
    for row in table.entries:
        _write_csv_line(fobj, row, cache)


def write_row_csv(field: Field, kind: str, label: str, row: np.ndarray, fobj) -> None:
    fobj.write(f"{kind.upper()},{field.p},{field.n},{label}\n")
    _write_csv_line(fobj, row, _FormatCache())
