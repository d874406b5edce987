"""Constructive root solvers for the equation families behind the spectra.

Three solvers, each with an exhaustive-evaluation oracle in the test suite:

* quadratics a2 x^2 + a1 x + a0 over odd characteristic, solved through the
  discriminant and a Tonelli-Shanks square root in F_{p^n}*;
* trinomials x^(2^k) + a x + b over F_{2^n}, classified into no root, a
  unique root, or a coset of a 2^d-dimensional F_2-subspace (d = gcd(k, n));
  for fixed (k, a) the root, the solvability value and the representative
  are F_2-linear in b (Lidl & Niederreiter, Finite Fields, ch. 3), so each
  is stored as XOR lookup tables built from its images of the n basis
  elements, and the direction is the smallest nonzero kernel element;
* general affine polynomials L(x) + b with L linearized over F_{2^n},
  counted via the rank of the associated n x n 2-circulant matrix, found by
  forward elimination.

The trinomial tables live in a per-Field cache of at most _CACHE_ENTRIES
(k, a) pairs, which is freed with its Field.

All element arguments and results are canonical encodings (ints); pass
FieldElement values and they are coerced.
"""

from __future__ import annotations

import math
import weakref
from array import array
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    BadParametersError,
    EvenCharacteristicError,
    LeadingCoefficientZeroError,
    OddCharacteristicError,
    ZeroLinearCoefficientError,
)
from .fields import Field


@dataclass(frozen=True)
class RootResult:
    """Solution-set classification for one equation instance.

    kind is one of "none", "unique", "pair" (distinct quadratic roots),
    "subspace" (a coset of a subspace of size `count`).  `roots` holds the
    explicit sorted root encodings when the solver produced or was asked to
    enumerate them; for large subspaces it may be None.
    """

    kind: str
    count: int
    roots: tuple[int, ...] | None = None
    representative: int | None = None
    direction: int | None = None

    @property
    def root(self) -> int:
        if self.kind != "unique":
            raise ValueError(f"no single root for kind={self.kind!r}")
        return self.roots[0]


_NO_ROOTS = RootResult(kind="none", count=0, roots=())  # immutable, so shared


def sqrt_in_field(field: Field, s: int) -> int:
    """Square root of a nonzero square s in F_{p^n}, p odd.

    Uses the (p^n+1)/4 exponent shortcut when p^n = 3 (mod 4), otherwise
    generic Tonelli-Shanks in the multiplicative group with the first
    nonsquare (in enumeration order) as the auxiliary nonresidue.  Returns
    the smaller encoding of the two roots.
    """
    if field.p == 2:
        raise EvenCharacteristicError("square roots via eta need odd p")
    s = field.as_index(s)
    if s == 0:
        return 0
    if field.quadratic_character(s) != 1:
        raise BadParametersError("argument is not a square")
    order = field.order
    if order % 4 == 3:
        r = field.pow(s, (order + 1) // 4)
    else:
        q, e = order - 1, 0
        while q % 2 == 0:
            q //= 2
            e += 1
        z = next(i for i in range(1, order) if field.quadratic_character(i) == -1)
        c = field.pow(z, q)
        r = field.pow(s, (q + 1) // 2)
        t = field.pow(s, q)
        m = e
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = field.mul(t2, t2)
                i += 1
            b = field.pow(c, 1 << (m - i - 1))
            r = field.mul(r, b)
            c = field.mul(b, b)
            t = field.mul(t, c)
            m = i
    return min(r, field.neg(r))


def solve_quadratic(field: Field, a2, a1, a0) -> RootResult:
    """Roots of a2 x^2 + a1 x + a0 over F_{p^n}, p odd.

    The root count is 1 + eta(delta) with delta = a1^2 - 4 a0 a2; roots are
    always returned explicitly.
    """
    if field.p == 2:
        raise EvenCharacteristicError("quadratic solver requires odd p")
    a2 = field.as_index(a2)
    a1 = field.as_index(a1)
    a0 = field.as_index(a0)
    if a2 == 0:
        raise LeadingCoefficientZeroError("a2 must be nonzero")
    four = 4 % field.p
    delta = field.sub(field.mul(a1, a1), field.mul(four, field.mul(a0, a2)))
    eta = field.quadratic_character(delta)
    if eta == -1:
        return _NO_ROOTS
    inv2a2 = field.inv(field.mul(2 % field.p, a2))
    x = field.mul(field.neg(a1), inv2a2)  # -a1/(2 a2)
    if eta == 0:
        return RootResult(kind="unique", count=1, roots=(x,))
    s = field.mul(sqrt_in_field(field, delta), inv2a2)
    lo, hi = sorted((field.add(x, s), field.sub(x, s)))
    return RootResult(kind="pair", count=2, roots=(lo, hi))


_CACHE_ENTRIES = 2048  # (k, a) pairs kept per Field; every pair of F_{2^8} fits
_caches: weakref.WeakKeyDictionary[Field, dict] = weakref.WeakKeyDictionary()


class _Trinomial(NamedTuple):
    """The roots of x^(2^k) + a x + b as F_2-linear maps of b, for one (k, a).

    `tables` holds (shift, table) pairs, one per 8 bits of b: the map's value
    at b is the XOR of table[(b >> shift) & 0xFF].  In the unique case the
    value is the root; otherwise it packs (x0 << n) | beta, beta = 0 being
    the solvability condition and x0 the trace-construction representative.
    """

    unique: bool
    tables: tuple
    d: int
    tau: int | None


def _trinomial_entry(field: Field, k: int, a: int) -> _Trinomial:
    """The (k, a) entry of the Field's cache, built on first use.

    The cache lives as long as the Field and keeps at most _CACHE_ENTRIES
    entries, dropping the oldest.  At n = 24 an entry is three 256-entry
    int64 tables, about 7.1 KiB in all (tracemalloc), so a full cache holds
    about 14.5 MiB.
    """
    cache = _caches.get(field)
    if cache is None:
        cache = _caches.setdefault(field, {})
    entry = cache.get((k, a))
    if entry is None:
        entry = _build_trinomial(field, k, a)
        if len(cache) >= _CACHE_ENTRIES:
            cache.pop(next(iter(cache)), None)
        cache[(k, a)] = entry
    return entry


def _build_trinomial(field: Field, k: int, a: int) -> _Trinomial:
    """Evaluate the closed forms once on each basis element 2^j.

    With d = gcd(k, n), t = n/d and alpha = a^(sum_j 2^(k j)), j < t:
    beta(b) = sum_i a^(s_i) b^(2^(k i)) with s_i = sum_{j=i..t-2} 2^(k(j+1));
    the unique root is beta/(1 + alpha) when alpha != 1, and otherwise the
    representative is x0(b) = Tr(c)^(-1) sum_i gamma_i a^(s_i) b^(2^(k i)),
    gamma_i = sum_{j<=i} c^(2^(k j)), for the first c of nonzero trace onto
    F_{2^d}.  Frobenius is additive and everything else is a constant of
    (k, a), so all three maps are F_2-linear in b.
    """
    n = field.n
    d = math.gcd(k, n)
    t = n // d
    alpha = field.pow(a, sum(1 << (k * j) for j in range(t)))
    a_pows = [field.pow(a, sum(1 << (k * (j + 1)) for j in range(i, t - 1))) for i in range(t)]

    def frobenius_sum(coeffs, b):  # sum_i coeffs[i] b^(2^(k i)), i < t
        acc = 0
        for coef in coeffs:
            acc ^= field.mul(coef, b)
            b = field.frobenius(b, k)
        return acc

    basis = [1 << j for j in range(n)]
    if alpha != 1:
        images = [field.div(frobenius_sum(a_pows, e), 1 ^ alpha) for e in basis]
        return _Trinomial(True, _xor_tables(images), d, None)
    # the first c of nonzero trace is a power of two: if its top bit is 2^h,
    # Tr(c - 2^h) = 0 as c - 2^h < c, so Tr(2^h) = Tr(c) != 0
    c = next(e for e in basis if field.trace(e, d))
    inv_trace_c = field.inv(field.trace(c, d))
    x0_coeffs, gamma, y = [], 0, c
    for ap in a_pows:
        gamma ^= y
        x0_coeffs.append(field.mul(inv_trace_c, field.mul(gamma, ap)))
        y = field.frobenius(y, k)
    images = [(frobenius_sum(x0_coeffs, e) << n) | frobenius_sum(a_pows, e) for e in basis]
    kernel_images = [field.frobenius(e, k) ^ field.mul(a, e) for e in basis]
    return _Trinomial(False, _xor_tables(images), d, _smallest_kernel_element(kernel_images))


def _xor_tables(images: list[int]) -> tuple:
    """(shift, table) pairs for the F_2-linear map with these images of the
    basis bits: table[v] is the XOR of the images of v's bits, by doubling."""
    tables = []
    for lo in range(0, len(images), 8):
        table = array("q", [0])
        for img in images[lo:lo + 8]:
            table += array("q", [v ^ img for v in table])
        tables.append((lo, table))
    return tuple(tables)


def _smallest_kernel_element(images: list[int]) -> int:
    """Smallest nonzero x with L(x) = 0, where images[j] = L(2^j) for an
    F_2-linear L.  Elimination of the images by leading bit gives a kernel
    basis; in echelon form by leading bit, the vector with the lowest pivot
    is the smallest nonzero element of the span.  O(n^2) word operations."""
    pivots = {}  # leading bit -> (reduced image, combination of basis bits)
    kernel = {}  # leading bit -> kernel vector
    for j, img in enumerate(images):
        comb = 1 << j
        while img:
            top = img.bit_length() - 1
            if top not in pivots:
                pivots[top] = (img, comb)
                break
            pimg, pcomb = pivots[top]
            img ^= pimg
            comb ^= pcomb
        else:
            while comb:
                top = comb.bit_length() - 1
                if top not in kernel:
                    kernel[top] = comb
                    break
                comb ^= kernel[top]
    return kernel[min(kernel)]


def solve_linearized_trinomial(
    field: Field, k: int, a, b, enumerate_roots: bool = False
) -> RootResult:
    """Classify the roots of x^(2^k) + a x + b over F_{2^n} (a != 0).

    Root count is 0, 1 or 2^d with d = gcd(k, n).  In the subspace case the
    result carries a representative root and a direction tau with
    tau^(2^k - 1) = a, the smallest nonzero root of x^(2^k) + a x; the full
    root set is representative + delta * tau for delta ranging over F_{2^d}.
    Each call reads the per-(k, a) linear maps of b (see _build_trinomial):
    ceil(n/8) table lookups and no field multiplication.
    """
    if field.p != 2:
        raise OddCharacteristicError("trinomial solver requires p = 2")
    a = field.as_index(a)
    b = field.as_index(b)
    if a == 0:
        raise ZeroLinearCoefficientError("linear coefficient a must be nonzero")
    if not 0 <= k < field.n:
        raise BadParametersError(f"k={k} outside [0, n)")
    unique, tables, d, tau = _trinomial_entry(field, k, a)
    v = 0
    for shift, table in tables:
        v ^= table[(b >> shift) & 0xFF]
    if unique:
        return RootResult(kind="unique", count=1, roots=(v,))
    n = field.n
    if v & ((1 << n) - 1):
        return _NO_ROOTS
    x0 = v >> n
    roots = None
    if enumerate_roots:
        roots = tuple(
            sorted(x0 ^ field.mul(delta, tau) for delta in field.subfield_indices(d))
        )
    return RootResult(
        kind="subspace", count=1 << d, roots=roots, representative=x0, direction=tau
    )


def build_AL(field: Field, coeffs) -> list[list[int]]:
    """The n x n matrix of L(x) = sum a_i x^(2^i): row i is the cyclic right
    shift of (a_0, ..., a_{n-1}) by i with every entry raised to 2^i."""
    if field.p != 2:
        raise OddCharacteristicError("affine machinery requires p = 2")
    cs = [field.as_index(c) for c in coeffs]
    if len(cs) != field.n:
        raise BadParametersError(f"need exactly {field.n} coefficients, got {len(cs)}")
    n = field.n
    return [
        [field.pow(cs[(j - i) % n], 1 << i) for j in range(n)]
        for i in range(n)
    ]


def affine_root_count(field: Field, coeffs, b) -> int:
    """Number of roots of L(x) + b: 2^(n - r) when rank(A_L) = rank(A_L | b)
    = r, else 0.  Forward elimination over F_{2^n}, first-nonzero pivots:
    the rows left below the r pivots are zero in A_L and must be zero in b."""
    b = field.as_index(b)
    A = build_AL(field, coeffs)
    n = field.n
    rows = [A[i] + [field.frobenius(b, i)] for i in range(n)]
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        for r in range(rank + 1, n):
            if rows[r][col] != 0:
                factor = field.div(rows[r][col], pivot_row[col])
                rows[r] = [rv ^ field.mul(factor, pv) for rv, pv in zip(rows[r], pivot_row)]
        rank += 1
    if any(rows[r][n] for r in range(rank, n)):
        return 0
    return 1 << (n - rank)
