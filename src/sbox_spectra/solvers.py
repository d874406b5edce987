"""Constructive root solvers for the equation families behind the spectra.

Three solvers, each with an exhaustive-evaluation oracle in the test suite:

* quadratics a2 x^2 + a1 x + a0 over odd characteristic, solved through the
  discriminant delta and its square root Field.sqrt (None for a nonsquare);
* trinomials x^(2^k) + a x + b over F_{2^n}, classified into no root, a
  unique root, or a coset of a 2^d-dimensional F_2-subspace (d = gcd(k, n));
  for fixed (k, a) the root, the solvability value and the representative
  are F_2-linear in b (Lidl & Niederreiter, Finite Fields, ch. 3), so each
  is stored as XOR lookup tables built from its images of the n basis
  elements, and the direction is the smallest nonzero kernel element;
* general affine polynomials L(x) + b with L linearized over F_{2^n},
  counted via the F_2-rank of L, which equals the rank of the associated
  n x n 2-circulant matrix A_L (Wu & Liu, Finite Fields Appl. 22, 2013):
  the images L(2^j) of the basis are eliminated as n-bit words.

The trinomial tables live in a per-Field cache of at most _CACHE_ENTRIES
entries, freed with its Field; the affine counter reads frobenius_images.

The solvers use only Field's scalar ops (add, sub, neg, mul, div, inv,
pow, frobenius, trace, sqrt); whether those read exp/log tables or run on
polynomial arithmetic is decided in fields alone, so each solver has one
code path for every order.

All element arguments and results are canonical encodings (ints); other
int-like arguments (np.int64, bool, numeric str) go through Field.as_index.
"""

from __future__ import annotations

import math
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
from .fields import Field, _xor_tables


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


_new = object.__new__
_set = object.__setattr__  # frozen: RootResult's own __setattr__ raises


def _result(kind, count, roots, representative=None, direction=None) -> RootResult:
    """A RootResult equal to the dataclass-built one, without the frozen
    __init__'s call overhead.  The fields are set one by one, as __init__
    does: filling __dict__ in one update is faster, but gives every result
    a dict of its own, about 60-120 bytes more per result."""
    r = _new(RootResult)
    _set(r, "kind", kind)
    _set(r, "count", count)
    _set(r, "roots", roots)
    _set(r, "representative", representative)
    _set(r, "direction", direction)
    return r


_NO_ROOTS = _result("none", 0, ())  # immutable, so shared


def sqrt_in_field(field: Field, s: int) -> int:
    """Square root of a square s in F_{p^n}, p odd (see Field.sqrt).
    Returns the smaller encoding of the two roots."""
    if field.p == 2:
        raise EvenCharacteristicError("square roots via eta need odd p")
    s = s if type(s) is int and 0 <= s < field.order else field.as_index(s)
    r = field.sqrt(s)
    if r is None:
        raise BadParametersError("argument is not a square")
    return min(r, field.neg(r))


def solve_quadratic(field: Field, a2, a1, a0) -> RootResult:
    """Roots of a2 x^2 + a1 x + a0 over F_{p^n}, p odd.

    The root count is 1 + eta(delta) with delta = a1^2 - 4 a0 a2; roots are
    always returned explicitly, as (-a1 +- sqrt(delta)) / (2 a2).  Which
    square root Field.sqrt returns does not matter: the pair is returned
    sorted.
    """
    p = field.p
    if p == 2:
        raise EvenCharacteristicError("quadratic solver requires odd p")
    q = field.order
    a2 = a2 if type(a2) is int and 0 <= a2 < q else field.as_index(a2)
    a1 = a1 if type(a1) is int and 0 <= a1 < q else field.as_index(a1)
    a0 = a0 if type(a0) is int and 0 <= a0 < q else field.as_index(a0)
    if a2 == 0:
        raise LeadingCoefficientZeroError("a2 must be nonzero")
    delta = field.add(field.mul(a1, a1), field.mul(-4 % p, field.mul(a0, a2)))
    r = field.sqrt(delta)
    if r is None:
        return _NO_ROOTS
    inv2a2 = field.inv(field.mul(2 % p, a2))  # invert once: two divisions invert twice
    x = field.mul(field.neg(a1), inv2a2)
    if r == 0:
        return _result("unique", 1, (x,))
    s = field.mul(r, inv2a2)
    lo, hi = sorted((field.add(x, s), field.sub(x, s)))
    return _result("pair", 2, (lo, hi))


_CACHE_ENTRIES = 2048  # entries kept per Field; every (k, a) pair of F_{2^8} fits
# keys: (k, a) for the trinomial maps


def _cache_entry(field: Field, key, build, *args):
    """The `key` entry of the Field's cache, built by build(field, *args) on
    first use.  The cache is the Field's own `_solver_cache` dict, so it
    lives as long as the Field; it keeps at most _CACHE_ENTRIES entries,
    dropping the oldest.  At n = 24 a trinomial entry is three 256-entry
    int64 tables, about 7.1 KiB in all (tracemalloc), so a full cache holds
    about 14.5 MiB."""
    cache = field._solver_cache
    entry = cache.get(key)
    if entry is None:
        entry = build(field, *args)
        if len(cache) >= _CACHE_ENTRIES:
            cache.pop(next(iter(cache)), None)
        cache[key] = entry
    return entry


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
        tau = None
    else:
        # the first c of nonzero trace is a power of two: if its top bit is
        # 2^h, Tr(c - 2^h) = 0 as c - 2^h < c, so Tr(2^h) = Tr(c) != 0
        c = next(e for e in basis if field.trace(e, d))
        inv_trace_c = field.inv(field.trace(c, d))
        x0_coeffs, gamma, y = [], 0, c
        for ap in a_pows:
            gamma ^= y
            x0_coeffs.append(field.mul(inv_trace_c, field.mul(gamma, ap)))
            y = field.frobenius(y, k)
        images = [(frobenius_sum(x0_coeffs, e) << n) | frobenius_sum(a_pows, e) for e in basis]
        tau = _smallest_kernel_element([field.frobenius(e, k) ^ field.mul(a, e) for e in basis])
    # array("q") copies: compact, and fast to index with Python ints
    tables = tuple((lo, array("q", t.tobytes())) for lo, t in _xor_tables(images))
    return _Trinomial(alpha != 1, tables, d, tau)


def _reduce(pivots: dict, v: int) -> int:
    """v reduced by pivots (leading bit -> word) until its leading bit is
    not a pivot's; 0 when v lies in their span."""
    while v:
        pivot = pivots.get(v.bit_length() - 1)
        if pivot is None:
            break
        v ^= pivot
    return v


def _echelon(words) -> dict:
    """Pivot-by-leading-bit echelon form of the span of the words over F_2:
    leading bit -> word; its size is the rank."""
    pivots = {}
    for v in words:
        v = _reduce(pivots, v)
        if v:
            pivots[v.bit_length() - 1] = v
    return pivots


def _smallest_kernel_element(images: list[int]) -> int:
    """Smallest nonzero x with L(x) = 0, where images[j] = L(2^j) for an
    F_2-linear L.  The words (L(2^j) << n) | 2^j are eliminated together:
    one whose image part reduces to 0 is a kernel vector, and the kernel
    vectors form the pivots below bit n.  In echelon form by leading bit,
    the vector with the lowest pivot is the smallest nonzero element of the
    span.  O(n^2) word operations."""
    n = len(images)
    pivots = _echelon((img << n) | (1 << j) for j, img in enumerate(images))
    return pivots[min(pivots)]


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
    q = field.order
    a = a if type(a) is int and 0 <= a < q else field.as_index(a)
    b = b if type(b) is int and 0 <= b < q else field.as_index(b)
    if a == 0:
        raise ZeroLinearCoefficientError("linear coefficient a must be nonzero")
    if not 0 <= k < field.n:
        raise BadParametersError(f"k={k} outside [0, n)")
    unique, tables, d, tau = _cache_entry(field, (k, a), _build_trinomial, k, a)
    v = 0
    for shift, table in tables:
        v ^= table[(b >> shift) & 0xFF]
    if unique:
        return _result("unique", 1, (v,))
    n = field.n
    if v & ((1 << n) - 1):
        return _NO_ROOTS
    x0 = v >> n
    roots = None
    if enumerate_roots:
        roots = tuple(
            sorted(x0 ^ field.mul(delta, tau) for delta in field.subfield_indices(d))
        )
    return _result("subspace", 1 << d, roots, x0, tau)


def _linearized_coeffs(field: Field, coeffs) -> list[int]:
    """The n coefficients a_i of L(x) = sum a_i x^(2^i), validated."""
    if field.p != 2:
        raise OddCharacteristicError("affine machinery requires p = 2")
    q = field.order
    cs = [c if type(c) is int and 0 <= c < q else field.as_index(c) for c in coeffs]
    if len(cs) != field.n:
        raise BadParametersError(f"need exactly {field.n} coefficients, got {len(cs)}")
    return cs


def build_AL(field: Field, coeffs) -> list[list[int]]:
    """The n x n matrix of L(x) = sum a_i x^(2^i): row i is the cyclic right
    shift of (a_0, ..., a_{n-1}) by i with every entry raised to 2^i."""
    cs = _linearized_coeffs(field, coeffs)
    n = field.n
    return [
        [field.pow(cs[(j - i) % n], 1 << i) for j in range(n)]
        for i in range(n)
    ]


def affine_root_count(field: Field, coeffs, b) -> int:
    """Number of roots of L(x) + b: 2^(n - r) when b lies in the image of L,
    else 0, where r is the F_2-rank of L, equal to rank(A_L) (see build_AL).
    The images L(2^j) = sum_i a_i (2^j)^(2^i) are eliminated as n-bit words
    and b is reduced against them: O(n^2) field products and word operations."""
    b = b if type(b) is int and 0 <= b < field.order else field.as_index(b)
    cs = _linearized_coeffs(field, coeffs)
    mul = field.mul
    images = [0] * field.n
    for c, row in zip(cs, field.frobenius_images):
        if c:
            images = [v ^ mul(c, y) for v, y in zip(images, row)]
    pivots = _echelon(images)
    if _reduce(pivots, b):
        return 0
    return 1 << (field.n - len(pivots))
