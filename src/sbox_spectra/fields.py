"""Exact arithmetic and structural queries in F_{p^n}.

Elements are ints, their canonical encodings in [0, p^n): the residue
polynomial c_0 + c_1 x + ... + c_{n-1} x^{n-1} packs to sum(c_i * p^i).
For p = 2 addition is a single XOR.  For odd p an encoding is cut into
base-P limbs (P = p^w, at most 256) and a pair of limbs is added or
subtracted by one lookup in a P x P table, shared by every field of
characteristic p (_limb_tables).  Enumeration order is ascending encoding,
zero first, which is also the row/column order of every CSV written.  An
array of encodings is int32 (the vector ops convert what they are given),
so the vector ops refuse orders from 2^31.

A Field caches exp/log tables over a generator once multiplication is first
needed (for orders up to TABLE_CAP).  The generator search runs once per
Field (subfield_indices may run it first); exp follows, and log only when
mul_vec, div_vec, pow_vec, log_tables or a scalar op reads it, so a power
map's images (power_map_table, the FBCT row check's inverses too) build no
log.  The tables turn mul/inv/pow/character/sqrt into O(1) lookups; larger
fields fall back to polynomial arithmetic for these scalar ops (sqrt by
Tonelli-Shanks, odd-p add/sub/neg digit by digit), while the vectorized
ones (and so every spectrum row) need the tables.  Each scalar op makes
that choice itself, so callers such as the root solvers run one code path
at every order and never read the tables.
The scalar ops read Python-list copies of the int32 tables, made on the
first scalar call (_have_tables), which for odd p also builds the Zech
logarithms zech[k] = log(1 + g^k) (-1 where 1 + g^k = 0), so scalar
add/sub/neg are O(1) lookups too (Huber, IEEE Trans. IT 36(4), 1990):
g^i + g^j = g^(i + zech[j - i]) and -g^i = g^(i + (q-1)/2).  The tables are
built by doubling: with exp[:L] = g^0..g^(L-1) filled, exp[L:2L] =
g^L * exp[:L].  Multiplying by a fixed c is F_p-linear, so n scalar
products give c times each basis element p^j, and a lookup table per byte
(p = 2) or limb (odd p) maps the whole block: O(n log q) scalar products.
Fields are immutable values; lazy cache builds are idempotent, so sharing
across threads is safe.

make_field interns the fields of order up to INTERN_MAX_ORDER (2^12): an LRU
cache of at most INTERN_ENTRIES (32) Fields, keyed by (p, n, modulus) with
the built-in modulus filled in, so each small field's tables and solver
cache are built once per process.  The size bound is checked on every
call; larger fields are built anew each time.  The intern holds at most
about 200 MiB, nearly all of it full solver caches (see _interned_field).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import polyarith as pa
from ._conway import CONWAY_POLYNOMIALS
from .errors import (
    BadParametersError,
    EvenCharacteristicError,
    NoBuiltinModulusError,
    NotADivisorError,
    NotPrimeError,
    ReduciblePolynomialError,
    UnparsableElementError,
    UnparsableFieldSpecError,
    UnsupportedSizeError,
)

DEFAULT_MAX_SIZE = 1 << 24
MAX_SIZE_ENV = "SBOX_SPECTRA_MAX_SIZE"
TABLE_CAP = 1 << 20  # largest order for which exp/log tables are built


@functools.lru_cache(maxsize=8)
def _limb_tables(p: int) -> tuple:
    """(P, w, tables) for odd p: P = p^w is the largest power of p up to 256,
    and tables[0][u, t] (tables[1][u, t]) is the limb of u plus (minus) t
    digitwise mod p.  For p > 256 (p^2 entries) P = p, w = 1, tables None."""
    if p > 256:
        return p, 1, None
    w = max(k for k in range(1, 9) if p**k <= 256)
    base = np.arange(p)
    one = np.stack([np.add.outer(base, base), np.subtract.outer(base, base)]) % p
    tables = np.zeros((2, 1, 1), dtype=np.int64)
    for k in range(1, w + 1):  # k-digit limbs u = p*v + d from the table at v and `one` at d
        tables = (p * tables[:, :, None, :, None] + one[:, None, :, None]).reshape(2, p**k, -1)
    tables = tables.astype(np.uint8)  # limbs are below 256
    tables.setflags(write=False)  # shared by every Field of characteristic p
    return p**w, w, tables


def _xor_tables(images: list[int], dtype=np.int64) -> tuple:
    """(shift, table) pairs for the F_2-linear map with these images of the
    basis bits: table[v] is the XOR of the images of v's bits, by doubling."""
    tables = []
    for lo in range(0, len(images), 8):
        chunk = images[lo:lo + 8]
        table = np.zeros(1 << len(chunk), dtype=dtype)
        for j, img in enumerate(chunk):
            table[1 << j:2 << j] = table[:1 << j] ^ img
        tables.append((lo, table))
    return tuple(tables)


def _split(X: np.ndarray, P: int) -> tuple[np.ndarray, np.ndarray]:
    """(X mod P, X // P) for X >= 0, from one floor divide."""
    hi = X // P
    low = hi * -P
    low += X
    return low, hi


def configured_max_size() -> int:
    raw = os.environ.get(MAX_SIZE_ENV)
    if raw is None:
        return DEFAULT_MAX_SIZE
    try:
        return int(raw)
    except ValueError:
        raise UnparsableFieldSpecError(f"bad {MAX_SIZE_ENV} value: {raw!r}") from None


@dataclass(frozen=True)
class PowerFacts:
    """gcd structure of an exponent d against the multiplicative group."""

    g: int
    is_permutation: bool


class Field:
    """F_{p^n} with a fixed monic irreducible modulus."""

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.order = p**n
        self.modulus = tuple(int(c) % p for c in modulus)
        self._m = self.order - 1  # multiplicative group order
        self._modint = pa.coeffs_to_int(list(self.modulus), p) if p == 2 else 0
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._zech: list[int] | None = None
        self._generator: int | None = None
        self._np_exp: np.ndarray | None = None
        self._np_log: np.ndarray | None = None
        self._xs: np.ndarray | None = None
        self._solver_cache: dict = {}  # the root solvers' per-Field cache (solvers._cache_entry)

    # -- construction ------------------------------------------------------

    def __repr__(self):
        return f"Field(p={self.p}, n={self.n})"

    def __len__(self):
        return self.order

    def spec_string(self) -> str:
        """Canonical `p=..;n=..;mod=c0,...,cn` form."""
        mod = ",".join(str(c) for c in self.modulus)
        return f"p={self.p};n={self.n};mod={mod}"

    # -- encoding ----------------------------------------------------------

    def coeffs(self, i: int) -> tuple[int, ...]:
        """Residue polynomial digits of encoding i, constant term first."""
        out = []
        for _ in range(self.n):
            i, c = divmod(i, self.p)
            out.append(c)
        return tuple(out)

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) > self.n:
            raise UnparsableElementError(f"{len(cs)} coefficients for degree {self.n}")
        out = 0
        for c in reversed(cs):
            out = out * self.p + int(c) % self.p
        return out

    def as_index(self, x) -> int:
        """Coerce a raw encoding to a validated index: a value equal to an
        int (2.0, np.int64, True) or decimal text ("5").  A non-integral
        number (1.7, "1.7") is refused, not truncated."""
        try:
            i = int(x)
        except (ValueError, OverflowError):
            raise UnparsableElementError(f"cannot read {x!r} as an encoding") from None
        if i != x and not isinstance(x, str):
            raise UnparsableElementError(f"encoding {x!r} is not an integer")
        if not 0 <= i < self.order:
            raise UnparsableElementError(f"encoding {i} outside [0, {self.order})")
        return i

    def format_element(self, x) -> str:
        i = self.as_index(x)
        if self.p == 2:
            return f"0x{i:0{(self.n + 3) // 4}x}"
        return ",".join(str(c) for c in self.coeffs(i))

    def parse_element(self, text: str) -> int:
        """Parse `0x..` (p=2 word), a decimal encoding, or `c0,c1,...`."""
        text = text.strip()
        try:
            if text.lower().startswith("0x"):
                if self.p != 2:
                    raise UnparsableElementError("hex words are only valid for p=2")
                i = int(text, 16)
            elif "," in text:
                i = self.from_coeffs(int(t) for t in text.split(","))
            else:
                i = int(text)
        except UnparsableElementError:
            raise
        except ValueError:
            raise UnparsableElementError(f"cannot parse element {text!r}") from None
        if not 0 <= i < self.order:
            raise UnparsableElementError(f"element {text!r} outside field of order {self.order}")
        return i

    # -- raw polynomial arithmetic (table-free fallback) ---------------------

    def _mul_raw(self, i: int, j: int) -> int:
        if self.p == 2:
            return pa.mulmod2(i, j, self._modint, self.n)
        a = pa.int_to_coeffs(i, self.p)
        b = pa.int_to_coeffs(j, self.p)
        return pa.coeffs_to_int(pa.poly_mulmod(a, b, list(self.modulus), self.p), self.p)

    def _add_raw(self, i: int, j: int, op=pa.poly_add) -> int:
        """i + j (op = poly_add) or i - j (op = poly_sub), digit by digit."""
        p = self.p
        return pa.coeffs_to_int(op(pa.int_to_coeffs(i, p), pa.int_to_coeffs(j, p), p), p)

    def _pow_raw(self, i: int, e: int) -> int:
        if i == 0:
            return 1 if e == 0 else 0
        e %= self._m
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, i)
            i = self._mul_raw(i, i)
            e >>= 1
        return r

    # -- exp/log tables ------------------------------------------------------

    def _find_generator(self) -> int:
        factors = pa.prime_factors(self._m) if self._m > 1 else []
        for g in range(1, self.order):
            if all(self._pow_raw(g, self._m // r) != 1 for r in factors):
                return g
        raise RuntimeError("no generator found")  # unreachable for a true field

    def _kept_generator(self) -> int:
        """The generator, searched on first need and kept: the tables, the
        subfield queries and the generator property share one search."""
        if self._generator is None:
            self._generator = self._find_generator()
        return self._generator

    def _ensure_tables(self):
        if self._np_exp is not None:
            return
        if self.order > TABLE_CAP:
            raise UnsupportedSizeError(
                f"exp/log tables not built for order {self.order} > {TABLE_CAP}"
            )
        g, m = self._kept_generator(), self._m
        exp = np.empty(m, dtype=np.int32)
        exp[0] = 1
        size, c = 1, g  # invariant: exp[:size] is filled and c = g^size
        while size < m:
            step = min(size, m - size)
            exp[size:size + step] = self._scale_vec(c, exp[:step])
            size += step
            c = self._mul_raw(c, c)
        # log waits for an op that reads it (_ensure_log).  Each array is its
        # own readiness sentinel, assigned last, so concurrent lazy builds
        # (idempotent under the GIL) never observe a half-built state
        self._np_exp = exp

    def _ensure_log(self):
        """log[exp[k]] = k, log[0] = -1: a random scatter of q cells, which a
        power map's rows never pay for."""
        if self._np_log is not None:
            return
        self._ensure_tables()
        log = np.full(self.order, -1, dtype=np.int32)
        log[self._np_exp] = np.arange(self._m, dtype=np.int32)
        self._np_log = log

    def _scale_vec(self, c: int, v: np.ndarray) -> np.ndarray:
        """c * v for an array of encodings v, through the F_p-linear map
        y -> c*y: n scalar products give its images of the basis p^j."""
        p, n = self.p, self.n
        images = [self._mul_raw(c, p**j) for j in range(n)]
        if p == 2:
            out = np.zeros(v.shape, dtype=np.int32)
            for lo, table in _xor_tables(images, np.int32):
                out ^= table[(v >> lo) & 0xFF]
            return out
        P, w, _ = _limb_tables(p)
        coeffs = np.array([self.coeffs(img) for img in images], dtype=np.int64)  # row j: c*p^j
        ppows = p ** np.arange(n, dtype=np.int64)
        for lo in range(0, n, w):  # table[u] = c * (u * p^lo) for each limb u
            rows = coeffs[lo:lo + w]
            digits = np.arange(p ** len(rows))[:, None] // p ** np.arange(len(rows)) % p
            table = (((digits @ rows) % p) @ ppows).astype(np.int32)
            part = table[v // p**lo % P]
            out = part if lo == 0 else self._add_or_sub(out, part, False)
        return out

    @property
    def generator(self) -> int:
        """The generator g of the exp table, g^k = exp[k].  Up to TABLE_CAP
        reading it builds exp (perfbench's set-up probe times the build
        through it); above, where there are no tables, it is the search's
        result, kept for the next call."""
        if self.order <= TABLE_CAP:
            self._ensure_tables()
        return self._kept_generator()

    def log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The int32 arrays exp (exp[k] = g^k, k < q - 1) and log (log[0] = -1)."""
        self._ensure_log()
        return self._np_exp, self._np_log

    def _have_tables(self) -> bool:
        """Whether the scalar ops can use the Python-list mirrors _exp/_log of
        the tables (and, for odd p, the Zech logarithms _zech); they are made
        on the first scalar call, since the vectorised ops read only the
        arrays; above TABLE_CAP there are none.  Callers test `self._exp is
        not None` first, which skips this call once the mirrors exist."""
        if self._exp is None and self.order <= TABLE_CAP:
            self._ensure_log()
            if self.p != 2:
                self._zech = self._np_log[self.add_vec(self._np_exp, 1)].tolist()
            self._log = self._np_log.tolist()
            self._exp = self._np_exp.tolist()  # sentinel last
        return self._exp is not None

    # -- scalar field operations ---------------------------------------------

    def add(self, i: int, j: int) -> int:
        if self.p == 2:
            return i ^ j
        if i == 0 or j == 0:
            return i or j
        if self._exp is not None or self._have_tables():
            log, m = self._log, self._m
            li = log[i]
            z = self._zech[(log[j] - li) % m]
            return 0 if z < 0 else self._exp[(li + z) % m]
        return self._add_raw(i, j)

    def neg(self, i: int) -> int:
        if self.p == 2 or i == 0:
            return i
        if self._exp is not None or self._have_tables():
            return self._exp[(self._log[i] + self._m // 2) % self._m]
        return self._add_raw(0, i, pa.poly_sub)

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def mul(self, i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        if self._exp is not None or self._have_tables():
            return self._exp[(self._log[i] + self._log[j]) % self._m]
        return self._mul_raw(i, j)

    def inv(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None or self._have_tables():
            return self._exp[(self._m - self._log[i]) % self._m]
        return self._pow_raw(i, self._m - 1)

    def div(self, i: int, j: int) -> int:
        if j == 0:
            raise ZeroDivisionError("division by zero")
        if i == 0:
            return 0
        if self._exp is not None or self._have_tables():
            return self._exp[(self._log[i] - self._log[j]) % self._m]
        return self.mul(i, self.inv(j))

    def pow(self, i: int, e: int) -> int:
        if e < 0:
            raise BadParametersError("exponent must be nonnegative")
        if i == 0:
            return 1 if e == 0 else 0
        if self._exp is not None or self._have_tables():
            return self._exp[(self._log[i] * e) % self._m] if self._m else 1
        return self._pow_raw(i, e)

    def frobenius(self, i: int, j: int = 1) -> int:
        if j < 0:
            raise BadParametersError("frobenius power must be nonnegative")
        return self.pow(i, self.p ** (j % self.n))

    def trace(self, i: int, d: int = 1) -> int:
        """Trace onto the subfield F_{p^d}: sum of x^(p^(d*t))."""
        if d <= 0 or self.n % d:
            raise NotADivisorError(f"d={d} does not divide n={self.n}")
        acc = 0
        y = i
        for _ in range(self.n // d):
            acc = self.add(acc, y)
            y = self.frobenius(y, d)
        return acc

    def quadratic_character(self, i: int) -> int:
        if self.p == 2:
            raise EvenCharacteristicError("quadratic character needs odd p")
        if i == 0:
            return 0
        if self._exp is not None or self._have_tables():
            return -1 if self._log[i] & 1 else 1
        return 1 if self._pow_raw(i, self._m // 2) == 1 else -1

    def sqrt(self, s: int) -> int | None:
        """A square root of s, or None when s is a nonsquare.  With tables, s
        is a square iff log s is even, and g^(log s / 2) is a root.  Without,
        Tonelli-Shanks: the (q+1)/4 exponent shortcut when q = 3 (mod 4),
        otherwise the generic algorithm in the multiplicative group with the
        first nonsquare (in enumeration order) as the auxiliary nonresidue."""
        if self.p == 2:
            raise EvenCharacteristicError("square roots via eta need odd p")
        if s == 0:
            return 0
        if self._exp is not None or self._have_tables():
            log = self._log[s]
            return None if log & 1 else self._exp[log >> 1]
        if self.quadratic_character(s) != 1:
            return None
        order = self.order
        if order % 4 == 3:
            return self.pow(s, (order + 1) // 4)
        q, e = order - 1, 0
        while q % 2 == 0:
            q //= 2
            e += 1
        z = next(i for i in range(1, order) if self.quadratic_character(i) == -1)
        c = self.pow(z, q)
        r = self.pow(s, (q + 1) // 2)
        t = self.pow(s, q)
        m = e
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = self.mul(t2, t2)
                i += 1
            b = self.pow(c, 1 << (m - i - 1))
            r = self.mul(r, b)
            c = self.mul(b, b)
            t = self.mul(t, c)
            m = i
        return r

    def in_subfield(self, i: int, d: int) -> bool:
        if d <= 0 or self.n % d:
            raise NotADivisorError(f"d={d} does not divide n={self.n}")
        return self.frobenius(i, d) == i

    def subfield_indices(self, d: int) -> list[int]:
        """All p^d encodings lying in the subfield F_{p^d}, ascending: 0 and
        the powers of zeta = g^((q-1)/(p^d-1)), which generates F_{p^d}*.
        O(p^d) products; g comes from the generator search, which also works
        without tables, and is kept for the next call."""
        if d <= 0 or self.n % d:
            raise NotADivisorError(f"d={d} does not divide n={self.n}")
        g = self._kept_generator()
        zeta = self.pow(g, self._m // (self.p**d - 1))
        out, x = [0], 1
        for _ in range(self.p**d - 1):
            out.append(x)
            x = self.mul(x, zeta)
        return sorted(out)

    def power_facts(self, d: int) -> PowerFacts:
        if d < 1:
            raise BadParametersError("exponent must be >= 1")
        g = math.gcd(d, self._m) if self._m else 1
        return PowerFacts(g=g, is_permutation=(g == 1))

    # -- vectorized operations (numpy, encodings as int32) --------------------
    #
    # Every array of encodings is int32, whatever dtype comes in, which halves
    # the q-length arrays of the row path.  Arithmetic that can pass 2^31 runs
    # in int64: pow_vec's log * e.  Sums and differences of two logs fit,
    # since tables exist only below TABLE_CAP, and the odd-p limb index is
    # formed from digits, so it stays below P^2.

    def _encodings(self, A) -> np.ndarray:
        """A as an int32 array; the vector ops refuse q >= 2^31."""
        if self.order >= 1 << 31:
            raise UnsupportedSizeError(
                f"vector ops hold encodings as int32: order {self.order} >= 2^31"
            )
        return np.asarray(A, dtype=np.int32)

    def xs(self) -> np.ndarray:
        if self._xs is None:
            self._encodings(())  # refuses q >= 2^31 before allocating
            self._xs = np.arange(self.order, dtype=np.int32)
        return self._xs

    def add_vec(self, A, B) -> np.ndarray:
        return self._add_or_sub(A, B, False)

    def sub_vec(self, A, B) -> np.ndarray:
        return self._add_or_sub(A, B, True)

    def _add_or_sub(self, A, B, sub: bool) -> np.ndarray:
        """A + B (A - B when sub); odd p goes limb by limb (_limb_tables).
        Each limb splits off the low digits a, b of A, B (_split: one floor
        divide each, no remainder, the slower ufunc) and looks up a * P + b;
        for p > 256 the digit a - b or a - (p - b), in [-p, p), is reduced
        mod p.  So no intermediate reaches 2^31.  The peak is about
        eight int32 arrays of A's size, two of them take's intp copy of the
        index.  The top limbs are what is left of A and B.  A is broadcast
        to the result's shape first, as a view, since the limbs accumulate in
        place into arrays of A's shape; B, often a scalar, stays as it is."""
        A = self._encodings(A)
        B = self._encodings(B)
        if self.p == 2:
            return A ^ B
        if B.ndim and A.shape != B.shape and A.shape != (shape := np.broadcast(A, B).shape):
            A = np.broadcast_to(A, shape)
        P, w, tables = _limb_tables(self.p)
        limbs = []  # lowest first
        for lo in range(0, self.n, w):
            if lo + w < self.n:
                a, A = _split(A, P)
                b, B = _split(B, P)
            else:
                a, b = A, B
            if tables is None:  # p > 256: one digit per limb
                c = a - b if sub else a - (P - b)  # in [-p, p): a + b may pass 2^31
                c %= P
            else:
                c = a * P
                c += b
                c = tables[int(sub)].take(c, mode="clip")  # flat [a, b]
            limbs.append(c)
        out = limbs.pop().astype(np.int32)
        while limbs:
            out *= P
            out += limbs.pop()
        return out

    def mul_vec(self, A, B) -> np.ndarray:
        A = self._encodings(A)
        B = self._encodings(B)
        self._ensure_log()
        # every cell at once, as in pow_vec: log[0] = -1 still gives an
        # in-range index, and the cells with a zero factor are set to 0 after
        k = self._np_log[A] + self._np_log[B]
        k %= self._m
        out = np.asarray(self._np_exp[k])
        np.copyto(out, 0, where=(A == 0) | (B == 0))
        return out

    def div_vec(self, A, B) -> np.ndarray:
        A = self._encodings(A)
        B = self._encodings(B)
        if np.any(B == 0):
            raise ZeroDivisionError("division by zero")
        self._ensure_log()
        k = self._np_log[A] - self._np_log[B]  # as in mul_vec
        k %= self._m
        out = np.asarray(self._np_exp[k])
        np.copyto(out, 0, where=A == 0)  # where broadcasts: A may be smaller than out
        return out

    def pow_vec(self, A, e: int) -> np.ndarray:
        A = self._encodings(A)
        if e < 0:
            raise BadParametersError("exponent must be nonnegative")
        if e == 0:
            return np.ones(A.shape, dtype=np.int32)
        self._ensure_log()
        # every A at once, no nonzero mask: log[0] = -1 gives some in-range k,
        # and the entries at A == 0 are set to 0^e = 0 afterwards
        k = np.multiply(self._np_log[A], e % self._m, dtype=np.int64)  # passes 2^31
        k %= self._m
        out = np.asarray(self._np_exp[k])  # an array for a 0-d A too
        out[A == 0] = 0
        return out

    def power_map_table(self, d: int) -> np.ndarray:
        """Images of every element under x -> x^d, in canonical order, from
        exp alone: with m = q - 1 and dd = d mod m, g^k maps to exp[k dd mod
        m], one gather of exp, scattered through exp to canonical order.
        take's "wrap" mode reduces an index by repeated subtraction, so k dd
        is formed below 2m as c_i + r_j, k = iB + j, c_i = iB dd mod m and
        r_j = j dd mod m."""
        if d < 1:
            raise BadParametersError("power map exponent must be >= 1")
        self._ensure_tables()
        exp, m = self._np_exp, self._m
        dd = d % m or m  # a zero step would stop arange (F_2, or d = 0 mod m)
        tab = np.zeros(self.order, dtype=np.int32)
        B = math.isqrt(m) + 1
        c = np.arange(0, m * dd, B * dd, dtype=np.int64) % m
        r = np.arange(0, B * dd, dd, dtype=np.int64) % m
        k = np.add.outer(c, r).ravel()[:m]
        tab[exp] = np.take(exp, k, mode="wrap")
        return tab


# -- construction and parsing -------------------------------------------------

def make_field(p: int, n: int, modulus=None, max_size: int | None = None) -> Field:
    """Build F_{p^n}, validating primality, size and irreducibility.

    With modulus omitted the built-in Conway polynomial table supplies one,
    making results reproducible bit for bit across runs.  The element-count
    bound (default 2^24) is configurable via max_size or the
    SBOX_SPECTRA_MAX_SIZE environment variable, and is checked on every call.

    Fields of order up to INTERN_MAX_ORDER are interned (see _interned_field):
    calls with the same p, n and modulus return the same Field, whose tables
    and solver cache are then built once per process.
    """
    if not isinstance(p, int) or not pa.is_prime(p):
        raise NotPrimeError(f"p={p} is not prime")
    if not isinstance(n, int) or n < 1:
        raise BadParametersError(f"degree n={n} must be a positive integer")
    bound = configured_max_size() if max_size is None else max_size
    if p**n > bound:
        raise UnsupportedSizeError(f"p^n = {p}^{n} exceeds the element-count bound {bound}")
    if modulus is None:
        modulus = CONWAY_POLYNOMIALS.get((p, n))
        if modulus is None:
            raise NoBuiltinModulusError(f"no built-in modulus for p={p}, n={n}")
    mod = tuple(int(c) for c in modulus)
    if p**n <= INTERN_MAX_ORDER:
        return _interned_field(p, n, mod)
    return _checked_field(p, n, mod)


def _checked_field(p: int, n: int, mod: tuple[int, ...]) -> Field:
    """A new Field, after validating a modulus that is not the built-in one."""
    if mod != CONWAY_POLYNOMIALS.get((p, n)):
        if len(mod) != n + 1:
            raise BadParametersError(f"modulus must have {n + 1} coefficients, got {len(mod)}")
        if mod[-1] % p != 1:
            raise BadParametersError("modulus must be monic")
        if any(not 0 <= c < p for c in mod):
            raise BadParametersError("modulus coefficients must lie in [0, p)")
        if not pa.is_irreducible(list(mod), p):
            raise ReduciblePolynomialError(f"modulus {list(mod)} is reducible over Z_{p}")
    return Field(p, n, mod)


# The intern of small fields: one LRU cache of at most INTERN_ENTRIES Fields,
# each of order at most INTERN_MAX_ORDER, keyed by (p, n, modulus) with the
# built-in modulus filled in.  A call that raises stores nothing.  Worst case
# per Field at q <= 2^12 (tracemalloc): the int32 exp/log tables and xs()
# take about 50 KiB, the scalar ops' Python-list mirrors (exp, log and, for
# odd p, the Zech logs) under 0.5 MiB, and for p = 2 a full solver cache of
# 2048 trinomial entries about 5.6 MiB.  So the intern holds at most about
# 200 MiB, and under 20 MiB while the solvers have not run.  Larger fields
# are built anew on every call and die with their last reference.
INTERN_MAX_ORDER = 1 << 12
INTERN_ENTRIES = 32
_interned_field = functools.lru_cache(maxsize=INTERN_ENTRIES)(_checked_field)


def parse_field_spec(text: str, max_size: int | None = None) -> Field:
    """Parse `p=<int>;n=<int>;mod=<c0,c1,...,cn>` (mod optional)."""
    parts = [s for s in text.strip().split(";") if s]
    kv = {}
    for part in parts:
        if "=" not in part:
            raise UnparsableFieldSpecError(f"bad field spec fragment {part!r}")
        k, v = part.split("=", 1)
        kv[k.strip()] = v.strip()
    unknown = set(kv) - {"p", "n", "mod"}
    if unknown or "p" not in kv or "n" not in kv:
        raise UnparsableFieldSpecError(f"bad field spec {text!r}")
    try:
        p = int(kv["p"])
        n = int(kv["n"])
        modulus = [int(c) for c in kv["mod"].split(",")] if "mod" in kv else None
    except ValueError:
        raise UnparsableFieldSpecError(f"bad field spec {text!r}") from None
    return make_field(p, n, modulus, max_size=max_size)
