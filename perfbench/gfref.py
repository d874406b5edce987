"""Independent GF(p^n) reference for checking the program's outputs.

Nothing here calls sbox_spectra.  Elements use the program's documented
encoding: the residue polynomial c_0 + c_1 x + ... + c_{n-1} x^{n-1} packs
to sum(c_i * p^i).  Multiplication goes through exp/log tables of powers of
x, which needs x to be primitive modulo the modulus: true for Conway
polynomials (the table below is data, copied from the published Conway
table) and checked for any other modulus, so a wrong table is refused
instead of silently trusted.

The spectra below follow the definitions literally, vectorised over x:

  DDT(a, b)  = #{x : F(x+a) - F(x) = b}
  SOZD(a, b) = #{x : F(x+a+b) - F(x+a) - F(x+b) + F(x) = 0}
"""

from __future__ import annotations

import numpy as np

# (p, n) -> monic modulus coefficients, constant term first
CONWAY = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    (2, 10): (1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1),
    (2, 11): (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 12): (1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1),
    (2, 13): (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 16): (1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (2, 18): (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    (2, 20): (1, 1, 0, 0, 1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 2, 1, 0, 2, 0, 1),
    (3, 7): (1, 0, 2, 0, 0, 0, 0, 1),
    (5, 1): (3, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (5, 4): (2, 4, 4, 0, 1),
    (7, 1): (4, 1),
    (7, 2): (3, 6, 1),
    (7, 3): (4, 0, 6, 1),
    (11, 1): (9, 1),
    (11, 2): (2, 7, 1),
}

CHUNK = 1 << 22  # elements per vectorised block, bounds the checker's memory


class RefField:
    """F_{p^n} by exp/log tables over x, with vectorised arithmetic."""

    def __init__(self, p: int, n: int, modulus=None):
        mod = tuple(CONWAY[(p, n)] if modulus is None else modulus)
        if len(mod) != n + 1 or mod[-1] != 1:
            raise ValueError(f"modulus {mod} is not monic of degree {n}")
        self.p, self.n, self.q = p, n, p**n
        self.modulus = mod
        self.xs = np.arange(self.q, dtype=np.int64)
        self.weights = p ** np.arange(n, dtype=np.int64)
        # digit table for odd-p addition; p = 2 adds by XOR
        self.digits = (self.xs[:, None] // self.weights[None, :]) % p if p > 2 else None
        self.modulus_low = sum(c << i for i, c in enumerate(mod[:-1])) if p == 2 else 0
        powers = [1] * (self.q - 1)
        v = 1
        if p == 2:  # the same shift-and-reduce as _times_x, inlined for 2^20 steps
            q, low = self.q, self.modulus_low ^ self.q
            for i in range(1, q - 1):
                v <<= 1
                if v >= q:
                    v ^= low
                powers[i] = v
        else:
            for i in range(1, self.q - 1):
                v = self._times_x(v)
                powers[i] = v
        exp = np.array(powers, dtype=np.int64)
        if self._times_x(v) != 1 or not (np.bincount(exp, minlength=self.q)[1:] == 1).all():
            raise ValueError(f"x is not primitive modulo {mod} over F_{p}")
        self.exp = exp
        self.log = np.full(self.q, -1, dtype=np.int64)
        self.log[exp] = np.arange(self.q - 1, dtype=np.int64)

    def _times_x(self, v: int) -> int:
        """v * x: shift the digits up, then replace x^n by minus the lower
        part of the modulus."""
        p, n = self.p, self.n
        lead, v = divmod(v, p ** (n - 1))
        v *= p
        if p == 2:
            return v ^ self.modulus_low if lead else v
        out = 0
        for i in range(n):
            c = (v // p**i) % p
            out += ((c - lead * self.modulus[i]) % p) * p**i
        return out

    # -- vectorised arithmetic on encodings ------------------------------

    def add(self, a, b):
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self.p == 2:
            return a ^ b
        return ((self.digits[a] + self.digits[b]) % self.p) @ self.weights

    def sub(self, a, b):
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self.p == 2:
            return a ^ b
        return ((self.digits[a] - self.digits[b]) % self.p) @ self.weights

    def mul(self, a, b):
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        nz = (a != 0) & (b != 0)
        out = np.zeros(a.shape, dtype=np.int64)
        out[nz] = self.exp[(self.log[a[nz]] + self.log[b[nz]]) % (self.q - 1)]
        return out

    def div(self, a, b):
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        if np.any(b == 0):
            raise ZeroDivisionError("division by zero")
        out = np.zeros(a.shape, dtype=np.int64)
        nz = a != 0
        out[nz] = self.exp[(self.log[a[nz]] - self.log[b[nz]]) % (self.q - 1)]
        return out

    def power(self, a, e: int):
        """a^e for e >= 1, elementwise (0^e = 0)."""
        a = np.asarray(a, dtype=np.int64)
        out = np.zeros(a.shape, dtype=np.int64)
        nz = a != 0
        out[nz] = self.exp[(self.log[a[nz]] * (e % (self.q - 1))) % (self.q - 1)]
        return out

    def power_images(self, d: int) -> np.ndarray:
        """Images of every element under x -> x^d, d >= 1."""
        return self.power(self.xs, d)

    # -- spectra from the definitions ---------------------------------------

    def _blocks(self, count: int):
        step = max(1, CHUNK // self.q)
        for lo in range(0, count, step):
            yield lo, min(count, lo + step)

    def ddt_entries(self, images, a, b) -> np.ndarray:
        """DDT(a_i, b_i) for paired arrays a, b."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        out = np.empty(a.size, dtype=np.int64)
        x = self.xs[None, :]
        for lo, hi in self._blocks(a.size):
            xa = self.add(x, a[lo:hi, None])
            diff = self.sub(images[xa], images[x])
            out[lo:hi] = (diff == b[lo:hi, None]).sum(axis=1)
        return out

    def sozd_entries(self, images, a, b) -> np.ndarray:
        """SOZD(a_i, b_i) (the FBCT for p = 2) for paired arrays a, b."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        out = np.empty(a.size, dtype=np.int64)
        x = self.xs[None, :]
        for lo, hi in self._blocks(a.size):
            xa = self.add(x, a[lo:hi, None])
            xb = self.add(x, b[lo:hi, None])
            xab = self.add(xa, b[lo:hi, None])
            total = self.add(self.sub(images[xab], images[xa]), self.sub(images[x], images[xb]))
            out[lo:hi] = (total == 0).sum(axis=1)
        return out

    def ddt_row(self, images, a: int) -> np.ndarray:
        diff = self.sub(images[self.add(self.xs, a)], images)
        return np.bincount(diff, minlength=self.q)

    def sozd_row(self, images, a: int) -> np.ndarray:
        """Whole SOZD row at a, via D(x) = F(x+a) - F(x): the defining sum
        vanishes exactly when D(x+b) = D(x)."""
        deriv = self.sub(images[self.add(self.xs, a)], images)
        out = np.empty(self.q, dtype=np.int64)
        x = self.xs[None, :]
        for lo, hi in self._blocks(self.q):
            xb = self.add(x, self.xs[lo:hi, None])
            out[lo:hi] = (deriv[xb] == deriv[None, :]).sum(axis=1)
        return out


def uniformity(kind: str, p: int, entries: np.ndarray) -> int:
    """Uniformity of a full q x q table over the program's documented
    domain: a != 0 for the DDT; a, b != 0 (and a != b for p = 2) for SOZD."""
    q = entries.shape[0]
    if q < 2:
        return 0
    if kind == "ddt":
        return int(entries[1:, :].max())
    mask = np.ones((q, q), dtype=bool)
    mask[0, :] = mask[:, 0] = False
    if p == 2:
        np.fill_diagonal(mask, False)
    return int(entries[mask].max()) if mask.any() else 0


def row_uniformity(kind: str, p: int, row: np.ndarray) -> int:
    """Uniformity of a power map from its a = 1 row: every row a != 0 is a
    permutation of it (b -> b/a^d for the DDT, b -> b/a for SOZD), so the
    domain a != b for p = 2 becomes b/a != 1, i.e. b not in {0, 1}."""
    if kind == "ddt":
        return int(row.max())
    skip = 2 if p == 2 else 1
    return int(row[skip:].max()) if row.size > skip else 0


def histogram(entries: np.ndarray) -> list[list[int]]:
    values, counts = np.unique(entries, return_counts=True)
    return [[int(v), int(c)] for v, c in zip(values, counts)]
