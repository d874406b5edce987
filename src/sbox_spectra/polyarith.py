"""Dense polynomial arithmetic over the prime fields Z_p.

Polynomials are little-endian coefficient lists (constant term first) with
integer entries in {0, ..., p-1}.  The zero polynomial is [].  For p = 2 a
second representation is used in hot paths: the polynomial is packed into a
Python int, bit i holding the coefficient of x^i.

These routines back field construction (irreducibility checks) and the
generation of the built-in modulus table; they are deliberately simple and
only need to be fast at desk scale (degrees up to ~24).
"""

from __future__ import annotations


def trim(c: list[int]) -> list[int]:
    """Drop trailing zero coefficients."""
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def poly_add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return trim(out)


def poly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = (x - y) % p
    return trim(out)


def poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return trim(out)


def poly_mod(a: list[int], f: list[int], p: int) -> list[int]:
    """Remainder of a modulo f (f monic-normalizable, nonzero)."""
    f = trim(f)
    df = len(f) - 1
    lead_inv = pow(f[-1], -1, p)
    r = list(a)
    for i in range(len(r) - 1, df - 1, -1):
        c = r[i] % p
        if c:
            q = (c * lead_inv) % p
            for j in range(df + 1):
                r[i - df + j] = (r[i - df + j] - q * f[j]) % p
    return trim(r[:df])


def poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    return poly_mod(poly_mul(a, b, p), f, p)


def poly_powmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    acc = poly_mod(base, f, p)
    while e:
        if e & 1:
            result = poly_mulmod(result, acc, f, p)
        acc = poly_mulmod(acc, acc, f, p)
        e >>= 1
    return result


def poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = trim(a), trim(b)
    while b:
        a, b = b, poly_mod(a, b, p)
    if a:  # normalize monic
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division (desk scale)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def is_irreducible(f: list[int], p: int) -> bool:
    """Irreducibility over Z_p: x^(p^n) == x mod f and, for each prime
    q | n, gcd(x^(p^(n/q)) - x, f) = 1."""
    f = trim(f)
    n = len(f) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    x = [0, 1]
    xq = poly_powmod(x, p**n, f, p)
    if poly_sub(xq, x, p):
        return False
    for q in prime_factors(n):
        xr = poly_powmod(x, p ** (n // q), f, p)
        if len(poly_gcd(poly_sub(xr, x, p), f, p)) != 1:
            return False
    return True


def is_primitive(f: list[int], p: int, order_factors: list[int] | None = None) -> bool:
    """True iff f is irreducible and x generates the multiplicative group
    of Z_p[x]/(f)."""
    f = trim(f)
    n = len(f) - 1
    if n < 1 or f[0] == 0:  # x divides f: 0 is a root, never primitive
        return False
    if not is_irreducible(f, p):
        return False
    order = p**n - 1
    if order_factors is None:
        order_factors = prime_factors(order)
    x = [0, 1]
    for r in order_factors:
        if poly_powmod(x, order // r, f, p) == [1]:
            return False
    return True


# ---------------------------------------------------------------------------
# GF(2) fast path: polynomials packed into ints, bit i <-> coefficient of x^i.

def mulmod2(a: int, b: int, f: int, n: int) -> int:
    """Carryless multiply modulo f (degree n) over GF(2)."""
    r = 0
    top = 1 << n
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= f
    return r


def powmod2(base: int, e: int, f: int, n: int) -> int:
    result = 1
    acc = base
    while e:
        if e & 1:
            result = mulmod2(result, acc, f, n)
        acc = mulmod2(acc, acc, f, n)
        e >>= 1
    return result


def mod2(a: int, b: int) -> int:
    """Remainder of a modulo b for GF(2) polynomials packed as ints (b != 0)."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def gcd2(a: int, b: int) -> int:
    """GCD of GF(2) polynomials packed as ints."""
    while b:
        a, b = b, mod2(a, b)
    return a


def int_to_coeffs(f: int, p: int = 2) -> list[int]:
    """Unpack a base-p packed polynomial into a coefficient list."""
    out = []
    while f:
        f, c = divmod(f, p)
        out.append(c)
    return out


def coeffs_to_int(c: list[int], p: int = 2) -> int:
    out = 0
    for x in reversed(trim(list(c))):
        out = out * p + x
    return out
