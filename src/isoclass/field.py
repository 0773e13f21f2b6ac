"""Prime fields F_p and dense univariate polynomials over them.

Polynomials are plain lists of ints with ascending coefficients and no
trailing zeros ([] is the zero polynomial).  The extension fields F_{p^k}
that the enumeration oracle lists live in enumeration.py, in log form.
"""

from __future__ import annotations

import math
import sys
from array import array

Poly = list[int]

# Miller-Rabin with this base set is deterministic below 3.317e24 (psi_13;
# Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_BOUND = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic primality for n < 3.317e24; above, the Baillie-PSW
    test (Miller-Rabin, then a strong Lucas test), which no composite is
    known to pass (Baillie and Wagstaff, Math. Comp. 35, 1980)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_PROVEN_BOUND or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    j = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                j = -j
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            j = -j
        a %= n
    return j if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 2 with Selfridge's
    method A: D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1
    and Q = (1 - D)/4.  With n + 1 = d 2^s, d odd, a prime n has U_d = 0 or
    V_(d 2^r) = 0 (mod n) for some r < s (Baillie and Wagstaff, 1980)."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False  # D shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:
        return (x + n if x & 1 else x) // 2 % n

    # U_k, V_k and Q^k for k the leading bits of d, from k = 1 (P = 1)
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(D * u + v), qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


class PrimeField:
    """Arithmetic context for F_p.  Elements are canonical ints in [0, p)."""

    __slots__ = ("p", "char")
    log_form = False  # elements are not logs (see enumeration.LogField)
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = self.char = p

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}")
        return pow(a, -1, self.p)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p

# A Reducer divides by multiplying once its modulus has a degree above
# this: at degree 12 schoolbook division is still the faster, at 24
# (psi~_7) it takes twice as long (pow x^p and four reductions, p < 2^32).
PACK_THRESHOLD = 12
# Products with len(a) * len(b) at least this large go through Kronecker
# packing, whose fixed cost is a few microseconds; smaller ones, those
# modulo the oracle's primitive polynomials among them (degree k <= 9),
# stay schoolbook.
PACK_MIN_PRODUCT = 128
# Byte j of a little-endian run of 64-bit words sits at index j ^ _FLIP of
# the same words in native order.
_FLIP = 0 if sys.byteorder == "little" else 7


def poly_trim(a: Poly) -> Poly:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_deg(a: Poly) -> int:
    return len(a) - 1


def poly_sub(a: Poly, b: Poly, p: int) -> Poly:
    out = a + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return poly_trim(out)


def poly_scale(a: Poly, c: int, p: int) -> Poly:
    c %= p
    if c == 0:
        return []
    return poly_trim([ai * c % p for ai in a])


def poly_mul(a: Poly, b: Poly, p: int, keep: int | None = None) -> Poly:
    """a * b for coefficients in [0, p); with keep, only its low part
    a * b mod x^keep."""
    if keep is not None:  # no coefficient from keep up reaches below keep
        a, b = a[:keep], b[:keep]
    if not a or not b:
        return []
    if len(a) * len(b) >= PACK_MIN_PRODUCT:
        return _poly_mul_packed(a, b, p, keep)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return poly_trim([c % p for c in out[:keep]])


def _poly_mul_packed(a: Poly, b: Poly, p: int, keep: int | None = None) -> Poly:
    # Kronecker substitution: pack coefficients into one big integer per
    # operand so the convolution becomes a single bignum multiply.  Slots of
    # s bytes hold min(len) * (p-1)^2 without carries, so the low keep slots
    # of the product are the low keep coefficients, and masking the others
    # off before unpacking spares their copies and reductions.  A square
    # packs its operand once.  Packing and unpacking are strided byte copies
    # between s-byte slots and 64-bit words, so the only Python work per
    # coefficient is joining its words and reducing mod p.
    s = ((min(len(a), len(b)) * (p - 1) * (p - 1)).bit_length() + 7) // 8
    pa = _pack(a, s, p)
    pb = pa if b is a else _pack(b, s, p)
    n = len(a) + len(b) - 1
    prod = pa * pb
    if keep is not None and keep < n:
        n = keep
        prod &= (1 << (8 * s * n)) - 1
    w = (s + 7) // 8  # words per slot
    raw = prod.to_bytes(n * s, "little")
    words = bytearray(8 * w * n)
    for j in range(s):
        words[j ^ _FLIP :: 8 * w] = raw[j::s]
    view = memoryview(words).cast("Q")
    if w == 1:
        return poly_trim([c % p for c in view])
    # a slot spanning w words is joined from its columns, high word first
    high = view[w - 1 :: w]
    for k in range(w - 2, 0, -1):
        high = [hi << 64 | lo for hi, lo in zip(high, view[k::w])]
    return poly_trim([(hi << 64 | lo) % p for hi, lo in zip(high, view[::w])])


def _pack(a: Poly, s: int, p: int) -> int:
    """The integer sum(a[i] * 256^(s*i)) for coefficients in [0, p)."""
    if p >> 64:  # coefficients do not fit a machine word
        return int.from_bytes(b"".join(c.to_bytes(s, "little") for c in a), "little")
    words = array("Q", a).tobytes()
    slots = bytearray(s * len(a))
    for j in range(((p - 1).bit_length() + 7) // 8):  # the bytes p - 1 occupies
        slots[j::s] = words[j ^ _FLIP :: 8]
    return int.from_bytes(slots, "little")


def poly_divmod(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = [c % p for c in a]
    poly_trim(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [], a
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * (da - db + 1)
    r = a[:]
    for i in range(da - db, -1, -1):
        c = r[db + i] * inv_lead % p
        if c == 0:
            continue
        q[i] = c
        for j, bj in enumerate(b):
            r[i + j] = (r[i + j] - c * bj) % p
    return poly_trim(q), poly_trim(r)


def poly_mod(a: Poly, m: Poly, p: int) -> Poly:
    return poly_divmod(a, m, p)[1]


# no caller in the package; kept while the benchmark's layer list names it
def poly_invmod(a: Poly, m: Poly, p: int) -> Poly:
    """Inverse of a in F_p[x]/(m) by the extended Euclidean algorithm on
    (m, a mod m), carrying only a's cofactor u with r = u*a (mod m) for each
    remainder r; raises ZeroDivisionError when gcd(a, m) != 1."""
    r0, r1 = poly_trim([c % p for c in m]), poly_mod(a, m, p)
    u0, u1 = [], [1]
    while r1:
        q, r = poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, poly_sub(u0, poly_mul(q, u1, p), p)
    if poly_deg(r0) != 0:
        raise ZeroDivisionError(f"not invertible: gcd with m has degree {poly_deg(r0)}")
    return poly_scale(u0, pow(r0[0], p - 2, p), p)


class Reducer:
    """Remainders modulo a fixed modulus m of degree n in F_p[x].

    For n > PACK_THRESHOLD it holds inv = rev(m)^-1 mod x^(n-1), found once
    by Newton iteration (_inverse_series), and reduces a dividend of degree
    <= 2n - 2 with two truncated products: the quotient q is the low
    deg a - n + 1 coefficients of rev(a) * inv read backwards, and the
    remainder is a - q*m taken mod x^n, since the coefficients from x^n up
    cancel (von zur Gathen & Gerhard, Modern Computer Algebra, section 9.1).
    Longer dividends lose one top block of 2n - 1 coefficients at a time.
    Smaller moduli keep schoolbook division.
    """

    __slots__ = ("m", "p", "n", "inv")

    def __init__(self, m: Poly, p: int):
        self.m = poly_trim([c % p for c in m])
        if not self.m:
            raise ZeroDivisionError("polynomial division by zero")
        self.p = p
        self.n = poly_deg(self.m)
        self.inv = None
        if self.n > PACK_THRESHOLD:  # a full quotient has n - 1 coefficients
            self.inv = _inverse_series(self.m[::-1], self.n - 1, p)

    def reduce(self, a: Poly) -> Poly:
        """a mod m, for a trimmed a with coefficients in [0, p), as
        poly_mul returns them."""
        if self.inv is None:
            return poly_mod(a, self.m, self.p)
        n = self.n
        while len(a) > 2 * n - 1:
            s = len(a) - (2 * n - 1)
            a = poly_trim(a[:s] + self._reduce_block(a[s:]))
        if len(a) <= n:
            return a
        return poly_trim(self._reduce_block(a))

    def pow(self, base: Poly, e: int) -> Poly:
        """base^e mod m for e >= 0, squaring and multiplying from the most
        significant bit down, so every multiply is by the reduced base,
        cheap when that is short, like x^3 + ax + b.  A reduced base of x
        multiplies by a shift, less one multiple of m when the degree
        reaches n."""
        if e == 0:
            return [1]
        p, red, m = self.p, self.reduce, self.m
        base = red(poly_trim([c % p for c in base]))
        by_x = base == [0, 1]
        lead_inv = pow(m[-1], p - 2, p)
        result = base
        for bit in bin(e)[3:]:
            result = red(poly_mul(result, result, p))
            if bit == "0":
                continue
            if not by_x:
                result = red(poly_mul(result, base, p))
            elif len(result) < self.n:
                result = poly_trim([0] + result)
            else:  # x * result has degree n: take off the multiple of m that cancels it
                c = result[-1] * lead_inv % p
                result = poly_trim([(x - c * y) % p for x, y in zip([0] + result[:-1], m)])
        return result

    def _reduce_block(self, a: Poly) -> Poly:
        # n < len(a) <= 2n - 1 and a[-1] != 0; returns n coefficients
        n, p = self.n, self.p
        k = len(a) - n  # length of the quotient
        rev_q = poly_mul(a[: n - 1 : -1], self.inv, p, k)
        q = [0] * (k - len(rev_q)) + rev_q[::-1]
        qm = poly_mul(q, self.m, p, n)
        qm += [0] * (n - len(qm))
        return [(x - y) % p for x, y in zip(a, qm)]


def _inverse_series(f: Poly, k: int, p: int) -> Poly:
    """f^-1 mod x^k for f[0] != 0, by Newton iteration, which doubles the
    number of correct coefficients each step.  If g = f^-1 mod x^h, then
    f g = 1 + x^h e (mod x^2h), and g - x^h (g e mod x^h) is f^-1 mod x^2h:
    each step forms only e and the new half, from two truncated products."""
    g = [pow(f[0], p - 2, p)]  # f^-1 mod x^h, h coefficients with any zeros at the top
    h = 1
    while h < k:
        prec = min(2 * h, k)
        e = poly_mul(f, g, p, prec)[h:]
        ge = poly_mul(g, e, p, prec - h)
        g += [-c % p for c in ge] + [0] * (prec - h - len(ge))
        h = prec
    return poly_trim(g)


def poly_powmod(base: Poly, e: int, m: Poly, p: int) -> Poly:
    """base^e mod m by square-and-multiply; modulus degree must be >= 1."""
    if not m or poly_deg(m) < 1:
        raise ValueError("modulus must have degree >= 1")
    if e < 0:
        raise ValueError("negative exponent")
    return Reducer(m, p).pow(base, e)
