"""Short Weierstrass curves y^2 = x^3 + a*x + b over prime fields, and over
the log-form extension fields of the enumeration oracle
(enumeration.LogField).  Points are None (infinity) or (x, y) pairs of
field elements.

Characteristic > 3 is required: the short model does not cover char 2 and 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, lcm

from .field import PrimeField
from .quadorder import CapacityError, factorize

COUNT_BOUND = 10**18  # largest q that count_points takes
SWEEP_BOUND = 229  # largest q counted by a sweep over every x
CONDUCTOR_BOUND = 211  # largest prime power c the conductor's scalar test takes
# Largest field size q^k whose points the enumeration oracle lists.  The
# oracle peaks near 30 MB + 4 bytes per element of F_(q^k), the Zech table,
# and 4 more at k = 1: 46 MiB and 0.35 s for `oracle 1999:1,1 1999:1,1
# --kmax 2`, and 60 MiB and 0.41 s for `oracle 3999971:1,1 3999971:1,1
# --kmax 1`, on a 2-core x86-64 host.  The listing and the Zech table build
# hold logs up to 3(q^k - 1) in int32, so this must stay below 2^31 / 3;
# the listing's orbit table holds p^d c < 1.25 q^k, and the table build's
# int32 sums, at most k (p - 1)^2 for k >= 2, stay far below 2^31 under it.
ENUM_BOUND = 4 * 10**6


def _check_enum_ceiling(q: int, k: int) -> None:
    """Raises CapacityError for q^k > ENUM_BOUND.  q >= 2, so q^k exceeds it
    once k >= ENUM_BOUND.bit_length(), which is tested first: no huge power."""
    if k >= ENUM_BOUND.bit_length() or q**k > ENUM_BOUND:
        raise CapacityError(f"field size {q}^{k} exceeds the enumeration ceiling {ENUM_BOUND}")


class SingularCurveError(ValueError):
    """4a^3 + 27b^2 = 0: the cubic has a repeated root."""


@dataclass(frozen=True)
class GroupStructure:
    """E(F) as Z/n1 x Z/n2 with n1 | n2 (n1 = 1 means cyclic)."""

    n1: int
    n2: int

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("invariant factors must be positive")
        if self.n2 % self.n1 != 0:
            raise ValueError("n1 must divide n2")


class Curve:
    """y^2 = x^3 + a*x + b over the field context ctx."""

    __slots__ = ("ctx", "a", "b", "_count")

    def __init__(self, ctx, a, b):
        if ctx.char <= 3:
            raise ValueError("short Weierstrass model needs characteristic > 3")
        # an int is an integer to read into the field, except over a field
        # in log form (enumeration.LogField), whose elements are ints
        if not ctx.log_form:
            if isinstance(a, int):
                a = ctx.from_int(a)
            if isinstance(b, int):
                b = ctx.from_int(b)
        self.ctx = ctx
        self.a = a
        self.b = b
        self._count = None
        F = ctx
        disc = F.add(
            F.mul(F.from_int(4), F.mul(a, F.mul(a, a))),
            F.mul(F.from_int(27), F.mul(b, b)),
        )
        if disc == F.zero:
            raise SingularCurveError(f"curve {self} is singular")

    def __repr__(self) -> str:
        return f"y^2 = x^3 + {self.a}*x + {self.b} over {self.ctx!r}"

    def rhs(self, x):
        F = self.ctx
        return F.add(F.mul(x, F.mul(x, x)), F.add(F.mul(self.a, x), self.b))

    def contains(self, P) -> bool:
        if P is None:
            return True
        x, y = P
        return self.ctx.mul(y, y) == self.rhs(x)

    def _require(self, P):
        if not self.contains(P):
            raise ValueError(f"point {P} is not on {self}")

    def neg(self, P):
        if P is None:
            return None
        x, y = P
        return (x, self.ctx.neg(y))

    def add(self, P, Q):
        self._require(P)
        self._require(Q)
        return self._add(P, Q)

    def _add(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        F = self.ctx
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if y1 == F.neg(y2):
                return None  # covers y1 = y2 = 0 as well
            # tangent slope (3*x1^2 + a) / (2*y1)
            num = F.add(F.mul(F.from_int(3), F.mul(x1, x1)), self.a)
            den = F.mul(F.from_int(2), y1)
        else:
            num = F.sub(y2, y1)
            den = F.sub(x2, x1)
        lam = F.mul(num, F.inv(den))
        x3 = F.sub(F.sub(F.mul(lam, lam), x1), x2)
        y3 = F.sub(F.mul(lam, F.sub(x1, x3)), y1)
        return (x3, y3)

    def scalar_mul(self, n: int, P):
        self._require(P)
        if n < 0:
            n, P = -n, self.neg(P)
        result = None
        addend = P
        while n:
            if n & 1:
                result = self._add(result, addend)
            addend = self._add(addend, addend)
            n >>= 1
        return result

    # -- point counting (prime fields) --

    def count_points(self) -> int:
        """|E(F_p)|, counted once per curve and kept (the curve is
        immutable): by baby-step giant-step on E and its twist for
        p > SWEEP_BOUND, by a sweep over every x below.  Raises
        CapacityError for p > COUNT_BOUND."""
        if not isinstance(self.ctx, PrimeField):
            raise TypeError("count_points runs over the prime base field")
        if self._count is None:
            p = self.ctx.p
            if p > COUNT_BOUND:
                raise CapacityError(f"q = {p} exceeds the point-count bound {COUNT_BOUND}")
            if p <= SWEEP_BOUND:
                self._count = _count_sweep(p, self.a, self.b)
            else:
                self._count = _count_mestre(self)
        return self._count


def _count_sweep(p: int, a: int, b: int) -> int:
    sq = bytearray(p)
    for z in range(p // 2 + 1):
        sq[z * z % p] = 1
    count = 1
    for x in range(p):
        r = (x * x * x + a * x + b) % p
        if r == 0:
            count += 1
        elif sq[r]:
            count += 2
    return count


def _count_mestre(curve: Curve) -> int:
    """|E(F_p)| for p > SWEEP_BOUND by Shanks-Mestre baby-step giant-step
    (Schoof, JTNB 7, 1995).

    Points come from x = 0, 1, 2, ...: for r = f(x) != 0, (r*x, r^2) lies on
    E_r: y^2 = x^3 + a r^2 x + b r^3.  For r = s^2, (X, Y) -> (s^2 X, s^3 Y)
    maps E onto E_r and (x, s) to (r*x, r^2); else E_r is the quadratic
    twist, of order 2p + 2 - N.  L and L2 are the lcms of the point orders
    found on E and on the twist.  For p > 229 one of the two group exponents
    has a single multiple in the Hasse interval (Cremona-Sutherland, JTNB
    22, 2010), so the candidates narrow to N once L and L2 reach the
    exponents; every x is eventually tried, so they do."""
    F = curve.ctx
    p = F.p
    L = L2 = 1
    first, step, n = _candidates(p, L, L2)
    for x in range(p):
        r = curve.rhs(x)
        if r == 0:
            continue
        e_r = Curve(F, curve.a * r * r, curve.b * r * r * r)
        P = (r * x % p, r * r % p)
        if pow(r, (p - 1) // 2, p) == 1:
            L = lcm(L, _order_in(e_r, P, first, step, n))
        else:
            L2 = lcm(L2, _order_in(e_r, P, 2 * p + 2 - first, -step, n))
        first, step, n = _candidates(p, L, L2)
        if n == 1:
            return first
    raise AssertionError(f"no unique point count for {curve}")


def _candidates(p: int, L: int, L2: int) -> tuple[int, int, int]:
    """The N in the Hasse interval with L | N and L2 | 2p + 2 - N, as
    (first, step, n): N = first + k*step for 0 <= k < n."""
    w = isqrt(4 * p)
    g = gcd(L, L2)
    step = L // g * L2
    # L*u is 0 mod L and 2p + 2 mod L2 (g divides 2p + 2, as it divides N
    # and 2p + 2 - N)
    u = (2 * p + 2) // g * pow(L // g, -1, L2 // g) % (L2 // g)
    first = p + 1 - w + (L * u - (p + 1 - w)) % step
    return first, step, (p + 1 + w - first) // step + 1


def _order_in(curve: Curve, P, first: int, step: int, n: int) -> int:
    """The order of P, given that some first + k*step with 0 <= k < n kills
    it: baby-step giant-step finds one such multiple, and its prime
    factors are divided out while P stays killed."""
    m = isqrt(n - 1) + 1  # m * m >= n
    Q = curve.scalar_mul(step, P)
    baby: dict = {}
    R = None
    for j in range(m):
        baby.setdefault(R, j)  # R = [j]Q
        R = curve._add(R, Q)
    giant = curve.neg(R)
    T = curve.scalar_mul(-first, P)
    for i in range(m):
        # T = -[first + i*m*step]P, so T = [j]Q means first + (i*m + j)*step kills P
        if T in baby:
            order = first + (i * m + baby[T]) * step
            break
        T = curve._add(T, giant)
    else:
        raise AssertionError(f"no multiple of the order of {P} among the candidates")
    for l in factorize(order):
        while order % l == 0 and curve.scalar_mul(order // l, P) is None:
            order //= l
    return order

