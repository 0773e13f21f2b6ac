"""The Frobenius of an ordinary elliptic curve as an element of an
imaginary quadratic order, plus the integer valuation toolkit used by the
isomorphism criteria.

The Frobenius tau, with t^2 - 4q = c^2 * m and m < 0 squarefree, lives in
Z[delta] where delta = sqrt(m) when m = 2, 3 (mod 4) and delta =
(1 + sqrt(m))/2 when m = 1 (mod 4).  It is stored as the integer pair
tau = a + b*delta, and all arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .field import is_prime

_TRIAL_BOUND = 1 << 10  # trial division below this, Pollard rho above
_RHO_BATCH = 128  # rho steps per gcd
# Rho steps one factorize call may take.  A prime factor p takes a small
# multiple of sqrt(p) steps: 2^16-2^17 for p near 2^31, the largest least
# factor of a composite below 4*10^18; factors up to about 2^38 are found
# within the budget.  Spending it all takes 1.3-1.7 s on 95- to 127-bit n
# on a 2-core x86 host.
_RHO_BUDGET = 1 << 21


class SupersingularError(ValueError):
    """The (q, t) pair fails the ordinarity condition gcd(t, q) = 1."""


class CapacityError(RuntimeError):
    """A computation would exceed one of the program's capacity bounds."""


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer (taken on |n|)."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p < 2:
        raise ValueError("p must be >= 2")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _pollard_rho(n: int, budget: int) -> tuple[int, int]:
    """(d, steps): a proper factor d of the odd composite n and the steps
    of x -> x^2 + c mod n spent finding it.

    Brent's cycle finding (Brent, BIT 20 (1980)): y runs r = 1, 2, 4, ...
    steps past x, and the differences x - y are multiplied together, one
    gcd with n per batch of _RHO_BATCH steps.  A batch whose product hits
    0 mod n is walked again one gcd per step; when even that gives n, the
    next c is tried.  Raises CapacityError past `budget` steps.
    """
    steps = 0
    c = 0
    while True:
        c += 1
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > budget:
                raise CapacityError(f"factoring {n} exceeds the budget of {_RHO_BUDGET} Pollard rho steps")
            steps += 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = math.gcd(prod, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, steps


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1: trial division below 2^10, then
    Pollard rho in Brent's form on what is left.  Raises CapacityError when
    the rho steps exceed _RHO_BUDGET, as they do on a cofactor whose least
    prime factor is much above 2^38."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    # wheel over residues coprime to 30
    steps = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < _TRIAL_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += steps[i]
        i = (i + 1) % 8
    budget = _RHO_BUDGET
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f, spent = _pollard_rho(m, budget)
        budget -= spent
        stack += (f, m // f)
    return out


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write a negative integer n as c^2 * m with m < 0 squarefree, c >= 1.

    Returns (m, c).
    """
    if n >= 0:
        raise ValueError("expected a negative integer")
    c = 1
    m = 1
    for p, e in factorize(-n).items():
        c *= p ** (e // 2)
        if e % 2:
            m *= p
    return -m, c


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by integer Newton steps from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _is_prime_power(q: int) -> bool:
    # q >= 2; q = r^k needs 2^k <= q, so k < bit_length(q); no factoring needed
    for k in range(1, q.bit_length()):
        r = _iroot(q, k)
        if r**k == q and is_prime(r):
            return True
    return False


def mult_order(a: int, n: int) -> int:
    """Multiplicative order of a modulo n >= 2."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    e = 1  # phi(n), then divided by its primes while a^e stays 1
    for p, k in factorize(n).items():
        e *= (p - 1) * p ** (k - 1)
    for p in factorize(e):
        while e % p == 0 and pow(a, e // p, n) == 1:
            e //= p
    return e


# ---------------------------------------------------------------------------
# the Frobenius tau = a + b*delta in the maximal order of Q(sqrt(m))

SQRT = "sqrt"  # delta = sqrt(m),       delta^2 = m            (m = 2, 3 mod 4)
HALF = "half"  # delta = (1+sqrt(m))/2, delta^2 = delta + (m-1)/4  (m = 1 mod 4)


def delta_kind(m: int) -> str:
    if m >= 0:
        raise ValueError("m must be negative")
    return HALF if m % 4 == 1 else SQRT


@dataclass(frozen=True)
class FrobeniusData:
    """A Frobenius element tau = a + b*delta of norm q and trace t.

    Built by frobenius_from_trace (which normalizes b > 0) or by squaring an
    existing Frobenius (nasty_reduce keeps the raw components, so b may be
    negative there).  gcd(a, b) = 1 holds for every ordinary (q, t).  m is
    checked for square factors p^2 with p <= 13 only; frobenius_from_trace
    makes it squarefree by factoring.  Powers never touch delta: they are
    taken in the basis {1, tau} with tau^2 = t*tau - q.
    """

    q: int
    t: int
    a: int
    b: int
    m: int

    def __post_init__(self):
        # delta^2 = s*delta + n
        s, n = (0, self.m) if self.kind == SQRT else (1, (self.m - 1) // 4)
        a, b = self.a, self.b
        if math.gcd(self.t, self.q) != 1:
            raise SupersingularError(f"gcd(t, q) > 1 for q={self.q}, t={self.t}")
        # at norm q and trace t, a common factor of a and b would divide
        # gcd(t, q): checked before the norm, or the norm check would hide it
        if math.gcd(a, b) != 1:
            raise ValueError("gcd(a, b) != 1 should be impossible for ordinary input")
        if a * a + s * a * b - n * b * b != self.q:
            raise ValueError("norm does not equal q")
        if 2 * a + s * b != self.t:
            raise ValueError("trace does not equal t")
        if self.t * self.t >= 4 * self.q:
            raise ValueError("t^2 must be < 4q")
        if any(self.m % (p * p) == 0 for p in (2, 3, 5, 7, 11, 13)):
            raise ValueError("m must be squarefree")

    @property
    def kind(self) -> str:
        return delta_kind(self.m)

    def _tau_pow(self, k: int) -> tuple[int, int]:
        """(x, y) with tau^k = x + y*tau, by square-and-multiply from the top
        bit of k down on tau^2 = t*tau - q; y = u_k and x = -q*u_(k-1) for
        the Lucas sequence u_(k+1) = t*u_k - q*u_(k-1), u_0 = 0, u_1 = 1."""
        if k < 0:
            raise ValueError("negative powers leave the order")
        q, t = self.q, self.t
        x, y = 1, 0
        for bit in bin(k)[2:]:
            x, y = x * x - q * y * y, y * (2 * x + t * y)
            if bit == "1":
                x, y = -q * y, x + t * y
        return x, y

    def power(self, k: int) -> tuple[int, int]:
        """Components (a_k, b_k) of tau^k = a_k + b_k*delta."""
        x, y = self._tau_pow(k)
        return x + y * self.a, y * self.b

    def powers(self, kmax: int):
        """power(k) for k = 1..kmax, stepped once per k on plain ints:
        tau^(k+1) = tau * (x + y*tau) = -q*y + (x + t*y)*tau."""
        q, t, a, b = self.q, self.t, self.a, self.b
        x, y = 1, 0
        for _ in range(kmax):
            x, y = -q * y, x + t * y
            yield x + y * a, y * b

    def point_count(self, k: int = 1) -> int:
        """|E(F_{q^k})| = norm(tau^k - 1) = q^k + 1 - trace(tau^k)."""
        x, y = self._tau_pow(k)
        return self.q**k + 1 - (2 * x + self.t * y)


def frobenius_from_trace(q: int, t: int) -> FrobeniusData:
    """Frobenius data for an ordinary curve over F_q with trace t.

    q must be a prime power (checked without factoring): ordinarity is then
    exactly gcd(t, q) = 1.  Rejects supersingular traces distinctly and
    rejects t^2 >= 4q.  The returned b is positive.
    """
    if q < 2 or not _is_prime_power(q):
        raise ValueError(f"q = {q} is not a prime power")
    if math.gcd(t, q) != 1:
        raise SupersingularError(f"supersingular: gcd(t, q) > 1 for q={q}, t={t}")
    disc = t * t - 4 * q
    if disc >= 0:
        raise ValueError(f"t^2 - 4q = {disc} is not negative")
    m, c = squarefree_decompose(disc)
    if delta_kind(m) == SQRT:
        # t and c are both even here: t^2 = c^2 m (mod 4) forces it
        a, b = t // 2, c // 2
    else:
        a, b = (t - c) // 2, c
    return FrobeniusData(q=q, t=t, a=a, b=b, m=m)
