"""Number theory for the benchmark, written apart from isoclass.

Input generation and the correctness checks use only this module, so no
expected value comes from the code under test.  Point counts are
vectorised with numpy; everything else is plain integer arithmetic.
"""

from __future__ import annotations

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor(n: int) -> dict[int, int]:
    """Factorisation by trial division; the benchmark only factors n < 1e13."""
    if not 1 <= n < 10**13:
        raise ValueError(f"factor: {n} out of range")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def val(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_primitive_root(r: int, p: int) -> bool:
    return all(pow(r, (p - 1) // f, p) != 1 for f in factor(p - 1))


def elements_of_order(e: int, p: int) -> list[int]:
    """Residues of exact multiplicative order e modulo the prime p."""
    fs = factor(e)
    return [
        r
        for r in range(2, p)
        if pow(r, e, p) == 1 and all(pow(r, e // f, p) != 1 for f in fs)
    ]


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


# ---------------------------------------------------------------------------
# curves y^2 = x^3 + A x + B over F_q, q prime


def _chi_table(q: int) -> np.ndarray:
    chi = np.full(q, -1, dtype=np.int8)
    z = np.arange(1, (q - 1) // 2 + 1, dtype=np.int64)
    chi[z * z % q] = 1
    chi[0] = 0
    return chi


def _cubic_values(q: int, A: int) -> np.ndarray:
    x = np.arange(q, dtype=np.int64)
    return ((x * x % q) * x + A * x) % q


def count_points(q: int, A: int, B: int) -> int:
    """|E(F_q)| = q + 1 + sum over x of the quadratic character of x^3+Ax+B."""
    r = (_cubic_values(q, A % q) + B % q) % q
    return q + 1 + int(_chi_table(q)[r].sum(dtype=np.int64))


def counts_for_bs(q: int, A: int, bs: np.ndarray) -> np.ndarray:
    """|E_{A,B}(F_q)| for every B in bs at once (small q only)."""
    base = _cubic_values(q, A % q)
    r = (base[:, None] + bs[None, :]) % q
    return q + 1 + _chi_table(q)[r].sum(axis=0, dtype=np.int64)


def cubic_roots(q: int, A: int, B: int) -> int:
    """Number of roots of x^3 + Ax + B in F_q, i.e. of rational 2-torsion points."""
    return int(np.count_nonzero((_cubic_values(q, A % q) + B % q) % q == 0))


def nonsingular(q: int, A: int, B: int) -> bool:
    return (4 * A**3 + 27 * B * B) % q != 0


def two_isogenous(q: int, x0: int, c: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """E: y^2 = (x - x0)(x^2 + x0 x + c) and its quotient by (x0, 0) (Velu),
    both in short Weierstrass form."""
    A, B = (c - x0 * x0) % q, (-x0 * c) % q
    # moved to x -> x + x0: y^2 = x^3 + 3 x0 x^2 + (3 x0^2 + A) x; the quotient
    # of y^2 = x^3 + s x^2 + u x by (0, 0) is y^2 = x^3 - 2 s x^2 + (s^2 - 4u) x
    s, u = 3 * x0 % q, (3 * x0 * x0 + A) % q
    a2, a4 = -2 * s % q, (s * s - 4 * u) % q
    inv3, inv27 = pow(3, -1, q), pow(27, -1, q)
    A2 = (a4 - a2 * a2 * inv3) % q
    B2 = (2 * a2**3 * inv27 - a2 * a4 * inv3) % q
    return (A, B), (A2, B2)


def frobenius(q: int, t: int) -> tuple[int, int, int]:
    """(a, b, m) with tau = a + b delta of trace t and norm q, b > 0; delta is
    sqrt(m) for m = 2, 3 mod 4 and (1 + sqrt(m))/2 for m = 1 mod 4."""
    disc = t * t - 4 * q
    m, c = -1, 1
    for p, e in factor(-disc).items():
        c *= p ** (e // 2)
        m *= p ** (e % 2)
    if m % 4 == 1:
        return (t - c) // 2, c, m
    return t // 2, c // 2, m


def _add(P, Q, A: int, q: int):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % q == 0:
            return None
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, q) % q
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, q) % q
    x3 = (lam * lam - x1 - x2) % q
    return x3, (lam * (x1 - x3) - y1) % q


def mul(n: int, P, A: int, q: int):
    """[n]P by double-and-add in affine coordinates (None is infinity)."""
    R = None
    while n:
        if n & 1:
            R = _add(R, P, A, q)
        P = _add(P, P, A, q)
        n >>= 1
    return R


def random_point(rng, q: int, A: int, B: int):
    while True:
        x = rng.randrange(q)
        y = sqrt_mod(x * x * x + A * x + B, q)
        if y is not None:
            return x, y


# ---------------------------------------------------------------------------
# the quadratic order Z[delta], arithmetic modulo an integer M


def order_mul(u, v, m: int, M: int):
    (x1, y1), (x2, y2) = u, v
    if m % 4 == 1:  # delta^2 = delta + (m - 1)/4
        return (x1 * x2 + (m - 1) // 4 * y1 * y2) % M, (x1 * y2 + x2 * y1 + y1 * y2) % M
    return (x1 * x2 + m * y1 * y2) % M, (x1 * y2 + x2 * y1) % M


def order_pow(u, k: int, m: int, M: int):
    r = (1 % M, 0)
    while k:
        if k & 1:
            r = order_mul(r, u, m, M)
        u = order_mul(u, u, m, M)
        k >>= 1
    return r


def norm(a: int, b: int, m: int) -> int:
    if m % 4 == 1:
        return a * a + a * b + b * b * (1 - m) // 4
    return a * a - m * b * b


def trace(a: int, b: int, m: int) -> int:
    return 2 * a + b if m % 4 == 1 else 2 * a


def weil_counts(q: int, t: int, kmax: int) -> list[int]:
    """|E(F_{q^k})| for k = 1..kmax from t_{k+1} = t t_k - q t_{k-1}."""
    ts = [2, t]
    while len(ts) <= kmax:
        ts.append(t * ts[-1] - q * ts[-2])
    return [q**k + 1 - ts[k] for k in range(1, kmax + 1)]
