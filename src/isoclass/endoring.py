"""Endomorphism ring conductor of an ordinary curve over F_p.

The Frobenius tau = a + b*delta sits in an order of conductor g inside the
maximal order, g | b.  For a prime power c | b, the map (tau - a)/c is an
endomorphism exactly when tau acts as the scalar a mod c on the c-torsion,
and that holds exactly when g | b/c.  Testing it for growing prime powers
pins down every v_p(g).

The scalar test is one congruence in F_p[x] modulo psi~_c (modulo f, the
2-torsion, at c = 2), built from division polynomials, Schoof style; an
independent pointwise check over explicit torsion points backs it as an
oracle: it decides each c in the one extension F_(q^m), m = ord(a mod c),
that holds all of E[c] when the test passes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .curve import CONDUCTOR_BOUND, CapacityError, Curve
from .field import (
    PrimeField,
    Poly,
    Reducer,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_trim,
)
from .quadorder import FrobeniusData, _is_prime_power, factorize, mult_order


def division_polys(curve: Curve, ns: Iterable[int]) -> dict[int, Poly]:
    """Division polynomials psi~_n of a curve for each n in ns, as
    polynomials in x alone.

    psi~_n is the standard psi_n for odd n and psi_n/(2y) for even n (so
    psi~_2 = 1); the generic degrees are (n^2-1)/2 and (n^2-4)/2.  Roots of
    psi~_n are the x-coordinates of the nonzero n-torsion for odd n, and of
    the n-torsion off E[2] for even n.

    The doubling recursion builds psi~_n from the window psi~_(m-2..m+2),
    m = n // 2, so each requested n reaches only O(log n) windows.  The
    returned dict holds the requested polynomials and every one built on
    the way, psi~_0 .. psi~_4 included.
    """
    if not isinstance(curve.ctx, PrimeField):
        raise TypeError("division polynomials are built over the prime field")
    ns = list(ns)
    if any(n < 0 for n in ns):
        raise ValueError("division polynomial indices must be >= 0")
    p, a, b = curve.ctx.p, curve.a, curve.b
    f = poly_trim([b, a, 0, 1])  # x^3 + ax + b
    f2_16 = poly_scale(poly_mul(f, f, p), 16, p)
    psi: dict[int, Poly] = {
        0: [],
        1: [1],
        2: [1],
        3: poly_trim([-a * a % p, 12 * b % p, 6 * a % p, 0, 3]),
        4: poly_trim(
            [
                2 * (-8 * b * b - a * a * a) % p,
                2 * (-4 * a * b) % p,
                2 * (-5 * a * a) % p,
                2 * (20 * b) % p,
                2 * (5 * a) % p,
                0,
                2,
            ]
        ),
    }

    squares: dict[int, Poly] = {}  # psi~_k^2, each formed once

    def square(k: int) -> Poly:
        if k not in squares:
            squares[k] = poly_mul(psi[k], psi[k], p)
        return squares[k]

    def build(n: int) -> None:
        if n in psi:
            return
        m = n // 2
        for k in range(m - 2 + n % 2, m + 3):
            build(k)
        if n % 2 == 0:
            inner = poly_sub(
                poly_mul(psi[m + 2], square(m - 1), p),
                poly_mul(psi[m - 2], square(m + 1), p),
                p,
            )
            psi[n] = poly_mul(psi[m], inner, p)
        else:
            # the (2y)^4 = 16 f^2 of the even-indexed pair goes on its short
            # outer factor, and each term pairs operands of like degree
            hi, lo = psi[m + 2], psi[m - 1]
            if m % 2 == 0:
                hi = poly_mul(f2_16, hi, p)
            else:
                lo = poly_mul(f2_16, lo, p)
            t1 = poly_mul(poly_mul(hi, psi[m], p), square(m), p)
            t2 = poly_mul(poly_mul(lo, psi[m + 1], p), square(m + 1), p)
            psi[n] = poly_sub(t1, t2, p)

    for n in ns:
        build(n)
    return psi


def scalar_action_test(curve: Curve, frob: FrobeniusData, c: int) -> bool:
    """Whether tau acts as the scalar a mod c on E[c] (c a prime power
    dividing b), i.e. whether the order of conductor b/c contains tau scaled
    accordingly.  Equivalent to g | b/c for the true conductor g.

    Runs in F_p[x]/(m), m = psi~_c for c >= 3 and m = f at c = 2 (where
    psi~_2 = 1), with n = +-a mod c in [1, c/2], as the x-check
    x([n]P) = x^q.  The roots of m are the x of E[c] minus O for odd c and
    at c = 2, and of E[c] minus E[2] for even c >= 4.  With
    x([n]P) = x - psi~_(n-1) psi~_(n+1) / psi~_n^2 times 4f for odd n and
    over 4f for even n, it reads (x - x^q) psi~_n^2 (4f if n is even) =
    psi~_(n-1) psi~_(n+1) (4f if n is odd); for n = 1, psi~_0 = 0 leaves
    x^q = x.  Every denominator is a unit there, so the cross-multiplied
    check is exact.  The denominators are psi~_n and, for even n, f.  Since
    gcd(a, b) = 1 (a common prime would divide the prime q), n is coprime
    to c, so E[n] meets E[c] only in O and psi~_n shares no root with
    psi~_c.  The roots of f are the 2-torsion, which lies in E[c] only for
    even c, and then n is odd.

    The x-check alone decides.  It holds exactly when pi(P) = +-[n]P for
    every P whose x is a root of m.  For even c >= 4 that covers E[2]
    too: every Q in E[2] minus O is 2P for some P of order 4 in E[c], and
    pi(Q) = +-[2n]P = +-[n]Q = Q, since n is odd and -Q = Q.  So
    pi(P) = +-[n]P on all of E[c] minus O.  Then M = [n]^-1 pi is linear on
    E[c] = (Z/c)^2 and pointwise +-1: M e1 = s1 e1, M e2 = s2 e2 and
    M(e1 + e2) = s(e1 + e2) give s1 = s = s2 mod c, and for c >= 3 the
    differences, each 0 or +-2, vanish, so M = +-1.  If pi = [-a] on E[c],
    then (tau + a)/c = (2a + b delta)/c lies in End(E), inside the maximal
    order, so c | 2a; but gcd(a, c) = 1 and c >= 3.  Hence pi = [a] on
    E[c].  For c = 2, [a] = [-a] on E[2].

    Raises CapacityError for c > CONDUCTOR_BOUND, before building any
    division polynomial: the modulus psi~_c has degree about c^2/2.  c needs
    no check against the characteristic q: q | c | b would, by the norm
    q = a^2 + s a b - n b^2, give q | a, against gcd(a, b) = 1.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    if c == 1:
        return True
    if not isinstance(curve.ctx, PrimeField):
        raise TypeError("the action test runs over the prime base field")
    q = curve.ctx.p
    if frob.q != q:
        raise ValueError("Frobenius data does not match the curve's field")
    if frob.b % c != 0:
        raise ValueError(f"c = {c} must divide b = {frob.b}")
    if not _is_prime_power(c):
        raise ValueError(f"{c} is not a prime power")
    if c > CONDUCTOR_BOUND:
        raise CapacityError(f"prime power {c} exceeds the conductor bound {CONDUCTOR_BOUND}")

    n = min(frob.a % c, -frob.a % c)
    psi = division_polys(curve, [c, n - 1, n, n + 1])
    f = poly_trim([curve.b, curve.a, 0, 1])
    f4 = poly_scale(f, 4, q)
    reducer = Reducer(f if c == 2 else psi[c], q)
    # psi~_n and psi~_(n+-1) have degree below that of psi~_c, so only the
    # difference of the two sides needs a reduction
    pn2 = poly_mul(psi[n], psi[n], q)
    rhs = poly_mul(psi[n - 1], psi[n + 1], q)
    if n % 2 == 0:
        pn2 = poly_mul(f4, pn2, q)
    else:
        rhs = poly_mul(f4, rhs, q)
    lhs = poly_mul(poly_sub([0, 1], reducer.pow([0, 1], q), q), pn2, q)
    return not reducer.reduce(poly_sub(lhs, rhs, q))


def conductor(curve: Curve, frob: FrobeniusData) -> int:
    """Conductor g of End(E) inside the maximal order, via the scalar action
    test at growing prime powers: v_p(g) = v_p(b) - (largest i passing).
    Raises CapacityError before any test when a prime of b exceeds
    CONDUCTOR_BOUND, as the test at that prime would."""
    if curve.count_points() != frob.q + 1 - frob.t:
        raise ValueError("curve's point count does not match the Frobenius data")
    primes = sorted(factorize(frob.b).items())
    if primes and primes[-1][0] > CONDUCTOR_BOUND:
        raise CapacityError(f"prime {primes[-1][0]} of b exceeds the conductor bound {CONDUCTOR_BOUND}")
    return _first_failures(curve, frob, primes, scalar_action_test)


def _first_failures(
    curve: Curve,
    frob: FrobeniusData,
    primes: list[tuple[int, int]],
    test: Callable[[Curve, FrobeniusData, int], bool],
) -> int:
    """g from a prime-power action test: v_p(g) = v_p(b) - i, i the number
    of p^1, p^2, ... that pass before the first failure.  Passes are
    downward closed in the exponent, so no later one is tried."""
    g = 1
    for p, vb in primes:
        i = 0
        while i < vb and test(curve, frob, p ** (i + 1)):
            i += 1
        g *= p ** (vb - i)
    return g


def _torsion_action_test(curve: Curve, frob: FrobeniusData, c: int) -> bool:
    """Pointwise oracle for scalar_action_test at the prime power c = l^j
    dividing b: whether pi = [a mod c] on E[c], decided on explicit points
    of the one field F_(q^m), m = ord(a mod c).  gcd(a, c) = 1, since
    gcd(a, b) = 1.  If pi = [a] on E[c], then pi^m = [a^m] = 1 there, so
    all of E[c] is rational over F_(q^m); if it is not, c fails.

    Let S = <P> (+) <Q> be the l-Sylow basis over F_(q^m), ord P = l^ea >=
    ord Q = l^eb.  E[c](F_(q^m)) = S[c] has l^(min(ea,j) + min(eb,j))
    points, so all of E[c] is rational exactly when j <= eb, spanned then
    by [l^(ea-j)]P and [l^(eb-j)]Q.  pi - [a mod c] is an endomorphism, so
    it kills E[c] exactly when it kills those two generators.  The basis
    lives on the log-form curve of enumeration.sylow_basis, where pi
    multiplies both logs by q.  The listing raises CapacityError for
    q^m > ENUM_BOUND."""
    from . import enumeration

    ((l, j),) = factorize(c).items()
    E, (P, ea), (Q, eb) = enumeration.sylow_basis(curve, l, mult_order(frob.a, c))
    if eb < j:
        return False
    F, q, n = E.ctx, frob.q, frob.a % c
    gens = (E.scalar_mul(l ** (ea - j), P), E.scalar_mul(l ** (eb - j), Q))
    return all((F.pow(x, q), F.pow(y, q)) == E.scalar_mul(n, (x, y)) for x, y in gens)


def conductor_bruteforce(curve: Curve, frob: FrobeniusData) -> int:
    """Conductor from explicit torsion points, independent of the division
    polynomials: conductor's first-failure loop over _torsion_action_test,
    meant as its oracle on small inputs.  Raises CapacityError when a tested
    c needs a field F_(q^m), m = ord(a mod c), of more than ENUM_BOUND
    elements."""
    if curve.count_points() != frob.q + 1 - frob.t:
        raise ValueError("curve's point count does not match the Frobenius data")
    return _first_failures(curve, frob, sorted(factorize(frob.b).items()), _torsion_action_test)
