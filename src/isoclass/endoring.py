"""Endomorphism ring conductor of an ordinary curve over F_p.

The Frobenius tau = a + b*delta sits in an order of conductor g inside the
maximal order, g | b.  For a prime power c | b, the map (tau - a)/c is an
endomorphism exactly when tau acts as the scalar a mod c on the c-torsion,
and that holds exactly when g | b/c.  Testing it for growing prime powers
pins down every v_p(g).

The scalar test is one congruence in F_p[x] modulo psi~_c (modulo f, the
2-torsion, at c = 2), built from division polynomials, Schoof style; an
independent pointwise check over explicit torsion points in extension
fields backs it as an oracle.
"""

from __future__ import annotations

from collections.abc import Iterable

from .curve import CONDUCTOR_BOUND, ENUM_BOUND, CapacityError, Curve
from .field import (
    PrimeField,
    Poly,
    Reducer,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_trim,
)
from .quadorder import FrobeniusData, _is_prime_power, factorize


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

    def build(n: int) -> None:
        if n in psi:
            return
        m = n // 2
        for k in range(m - 2 + n % 2, m + 3):
            build(k)
        if n % 2 == 0:
            inner = poly_sub(
                poly_mul(psi[m + 2], poly_mul(psi[m - 1], psi[m - 1], p), p),
                poly_mul(psi[m - 2], poly_mul(psi[m + 1], psi[m + 1], p), p),
                p,
            )
            psi[n] = poly_mul(psi[m], inner, p)
        else:
            cube_m = poly_mul(psi[m], poly_mul(psi[m], psi[m], p), p)
            cube_m1 = poly_mul(psi[m + 1], poly_mul(psi[m + 1], psi[m + 1], p), p)
            t1 = poly_mul(psi[m + 2], cube_m, p)
            t2 = poly_mul(psi[m - 1], cube_m1, p)
            if m % 2 == 0:
                psi[n] = poly_sub(poly_mul(f2_16, t1, p), t2, p)
            else:
                psi[n] = poly_sub(t1, poly_mul(f2_16, t2, p), p)

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
    division polynomial: the modulus psi~_c has degree about c^2/2.
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
    if c % q == 0:
        raise ValueError("c must be coprime to the characteristic")
    if not _is_prime_power(c):
        raise ValueError(f"{c} is not a prime power")
    if c > CONDUCTOR_BOUND:
        raise CapacityError(f"prime power {c} exceeds the conductor bound {CONDUCTOR_BOUND}")

    n = min(frob.a % c, -frob.a % c)
    psi = division_polys(curve, [c, n - 1, n, n + 1])
    f = poly_trim([curve.b, curve.a, 0, 1])
    f4 = poly_scale(f, 4, q)
    reducer = Reducer(f if c == 2 else psi[c], q)
    red = reducer.reduce
    pn = red(psi[n])
    lhs = poly_sub([0, 1], reducer.pow([0, 1], q), q)
    lhs = red(poly_mul(lhs, red(poly_mul(pn, pn, q)), q))
    rhs = red(poly_mul(red(psi[n - 1]), red(psi[n + 1]), q))
    if n % 2 == 0:
        lhs = red(poly_mul(f4, lhs, q))
    else:
        rhs = red(poly_mul(f4, rhs, q))
    return lhs == rhs


def conductor(curve: Curve, frob: FrobeniusData) -> int:
    """Conductor g of End(E) inside the maximal order, via the scalar action
    test at growing prime powers: v_p(g) = v_p(b) - (largest i passing)."""
    if curve.count_points() != frob.q + 1 - frob.t:
        raise ValueError("curve's point count does not match the Frobenius data")
    g = 1
    for p, vb in sorted(factorize(frob.b).items()):
        i = 0
        # passes are downward closed in i, so stop at the first failure
        while i < vb and scalar_action_test(curve, frob, p ** (i + 1)):
            i += 1
        g *= p ** (vb - i)
    return g


def _full_torsion_action(curve: Curve, frob: FrobeniusData, lp: int, jmax: int) -> list[bool]:
    """Pointwise oracle for c = lp^j, j = 1..jmax, in one walk up the
    extensions: each j is decided in the smallest extension F containing all
    of E[c].  By the Weil pairing E[c] fits in F_{q^m} only if c | q^m - 1,
    so other m are skipped unlisted.  The walk stops with CapacityError
    once q^m passes ENUM_BOUND.

    Let S = <P> (+) <Q> be the lp-Sylow basis over F, ord P = lp^ea >=
    ord Q = lp^eb.  E[lp^j](F) = S[lp^j] has lp^(min(ea,j) + min(eb,j))
    points, so all of E[lp^j] is rational exactly when j <= eb, spanned then
    by [lp^(ea-j)]P and [lp^(eb-j)]Q.  pi - [a mod c] is an endomorphism, so
    it kills E[c] exactly when it kills those two generators.  The basis
    lives on the log-form curve of enumeration.sylow_basis, where pi
    multiplies both logs by q mod q^m - 1."""
    from . import enumeration

    q = frob.q
    passes: list[bool] = []
    m = 0
    size = 1
    while len(passes) < jmax:
        m += 1
        size *= q
        c = lp ** (len(passes) + 1)
        if size > ENUM_BOUND:
            raise CapacityError(
                f"E[{c}] does not appear within the enumeration ceiling {ENUM_BOUND}"
            )
        if (size - 1) % c:
            continue
        E, (P, ea), (Q, eb) = enumeration.sylow_basis(curve, lp, m)
        F = E.ctx
        for j in range(len(passes) + 1, min(eb, jmax) + 1):
            n = frob.a % lp**j
            gens = (E.scalar_mul(lp ** (ea - j), P), E.scalar_mul(lp ** (eb - j), Q))
            passes.append(
                all((F.pow(x, q), F.pow(y, q)) == E.scalar_mul(n, (x, y)) for x, y in gens)
            )
    return passes


def conductor_bruteforce(curve: Curve, frob: FrobeniusData) -> int:
    """Conductor computed from explicit torsion points in extension fields.

    Independent of the division-polynomial route; meant as its oracle on
    small inputs.  Raises CapacityError when a needed torsion field has
    more than ENUM_BOUND elements.
    """
    if curve.count_points() != frob.q + 1 - frob.t:
        raise ValueError("curve's point count does not match the Frobenius data")
    g = 1
    for p, vb in sorted(factorize(frob.b).items()):
        passes = _full_torsion_action(curve, frob, p, vb)
        i = 0
        while i < vb and passes[i]:
            i += 1
        if any(passes[i:]):
            raise AssertionError("action passes must be downward closed in the exponent")
        g *= p ** (vb - i)
    return g
