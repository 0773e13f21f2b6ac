"""Exhaustive point enumeration and l-Sylow structure: the brute-force oracle.

Group structures and torsion subgroups of E(F_{p^k}) are read off the list
of every point, with no input from the Frobenius-based predictions they are
used to cross-check.  Fields larger than ENUM_BOUND (curve.py) are refused
with CapacityError before any table is built; `isoclass oracle` and
endoring.conductor_bruteforce check the same ceiling before listing.

The listing is vectorized with numpy.  Field elements are held in
discrete-log form: a nonzero element is its log base a fixed generator
(in [0, q-2]) and zero is the log q - 1.  Multiplication is log addition,
and addition goes through a Zech logarithm table zech[d] = log(1 + g^d),
so x^3 + ax + b over every x is two gathers of zech, with numpy wrapping
the indices mod q - 1; its log is even exactly for the nonzero squares.
The listing's length gives N = |E(F)|.

The structure then comes from a few listed points and plain Curve
arithmetic.  For each l^e || N the rows, in order, are pushed into the
l-Sylow subgroup S by the cofactor N/l^e, and a basis S = <P> (+) <Q> is
grown by Pohlig-Hellman reduction in the cyclic group <P> until it has
l^e elements.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

import numpy as np

from .curve import ENUM_BOUND, Curve, GroupStructure
from .quadorder import CapacityError, factorize, vp


def _find_generator(ctx):
    """The generator of F^* with the smallest code."""
    n = ctx.size - 1
    fac = factorize(n)
    # codes below p are constants of F_p^*, which cannot generate F_{p^k}^*
    for code in range(2 if ctx.degree == 1 else ctx.char, ctx.size):
        elt = ctx.decode(code)
        if all(ctx.pow(elt, n // l) != ctx.one for l in fac):
            return elt
    raise AssertionError("no generator found")


@lru_cache(maxsize=4)
def _field_logs(ctx):
    """(exp, dlog, zech) for F = ctx on logs base _find_generator(ctx),
    n = q - 1 standing for zero: exp[l] is the code of g^l (exp[n] = 0),
    dlog its inverse and zech[d] = log(1 + g^d) for d in [0, n)."""
    p, k, q = ctx.char, ctx.degree, ctx.size
    if p <= 3:
        raise ValueError("log-table enumeration needs characteristic > 3")
    n = q - 1
    radix = p ** np.arange(k, dtype=np.int64)

    gen = _find_generator(ctx)
    digits = np.zeros((n, k), dtype=np.int64)
    digits[0, 0] = 1
    t = 1
    while t < n:
        m = min(t, n - t)
        gt = ctx.pow(gen, t)
        # row i of M holds the coefficients of x^i * g^t
        codes = [ctx.encode(ctx.mul(ctx.decode(p**i), gt)) for i in range(k)]
        M = np.array(codes, dtype=np.int64)[:, None] // radix % p
        digits[t : t + m] = digits[:m] @ M % p
        t += m
    exp = np.zeros(n + 1, dtype=np.int32)  # codes are below ENUM_BOUND
    np.matmul(digits, radix, out=exp[:n])
    dlog = np.full(q, -1, dtype=np.int32)
    dlog[exp] = np.arange(n + 1, dtype=np.int32)
    if np.any(dlog < 0):
        raise AssertionError("generator powers do not cover the field")
    # 1 + g^l adds 1 to the constant digit of g^l, which wraps from p - 1 to 0
    plus1 = exp[:n] + 1
    plus1[digits[:, 0] == p - 1] -= p
    zech = dlog[plus1]
    if int(dlog[ctx.encode(ctx.neg(ctx.one))]) != n // 2:
        raise AssertionError("log(-1) mismatch")
    return exp, dlog, zech


def _listed_points(curve: Curve):
    """N = |E(F)| and a function that yields the affine points, decoded one
    at a time in row order: the y = 0 points, then one point of each +-y
    pair, then their negations.  Raises CapacityError for |F| > ENUM_BOUND.

    x = 0 (rhs = b) is listed apart; the arrays run over x = g^i, i in
    [0, n).  With la = log a, x^2 + a = a (1 + g^(2i - la)) depends only on
    i mod n/2, so one wrapped gather of zech on n/2 entries gives
    u = i + la + zech[2i - la], the log of x^3 + ax (3i when a = 0), and a
    second gives r = lb + zech[u - lb], the log of the rhs (u when b = 0).
    Neither is reduced mod n: n is even, so the squares are the even r, and
    y = g^((r mod n)/2), decoded per row.  The few x with x^2 = -a or
    rhs = 0, where a gather meets zero, are patched by index.
    """
    ctx = curve.ctx
    if ctx.size > ENUM_BOUND:
        raise CapacityError(f"field size {ctx.size} exceeds the enumeration ceiling {ENUM_BOUND}")
    exp, dlog, zech = _field_logs(ctx)
    n = zech.size
    half = n // 2
    la, lb = (int(dlog[ctx.encode(c)]) for c in (curve.a, curve.b))
    if la == n:
        u, fix = np.arange(0, 3 * n, 3, dtype=np.int32), []
    else:
        h = np.take(zech, np.arange(-la, n - la, 2), mode="wrap")
        u = np.empty(n, dtype=np.int32)
        np.add(h, np.arange(la, la + half, dtype=np.int32), out=u[:half])
        np.add(u[:half], half, out=u[half:])
        # x^2 = -a, where x^3 + ax = 0 and u means nothing
        fix = [i for j in np.flatnonzero(h == n).tolist() for i in (j, j + half)]
    if lb == n:
        r, zeros = u, fix
    else:
        u -= lb
        r = np.take(zech, u, mode="wrap")
        zeros = [i for i in np.flatnonzero(r == n).tolist() if i not in fix]
        r += lb
        r[fix] = lb
    r[zeros] = -1  # odd: no +-y pair
    sq = np.flatnonzero((r & 1) == 0)
    x0 = ([n] if lb == n else []) + zeros  # y = 0; log n stands for x = 0
    x1 = [n] if lb < n and lb % 2 == 0 else []  # x = 0, b a nonzero square

    def rows():
        def elt(l):
            return ctx.decode(int(exp[l]))

        def y(i):
            return elt((lb if i == n else int(r[i])) % n // 2)

        for i in x0:
            yield elt(i), ctx.zero
        for i in chain(x1, sq):
            yield elt(i), y(i)
        for i in chain(x1, sq):
            yield elt(i), ctx.neg(y(i))

    return 1 + len(x0) + 2 * (len(x1) + sq.size), rows


def _log_order(curve: Curve, l: int, T) -> int:
    """i with ord T = l^i, for T in an l-group."""
    i = 0
    while T is not None:
        T = curve.scalar_mul(l, T)
        i += 1
    return i


def _sylow_basis(curve: Curve, N: int, rows, l: int):
    """((P, a), (Q, b)) with S = <P> (+) <Q> the l-Sylow subgroup of E(F),
    ord P = l^a >= ord Q = l^b, from the listed points in row order.

    Each row R gives Q = [N/l^e]R in S, of order l^b.  P is the element of
    largest order seen so far; a Q of larger order takes its place and the
    old P is reduced instead.  Q is reduced modulo <P> by Pohlig-Hellman:
    while U = [l^(b-1)]Q (of order dividing l) lies in <[l^(a-1)]P>, read
    off as U = [c][l^(a-1)]P from a table, subtracting [c l^(a-b)]P kills U
    and drops b.  When U is outside <P>, Q has order l^b modulo <P> and <P>
    meets <Q> trivially, so a + b = e means <P> (+) <Q> = S.
    """
    e = vp(N, l)
    cofactor = N // l**e
    P, a, table = None, 0, {}
    Q, b = None, 0
    pts = rows()
    while a + b < e:
        R = next(pts, None)
        if R is None:
            raise AssertionError("the listed points do not generate the l-Sylow subgroup")
        Q = curve.scalar_mul(cofactor, R)
        b = _log_order(curve, l, Q)
        if b > a:
            P, a, Q, b = Q, b, P, a
            P1 = curve.scalar_mul(l ** (a - 1), P)
            table = {curve.scalar_mul(c, P1): c for c in range(l)}
        while b:
            c = table.get(curve.scalar_mul(l ** (b - 1), Q))
            if c is None:
                break
            Q = curve.add(Q, curve.scalar_mul(-c * l ** (a - b), P))
            b -= 1
    return (P, a), (Q, b)


def group_structure(curve: Curve) -> GroupStructure:
    """E(F) decomposed as Z/n1 x Z/n2 (n1 | n2) by full enumeration.

    N is the number of listed points; for each l with l^2 | N, the l-part of
    n1 is the order l^b of the smaller generator of the l-Sylow basis.
    """
    N, rows = _listed_points(curve)
    n1 = 1
    for l, e in sorted(factorize(N).items()):
        if e >= 2:
            _, (_, b) = _sylow_basis(curve, N, rows, l)
            n1 *= l**b
    n2 = N // n1
    if n2 % n1 != 0 or (curve.ctx.size - 1) % n1 != 0:
        raise AssertionError("invariant factor shape violated")
    return GroupStructure(n1, n2)


def sylow_basis(curve: Curve, l: int):
    """((P, a), (Q, b)) with <P> (+) <Q> the l-Sylow subgroup of E(F) and
    ord P = l^a >= ord Q = l^b, from a full listing of the points."""
    N, rows = _listed_points(curve)
    return _sylow_basis(curve, N, rows, l)
