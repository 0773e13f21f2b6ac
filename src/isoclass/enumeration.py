"""Exhaustive point enumeration and l-Sylow structure: the brute-force oracle.

Group structures and torsion subgroups of E(F_{p^k}) are read off the list
of every point, with no input from the Frobenius-based predictions they are
used to cross-check.

The listing is vectorized with numpy.  Field elements are held in
discrete-log form: a nonzero element is its log base a fixed generator
(int32 in [0, q-2]) and zero is the sentinel BIG = 2(q-1).  Multiplication
is log addition, negation adds log(-1), and addition goes through a Zech
logarithm table zech[d] = log(1 + g^d), so the listing is flat index
arithmetic plus a few gathers.  Its length gives N = |E(F)|.

The structure then comes from a few listed points and plain Curve
arithmetic.  For each l^e || N the rows, in order, are pushed into the
l-Sylow subgroup S by the cofactor N/l^e, and a basis S = <P> (+) <Q> is
grown by Pohlig-Hellman reduction in the cyclic group <P> until it has
l^e elements.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .curve import Curve, GroupStructure
from .quadorder import factorize, vp


class _BulkField:
    """Vectorized arithmetic for F_{p^k} on int32 discrete-log arrays."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.p = ctx.char
        self.k = ctx.degree
        self.q = ctx.size
        p, k, q = self.p, self.k, self.q
        if p <= 3:
            raise ValueError("log-table enumeration needs characteristic > 3")
        n = q - 1
        self.n = n
        self.BIG = 2 * n
        self.half = n // 2  # log(-1); n is even since q is odd
        self.radix = p ** np.arange(k, dtype=np.int64)

        gen = self._find_generator()
        digits = np.zeros((n, k), dtype=np.int64)
        digits[0, 0] = 1
        t = 1
        while t < n:
            m = min(t, n - t)
            gt = ctx.pow(gen, t)
            # row i of M holds the coefficients of x^i * g^t
            codes = [ctx.encode(ctx.mul(ctx.decode(p**i), gt)) for i in range(k)]
            M = np.array(codes, dtype=np.int64)[:, None] // self.radix % p
            digits[t : t + m] = digits[:m] @ M % p
            t += m
        exp = digits @ self.radix
        dlog = np.full(q, self.BIG, dtype=np.int32)
        dlog[exp] = np.arange(n, dtype=np.int32)
        if np.count_nonzero(dlog == self.BIG) != 1:
            raise AssertionError("generator powers do not cover the field")
        self.dlog = dlog
        exp_pad = np.zeros(2 * n + 1, dtype=np.int64)
        exp_pad[:n] = exp
        exp_pad[n : 2 * n] = exp
        self.exp_pad = exp_pad  # exp_pad[BIG] = 0, the code of zero

        plus1 = digits.copy()
        plus1[:, 0] = (plus1[:, 0] + 1) % p
        self.zech = dlog[plus1 @ self.radix]

        neg1 = ctx.encode(ctx.neg(ctx.one))
        if int(dlog[neg1]) != self.half:
            raise AssertionError("log(-1) mismatch")

    def _find_generator(self):
        ctx = self.ctx
        fac = factorize(self.n)
        # codes below p are constants of F_p^*, which cannot generate F_{p^k}^*
        for code in range(2 if self.k == 1 else self.p, self.q):
            elt = ctx.decode(code)
            if all(ctx.pow(elt, self.n // l) != ctx.one for l in fac):
                return elt
        raise AssertionError("no generator found")

    # -- arithmetic on log arrays ---------------------------------------

    def elem_log(self, elt) -> int:
        return int(self.dlog[self.ctx.encode(elt)])

    def lscale(self, a, s: int):
        """Multiply by a fixed nonzero element given as its log."""
        out = (a + np.int32(s)) % self.n
        out[a == self.BIG] = self.BIG
        return out

    def lneg(self, a):
        out = (a + self.half) % self.n
        out[a == self.BIG] = self.BIG
        return out

    def ladd(self, a, b):
        d = (b - a) % self.n
        z = self.zech[d]
        out = (a + z) % self.n
        out[z == self.BIG] = self.BIG  # b = -a
        mb = b == self.BIG
        out[mb] = a[mb]
        ma = a == self.BIG
        out[ma] = b[ma]
        return out


@lru_cache(maxsize=4)
def _tables(ctx):
    """Shared per-field data: bulk log context and the square-root table
    (indexed by log, -1 for nonsquares, BIG maps to BIG)."""
    bulk = _BulkField(ctx)
    n = bulk.n
    root = np.full(2 * n + 1, -1, dtype=np.int32)
    ll = np.arange(n, dtype=np.int32)
    root[(2 * ll) % n] = ll
    root[bulk.BIG] = bulk.BIG
    return bulk, root


def _enumerate_points(curve: Curve):
    """Log arrays (X, Y) of every affine point, one row per point: the y = 0
    points, then one point of each +-y pair, then their negations."""
    bulk, root = _tables(curve.ctx)
    n = bulk.n
    lx = np.empty(bulk.q, dtype=np.int32)
    lx[0] = bulk.BIG
    lx[1:] = np.arange(n, dtype=np.int32)
    la = bulk.elem_log(curve.a) if _nonzero(curve.ctx, curve.a) else bulk.BIG
    lb = bulk.elem_log(curve.b) if _nonzero(curve.ctx, curve.b) else bulk.BIG
    x3 = (3 * lx.astype(np.int64) % n).astype(np.int32)
    x3[lx == bulk.BIG] = bulk.BIG
    ax = bulk.lscale(lx, la) if la != bulk.BIG else np.full(bulk.q, bulk.BIG, np.int32)
    rhs = bulk.ladd(x3, ax)
    rhs = bulk.ladd(rhs, np.full(bulk.q, lb, dtype=np.int32))
    on_axis = rhs == bulk.BIG
    r = root[rhs]
    two = (r >= 0) & ~on_axis
    x0 = lx[on_axis]
    x1 = lx[two]
    y1 = r[two]
    X = np.concatenate([x0, x1, x1])
    Y = np.concatenate([np.full(x0.size, bulk.BIG, np.int32), y1, bulk.lneg(y1)])
    return bulk, X, Y


def _nonzero(ctx, elt) -> bool:
    return elt != ctx.zero


def _listed_points(curve: Curve):
    """N = |E(F)| and a function that yields the affine points, decoded one
    at a time in row order."""
    bulk, X, Y = _enumerate_points(curve)
    ctx = curve.ctx

    def rows():
        for x, y in zip(X, Y):
            yield ctx.decode(int(bulk.exp_pad[x])), ctx.decode(int(bulk.exp_pad[y]))

    return 1 + X.size, rows


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
