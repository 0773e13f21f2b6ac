"""Exhaustive point enumeration and torsion scanning, vectorized with numpy.

This is the brute-force side of the library: group structures and torsion
subgroups computed by listing every point of E(F_{p^k}), with no input from
the Frobenius-based predictions it is used to cross-check.

Field elements are held in discrete-log form: a nonzero element is its log
base a fixed generator (int32 in [0, q-2]) and zero is the sentinel
BIG = 2(q-1).  Multiplication is log addition, inversion is negation, and
addition goes through a Zech logarithm table zech[d] = log(1 + g^d), so
every bulk operation is flat index arithmetic plus at most one gather.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .curve import Curve, GroupStructure
from .quadorder import factorize


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
        self.l2 = self.elem_log(ctx.from_int(2))
        self.l3 = self.elem_log(ctx.from_int(3))

    def _find_generator(self):
        ctx = self.ctx
        fac = factorize(self.n)
        for code in range(2, self.q):
            elt = ctx.decode(code)
            if all(ctx.pow(elt, self.n // l) != ctx.one for l in fac):
                return elt
        raise AssertionError("no generator found")

    # -- arithmetic on log arrays ---------------------------------------

    def elem_log(self, elt) -> int:
        return int(self.dlog[self.ctx.encode(elt)])

    def to_codes(self, logs: np.ndarray) -> np.ndarray:
        return self.exp_pad[logs]

    def lmul(self, a, b):
        out = (a + b) % self.n
        out[(a == self.BIG) | (b == self.BIG)] = self.BIG
        return out

    def lscale(self, a, s: int):
        """Multiply by a fixed nonzero element given as its log."""
        out = (a + np.int32(s)) % self.n
        out[a == self.BIG] = self.BIG
        return out

    def lsq(self, a):
        out = (a + a) % self.n
        out[a == self.BIG] = self.BIG
        return out

    def linv(self, a):
        """Zero rows stay the zero sentinel; callers mask them out."""
        out = (self.n - a) % self.n
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

    def lsub(self, a, b):
        return self.ladd(a, self.lneg(b))


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
    """Log arrays (X, Y) of every affine point, one row per point, and the
    number n_pairs of x with two points.  Each x is listed once (the y = 0
    points, then one point of each +-y pair), followed by the negations, so
    row i + n_pairs is the negation of pair row i."""
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
    return bulk, X, Y, x1.size


def _nonzero(ctx, elt) -> bool:
    return elt != ctx.zero


def _bulk_add(bulk, lA, X1, Y1, I1, X2, Y2, I2):
    """One masked affine addition over all rows at once."""
    eq_x = X1 == X2
    cancel = eq_x & (Y1 == bulk.lneg(Y2))  # P + (-P), includes 2-torsion doubling
    dbl = eq_x & ~cancel
    sq = bulk.lscale(bulk.lsq(X1), bulk.l3)  # 3*x1^2
    if lA != bulk.BIG:
        num_dbl = bulk.ladd(sq, np.full(sq.size, lA, dtype=np.int32))
    else:
        num_dbl = sq
    num = np.where(dbl, num_dbl, bulk.lsub(Y2, Y1))
    den = np.where(dbl, bulk.lscale(Y1, bulk.l2), bulk.lsub(X2, X1))
    lam = bulk.lmul(num, bulk.linv(den))
    X3 = bulk.lsub(bulk.lsub(bulk.lsq(lam), X1), X2)
    Y3 = bulk.lsub(bulk.lmul(lam, bulk.lsub(X1, X3)), Y1)
    both = ~I1 & ~I2
    I3 = (both & cancel) | (I1 & I2)
    use1 = ~I1 & I2
    use2 = I1
    X3 = np.where(use1, X1, np.where(use2, X2, X3))
    Y3 = np.where(use1, Y1, np.where(use2, Y2, Y3))
    X3[I3] = bulk.BIG
    Y3[I3] = bulk.BIG
    return X3, Y3, I3


def _bulk_scalar_mul(bulk, lA, X, Y, n: int):
    """[n]P for every row of (X, Y); returns (X', Y', inf_mask)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rows = X.shape[0]
    rX = np.full(rows, bulk.BIG, dtype=np.int32)
    rY = np.full(rows, bulk.BIG, dtype=np.int32)
    rI = np.ones(rows, dtype=bool)
    aX, aY = X.copy(), Y.copy()
    aI = np.zeros(rows, dtype=bool)
    while n:
        if n & 1:
            rX, rY, rI = _bulk_add(bulk, lA, rX, rY, rI, aX, aY, aI)
        n >>= 1
        if n:
            aX, aY, aI = _bulk_add(bulk, lA, aX, aY, aI, aX, aY, aI)
    return rX, rY, rI


class _PointSet:
    """Enumerated affine points with indexed lookup of [n]P images."""

    def __init__(self, curve: Curve):
        bulk, X, Y, n_pairs = _enumerate_points(curve)
        self.bulk = bulk
        self.lA = bulk.elem_log(curve.a) if _nonzero(curve.ctx, curve.a) else bulk.BIG
        self.X = X
        self.Y = Y
        self.order = 1 + X.shape[0]
        self.n_pairs = n_pairs
        # first row of each x, indexed by log x (BIG for x = 0); x off the
        # curve points at row 0, which the lookup then rejects
        distinct = X.size - n_pairs
        self.row_of_x = np.zeros(bulk.BIG + 1, dtype=np.intp)
        self.row_of_x[X[:distinct]] = np.arange(distinct)

    def scalar_map(self, n: int) -> np.ndarray:
        """Index array: row j holds the point-list index of [n]P_j, -1 for
        infinity.  Every image must land back in the enumerated set."""
        X3, Y3, I3 = _bulk_scalar_mul(self.bulk, self.lA, self.X, self.Y, n)
        out = self.row_of_x[X3]
        out[self.Y[out] != Y3] += self.n_pairs
        found = (self.X[out] == X3) & (self.Y[out] == Y3)
        if not (found | I3).all():
            raise AssertionError("scalar multiple left the enumerated point set")
        out[I3] = -1
        return out


def _killed_masks(pts: _PointSet, l: int):
    """Masks of the points killed by l^j for j = 1, 2, ..., one [l]-map
    gather per step."""
    to = pts.scalar_map(l)
    reach = to
    while True:
        killed = reach == -1
        yield killed
        reach = np.where(killed, -1, to[reach])


def group_structure(curve: Curve) -> GroupStructure:
    """E(F) decomposed as Z/n1 x Z/n2 (n1 | n2) by full enumeration.

    n1 is built one prime at a time: alpha_l is the largest i with exactly
    l^(2i) points killed by l^i, read off by iterating the [l]-index map.
    """
    pts = _PointSet(curve)
    N = pts.order
    n1 = 1
    for l, e in sorted(factorize(N).items()):
        if e < 2:
            continue
        alpha = 0
        for i, killed in zip(range(1, e // 2 + 1), _killed_masks(pts, l)):
            if 1 + int(np.count_nonzero(killed)) != l ** (2 * i):
                break
            alpha = i
        n1 *= l**alpha
    n2 = N // n1
    if n2 % n1 != 0 or (curve.ctx.size - 1) % n1 != 0:
        raise AssertionError("invariant factor shape violated")
    return GroupStructure(n1, n2)


def lpower_torsion(curve: Curve, l: int, jmax: int) -> dict[int, list]:
    """E[l^j](F) for j = 1..jmax as lists of (x, y) field elements (without
    the point at infinity)."""
    pts = _PointSet(curve)
    bulk = pts.bulk
    ctx = curve.ctx
    out: dict[int, list] = {}
    for j, killed in zip(range(1, jmax + 1), _killed_masks(pts, l)):
        idx = np.nonzero(killed)[0]
        xcodes = bulk.to_codes(pts.X[idx])
        ycodes = bulk.to_codes(pts.Y[idx])
        out[j] = [
            (ctx.decode(int(xc)), ctx.decode(int(yc)))
            for xc, yc in zip(xcodes, ycodes)
        ]
    return out


def count_all_curves(p: int) -> np.ndarray:
    """|E_{a,b}(F_p)| for every coefficient pair, as a (p, p) array indexed
    [a][b].  Entries for singular pairs are meaningless; callers filter."""
    x = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int64)
    chi[x * x % p] = 1
    chi[0] = 0
    shifts = np.arange(p, dtype=np.int64)
    counts = np.empty((p, p), dtype=np.int64)
    for a in range(p):
        vals = (x * x * x + a * x) % p
        counts[a] = p + 1 + chi[(vals[:, None] + shifts[None, :]) % p].sum(axis=0)
    return counts
