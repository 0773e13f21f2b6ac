"""Exhaustive point enumeration and l-Sylow structure: the brute-force oracle.

Group structures and torsion subgroups of E(F_{p^k}) are read off the list
of every point, with no input from the Frobenius-based predictions they are
used to cross-check.  The entry points take a curve over F_p and the degree
k.  Fields larger than ENUM_BOUND (curve.py) are refused with CapacityError
before any table is built; `isoclass oracle` and
endoring.conductor_bruteforce check the same ceiling before listing.

The whole oracle runs on discrete logs.  F_{p^k} is F_p[x]/(f) for a
primitive polynomial f, so x generates F^*: a nonzero element is its log
base x (in [0, q-2]) and zero is the log q - 1.  The tables behind this
form, exp, dlog and a Zech logarithm table zech[d] = log(1 + x^d), are
built once per field from the coefficients of the powers of x, kept as k
int32 columns and doubled by column-wise numpy passes.  Multiplication is
log addition and addition is one Zech lookup, so LogField gives Curve its
arithmetic at the cost of a few integer operations.

The listing is vectorized with numpy: x^3 + ax + b over every x is two
gathers of zech, and its log is even exactly for the nonzero squares.  The
listing's length gives N = |E(F)|; its rows are points of the curve over
LogField.

The structure then comes from a few listed points and plain Curve
arithmetic over LogField.  For each l^e || N the rows, in order, are pushed
into the l-Sylow subgroup S by the cofactor N/l^e, and a basis S = <P> (+)
<Q> is grown by Pohlig-Hellman reduction in the cyclic group <P> until it
has l^e elements.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

import numpy as np

from .curve import ENUM_BOUND, Curve, GroupStructure
from .field import Poly, poly_mod, poly_mul, poly_powmod
from .quadorder import CapacityError, factorize, vp


def _is_primitive(f: Poly, p: int) -> bool:
    """Whether x generates the units of F_p[x]/(f), for f monic of degree
    k >= 1, by the constant-term test (Alanen and Knuth, Sankhya A 26, 1964;
    Knuth, TAOCP vol. 2, 3.2.2): c = (-1)^k f(0) is a primitive root of F_p,
    x^r = c (mod f) for r = (p^k - 1)/(p - 1), and x^(r/l) mod f is not a
    constant for any prime l | r.

    Sound: let d be the order of x modulo f and l a prime dividing n =
    p^k - 1 = r(p - 1); x^n = c^(p-1) = 1, so d | n.  If l | p - 1, then
    d | n/l would give c^((p-1)/l) = (x^r)^((p-1)/l) = 1, against the order
    p - 1 of c.  Otherwise l | r, and d | n/l would make y = x^(r/l) a
    constant: y^l = c and y^(p-1) = 1 with l prime to p - 1, so y = c^u for
    ul = 1 (mod p - 1).  So d = n: the n powers of x are distinct units, and
    F_p[x]/(f), of p^k elements, is a field with x as a generator (Lidl and
    Niederreiter, Finite Fields, ch. 3).  Conversely a primitive f passes,
    as x^r is the norm (-1)^k f(0) of x and x^(r/l) has order l(p - 1)."""
    k = len(f) - 1
    c = (-1) ** k * f[0] % p
    if c == 0 or any(pow(c, (p - 1) // l, p) == 1 for l in factorize(p - 1)):
        return False
    r = (p**k - 1) // (p - 1)
    x = [0, 1]
    return poly_powmod(x, r, f, p) == [c] and all(
        len(poly_powmod(x, r // l, f, p)) > 1 for l in factorize(r)
    )


def _primitive_poly(p: int, k: int) -> Poly:
    """The first primitive polynomial of degree k over F_p, trying each
    primitive root c of F_p in increasing order as the norm of x, so
    f(0) = (-1)^k c, and for each c the coefficients f_1 .. f_(k-1) with
    f_1 varying fastest.  At k = 1 it is x - c for the smallest c."""
    for c in range(1, p):
        if not _is_primitive([-c % p, 1], p):  # c is not a primitive root
            continue
        c0 = (-1) ** k * c % p
        for i in range(p ** (k - 1)):
            f = [c0] + [i // p**j % p for j in range(k - 1)] + [1]
            if _is_primitive(f, p):
                return f
    raise AssertionError("unreachable: primitive polynomials of every degree exist")


@lru_cache(maxsize=4)
def _field_logs(p: int, k: int):
    """(exp, dlog, zech) for F = F_p[x]/(f), f = _primitive_poly(p, k), on
    logs base x, n = p^k - 1 standing for zero: exp[l] is the code
    sum c_j p^j of x^l = sum c_j x^j mod f (exp[n] = 0), so a constant of
    F_p is its own code; dlog is its inverse and zech[d] = log(1 + x^d) for
    d in [0, n).

    digits[j, l] is the coefficient c_j of x^l.  The powers x^t .. x^(2t-1)
    come from the first t by one multiplication by x^t, a linear map on
    coefficient vectors: each new column is a sum of k column multiples,
    reduced mod p.  The sums are at most k (p - 1)^2 < 2^31 for k >= 2 and
    q <= ENUM_BOUND, so the columns are int32; a prime field (k = 1) keeps
    its one column, whose products reach (p - 1)^2, in int64.
    """
    if p <= 3:
        raise ValueError("log-table enumeration needs characteristic > 3")
    n = p**k - 1

    f = _primitive_poly(p, k)
    digits = np.zeros((k, n), dtype=np.int64 if k == 1 else np.int32)
    term = np.empty(n // 2 if k > 1 else 0, dtype=np.int32)
    digits[0, 0] = 1
    t, xt = 1, poly_mod([0, 1], f, p)  # xt = x^t mod f, t a power of 2
    while t < n:
        m = min(t, n - t)
        # M[i] holds the coefficients of x^(t+i) mod f, so digit j of
        # x^(l+t) is the sum over i of digits[i, l] * M[i][j], mod p; each
        # row is the one before times x: shifted up, less its top times f
        M = [xt + [0] * (k - len(xt))]
        for _ in range(1, k):
            row = M[-1]
            M.append([(lo - row[-1] * fj) % p for lo, fj in zip([0] + row[:-1], f)])
        for j in range(k):
            col = digits[j, t : t + m]
            np.multiply(digits[0, :m], M[0][j], out=col)
            for i in range(1, k):
                np.multiply(digits[i, :m], M[i][j], out=term[:m])
                col += term[:m]
            col %= p
        t, xt = t + m, poly_mod(poly_mul(xt, xt, p), f, p)
    exp = np.zeros(n + 1, dtype=np.int32)  # codes are below ENUM_BOUND
    for j in reversed(range(k)):
        exp[:n] *= p
        exp[:n] += digits[j]
    del digits, term
    dlog = np.full(n + 1, -1, dtype=np.int32)
    dlog[exp] = np.arange(n + 1, dtype=np.int32)
    if np.any(dlog < 0):
        raise AssertionError("powers of x do not cover the field")
    # 1 + x^l adds 1 to the constant digit of x^l, which wraps from p - 1 to 0
    plus1 = exp[:n] + 1
    plus1[exp[:n] % p == p - 1] -= p
    zech = dlog[plus1]
    if int(dlog[p - 1]) != n // 2:  # -1 has the code p - 1
        raise AssertionError("log(-1) mismatch")
    return exp, dlog, zech


class LogField:
    """F_{p^k} in the discrete-log form of _field_logs(p, k): an element is
    its log base x in [0, n), n = p^k - 1, and zero is n.  Products add logs
    mod n, a + b = a + zech[b - a], -a = a + n/2 (the log of -1), and an
    integer is the log of its residue mod p, whose code it is.  Table
    entries are read through memoryviews, so every element stays a Python
    int."""

    __slots__ = ("char", "k", "n", "zero", "one", "exp", "zech", "_dlog", "_zech")
    log_form = True

    def __init__(self, p: int, k: int):
        self.exp, dlog, self.zech = _field_logs(p, k)
        self.char, self.k = p, k
        self.n = self.zero = self.zech.size
        self.one = 0
        self._dlog = memoryview(dlog)
        self._zech = memoryview(self.zech)

    def from_int(self, c: int) -> int:
        return self._dlog[c % self.char]

    def add(self, a: int, b: int) -> int:
        n = self.n
        if a == n:
            return b
        if b == n:
            return a
        z = self._zech[b - a]  # a negative index wraps mod n
        if z == n:
            return n
        s = a + z
        return s - n if s >= n else s

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        n = self.n
        if a == n:
            return n
        s = a + n // 2
        return s - n if s >= n else s

    def mul(self, a: int, b: int) -> int:
        n = self.n
        if a == n or b == n:
            return n
        s = a + b
        return s - n if s >= n else s

    def inv(self, a: int) -> int:
        if a == self.n:
            raise ZeroDivisionError(f"0 is not invertible in {self!r}")
        return -a % self.n

    def pow(self, a: int, e: int) -> int:
        if a == self.n:
            if e < 0:
                raise ZeroDivisionError(f"0 is not invertible in {self!r}")
            return a if e else self.one
        return a * e % self.n

    def __repr__(self) -> str:
        return f"LogField({self.char}, {self.k})"


def _log_curve(curve: Curve, k: int) -> Curve:
    """The curve over F_p read over LogField(p, k).  Raises CapacityError
    for p^k > ENUM_BOUND, before any table is built."""
    p = curve.ctx.p
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    # p >= 5, so p^k > ENUM_BOUND once k >= ENUM_BOUND.bit_length(): no huge power
    if k >= ENUM_BOUND.bit_length() or p**k > ENUM_BOUND:
        raise CapacityError(f"field size {p}^{k} exceeds the enumeration ceiling {ENUM_BOUND}")
    F = LogField(p, k)
    return Curve(F, F.from_int(curve.a), F.from_int(curve.b))


def _listed_points(E: Curve):
    """N = |E(F)| and a function that yields the affine points of E, a
    curve over LogField, lazily in row order: the y = 0 points, then one
    point of each +-y pair, then their negations.

    x = 0 (rhs = b) is listed apart; the arrays run over x = g^i, g the
    generator, i in [0, n).  With la = log a, x^2 + a = a (1 + g^(2i - la))
    depends only on i mod n/2, so one wrapped gather of zech on n/2 entries
    gives u = i + la + zech[2i - la], the log of x^3 + ax (3i when a = 0),
    and a second, on u - lb reduced mod n in place, gives
    r = lb + zech[u - lb], the log of the rhs (u when b = 0).  r is not
    reduced mod n: n is even, so the squares are the even r, and
    y = (r mod n)/2.  The few x with x^2 = -a or rhs = 0, where a gather
    meets zero, are patched by index.
    """
    F = E.ctx
    zech = F.zech
    n = F.n
    half = n // 2
    la, lb = E.a, E.b
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
        u %= n
        r = zech[u]
        zeros = [i for i in np.flatnonzero(r == n).tolist() if i not in fix]
        r += lb
        r[fix] = lb
    r[zeros] = -1  # odd: no +-y pair
    sq = np.flatnonzero((r & 1) == 0)
    x0 = ([n] if lb == n else []) + zeros  # y = 0; log n stands for x = 0
    x1 = [n] if lb < n and lb % 2 == 0 else []  # x = 0, b a nonzero square
    logs = memoryview(r)

    def rows():
        def y(i):
            return (lb if i == n else logs[i]) % n // 2

        for i in x0:
            yield i, n
        for i in chain(x1, memoryview(sq)):
            yield i, y(i)
        for i in chain(x1, memoryview(sq)):
            yield i, F.neg(y(i))

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


def group_structure(curve: Curve, k: int) -> GroupStructure:
    """E(F_{p^k}) decomposed as Z/n1 x Z/n2 (n1 | n2) by full enumeration,
    for a curve E over F_p."""
    return _structure(_log_curve(curve, k))


def _structure(E: Curve) -> GroupStructure:
    """E(F) as Z/n1 x Z/n2 for a curve E over LogField.

    N is the number of listed points; for each l with l^2 | N, the l-part of
    n1 is the order l^b of the smaller generator of the l-Sylow basis.
    """
    N, rows = _listed_points(E)
    n1 = 1
    for l, e in sorted(factorize(N).items()):
        if e >= 2:
            _, (_, b) = _sylow_basis(E, N, rows, l)
            n1 *= l**b
    n2 = N // n1
    if n2 % n1 != 0 or E.ctx.n % n1 != 0:
        raise AssertionError("invariant factor shape violated")
    return GroupStructure(n1, n2)


def sylow_basis(curve: Curve, l: int, k: int):
    """(E, (P, a), (Q, b)): E the curve over F_p read over LogField(p, k),
    and P, Q points of E with <P> (+) <Q> the l-Sylow subgroup of
    E(F_{p^k}) and ord P = l^a >= ord Q = l^b, from a full listing of the
    points."""
    E = _log_curve(curve, k)
    return (E, *_sylow_basis(E, *_listed_points(E), l))
