"""Exhaustive point enumeration and l-Sylow structure: the brute-force oracle.

Group structures and torsion subgroups of E(F_{p^k}) are read off the list
of every point, with no input from the Frobenius-based predictions they are
used to cross-check.  The entry points take a curve over F_p and the degree
k.  Fields larger than ENUM_BOUND (curve.py) are refused with CapacityError
before any table is built; `isoclass oracle` and
endoring.conductor_bruteforce check the same ceiling before listing.

The whole oracle runs on discrete logs.  F_{p^k} is F_p[x]/(f) for a
primitive polynomial f, so x generates F^*: a nonzero element is its log
base x (in [0, q-2]) and zero is the log q - 1.  The test that finds f
also fixes x^r = c, a primitive root of F_p, for r = (q - 1)/(p - 1), so
the powers of x are the products c^s x^i with i < r.  The tables are
built once per field from that block: the k int32 digit columns of
x^0 .. x^(r-1), doubled by column-wise numpy passes, give the logs of the
r - 1 monic elements of degree >= 1, and as 1 + c^s x^i differs from
c^s x^i in the constant digit only, each entry of the Zech logarithm
table zech[d] = log(1 + x^d) is one lookup there plus a multiple of r.
Only zech and the logs of the p constants are kept.  Multiplication is
log addition and addition is one Zech lookup, so LogField gives Curve its
arithmetic at the cost of a few integer operations.

The listing is vectorized with numpy: x^3 + ax + b is two gathers of
zech, and its log is even exactly for the nonzero squares.  For a curve
over F_p that class is the same at x and at its conjugate x^p, so N =
|E(F)| is counted on one x per Frobenius orbit: the orbits of the logs
under multiplication by p (cyclotomic cosets; Lidl and Niederreiter,
Finite Fields, ch. 3) carry whole columns of the log table onto each
other, and one column per orbit is read.  The rows, points of the curve
over LogField, are found from the parities of every x block by block as
they are read.

The structure then comes from a few listed points and plain Curve
arithmetic over LogField.  For each l^e || N the rows, in order, are pushed
into the l-Sylow subgroup S by the cofactor N/l^e, and a basis S = <P> (+)
<Q> is grown by Pohlig-Hellman reduction in the cyclic group <P> until it
has l^e elements.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .curve import Curve, GroupStructure, _check_enum_ceiling
from .field import Poly, poly_mod, poly_mul, poly_powmod
from .quadorder import factorize, vp

# log entries that the listing scans at a time for its square rows; the
# Sylow bases read only the first few rows
_ROW_BLOCK = 1 << 12
# grid entries that the listing's count reads at a time, two int64 index
# arrays of them fitting a core's L2 cache
_COUNT_BLOCK = 1 << 15
# entries of the table build's scratch arrays, each serving one block at a
# time: the int64 sums of _powers that may pass 2^31, the blocks of the Zech
# grid that _field_logs fills, and the prime field's logs
_SCRATCH = 1 << 16


def _is_primitive(f: Poly, p: int, primes) -> bool:
    """Whether x generates the units of F_p[x]/(f), for f monic of degree
    k >= 1, by the constant-term test (Alanen and Knuth, Sankhya A 26, 1964;
    Knuth, TAOCP vol. 2, 3.2.2): c = (-1)^k f(0) is a primitive root of F_p,
    x^r = c (mod f) for r = (p^k - 1)/(p - 1), and x^(r/l) mod f is not a
    constant for any prime l | r.  primes is the pair (primes of p - 1,
    primes of r), which a search factors once.

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
    r = (p**k - 1) // (p - 1)
    lp, lr = primes
    c = (-1) ** k * f[0] % p
    if c == 0 or any(pow(c, (p - 1) // l, p) == 1 for l in lp):
        return False
    x = [0, 1]
    return poly_powmod(x, r, f, p) == [c] and all(
        len(poly_powmod(x, r // l, f, p)) > 1 for l in lr
    )


def _primitive_poly(p: int, k: int) -> Poly:
    """The first primitive polynomial of degree k over F_p, trying each
    primitive root c of F_p in increasing order as the norm of x, so
    f(0) = (-1)^k c, and for each c the coefficients f_1 .. f_(k-1) with
    f_1 varying fastest.  At k = 1 it is x - c for the smallest c."""
    primes = factorize(p - 1), factorize((p**k - 1) // (p - 1))
    for c in range(1, p):
        if any(pow(c, (p - 1) // l, p) == 1 for l in primes[0]):  # not a primitive root
            continue
        c0 = (-1) ** k * c % p
        for i in range(p ** (k - 1)):
            f = [c0] + [i // p**j % p for j in range(k - 1)] + [1]
            if _is_primitive(f, p, primes):
                return f
    raise AssertionError("unreachable: primitive polynomials of every degree exist")


def _powers(f: Poly, p: int, m: int) -> np.ndarray:
    """The coefficients of x^0 .. x^(m-1) mod f, for f monic of degree k,
    as an int32 (k, m) array: [j, l] is the coefficient of x^j in x^l.

    x^t .. x^(2t-1) come from the first t powers by one multiplication by
    x^t, a linear map on coefficient vectors: each new column is a sum of k
    column multiples, then reduced mod p.  The sums, at most k (p - 1)^2,
    are formed in place when they fit int32, and otherwise in int64
    scratch of at most _SCRATCH entries."""
    k = len(f) - 1
    wide = k * (p - 1) ** 2 >= 2**31
    digits = np.zeros((k, m), dtype=np.int32)
    term = np.empty(min(m // 2, _SCRATCH), dtype=np.int64 if wide else np.int32)
    acc = np.empty_like(term) if wide else None
    digits[0, 0] = 1
    t, xt = 1, poly_mod([0, 1], f, p)  # xt = x^t mod f, t a power of 2
    while t < m:
        s = min(t, m - t)
        # M[i] holds the coefficients of x^(t+i) mod f, so digit j of
        # x^(l+t) is the sum over i of digits[i, l] * M[i][j], mod p; each
        # row is the one before times x: shifted up, less its top times f
        M = [xt + [0] * (k - len(xt))]
        for _ in range(1, k):
            row = M[-1]
            M.append([(lo - row[-1] * fj) % p for lo, fj in zip([0] + row[:-1], f)])
        for lo in range(0, s, _SCRATCH):
            hi = min(lo + _SCRATCH, s)
            term_b = term[: hi - lo]
            for j in range(k):
                col = digits[j, t + lo : t + hi]
                sum_b = acc[: hi - lo] if wide else col
                np.multiply(digits[0, lo:hi], M[0][j], out=sum_b, dtype=term.dtype)
                for i in range(1, k):
                    np.multiply(digits[i, lo:hi], M[i][j], out=term_b, dtype=term.dtype)
                    sum_b += term_b
                # sum_b %= p as sum_b - (sum_b // p) p: numpy divides by a
                # scalar with libdivide, several times faster than its remainder
                np.floor_divide(sum_b, p, out=term_b)
                term_b *= p
                sum_b -= term_b
                if wide:
                    col[:] = sum_b
        t, xt = t + s, poly_mod(poly_mul(xt, xt, p), f, p)
    return digits


@lru_cache(maxsize=4)
def _field_logs(p: int, k: int):
    """(zech, logs) for F = F_p[x]/(f), f = _primitive_poly(p, k), on logs
    base x, n = p^k - 1 standing for zero: zech[d] = log(1 + x^d) for d in
    [0, n), and logs[a] the log of the constant a in [0, p).

    An element sum a_j x^j has the code sum a_j p^j.  The primitive test
    fixed x^r = c, a primitive root of F_p, for r = n/(p - 1), so
    x^(s r + i) = c^s x^i and logs[c^s] = r s.  For 0 < i < r, x^i =
    c^(t_i) m_i, c^(t_i) its leading digit and m_i monic of degree J >= 1.
    Those monic elements have the dense indices idx(m) = (p^J - 1)/(p - 1)
    + code(m) - p^J in [1, r), and one scatter over the digits of x^i
    (_powers) gives their logs, L[idx(m_i)] = i - r t_i mod n.  For
    u = s + t_i, 1 + x^(s r + i) = c^u (m_i + c^(-u)) changes only the
    constant digit of m_i, so zech[s r + i] = r u + L at idx(m_i) with that
    digit moved by c^(-u), read from L with each block of p constant digits
    doubled: no remainder is taken.  The (p - 1) x r grid is filled a block
    of rows at a time; column 0 is log(1 + c^s), read from logs.

    int32 suffices: for k >= 2 the digit products are below p^2 <= p^k <=
    ENUM_BOUND, and u < 2(p - 1) keeps r u + L below 3n <= 3 ENUM_BOUND <
    2^31, brought into [0, n) by two uint32 minimum steps.  A prime field
    (k = 1) has x = c and r = 1: zech is formed in place over the powers
    of c, which _powers forms in int64 scratch when (p - 1)^2 reaches 2^31.
    """
    if p <= 3:
        raise ValueError("log-table enumeration needs characteristic > 3")
    n = p**k - 1
    r = n // (p - 1)
    f = _primitive_poly(p, k)
    c = (-1) ** k * f[0] % p  # x^r = c
    cs = _powers([-c % p, 1], p, p - 1)[0]  # c^s for s in [0, p - 1)
    logs = np.empty(p + 1, dtype=np.int32)  # logs[p] = n serves 1 + c^s = p
    for lo in range(0, p - 1, _SCRATCH):
        logs[cs[lo : lo + _SCRATCH]] = np.arange(r * lo, r * min(lo + _SCRATCH, p - 1), r, dtype=np.int32)
    logs[0] = logs[p] = n
    if int(logs[p - 1]) != n // 2:  # -1 has the code p - 1
        raise AssertionError("log(-1) mismatch")
    zech = cs
    if k > 1:
        cinv = np.tile(np.roll(cs[::-1], 1), 2)  # c^(-u) for u in [0, 2(p - 1))
        d = _powers(f, p, r)[:, 1:]  # the digits of x^1 .. x^(r-1)
        lead = d[-1].copy()  # c^(t_i)
        for row in d[-2::-1]:
            np.copyto(lead, row, where=lead == 0)
        sig = logs[lead] // r  # t_i
        linv = cinv[sig]
        code, J, m0, t = (np.zeros(r - 1, dtype=np.int32) for _ in range(4))
        for row in d[::-1]:  # Horner on d_j linv mod p for code(m_i), as in _powers
            J += code != 0  # so J counts the places below the leading one
            np.multiply(row, linv, out=m0)
            np.floor_divide(m0, p, out=t)
            code -= t
            code *= p
            code += m0
        del d, row, lead  # row holds d's buffer too
        pk = p ** np.arange(k, dtype=np.int32)
        code -= (pk - (pk - 1) // (p - 1) + 1)[J]  # idx(m_i) - 1
        L = np.full(r - 1, -1, dtype=np.int32)
        L[code] = np.arange(1, r, dtype=np.int32) + logs[linv]
        if L.min() < 0:
            raise AssertionError("powers of x do not cover the field")
        L = np.tile(L.reshape(-1, p), 2).ravel()  # each block of p twice
        code = 2 * code - m0 + p * t  # the doubled block of m_i, plus m_i,0
        del J, linv, m0, t
        zech = np.empty(n, dtype=np.int32)
        grid = zech.reshape(p - 1, r)[:, 1:]
        u, v, w = (np.empty((max(1, _SCRATCH // r), r - 1), dtype=np.int32) for _ in range(3))
        for s in range(0, p - 1, len(u)):
            out = grid[s : s + len(u)].view(np.uint32)
            ub, vb, wb = u[: len(out)], v[: len(out)], w[: len(out)]
            np.add(np.arange(s, s + len(out), dtype=np.int32)[:, None], sig, out=ub)
            np.take(cinv, ub, out=vb, mode="clip")
            vb += code
            np.take(L, vb, out=wb, mode="clip")
            ub *= r
            wb += ub  # r u + L < 3n
            wb, vb = wb.view(np.uint32), vb.view(np.uint32)
            for o in (wb, out):
                np.subtract(wb, n, out=vb)
                np.minimum(wb, vb, out=o)
        zech[::r] = cs
    col = zech[::r]  # log(1 + c^s), in place a block at a time
    for lo in range(0, p - 1, _SCRATCH):
        b = col[lo : lo + _SCRATCH]
        b += 1
        np.take(logs, b, out=b, mode="clip")
    return zech, logs[:p]


class LogField:
    """F_{p^k} in the discrete-log form of _field_logs(p, k): an element is
    its log base x in [0, n), n = p^k - 1, and zero is n.  Products add logs
    mod n, a + b = a + zech[b - a], -a = a + n/2 (the log of -1), and an
    integer is the log of its residue mod p, whose code it is.  Table
    entries are read through memoryviews, so every element stays a Python
    int."""

    __slots__ = ("char", "k", "n", "zero", "one", "zech", "_logs", "_zech")
    log_form = True

    def __init__(self, p: int, k: int):
        self.zech, logs = _field_logs(p, k)
        self.char, self.k = p, k
        self.n = self.zero = self.zech.size
        self.one = 0
        self._logs = memoryview(logs)
        self._zech = memoryview(self.zech)

    def from_int(self, c: int) -> int:
        return self._logs[c % self.char]

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
    _check_enum_ceiling(p, k)
    F = LogField(p, k)
    return Curve(F, F.from_int(curve.a), F.from_int(curve.b))


def _wrapped(start: int, length: int, step: int, n: int) -> np.ndarray:
    """start + step i for i in [0, length), each less the multiple of n that
    puts it in [-n, 0), as int32: valid negative indices into an array of n
    entries, with no remainder taken.  The arange is shifted by n from each
    point where it reaches 0, at most step * length / n + 1 slices."""
    s = start % n - n
    a = np.arange(s, s + step * length, step, dtype=np.int32)
    w = -s  # a[i] >= 0 from i = ceil(w / step) on
    while (i := -(-w // step)) < length:
        a[i:] -= n
        w += n
    return a


@lru_cache(maxsize=4)
def _columns(p: int, k: int, d: int):
    """(cols, lens) for d | k: the least member of each orbit of c -> p^d c
    mod r on [0, r), r = (p^k - 1)/(p^d - 1), ascending, and that orbit's
    length, which is m/(the steps j in [0, m) that return c to itself),
    m = k/d.  int32 holds p^d c < p^d r <= 1.25 (p^k - 1)."""
    q, m = p**d, k // d
    r = (p**k - 1) // (q - 1)
    c = np.arange(r, dtype=np.int32)
    img, least, stays = c.copy(), np.ones(r, dtype=bool), np.ones(r, dtype=np.int32)
    for _ in range(1, m):
        img *= q
        img %= r
        least &= img >= c
        stays += img == c
    cols = np.flatnonzero(least)
    return cols.astype(np.int32), m // stays[cols]


def _rhs_logs(E: Curve, start: int, rows: int, step: int, cols: np.ndarray, h=None):
    """(r, h, zeros) on the grid i = start + step s + cols[c], s < rows: r
    the log of the rhs at x = g^i, not reduced mod n, and -1 at its zeros,
    whose flat positions are zeros.  h = zech[2i - la] (None when a = 0) is
    also that of i + n/2, and may be passed in for it.

    With la = log a, x^2 + a = a (1 + g^(2i - la)), so u = i + la + h is the
    log of x^3 + ax (3i when a = 0), and r = lb + zech[u - lb] (u when
    b = 0).  A gather index is read modulo n when it lies in [-n, n).  The
    row offsets from _wrapped lie in [-n, -r_d] when start, step, la and lb
    are multiples of some r_d | n with cols below r_d, or cols = [0], so
    2i - la and 3i - lb stay below 2 r_d, and u - lb is h in [0, n] plus a
    value in [-n, 0).  The few x with x^2 = -a or rhs = 0, where a gather
    meets zero, are patched by position."""
    F = E.ctx
    zech, n = F.zech, F.n
    la, lb = E.a, E.b
    if la == n:  # then b != 0, as y^2 = x^3 is singular
        u, fix = np.add(_wrapped(3 * start - lb, rows, 3 * step, n)[:, None], 3 * cols, dtype=np.intp), []
    else:
        if h is None:
            h = zech[np.add(_wrapped(2 * start - la, rows, 2 * step, n)[:, None], 2 * cols, dtype=np.intp)]
        # x^2 = -a, where x^3 + ax = 0 and u means nothing
        fix = np.flatnonzero(h == n).tolist()
        t = _wrapped(start + la - (0 if lb == n else lb), rows, step, n)[:, None] + cols
        u = np.add(t, h, dtype=np.intp)
    if lb == n:
        r, zeros = u, fix
    else:
        r = zech[u]
        zeros = [j for j in np.flatnonzero(r == n).tolist() if j not in fix]
        r += lb
        r.flat[fix] = lb
    r.flat[zeros] = -1  # odd: no +-y pair
    return r, h, zeros


def _listed_points(E: Curve):
    """N = |E(F)| and a function that yields the affine points of E, a
    curve over LogField, lazily in row order: the y = 0 points, then one
    point of each +-y pair, then their negations.

    x = 0 (rhs = b) is listed apart, the others as x = g^i, i in [0, n),
    and n is even, so the nonzero squares are the even r of _rhs_logs.  N
    reads one x per orbit of x -> x^q, F_q = F_(p^d) the least subfield
    holding a and b: rhs(x^q) = rhs(x)^q is zero, a nonzero square or
    neither as rhs(x) is.  The logs of F_q are the multiples of r_d =
    n/(q - 1), and i = s r_d + c, c < r_d, goes to q i mod n = (s +
    floor(q c / r_d)) r_d + (q c mod r_d), so the map carries all of column
    c onto column q c mod r_d.  The count reads the q - 1 rows of one column
    per orbit of c -> q c mod r_d (_columns), weighs it by the orbit's
    length, and finds the zeros of the rhs in the other columns as the
    images q^j i of those it meets.  h is gathered on the first (q - 1)/2
    rows only, as i + n/2 lies in the same column.  A curve over F_p has
    d = 1; at d = k there is one column, r_d = 1.  The rows find the even r
    again a _ROW_BLOCK of i at a time as they are read, so no array of the
    field's size but the Zech table is kept.
    """
    F = E.ctx
    n, p, k = F.n, F.char, F.k
    la, lb = E.a, E.b
    # F_q, q = p^d, the least subfield holding a and b: (q - 1) l = 0 mod n
    # for their logs l
    d = next(d for d in range(1, k + 1) if k % d == 0 and la * (p**d - 1) % n == lb * (p**d - 1) % n == 0)
    q, rd = p**d, n // (p**d - 1)
    cols, lens = _columns(p, k, d)
    half, width = (q - 1) // 2, len(cols)
    chunk = max(1, _COUNT_BLOCK // width)
    odd, zeros = np.zeros(width, dtype=np.int64), set()
    for lo in range(0, half, chunk):
        rows, h = min(chunk, half - lo), None
        for start in (lo * rd, (lo + half) * rd):
            r, h, found = _rhs_logs(E, start, rows, rd, cols, h)
            r &= 1
            odd += np.add.reduce(r, axis=0, dtype=np.int32)
            for j in found:
                i = start + j // width * rd + int(cols[j % width])
                zeros.update(i * q**t % n for t in range(lens[j % width]))
    x0 = ([n] if lb == n else []) + sorted(zeros)  # y = 0; log n stands for x = 0
    x1 = [(n, lb // 2)] if lb < n and lb % 2 == 0 else []  # x = 0, b a nonzero square

    def even_rows():
        yield from x1
        for start in range(0, n, _ROW_BLOCK):  # cols[:1] = [0]: every i
            r = _rhs_logs(E, start, min(_ROW_BLOCK, n - start), 1, cols[:1])[0].ravel()
            i = np.flatnonzero((r & 1) == 0)
            yield from zip((start + i).tolist(), (r[i] % n // 2).tolist())

    def rows():
        yield from ((i, n) for i in x0)
        yield from even_rows()
        yield from ((i, F.neg(y)) for i, y in even_rows())

    return 1 + len(x0) + 2 * (len(x1) + int(lens @ (q - 1 - odd))), rows


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
