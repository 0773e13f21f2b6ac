"""Reference helpers that only the tests use: F_p[x]/(f) by schoolbook
arithmetic, the codes of the powers of x there, field elements in code
order, the monic polynomial gcd, a curve's trace and a group's order, a
pattern's allowed residues as a set, factoring by trial division,
exhaustive point listing, the ordinary check, the Legendre symbol,
polynomial evaluation, the counts of every curve over F_p, the pairwise
pattern table, the paper's two valuation lemmas (lifting the exponent,
binomial valuation), arithmetic in Z[delta], the scalar action test
on both coordinates, and the oracle's point listing over every x."""

import itertools

import numpy as np

from isoclass.endoring import division_polys
from isoclass.field import Reducer, is_prime, poly_mod, poly_mul, poly_neg, poly_scale, poly_sub, poly_trim
from isoclass.quadorder import vp


class PolyField:
    """F_p[x]/(f) for a monic f of degree k, by schoolbook arithmetic on
    poly_mul and poly_mod: the reference for the oracle's log-form fields,
    given their modulus.  Elements are tuples of k ints in [0, p), low
    coefficient first; the code of one is sum c_i*p^i, as in the oracle's
    exp table.  inv needs f irreducible; the rest is ring arithmetic."""

    log_form = False

    def __init__(self, p: int, f: list[int]):
        self.p = self.char = p
        self.f = f
        self.k = len(f) - 1
        self.size = p**self.k
        self.zero = (0,) * self.k
        self.one = self.from_int(1)

    def reduce(self, a):
        """The element that the polynomial a stands for."""
        a = poly_mod(a, self.f, self.p)
        return tuple(a) + (0,) * (self.k - len(a))

    def from_int(self, n: int):
        return self.reduce([n % self.p])

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        return self.reduce(poly_mul(poly_trim(list(a)), poly_trim(list(b)), self.p))

    def pow(self, a, e: int):
        if e < 0:
            a, e = self.inv(a), -e
        out = self.one
        for bit in bin(e)[2:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError(f"0 is not invertible in F_{self.p}^{self.k}")
        return self.pow(a, self.size - 2)

    def encode(self, a) -> int:
        return sum(c * self.p**i for i, c in enumerate(a))

    def decode(self, code: int):
        return tuple(code // self.p**i % self.p for i in range(self.k))

    def __repr__(self) -> str:
        return f"PolyField({self.p}, {self.f})"


def power_codes(R: PolyField):
    """(exp, dlog) for a PolyField R on which x generates the units, the
    oracle's log form by repeated multiplication by x: exp[l] is the code
    of x^l for l in [0, q - 1), exp[q - 1] = 0 the code of zero, and dlog,
    a list over the codes, is its inverse."""
    x = R.reduce([0, 1])
    exp, y = [], R.one
    for _ in range(R.size - 1):
        exp.append(R.encode(y))
        y = R.mul(y, x)
    exp.append(0)
    dlog = [0] * R.size
    for l, code in enumerate(exp):
        dlog[code] = l
    return exp, dlog


def elements(ctx):
    """Every element of a prime field or a PolyField, in code order
    (code = sum c_i*p^i, so c0 varies fastest), listed without decode."""
    if isinstance(ctx, PolyField):
        # itertools varies the last slot fastest; codes want c0 fastest
        return (tuple(reversed(d)) for d in itertools.product(range(ctx.p), repeat=ctx.k))
    return iter(range(ctx.p))


def poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd; rejects the pair (0, 0)."""
    a = poly_trim([c % p for c in a])
    b = poly_trim([c % p for c in b])
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, poly_mod(a, b, p)
    return poly_scale(a, pow(a[-1], p - 2, p), p)


def trace(curve) -> int:
    """Frobenius trace q + 1 - |E(F_q)| of a curve over a prime field."""
    return curve.ctx.p + 1 - curve.count_points()


def group_order(s) -> int:
    """|Z/n1 x Z/n2| of a GroupStructure."""
    return s.n1 * s.n2


def allowed(pat) -> frozenset:
    """The allowed residues of an IsoPattern as a set (0 standing for
    k = modulus)."""
    return frozenset(pat.residues())


def trial_factor(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division by every d with
    d^2 <= what is left; it takes about max(P2, sqrt(P1)) steps for the
    largest prime factor P1 and the second largest P2."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def points(curve):
    """All affine points of a curve by exhaustive sweep (tiny fields)."""
    F = curve.ctx
    roots: dict = {}
    for y in elements(F):
        roots.setdefault(F.mul(y, y), []).append(y)
    for x in elements(F):
        for y in roots.get(curve.rhs(x), ()):
            yield (x, y)


def is_ordinary(curve) -> bool:
    return trace(curve) % curve.ctx.char != 0


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1} for an odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"legendre requires an odd prime, got {p}")
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def poly_eval(a: list[int], x: int, p: int) -> int:
    """a(x) mod p by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def render_pairwise_table(labels: list[str], cells: dict) -> str:
    """Symmetric table of pattern texts; cells maps (i, j) with i < j."""
    n = len(labels)
    grid = [["" for _ in range(n + 1)] for _ in range(n + 1)]
    grid[0][0] = "iso"
    for i, lab in enumerate(labels):
        grid[0][i + 1] = lab
        grid[i + 1][0] = lab
    for i in range(n):
        for j in range(n):
            grid[i + 1][j + 1] = "-" if i == j else cells[(min(i, j), max(i, j))]
    widths = [max(len(row[c]) for row in grid) for c in range(n + 1)]
    lines = [
        "  ".join(row[c].ljust(widths[c]) for c in range(n + 1)).rstrip()
        for row in grid
    ]
    return "\n".join(lines) + "\n"


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


def lte(p: int, a: int, b: int, k: int) -> int:
    """v_p(a^k - b^k) by lifting the exponent: equals v_p(a - b) + v_p(k).

    Requires a = b (mod p), neither divisible by p, a != b, k >= 1, and for
    p = 2 additionally a = b (mod 4).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if a % p != b % p:
        raise ValueError("a and b must be congruent mod p")
    if a % p == 0:
        raise ValueError("a and b must be coprime to p")
    if a == b:
        raise ValueError("a = b makes the valuation infinite")
    if p == 2 and (a - b) % 4 != 0:
        raise ValueError("p = 2 requires a = b (mod 4)")
    return vp(a - b, p) + vp(k, p)


def binom_valuation(p: int, l: int, m: int, r: int) -> int:
    """v_p of binomial(p^l * m, r) for p coprime to m and 0 < r <= p^l:
    equals l - v_p(r)."""
    if l < 0:
        raise ValueError("l must be >= 0")
    if m % p == 0:
        raise ValueError("m must be coprime to p")
    if not 0 < r <= p**l:
        raise ValueError("need 0 < r <= p^l")
    return l - vp(r, p)


def zd_mul(u, v, m: int, n: int | None = None):
    """(x1 + y1*delta)(x2 + y2*delta) in Z[delta], with delta = sqrt(m) for
    m = 2, 3 (mod 4) and (1 + sqrt(m))/2 for m = 1 (mod 4); reduced mod n
    when n is given."""
    (x1, y1), (x2, y2) = u, v
    if m % 4 == 1:  # delta^2 = delta + (m-1)/4
        x, y = x1 * x2 + (m - 1) // 4 * y1 * y2, x1 * y2 + x2 * y1 + y1 * y2
    else:  # delta^2 = m
        x, y = x1 * x2 + m * y1 * y2, x1 * y2 + x2 * y1
    return (x, y) if n is None else (x % n, y % n)


def zd_pow(u, k: int, m: int, n: int | None = None):
    """u^k in Z[delta] by repeated squaring, reduced mod n when n is given."""
    out, base = (1, 0), u
    while k:
        if k & 1:
            out = zd_mul(out, base, m, n)
        base = zd_mul(base, base, m, n)
        k >>= 1
    return out


def zd_norm(u, m: int) -> int:
    x, y = u
    if m % 4 == 1:
        return x * x + x * y + y * y * (1 - m) // 4
    return x * x - m * y * y


def zd_trace(u, m: int) -> int:
    x, y = u
    return 2 * x + y if m % 4 == 1 else 2 * x


def scalar_maps_xy(psi, f, n, reducer):
    """((X_num, X_den), (Omega_num, Omega_den)) with
    [n](x, y) = (X_num/X_den, y*Omega_num/Omega_den) in F_p[x]/(modulus),
    the modulus being the reducer's; psi maps n-2 .. n+2 to psi~_(n-2) ..
    psi~_(n+2) and f is x^3 + ax + b."""
    p = reducer.p
    red = reducer.reduce
    if n == 1:
        one = red([1])
        return (red([0, 1]), one), (one, one)
    pm2, pm1, pn, pp1, pp2 = (red(psi[k]) for k in range(n - 2, n + 3))
    f4 = red(poly_scale(f, 4, p))
    pn2 = red(poly_mul(pn, pn, p))
    pn3 = red(poly_mul(pn2, pn, p))
    cross = red(poly_mul(pm1, pp1, p))
    disc = poly_sub(
        red(poly_mul(pp2, red(poly_mul(pm1, pm1, p)), p)),
        red(poly_mul(pm2, red(poly_mul(pp1, pp1, p)), p)),
        p,
    )
    if n % 2 == 1:
        # X = x - 4f psi_(n-1) psi_(n+1) / psi_n^2,  Omega = disc / psi_n^3
        den_x, den_y = pn2, pn3
        num_x = poly_sub(red(poly_mul([0, 1], den_x, p)), red(poly_mul(f4, cross, p)), p)
    else:
        # X = x - psi_(n-1) psi_(n+1) / (4f psi_n^2),  Omega = disc / (16f^2 psi_n^3)
        den_x = red(poly_mul(f4, pn2, p))
        den_y = red(poly_mul(f4, red(poly_mul(f4, pn3, p)), p))
        num_x = poly_sub(red(poly_mul([0, 1], den_x, p)), cross, p)
    return (num_x, den_x), (disc, den_y)


def scalar_action_test_xy(curve, frob, c):
    """The conductor's scalar action test on both coordinates: tau = [+-n]
    on E[c], n = +-a mod c in [1, c/2], checked as X_num = X_den * x^q and
    +-Omega_num = Omega_den * f^((q-1)/2) modulo psi~_c, and as the x-check
    alone modulo f for even c (both y's vanish on the 2-torsion).  c is a
    prime power dividing b, coprime to q."""
    q = curve.ctx.p
    a_mod = frob.a % c
    n, sign = (a_mod, 1) if a_mod <= c - a_mod else (c - a_mod, -1)
    psi = division_polys(curve, [c, *range(max(n - 2, 0), n + 3)])
    f = poly_trim([curve.b, curve.a, 0, 1])

    def component_ok(modulus, compare_y):
        if len(modulus) < 2:
            return True
        reducer = Reducer(modulus, q)
        red = reducer.reduce
        (num_x, den_x), (num_y, den_y) = scalar_maps_xy(psi, f, n, reducer)
        if red(poly_mul(den_x, reducer.pow([0, 1], q), q)) != num_x:
            return False
        if compare_y:
            half = reducer.pow(f, (q - 1) // 2)
            target = num_y if sign == 1 else poly_neg(num_y, q)
            if red(poly_mul(den_y, half, q)) != target:
                return False
        return True

    return component_ok(psi[c], True) and (c % 2 == 1 or component_ok(f, False))


def _wrapped(start: int, length: int, step: int, n: int) -> np.ndarray:
    """start + step i for i in [0, length), each less the multiple of n that
    puts it in [-n, 0), as int32."""
    s = start % n - n
    a = np.arange(s, s + step * length, step, dtype=np.int32)
    w = -s  # a[i] >= 0 from i = ceil(w / step) on
    while (i := -(-w // step)) < length:
        a[i:] -= n
        w += n
    return a


def listed_points_over_every_x(E):
    """(N, rows) as enumeration._listed_points gives them, for a curve E over
    LogField, by reading x^3 + ax + b at every x of the field at once: the
    reference for the listing that reads one x per Frobenius orbit.

    With la = log a, h = zech[2i - la] over i in [0, n/2) and u = i + la + h
    is the log of x^3 + ax at x = g^i; r = lb + zech[u - lb] is the log of
    the rhs, unreduced, so the squares are the even r.  x^2 = -a (h = n) and
    the zeros of the rhs are patched by index."""
    F = E.ctx
    zech = F.zech
    n = F.n
    half = n // 2
    la, lb = E.a, E.b
    if la == n:
        u, fix = _wrapped(-lb, n, 3, n), []
    else:
        h = zech[np.arange(-la, n - la, 2)]
        fix = [i for j in np.flatnonzero(h == n).tolist() for i in (j, j + half)]
        s = la - (0 if lb == n else lb)
        u = np.empty(n, dtype=np.int32)
        np.add(h, _wrapped(s, half, 1, n), out=u[:half])
        np.add(h, _wrapped(s + half, half, 1, n), out=u[half:])
    if lb == n:
        r, zeros = u, fix
    else:
        r = zech[u]
        zeros = [i for i in np.flatnonzero(r == n).tolist() if i not in fix]
        r += lb
        r[fix] = lb
    r[zeros] = -1
    squares = n - int(np.count_nonzero(r & 1))
    x0 = ([n] if lb == n else []) + zeros
    x1 = [(n, lb // 2)] if lb < n and lb % 2 == 0 else []
    i = np.flatnonzero((r & 1) == 0)
    even = x1 + list(zip(i.tolist(), (r[i] % n // 2).tolist()))

    def rows():
        yield from ((i, n) for i in x0)
        yield from even
        yield from ((i, F.neg(y)) for i, y in even)

    return 1 + len(x0) + 2 * (len(x1) + squares), rows
