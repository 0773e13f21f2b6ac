"""Reference helpers that only the tests use: exhaustive point listing, the
ordinary check, the Legendre symbol, polynomial evaluation, the counts of
every curve over F_p, the pairwise pattern table, and the paper's two
valuation lemmas (lifting the exponent, binomial valuation)."""

import numpy as np

from isoclass.field import is_prime
from isoclass.quadorder import vp


def points(curve):
    """All affine points of a curve by exhaustive sweep (tiny fields)."""
    F = curve.ctx
    roots: dict = {}
    for y in F.elements():
        roots.setdefault(F.mul(y, y), []).append(y)
    for x in F.elements():
        for y in roots.get(curve.rhs(x), ()):
            yield (x, y)


def is_ordinary(curve) -> bool:
    return curve.trace() % curve.ctx.char != 0


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
