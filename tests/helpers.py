"""Reference helpers that only the tests use: exhaustive point listing, the
ordinary check and the Legendre symbol."""

from isoclass.field import is_prime


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
