import math
import random
import re

import pytest

from isoclass import curve, enumeration
from isoclass.curve import (
    SWEEP_BOUND,
    CapacityError,
    Curve,
    GroupStructure,
    SingularCurveError,
    _count_sweep,
)
from isoclass.enumeration import (
    LogField,
    _is_primitive,
    _listed_points,
    _log_curve,
    _primitive_poly,
    _structure,
    _sylow_basis,
    group_structure,
    sylow_basis,
)
from isoclass.field import PrimeField, is_prime, poly_divmod, poly_powmod
from isoclass.isomorphy import ComparisonInput, gcd_criterion, valuation_criterion
from isoclass.quadorder import factorize, frobenius_from_trace, mult_order, vp

from helpers import (
    PolyField,
    count_all_curves,
    group_order,
    is_ordinary,
    legendre,
    listed_points_over_every_x,
    points,
    power_codes,
    trace,
    trial_factor,
)


def test_rejects_singular_and_small_char():
    with pytest.raises(SingularCurveError):
        Curve(PrimeField(5), 0, 0)
    with pytest.raises(SingularCurveError):
        Curve(PrimeField(7), -3, 2)  # 4*27 + 27*4 = 0 mod 7? discriminant zero: x^3-3x+2=(x-1)^2(x+2)
    with pytest.raises(ValueError):
        Curve(PrimeField(3), 1, 1)
    with pytest.raises(ValueError):
        Curve(PrimeField(2), 1, 1)


def test_library_refusals():
    # the refusals no command reaches, each with its exception and message
    E = Curve(PrimeField(3329), 49, 0)
    inp = ComparisonInput(frobenius_from_trace(3329, 50), 1, 13)
    table = [
        (lambda: poly_divmod([1, 2], [], 5), ZeroDivisionError, "polynomial division by zero"),
        (lambda: poly_powmod([0, 1], 3, [2], 5), ValueError, "modulus must have degree >= 1"),
        (lambda: poly_powmod([0, 1], -1, [1, 0, 1], 5), ValueError, "negative exponent"),
        (lambda: GroupStructure(0, 1), ValueError, "invariant factors must be positive"),
        (lambda: GroupStructure(2, 3), ValueError, "n1 must divide n2"),
        (lambda: LogField(3, 2), ValueError, "log-table enumeration needs characteristic > 3"),
        (lambda: group_structure(E, 0), ValueError, "extension degree must be >= 1, got 0"),
        (lambda: gcd_criterion(inp, 0), ValueError, "k must be >= 1"),
        (lambda: valuation_criterion(inp, 0), ValueError, "k must be >= 1"),
        (lambda: vp(5, 1), ValueError, "p must be >= 2"),
        (lambda: factorize(0), ValueError, "factorize requires n >= 1"),
        (lambda: mult_order(1, 1), ValueError, "modulus must be >= 2"),
    ]
    for call, exc, message in table:
        with pytest.raises(exc, match=f"^{re.escape(message)}$"):
            call()


def test_group_law_known_doubling():
    e = Curve(PrimeField(5), 1, 1)
    # 2*(0,1): lambda = 1/2 = 3, x3 = 9 - 0 = 4, y3 = 3*(0-4) - 1 = -13 = 2
    assert e.add((0, 1), (0, 1)) == (4, 2)
    assert e.scalar_mul(2, (0, 1)) == (4, 2)


def test_group_law_axioms_random():
    rng = random.Random(7)
    e = Curve(PrimeField(13), 2, 3)
    pts = [None] + list(points(e))
    for _ in range(200):
        p1, p2, p3 = (rng.choice(pts) for _ in range(3))
        assert e.add(p1, p2) == e.add(p2, p1)
        assert e.add(e.add(p1, p2), p3) == e.add(p1, e.add(p2, p3))
        assert e.add(p1, None) == p1
        assert e.add(p1, e.neg(p1)) is None


def test_scalar_mul_matches_repeated_add():
    e = Curve(PrimeField(11), 3, 5)
    for pt in list(points(e))[:5]:
        acc = None
        for n in range(12):
            assert e.scalar_mul(n, pt) == acc
            acc = e.add(acc, pt)
        assert e.scalar_mul(-3, pt) == e.neg(e.scalar_mul(3, pt))


def test_contains_and_add_validation():
    e = Curve(PrimeField(5), 1, 1)
    assert e.contains((0, 1))
    assert not e.contains((0, 2))
    with pytest.raises(ValueError):
        e.add((0, 2), None)


def test_count_points_small_fields():
    # brute force against the definition for every curve over tiny fields
    for p in (5, 7, 11, 13):
        f = PrimeField(p)
        table = count_all_curves(p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                e = Curve(f, a, b)
                n = 1 + sum(
                    1
                    for x in range(p)
                    for y in range(p)
                    if (y * y - x**3 - a * x - b) % p == 0
                )
                assert e.count_points() == n == table[a, b]


def test_count_points_examples():
    assert Curve(PrimeField(3329), 49, 0).count_points() == 3280
    assert Curve(PrimeField(3329), 99, 0).count_points() == 3226
    assert Curve(PrimeField(1031), 982, 824).count_points() == 1052
    assert Curve(PrimeField(5), 1, 1).count_points() == 9


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def _twist(e):
    """The quadratic twist by the least non-square d."""
    p = e.ctx.p
    d = next(d for d in range(2, p) if legendre(d, p) == -1)
    return Curve(e.ctx, e.a * d * d, e.b * d**3)


def _random_square_point(rng, e):
    # for p = 3 (mod 4), r^((p+1)/4) is a square root of r whenever one exists
    p = e.ctx.p
    assert p % 4 == 3
    while True:
        x = rng.randrange(p)
        r = e.rhs(x)
        y = pow(r, (p + 1) // 4, p)
        if y * y % p == r:
            return x, y


def test_count_points_matches_sweep_seeded():
    # both sides of the switch, p = 3, 5, 1 (mod 8), large 2-adic parts of
    # p - 1, and log-uniform seeded primes up to 10^6
    assert SWEEP_BOUND == 229
    rng = random.Random(909)
    primes = [5, 13, 227, 229, 233, 251, 997, 7681, 65537, 999983]
    primes += [_next_prime(int(10 ** rng.uniform(2.4, 6))) for _ in range(6)]
    assert {1, 3, 5} <= {p % 8 for p in primes if p > SWEEP_BOUND}, primes
    for p in primes:
        F = PrimeField(p)
        coeffs = [(rng.randrange(p), rng.randrange(p)) for _ in range(40 if p < 10**4 else 2)]
        coeffs += [(0, rng.randrange(1, p)), (rng.randrange(1, p), 0)]  # j = 0, j = 1728
        for a, b in coeffs:
            try:
                e = Curve(F, a, b)
            except SingularCurveError:
                continue
            tw = _twist(e)
            for c in (e, tw):
                assert c.count_points() == _count_sweep(p, c.a, c.b), (p, c.a, c.b)
            assert e.count_points() + tw.count_points() == 2 * p + 2


def _order(e, P, N):
    # the least d | N with [d]P = O, given that [N]P = O
    return min(d for d in range(1, N + 1) if N % d == 0 and e.scalar_mul(d, P) is None)


def test_point_on_the_twist_by_f_of_x_seeded():
    # the point source of the BSGS count: for r = f(x) != 0, (r*x, r^2) lies
    # on E_r: y^2 = x^3 + a r^2 x + b r^3, which is E when r is a square and
    # the quadratic twist when it is not; both sides of the sweep switch,
    # p = 1 and 3 (mod 8), j = 0 and j = 1728
    rng = random.Random(19)
    primes = [73, 107, 233, 251]
    assert {p % 8 for p in primes} == {1, 3}
    assert min(primes) < SWEEP_BOUND < max(primes)
    for p in primes:
        F = PrimeField(p)
        roots = {y * y % p: y for y in range(p)}
        coeffs = [(rng.randrange(1, p), rng.randrange(1, p)) for _ in range(2)]
        coeffs += [(0, rng.randrange(1, p)), (rng.randrange(1, p), 0)]
        for a, b in coeffs:
            e = Curve(F, a, b)
            N = _count_sweep(p, a, b)
            kinds = set()
            for x in range(p):
                r = e.rhs(x)
                if r == 0:
                    continue
                e_r = Curve(F, a * r * r, b * r**3)
                P = (r * x % p, r * r % p)
                assert e_r.contains(P), (p, a, b, x)
                kinds.add(r in roots)
                if r in roots:
                    assert _count_sweep(p, e_r.a, e_r.b) == N, (p, a, b, x)
                    assert _order(e_r, P, N) == _order(e, (x, roots[r]), N), (p, a, b, x)
                else:
                    assert _count_sweep(p, e_r.a, e_r.b) == 2 * p + 2 - N, (p, a, b, x)
            assert kinds == {True, False}, (p, a, b)


@pytest.mark.parametrize("p", [10**12 + 39, 10**17 + 3])
def test_count_points_beyond_the_sweep(p):
    # [N]P = O on E and [2p + 2 - N]P' = O on the twist at seeded points
    assert is_prime(p)
    rng = random.Random(p)
    F = PrimeField(p)
    e = Curve(F, rng.randrange(p), rng.randrange(p))
    n = e.count_points()
    assert (p + 1 - n) ** 2 <= 4 * p
    tw = _twist(e)
    for _ in range(4):
        assert e.scalar_mul(n, _random_square_point(rng, e)) is None
        assert tw.scalar_mul(2 * p + 2 - n, _random_square_point(rng, tw)) is None


def test_hasse_bound_scan():
    for p in (17, 19, 23):
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                t = trace(Curve(PrimeField(p), a, b))
                assert t * t <= 4 * p


def test_trace_and_ordinary():
    e = Curve(PrimeField(5), 1, 1)
    assert trace(e) == -3
    assert is_ordinary(e)
    assert not is_ordinary(Curve(PrimeField(5), 0, 1))  # supersingular, t = 0


def test_group_structure_known():
    assert group_structure(Curve(PrimeField(3329), 49, 0), 1) == GroupStructure(4, 820)
    assert group_structure(Curve(PrimeField(5), 1, 1), 1) == GroupStructure(1, 9)


def test_group_structure_invariants_scan():
    for p in (11, 13, 17):
        f = PrimeField(p)
        for a in range(p):
            for b in range(1, p, 3):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                e = Curve(f, a, b)
                s = group_structure(e, 1)
                assert group_order(s) == e.count_points()
                assert s.n2 % s.n1 == 0
                assert (p - 1) % s.n1 == 0  # n1 | q - 1 by the Weil pairing


def test_group_structure_extension_field():
    s = group_structure(Curve(PrimeField(5), 1, 1), 2)
    assert s == GroupStructure(3, 9)
    assert group_order(s) == 27
    # exponent check: n2 kills every point
    R = PolyField(5, _primitive_poly(5, 2))
    lifted = Curve(R, R.from_int(1), R.from_int(1))
    for pt in points(lifted):
        assert lifted.scalar_mul(s.n2, pt) is None
    assert (R.size - 1) % s.n1 == 0


def test_structure_matches_exhaustive_exponent():
    # n1*n2 decomposition implies number of l-torsion points is correct
    base = PrimeField(13)
    e = Curve(base, 2, 3)
    s = group_structure(e, 1)
    for l in (2, 3, 5, 7):
        tor = sum(1 for pt in points(e) if e.scalar_mul(l, pt) is None) + 1
        from isoclass.quadorder import vp

        want = l ** (min(vp(s.n1, l), 1) + min(vp(s.n2, l), 1)) if group_order(s) % l == 0 else 1
        assert tor == want


def _reference(F):
    """(R, dec): R the field of F, a LogField, by schoolbook arithmetic
    modulo the same polynomial, and dec the map from a log of F to its
    element of R."""
    R = PolyField(F.char, _primitive_poly(F.char, F.k))
    exp, _ = power_codes(R)
    return R, lambda l: R.decode(exp[l])


def _point(dec, pt):
    return None if pt is None else tuple(map(dec, pt))


def _naive_structure(e):
    """(n1, n2) from the point count and the largest point order, each order
    found by dividing N by its primes while Curve.scalar_mul gives O."""
    pts = [None] + list(points(e))
    N = len(pts)
    primes = [d for d in range(2, N + 1) if N % d == 0 and all(d % r for r in range(2, d))]
    n2 = 1
    for pt in pts:
        order = N
        for d in primes:
            while order % d == 0 and e.scalar_mul(order // d, pt) is None:
                order //= d
        n2 = max(n2, order)
        if n2 == N:
            break
    return N // n2, n2


# a generic curve, b = 0 (j = 1728), and a = 0 (j = 0) over F_13 and F_49
@pytest.mark.parametrize("p, k, a, b", [(13, 1, 1, 1), (7, 2, 3, 0), (13, 1, 0, 2), (7, 2, 0, 3)])
def test_sylow_basis_matches_scalar_mul(p, k, a, b):
    E = _log_curve(Curve(PrimeField(p), a, b), k)
    R, dec = _reference(E.ctx)
    e = Curve(R, R.from_int(a), R.from_int(b))
    N, rows = _listed_points(E)
    listed = [_point(dec, pt) for pt in rows()]
    assert sorted(listed) == sorted(points(e)) and N == 1 + len(listed)
    # x = 0 and y = 0 rows both occur in the first two cases; with a = 0,
    # y^2 = 2 and x^3 = -2 have no root in F_13, nor x^3 = -3 in F_49
    if a:
        assert any(x == R.zero for x, _ in listed)
        assert any(y == R.zero for _, y in listed)
    for l in (2, 3):
        v = vp(N, l)
        sylow = {pt for pt in [None] + listed if e.scalar_mul(l**v, pt) is None}
        (P, ea), (Q, eb) = _sylow_basis(E, N, rows, l)
        P, Q = _point(dec, P), _point(dec, Q)
        assert eb <= ea and ea + eb == v
        for G, n in ((P, ea), (Q, eb)):
            assert e.scalar_mul(l**n, G) is None
            assert n == 0 or e.scalar_mul(l ** (n - 1), G) is not None
        span = {
            e.add(e.scalar_mul(i, P), e.scalar_mul(j, Q))
            for i in range(l**ea)
            for j in range(l**eb)
        }
        assert span == sylow
        # all of E[l^j] is rational exactly when j <= eb
        for j in (1, 2, 3):
            naive = {pt for pt in [None] + listed if e.scalar_mul(l**j, pt) is None}
            assert (len(naive) == l ** (2 * j)) == (j <= eb), (l, j)


# (kind of -a, kind of b), None standing for zero; y^2 = x^3 is singular.
# "s^3" is -a = s^2 and b = s^3: at x = s, where x^2 = -a, the gather for
# the rhs reads zero, though the rhs is b
_KINDS = [(x, y) for x in (None, "square", "nonsquare") for y in (None, "square", "nonsquare")][1:]
_KINDS.append(("square", "s^3"))
# the x^2 = -a patches with b = 0 and with b != 0, and a = 0
_PATCHED = [("square", None), ("square", "s^3"), (None, "square")]


@pytest.mark.parametrize(
    "p, k, kinds",
    [(13, 1, _KINDS), (101, 1, _KINDS), (13, 2, _KINDS), (11, 3, _KINDS), (7, 4, _PATCHED), (5, 5, _PATCHED)],
    ids=["13", "101", "13^2", "11^3", "7^4", "5^5"],
)
def test_listed_points_match_sweep_seeded(p, k, kinds):
    # every branch of the listing: a = 0 and b = 0; -a a nonzero square, so
    # x^3 + ax = 0 off x = 0; and b a square or not, for the x = 0 rows.
    # The curves are drawn over F_(p^k) as logs, the nonzero squares being
    # the even ones, and checked against a sweep over the reference field.
    # They are drawn twice: as any logs, and as multiples of r = n/(p - 1),
    # the logs of F_p, where the listing reads one x per Frobenius orbit;
    # at even k, r is even and every element of F_p is a square
    rng = random.Random(p**k)
    F = LogField(p, k)
    R, dec = _reference(F)
    r = F.n // (p - 1)

    def draw(kind, step):
        return step * rng.randrange(kind != "square", F.n // step, 2) if kind else F.zero

    for step, (a_kind, b_kind) in ((step, ks) for step in sorted({1, r}) for ks in kinds):
        if step % 2 == 0 and "nonsquare" in (a_kind, b_kind):
            continue
        while True:
            if b_kind == "s^3":
                s = step * rng.randrange(F.n // step)
                la, lb = F.neg(F.mul(s, s)), F.mul(s, F.mul(s, s))
            else:
                la, lb = F.neg(draw(a_kind, step)), draw(b_kind, step)  # -a of the drawn kind
            try:
                E = Curve(F, la, lb)
                break
            except SingularCurveError:
                continue
        a, b = dec(la), dec(lb)
        e = Curve(R, a, b)
        N, rows = _listed_points(E)
        listed = [_point(dec, pt) for pt in rows()]
        assert N == 1 + len(listed) and len(set(listed)) == len(listed), (R, a, b)
        assert all(e.contains(pt) for pt in listed), (R, a, b)
        assert set(listed) == set(points(e)), (R, a, b)
        # y = 0 at x = 0 for b = 0, and at x^2 = -a when that has a root too
        on_x_axis = sum(1 for _, y in listed if y == R.zero)
        if b_kind is None:
            assert on_x_axis == (3 if a_kind == "square" else 1), (R, a, b)
        at_x0 = sum(1 for x, _ in listed if x == R.zero)
        assert at_x0 == (1 if lb == F.zero else 2 if lb % 2 == 0 else 0), (R, a, b)


def _coefficient_logs(rng, F, step):
    """(la, lb) over F with a, b in the subfield of the logs that are
    multiples of step (and zero): b = 0 with -a = s^2, where the rhs is zero
    at x = 0 and at the roots of x^2 = -a; -a = s^2 and b = s^3, where
    x^2 = -a meets the rhs b != 0; a = 0 with the rhs zero at x = s; and a
    generic a with the rhs zero at x = s."""
    s, a = (step * rng.randrange(F.n // step) for _ in range(2))
    s2, s3 = F.mul(s, s), F.mul(s, F.mul(s, s))
    return [(F.neg(s2), F.zero), (F.neg(s2), s3), (F.zero, F.neg(s3)), (a, F.neg(F.add(s3, F.mul(a, s))))]


@pytest.mark.parametrize(
    "p, k, sub, kinds",
    [
        (13, 2, 1, 4), (11, 3, 1, 4), (7, 4, 1, 4), (5, 5, 1, 4), (97, 3, 1, 2), (5, 9, 1, 1),
        (7, 4, 2, 4),
        (13, 2, 2, 4), (11, 3, 3, 4), (7, 4, 4, 4), (5, 5, 5, 4),
    ],
    ids=["13^2", "11^3", "7^4", "5^5", "97^3", "5^9", "7^4 over 7^2", "13^2 generic", "11^3 generic",
         "7^4 generic", "5^5 generic"],
)
def test_listed_points_match_every_x_listing(p, k, sub, kinds):
    # N and every row, in order, equal those of the listing that reads every
    # x (helpers.listed_points_over_every_x), for curves with a, b in
    # F_(p^sub): one x per Frobenius orbit of F_p at sub = 1, with orbits of
    # lengths 1, 2, 3, 4, 5 and 9 over the fields; F_(7^2) inside F_(7^4);
    # and generic curves, sub = k, where the listing reads a single column.
    # The first `kinds` of _coefficient_logs' four kinds are listed
    rng = random.Random(p**k + sub)
    F = LogField(p, k)
    curves = _coefficient_logs(rng, F, F.n // (p**sub - 1))[:kinds]
    # above sub = 1 some coefficient lies outside F_p, whose logs are the
    # multiples of n/(p - 1)
    assert sub == 1 or any(l % (F.n // (p - 1)) for c in curves for l in c), curves
    listed = 0
    for la, lb in curves:
        try:
            E = Curve(F, la, lb)
        except SingularCurveError:
            continue
        N, rows = _listed_points(E)
        want_N, want_rows = listed_points_over_every_x(E)
        assert N == want_N, (F, la, lb)
        assert list(rows()) == list(want_rows()), (F, la, lb)
        listed += 1
    assert listed >= min(kinds, 3), listed


def test_enum_bound_fits_int32_logs():
    # the listing keeps logs of x^3 + ax + b unreduced, between -q and
    # 3(q - 1), in int32 arrays, and the table build forms each Zech entry
    # as r u + L below 3(q - 1) before reducing it
    assert 3 * curve.ENUM_BOUND < 2**31


def test_enum_bound_fits_int32_digit_columns():
    # for k >= 2, _field_logs makes each power of x monic by products of
    # two digits, below p^2 < 2^31, into codes below p^k <= ENUM_BOUND, and
    # _powers sums k products of digits, at most k (p - 1)^2, in int32
    # columns; p is at most the k-th root of the bound
    assert curve.ENUM_BOUND < 2**31
    for k in range(2, curve.ENUM_BOUND.bit_length()):
        p = 1
        while (p + 1) ** k <= curve.ENUM_BOUND:
            p += 1
        assert p**2 < 2**31 and p**k <= curve.ENUM_BOUND, k
        assert k * (p - 1) ** 2 < 2**31, k


@pytest.mark.parametrize("p, k", [(13, 1), (101, 1), (7, 2), (5, 3), (11, 3)])
def test_log_field_matches_field_seeded(p, k):
    # every LogField operation, read back through the reference powers of x
    # and decode, is the field's own; zero (the log n) and -1 (the log n/2)
    # are among the operands
    rng = random.Random(p**k)
    F = LogField(p, k)
    R, dec = _reference(F)
    _, dlog = power_codes(R)

    minus1 = int(dlog[R.encode(R.neg(R.one))])
    assert (F.zero, minus1) == (F.n, F.n // 2) and F.n == R.size - 1
    assert [dec(l) for l in (F.zero, F.one, minus1)] == [R.zero, R.one, R.neg(R.one)]
    logs = [F.zero, F.one, minus1] + [rng.randrange(F.n) for _ in range(30)]
    for x in logs:
        X = dec(x)
        assert dlog[R.encode(X)] == x
        assert dec(F.neg(x)) == R.neg(X)
        if x == F.zero:
            with pytest.raises(ZeroDivisionError):
                F.inv(x)
        else:
            assert dec(F.inv(x)) == R.inv(X)
        for e in (0, 1, 2, 3, p, R.size):
            assert dec(F.pow(x, e)) == R.pow(X, e), (x, e)
        for y in logs:
            Y = dec(y)
            assert dec(F.add(x, y)) == R.add(X, Y), (x, y)
            assert dec(F.sub(x, y)) == R.sub(X, Y), (x, y)
            assert dec(F.mul(x, y)) == R.mul(X, Y), (x, y)
    for c in range(-p, 2 * p):
        assert dec(F.from_int(c)) == R.from_int(c), c


def test_log_curve_keeps_the_curve_checks():
    # over LogField the coefficients arrive as logs, and Curve still refuses
    # a singular equation and points off the curve
    E = _log_curve(Curve(PrimeField(7), 3, 2), 2)
    F = E.ctx
    R, dec = _reference(F)
    assert (dec(E.a), dec(E.b)) == (R.from_int(3), R.from_int(2))
    with pytest.raises(SingularCurveError):
        Curve(F, F.zero, F.zero)
    with pytest.raises(SingularCurveError):
        Curve(F, F.from_int(-3), F.from_int(2))
    off = next((x, y) for x in range(F.n) for y in range(F.n) if not E.contains((x, y)))
    with pytest.raises(ValueError):
        E.scalar_mul(2, off)
    with pytest.raises(ValueError):
        E.add(off, None)


def test_group_structure_matches_naive_seeded():
    # curves drawn over LogField as logs, the log n standing for zero
    rng = random.Random(2024)
    fields = [LogField(p, 1) for p in (37, 61, 97, 109)] + [LogField(5, 2), LogField(7, 2), LogField(5, 3)]
    # a prime field is its own reference, much faster than PolyField, as
    # each constant is its own code
    refs = {}
    for F in fields:
        if F.k == 1:
            exp, _ = power_codes(PolyField(F.char, _primitive_poly(F.char, 1)))
            refs[F] = PrimeField(F.char), exp.__getitem__
        else:
            refs[F] = _reference(F)
    shapes = set()
    for i in range(324):
        # 300 draws of any a, b, then 24 over the extension fields with a, b
        # in F_p, multiples of r = n/(p - 1), where the listing reads one x
        # per Frobenius orbit
        F = rng.choice(fields if i < 300 else fields[4:])
        step = 1 if i < 300 else F.n // (F.char - 1)
        a, b = (step * rng.randrange(F.n // step + 1) for _ in range(2))
        try:
            E = Curve(F, a, b)
        except SingularCurveError:
            continue
        R, dec = refs[F]
        s = _structure(E)
        assert (s.n1, s.n2) == _naive_structure(Curve(R, dec(a), dec(b))), (F, a, b)
        for l in (2, 3):
            if s.n1 % l == 0:
                shapes.add((l, vp(s.n1, l), vp(s.n2, l)))
    # non-cyclic l-parts Z/l^i x Z/l^j with j > i >= 1, where a second point
    # of order above l^i is reduced modulo <P> by Pohlig-Hellman
    assert {(2, 1, 2), (2, 1, 3), (2, 2, 3), (3, 1, 2)} <= shapes, shapes


def _exact_order_of_x(f, p):
    """The order of x among the units of F_p[x]/(f), by walking its powers
    in the reference ring; 0 when no power up to p^k - 1 is 1."""
    R = PolyField(p, f)
    x = R.reduce([0, 1])
    y = x
    for i in range(1, R.size):
        if y == R.one:
            return i
        y = R.mul(y, x)
    return 0


def _has_order_q_minus_1(f, p):
    """Whether x has order p^k - 1 modulo f, by the reference powers of x
    at n and at n/l for each prime l | n, n = p^k - 1."""
    R = PolyField(p, f)
    x, n = R.reduce([0, 1]), R.size - 1
    return R.pow(x, n) == R.one and all(R.pow(x, n // l) != R.one for l in trial_factor(n))


@pytest.mark.parametrize("p", [5, 7])
def test_constant_term_test_matches_order(p):
    # the constant-term test against the exact order of x, on every monic f
    # of degree k <= 3, and the count of primitive f, phi(p^k - 1)/k
    for k in (1, 2, 3):
        n = p**k - 1
        primes = trial_factor(p - 1), trial_factor(n // (p - 1))
        found = 0
        for code in range(p**k):
            f = [code // p**j % p for j in range(k)] + [1]
            primitive = _exact_order_of_x(f, p) == n
            assert _is_primitive(f, p, primes) == primitive, f
            found += primitive
        assert found * k == sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1), (p, k)


def test_primitive_poly_search_order():
    # x - c for the smallest primitive root c at k = 1, and the first
    # primitive candidate in the documented order: the norm c of x over the
    # primitive roots in increasing order, then f_1 .. f_(k-1), f_1 fastest
    for p in (5, 7, 11, 13, 97, 1999):
        c = next(c for c in range(1, p) if _exact_order_of_x([-c % p, 1], p) == p - 1)
        assert _primitive_poly(p, 1) == [-c % p, 1], p
    for p, k in ((5, 2), (7, 2), (13, 2), (5, 3), (7, 3)):
        candidates = (
            [(-1) ** k * c % p] + [i // p**j % p for j in range(k - 1)] + [1]
            for c in range(1, p)
            if _exact_order_of_x([-c % p, 1], p) == p - 1
            for i in range(p ** (k - 1))
        )
        first = next(f for f in candidates if _exact_order_of_x(f, p) == p**k - 1)
        assert _primitive_poly(p, k) == first, (p, k)


def test_generator_search_starts_at_p():
    # the log tables' base x = exp[1] is the first generator in code order
    # under the reference arithmetic: the smallest primitive root at k = 1,
    # and at k >= 2 x itself, code p, as no constant generates F_q^*; at
    # k = 1 the tables give that root the log 1
    for p, k in ((13, 1), (7, 2), (5, 3), (97, 2)):
        R = PolyField(p, _primitive_poly(p, k))
        n = R.size - 1
        primes = trial_factor(n)
        first = next(
            code
            for code in range(2, R.size)
            if all(R.pow(R.decode(code), n // l) != R.one for l in primes)
        )
        exp, _ = power_codes(R)
        assert exp[1] == first, (p, k)
        assert k == 1 or first == p, (p, k)
        assert k > 1 or LogField(p, k).from_int(first) == 1, (p, k)
        gen = R.decode(first)
        y, order = gen, 1
        while y != R.one:
            y, order = R.mul(y, gen), order + 1
        assert order == n, (p, k)


def test_primitive_poly_every_enum_field():
    # a primitive polynomial for every 5 <= p < 100 and k with p^k <= ENUM_BOUND
    checked = 0
    for p in range(5, 100):
        if not is_prime(p):
            continue
        k = 1
        while p**k <= curve.ENUM_BOUND:
            f = _primitive_poly(p, k)
            assert len(f) == k + 1 and f[-1] == 1, (p, k)
            assert _has_order_q_minus_1(f, p), (p, k)
            checked += 1
            k += 1
    assert checked >= 60, checked


def test_capacity_error(monkeypatch):
    # fields above the ceiling are refused before any table is built, for
    # the structure and for a Sylow basis alike; q = 97 is still listed
    def no_tables(p, k):
        raise AssertionError("tables built past ENUM_BOUND")

    monkeypatch.setattr(curve, "ENUM_BOUND", 100)
    e = Curve(PrimeField(97), 1, 1)
    assert group_order(group_structure(e, 1)) == e.count_points()
    monkeypatch.setattr(enumeration, "_field_logs", no_tables)
    e = Curve(PrimeField(3329), 49, 0)
    with pytest.raises(CapacityError):
        group_structure(e, 1)
    with pytest.raises(CapacityError):
        sylow_basis(e, 2, 1)


def test_count_points_rejects_extension():
    F = LogField(5, 2)
    e = Curve(F, F.from_int(1), F.from_int(1))
    with pytest.raises(TypeError):
        e.count_points()


def test_predicted_vs_enumerated_structures():
    # tau-based prediction against enumeration for a couple of classes
    from isoclass.isomorphy import predicted_group_structure
    from isoclass.endoring import conductor

    for q, coeffs in [(37, (1, 4)), (41, (2, 5)), (43, (3, 7))]:
        e = Curve(PrimeField(q), *coeffs)
        t = trace(e)
        if t % q == 0:
            continue
        frob = frobenius_from_trace(q, t)
        g = conductor(e, frob)
        for k in (1, 2, 3):
            if q**k > 10**5:
                break
            assert group_structure(e, k) == predicted_group_structure(frob, g, k)
