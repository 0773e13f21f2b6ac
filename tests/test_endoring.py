import random

import pytest

from isoclass import endoring, enumeration
from isoclass.curve import CONDUCTOR_BOUND, CapacityError, Curve
from isoclass.endoring import (
    conductor,
    conductor_bruteforce,
    division_polys,
    scalar_action_test,
)
from isoclass.field import PrimeField, Reducer, is_prime, poly_trim
from isoclass.isomorphy import predicted_group_structure
from isoclass.quadorder import factorize, frobenius_from_trace

from conftest import EXAMPLE1
from helpers import poly_eval, poly_gcd, points, scalar_action_test_xy, scalar_maps_xy, trace


def _curve35():
    return Curve(PrimeField(3329), 1, 57)


def test_division_poly_degrees_and_leads():
    # below the characteristic: deg = (n^2-1)/2 for odd n, (n^2-4)/2 for even,
    # leading coefficient n resp. n/2
    e = _curve35()
    psit = division_polys(e, range(31))
    p = 3329
    for n in range(1, 31):
        f = psit[n]
        if n % 2:
            assert len(f) - 1 == (n * n - 1) // 2, n
            assert f[-1] == n % p
        else:
            assert len(f) - 1 == (n * n - 4) // 2, n
            assert f[-1] == n // 2 % p
    small = division_polys(Curve(PrimeField(13), 2, 3), range(13))
    assert len(small) == 13
    assert small[3] == [9, 10, 12, 0, 3]  # 3x^4 + 6Ax^2 + 12Bx - A^2 mod 13


def test_division_poly_windows_match_full_recurrence():
    # requesting psi~_c and psi~_(n-2..n+2) alone builds only the windows
    # their doubling chains reach, and gives the same polynomials as
    # requesting every index 0..c
    rng = random.Random(5)
    prime_powers = [c for c in range(2, 65) if len(factorize(c)) == 1]
    for p in (13, 101, 2909):
        fp = PrimeField(p)
        for _ in range(2):
            while True:
                e = Curve(fp, rng.randrange(p), rng.randrange(1, p))
                if (4 * e.a**3 + 27 * e.b**2) % p and trace(e) % p:
                    break
            a = frobenius_from_trace(p, trace(e)).a
            full = division_polys(e, range(67))
            for c in prime_powers:
                if c % p == 0:
                    continue
                for n in (a % c, -a % c):
                    want = [c, *range(max(n - 2, 0), n + 3)]
                    got = division_polys(e, want)
                    for k in want:
                        assert got[k] == full[k], (p, e.a, e.b, c, n, k)
    # psi~_151 alone: a few windows per binary digit, not all 152
    assert len(division_polys(Curve(PrimeField(13), 2, 3), [151])) <= 40


def test_division_poly_roots_are_torsion():
    # roots of the n-th polynomial are exactly x-coords of affine n-torsion
    # away from the 2-torsion
    e = Curve(PrimeField(13), 2, 3)
    psit = division_polys(e, range(10))
    pts = list(points(e))
    for n in range(2, 10):
        roots = {x for x in range(13) if poly_eval(psit[n], x, 13) == 0}
        twotor = {x for (x, y) in pts if y == 0}
        tor = {
            x
            for (x, y) in pts
            if e.scalar_mul(n, (x, y)) is None and x not in twotor
        }
        assert roots & {x for (x, _) in pts} == tor, n


def test_division_poly_coprime_to_two_torsion():
    e = _curve35()
    psit = division_polys(e, range(16))
    f = [e.b, e.a, 0, 1]
    for n in range(2, 16):
        assert poly_gcd(psit[n], f, 3329) == [1]


def test_scalar_maps_match_scalar_mul():
    # evaluate the rational maps of the two-coordinate reference at sample
    # points: reducing modulo x - x0 leaves each numerator and denominator
    # as its value at x0
    e = Curve(PrimeField(101), 3, 8)
    p = 101
    psi = division_polys(e, range(14))
    f = poly_trim([e.b, e.a, 0, 1])
    pts = list(points(e))[:12]
    for n in range(2, 11):
        checked = 0
        for (x0, y0) in pts:
            want = e.scalar_mul(n, (x0, y0))
            if want is None:
                continue
            red = Reducer([(-x0) % p, 1], p)
            (num_x, den_x), (num_y, den_y) = scalar_maps_xy(psi, f, n, red)
            dx, dy = poly_eval(den_x, x0, p), poly_eval(den_y, x0, p)
            if dx == 0 or dy == 0:
                continue  # point near the kernel
            assert poly_eval(num_x, x0, p) == want[0] * dx % p, (n, x0, y0)
            assert y0 * poly_eval(num_y, x0, p) % p == want[1] * dy % p, (n, x0, y0)
            checked += 1
        assert checked >= 6, n


def test_scalar_map_denominators_are_units():
    # n = +-a mod c is coprime to c, so the denominators psi~_n and, for
    # even n, f share no root with psi~_c, nor with f for even c: the
    # cross-multiplied action test never needs to split its modulus
    rng = random.Random(7)
    seen = set()
    for q in (101, 389, 1009, 2909, 3329):
        fq = PrimeField(q)
        for _ in range(40):
            a, b = rng.randrange(q), rng.randrange(1, q)
            if (4 * a**3 + 27 * b**2) % q == 0:
                continue
            e = Curve(fq, a, b)
            t = trace(e)
            if t % q == 0:
                continue
            frob = frobenius_from_trace(q, t)
            f = poly_trim([e.b, e.a, 0, 1])
            for l, v in factorize(frob.b).items():
                for j in range(1, v + 1):
                    c = l**j
                    n = min(frob.a % c, -frob.a % c)
                    psi = division_polys(e, [c, n - 1, n, n + 1])
                    moduli = [psi[c]] + ([f] if c % 2 == 0 else [])
                    for m in moduli:
                        if len(m) < 2:
                            continue
                        assert poly_gcd(psi[n], m, q) == [1], (q, a, b, c)
                        if n % 2 == 0:
                            assert poly_gcd(f, m, q) == [1], (q, a, b, c)
                    seen.add((c % 2, n % 2, n > 1))
    # odd c with even and odd n > 1; powers of 2 with odd n > 1
    assert {(1, 0, True), (1, 1, True), (0, 1, True)} <= seen, seen


def test_scalar_action_test_matches_xy_reference():
    # the x-check alone gives the verdict of the check on both coordinates,
    # at every prime power c dividing b, passing and failing, even and odd
    rng = random.Random(11)
    primes = [p for p in range(5, 1200) if is_prime(p)]
    seen = {}
    for _ in range(1500):
        q = rng.choice(primes)
        a, b = rng.randrange(q), rng.randrange(q)
        if (4 * a**3 + 27 * b**2) % q == 0:
            continue
        e = Curve(PrimeField(q), a, b)
        t = trace(e)
        if t % q == 0:
            continue
        frob = frobenius_from_trace(q, t)
        for l, v in factorize(frob.b).items():
            for j in range(1, v + 1):
                c = l**j
                assert c <= CONDUCTOR_BOUND
                ok = scalar_action_test(e, frob, c)
                assert ok == scalar_action_test_xy(e, frob, c), (q, a, b, c)
                key = (c % 2, ok)
                seen[key] = seen.get(key, 0) + 1
    assert len(seen) == 4 and min(seen.values()) >= 50, seen


def test_scalar_action_test_detects_conductor():
    frob = EXAMPLE1.frob
    # E0 has conductor 1: tau acts as a scalar on E[c] for every prime power c | 52
    e0 = EXAMPLE1.curve(0)
    for c in (1, 2, 4, 13):
        assert scalar_action_test(e0, frob, c), c
    # E1 has conductor 52: only c = 1 passes
    e1 = EXAMPLE1.curve(1)
    for c in (2, 4, 13):
        assert not scalar_action_test(e1, frob, c), c
    # E2 has conductor 13: v_2 passes fully, p = 13 fails
    e2 = EXAMPLE1.curve(2)
    for c in (1, 2, 4):
        assert scalar_action_test(e2, frob, c), c
    assert not scalar_action_test(e2, frob, 13)


def test_scalar_action_test_validates():
    frob = EXAMPLE1.frob
    e0 = EXAMPLE1.curve(0)
    with pytest.raises(ValueError):
        scalar_action_test(e0, frob, 3)      # 3 does not divide b
    with pytest.raises(ValueError):
        scalar_action_test(e0, frob, 26)     # not a prime power... 26 = 2*13
    with pytest.raises(ValueError):
        scalar_action_test(e0, frobenius_from_trace(7, -4), 2)  # wrong field


def test_conductor_examples(example):
    for i, g in enumerate(example.conductors):
        assert conductor(example.curve(i), example.frob) == g, i


def test_conductor_mismatched_count_rejected():
    frob = frobenius_from_trace(3329, 104)
    with pytest.raises(ValueError):
        conductor(EXAMPLE1.curve(0), frob)


def test_conductor_bruteforce_small_scan():
    # every ordinary curve over tiny fields: torsion enumeration agrees with
    # the division polynomial route
    rng = random.Random(10)
    checked = 0
    for p in (5, 7, 11):
        f = PrimeField(p)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                e = Curve(f, a, b)
                t = trace(e)
                if t % p == 0:
                    continue
                frob = frobenius_from_trace(p, t)
                if frob.b == 1:
                    continue  # conductor forced to 1, not informative
                if rng.random() < 0.6:
                    continue
                g = conductor(e, frob)
                gb = conductor_bruteforce(e, frob)
                assert g == gb, (p, a, b)
                checked += 1
    assert checked >= 10


def test_conductor_bruteforce_needs_exactly_the_torsion_field(monkeypatch):
    # the walk skips only fields that cannot hold E[c]: it succeeds with the
    # ceiling at the smallest F_{q^m} whose group has c | n1 for every c = l^v
    # exactly dividing b, and raises one below it
    rng = random.Random(3)
    checked = 0
    for p in (5, 7, 11, 13, 17, 19, 23):
        f = PrimeField(p)
        for a, b in rng.sample([(a, b) for a in range(p) for b in range(p)], 12):
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            e = Curve(f, a, b)
            t = trace(e)
            if t % p == 0:
                continue
            frob = frobenius_from_trace(p, t)
            if frob.b == 1:
                continue
            need = 1
            for l, v in factorize(frob.b).items():
                m = 1
                while p**m <= 10**5:
                    if enumeration.group_structure(e, m).n1 % l**v == 0:
                        break
                    m += 1
                need = max(need, p**m)
            if need > 10**5:
                continue
            monkeypatch.setattr(endoring, "ENUM_BOUND", need)
            assert conductor_bruteforce(e, frob) == conductor(e, frob)
            monkeypatch.setattr(endoring, "ENUM_BOUND", need - 1)
            with pytest.raises(CapacityError):
                conductor_bruteforce(e, frob)
            checked += 1
    assert checked >= 10, checked


def test_conductor_bruteforce_capacity(monkeypatch):
    monkeypatch.setattr(endoring, "ENUM_BOUND", 1000)
    e = Curve(PrimeField(1031), 1, 13)
    frob = frobenius_from_trace(1031, -20)
    with pytest.raises(CapacityError):
        conductor_bruteforce(e, frob)


def test_scalar_action_test_refuses_above_conductor_bound(monkeypatch):
    # b = 1009 (j = 1728): refused before any division polynomial is built
    def no_division_polys(*args):
        raise AssertionError("division polynomials built past CONDUCTOR_BOUND")

    monkeypatch.setattr(endoring, "division_polys", no_division_polys)
    assert CONDUCTOR_BOUND == 211
    e = Curve(PrimeField(1018097), 3, 0)
    frob = frobenius_from_trace(1018097, trace(e))
    assert frob.b == 1009
    with pytest.raises(CapacityError):
        scalar_action_test(e, frob, 1009)
    with pytest.raises(CapacityError):
        conductor(e, frob)


def test_conductor_refuses_a_prime_of_b_before_any_test(monkeypatch):
    # b = 52 = 2^2 13: with the bound below 13, conductor refuses without
    # testing c = 2 or 4; at 13 it tests every prime power as before
    calls = []
    test = endoring.scalar_action_test

    def counted(curve, frob, c):
        calls.append(c)
        return test(curve, frob, c)

    monkeypatch.setattr(endoring, "scalar_action_test", counted)
    e, frob = EXAMPLE1.curve(0), EXAMPLE1.frob
    assert frob.b == 52
    monkeypatch.setattr(endoring, "CONDUCTOR_BOUND", 12)
    with pytest.raises(CapacityError, match="prime 13 of b"):
        conductor(e, frob)
    assert calls == []
    monkeypatch.setattr(endoring, "CONDUCTOR_BOUND", 13)
    assert conductor(e, frob) == 1
    assert calls == [2, 4, 13]


def _log_curve13():
    return enumeration._log_curve(Curve(PrimeField(13), 2, 5), 1)


# library refusals the CLI never reaches: (call, exception type, message)
_REFUSALS = {
    "count above COUNT_BOUND": (
        lambda: Curve(PrimeField(10**18 + 3), 1, 1).count_points(),
        CapacityError, "exceeds the point-count bound",
    ),
    "action test at c = 0": (
        lambda: scalar_action_test(EXAMPLE1.curve(0), EXAMPLE1.frob, 0),
        ValueError, "c must be >= 1",
    ),
    "action test over a log field": (
        lambda: scalar_action_test(_log_curve13(), frobenius_from_trace(13, 5), 2),
        TypeError, "prime base field",
    ),
    "negative division polynomial index": (
        lambda: division_polys(EXAMPLE1.curve(0), [-1]),
        ValueError, "indices must be >= 0",
    ),
    "division polynomials over a log field": (
        lambda: division_polys(_log_curve13(), [2]),
        TypeError, "built over the prime field",
    ),
    "bruteforce conductor with another count": (
        lambda: conductor_bruteforce(EXAMPLE1.curve(0), frobenius_from_trace(3329, 51)),
        ValueError, "point count does not match",
    ),
    "predicted structure at k = 0": (
        lambda: predicted_group_structure(EXAMPLE1.frob, 1, 0),
        ValueError, "k must be >= 1",
    ),
    "predicted structure with g not dividing b": (
        lambda: predicted_group_structure(EXAMPLE1.frob, 3, 1),  # b = 52
        ValueError, "conductor 3 does not divide b_k = 52",
    ),
    "log field zero to a negative power": (
        lambda: enumeration.LogField(7, 1).pow(enumeration.LogField(7, 1).zero, -1),
        ZeroDivisionError, "0 is not invertible",
    ),
}


@pytest.mark.parametrize("row", list(_REFUSALS))
def test_library_refusals(row):
    call, kind, message = _REFUSALS[row]
    with pytest.raises(kind, match=message) as exc:
        call()
    assert type(exc.value) is kind
