import collections
import math
import random

import pytest

from isoclass import quadorder
from isoclass.quadorder import (
    HALF,
    SQRT,
    CapacityError,
    FrobeniusData,
    SupersingularError,
    delta_kind,
    factorize,
    frobenius_from_trace,
    mult_order,
    squarefree_decompose,
    vp,
)

from isoclass.cli import main
from isoclass.field import is_prime
from isoclass.isomorphy import nasty_reduce

from helpers import binom_valuation, lte, trial_factor, zd_mul, zd_norm, zd_pow, zd_trace


def test_vp():
    assert vp(24, 2) == 3
    assert vp(624, 13) == 1
    assert vp(1, 7) == 0
    assert vp(-8, 2) == 3
    with pytest.raises(ValueError):
        vp(0, 2)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(2**10) == {2: 10}
    assert factorize(3 * 3 * 5 * 49) == {3: 2, 5: 1, 7: 2}
    big = (2**31 - 1) * (2**61 - 1)
    assert factorize(big) == {2**31 - 1: 1, 2**61 - 1: 1}
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randrange(2, 10**9)
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_matches_trial_division():
    # seeded p^2 and p^3 with p > 2^10, semiprimes with factors between 2^10
    # and 2^30, Carmichael numbers, primes and 1; n is built from parts and
    # the reference factors each part by trial division
    rng = random.Random(14)

    def prime(lo, hi):
        while True:
            p = rng.randrange(lo, hi)
            if trial_factor(p) == {p: 1}:
                return p

    def chernick():
        # (6k+1)(12k+1)(18k+1) with all three prime is a Carmichael number
        while True:
            k = rng.randrange(1, 10**5)
            parts = [6 * k + 1, 12 * k + 1, 18 * k + 1]
            if all(trial_factor(p) == {p: 1} for p in parts):
                return parts

    cases = [[], [561], [1105], [1729], [2465], [6601], [8911]]
    for _ in range(6):
        p = prime(2**10, 2**20)
        cases += [[p, p], [p, p, p]]
        cases.append([prime(2**10, 2**30), prime(2**10, 2**30)])
        cases.append([prime(2**10, 2**17), prime(2**25, 2**30), rng.randrange(1, 2**10)])
        cases.append(chernick())
        cases.append([prime(2**20, 2**34)])
    for parts in cases:
        n = math.prod(parts)
        want = collections.Counter()
        for part in parts:
            want.update(trial_factor(part))
        assert factorize(n) == dict(want), parts


def test_factorize_budget(monkeypatch):
    # past the rho budget factorize, and mult_order through it, give up
    # with CapacityError instead of running on
    n = 1073741827 * 1073741831  # two primes near 2^30
    assert factorize(n) == {1073741827: 1, 1073741831: 1}
    monkeypatch.setattr(quadorder, "_RHO_BUDGET", 1 << 10)
    with pytest.raises(CapacityError, match="Pollard rho"):
        factorize(n)
    with pytest.raises(CapacityError):
        mult_order(2, n)
    assert factorize(1031 * 1033) == {1031: 1, 1033: 1}


def test_squarefree_decompose():
    assert squarefree_decompose(-10816) == (-1, 104)
    assert squarefree_decompose(-3724) == (-19, 14)
    assert squarefree_decompose(-7) == (-7, 1)
    assert squarefree_decompose(-4) == (-1, 2)
    with pytest.raises(ValueError):
        squarefree_decompose(4)


@pytest.mark.parametrize("n, expected", [
    (2**1000, True),
    (3**600, True),
    (10007**60, True),
    (6**200, False),
    (3 * 2**500, False),
    (1000003**2 * 1000033, False),
], ids=["2^1000", "3^600", "10007^60", "6^200", "3*2^500", "1000003^2*1000033"])
def test_is_prime_power(n, expected):
    # composite exponents: 2^1000 is a square whose root 2^500 is no prime,
    # so a search over prime exponents alone would have to recurse on roots
    assert quadorder._is_prime_power(n) is expected


def test_lte_known():
    assert lte(3, 4, 1, 3) == 2      # v_3(4^3 - 1) = v_3(63) = 2
    assert lte(2, 5, 1, 4) == 4      # v_2(5^4 - 1) = v_2(624) = 4
    assert lte(5, 6, 1, 25) == 3     # v_5(6^25 - 1) = 1 + 2


def test_lte_matches_direct():
    rng = random.Random(4)
    primes = [p for p in range(2, 98) if all(p % d for d in range(2, p))]
    checked = 0
    while checked < 2000:
        p = rng.choice(primes)
        a = rng.randrange(-1000, 1001)
        b = rng.randrange(-1000, 1001)
        k = rng.randrange(1, 51)
        if a == b or a % p != b % p or a % p == 0:
            continue
        if p == 2 and (a - b) % 4 != 0:
            continue
        got = lte(p, a, b, k)
        assert got == vp(a**k - b**k, p), (p, a, b, k)
        checked += 1


def test_lte_rejects_bad_input():
    with pytest.raises(ValueError):
        lte(3, 4, 2, 3)       # a != b mod p
    with pytest.raises(ValueError):
        lte(3, 3, 6, 2)       # p | a
    with pytest.raises(ValueError):
        lte(2, 5, 3, 2)       # p = 2 needs a = b mod 4
    with pytest.raises(ValueError):
        lte(3, 4, 4, 2)       # a = b


def test_binom_valuation_known():
    assert binom_valuation(2, 2, 1, 2) == 1     # v_2(C(4, 2)) = 1
    assert binom_valuation(3, 1, 1, 3) == 0     # v_3(C(3, 3)) = 0
    for p, l in [(2, 3), (3, 2), (5, 1)]:
        assert binom_valuation(p, l, 1, 1) == l


def test_binom_valuation_matches_direct():
    for p in (2, 3, 5, 7):
        for l in range(0, 6):
            for m in range(1, 8):
                if m % p == 0:
                    continue
                n = p**l * m
                if n > 512:
                    continue
                for r in range(1, p**l + 1):
                    assert binom_valuation(p, l, m, r) == vp(math.comb(n, r), p), (p, l, m, r)


def test_mult_order():
    assert mult_order(25, 4) == 1
    assert mult_order(52, 5) == 4
    assert mult_order(-17, 7) == 3
    assert mult_order(3, 4) == 2
    for n in (3, 4, 5, 7, 9, 16):
        for a in range(n):
            if math.gcd(a, n) != 1:
                continue
            e = mult_order(a, n)
            assert pow(a, e, n) == 1
            assert all(pow(a, d, n) != 1 for d in range(1, e))
    with pytest.raises(ValueError):
        mult_order(2, 4)


def test_mult_order_large_modulus():
    p = 1000000007  # p - 1 = 2 * 500000003, 5 a primitive root
    assert mult_order(5, p) == p - 1
    assert mult_order(25, p) == (p - 1) // 2
    assert mult_order(-1, p) == 2
    r = 998244353  # r - 1 = 2^23 * 7 * 17, 3 a primitive root
    assert mult_order(3, r) == r - 1
    assert mult_order(pow(3, 7 * 17, r), r) == 2**23
    assert mult_order(pow(3, 2**23, r), r) == 7 * 17
    # composite modulus: lcm(ord mod 2^9, ord mod 5^9) = lcm(2^7, 4 * 5^8)
    assert mult_order(3, 10**9) == 50_000_000


def test_delta_kind():
    assert delta_kind(-1) == SQRT
    assert delta_kind(-2) == SQRT
    assert delta_kind(-19) == HALF
    assert delta_kind(-3) == HALF
    with pytest.raises(ValueError):
        delta_kind(5)


def test_frobenius_from_trace_examples():
    f = frobenius_from_trace(3329, 50)
    assert (f.a, f.b, f.m) == (25, 52, -1) and f.kind == SQRT
    f = frobenius_from_trace(3329, 104)
    assert (f.a, f.b, f.m) == (52, 25, -1)
    f = frobenius_from_trace(1031, -20)
    assert (f.a, f.b, f.m) == (-17, 14, -19) and f.kind == HALF
    f = frobenius_from_trace(5, -3)
    assert (f.a, f.b, f.m) == (-2, 1, -11) and f.kind == HALF


def test_frobenius_invariants():
    rng = random.Random(6)
    primes = [q for q in range(5, 500) if all(q % d for d in range(2, q))]
    for _ in range(80):
        q = rng.choice(primes)
        t = rng.randrange(-int(2 * math.isqrt(q)), int(2 * math.isqrt(q)) + 1)
        if t % q == 0 or t * t >= 4 * q:
            continue
        f = frobenius_from_trace(q, t)
        assert zd_norm((f.a, f.b), f.m) == q
        assert zd_trace((f.a, f.b), f.m) == t
        assert f.b >= 1
        assert math.gcd(f.a, f.b) == 1
        assert f.point_count(1) == q + 1 - t
        # tau^k has norm q^k, trace recurrence t_{k+1} = t*t_k - q*t_{k-1}
        tk_prev, tk = 2, t
        for k in range(1, 6):
            ak, bk = f.power(k)
            assert zd_pow((f.a, f.b), k, f.m) == (ak, bk)
            assert zd_trace((ak, bk), f.m) == tk
            tk_prev, tk = tk, t * tk - q * tk_prev
            assert bk % f.b == 0


def test_frobenius_rejects_supersingular():
    with pytest.raises(SupersingularError):
        frobenius_from_trace(5, 0)
    with pytest.raises(SupersingularError):
        frobenius_from_trace(7, 7)


def test_frobenius_rejects_real():
    with pytest.raises(ValueError):
        frobenius_from_trace(4, 4)  # t^2 = 4q
    # gcd(4, 4) > 1 refuses the line above as supersingular first; at gcd 1,
    # t^2 - 4q = 8 reaches the check on the sign of the discriminant
    with pytest.raises(ValueError, match="not negative") as exc:
        frobenius_from_trace(7, 6)
    assert not isinstance(exc.value, SupersingularError)
    assert main(["pattern", "--q", "7", "--trace", "6", "--g", "1", "--g2", "1"]) == 2


def test_frobenius_rejects_square_factor_in_m():
    # norm 5, trace 2 and gcd(a, b) = 1 all hold; only m = -4 is wrong
    with pytest.raises(ValueError, match="squarefree"):
        FrobeniusData(5, 2, 1, 1, -4)


def test_frobenius_checks_reject_hand_built_tuples():
    FrobeniusData(3329, 50, 25, 52, -1)  # the valid tuple the others bend
    with pytest.raises(ValueError, match="norm"):
        FrobeniusData(3331, 50, 25, 52, -1)
    with pytest.raises(ValueError, match="trace"):
        FrobeniusData(3329, 52, 25, 52, -1)
    with pytest.raises(ValueError, match="norm"):
        FrobeniusData(1031, -20, -17, 14, -7)  # m = -19 data read with m = -7
    with pytest.raises(ValueError, match="t\\^2"):
        FrobeniusData(1, 2, 1, 0, -1)  # norm 1, trace 2: b = 0 is real
    with pytest.raises(ValueError, match="gcd\\(a, b\\)"):
        FrobeniusData(5, 1, 2, 2, -1)  # gcd(t, q) = 1 here, so the norm (8) is off
    with pytest.raises(SupersingularError):
        FrobeniusData(2, 2, 1, 1, -1)  # norm 2, trace 2, gcd(a, b) = 1
    with pytest.raises(SupersingularError):
        FrobeniusData(9, 3, 0, 3, -3)  # norm 9, trace 3, and gcd(a, b) = 3 as well
    with pytest.raises(ValueError, match="negative"):
        FrobeniusData(5, 2, 1, 1, 4)


def test_power_edges():
    f = frobenius_from_trace(3329, 50)
    assert f.power(0) == (1, 0)
    assert list(f.powers(0)) == []
    with pytest.raises(ValueError):
        f.power(-1)
    with pytest.raises(ValueError):
        f.point_count(-1)


def test_power_matches_zdelta_reference():
    # tau^k from tau^2 = t*tau - q against repeated squaring in Z[delta],
    # for q from 5 to 10^18, both kinds of delta and k up to 300; the
    # stepped powers against power(k)
    rng = random.Random(13)
    kinds = {SQRT: 0, HALF: 0}
    squared = 0
    while min(kinds.values()) < 20:
        q = int(10 ** rng.uniform(0.7, 18))
        while not is_prime(q):
            q += 1
        r = math.isqrt(4 * q - 1)
        t = rng.randrange(-r, r + 1)
        if t % q == 0:
            continue
        f = frobenius_from_trace(q, t)
        kinds[f.kind] += 1
        tau = (f.a, f.b)
        for k in (*range(12), rng.randrange(12, 300), 300):
            ak, bk = f.power(k)
            assert (ak, bk) == zd_pow(tau, k, f.m), (q, t, k)
            assert f.point_count(k) == zd_norm((ak - 1, bk), f.m), (q, t, k)
        assert list(f.powers(300)) == [f.power(k) for k in range(1, 301)], (q, t)
        if f.b % 2 == 0:
            red = nasty_reduce(f)
            sq = zd_mul(tau, tau, f.m)
            assert (red.q, red.t, red.a, red.b, red.m) == (
                q * q, zd_trace(sq, f.m), *sq, f.m), (q, t)
            squared += 1
    assert squared >= 5


def test_point_count_via_norm():
    f = frobenius_from_trace(3329, 50)
    assert f.point_count(1) == 3280
    # |E(F_(q^k))| = q^k + 1 - t_k
    tk_prev, tk = 2, 50
    for k in range(1, 8):
        assert f.point_count(k) == 3329**k + 1 - tk
        tk_prev, tk = tk, 50 * tk - 3329 * tk_prev
