import itertools
import math
import random

import pytest

from isoclass import isomorphy
from isoclass.isomorphy import (
    EVEN_GENERIC,
    EVEN_NASTY,
    ODD_P,
    ComparisonInput,
    IsoPattern,
    gcd_criterion,
    gcd_table,
    iso_pattern,
    nasty_reduce,
    pattern_eval,
    predicted_group_structure,
    prime_set,
    valuation_criterion,
)
from isoclass.field import is_prime
from isoclass.quadorder import factorize, frobenius_from_trace, vp

from conftest import EXAMPLE1, EXAMPLE2, EXAMPLE3
from helpers import allowed, group_order, zd_norm, zd_pow, zd_trace


def test_comparison_input_validation():
    frob = EXAMPLE1.frob
    with pytest.raises(ValueError):
        ComparisonInput(frob, 0, 1)
    with pytest.raises(ValueError):
        ComparisonInput(frob, 3, 1)  # 3 does not divide b = 52
    ComparisonInput(frob, 52, 26)


def test_gcd_criterion_direct():
    # g = g' always isomorphic; and k=1 groups match iff gcd's agree
    frob = EXAMPLE1.frob
    inp = ComparisonInput(frob, 13, 13)
    assert all(gcd_criterion(inp, k) for k in range(1, 30))
    inp = ComparisonInput(frob, 1, 13)
    assert gcd_criterion(inp, 1)       # gcd(24,52)=4 = gcd(24,4)
    assert not gcd_criterion(inp, 2)
    # the table steps tau^k once per k
    assert gcd_table(inp, 29) == [gcd_criterion(inp, k) for k in range(1, 30)]
    assert gcd_table(inp, 0) == []


def test_prime_set_example1():
    frob = EXAMPLE1.frob
    # g=1 vs g'=13: P = {13}, s = 1, e = ord(25 mod 13) = 2, strict
    (pa,) = prime_set(ComparisonInput(frob, 1, 13))
    assert (pa.p, pa.s, pa.e, pa.case) == (13, 1, 2, ODD_P)
    assert pa.strict  # v_13(25^2 - 1) = 1 > v_13(52) - 1 = 0
    # g=1 vs g'=4: P = {2}, s = 2, e = ord(25 mod 4) = 1, v_2(24)=3 > v_2(52)-2=0
    (pa,) = prime_set(ComparisonInput(frob, 1, 4))
    assert (pa.p, pa.s, pa.e, pa.case) == (2, 2, 1, EVEN_GENERIC)
    assert pa.strict
    # g=2 vs g'=4 also only p=2 with s=2
    (pa,) = prime_set(ComparisonInput(frob, 2, 4))
    assert (pa.p, pa.s) == (2, 2)
    # equal valuations drop out: g=2 vs g'=26 leaves only p=13
    (pa,) = prime_set(ComparisonInput(frob, 2, 26))
    assert pa.p == 13


def test_prime_set_example2():
    frob = EXAMPLE2.frob
    (pa,) = prime_set(ComparisonInput(frob, 1, 25))
    assert (pa.p, pa.s, pa.e, pa.case) == (5, 2, 4, ODD_P)
    assert pa.strict  # v_5(52^4 - 1) = 1 > v_5(25) - 2 = 0
    (pa,) = prime_set(ComparisonInput(frob, 1, 5))
    assert (pa.p, pa.s, pa.e) == (5, 1, 4)
    assert not pa.strict  # v_5(52^4 - 1) = 1 <= v_5(25) - 1 = 1


def test_prime_set_example3_nasty():
    frob = EXAMPLE3.frob  # b = 14, v_2(b) = 1
    pas = prime_set(ComparisonInput(frob, 1, 14))
    assert [pa.p for pa in pas] == [2, 7]
    p2, p7 = pas
    assert p2.case == EVEN_NASTY and p2.s == 1
    assert (p7.case, p7.s, p7.e) == (ODD_P, 1, 3)
    assert p7.strict  # v_7((-17)^3 - 1) = 1 > v_7(14) - 1 = 0
    # g=7 vs g'=14: only p = 2 remains
    (pa,) = prime_set(ComparisonInput(frob, 7, 14))
    assert pa.case == EVEN_NASTY


def test_prime_set_factors_b_once_across_k(monkeypatch):
    calls = []
    real = isomorphy.factorize
    monkeypatch.setattr(isomorphy, "factorize", lambda n: calls.append(n) or real(n))
    inp = ComparisonInput(EXAMPLE1.frob, 1, 13)

    def factorize_calls(kmax):
        prime_set.cache_clear()
        calls.clear()
        for k in range(1, kmax + 1):
            valuation_criterion(inp, k)
        return len(calls)

    assert factorize_calls(60) == factorize_calls(1) == 1


def test_nasty_reduce():
    frob = EXAMPLE3.frob
    red = nasty_reduce(frob)
    assert (red.a, red.b) == (-691, -280)
    assert red.q == 1031**2
    assert red.t == zd_trace((frob.a, frob.b), frob.m) ** 2 - 2 * 1031
    assert vp(red.b, 2) >= 2
    assert red.a % 2 == 1


def test_iso_pattern_nasty():
    frob = EXAMPLE3.frob
    inp = ComparisonInput(frob, 7, 14)
    pat = iso_pattern(inp)
    (pa,) = prime_set(inp)
    assert pa.case == EVEN_NASTY
    assert (pat.even, pat.not_dividing) == (True, ())
    # v_2(b) = 1 = s: every odd k blocks
    for k in (1, 3, 5, 7, 9):
        assert not pattern_eval(pat, k)
    # even k: reduced data has v_2(B) - s = 2 >= v_2(A - 1); never blocks
    for k in (2, 4, 6, 8, 10, 12):
        assert pattern_eval(pat, k)


def test_iso_pattern_canonical_equality():
    assert IsoPattern(True, (3,)) == IsoPattern(True, (6,))
    assert hash(IsoPattern(True, (3,))) == hash(IsoPattern(True, (6,)))
    assert IsoPattern(True, (2,)) == IsoPattern(False, (1, 5)) == IsoPattern(False, (1,))
    assert IsoPattern(False, (8, 6, 4)) == IsoPattern(False, (4, 6))
    assert IsoPattern(False, (3,)) != IsoPattern(True, (3,))
    assert iso_pattern(ComparisonInput(EXAMPLE1.frob, 1, 13)) == IsoPattern(False, (2,))
    with pytest.raises(ValueError):
        IsoPattern(False, (0,))
    # equal exactly when the sets of allowed k agree; 840 = lcm(1..8) is a
    # period of every pattern below
    forms = [
        IsoPattern(even, ds)
        for even in (False, True)
        for size in range(3)
        for ds in itertools.combinations(range(1, 9), size)
    ]
    ksets = [tuple(pattern_eval(pat, k) for k in range(1, 841)) for pat in forms]
    for (a, ka), (b, kb) in itertools.combinations(zip(forms, ksets), 2):
        assert (a == b) == (ka == kb), (a, b)
    for pat, kset in zip(forms, ksets):
        m = pat.modulus
        assert 840 % m == 0
        assert allowed(pat) == frozenset(k % m for k in range(1, m + 1) if kset[k - 1])


def _allowed_by_eval(pat):
    m = pat.modulus
    return frozenset(r for r in range(m) if pattern_eval(pat, r or m))


def test_allowed_sieve_matches_pattern_eval():
    # every canonical form with divisors up to 8, then a modulus near 10^5
    forms = {
        IsoPattern(even, ds)
        for even in (False, True)
        for size in range(9)
        for ds in itertools.combinations(range(1, 9), size)
    }
    for pat in forms:
        assert allowed(pat) == _allowed_by_eval(pat), pat
    for even in (False, True):
        pat = IsoPattern(even, (4, 3, 7, 29, 41))
        assert pat.modulus == 99876
        res = allowed(pat)
        assert res == _allowed_by_eval(pat)
        assert (0 in res) == pattern_eval(pat, 99876)
        # by CRT: k mod 4 in {1, 2, 3} ({2} when even), times 2 * 6 * 28 * 40
        assert len(res) == (1 if even else 3) * 2 * 6 * 28 * 40


def test_iso_pattern_example1():
    frob = EXAMPLE1.frob
    gs = EXAMPLE1.conductors
    odd_pairs = {(0, 2), (1, 5), (3, 4)}
    for i, j in itertools.combinations(range(6), 2):
        pat = iso_pattern(ComparisonInput(frob, gs[i], gs[j]))
        if (i, j) in odd_pairs:
            assert pat.modulus == 2 and allowed(pat) == frozenset({1})
        else:
            assert allowed(pat) == frozenset()


def test_iso_pattern_example2():
    frob = EXAMPLE2.frob
    pat = iso_pattern(ComparisonInput(frob, 1, 25))
    assert pat.modulus == 4 and allowed(pat) == frozenset({1, 2, 3})
    pat = iso_pattern(ComparisonInput(frob, 25, 5))
    assert pat.modulus == 4 and allowed(pat) == frozenset({1, 2, 3})
    pat = iso_pattern(ComparisonInput(frob, 1, 5))
    assert allowed(pat) == frozenset(range(pat.modulus))


def test_iso_pattern_example3():
    frob = EXAMPLE3.frob
    want = {
        (7, 1): (6, {1, 2, 4, 5}),
        (7, 14): (2, {0}),
        (7, 2): (6, {2, 4}),
        (1, 14): (6, {2, 4}),
        (1, 2): (2, {0}),
        (14, 2): (6, {1, 2, 4, 5}),
    }
    for (g, g2), (mod, res) in want.items():
        pat = iso_pattern(ComparisonInput(frob, g, g2))
        assert (pat.modulus, allowed(pat)) == (mod, frozenset(res)), (g, g2)


def test_iso_pattern_symmetric():
    for fx in (EXAMPLE1, EXAMPLE2, EXAMPLE3):
        for g, g2 in itertools.combinations(fx.conductors, 2):
            a = iso_pattern(ComparisonInput(fx.frob, g, g2))
            b = iso_pattern(ComparisonInput(fx.frob, g2, g))
            assert a == b


def test_iso_pattern_equal_conductors():
    pat = iso_pattern(ComparisonInput(EXAMPLE1.frob, 26, 26))
    assert pat.modulus == 1 and allowed(pat) == frozenset({0})
    assert all(pattern_eval(pat, k) for k in range(1, 20))


def test_pattern_eval_periodicity():
    for fx in (EXAMPLE1, EXAMPLE2, EXAMPLE3):
        for g, g2 in itertools.permutations(fx.conductors, 2):
            pat = iso_pattern(ComparisonInput(fx.frob, g, g2))
            for k in range(1, 40):
                assert pattern_eval(pat, k) == pattern_eval(pat, k + pat.modulus)


def test_three_criteria_agree_on_examples():
    for fx in (EXAMPLE1, EXAMPLE2, EXAMPLE3):
        for g, g2 in itertools.permutations(fx.conductors, 2):
            inp = ComparisonInput(fx.frob, g, g2)
            pat = iso_pattern(inp)
            for k in range(1, 80):
                a = gcd_criterion(inp, k)
                b = valuation_criterion(inp, k)
                c = pattern_eval(pat, k)
                assert a == b == c, (fx.q, fx.t, g, g2, k)


def _divisors(n):
    out = [1]
    for p, k in factorize(n).items():
        out = [d * p**i for d in out for i in range(k + 1)]
    return sorted(out)


def test_gcd_table_matches_gcd_criterion_seeded():
    # the table's one gcd on b_k / gcd(g, g') per k, against the per-k
    # reference, over seeded classes (prime and prime-power q) until every
    # kind of conductor pair has come up a few times
    rng = random.Random(24)
    fields = [q for q in range(5, 3000) if len(factorize(q)) == 1 and q % 2]
    kinds_wanted = ["equal", "divides", "coprime", "2-adic, v_2(b) = 1", "2-adic, v_2(b) >= 2"]
    seen = dict.fromkeys(kinds_wanted, 0)
    K = 40
    while min(seen.values()) < 6:
        q = rng.choice(fields)
        t = rng.randrange(-math.isqrt(4 * q - 1), math.isqrt(4 * q - 1) + 1)
        if math.gcd(t, q) != 1:
            continue
        frob = frobenius_from_trace(q, t)
        divs = _divisors(frob.b)
        g, g2 = rng.choice(divs), rng.choice(divs)
        kinds = []
        if g == g2:
            kinds.append("equal")
        elif g2 % g == 0:
            kinds.append("divides")
        elif math.gcd(g, g2) == 1 and g > 1 and g2 > 1:
            kinds.append("coprime")
        if vp(g, 2) != vp(g2, 2):
            kinds.append("2-adic, v_2(b) = 1" if vp(frob.b, 2) == 1 else "2-adic, v_2(b) >= 2")
        if not kinds or all(seen[kind] >= 6 for kind in kinds):
            continue
        inp = ComparisonInput(frob, g, g2)
        assert gcd_table(inp, K) == [gcd_criterion(inp, k) for k in range(1, K + 1)], (q, t, g, g2)
        for kind in kinds:
            seen[kind] += 1


def test_three_criteria_agree_random_classes():
    rng = random.Random(8)
    primes = [q for q in range(5, 4000) if all(q % d for d in range(2, int(q**0.5) + 1))]
    classes = 0
    while classes < 60:
        q = rng.choice(primes)
        bound = int(2 * math.isqrt(q))
        t = rng.randrange(-bound, bound + 1)
        if t % q == 0 or t * t >= 4 * q:
            continue
        frob = frobenius_from_trace(q, t)
        if frob.b == 1:
            continue  # no nontrivial divisor pairs
        divs = _divisors(frob.b)
        for _ in range(4):
            g, g2 = rng.choice(divs), rng.choice(divs)
            inp = ComparisonInput(frob, g, g2)
            pat = iso_pattern(inp)
            for k in range(1, 61):
                a = gcd_criterion(inp, k)
                b = valuation_criterion(inp, k)
                c = pattern_eval(pat, k)
                assert a == b == c, (q, t, g, g2, k)
        classes += 1


def test_nasty_classes_randomized():
    # classes with v_2(b) = 1 stress the halving step
    rng = random.Random(9)
    primes = [q for q in range(5, 2000) if all(q % d for d in range(2, int(q**0.5) + 1))]
    found = 0
    while found < 25:
        q = rng.choice(primes)
        bound = int(2 * math.isqrt(q))
        t = rng.randrange(-bound, bound + 1)
        if t % q == 0 or t * t >= 4 * q:
            continue
        frob = frobenius_from_trace(q, t)
        if vp(frob.b, 2) != 1:
            continue
        red = nasty_reduce(frob)
        assert vp(red.b, 2) >= 2 and red.a % 2 == 1
        divs = _divisors(frob.b)
        g, g2 = rng.choice(divs), rng.choice(divs)
        inp = ComparisonInput(frob, g, g2)
        pat = iso_pattern(inp)
        for k in range(1, 50):
            assert gcd_criterion(inp, k) == pattern_eval(pat, k), (q, t, g, g2, k)
        assert gcd_table(inp, 49) == [pattern_eval(pat, k) for k in range(1, 50)], (q, t, g, g2)
        found += 1


def test_predicted_group_structure_example1():
    frob = EXAMPLE1.frob
    want_n1 = {1: 4, 52: 1, 13: 4, 26: 2, 2: 2, 4: 1}
    for g, n1 in want_n1.items():
        s = predicted_group_structure(frob, g, 1)
        assert s.n1 == n1
        assert group_order(s) == 3280


def test_pattern_eval_rejects_nonpositive_k():
    pat = iso_pattern(ComparisonInput(EXAMPLE1.frob, 1, 13))
    with pytest.raises(ValueError):
        pattern_eval(pat, 0)


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def _vp_capped(x, p, cap):
    v = 0
    while v < cap and x % p == 0:
        x //= p
        v += 1
    return v


def test_three_criteria_agree_large_primes():
    # q up to ~1e30 with a prime p | b up to ~1e9: the pattern stays polylog,
    # and at k = e, 2e (far beyond exact tau^k) it is checked against the
    # p-part of the gcd test, computed from tau^k mod p^n
    rng = random.Random(12)
    classes = 0
    while classes < 16:
        p = _next_prime(int(10 ** rng.uniform(3, 9)))
        j = 2 if p < 10**5 and rng.random() < 0.5 else 1
        cof = 2 ** rng.randrange(4) * 3 ** rng.randrange(3) * rng.choice((1, 5, 7, 11))
        m = rng.choice((-1, -2, -3, -5, -6, -7, -11, -19))
        b = p**j * cof
        a = rng.randrange(-(10**15), 10**15)
        q = zd_norm((a, b), m)
        if math.gcd(a, b) != 1 or not is_prime(q):
            continue
        frob = frobenius_from_trace(q, zd_trace((a, b), m))
        assert frob.b == b
        divs = _divisors(b)
        base = rng.choice([d for d in divs if d % p])
        pairs = [(rng.choice(divs), rng.choice(divs)) for _ in range(2)]
        pairs.append((base, base * p ** rng.randrange(1, j + 1)))
        for g, g2 in pairs:
            inp = ComparisonInput(frob, g, g2)
            pat = iso_pattern(inp)
            for k in range(1, 61):
                a1 = gcd_criterion(inp, k)
                a2 = valuation_criterion(inp, k)
                a3 = pattern_eval(pat, k)
                assert a1 == a2 == a3, (q, frob.t, g, g2, k)
        # g and g2 differ only at p, so the gcd test reduces to its p-part
        (pa,) = prime_set(inp)
        assert pa.p == p
        n = j + 2
        for k in (pa.e, 2 * pa.e):
            ak, bk = zd_pow((frob.a, frob.b), k, frob.m, p**n)  # tau^k mod p^n
            va, vb = _vp_capped(ak - 1, p, n), _vp_capped(bk, p, n)
            assert vb < n
            iso = min(va, vb - vp(g, p)) == min(va, vb - vp(g2, p))
            assert iso == pattern_eval(pat, k), (q, frob.t, g, g2, k)
        classes += 1
