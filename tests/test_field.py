import math
import random

import pytest

from isoclass.enumeration import LogField, _field_logs, _primitive_poly
from isoclass.field import (
    PACK_MIN_PRODUCT,
    PACK_THRESHOLD,
    PrimeField,
    Reducer,
    is_prime,
    poly_divmod,
    poly_invmod,
    poly_mod,
    poly_mul,
    poly_powmod,
    poly_trim,
)

from helpers import elements, legendre, poly_eval, poly_gcd


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for n in range(-3, 40):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2**127 - 1)
    assert not is_prime(2**128 + 1)
    assert is_prime(3329) and is_prime(1031)
    # strong pseudoprime to several small bases
    assert not is_prime(3215031751)


def test_legendre():
    assert legendre(4, 5) == 1
    assert legendre(0, 5) == 0
    assert legendre(2, 5) == -1
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            want = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre(a, p) == want
    with pytest.raises(ValueError):
        legendre(1, 2)
    with pytest.raises(ValueError):
        legendre(1, 15)


def test_prime_field_ops():
    f = PrimeField(7)
    assert f.char == 7
    assert f.add(3, 5) == 1
    assert f.sub(2, 5) == 4
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    assert f.pow(3, -1) == 5
    assert f.pow(3, 6) == 1
    assert f.neg(0) == 0
    assert list(elements(f)) == list(range(7))
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ValueError):
        PrimeField(6)


def test_poly_mul_matches_schoolbook():
    # slots of 1 to 5 64-bit words, p above 2^64 (packed without
    # machine words), shapes on both sides of PACK_MIN_PRODUCT, squares
    # (b is a), and all-(p-1) operands, the worst case for carries
    rng = random.Random(0)
    r = PACK_MIN_PRODUCT
    k = math.isqrt(r - 1)  # k*k < r <= (k+1)^2
    shapes = [(1, 1), (1, r - 1), (1, r), (1, 1404), (2, r // 2 - 1), (2, r // 2), (2, 300),
              (k, k), (k + 1, k + 1), (40, 40), (7, 1404), (57, 3)]
    # 257 and 65537: p - 1 needs one more byte than p - 2
    primes = [5, 101, 257, 2909, 65537, 1000003, 2**31 - 1, 999999999989, 2**61 - 1,
              999999999999999989, 2**64 - 59, 2**64 + 13, 2**127 - 1]
    widths = set()
    for p in primes:
        assert is_prime(p)
        for la, lb in shapes:
            widths.add(((min(la, lb) * (p - 1) ** 2).bit_length() + 63) // 64)
            a = [rng.randrange(p) for _ in range(la)]
            b = [rng.randrange(p) for _ in range(lb)]
            top_a, top_b = [p - 1] * la, [p - 1] * lb
            for x, y in [(a, b), (b, a), (a, a), (top_a, top_b), (top_a, top_a)]:
                ref = [0] * (len(x) + len(y) - 1)
                for i, cx in enumerate(x):
                    for j, cy in enumerate(y):
                        ref[i + j] += cx * cy
                ref = [c % p for c in ref]
                while ref and ref[-1] == 0:
                    ref.pop()
                assert poly_mul(x, y, p) == ref, (p, len(x), len(y))
    assert widths == {1, 2, 3, 4, 5}


def test_poly_divmod_roundtrip():
    rng = random.Random(1)
    p = 13
    for _ in range(50):
        a = [rng.randrange(p) for _ in range(rng.randrange(1, 12))]
        b = [rng.randrange(p) for _ in range(rng.randrange(1, 8))]
        if not any(b):
            continue
        while b and b[-1] == 0:
            b.pop()
        q, r = poly_divmod(a, b, p)
        lhs = poly_mul(q, b, p)
        recon = [0] * max(len(lhs), len(r))
        for i, c in enumerate(lhs):
            recon[i] = c
        for i, c in enumerate(r):
            recon[i] = (recon[i] + c) % p
        while recon and recon[-1] == 0:
            recon.pop()
        want = [c % p for c in a]
        while want and want[-1] == 0:
            want.pop()
        assert recon == want
        assert len(r) < len(b) or not r


def test_poly_gcd_known():
    p = 5
    assert poly_gcd([4, 0, 1], [4, 1], p) == [4, 1]          # x^2-1, x-1 -> x-1
    assert poly_gcd([0, 1], [1, 1], p) == [1]                # x, x+1 -> 1
    assert poly_gcd([1, 2, 1], [4, 0, 1], p) == [1, 1]       # (x+1)^2, x^2-1 -> x+1
    with pytest.raises(ValueError):
        poly_gcd([], [], p)


def test_poly_invmod_random():
    rng = random.Random(2)
    p = 7
    for _ in range(60):
        a = [rng.randrange(p) for _ in range(rng.randrange(0, 7))]
        m = [rng.randrange(p) for _ in range(rng.randrange(1, 6))] + [rng.randrange(1, p)]
        if poly_gcd(a, m, p) == [1]:
            inv = poly_invmod(a, m, p)
            assert len(inv) < len(m) and poly_mod(poly_mul(a, inv, p), m, p) == [1]
        else:
            with pytest.raises(ZeroDivisionError):
                poly_invmod(a, m, p)


def test_poly_invmod_and_failure():
    p = 5
    m = [1, 0, 1]  # x^2 + 1 = (x+2)(x+3) over F_5
    inv = poly_invmod([0, 1], m, p)
    assert poly_mod(poly_mul(inv, [0, 1], p), m, p) == [1]
    with pytest.raises(ZeroDivisionError):
        poly_invmod([2, 1], m, p)


def test_poly_powmod_known():
    p = 5
    assert poly_powmod([0, 1], 1, [1, 0, 1], p) == [0, 1]
    assert poly_powmod([0, 1], 4, [1, 0, 1], p) == [1]
    assert poly_powmod([0, 1], 5, [2, 0, 1], p) == [0, 4]
    assert poly_powmod([0, 1], 0, [1, 0, 1], p) == [1]


def _random_poly(rng, n, p):
    """Degree exactly n, lead not necessarily 1."""
    return [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]


def test_reducer_matches_divmod():
    # degrees on both sides of PACK_THRESHOLD, non-monic moduli, dividends
    # from degree 0 (already reduced) up to 3n (several top blocks)
    rng = random.Random(5)
    primes = (5, 2909, 1000003, 2**61 - 1)
    edges = (1, PACK_THRESHOLD - 1, PACK_THRESHOLD, PACK_THRESHOLD + 1, 2 * PACK_THRESHOLD, 150)
    for n in range(1, 151):
        for p in primes if n in edges else (primes[n % 4],):
            m = _random_poly(rng, n, p)
            red = Reducer(m, p)
            degrees = {0, n - 1, n, n + 1, 2 * n - 2, 2 * n - 1, 2 * n, 3 * n, rng.randrange(3 * n + 1)}
            for d in sorted(degrees):
                a = _random_poly(rng, d, p)
                assert red.reduce(a) == poly_divmod(a, m, p)[1], (n, p, d)
            assert red.reduce([]) == []
            assert red.reduce(m) == []
            # unreduced coefficients, which reduce leaves to its callers and
            # pow normalises; and a zero top block
            a = [rng.randrange(-3 * p, 3 * p) for _ in range(2 * n + 3)]
            assert red.pow(a, 1) == poly_divmod(a, m, p)[1], (n, p)
            assert red.reduce([0] * n + m) == []


def test_reducer_rejects_zero_modulus():
    with pytest.raises(ZeroDivisionError):
        Reducer([0, 0], 5)


def test_poly_powmod_matches_repeated_multiply():
    rng = random.Random(6)
    for n, p in ((32, 2909), (45, 1000003), (70, 2**61 - 1)):
        m = _random_poly(rng, n, p)
        for base, emax in (([0, 1], 10**4), (_random_poly(rng, n + 3, p), 300)):
            checks = {0, 1, 2, 3, 31, 32, 33, emax - 1, emax} | {rng.randrange(emax) for _ in range(5)}
            acc = [1]
            for e in range(emax + 1):
                if e in checks:
                    assert poly_powmod(base, e, m, p) == acc, (n, p, e)
                acc = poly_divmod(poly_mul(acc, base, p), m, p)[1]
    # a base with negative and >= p coefficients whose top two vanish mod p,
    # which pow normalises before its first product; at 2n coefficients its
    # quotient by m is long enough to be a packed product
    rng = random.Random(7)
    for n, p in ((32, 2909), (45, 1000003), (70, 2**61 - 1)):
        m = _random_poly(rng, n, p)
        base = [rng.randrange(-3 * p, 3 * p) for _ in range(2 * n)] + [p, -2 * p]
        reduced = poly_trim([c % p for c in base])
        acc = [1]
        for e in range(12):
            assert poly_powmod(base, e, m, p) == acc, (n, p, e)
            acc = poly_divmod(poly_mul(acc, reduced, p), m, p)[1]


def test_poly_eval():
    p = 7
    f = [1, 2, 3]  # 3x^2 + 2x + 1
    for x in range(p):
        assert poly_eval(f, x, p) == (3 * x * x + 2 * x + 1) % p


def test_find_irreducible_known():
    # the modulus of the log tables: x - c for the smallest primitive root c
    # at k = 1, and at k >= 2 the first primitive f of norm c, which has no
    # root in F_p
    assert _primitive_poly(5, 1) == [3, 1]
    assert _primitive_poly(7, 1) == [4, 1]
    assert _primitive_poly(5, 2) == [2, 1, 1]
    assert _primitive_poly(7, 2) == [3, 1, 1]
    assert _primitive_poly(5, 3) == [3, 3, 0, 1]
    for p, k in ((5, 2), (7, 2), (5, 3)):
        f = _primitive_poly(p, k)
        assert all(poly_eval(f, x, p) != 0 for x in range(p)), (p, k)


def test_ext_field_arithmetic():
    # F_25 in log form, on base x modulo the primitive f: x^2 = -f1 x - f0,
    # and every unit has order dividing 24
    F = LogField(5, 2)
    f = _primitive_poly(5, 2)
    assert F.char == 5 and F.n == 24
    one, zero, x = F.one, F.zero, 1  # the log 1 is x
    assert F.add(one, zero) == one
    assert F.mul(x, x) == F.sub(F.mul(F.from_int(-f[1]), x), F.from_int(f[0]))
    for e in (F.from_int(2), x, F.add(x, one)):
        assert F.pow(e, 24) == one
        assert F.mul(e, F.inv(e)) == one
    with pytest.raises(ZeroDivisionError):
        F.inv(zero)


def test_ext_field_encode_decode_roundtrip():
    # exp decodes the logs 0 .. q - 1 (q - 1 standing for zero) onto every
    # code of F_125 once, dlog encodes them back, and a constant is its own
    # code
    exp, dlog, _ = _field_logs(5, 3)
    assert sorted(exp.tolist()) == list(range(125))
    assert [int(dlog[c]) for c in exp] == list(range(125))
    F = LogField(5, 3)
    assert [int(exp[F.from_int(c)]) for c in range(5)] == list(range(5))


def test_ext_field_frobenius_fixed_field():
    # a^q = a exactly for base-field elements
    F = LogField(7, 2)
    fixed = {a for a in range(F.n + 1) if F.pow(a, 7) == a}
    assert fixed == {F.from_int(c) for c in range(7)}
    x = 1
    assert F.pow(x, 7) != x
    assert F.pow(x, 49) == x
