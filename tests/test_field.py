import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from isoclass.enumeration import LogField, _field_logs, _primitive_poly
from isoclass.field import (
    PACK_MIN_PRODUCT,
    PACK_THRESHOLD,
    PrimeField,
    Reducer,
    _inverse_series,
    _poly_mul_packed,
    _strong_lucas,
    is_prime,
    poly_divmod,
    poly_invmod,
    poly_mod,
    poly_mul,
    poly_powmod,
    poly_trim,
)

from helpers import PolyField, elements, legendre, poly_eval, poly_gcd, power_codes

# the smallest strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


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
    # psi_12 passes Miller-Rabin to the 12 prime bases 2..37, psi_13 to the
    # 13 bases 2..41 (Sorenson and Webster, Math. Comp. 86, 2017)
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_13 == 1287836182261 * 2575672364521
    assert not is_prime(PSI_12) and not is_prime(PSI_13)
    assert is_prime(2**89 - 1) and is_prime(2**521 - 1)


def test_strong_lucas_alone():
    # Selfridge's method A accepts exactly the primes and the strong Lucas
    # pseudoprimes (OEIS A217255) among the odd n < 60000
    pseudoprimes = {5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519}
    composite = bytearray(60000)
    for d in range(3, 245, 2):
        composite[d * d :: 2 * d] = b"\1" * len(range(d * d, 60000, 2 * d))
    primes = {n for n in range(3, 60000, 2) if not composite[n]}
    assert {n for n in range(3, 60000, 2) if _strong_lucas(n)} == primes | pseudoprimes
    assert not _strong_lucas(PSI_12) and not _strong_lucas(PSI_13)
    assert _strong_lucas(2**89 - 1) and _strong_lucas(2**127 - 1)


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


def test_truncated_products_are_the_low_part():
    # poly_mul(..., keep) and the packed product's mask give the full
    # product cut to its low keep coefficients: slots of 1 to 5 words, p
    # above 2^64 (packed without machine words), keep below, at and past the
    # product's length, and keep shorter than an operand
    rng = random.Random(24)
    shapes = [(1, 1), (1, 300), (2, 64), (11, 12), (40, 40), (7, 1404), (57, 3), (700, 1404)]
    primes = [5, 257, 2909, 1000003, 999999999989, 2**64 - 59, 2**64 + 13, 2**127 - 1]
    widths = set()
    for p in primes:
        for la, lb in shapes:
            widths.add(((min(la, lb) * (p - 1) ** 2).bit_length() + 63) // 64)
            a = [rng.randrange(p) for _ in range(la)]
            b = [rng.randrange(p) for _ in range(lb)]
            full = poly_mul(a, b, p)
            n = la + lb - 1
            keeps = {1, 2, min(la, lb), max(la, lb), n - 1, n, n + 5, rng.randrange(1, n + 1)}
            for keep in sorted(keeps):
                want = poly_trim(full[:keep])
                assert poly_mul(a, b, p, keep) == want, (p, la, lb, keep)
                assert _poly_mul_packed(a, b, p, keep) == want, (p, la, lb, keep)
    assert widths == {1, 2, 3, 4, 5}


def test_inverse_series():
    # f g = 1 mod x^k with deg g < k, which fixes g; k on both sides of
    # each doubling, and the length of a full quotient at psi~_53
    rng = random.Random(25)
    ks = {1, 2, 3, 1403} | {2**j + d for j in range(2, 11) for d in (-1, 1)}
    for p in (5, 2909, 999999999989, 2**64 + 13):
        for k in sorted(ks):
            f = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(k + rng.randrange(3))]
            g = _inverse_series(f, k, p)
            assert len(g) <= k and g == poly_trim(g[:]), (p, k)
            assert poly_trim(poly_mul(f, g, p)[:k]) == [1], (p, k)
    # a series whose inverse has zeros at the top: (1 - x)^-1 = 1 + x + ...,
    # so 1 - x + x^2 - x^3 + ... inverts to 1 + x
    p = 101
    assert _inverse_series([1 if i % 2 == 0 else p - 1 for i in range(40)], 33, p) == [1, 1]


def test_reducer_pow_of_x_is_repeated_multiply():
    # x^e by the shift equals x times x^(e-1), reduced by schoolbook
    # division, at every e up to 2^j - 1 (every bit set), for moduli with a
    # leading coefficient other than 1, schoolbook and Barrett; and for
    # lead * x^n, where x^e becomes 0 from e = n on
    rng = random.Random(26)
    for p, n, j in ((5, 1, 11), (2909, 2, 11), (2909, PACK_THRESHOLD - 1, 11),
                    (1000003, PACK_THRESHOLD, 11), (2**61 - 1, PACK_THRESHOLD + 1, 11),
                    (2**64 + 13, PACK_THRESHOLD + 1, 9), (2909, 1404, 11)):
        moduli = [_random_poly(rng, n, p), [0] * n + [rng.randrange(2, p)]]
        for m in moduli:
            assert m[-1] != 1
            red = Reducer(m, p)
            acc = poly_mod([1], m, p)
            for e in range(1, 2**j):
                acc = poly_divmod(poly_mul(acc, [0, 1], p), m, p)[1]
                if e & (e + 1) == 0 or e == n:
                    assert red.pow([0, 1], e) == acc, (p, n, e)


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
    # the reference powers of x decode the logs 0 .. q - 1 (q - 1 standing
    # for zero) onto every code of F_125 once, their inverse encodes them
    # back, and a constant is its own code
    exp, dlog = power_codes(PolyField(5, _primitive_poly(5, 3)))
    assert sorted(exp) == list(range(125))
    assert [dlog[c] for c in exp] == list(range(125))
    F = LogField(5, 3)
    assert [exp[F.from_int(c)] for c in range(5)] == list(range(5))


@pytest.mark.parametrize("p, k", [
    (5, 3), (7, 2), (11, 3), (13, 2), (101, 1), (13, 1), (5, 4), (7, 4), (5, 5),
])
def test_field_logs_match_reference(p, k):
    # zech[d] = log(1 + x^d) for every d, and the log of every constant,
    # against the powers of x by schoolbook multiplication modulo the same f
    R = PolyField(p, _primitive_poly(p, k))
    exp, dlog = power_codes(R)
    zech, logs = _field_logs(p, k)
    n = R.size - 1
    assert zech.size == n and logs.size == p
    want = [dlog[R.encode(R.add(R.one, R.decode(exp[d])))] for d in range(n)]
    assert zech.tolist() == want
    assert logs.tolist() == [dlog[c] for c in range(p)]
    F = LogField(p, k)
    assert [F.from_int(c) for c in range(p)] == [dlog[c] for c in range(p)]


# sha256 of zech and logs as little-endian int32 bytes, from the earlier
# build that formed the code of every power of x and scattered its inverse
# over the field: the r-entry build must give the same tables bit for bit
_FIELD_LOGS_SHA256 = {
    (997, 2): ("f0177d2dae9fbd4484a440fd99d7aebfdec5a699203d6ed10d98c530cdcd00a2",
               "3814ed0525a5c16715ff63c0221c1dd69f4d859f2c421d6e48ab73c54e29b54e"),
    (97, 3): ("fa824cfc502f40a9a21fa7192f245a06a8578be161100e382d34c7c297db3fb1",
              "6458272f5ba7e4ccf5aca73e6dfc13892d08c94a95d71eb9b6018380ef303c1c"),
    (13, 5): ("ca336e379a24bf461fa5e39361245a90dd58d9ca0aeaa19c7c9a8019c777c03c",
              "158abccff7ec3aa669ba4a6fcd7da0d4139649c66f99a9a507cf2866ba15e512"),
    (1999, 2): ("6b6293f79351c8c154367b05b8490fdeb68cd89704d35a4e30047fe3ee820ecc",
                "f4e31930ee00654de798c9f0b1e8ec0fea6decdf5364c460365c74df69f28617"),
    (5, 9): ("5103bbcca573412eeb5bb3ab01d1515a9b6963b4f0703ee9777d0ae95f5dc51b",
             "70a4e8544d7c6c2cd7bc11c3b50773c3379c5689faf8051db895bff6b27c5d94"),
    (3999971, 1): ("fcf49c5e84b6717599087952bbe8987476c23e87d0328bbf6465ef19cca8788c",
                   "c6422913bb39d5f6fb0ec0b90900dc18c434156754c7e4ef2e089e7480db25de"),
}


@pytest.mark.parametrize("p, k", sorted(_FIELD_LOGS_SHA256))
def test_field_logs_pinned_sha256(p, k):
    zech, logs = _field_logs.__wrapped__(p, k)  # not kept in the cache
    assert (zech.size, logs.size) == (p**k - 1, p)
    digests = tuple(hashlib.sha256(a.astype("<i4").tobytes()).hexdigest() for a in (zech, logs))
    assert digests == _FIELD_LOGS_SHA256[p, k]


def test_field_logs_prime_field_above_int32_products():
    # at k = 1 and p > 46341 the powers of c need 64-bit products but are
    # kept in int32, in scratch of a block at a time: the build's traced
    # peak is under 48 MB (about 33 MB; 64 MB with int64 powers) for the
    # 32 MB of tables it keeps.  Spot checks against pow: logs[c^e] = e and
    # zech[e] = log(1 + c^e)
    p = 3999971
    tracemalloc.start()
    try:
        zech, logs = _field_logs.__wrapped__(p, 1)  # not from the cache
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48e6, peak
    assert zech.dtype == logs.dtype == np.int32 and (zech.size, logs.size) == (p - 1, p)
    c = -_primitive_poly(p, 1)[0] % p
    rng = random.Random(p)
    for e in [0, 1, (p - 1) // 2, p - 2] + [rng.randrange(p - 1) for _ in range(200)]:
        assert logs[pow(c, e, p)] == e
        assert zech[e] == logs[(pow(c, e, p) + 1) % p]


def test_ext_field_frobenius_fixed_field():
    # a^q = a exactly for base-field elements
    F = LogField(7, 2)
    fixed = {a for a in range(F.n + 1) if F.pow(a, 7) == a}
    assert fixed == {F.from_int(c) for c in range(7)}
    x = 1
    assert F.pow(x, 7) != x
    assert F.pow(x, 49) == x
