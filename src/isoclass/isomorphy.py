"""Decide for which k two ordinary curves over F_q with the same point count
have isomorphic groups over F_{q^k}.

Both curves share the Frobenius tau = a + b*delta; only the conductors g and
g' of their endomorphism rings differ.  The ground truth for each k is the
gcd test gcd(a_k - 1, b_k/g) = gcd(a_k - 1, b_k/g'), with tau^k = a_k + b_k
delta.  Restated per prime, that test depends on k only through its parity
and its divisibility by the multiplicative order e_p, so the closed form is
a conjunction of per-prime rules: "k even" from the 2-adic cases and
"d ∤ k" from each strict prime.  No a_k or b_k are ever computed for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .curve import GroupStructure
from .quadorder import FrobeniusData, factorize, mult_order, vp

ODD_P = "odd_p"
EVEN_GENERIC = "even_generic"
EVEN_NASTY = "even_nasty"


@dataclass(frozen=True)
class ComparisonInput:
    """A Frobenius together with the two conductors to compare."""

    frob: FrobeniusData
    g: int
    g2: int

    def __post_init__(self):
        b = self.frob.b
        for g in (self.g, self.g2):
            if g < 1:
                raise ValueError("conductors must be >= 1")
            if b % g != 0:
                raise ValueError(f"conductor {g} does not divide b = {b}")


@dataclass(frozen=True)
class PrimeAnalysis:
    """Data at one prime p where v_p(g) != v_p(g'):

    s is max(v_p(g), v_p(g')), e the multiplicative order of a mod p (mod 4
    when p = 2), strict whether v_p(a^e - 1) - v_p(e) > v_p(b) - s.
    """

    p: int
    s: int
    e: int
    strict: bool
    case: str


def _strict_flag(a: int, b: int, p: int, e: int, s: int) -> bool:
    # v_p(a^e - 1) - v_p(e) > v_p(b) - s as a congruence mod p^N, N >= 1 as p^s | b
    return pow(a, e, p ** (vp(e, p) + vp(b, p) - s + 1)) == 1


def _gcd_test(inp: ComparisonInput, ak: int, bk: int) -> bool:
    if bk % inp.g or bk % inp.g2:
        raise AssertionError("b_k lost divisibility by the conductors")
    return math.gcd(ak - 1, bk // inp.g) == math.gcd(ak - 1, bk // inp.g2)


def gcd_criterion(inp: ComparisonInput, k: int) -> bool:
    """Ground-truth isomorphism test over F_{q^k} via tau^k directly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _gcd_test(inp, *inp.frob.power(k))


def gcd_table(inp: ComparisonInput, kmax: int) -> list[bool]:
    """gcd_criterion(inp, k) for k = 1..kmax, stepping tau^k once per k.

    One gcd per k is on the full-size a_k - 1: G = gcd(a_k - 1, b_k/d) with
    d = gcd(g, g').  Both b_k/g and b_k/g' divide b_k/d, so
    gcd(a_k - 1, b_k/g) = gcd(G, b_k/g), and likewise for g'."""
    g, g2 = inp.g, inp.g2
    d = math.gcd(g, g2)
    out = []
    for ak, bk in inp.frob.powers(kmax):
        if bk % g or bk % g2:
            raise AssertionError("b_k lost divisibility by the conductors")
        G = math.gcd(ak - 1, bk // d)
        out.append(math.gcd(G, bk // g) == math.gcd(G, bk // g2))
    return out


@lru_cache(maxsize=128)
def prime_set(inp: ComparisonInput) -> tuple[PrimeAnalysis, ...]:
    """Analyses at the primes where the two conductor valuations differ.

    Empty exactly when g = g'; those are the only primes that can ever make
    the two gcds disagree.
    """
    frob = inp.frob
    a, b = frob.a, abs(frob.b)
    out = []
    for p in sorted(factorize(b)):
        vg, vg2 = vp(inp.g, p), vp(inp.g2, p)
        if vg == vg2:
            continue
        s = max(vg, vg2)
        if p == 2:
            e = mult_order(a % 4, 4)
            case = EVEN_NASTY if vp(b, 2) == 1 else EVEN_GENERIC
        else:
            e = mult_order(a % p, p)
            case = ODD_P
        out.append(PrimeAnalysis(p=p, s=s, e=e, strict=_strict_flag(a, b, p, e, s), case=case))
    return tuple(out)


def valuation_criterion(inp: ComparisonInput, k: int) -> bool:
    """The gcd test restated per prime: isomorphic over F_{q^k} iff
    v_p(a_k - 1) <= v_p(b_k) - s_p at every analyzed prime."""
    if k < 1:
        raise ValueError("k must be >= 1")
    analyses = prime_set(inp)
    if not analyses:
        return True
    ak, bk = inp.frob.power(k)
    for pa in analyses:
        if ak == 1:
            return False  # v_p(a_k - 1) infinite, b_k finite
        if vp(ak - 1, pa.p) > vp(bk, pa.p) - pa.s:
            return False
    return True


def nasty_reduce(frob: FrobeniusData) -> FrobeniusData:
    """Frobenius data of tau^2 over F_{q^2}, with raw components (no sign
    normalization).  Used when p = 2, v_2(b) = 1, where the closed form only
    applies after one squaring; the squared data always has v_2(b) >= 2."""
    a2, b2 = frob.power(2)
    red = FrobeniusData(q=frob.q**2, t=frob.t**2 - 2 * frob.q, a=a2, b=b2, m=frob.m)
    if vp(red.b, 2) < 2:
        raise AssertionError("squared Frobenius must have v_2(b) >= 2")
    return red


@dataclass(frozen=True)
class IsoPattern:
    """Isomorphic over F_{q^k} iff k is even (when `even`) and d ∤ k for
    every d in `not_dividing`.  Canonical, so equal sets of k compare equal:
    under `even` a d = 2 (mod 4) becomes d/2, multiples of another d are
    dropped, and "no k" is (False, (1,)).
    """

    even: bool
    not_dividing: tuple

    def __post_init__(self):
        if any(d < 1 for d in self.not_dividing):
            raise ValueError("divisors must be >= 1")
        ds = {d // 2 if self.even and d % 4 == 2 else d for d in self.not_dividing}
        ds = tuple(sorted(d for d in ds if not any(c != d and d % c == 0 for c in ds)))
        object.__setattr__(self, "even", self.even and ds != (1,))  # 1 drops every other d
        object.__setattr__(self, "not_dividing", ds)

    @property
    def modulus(self) -> int:
        """A period of the answer in k: 1 when every k is allowed, else
        lcm(2, *not_dividing)."""
        if not self.even and not self.not_dividing:
            return 1
        return math.lcm(2, *self.not_dividing)

    def sieve(self) -> bytearray:
        """sieve[k] = 1 when k mod modulus is allowed, else 0, for k in
        [0, modulus) (0 standing for k = modulus): every rule's divisor
        divides the modulus, so each rule clears one arithmetic progression.
        Costs O(modulus), so ask only when the modulus is small."""
        m = self.modulus
        sieve = bytearray([1]) * m
        if self.even:
            sieve[1::2] = bytes(len(range(1, m, 2)))
        for d in self.not_dividing:
            sieve[::d] = bytes(len(range(0, m, d)))
        return sieve


def iso_pattern(inp: ComparisonInput) -> IsoPattern:
    """Closed-form pattern for the whole comparison, one rule per analyzed
    prime.  odd_p: e ∤ k when strict.  even_generic: e ∤ k when strict, and
    k even when v_2(b) = s.  even_nasty: k even, and 2e' ∤ k when the
    squared Frobenius (e' its order mod 4) is strict.
    """
    analyses = prime_set(inp)
    even = False
    ds = []
    for pa in analyses:
        if pa.case == EVEN_NASTY:
            even = True  # v_2(b) = s = 1 blocks every odd k
            red = nasty_reduce(inp.frob)
            e2 = mult_order(red.a, 4)
            if _strict_flag(red.a, red.b, 2, e2, pa.s):
                ds.append(2 * e2)
            continue
        if pa.strict:
            ds.append(pa.e)
        if pa.case == EVEN_GENERIC and vp(inp.frob.b, 2) == pa.s:
            even = True
    return IsoPattern(even, tuple(ds))


def pattern_eval(pattern: IsoPattern, k: int) -> bool:
    if k < 1:
        raise ValueError("k must be >= 1")
    if pattern.even and k % 2:
        return False
    return all(k % d for d in pattern.not_dividing)


def predicted_group_structure(frob: FrobeniusData, g: int, k: int = 1) -> GroupStructure:
    """E(F_{q^k}) as Z/n1 x Z/n2 predicted from the Frobenius and conductor:
    n1 = gcd(a_k - 1, b_k / g).  Cross-checked against enumeration in the
    test suite, never the other way around."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ak, bk = frob.power(k)
    if bk % g:
        raise ValueError(f"conductor {g} does not divide b_k = {bk}")
    n1 = math.gcd(ak - 1, bk // g)
    order = frob.point_count(k)
    if order % n1:
        raise AssertionError("n1 must divide the group order")
    return GroupStructure(n1, order // n1)
