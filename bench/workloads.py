"""Seeded inputs for the three workloads.

Each generator returns a list of cases.  A case is a dict with the CLI
arguments (`argv`), a `kind` naming its checker in checks.py, and the facts
the checker needs, all computed here with arith.py and never with isoclass.

Inputs vary with the seed but their cost does not: every case keeps the
field size, the primes of b and the multiplicative orders that drive the
program's running time, and the seed moves only what the cost does not
depend on (curve coefficients, the lift of a residue, the quadratic field).
"""

from __future__ import annotations

import random

import numpy as np

import arith

# The paper's three worked classes: (q, t, curves, published conductors,
# published pattern text for pairs that between them cover every curve).
WORKED = (
    (3329, 50, [(49, 0), (1, 57), (1, 98), (1, 378), (3, 1152), (30, 351)],
     [1, 52, 13, 26, 2, 4],
     {(0, 2): "k odd", (1, 5): "k odd", (3, 4): "k odd"}),
    (3329, 104, [(99, 0), (1, 72), (1, 192)], [1, 25, 5],
     {(0, 1): "4 ∤ k", (1, 2): "4 ∤ k"}),
    (1031, -20, [(982, 824), (1, 13), (1, 89), (168, 48)], [7, 1, 14, 2],
     {(0, 1): "3 ∤ k", (0, 2): "2 | k", (0, 3): "2 | k and 3 ∤ k",
      (1, 2): "2 | k and 3 ∤ k", (1, 3): "2 | k", (2, 3): "3 ∤ k"}),
)

# CM classes with b = l prime, where the conductor test runs at l:
# (l, q, j, whether a generic curve of the class is also analyzed).  The
# Frobenius a mod l sets which division polynomials the test reduces, so q
# and a stay fixed and the seed picks the curves inside the class.
L_CLASSES = (
    (53, 2909, 1728, False), (37, 1117, 0, True), (23, 2129, 1728, True), (11, 2161, 0, True),
)

# Quadratic fields for raw pattern data: m = 2, 3 mod 4 and m = 1 mod 4.
M_SQRT = (-1, -2, -5, -6, -10, -13, -14)
M_HALF = (-3, -7, -11, -15, -19, -23, -31)


def spec(q: int, ab: tuple[int, int]) -> str:
    return f"{q}:{ab[0]},{ab[1]}"


def _next_prime(n: int) -> int:
    while not arith.is_prime(n):
        n += 1
    return n


def _cheap_b(q: int, t: int) -> bool:
    """b has only the primes 2 and 3 and is at most 12, so the conductor
    test stays negligible next to the point count."""
    if t == 0:
        return False
    b = arith.frobenius(q, t)[1]
    return b <= 12 and set(arith.factor(b)) <= {2, 3}


def _random_curve(rng, q: int) -> tuple[int, int]:
    while True:
        A, B = rng.randrange(1, q), rng.randrange(1, q)
        if arith.nonsingular(q, A, B):
            return A, B


def _isogenous_pair(rng, q: int, accept) -> tuple[tuple, tuple, int]:
    """2-isogenous curves with different numbers of rational 2-torsion
    points, hence different conductors: (E, E', |E(F_q)|)."""
    while True:
        E, E2 = arith.two_isogenous(q, rng.randrange(q), rng.randrange(q))
        if not (arith.nonsingular(q, *E) and arith.nonsingular(q, *E2)):
            continue
        if arith.cubic_roots(q, *E) == arith.cubic_roots(q, *E2):
            continue
        n = arith.count_points(q, *E)
        if accept(q + 1 - n):
            return E, E2, n


def _j_curve(rng, q: int, l: int, j: int) -> tuple[tuple[int, int], int]:
    """A curve with j-invariant j whose Frobenius has b = l, and its count.
    The seed picks an isomorphic model (A u^4 or B u^6)."""
    for c in range(1, q):
        ab = (c, 0) if j == 1728 else (0, c)
        n = arith.count_points(q, *ab)
        if arith.frobenius(q, q + 1 - n)[1] == l:
            u = rng.randrange(1, q)
            ab = (c * pow(u, 4, q) % q, 0) if j == 1728 else (0, c * pow(u, 6, q) % q)
            return ab, n
    raise AssertionError(f"no twist with b = {l} over F_{q}")


def _generic_curve(rng, q: int, n: int) -> tuple[int, int]:
    """A curve with A, B != 0 and exactly n points, found by vectorised
    counting of a random block of B values per random A."""
    while True:
        A = rng.randrange(1, q)
        bs = np.array(rng.sample(range(1, q), 256), dtype=np.int64)
        for B in bs[arith.counts_for_bs(q, A, bs) == n]:
            if arith.nonsingular(q, A, int(B)):
                return A, int(B)


def _points(rng, q: int, ab, count: int = 3) -> list:
    return [arith.random_point(rng, q, *ab) for _ in range(count)]


# ---------------------------------------------------------------------------


def analyze(seed: int) -> list[dict]:
    rng = random.Random(f"analyze:{seed}")
    cases = []
    for Q in (10**5, 3 * 10**5, 10**6):
        q = _next_prime(Q + rng.randrange(Q // 1000))
        while True:
            ab = _random_curve(rng, q)
            n = arith.count_points(q, *ab)
            if _cheap_b(q, q + 1 - n):
                break
        cases.append(dict(
            label=f"analyze q={q}", argv=["analyze", spec(q, ab)], kind="analyze",
            q=q, curves=[ab], count=n, points=_points(rng, q, ab), largest=Q == 10**6,
        ))
    Q = 10**5
    q = _next_prime(Q + rng.randrange(Q // 1000))
    E, E2, n = _isogenous_pair(rng, q, lambda t: _cheap_b(q, t))
    cases.append(dict(
        label=f"compare q={q}", argv=["compare", spec(q, E), spec(q, E2)], kind="compare",
        q=q, curves=[E, E2], count=n, noniso_k1=True,
    ))
    for l, q, j, generic in L_CLASSES:
        ab, n = _j_curve(rng, q, l, j)
        cases.append(dict(
            label=f"analyze l={l} j={j}", argv=["analyze", spec(q, ab)], kind="analyze",
            q=q, curves=[ab], count=n, points=_points(rng, q, ab), conductor=1,
        ))
        if not generic:
            continue
        # The maximal orders of Q(i) and Q(sqrt(-3)) have class number one and
        # their only curves are j = 1728 and j = 0, so with b = l prime every
        # other curve of the class has conductor exactly l.
        ab = _generic_curve(rng, q, n)
        cases.append(dict(
            label=f"analyze l={l} generic", argv=["analyze", spec(q, ab)], kind="analyze",
            q=q, curves=[ab], count=n, points=_points(rng, q, ab), conductor=l,
        ))
    for q, t, curves, gs, texts in WORKED:
        for (i, k), text in texts.items():
            cases.append(dict(
                label=f"worked q={q} t={t} E{i}-E{k}",
                argv=["compare", spec(q, curves[i]), spec(q, curves[k])], kind="compare",
                q=q, curves=[curves[i], curves[k]], count=q + 1 - t,
                conductors=[gs[i], gs[k]], text=text,
            ))
    return cases


# ---------------------------------------------------------------------------


def _raw_frobenius(rng, b: int, residues: dict[int, int]) -> tuple[int, int]:
    """(q, t) for tau = a + b delta of prime norm q, with a fixed mod each
    prime in residues and the seed choosing the quadratic field and the lift
    of a.  A prime norm forces gcd(a, b) = 1."""
    mod, a0 = 1, 0
    for p, r in residues.items():  # CRT, one prime at a time
        a0 += mod * ((r - a0) * pow(mod, -1, p) % p)
        mod *= p
    while True:
        m = rng.choice(M_SQRT + M_HALF)
        a = a0 + mod * rng.randrange(1, 50)
        if arith.is_prime(arith.norm(a, b, m)):
            return arith.norm(a, b, m), arith.trace(a, b, m)


def _pattern_case(label, q, t, g, g2, **extra) -> dict:
    return dict(
        label=label, kind="pattern", q=q, t=t, g=g, g2=g2,
        argv=["pattern", "--q", str(q), "--trace", str(t), "--g", str(g), "--g2", str(g2)],
        **extra,
    )


def pattern(seed: int) -> list[dict]:
    rng = random.Random(f"pattern:{seed}")
    cases = []
    # one prime p | b with differing conductors; a is a primitive root mod p
    # drawn from [0.4p, 0.5p] and lifted once, so e = p - 1 and the size of a
    # (hence of a^e) is fixed
    for p in (101, 1009, 10007, 30011, 100003):
        while True:
            r = rng.randrange(4 * p // 10, p // 2)
            m = rng.choice(M_SQRT + M_HALF)
            if not arith.is_primitive_root(r, p):
                continue
            a = r + p
            q = arith.norm(a, p, m)
            if arith.is_prime(q):
                break
        cases.append(_pattern_case(
            f"pattern p={p}", q, arith.trace(a, p, m), p, 1, largest=p == 100003))
    # several primes, one of them squared; orders are whatever the seed gives
    b = 25 * 7 * 13
    res = {p: rng.randrange(1, p) for p in (5, 7, 13)}
    q, t = _raw_frobenius(rng, b, res)
    cases.append(_pattern_case("pattern 5^2*7*13", q, t, 5 * 7 * 13, 25))
    # 2-adic cases: v_2(b) = 3 (even_generic) and v_2(b) = 1 (even_nasty)
    for b, g, g2, name in ((8 * 3 * 5, 2 * 3, 8, "even_generic"), (2 * 7 * 9, 14, 9, "even_nasty")):
        res = {p: rng.randrange(1, p) for p in arith.factor(b) if p != 2}
        q, t = _raw_frobenius(rng, b, res)
        cases.append(_pattern_case(f"pattern {name}", q, t, g, g2))
    # four conditions 3, 4, 5, 7 not dividing k: a has order e_p mod p
    orders = {7: 3, 13: 4, 11: 5, 29: 7}
    res = {p: rng.choice(arith.elements_of_order(e, p)) for p, e in orders.items()}
    b = 7 * 13 * 11 * 29
    q, t = _raw_frobenius(rng, b, res)
    cases.append(_pattern_case("pattern four conditions", q, t, b, 1))
    # the per-degree gcd route next to the closed form
    q, t, curves, gs, _ = WORKED[2]
    cases.append(dict(
        label="compare --kmax 300 worked q=1031", kind="compare",
        argv=["compare", spec(q, curves[0]), spec(q, curves[3]), "--kmax", "300"],
        q=q, curves=[curves[0], curves[3]], count=q + 1 - t, conductors=[gs[0], gs[3]],
        kmax=300,
    ))
    q = _next_prime(5000 + rng.randrange(50))
    def small_b(t):
        b = arith.frobenius(q, t)[1] if t else 0
        return 0 < b <= 30 and set(arith.factor(b)) <= {2, 3, 5, 7}
    E, E2, n = _isogenous_pair(rng, q, small_b)
    cases.append(dict(
        label=f"compare --kmax 300 q={q}", kind="compare",
        argv=["compare", spec(q, E), spec(q, E2), "--kmax", "300"],
        q=q, curves=[E, E2], count=n, noniso_k1=True, kmax=300,
    ))
    return cases


# ---------------------------------------------------------------------------


def oracle(seed: int) -> list[dict]:
    rng = random.Random(f"oracle:{seed}")
    cases = []
    # q^kmax just under the default bound 10^6; the top field sets the cost,
    # so pairs are drawn until 2 is the only prime whose square divides the
    # top-degree count, which fixes the [l]-maps the oracle evaluates
    for q, kmax in ((997, 2), (97, 3), (13, 5)):
        def accept(t):
            top = arith.weil_counts(q, t, kmax)[-1]
            return {l for l, e in arith.factor(top).items() if e >= 2} == {2}
        E, E2, n = _isogenous_pair(rng, q, accept)
        cases.append(dict(
            label=f"oracle q={q} kmax={kmax}", kind="oracle",
            argv=["oracle", spec(q, E), spec(q, E2), "--kmax", str(kmax)],
            q=q, curves=[E, E2], count=n, kmax=kmax, noniso_k1=True, largest=q == 997,
        ))
    return cases


WORKLOADS = {"analyze": analyze, "pattern": pattern, "oracle": oracle}
# The calibration chunk (calib.py) whose work is most like each workload's.
CALIBRATION = {"analyze": "python", "pattern": "python", "oracle": "numpy"}
