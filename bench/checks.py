"""Correctness checks of the CLI's JSON reports, made apart from isoclass.

Every expected value comes from arith.py or from the paper's published
worked classes: point counts by the benchmark's own sweep, annihilation of
seeded random points, invariant-factor identities, the Weil recurrence, and
the gcd test evaluated from tau^k modulo a power of each prime at which the
two conductors differ.  A checker raises CheckError on the first mismatch.
"""

from __future__ import annotations

import random

import arith


class CheckError(AssertionError):
    pass


def need(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _vmod(x: int, p: int, n: int) -> int:
    """v_p(x) for x known modulo p^n, capped at n (n means 'at least n')."""
    x %= p**n
    return n if x == 0 else arith.val(x, p)


def _differing(g: int, g2: int) -> list[tuple[int, int, int]]:
    primes = set(arith.factor(g)) | set(arith.factor(g2))
    return [
        (p, arith.val(g, p), arith.val(g2, p))
        for p in sorted(primes)
        if arith.val(g, p) != arith.val(g2, p)
    ]


def _p_part_equal(ak: int, bk: int, p: int, n: int, v: int, v2: int) -> bool:
    # p-parts of gcd(a_k - 1, b_k / g) and gcd(a_k - 1, b_k / g')
    A, B = _vmod(ak - 1, p, n), _vmod(bk, p, n)
    return min(A, B - v) == min(A, B - v2)


def iso_gcd(frob, g: int, g2: int, k: int) -> bool:
    """The gcd test at one degree k, exact: precision grows until v_p(b_k)
    is known (b_k != 0 for an ordinary Frobenius)."""
    a, b, m = frob
    for p, v, v2 in _differing(g, g2):
        n = max(v, v2) + arith.val(b, p) + arith.val(k, p) + 4
        while True:
            M = p**n
            ak, bk = arith.order_pow((a % M, b % M), k, m, M)
            if bk % M:
                break
            n *= 2
        if not _p_part_equal(ak, bk, p, n, v, v2):
            return False
    return True


def iso_sweep(frob, g: int, g2: int, kmax: int) -> list[bool]:
    """The gcd test for k = 1..kmax (index k - 1), stepping tau^k one
    multiplication at a time at fixed precision; degrees where that
    precision does not settle v_p(b_k) fall back to iso_gcd."""
    a, b, m = frob
    out = [True] * kmax
    for p, v, v2 in _differing(g, g2):
        n = max(v, v2) + arith.val(b, p) + len(str(kmax)) + 6
        M = p**n
        tau = (a % M, b % M)
        x = tau
        for k in range(1, kmax + 1):
            if out[k - 1]:
                if x[1] % M:
                    out[k - 1] = _p_part_equal(x[0], x[1], p, n, v, v2)
                else:
                    out[k - 1] = iso_gcd(frob, g, g2, k)
            x = arith.order_mul(x, tau, m, M)
    return out


# ---------------------------------------------------------------------------
# report pieces


def _frobenius(report: dict, q: int, t: int) -> tuple[int, int, int]:
    fr = report["frobenius"]
    a, b, m = int(fr["a"]), int(fr["b"]), int(fr["m"])
    need(int(fr["q"]) == q and int(fr["t"]) == t, f"frobenius echoes q={fr['q']} t={fr['t']}")
    need(m < 0 and b > 0, f"frobenius m={m} b={b}")
    need(arith.norm(a, b, m) == q, f"norm of tau = {a} + {b} delta (m={m}) is not q={q}")
    need(arith.trace(a, b, m) == t, f"trace of tau = {a} + {b} delta (m={m}) is not t={t}")
    return a, b, m


def _count(case: dict, count: int) -> int:
    q = case["q"]
    need(count == case["count"], f"count {count}, expected {case['count']}")
    need((q + 1 - count) ** 2 <= 4 * q, f"count {count} outside the Hasse interval")
    return q + 1 - count


def _structure(n1: int, n2: int, order: int, field: int, what: str) -> None:
    need(n1 >= 1 and n2 % n1 == 0, f"{what}: n1={n1} does not divide n2={n2}")
    need((field - 1) % n1 == 0, f"{what}: n1={n1} does not divide {field} - 1")
    need(n1 * n2 == order, f"{what}: n1*n2={n1 * n2}, expected {order}")


def _pattern(case: dict, report: dict, frob, g: int, g2: int, kmax: int = 0) -> list[bool]:
    """Residues against the gcd test over one full period, then at seeded
    degrees: multiples of each reported e and 2e, of the modulus, and random."""
    pat = report["pattern"]
    modulus = int(pat["modulus"])
    allowed = {int(r) for r in pat["allowed"]}
    need(modulus >= 1 and all(0 <= r < modulus for r in allowed), f"pattern modulus {modulus}")
    sweep = iso_sweep(frob, g, g2, max(modulus, kmax))
    for k in range(1, modulus + 1):
        need((k % modulus in allowed) == sweep[k - 1],
             f"residue {k % modulus} mod {modulus}: pattern and gcd test disagree")
    rng = random.Random(case["label"])
    ks = [rng.randrange(1, 10**9) for _ in range(4)]
    for e in [int(pa["e"]) for pa in report["primes"]] + [modulus]:
        ks += [e * rng.randrange(1, 1000), 2 * e * rng.randrange(1, 1000)]
    for k in ks:
        need((k % modulus in allowed) == iso_gcd(frob, g, g2, k),
             f"k={k}: pattern and gcd test disagree")
    if "text" in case:
        need(pat["text"] == case["text"], f"pattern text {pat['text']!r}, paper has {case['text']!r}")
    if case.get("noniso_k1"):
        need(1 % modulus not in allowed, "curves with different 2-torsion reported isomorphic at k=1")
    return sweep


# ---------------------------------------------------------------------------
# one checker per kind of case


def check_analyze(case: dict, report: dict) -> None:
    q = case["q"]
    (A, B), = case["curves"]
    count = int(report["input"]["count"])
    t = _count(case, count)
    for P in case["points"]:
        need(arith.mul(count, P, A, q) is None, f"[{count}]{P} is not the identity")
    _, b, _ = _frobenius(report, q, t)
    n1, n2 = (int(x) for x in report["input"]["structure"])
    _structure(n1, n2, count, q, "E(F_q)")
    (g,) = (int(x) for x in report["conductors"])
    need(b % g == 0, f"conductor {g} does not divide b={b}")
    if "conductor" in case:
        need(g == case["conductor"], f"conductor {g}, expected {case['conductor']}")


def check_compare(case: dict, report: dict) -> None:
    q = case["q"]
    t = _count(case, int(report["input"]["count"]))
    frob = _frobenius(report, q, t)
    g, g2 = (int(x) for x in report["conductors"])
    need(frob[1] % g == 0 and frob[1] % g2 == 0, f"conductors {g}, {g2} must divide b={frob[1]}")
    if "conductors" in case:
        need([g, g2] == case["conductors"], f"conductors {[g, g2]}, paper has {case['conductors']}")
    kmax = case.get("kmax", 0)
    sweep = _pattern(case, report, frob, g, g2, kmax)
    if kmax:
        rows = report["per_k"]
        need([int(r["k"]) for r in rows] == list(range(1, kmax + 1)), "per_k rows are not k=1..kmax")
        for r in rows:
            need(r["iso"] == sweep[int(r["k"]) - 1], f"per_k k={r['k']}: gcd test disagrees")


def check_pattern(case: dict, report: dict) -> None:
    frob = _frobenius(report, case["q"], case["t"])
    g, g2 = case["g"], case["g2"]
    need([int(x) for x in report["conductors"]] == [g, g2], "conductors not echoed")
    _pattern(case, report, frob, g, g2)


def check_oracle(case: dict, report: dict) -> None:
    q, kmax = case["q"], case["kmax"]
    t = _count(case, int(report["input"]["count"]))
    frob = _frobenius(report, q, t)
    g, g2 = (int(x) for x in report["conductors"])
    _pattern(case, report, frob, g, g2)
    modulus = int(report["pattern"]["modulus"])
    allowed = {int(r) for r in report["pattern"]["allowed"]}
    orders = arith.weil_counts(q, t, kmax)
    rows = report["oracle"]
    need([int(r["k"]) for r in rows] == list(range(1, kmax + 1)), "oracle rows are not k=1..kmax")
    for r, order in zip(rows, orders):
        k = int(r["k"])
        sa = [int(x) for x in r["a"]]
        sb = [int(x) for x in r["b"]]
        _structure(*sa, order, q**k, f"E(F_q^{k})")
        _structure(*sb, order, q**k, f"E'(F_q^{k})")
        need(r["isomorphic"] == (sa == sb), f"k={k}: 'isomorphic' does not match the structures")
        need(r["predicted"] == (k % modulus in allowed), f"k={k}: 'predicted' is not the pattern")
        need(r["agree"] and r["isomorphic"] == r["predicted"], f"k={k}: oracle disagrees")
    for (A, B), (n1, _) in zip(case["curves"], (rows[0]["a"], rows[0]["b"])):
        full = arith.cubic_roots(q, A, B) == 3
        need((int(n1) % 2 == 0) == full, f"n1={n1} over F_q but 2-torsion full={full}")


CHECKS = {
    "analyze": check_analyze,
    "compare": check_compare,
    "pattern": check_pattern,
    "oracle": check_oracle,
}
