"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
with its runtime (run with -s to see them).  Time budgets are enforced where
stated.  Everything here goes through public entry points and independent
oracles; no expected value is derived from the code under test.
"""

import contextlib
import io
import itertools
import math
import pathlib
import random
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import lru_cache

from isoclass import (
    ComparisonInput,
    Curve,
    PrimeField,
    conductor,
    conductor_bruteforce,
    frobenius_from_trace,
    gcd_criterion,
    iso_pattern,
    nasty_reduce,
    pattern_eval,
    valuation_criterion,
    vp,
)
from isoclass import enumeration
from isoclass.cli import main as cli_main
from isoclass.cli import pattern_text
from isoclass.curve import CapacityError
from isoclass.field import ExtField

from helpers import allowed, binom_valuation, count_all_curves, lte, render_pairwise_table

DATA = pathlib.Path(__file__).parent / "data"


@contextmanager
def criterion(num, desc, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        dt = time.perf_counter() - t0
        print(f"FAIL criterion {num}: {desc} ({dt:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    over = budget is not None and dt > budget
    tag = "FAIL" if over else "PASS"
    suffix = f"{dt:.2f}s" + (f", budget {budget:.0f}s" if budget is not None else "")
    print(f"{tag} criterion {num}: {desc} ({suffix})")
    assert not over, f"criterion {num} exceeded its time budget: {dt:.2f}s > {budget}s"


def _kmax(q, bound=10**6):
    k = 1
    while q ** (k + 1) <= bound:
        k += 1
    return k


def test_criterion_1_first_worked_class():
    with criterion(1, "six-curve class over F_3329 (t=50): counts, conductors, table", 30):
        q, t = 3329, 50
        coeffs = [(49, 0), (1, 57), (1, 98), (1, 378), (3, 1152), (30, 351)]
        curves = [Curve(PrimeField(q), a, b) for a, b in coeffs]
        for e in curves:
            assert e.count_points() == 3280
        frob = frobenius_from_trace(q, t)
        assert (frob.a, frob.b, frob.m, frob.kind) == (25, 52, -1, "sqrt")
        gs = [conductor(e, frob) for e in curves]
        assert gs == [1, 52, 13, 26, 2, 4]
        cells = {}
        for i, j in itertools.combinations(range(6), 2):
            cells[(i, j)] = pattern_text(iso_pattern(ComparisonInput(frob, gs[i], gs[j])))
        odd_pairs = {(0, 2), (1, 5), (3, 4)}
        for key, text in cells.items():
            assert text == ("k odd" if key in odd_pairs else "none"), key
        table = render_pairwise_table([f"E{i}" for i in range(6)], cells)
        assert table == (DATA / "example1_table.txt").read_text()


def test_criterion_2_second_worked_class():
    with criterion(2, "three-curve class over F_3329 (t=104): patterns mod 4", 10):
        q, t = 3329, 104
        coeffs = [(99, 0), (1, 72), (1, 192)]
        curves = [Curve(PrimeField(q), a, b) for a, b in coeffs]
        for e in curves:
            assert e.count_points() == 3226
        frob = frobenius_from_trace(q, t)
        assert (frob.a, frob.b) == (52, 25)
        gs = [conductor(e, frob) for e in curves]
        assert gs == [1, 25, 5]
        p01 = iso_pattern(ComparisonInput(frob, gs[0], gs[1]))
        p12 = iso_pattern(ComparisonInput(frob, gs[1], gs[2]))
        p02 = iso_pattern(ComparisonInput(frob, gs[0], gs[2]))
        assert p01.modulus == 4 and allowed(p01) == frozenset({1, 2, 3})
        assert pattern_text(p01) == "4 ∤ k"
        assert p12.modulus == 4 and allowed(p12) == frozenset({1, 2, 3})
        assert pattern_text(p12) == "4 ∤ k"
        assert pattern_text(p02) == "all k"


def test_criterion_3_halving_class():
    with criterion(3, "four-curve class over F_1031 (t=-20): v_2(b)=1 halving step", 10):
        q, t = 1031, -20
        frob = frobenius_from_trace(q, t)
        assert (frob.a, frob.b, frob.m, frob.kind) == (-17, 14, -19, "half")
        red = nasty_reduce(frob)
        assert (red.a, red.b) == (-691, -280)
        coeffs = [(982, 824), (1, 13), (1, 89), (168, 48)]
        curves = [Curve(PrimeField(q), a, b) for a, b in coeffs]
        gs = [conductor(e, frob) for e in curves]
        assert gs == [7, 1, 14, 2]
        want = {
            (0, 1): "3 ∤ k",
            (0, 2): "2 | k",
            (0, 3): "2 | k and 3 ∤ k",
            (1, 2): "2 | k and 3 ∤ k",
            (1, 3): "2 | k",
            (2, 3): "3 ∤ k",
        }
        for (i, j), text in want.items():
            pat = iso_pattern(ComparisonInput(frob, gs[i], gs[j]))
            assert pattern_text(pat) == text, (i, j)


def test_criterion_4_three_routes_agree():
    with criterion(4, "gcd, valuation and pattern routes identical for k=1..100", 60):
        for q, t, coeffs in [
            (3329, 50, [(49, 0), (1, 57), (1, 98), (1, 378), (3, 1152), (30, 351)]),
            (3329, 104, [(99, 0), (1, 72), (1, 192)]),
            (1031, -20, [(982, 824), (1, 13), (1, 89), (168, 48)]),
        ]:
            frob = frobenius_from_trace(q, t)
            gs = [conductor(Curve(PrimeField(q), a, b), frob) for a, b in coeffs]
            for g, g2 in itertools.permutations(gs, 2):
                inp = ComparisonInput(frob, g, g2)
                pat = iso_pattern(inp)
                for k in range(1, 101):
                    a = gcd_criterion(inp, k)
                    b = valuation_criterion(inp, k)
                    c = pattern_eval(pat, k)
                    assert a == b == c, (q, t, g, g2, k)


@lru_cache(maxsize=1)
def _scan_classes():
    """All isogeny classes over prime fields 5 <= q < 60 holding curves with
    at least two distinct conductors: (q, t, frob, {conductor: first curve}).
    """
    out = []
    primes = [q for q in range(5, 60) if all(q % d for d in range(2, q))]
    for q in primes:
        counts = count_all_curves(q)
        by_count = defaultdict(list)
        for a in range(q):
            for b in range(q):
                if (4 * a**3 + 27 * b**2) % q == 0:
                    continue
                by_count[int(counts[a, b])].append((a, b))
        for n, coeffs in sorted(by_count.items()):
            t = q + 1 - n
            if t % q == 0 or len(coeffs) < 2:
                continue
            frob = frobenius_from_trace(q, t)
            if frob.b == 1:
                continue  # every conductor is 1
            byg = {}
            for ab in coeffs:
                g = conductor(Curve(PrimeField(q), *ab), frob)
                byg.setdefault(g, ab)
            if len(byg) >= 2:
                out.append((q, t, frob, byg))
    return out


def test_criterion_5_small_field_oracle_sweep():
    with criterion(
        5,
        "every distinct-conductor pair over 5<=q<60 vs enumerated structures, q^k<=1e6",
        120,
    ):
        classes = _scan_classes()
        pairs = []
        for q, t, frob, byg in classes:
            for ga, gb in itertools.combinations(sorted(byg), 2):
                pairs.append((q, frob, byg[ga], ga, byg[gb], gb))
        assert len(pairs) >= 10, f"only {len(pairs)} pairs found"
        # curves with the same conductor have the same n1 = gcd(a_k-1, b_k/g)
        # and the same order at every k, so one representative per conductor
        # carries the whole class
        need = defaultdict(set)
        for q, frob, ca, ga, cb, gb in pairs:
            need[q].update((ca, cb))
        structures = {}
        for q in sorted(need):
            base = PrimeField(q)
            for k in range(1, _kmax(q) + 1):
                ctx = base if k == 1 else ExtField(base, k)
                for ab in sorted(need[q]):
                    e = Curve(base, *ab)
                    ek = e if k == 1 else e.lift(ctx)
                    structures[(q, ab, k)] = enumeration.group_structure(ek)
        checked = 0
        for q, frob, ca, ga, cb, gb in pairs:
            pat = iso_pattern(ComparisonInput(frob, ga, gb))
            for k in range(1, _kmax(q) + 1):
                iso = structures[(q, ca, k)] == structures[(q, cb, k)]
                assert iso == pattern_eval(pat, k), (q, frob.t, ca, ga, cb, gb, k)
                checked += 1
        assert checked >= 100


def test_criterion_6_valuation_identities():
    with criterion(6, "lifting-the-exponent and binomial valuation vs direct computation", 30):
        rng = random.Random(11)
        primes = [p for p in range(2, 98) if all(p % d for d in range(2, p))]
        checked = 0
        while checked < 10**4:
            p = rng.choice(primes)
            a = rng.randrange(-1000, 1001)
            b = rng.randrange(-1000, 1001)
            k = rng.randrange(1, 51)
            if a == b or a % p != b % p or a % p == 0:
                continue
            if p == 2 and (a - b) % 4 != 0:
                continue
            assert lte(p, a, b, k) == vp(a**k - b**k, p), (p, a, b, k)
            checked += 1
        small_primes = [p for p in range(2, 513) if all(p % d for d in range(2, p))]
        cases = 0
        for p in small_primes:
            l = 0
            while p**l <= 512:
                for m in range(1, 512 // p**l + 1):
                    if m % p == 0:
                        continue
                    n = p**l * m
                    for r in range(1, p**l + 1):
                        assert binom_valuation(p, l, m, r) == vp(math.comb(n, r), p)
                        cases += 1
                l += 1
        assert cases >= 1000


def test_criterion_7_conductor_bruteforce_crosscheck():
    with criterion(7, "division-polynomial conductor vs torsion-field enumeration, b<=6", 120):
        verified = skipped = 0
        for q, t, frob, byg in _scan_classes():
            if frob.b > 6:
                continue
            for g, ab in sorted(byg.items()):
                e = Curve(PrimeField(q), *ab)
                try:
                    gb = conductor_bruteforce(e, frob)
                except CapacityError:
                    skipped += 1
                    continue
                assert gb == g, (q, t, ab, g, gb)
                verified += 1
        assert verified >= 10, f"only {verified} curves verified ({skipped} skipped)"


def test_criterion_8_cli_failure_modes():
    with criterion(8, "CLI rejects supersingular input (exit 3) and count mismatch (exit 4)"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli_main(["analyze", "5:0,1"]) == 3
            assert cli_main(["compare", "5:1,1", "5:1,2"]) == 4
        assert "supersingular" in err.getvalue()
