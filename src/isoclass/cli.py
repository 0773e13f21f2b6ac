"""Command line front end.

Subcommands: analyze one curve, compare two curves in the same isogeny
class, derive a pattern from raw (q, t, g, g') data, and cross-check a
comparison against the brute-force enumeration oracle.

Exit codes: 0 ok, 2 invalid input, 3 supersingular curve, 4 point-count
mismatch, 5 capacity exceeded (a bound of the point count, the conductor,
the enumeration, the factoring budget, or the compare --kmax ceiling
below).  JSON reports render every big integer as a decimal string.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .curve import ENUM_BOUND, CapacityError, Curve
from .endoring import conductor
from .field import PrimeField
from .isomorphy import (
    ComparisonInput,
    IsoPattern,
    gcd_table,
    iso_pattern,
    pattern_eval,
    predicted_group_structure,
)
from .quadorder import FrobeniusData, SupersingularError, frobenius_from_trace

_SPEC_RE = re.compile(r"^(\d+):(-?\d+),(-?\d+)$")
ALLOWED_LIMIT = 10**6  # largest modulus whose allowed residues a report lists
# Largest kmax * q.bit_length() that compare --kmax tabulates.  tau^k has
# about k * q.bit_length() / 2 bits, so the gcd test's cost grows with both;
# at the limit it answers in about 1.2 s (q = 7, kmax 6666; 1.3 s at q near
# 10^18, kmax 333, most of it the point count) on a 2-core x86 host.
KMAX_BITS_LIMIT = 20000
# Largest bit length of q that pattern takes: a rho step costs more as the
# number grows, and the step budget runs out in about 2.5 s at 256 bits (4q - 1
# a product of two 129-bit primes) on a 2-core x86 host.
PATTERN_Q_BITS = 256
# Stands in for a pattern's allowed residues until _json_text writes them;
# a command-line argument cannot hold the NUL, so no input string equals it.
_RESIDUES = "\0allowed residues"


class CountMismatchError(ValueError):
    """The two curves do not have the same number of points."""


def parse_curve_spec(spec: str) -> Curve:
    """'<q>:<A>,<B>' with q a prime and A, B reduced mod q."""
    m = _SPEC_RE.match(spec)
    if not m:
        raise ValueError(f"bad curve spec {spec!r}, expected '<q>:<A>,<B>'")
    q, a, b = (int(g) for g in m.groups())
    return Curve(PrimeField(q), a, b)


# ---------------------------------------------------------------------------
# pattern text


def pattern_text(pattern: IsoPattern) -> str:
    """Human form of a pattern: 'none', 'all k', or its rules ('2 | k',
    'k odd', 'd ∤ k') joined with ' and '."""
    if pattern.not_dividing == (1,):
        return "none"
    rules = ["2 | k"] if pattern.even else []
    rules += ["k odd" if d == 2 else f"{d} ∤ k" for d in pattern.not_dividing]
    return " and ".join(rules) or "all k"


# ---------------------------------------------------------------------------
# report pieces


def _frob_report(frob: FrobeniusData) -> dict:
    return {
        "q": str(frob.q),
        "t": str(frob.t),
        "a": str(frob.a),
        "b": str(frob.b),
        "m": str(frob.m),
        "delta": frob.kind,
    }


def _pattern_section(pattern: IsoPattern) -> tuple[dict, list[str]]:
    """The "primes" and "pattern" report entries and the text lines of a
    pattern.  "allowed" is null once the modulus exceeds ALLOWED_LIMIT, and
    otherwise holds the pattern's `residues` method, which _json_text calls."""
    text = pattern_text(pattern)
    modulus = pattern.modulus
    allowed = pattern.residues if modulus <= ALLOWED_LIMIT else None
    report = {
        "primes": [
            {"p": str(pa.p), "s": str(pa.s), "e": str(pa.e), "strict": pa.strict, "case": pa.case}
            for pa in pattern.per_prime
        ],
        "pattern": {"modulus": str(modulus), "allowed": allowed, "text": text},
    }
    lines = [
        f"p = {pa.p}: s = {pa.s}, e = {pa.e}, strict = {'yes' if pa.strict else 'no'}, case = {pa.case}"
        for pa in pattern.per_prime
    ]
    lines.append(f"isomorphic over F_(q^k) iff: {text}")
    return report, lines


def _curve_text(curve: Curve) -> str:
    return f"y^2 = x^3 + {curve.a}*x + {curve.b} over F_{curve.ctx.p}"


def _frob_text(frob: FrobeniusData) -> str:
    delta = "sqrt(m)" if frob.kind == "sqrt" else "(1+sqrt(m))/2"
    return f"tau = {frob.a} + {frob.b}*delta,  m = {frob.m},  delta = {delta}"


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> tuple[dict, str]:
    curve = parse_curve_spec(args.curve)
    count = curve.count_points()
    q = curve.ctx.p
    frob = frobenius_from_trace(q, q + 1 - count)
    g = conductor(curve, frob)
    struct = predicted_group_structure(frob, g, 1)
    report = {
        "input": {
            "curve": args.curve,
            "count": str(count),
            "structure": [str(struct.n1), str(struct.n2)],
        },
        "frobenius": _frob_report(frob),
        "conductors": [str(g)],
        "primes": [],
        "pattern": None,
    }
    text = "\n".join(
        [
            _curve_text(curve),
            f"|E(F_q)| = {count}  (trace t = {frob.t})",
            _frob_text(frob),
            f"conductor g = {g}",
            f"E(F_q) = Z/{struct.n1} x Z/{struct.n2}",
        ]
    )
    return report, text


def _parse_pair(spec_a: str, spec_b: str) -> tuple[Curve, Curve]:
    ea, eb = parse_curve_spec(spec_a), parse_curve_spec(spec_b)
    if ea.ctx.p != eb.ctx.p:
        raise ValueError("curves must be defined over the same field")
    return ea, eb


def _comparison_setup(ea: Curve, eb: Curve):
    na, nb = ea.count_points(), eb.count_points()
    if na != nb:
        raise CountMismatchError(f"point counts differ: {na} != {nb}")
    q = ea.ctx.p
    frob = frobenius_from_trace(q, q + 1 - na)
    ga, gb = conductor(ea, frob), conductor(eb, frob)
    inp = ComparisonInput(frob, ga, gb)
    return na, frob, inp


def _comparison_report(args, inp: ComparisonInput, count: int, pattern: IsoPattern) -> tuple[dict, list[str]]:
    section, pattern_lines = _pattern_section(pattern)
    report = {
        "input": {
            "curve_a": args.curve_a,
            "curve_b": args.curve_b,
            "count": str(count),
        },
        "frobenius": _frob_report(inp.frob),
        "conductors": [str(inp.g), str(inp.g2)],
        **section,
    }
    lines = [
        f"comparing over F_{inp.frob.q}, common count {count}",
        f"  E : {args.curve_a}",
        f"  E': {args.curve_b}",
        _frob_text(inp.frob),
        f"conductors g = {inp.g}, g' = {inp.g2}",
        *pattern_lines,
    ]
    return report, lines


def cmd_compare(args) -> tuple[dict, str]:
    if args.kmax < 0:
        raise ValueError(f"--kmax must be >= 0, got {args.kmax}")
    count, frob, inp = _comparison_setup(*_parse_pair(args.curve_a, args.curve_b))
    if args.kmax * frob.q.bit_length() > KMAX_BITS_LIMIT:
        raise CapacityError(
            f"--kmax {args.kmax} times the {frob.q.bit_length()} bits of q exceeds {KMAX_BITS_LIMIT}"
        )
    pattern = iso_pattern(inp)
    report, lines = _comparison_report(args, inp, count, pattern)
    if args.kmax:
        per_k = [{"k": str(k), "iso": iso} for k, iso in enumerate(gcd_table(inp, args.kmax), 1)]
        report["per_k"] = per_k
        lines.append("per-k cross-check (gcd test):")
        for row in per_k:
            lines.append(f"  k = {row['k']}: {'isomorphic' if row['iso'] else 'not isomorphic'}")
    return report, "\n".join(lines)


def cmd_pattern(args) -> tuple[dict, str]:
    if args.q >= 1 << PATTERN_Q_BITS:
        raise CapacityError(f"q has {args.q.bit_length()} bits, over the pattern ceiling of {PATTERN_Q_BITS}")
    frob = frobenius_from_trace(args.q, args.trace)
    inp = ComparisonInput(frob, args.g, args.g2)
    section, pattern_lines = _pattern_section(iso_pattern(inp))
    report = {
        "input": {
            "q": str(args.q),
            "trace": str(args.trace),
            "g": str(args.g),
            "g2": str(args.g2),
        },
        "frobenius": _frob_report(frob),
        "conductors": [str(args.g), str(args.g2)],
        **section,
    }
    lines = [
        _frob_text(frob),
        f"conductors g = {args.g}, g' = {args.g2}",
        *pattern_lines,
    ]
    return report, "\n".join(lines)


def cmd_oracle(args) -> tuple[dict, str]:
    if args.kmax < 1:
        raise ValueError(f"--kmax must be >= 1, got {args.kmax}")
    ea, eb = _parse_pair(args.curve_a, args.curve_b)
    # the ceiling needs q and kmax only, so it refuses before any point is
    # counted; q >= 2, so q^k > ENUM_BOUND once k >= ENUM_BOUND.bit_length():
    # no huge power
    q = ea.ctx.p
    if args.kmax >= ENUM_BOUND.bit_length() or q**args.kmax > ENUM_BOUND:
        raise CapacityError(f"field size {q}^{args.kmax} exceeds the enumeration ceiling {ENUM_BOUND}")
    count, frob, inp = _comparison_setup(ea, eb)
    pattern = iso_pattern(inp)
    from . import enumeration  # numpy loads only for the oracle

    report, lines = _comparison_report(args, inp, count, pattern)
    rows = []
    all_agree = True
    for k in range(1, args.kmax + 1):
        sa = enumeration.group_structure(ea, k)
        sb = enumeration.group_structure(eb, k)
        iso = sa == sb
        predicted = pattern_eval(pattern, k)
        agree = iso == predicted
        all_agree &= agree
        rows.append(
            {
                "k": str(k),
                "a": [str(sa.n1), str(sa.n2)],
                "b": [str(sb.n1), str(sb.n2)],
                "isomorphic": iso,
                "predicted": predicted,
                "agree": agree,
            }
        )
    report["oracle"] = rows
    lines.append("oracle (enumerated group structures vs pattern):")
    for row in rows:
        lines.append(
            f"  k = {row['k']}: E = Z/{row['a'][0]} x Z/{row['a'][1]}, "
            f"E' = Z/{row['b'][0]} x Z/{row['b'][1]}, "
            f"iso = {'yes' if row['isomorphic'] else 'no'}, "
            f"predicted = {'yes' if row['predicted'] else 'no'}"
            + ("" if row["agree"] else "  << DISAGREEMENT")
        )
    lines.append(
        "oracle and pattern agree for every k" if all_agree else "DISAGREEMENT FOUND"
    )
    return report, "\n".join(lines)


# ---------------------------------------------------------------------------


def _json_text(report: dict) -> str:
    """json.dumps(report, indent=2), byte for byte.  The stdlib encoder
    writes everything but a pattern's allowed residues, which stand in the
    report as the pattern's `residues` method: those, O(modulus) of them,
    are written in one join at the depth json.dumps puts them (items at 6
    spaces, "]" at 4) and spliced in, not encoded one item at a time."""
    block = ""

    def write_residues(residues) -> str:
        nonlocal block
        items = '",\n      "'.join(map(str, residues()))
        block = f'[\n      "{items}"\n    ]' if items else "[]"
        return _RESIDUES

    text = json.dumps(report, indent=2, default=write_residues)
    return text.replace(json.dumps(_RESIDUES), block, 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoclass",
        description="Group isomorphism of ordinary elliptic curves over F_q "
        "and all its extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="count, Frobenius, conductor of one curve")
    p.add_argument("curve", help="curve spec <q>:<A>,<B>")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="isomorphism pattern for two curves")
    p.add_argument("curve_a", help="curve spec <q>:<A>,<B>")
    p.add_argument("curve_b", help="curve spec <q>:<A>,<B>")
    p.add_argument("--kmax", type=int, default=0, help="tabulate k = 1..kmax")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("pattern", help="pattern from raw (q, t, g, g') data")
    p.add_argument("--q", type=int, required=True, help="prime power q")
    p.add_argument("--trace", type=int, required=True, help="Frobenius trace t")
    p.add_argument("--g", type=int, required=True, help="first conductor")
    p.add_argument("--g2", type=int, required=True, help="second conductor")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("oracle", help="brute-force cross-check of a comparison")
    p.add_argument("curve_a", help="curve spec <q>:<A>,<B>")
    p.add_argument("curve_b", help="curve spec <q>:<A>,<B>")
    p.add_argument("--kmax", type=int, required=True, help="check k = 1..kmax")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, text = args.func(args)
    except SupersingularError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CountMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json_text(report))
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
