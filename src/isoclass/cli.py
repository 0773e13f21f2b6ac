"""Command line front end.

Subcommands: analyze one curve, compare two curves in the same isogeny
class, derive a pattern from raw (q, t, g, g') data, and cross-check a
comparison against the brute-force enumeration oracle.

Exit codes: 0 ok, 2 invalid input, 3 supersingular curve, 4 point-count
mismatch, 5 capacity exceeded (a bound of the point count, the conductor,
the enumeration, the factoring budget, or the compare --kmax ceiling
below), 6 a cross-check disagreed with the pattern at some k (the oracle's
enumeration, or compare --kmax's gcd test).  JSON reports render every big
integer as a decimal string.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys

from .curve import COUNT_BOUND, CapacityError, Curve, _check_enum_ceiling
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
# at the limit it answers in about 0.6 s (q = 7, kmax 6666; 0.9 s at q near
# 10^18, kmax 333, most of it the point count) on a 2-core x86 host.
KMAX_BITS_LIMIT = 20000
# Largest bit length of q that pattern takes: a rho step costs more as the
# number grows, and the step budget runs out in about 2.5 s at 256 bits (4q - 1
# a product of two 129-bit primes) on a 2-core x86 host.
PATTERN_Q_BITS = 256
# Stands in for a pattern's allowed residues until _write_json writes them;
# a command-line argument cannot hold the NUL, so no input string equals it.
_RESIDUES = "\0allowed residues"
# Residues per block of _write_residues: k = 1000 P + s with P >= 1 prints as
# str(P) then s in three digits.
_BLOCK = 1000
# between two residues, at the depth json.dumps(indent=2) puts them
_SEP = '",\n      "'


class CountMismatchError(ValueError):
    """The two curves do not have the same number of points."""


def parse_curve_spec(spec: str) -> Curve:
    """'<q>:<A>,<B>' with q a prime and A, B reduced mod q."""
    m = _SPEC_RE.match(spec)
    if not m:
        raise ValueError(f"bad curve spec {spec!r}, expected '<q>:<A>,<B>'")
    q, a, b = (int(g) for g in m.groups())
    # every subcommand counts points: refuse before the primality test, which
    # takes seconds at a thousand digits and over a minute at four thousand
    if q > COUNT_BOUND:
        raise CapacityError(f"q = {q} exceeds the point-count bound {COUNT_BOUND}")
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


def _pattern_report(echo: dict, inp: ComparisonInput, pattern: IsoPattern) -> tuple[dict, list[str]]:
    """The report of a comparison's pattern, with echo as its "input", and
    the text lines it ends with: tau, the conductors, one line per prime and
    the answer.  "allowed" is null once the modulus exceeds ALLOWED_LIMIT,
    and otherwise holds the pattern itself, whose sieve _write_json writes
    out as the list of allowed residues."""
    text = pattern_text(pattern)
    modulus = pattern.modulus
    report = {
        "input": echo,
        "frobenius": _frob_report(inp.frob),
        "conductors": [str(inp.g), str(inp.g2)],
        "primes": [
            {"p": str(pa.p), "s": str(pa.s), "e": str(pa.e), "strict": pa.strict, "case": pa.case}
            for pa in pattern.per_prime
        ],
        "pattern": {
            "modulus": str(modulus),
            "allowed": pattern if modulus <= ALLOWED_LIMIT else None,
            "text": text,
        },
    }
    lines = [
        _frob_text(inp.frob),
        f"conductors g = {inp.g}, g' = {inp.g2}",
        *(
            f"p = {pa.p}: s = {pa.s}, e = {pa.e}, strict = {'yes' if pa.strict else 'no'}, case = {pa.case}"
            for pa in pattern.per_prime
        ),
        f"isomorphic over F_(q^k) iff: {text}",
    ]
    return report, lines


def _curve_text(curve: Curve) -> str:
    return f"y^2 = x^3 + {curve.a}*x + {curve.b} over F_{curve.ctx.p}"


def _frob_text(frob: FrobeniusData) -> str:
    delta = "sqrt(m)" if frob.kind == "sqrt" else "(1+sqrt(m))/2"
    return f"tau = {frob.a} + {frob.b}*delta,  m = {frob.m},  delta = {delta}"


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> tuple[dict, str, bool]:
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
    return report, text, True


def _parse_pair(spec_a: str, spec_b: str) -> tuple[Curve, Curve]:
    ea, eb = parse_curve_spec(spec_a), parse_curve_spec(spec_b)
    if ea.ctx.p != eb.ctx.p:
        raise ValueError("curves must be defined over the same field")
    return ea, eb


def _comparison_setup(ea: Curve, eb: Curve) -> tuple[int, ComparisonInput]:
    na, nb = ea.count_points(), eb.count_points()
    if na != nb:
        raise CountMismatchError(f"point counts differ: {na} != {nb}")
    q = ea.ctx.p
    frob = frobenius_from_trace(q, q + 1 - na)
    return na, ComparisonInput(frob, conductor(ea, frob), conductor(eb, frob))


def _comparison_report(args, count: int, inp: ComparisonInput, pattern: IsoPattern) -> tuple[dict, list[str]]:
    echo = {"curve_a": args.curve_a, "curve_b": args.curve_b, "count": str(count)}
    report, lines = _pattern_report(echo, inp, pattern)
    header = [
        f"comparing over F_{inp.frob.q}, common count {count}",
        f"  E : {args.curve_a}",
        f"  E': {args.curve_b}",
    ]
    return report, header + lines


def cmd_compare(args) -> tuple[dict, str, bool]:
    if args.kmax < 0:
        raise ValueError(f"--kmax must be >= 0, got {args.kmax}")
    count, inp = _comparison_setup(*_parse_pair(args.curve_a, args.curve_b))
    bits = inp.frob.q.bit_length()
    if args.kmax * bits > KMAX_BITS_LIMIT:
        raise CapacityError(f"--kmax {args.kmax} times the {bits} bits of q exceeds {KMAX_BITS_LIMIT}")
    pattern = iso_pattern(inp)
    report, lines = _comparison_report(args, count, inp, pattern)
    agree = True
    if args.kmax:
        table = gcd_table(inp, args.kmax)
        report["per_k"] = [{"k": str(k), "iso": iso} for k, iso in enumerate(table, 1)]
        lines.append("per-k cross-check (gcd test):")
        for k, iso in enumerate(table, 1):
            lines.append(f"  k = {k}: {'isomorphic' if iso else 'not isomorphic'}")
            agree &= iso == pattern_eval(pattern, k)
    return report, "\n".join(lines), agree


def cmd_pattern(args) -> tuple[dict, str, bool]:
    if args.q >= 1 << PATTERN_Q_BITS:
        raise CapacityError(f"q has {args.q.bit_length()} bits, over the pattern ceiling of {PATTERN_Q_BITS}")
    inp = ComparisonInput(frobenius_from_trace(args.q, args.trace), args.g, args.g2)
    echo = {"q": str(args.q), "trace": str(args.trace), "g": str(args.g), "g2": str(args.g2)}
    report, lines = _pattern_report(echo, inp, iso_pattern(inp))
    return report, "\n".join(lines), True


def cmd_oracle(args) -> tuple[dict, str, bool]:
    if args.kmax < 1:
        raise ValueError(f"--kmax must be >= 1, got {args.kmax}")
    ea, eb = _parse_pair(args.curve_a, args.curve_b)
    # the ceiling needs q and kmax only, so it refuses before any point is counted
    _check_enum_ceiling(ea.ctx.p, args.kmax)
    count, inp = _comparison_setup(ea, eb)
    pattern = iso_pattern(inp)
    from . import enumeration  # numpy loads only for the oracle

    report, lines = _comparison_report(args, count, inp, pattern)
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
    return report, "\n".join(lines), all_agree


# ---------------------------------------------------------------------------


def _write_json(report: dict) -> None:
    """print(json.dumps(report, indent=2)), byte for byte, written to
    sys.stdout in pieces.  The stdlib encoder writes everything but a
    pattern's allowed residues, which stand in the report as the pattern
    and are encoded as the marker _RESIDUES.  The text before the marker,
    the residue list (_write_residues) and the text after it then go out in
    turn, so neither the whole list nor a spliced copy of the report is
    ever held."""
    patterns = []

    def mark(pattern: IsoPattern) -> str:
        patterns.append(pattern)
        return _RESIDUES

    text = json.dumps(report, indent=2, default=mark)
    out = sys.stdout
    if not patterns:
        out.write(text + "\n")
        return
    head, tail = text.split(json.dumps(_RESIDUES), 1)
    out.write(head)
    _write_residues(patterns[0].sieve(), out)
    out.write(tail + "\n")


def _write_residues(sieve: bytearray, out) -> None:
    """The k with sieve[k] set as the list json.dumps(indent=2) writes in a
    pattern (items at 6 spaces, "]" at 4), written to out one block of
    _BLOCK residues at a time.

    Past block 0, a block's text is fixed by its mask, the slice of the
    sieve it covers, up to the prefix str(P) of its index P.  Each mask
    gets a template the first time it is seen, its residues as "\0%03d"
    joined by the separator, and every block with that mask is then one
    str.replace."""
    if sieve.find(1) < 0:
        out.write("[]")
        return
    out.write('[\n      "')
    templates = {}  # mask -> its template
    sep = ""
    for start in range(0, len(sieve), _BLOCK):
        mask = bytes(sieve[start : start + _BLOCK])
        if start == 0:
            block = _SEP.join(map(str, itertools.compress(range(len(mask)), mask)))
        else:
            template = templates.get(mask)
            if template is None:
                suffixes = itertools.compress(range(len(mask)), mask)
                template = templates[mask] = _SEP.join(["\0%03d" % s for s in suffixes])
            block = template.replace("\0", str(start // _BLOCK))
        if block:
            out.write(sep)
            out.write(block)
            sep = _SEP
    out.write('"\n    ]')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoclass",
        description="Group isomorphism of ordinary elliptic curves over F_q "
        "and all its extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="count, Frobenius, conductor of one curve")
    p.add_argument("curve", help="curve spec <q>:<A>,<B>")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("compare", help="isomorphism pattern for two curves")
    p.add_argument("curve_a", help="curve spec <q>:<A>,<B>")
    p.add_argument("curve_b", help="curve spec <q>:<A>,<B>")
    p.add_argument("--kmax", type=int, default=0, help="tabulate k = 1..kmax")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("pattern", help="pattern from raw (q, t, g, g') data")
    p.add_argument("--q", type=int, required=True, help="prime power q")
    p.add_argument("--trace", type=int, required=True, help="Frobenius trace t")
    p.add_argument("--g", type=int, required=True, help="first conductor")
    p.add_argument("--g2", type=int, required=True, help="second conductor")
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("oracle", help="brute-force cross-check of a comparison")
    p.add_argument("curve_a", help="curve spec <q>:<A>,<B>")
    p.add_argument("curve_b", help="curve spec <q>:<A>,<B>")
    p.add_argument("--kmax", type=int, required=True, help="check k = 1..kmax")
    p.set_defaults(func=cmd_oracle)
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


# built once: main parses every call with it
_PARSER = build_parser()


# the exit code of each error main reports, the first matching entry winning:
# SupersingularError and CountMismatchError are ValueErrors
_EXIT_CODES = {SupersingularError: 3, CountMismatchError: 4, CapacityError: 5, ValueError: 2}
# oracle: enumeration and pattern differ at some degree; compare --kmax: the
# gcd test and pattern differ at some k
DISAGREEMENT_EXIT = 6


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, text, agree = args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    if args.json:
        _write_json(report)
    else:
        print(text)
    return 0 if agree else DISAGREEMENT_EXIT


if __name__ == "__main__":
    sys.exit(main())
