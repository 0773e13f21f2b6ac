import argparse
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from isoclass import cli, curve, enumeration, field
from isoclass.cli import (
    KMAX_BITS_LIMIT,
    PATTERN_Q_BITS,
    main,
    parse_curve_spec,
    pattern_text,
)
from isoclass.isomorphy import ComparisonInput, IsoPattern, iso_pattern, pattern_eval
from isoclass.quadorder import factorize, frobenius_from_trace

from conftest import EXAMPLE1
from helpers import render_pairwise_table

DATA = pathlib.Path(__file__).parent / "data"


def _pat(even, not_dividing):
    return IsoPattern(even, tuple(not_dividing))


def test_parse_curve_spec():
    e = parse_curve_spec("5:1,1")
    assert (e.ctx.p, e.a, e.b) == (5, 1, 1)
    e = parse_curve_spec("5:-4,6")
    assert (e.a, e.b) == (1, 1)
    for bad in ("5:1", "5,1,1", "x:1,1", "5:1,1,2", ""):
        with pytest.raises(ValueError):
            parse_curve_spec(bad)


def test_pattern_text_basic():
    assert pattern_text(_pat(False, ())) == "all k"
    assert pattern_text(_pat(False, (1,))) == "none"
    assert pattern_text(_pat(True, (2,))) == "none"
    assert pattern_text(_pat(False, (2,))) == "k odd"
    assert pattern_text(_pat(True, ())) == "2 | k"
    assert pattern_text(_pat(False, (4,))) == "4 ∤ k"
    assert pattern_text(_pat(True, (3,))) == "2 | k and 3 ∤ k"
    assert pattern_text(_pat(True, (6,))) == "2 | k and 3 ∤ k"
    assert pattern_text(_pat(True, (12, 4))) == "2 | k and 4 ∤ k"
    assert pattern_text(_pat(False, (3,))) == "3 ∤ k"
    assert pattern_text(_pat(False, (9, 3, 6))) == "3 ∤ k"
    assert pattern_text(_pat(False, (2, 3))) == "k odd and 3 ∤ k"
    assert pattern_text(_pat(False, (11, 7, 5, 3))) == "3 ∤ k and 5 ∤ k and 7 ∤ k and 11 ∤ k"


def test_pattern_text_consistent_with_eval():
    # rendering must describe exactly the k the pattern allows
    for even in (False, True):
        for size in range(0, 4):
            for ds in itertools.combinations(range(1, 13), size):
                pat = _pat(even, ds)
                text = pattern_text(pat)
                # re-evaluate the text on two periods of k
                for k in range(1, 2 * pat.modulus + 1):
                    ok = text != "none"
                    if text not in ("none", "all k"):
                        for atom in text.split(" and "):
                            if atom == "k odd":
                                ok &= k % 2 == 1
                            elif atom == "2 | k":
                                ok &= k % 2 == 0
                            else:
                                d, sign, _ = atom.split()
                                assert sign == "∤", atom
                                ok &= k % int(d) != 0
                    assert ok == pattern_eval(pat, k), (even, ds, text, k)


def test_render_pairwise_table_golden():
    cells = {}
    gs = EXAMPLE1.conductors
    for i, j in itertools.combinations(range(6), 2):
        cells[(i, j)] = pattern_text(iso_pattern(ComparisonInput(EXAMPLE1.frob, gs[i], gs[j])))
    table = render_pairwise_table([f"E{i}" for i in range(6)], cells)
    golden = (DATA / "example1_table.txt").read_text()
    assert table == golden


def test_analyze_json(capsys):
    assert main(["analyze", "3329:49,0", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["input"]["count"] == "3280"
    assert out["input"]["structure"] == ["4", "820"]
    assert out["frobenius"] == {
        "q": "3329", "t": "50", "a": "25", "b": "52", "m": "-1", "delta": "sqrt",
    }
    assert out["conductors"] == ["1"]
    assert out["pattern"] is None


def test_analyze_text(capsys):
    assert main(["analyze", "5:1,1"]) == 0
    out = capsys.readouterr().out
    assert "|E(F_q)| = 9" in out
    assert "Z/1 x Z/9" in out


def test_compare_json_roundtrip(capsys):
    assert main(["compare", "3329:49,0", "3329:1,98", "--kmax", "4", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["conductors"] == ["1", "13"]
    assert out["pattern"] == {"modulus": "2", "allowed": ["1"], "text": "k odd"}
    assert out["primes"] == [{"p": "13", "s": "1", "e": "2", "strict": True, "case": "odd_p"}]
    assert out["per_k"] == [
        {"k": "1", "iso": True},
        {"k": "2", "iso": False},
        {"k": "3", "iso": True},
        {"k": "4", "iso": False},
    ]
    # all numbers are decimal strings
    def walk(x):
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
        else:
            assert isinstance(x, (str, bool)) or x is None, x
    walk(out)


def test_pattern_command(capsys):
    assert main(["pattern", "--q", "3329", "--trace", "104", "--g", "1", "--g2", "25", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pattern"]["modulus"] == "4"
    assert out["pattern"]["allowed"] == ["1", "2", "3"]
    assert out["pattern"]["text"] == "4 ∤ k"


def test_pattern_command_prime_power_q(capsys):
    # q need not be prime here; raw Frobenius data is enough
    assert main(["pattern", "--q", "1062961", "--trace", "-1342", "--g", "1", "--g2", "4", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["frobenius"]["q"] == "1062961"


def test_pattern_command_large_prime(capsys):
    # p = 1e9+7 divides b: the answer comes from the rules alone, and the
    # residues of a modulus above 10^6 are not listed
    argv = ["pattern", "--q", "24750000346500001213", "--trace", "1", "--g", "1000000007", "--g2", "1"]
    assert main(argv + ["--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pattern"] == {"modulus": "1000000006", "allowed": None, "text": "500000003 ∤ k"}


def _assert_same_text(got: str, want: str, context=None) -> None:
    """got == want, compared as one bool.  A mismatch reports the first
    differing offset, the text around it on both sides and both lengths,
    where a plain == assert would have pytest diff megabytes of output."""
    if got != want:
        first = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
        around = slice(max(first - 20, 0), first + 20)
        raise AssertionError((context, first, got[around], want[around], len(got), len(want)))


def _stdlib_json(stdout: str) -> str:
    """The report in stdout as json.dumps(indent=2) writes it, with "allowed"
    rebuilt from pattern_eval over k = 1..modulus."""
    report = json.loads(stdout)
    frob = frobenius_from_trace(int(report["frobenius"]["q"]), int(report["frobenius"]["t"]))
    g, g2 = (int(c) for c in report["conductors"])
    pat = iso_pattern(ComparisonInput(frob, g, g2))
    m = pat.modulus
    assert report["pattern"]["modulus"] == str(m)
    if m <= cli.ALLOWED_LIMIT:
        report["pattern"]["allowed"] = [str(r) for r in range(m) if pattern_eval(pat, r or m)]
    return json.dumps(report, indent=2) + "\n"


_JSON_CASES = {
    "modulus 1": ["pattern", "--q", "3329", "--trace", "50", "--g", "26", "--g2", "26"],
    "none": ["pattern", "--q", "3329", "--trace", "50", "--g", "1", "--g2", "52"],
    "k odd": ["pattern", "--q", "3329", "--trace", "50", "--g", "1", "--g2", "13"],
    "4 does not divide k": ["pattern", "--q", "3329", "--trace", "104", "--g", "1", "--g2", "25"],
    "2 | k, half delta": ["pattern", "--q", "1031", "--trace", "-20", "--g", "7", "--g2", "14"],
    "2 | k and 3 does not divide k": ["pattern", "--q", "1031", "--trace", "-20", "--g", "7", "--g2", "2"],
    "modulus 999982": ["pattern", "--q", "999966001733", "--trace", "76", "--g", "999983", "--g2", "1"],
    "modulus 1000000006": ["pattern", "--q", "24750000346500001213", "--trace", "1", "--g", "1000000007", "--g2", "1"],
    "compare": ["compare", "3329:49,0", "3329:1,98", "--kmax", "6"],
    "compare, half delta": ["compare", "1031:982,824", "1031:1,89", "--kmax", "6"],
}


def test_json_bytes_are_stdlib_json(capsys):
    # the residue list is written apart from json.dumps; the bytes must not
    # show it: fixed cases, then seeded raw data with random conductors
    cases = dict(_JSON_CASES)
    rng = random.Random(15)
    prime_powers = [q for q in range(5, 3000, 2) if len(factorize(q)) == 1]
    while len(cases) < len(_JSON_CASES) + 12:
        q = rng.choice(prime_powers)
        t = rng.randrange(-math.isqrt(4 * q - 1), math.isqrt(4 * q - 1) + 1)
        if math.gcd(t, q) != 1:
            continue
        divs = [1]
        for p, e in factorize(frobenius_from_trace(q, t).b).items():
            divs = [d * p**i for d in divs for i in range(e + 1)]
        g, g2 = rng.choice(divs), rng.choice(divs)
        cases[len(cases)] = ["pattern", "--q", str(q), "--trace", str(t), "--g", str(g), "--g2", str(g2)]
    allowed = {}
    for name, argv in cases.items():
        assert main(argv + ["--json"]) == 0, argv
        out = capsys.readouterr().out
        _assert_same_text(out, _stdlib_json(out), argv)
        allowed[name] = json.loads(out)["pattern"]["allowed"]
    assert allowed["modulus 1"] == ["0"] and allowed["none"] == [] and allowed["k odd"] == ["1"]
    assert len(allowed["modulus 999982"]) == 999980  # all but 0 and 499991
    assert allowed["modulus 1000000006"] is None


@pytest.mark.parametrize("even, not_dividing", [
    (False, ()),  # modulus 1
    (False, (1,)),  # none
    (False, (999,)), (False, (1000,)), (False, (1001,)),
    (True, (2999,)), (False, (3000,)), (True, (3001,)),
    (True, (499999,)),
    (False, (3, 4, 5, 7)),
    (False, (3, 4, 5, 7, 11, 13)),
    (True, (499, 1001)),  # modulus 998998: blocks rarely repeat a mask
    (False, (10**6,)),  # modulus ALLOWED_LIMIT
], ids=lambda v: str(v))
def test_write_residues_is_one_join(even, not_dividing):
    # the block writer, by templates past block 0, writes what one join
    # over every residue would, at the depth json.dumps(indent=2) puts it
    pat = IsoPattern(even, not_dividing)
    assert pat.modulus <= cli.ALLOWED_LIMIT
    items = '",\n      "'.join(map(str, pat.residues()))
    want = f'[\n      "{items}"\n    ]' if items else "[]"
    out = io.StringIO()
    cli._write_residues(pat.sieve(), out)
    _assert_same_text(out.getvalue(), want)


def test_oracle_command(capsys):
    assert main(["oracle", "5:1,1", "5:1,4", "--kmax", "4", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    rows = out["oracle"]
    assert len(rows) == 4
    for row in rows:
        assert row["agree"] is True
        assert row["isomorphic"] == row["predicted"]


def test_oracle_over_f5_to_kmax_9(capsys):
    # conductors 1 and 2, so the groups differ at every k; over F_(5^k) the
    # listing reads one x per Frobenius orbit, of lengths dividing k, up to
    # 5^9 = 1953125 elements
    assert main(["oracle", "5:4,0", "5:4,1", "--kmax", "9", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["conductors"] == ["1", "2"]
    rows = out["oracle"]
    assert [row["k"] for row in rows] == [str(k) for k in range(1, 10)]
    assert all(row["agree"] is True and row["isomorphic"] is False for row in rows)
    assert rows[-1]["a"] == ["2", "975364"] and rows[-1]["b"] == ["1", "1950728"]


def test_exit_code_invalid_input(capsys):
    assert main(["analyze", "5:1"]) == 2            # malformed spec
    assert main(["analyze", "6:1,1"]) == 2          # composite field size
    assert main(["analyze", "5:0,0"]) == 2          # singular
    assert main(["compare", "5:1,1", "7:1,1"]) == 2 # different fields
    assert main(["pattern", "--q", "5", "--trace", "2", "--g", "1", "--g2", "3"]) == 2  # g2 does not divide b
    assert main(["pattern", "--q", "15", "--trace", "1", "--g", "1", "--g2", "1"]) == 2  # q not a prime power
    assert main(["pattern", "--q", "1", "--trace", "1", "--g", "1", "--g2", "1"]) == 2
    err = capsys.readouterr().err
    assert "q = 15 is not a prime power" in err
    # psi_12, a strong pseudoprime to the prime bases 2..37, is no prime power
    psi12 = "318665857834031151167461"
    assert main(["pattern", "--q", psi12, "--trace", "1", "--g", "1", "--g2", "1"]) == 2
    assert f"q = {psi12} is not a prime power" in capsys.readouterr().err
    # a prime power that is not prime stays valid
    assert main(["pattern", "--q", "1062961", "--trace", "-1342", "--g", "1", "--g2", "4"]) == 0
    capsys.readouterr()


def test_exit_code_bad_kmax(capsys):
    assert main(["compare", "3329:49,0", "3329:1,98", "--kmax", "-3"]) == 2
    assert main(["oracle", "5:1,1", "5:1,4", "--kmax", "0"]) == 2
    assert main(["oracle", "5:1,1", "5:1,4", "--kmax", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--kmax must be >= 0" in err and "--kmax must be >= 1" in err
    assert main(["compare", "3329:49,0", "3329:1,98", "--kmax", "0"]) == 0
    capsys.readouterr()


def test_exit_code_supersingular(capsys):
    assert main(["analyze", "5:0,1"]) == 3
    err = capsys.readouterr().err
    assert "supersingular" in err


def test_exit_code_count_mismatch(capsys):
    assert main(["compare", "5:1,1", "5:1,2"]) == 4
    capsys.readouterr()


def test_exit_code_capacity(capsys):
    # at k = 2000 and 10^7, q^k is too long to print or to build quickly
    for kmax in ("3", "2000", str(10**7)):
        assert main(["oracle", "3329:49,0", "3329:1,98", "--kmax", kmax]) == 5, kmax
    capsys.readouterr()


def test_exit_code_count_bound(monkeypatch, capsys):
    # refused before any point arithmetic; 10^18 + 3 is prime
    def no_arithmetic(*args):
        raise AssertionError("counted past COUNT_BOUND")

    monkeypatch.setattr(curve, "_count_sweep", no_arithmetic)
    monkeypatch.setattr(curve, "_count_mestre", no_arithmetic)
    monkeypatch.setattr(curve.Curve, "_add", no_arithmetic)
    assert curve.COUNT_BOUND == 10**18
    assert main(["analyze", "1000000000000000003:1,1"]) == 5
    assert "point-count bound" in capsys.readouterr().err


def test_spec_above_count_bound_skips_primality(monkeypatch, capsys):
    # every subcommand counts points, so a spec's q above COUNT_BOUND is
    # refused before the primality test: that test took 1.3 s on the
    # 1000-digit prime 10^999 + 7, and one of its 13 Miller-Rabin rounds
    # takes 6 s at 4300 digits (2-core x86 host)
    def no_test(n):
        raise AssertionError(f"primality test of a {len(str(n))}-digit q")

    monkeypatch.setattr(field, "is_prime", no_test)
    q = str(10**999 + 7)
    assert main(["analyze", f"{q}:1,1"]) == 5
    assert main(["compare", f"{q}:1,1", "5:1,1", "--kmax", "3"]) == 5
    assert main(["oracle", f"{q}:1,1", f"{q}:1,2", "--kmax", "1"]) == 5
    assert capsys.readouterr().err.count("exceeds the point-count bound 1000000000000000000") == 3


def test_each_curve_counted_once(monkeypatch, capsys):
    counts = []
    mestre = curve._count_mestre

    def counted(e):
        counts.append(e.ctx.p)
        return mestre(e)

    monkeypatch.setattr(curve, "_count_mestre", counted)
    assert main(["analyze", "3329:3,1152"]) == 0
    assert counts == [3329]
    counts.clear()
    assert main(["compare", "3329:49,0", "3329:1,98"]) == 0
    assert counts == [3329, 3329]
    capsys.readouterr()


def _run_python(*args, timeout=60, input=None):
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=timeout, input=input,
    )


def _run_module(*args, timeout=60):
    return _run_python("-m", "isoclass", *args, timeout=timeout)


def test_python_m_isoclass():
    run = _run_module("analyze", "3329:3,1152")
    assert run.returncode == 0, run.stderr
    assert "conductor g = 2" in run.stdout
    run = _run_module("analyze", "5:0,1")
    assert run.returncode == 3


def test_no_hang_on_large_q_or_conductor():
    # a sweep over every x, or a conductor test at l = 1009, would run past
    # the timeout instead of answering
    run = _run_module("analyze", "10000019:1,1", timeout=30)
    assert run.returncode == 0, run.stderr
    assert "|E(F_q)| = 9998581" in run.stdout
    run = _run_module("analyze", "1018097:3,0", timeout=30)
    assert run.returncode == 5
    assert "conductor bound 211" in run.stderr


@pytest.mark.parametrize("q", [
    "9562484866864319240088910673",
    "24770841347895272818386910005770284577",
], ids=["48-bit factors", "64-bit factors"])
def test_pattern_factoring_budget_exits_5(q):
    # 4q - 1 is the product of two large primes: rho gives up within its
    # budget (seconds) instead of running for minutes
    run = _run_module("pattern", "--q", q, "--trace", "1", "--g", "1", "--g2", "1", timeout=30)
    assert run.returncode == 5, run.stderr
    assert "Pollard rho" in run.stderr and "Traceback" not in run.stderr


def test_pattern_q_ceiling(capsys):
    # a 256-bit q passes the ceiling (2^256 - 1 then fails as composite),
    # a 257-bit one does not
    argv = ["--trace", "1", "--g", "1", "--g2", "1"]
    assert main(["pattern", "--q", str(2**256 - 1), *argv]) == 2
    assert "prime power" in capsys.readouterr().err
    assert main(["pattern", "--q", str(2**256), *argv]) == 5
    assert "q has 257 bits" in capsys.readouterr().err


@pytest.mark.parametrize("q", [2**4000, 10**4000 + 1], ids=["2^4000", "10^4000+1"])
def test_pattern_huge_q_exits_5(q):
    # the q ceiling refuses before any prime-power test or factoring, each
    # of which would run for tens of seconds at these sizes
    assert PATTERN_Q_BITS == 256
    start = time.perf_counter()
    run = _run_module("pattern", "--q", str(q), "--trace", "1", "--g", "1", "--g2", "1", timeout=30)
    elapsed = time.perf_counter() - start
    assert run.returncode == 5, run.stderr
    assert "over the pattern ceiling of 256" in run.stderr and "Traceback" not in run.stderr
    assert elapsed < 2, elapsed


def test_cli_start_leaves_numpy_unloaded():
    # only the oracle enumerates; importing the CLI and answering pattern
    # must not pay for importing numpy
    code = (
        "import sys\n"
        "from isoclass import cli\n"
        "cli.main(['pattern', '--q', '3329', '--trace', '104', '--g', '1', '--g2', '25', '--json'])\n"
        "print('numpy' in sys.modules)\n"
    )
    run = _run_python("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_conductor_at_the_bound():
    # b = 211 = CONDUCTOR_BOUND (j = 1728): the largest prime power the
    # conductor test accepts answers well within the timeout
    run = _run_module("analyze", "44537:3,0", "--json", timeout=30)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["frobenius"]["b"] == "211"
    assert report["conductors"] == ["1"]


def test_oracle_bound_ceiling(monkeypatch, capsys):
    # the ceiling on q^kmax is inclusive: 1999^2 = 3996001 is listed and
    # 2003^2 = 4012009 is refused before any listing; the enumeration is
    # stubbed, since only the ceiling is under test here (the real listing
    # at 1999^2 is test_oracle_memory_at_the_ceiling)
    listed = []

    def fake_group_structure(e, k):
        listed.append(e.ctx.p**k)
        return curve.GroupStructure(1, 1)

    monkeypatch.setattr(enumeration, "group_structure", fake_group_structure)
    assert curve.ENUM_BOUND == 4 * 10**6
    assert main(["oracle", "1999:1,1", "1999:1,1", "--kmax", "2"]) == 0
    assert listed == [1999, 1999, 1999**2, 1999**2]
    capsys.readouterr()
    assert main(["oracle", "2003:1,1", "2003:1,1", "--kmax", "2"]) == 5
    assert "enumeration ceiling" in capsys.readouterr().err
    assert listed == [1999, 1999, 1999**2, 1999**2]
    # the ceiling is no longer an option
    assert main(["oracle", "5:1,1", "5:1,4", "--kmax", "4", "--bound", "10"]) == 2
    capsys.readouterr()


def test_oracle_ceiling_before_counting(monkeypatch, capsys):
    # the ceiling needs q and kmax only, so it refuses before any point is
    # counted (or any conductor tested): 44537^2 > 4 * 10^6
    assert main(["oracle", "13:2,5", "13:1,1", "--kmax", "1"]) == 4  # 12 != 18 points
    capsys.readouterr()

    def no_count(self):
        raise AssertionError("counted points above the enumeration ceiling")

    monkeypatch.setattr(curve.Curve, "count_points", no_count)
    assert main(["oracle", "44537:3,0", "44537:3,0", "--kmax", "2"]) == 5
    assert "enumeration ceiling" in capsys.readouterr().err
    # a count mismatch above the ceiling is refused by the ceiling too
    assert main(["oracle", "13:2,5", "13:1,1", "--kmax", "7"]) == 5
    assert "enumeration ceiling" in capsys.readouterr().err
    # input errors still come first
    assert main(["oracle", "13:2,5", "17:1,1", "--kmax", "7"]) == 2
    assert main(["oracle", "44537:3,0", "44537:3,0", "--kmax", "0"]) == 2
    capsys.readouterr()


# runs the CLI with the enumeration replaced by a failure, so a missing
# ceiling shows as a traceback instead of a multi-GiB allocation
_NO_ENUMERATION = (
    "import sys\n"
    "from isoclass import cli, enumeration\n"
    "def boom(*args):\n"
    "    raise AssertionError('enumerated past the ceiling')\n"
    "enumeration.group_structure = enumeration.sylow_basis = boom\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("argv", [
    ["oracle", "1009:1,1", "1009:1,1", "--kmax", "3"],
    ["oracle", "2003:1,1", "2003:1,1", "--kmax", "2"],
    ["oracle", "1000003:1,1", "1000003:1,1", "--kmax", "2"],
], ids=["1009^3", "2003^2", "1000003^2"])
def test_oracle_huge_bound_exits_5(argv):
    run = _run_python("-c", _NO_ENUMERATION, *argv, timeout=30)
    assert run.returncode == 5, run.stderr
    assert "enumeration ceiling" in run.stderr


def test_oracle_disagreement_exits_6(monkeypatch, capsys):
    # a prediction flipped at k = 2 is a disagreement: the report is written
    # as before, flagged, and the exit code is 6 in text and in --json
    pattern_eval = cli.pattern_eval
    monkeypatch.setattr(cli, "pattern_eval", lambda pattern, k: pattern_eval(pattern, k) != (k == 2))
    argv = ["oracle", "5:1,1", "5:1,4", "--kmax", "4"]
    assert main(argv) == cli.DISAGREEMENT_EXIT == 6
    out = capsys.readouterr().out
    assert out.count("<< DISAGREEMENT") == 1 and out.endswith("DISAGREEMENT FOUND\n")
    assert main(argv + ["--json"]) == 6
    assert [row["agree"] for row in json.loads(capsys.readouterr().out)["oracle"]] == [True, False, True, True]
    monkeypatch.setattr(cli, "pattern_eval", pattern_eval)
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("oracle and pattern agree for every k\n")


# runs the CLI in a fresh interpreter and prints its own peak RSS (VmHWM,
# KiB) as the last line of stderr; ru_maxrss would carry the RSS of the
# process that started it across execve
_OWN_PEAK_RSS = (
    "import sys\n"
    "from isoclass import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "with open('/proc/self/status') as status:\n"
    "    print(next(l.split()[1] for l in status if l.startswith('VmHWM:')), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_oracle_memory_at_the_ceiling():
    # the worst inputs under ENUM_BOUND, both curves listed in each: q^k =
    # 1999^2, the largest extension field under the 4e6 ceiling, where the
    # listing reads one x per Frobenius orbit, and the prime field 3999971,
    # where it reads every x in a single column and the table build keeps
    # the logs of the p constants too.  Measured on a 2-core x86-64 Linux
    # host: 0.35 s and 46 MiB VmHWM, and 0.41 s and 60 MiB; the limits are
    # 30 s and the peak plus 25 MiB
    for argv, ceiling_mib in (
        (["oracle", "1999:1,1", "1999:1,1", "--kmax", "2", "--json"], 71),
        (["oracle", "3999971:1,1", "3999971:1,1", "--kmax", "1", "--json"], 85),
    ):
        run = _run_python("-c", _OWN_PEAK_RSS, *argv, timeout=30)
        assert run.returncode == 0, run.stderr
        rows = json.loads(run.stdout)["oracle"]
        assert len(rows) == int(argv[4]) and all(row["agree"] is True for row in rows)
        peak_kib = int(run.stderr.splitlines()[-1])
        assert peak_kib < ceiling_mib * 1024, (argv, peak_kib)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_pattern_json_memory_at_the_allowed_limit():
    # modulus 999982 lists 999980 residues, 15.9 MB of stdout, written a
    # block at a time: under 40 MiB (about 17 MiB on x86-64 Linux; 101 MiB
    # when the list was joined and spliced whole), and the same bytes
    run = _run_python("-c", _OWN_PEAK_RSS, *_JSON_CASES["modulus 999982"], "--json")
    assert run.returncode == 0, run.stderr
    stdout = run.stdout.encode()
    assert len(stdout) == 15889080
    assert hashlib.sha256(stdout).hexdigest() == (
        "d22595ccb3eaa174b50011c2c50d520970d073a0bab14f3fb01de800c79c2562"
    )
    peak_kib = int(run.stderr.splitlines()[-1])
    assert peak_kib < 40 * 1024, peak_kib


def test_compare_disagreement_exits_6(monkeypatch, capsys):
    # a prediction flipped at k = 3 disagrees with the gcd test there: the
    # per-k table is written as before, in text and in --json, and the exit
    # code is 6; with no --kmax there is no table to disagree
    argv = ["compare", "3329:49,0", "3329:1,98", "--kmax", "4"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert main(argv + ["--json"]) == 0
    report = capsys.readouterr().out
    pattern_eval = cli.pattern_eval
    monkeypatch.setattr(cli, "pattern_eval", lambda pattern, k: pattern_eval(pattern, k) != (k == 3))
    assert main(argv) == cli.DISAGREEMENT_EXIT == 6
    assert capsys.readouterr().out == text
    assert main(argv + ["--json"]) == 6
    assert capsys.readouterr().out == report
    assert main(argv[:3]) == 0
    capsys.readouterr()


def test_compare_kmax_ceiling(monkeypatch, capsys):
    # q = 3329 has 12 bits: kmax 1666 is the largest accepted; the gcd test
    # is stubbed by the pattern's own answers, since only the ceiling is
    # under test here and a table that disagrees exits 6
    def gcd_table(inp, kmax):
        pattern = iso_pattern(inp)
        return [pattern_eval(pattern, k) for k in range(1, kmax + 1)]

    monkeypatch.setattr(cli, "gcd_table", gcd_table)
    assert KMAX_BITS_LIMIT == 20000
    assert main(["compare", "3329:49,0", "3329:1,98", "--kmax", "1666", "--json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["per_k"]) == 1666
    assert main(["compare", "3329:49,0", "3329:1,98", "--kmax", "1667"]) == 5
    assert "exceeds 20000" in capsys.readouterr().err


def test_compare_huge_kmax_exits_5():
    run = _run_module("compare", "3329:49,0", "3329:1,98", "--kmax", "20000", timeout=30)
    assert run.returncode == 5, run.stderr
    assert "exceeds 20000" in run.stderr


def test_usage_error_is_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_main_builds_no_parser(monkeypatch, capsys):
    # the parser is built once, when the module loads; main only parses
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["pattern", "--q", "1031", "--trace", "-20", "--g", "7", "--g2", "2"]) == 0
    assert main(["analyze", "5:1,1", "--json"]) == 0
    assert main(["frobnicate"]) == 2
    assert built == []
    capsys.readouterr()


def test_pattern_and_compare_agree(example, capsys):
    # pattern on a pair's raw (q, t, g, g') data reports what compare
    # derives from the two curves: the same blocks, and the same text after
    # compare's three header lines
    for i, j in itertools.combinations(range(len(example.curves)), 2):
        specs = [f"{example.q}:{a},{b}" for a, b in (example.curves[i], example.curves[j])]
        raw = ["--q", str(example.q), "--trace", str(example.t)]
        raw += ["--g", str(example.conductors[i]), "--g2", str(example.conductors[j])]
        reports, texts = [], []
        for argv in (["compare", *specs], ["pattern", *raw]):
            assert main(argv + ["--json"]) == 0, argv
            reports.append(json.loads(capsys.readouterr().out))
            assert main(argv) == 0, argv
            texts.append(capsys.readouterr().out.splitlines())
        for key in ("frobenius", "conductors", "primes", "pattern"):
            assert reports[0][key] == reports[1][key], (specs, key)
        assert texts[0][3:] == texts[1], specs


# curve-spec field sizes: small primes, the sweep's last primes around 229,
# 1999^2 < ENUM_BOUND < 2003^2, prime powers and composites, a prime above
# COUNT_BOUND and a 1000-digit prime
_FUZZ_SPEC_Q = [
    2, 3, 5, 7, 13, 97, 227, 229, 233, 1031, 1999, 2003, 3329, 9, 25, 15, 1062961,
    curve.COUNT_BOUND + 3, 10**999 + 7,
]
# pattern --q: small, prime-power and composite q, q with a factor above
# 10^6 of b, the 256-bit ceiling on both sides, and 1000-digit q
_FUZZ_PATTERN_Q = [
    0, 1, 2, 3, 4, 5, 8, 9, 15, 27, 1031, 3329, 1062961, 999966001733, 24750000346500001213,
    2**PATTERN_Q_BITS - 1, 2**PATTERN_Q_BITS, 10**999, 10**999 + 7,
]
_FUZZ_BAD_SPECS = ["", "5", "5:1", "5:1,1,1", "x:1,1", "5:a,1", "-5:1,1", "5:1;1", "5:0,0", "5:0,1"]


def _fuzz_spec(rng, q):
    if rng.random() < 0.15:
        return rng.choice(_FUZZ_BAD_SPECS)
    if q > 10**6:
        return f"{q}:{rng.randrange(10**6)},1"
    return f"{q}:{rng.randrange(-q, 2 * q)},{rng.randrange(q)}"


def _fuzz_kmax(rng, near):
    """A --kmax: negative, 0, small, around near (the largest the ceiling
    lets through) or huge."""
    return str(rng.choice([-(10**30), -1, 0, 1, 2, 3, near - 1, near, near + 1, 10**30, 10**999]))


def _fuzz_argv(rng) -> list[str]:
    command = rng.choice(["analyze", "compare", "pattern", "oracle"])
    if command == "pattern":
        q = rng.choice(_FUZZ_PATTERN_Q)
        w = math.isqrt(4 * q)
        t = rng.choice([0, 1, -1, 2, rng.randrange(-w - 2, w + 3), w, w + 1, 10**40])
        g = [1, 2, 3, 4, 5, 7, 13, 25, 0, -1, 999983, 10**40]
        argv = [command, "--q", str(q), "--trace", str(t), "--g", str(rng.choice(g)), "--g2", str(rng.choice(g))]
    else:
        q = rng.choice(_FUZZ_SPEC_Q)
        argv = [command, _fuzz_spec(rng, q)]
        if command != "analyze":
            argv.append(argv[1] if rng.random() < 0.3 else _fuzz_spec(rng, q))
        if command == "compare" and rng.random() < 0.7:
            argv += ["--kmax", _fuzz_kmax(rng, KMAX_BITS_LIMIT // q.bit_length())]
        elif command == "oracle":
            k = 1
            while q ** (k + 1) <= curve.ENUM_BOUND:
                k += 1
            argv += ["--kmax", _fuzz_kmax(rng, k)]
    if rng.random() < 0.5:
        argv.append("--json")
    if rng.random() < 0.05:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--bogus", "-h", "--kmax", "7"]))
    return argv


# answers each argv list read from stdin through cli.main, and writes
# [exit code or traceback, stderr] for each
_FUZZ_CHILD = (
    "import contextlib, io, json, sys, traceback\n"
    "from isoclass import cli\n"
    "results = []\n"
    "for argv in json.load(sys.stdin):\n"
    "    err = io.StringIO()\n"
    "    try:\n"
    "        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
    "            code = cli.main(argv)\n"
    "    except Exception:\n"
    "        code = traceback.format_exc()\n"
    "    results.append([code, err.getvalue()])\n"
    "json.dump(results, sys.stdout)\n"
)


def test_cli_fuzz_seeded():
    # seeded argv over the four subcommands, all answered in one process
    # under one timeout: each ends in a documented exit code, with no
    # traceback, and the draws reach every code
    rng = random.Random(25)
    draws = [_fuzz_argv(rng) for _ in range(1000)]
    run = _run_python("-c", _FUZZ_CHILD, input=json.dumps(draws), timeout=30)
    assert run.returncode == 0, run.stderr
    results = json.loads(run.stdout)
    assert len(results) == len(draws)
    for argv, (code, err) in zip(draws, results):
        assert code in (0, 2, 3, 4, 5) and "Traceback" not in err, (argv, code, err)
    assert {code for code, _ in results} == {0, 2, 3, 4, 5}


# the commands of the README's fenced code blocks, one per line
_README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
_README_COMMANDS = [
    line.split()[1:]
    for block in _README.read_text(encoding="utf-8").split("```")[1::2]
    for line in block.splitlines()
    if line.startswith("isoclass ")
]


def test_readme_commands_run():
    # every documented example runs as `python -m isoclass` and exits 0, and
    # with --json prints a report that parses
    assert [argv[0] for argv in _README_COMMANDS] == ["analyze", "compare", "pattern", "oracle"]
    for argv in _README_COMMANDS:
        run = _run_module(*argv)
        assert run.returncode == 0, (argv, run.stderr)
        run = _run_module(*argv, "--json")
        assert run.returncode == 0, (argv, run.stderr)
        json.loads(run.stdout)
