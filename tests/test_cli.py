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

from isoclass import cli, curve, enumeration
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
        assert out == _stdlib_json(out), argv
        allowed[name] = json.loads(out)["pattern"]["allowed"]
    assert allowed["modulus 1"] == ["0"] and allowed["none"] == [] and allowed["k odd"] == ["1"]
    assert len(allowed["modulus 999982"]) == 999980  # all but 0 and 499991
    assert allowed["modulus 1000000006"] is None


def test_oracle_command(capsys):
    assert main(["oracle", "5:1,1", "5:1,4", "--kmax", "4", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    rows = out["oracle"]
    assert len(rows) == 4
    for row in rows:
        assert row["agree"] is True
        assert row["isomorphic"] == row["predicted"]


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


def _run_python(*args, timeout=60):
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=timeout,
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


# runs the CLI as a child of a fresh interpreter and prints the child's peak
# RSS (ru_maxrss, KiB on Linux) as the last line of stderr
_CHILD_PEAK_RSS = (
    "import resource, subprocess, sys\n"
    "code = subprocess.run([sys.executable, '-m', 'isoclass', *sys.argv[1:]]).returncode\n"
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB")
def test_oracle_memory_at_the_ceiling():
    # q^k = 1999^2 is the largest field under the 4e6 ceiling: both curves
    # are listed there within 220 MiB (about 160 MiB on x86-64 Linux)
    argv = ["oracle", "1999:1,1", "1999:1,1", "--kmax", "2", "--json"]
    run = _run_python("-c", _CHILD_PEAK_RSS, *argv, timeout=60)
    assert run.returncode == 0, run.stderr
    rows = json.loads(run.stdout)["oracle"]
    assert len(rows) == 2 and all(row["agree"] is True for row in rows)
    peak_kib = int(run.stderr.splitlines()[-1])
    assert peak_kib < 220 * 1024, peak_kib


def test_compare_kmax_ceiling(monkeypatch, capsys):
    # q = 3329 has 12 bits: kmax 1666 is the largest accepted; the gcd test
    # is stubbed, since only the ceiling is under test here
    monkeypatch.setattr(cli, "gcd_table", lambda inp, kmax: [True] * kmax)
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
