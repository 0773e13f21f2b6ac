"""Self-test of the benchmark's checkers: each must pass the program's real
answer on a few cheap seeded cases and reject a deliberately corrupted copy.

    python3 bench/selftest.py

Exits 0 when every corruption is rejected, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import isoclass.cli  # noqa: E402
import workloads  # noqa: E402


def _set(path, fn):
    """A corruption that replaces report[path...] by fn(old value)."""
    def mutate(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = fn(node[path[-1]])
    return mutate


def _flip_residue(report):
    pat = report["pattern"]
    r = str(1 % int(pat["modulus"]))
    allowed = set(pat["allowed"]) ^ {r}
    pat["allowed"] = sorted(allowed, key=int)


def _inc(x):
    return str(int(x) + 1)


# workload, case label prefix, [(what, corruption)]
CORRUPTIONS = [
    ("analyze", "analyze q=", [
        ("wrong count", _set(["input", "count"], lambda c: str(int(c) + 2))),
        ("wrong n1", _set(["input", "structure", 0], lambda n: str(2 * int(n)))),
        ("wrong b", _set(["frobenius", "b"], _inc)),
    ]),
    ("analyze", "analyze l=11 generic", [
        ("wrong conductor", _set(["conductors", 0], lambda g: "1")),
    ]),
    ("analyze", "worked q=1031 t=-20 E0-E3", [
        ("wrong conductor", _set(["conductors", 1], lambda g: "1")),
        ("flipped residue", _flip_residue),
        ("wrong text", _set(["pattern", "text"], lambda s: "3 ∤ k")),
    ]),
    ("pattern", "pattern p=1009", [
        ("flipped residue", _flip_residue),
        ("wrong modulus", _set(["pattern", "modulus"], lambda m: str(2 * int(m)))),
        ("wrong a", _set(["frobenius", "a"], _inc)),
    ]),
    ("pattern", "pattern even_nasty", [("flipped residue", _flip_residue)]),
    ("pattern", "pattern four conditions", [("flipped residue", _flip_residue)]),
    ("pattern", "compare --kmax 300 worked", [
        ("flipped per-k verdict", _set(["per_k", 11, "iso"], lambda v: not v)),
    ]),
    ("oracle", "oracle q=13", [
        ("wrong count", _set(["input", "count"], _inc)),
        ("wrong n1", _set(["oracle", 2, "a", 0], _inc)),
        ("wrong 'agree'", _set(["oracle", 0, "predicted"], lambda v: not v)),
        ("flipped residue", _flip_residue),
    ]),
]


def report(case: dict) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = isoclass.cli.main(case["argv"] + ["--json"])
    if rc != 0:
        raise RuntimeError(f"{case['label']}: exit {rc}")
    return json.loads(out.getvalue())


def main() -> int:
    bad = 0
    cases = {name: gen(1) for name, gen in workloads.WORKLOADS.items()}
    for workload, prefix, corruptions in CORRUPTIONS:
        case = next(c for c in cases[workload] if c["label"].startswith(prefix))
        check = checks.CHECKS[case["kind"]]
        good = report(case)
        check(case, good)
        for what, corrupt in corruptions:
            rep = copy.deepcopy(good)
            corrupt(rep)
            try:
                check(case, rep)
            except checks.CheckError as exc:
                print(f"rejected  {case['label']}: {what} ({exc})")
            else:
                print(f"ACCEPTED  {case['label']}: {what}")
                bad += 1
    print("selftest:", "FAIL" if bad else "all corruptions rejected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
