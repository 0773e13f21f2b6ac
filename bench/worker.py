"""Runs the benchmark's CLI cases in rounds, in a process of its own.

run.py passes one JSON job as the only argument: {"cases": [[label, argv], ...],
"seconds": s, "trace": 0 or 1, "cpu": the CPU to pin the process to,
"calib": the kind of calibration chunk}.  Each round calls
isoclass.cli.main(argv + ["--json"]) once per case, in order, and times the
call.  Before every call the lru_caches of the isoclass modules are
cleared, so each repeat pays what a fresh CLI process pays, and a
calibration chunk (calib.py) is timed; one more chunk ends the round.
Rounds repeat until another round would end after `seconds`.  With trace
1, every second round runs with the public functions of each module
wrapped (see LAYERS), which records calls, self time and work per
function.

The result goes to stdout as one JSON object.  The process holds nothing
but the program and its outputs, so its peak RSS is the program's.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import isoclass  # noqa: E402
import isoclass.cli  # noqa: E402
import isoclass.enumeration  # noqa: E402


def _psi_degree(c: int) -> int:
    return (c * c - 1) // 2 if c % 2 else (c * c - 4) // 2


# metric prefix -> (module, attribute, work per call from (args, result))
LAYERS = {
    "curve.count_points": ("isoclass.curve", "Curve.count_points", lambda a, r: a[0].ctx.p),
    "endoring.conductor": ("isoclass.endoring", "conductor", None),
    "endoring.scalar_action_test": (
        "isoclass.endoring", "scalar_action_test", lambda a, r: _psi_degree(a[2])),
    "endoring.division_polys": ("isoclass.endoring", "division_polys", None),
    "field.poly_mul": ("isoclass.field", "poly_mul", None),
    "field.poly_divmod": ("isoclass.field", "poly_divmod", None),
    "field.poly_powmod": ("isoclass.field", "poly_powmod", None),
    "field.poly_invmod": ("isoclass.field", "poly_invmod", None),
    "quadorder.frobenius_from_trace": ("isoclass.quadorder", "frobenius_from_trace", None),
    "quadorder.factorize": ("isoclass.quadorder", "factorize", None),
    "quadorder.mult_order": ("isoclass.quadorder", "mult_order", None),
    "isomorphy.iso_pattern": ("isoclass.isomorphy", "iso_pattern", lambda a, r: r.modulus),
    "isomorphy.prime_set": ("isoclass.isomorphy", "prime_set", None),
    "isomorphy.gcd_criterion": ("isoclass.isomorphy", "gcd_criterion", None),
    "cli.pattern_text": ("isoclass.cli", "pattern_text", None),
    "cli.main": ("isoclass.cli", "main", None),
    "enumeration.group_structure": (
        "isoclass.enumeration", "group_structure", lambda a, r: r.n1 * r.n2),
}


def _modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "isoclass"]


class Tracer:
    """Wraps each LAYERS function in every isoclass namespace that holds it.

    Self time is a call's duration minus the time spent in wrapped calls
    made from inside it.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []
        self._patches = []
        for name, (modname, attr, work) in LAYERS.items():
            owner = sys.modules[modname]
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, last)
            wrapper = self._wrap(name, original, work)
            if path:
                self._patches.append((owner, last, original, wrapper))
                continue
            for mod in _modules():
                for key, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def _wrap(self, name, fn, work):
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                stat[0] += 1
                stat[1] += dt - inner
            if work is not None:
                stat[2] += work(args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def remove(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def take(self) -> dict:
        """Stats since the last take, as {name: [calls, self_s, work]}."""
        out = {k: list(v) for k, v in self.stats.items() if v[0]}
        for v in self.stats.values():
            v[:] = [0, 0.0, 0]
        return out


def _caches() -> list:
    seen = {}
    for mod in _modules():
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                seen[id(value)] = value
    return list(seen.values())


PARENT = os.getppid()


def run_round(cases, caches, tracer, outputs, kind) -> dict:
    times, rcs, layers, same, chunks = [], [], [], [], []
    for i, (_, argv) in enumerate(cases):
        if os.getppid() != PARENT:
            sys.exit("worker: run.py has ended")
        for cache in caches:
            cache.cache_clear()
        gc.collect()
        chunks.append(calib.chunk(kind))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = isoclass.cli.main(argv + ["--json"])
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                rc = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        times.append(dt)
        rcs.append(rc if rc == 0 else f"{rc}: {err.getvalue().strip()[-300:]}")
        if len(outputs) <= i:
            outputs.append(out.getvalue())
        same.append(outputs[i] == out.getvalue())
        if tracer is not None:
            layers.append(tracer.take())
    chunks.append(calib.chunk(kind))
    return {"times": times, "chunks": chunks, "rcs": rcs, "same": same,
            "traced": tracer is not None, "layers": layers}


def main() -> int:
    job = json.loads(sys.argv[1])
    cases, seconds, trace, kind = job["cases"], job["seconds"], job["trace"], job["calib"]
    os.sched_setaffinity(0, {job["cpu"]})
    for _ in range(3):  # warm-up: lazy tables, caches, the CPU's clock
        calib.chunk(kind)
    caches = _caches()
    tracer = Tracer() if trace else None
    want = 4 if trace else 3  # rounds wanted even past `seconds`
    hard = 3 * seconds  # no new round after this, however few have run
    rounds, outputs = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            rounds.append(run_round(cases, caches, tracer if traced else None, outputs, kind))
        finally:
            if traced:
                tracer.remove()
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(rounds)
        if elapsed + per_round > seconds and (len(rounds) >= want or elapsed + per_round > hard):
            if not trace or len(rounds) >= 2:
                break
    json.dump({
        "rounds": rounds,
        "outputs": outputs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
