"""The isoclass benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload analyze --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Set-up times the imports in fresh
interpreters and the generation of the workload's cases from the seed, seven
times each, each part scaled by calibration chunks (calib.py) run right
after it.  A worker process (worker.py) then answers every case through
isoclass.cli.main, in rounds, for about --seconds (one worker per CPU, at
most two).  A calibration chunk (calib.py) runs before every call and at
the end of every round, and each call's time is scaled by its round's mean
chunk to seconds at the reference host's speed, which cancels the slow
phases that shared hosts go through.  Each case's time is the median of its
scaled repeats.  Every answer is then checked with checks.py.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are end to end: solve_s (sum over cases of each
case's time), largest_case_s, setup_s and peak_rss_mb (the workers' peak
resident memory).  With --trace 1 they are the per-layer metrics listed in
BENCHMARK.json, summed over cases, each case taken from its median traced
round and scaled like the end-to-end times; the line before reports the
tracing overhead.  Results and traces are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
TIME_LIMIT = 170  # seconds for the whole run

CHUNKS_PER_SAMPLE = 3
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
    "import isoclass, isoclass.cli, isoclass.enumeration; d = time.perf_counter() - t; "
    "import calib; print(calib.calibrated(d, 'python', int(sys.argv[3])))"
)


def import_seconds() -> float:
    """Import time in a fresh interpreter, scaled by chunks run in that
    interpreter right after the import."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE), str(CHUNKS_PER_SAMPLE)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout)


def setup(workload: str, seed: int) -> tuple[list[dict], float]:
    """The median of SETUP_REPEATS set-ups, each scaled by the chunks run
    right after its two parts."""
    import_seconds()  # compiles the bytecode cache once, which no user pays per run
    samples = []
    for _ in range(SETUP_REPEATS):
        imports = import_seconds()
        t0 = time.perf_counter()
        cases = workloads.WORKLOADS[workload](seed)
        generate = calib.calibrated(time.perf_counter() - t0, "python", CHUNKS_PER_SAMPLE)
        samples.append(imports + generate)
    return cases, statistics.median(samples)


def solve(cases: list[dict], seconds: int, trace: int, kind: str, timeout: float) -> list[dict]:
    """Runs one worker per CPU (at most two), each pinned to its CPU, for
    twice the repeats.  Each worker's chunks follow its own CPU's speed."""
    cpus = sorted(os.sched_getaffinity(0))[:2]
    procs = []
    try:
        for cpu in cpus:
            job = {"cases": [[c["label"], c["argv"]] for c in cases],
                   "seconds": seconds, "trace": trace, "cpu": cpu, "calib": kind}
            procs.append(subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            ))
        deadline = time.perf_counter() + timeout
        results = []
        for proc in procs:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
            results.append(json.loads(out))
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def check(cases: list[dict], results: list[dict]) -> list[str]:
    errors = []
    rounds = [r for res in results for r in res["rounds"]]
    outputs = results[0]["outputs"]
    for i, case in enumerate(cases):
        if any(r["rcs"][i] != 0 for r in rounds):
            continue  # failed operations are counted, not checked
        if not all(r["same"][i] for r in rounds) or any(
            res["outputs"][i] != outputs[i] for res in results
        ):
            errors.append(f"{case['label']}: output differs between rounds")
            continue
        try:
            checks.CHECKS[case["kind"]](case, json.loads(outputs[i]))
        except (checks.CheckError, KeyError, ValueError, TypeError) as exc:
            errors.append(f"{case['label']}: {type(exc).__name__}: {exc}")
    return errors


def scaled(rnd: dict, i: int, kind: str) -> float:
    """Case i's time in round rnd, scaled by the mean calibration chunk of
    that round."""
    return calib.scale(rnd["times"][i], statistics.fmean(rnd["chunks"]), kind)


def typical(rounds: list[dict], traced: bool, kind: str) -> list[tuple[float, int]]:
    """Per case: (median scaled time, index of the round that has it) among
    rounds of one kind; of an even count, the lower middle one."""
    out = []
    for i in range(len(rounds[0]["times"])):
        ranked = sorted((scaled(r, i, kind), j) for j, r in enumerate(rounds) if r["traced"] == traced)
        out.append(ranked[(len(ranked) - 1) // 2])
    return out


def layer_metrics(rounds: list[dict], best: list[tuple[float, int]]) -> dict:
    totals: dict[str, list] = {name: [0, 0.0, 0] for name in LAYER_NAMES}
    for i, (t, j) in enumerate(best):
        factor = t / rounds[j]["times"][i]
        for name, (calls, self_s, work) in rounds[j]["layers"][i].items():
            tot = totals[name]
            tot[0] += calls
            tot[1] += self_s * factor
            tot[2] += work
    metrics = {}
    for name, (calls, self_s, work) in totals.items():
        for metric, unit in LAYER_METRICS[name]:
            if metric == "calls":
                value = calls
            elif metric == "self_s":
                value = self_s
            elif unit == "1/s":
                value = work / self_s if self_s else 0.0
            else:
                value = work
            metrics[f"{name}.{metric}"] = {"value": value, "unit": unit}
    return metrics


def _per_layer_from_manifest() -> dict[str, list[tuple[str, str]]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out: dict[str, list] = {}
    for m in spec["per_layer"]:
        layer, metric = m["name"].rsplit(".", 1)
        out.setdefault(layer, []).append((metric, m["unit"]))
    return out


LAYER_METRICS = _per_layer_from_manifest()
LAYER_NAMES = list(LAYER_METRICS)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through solve(), which stops the workers


def main() -> int:
    t_start = time.perf_counter()
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "isoclass" / "cli.py").is_file():
        print(f"error: no isoclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cases, setup_s = setup(args.workload, args.seed)
    timeout = TIME_LIMIT - 15 - (time.perf_counter() - t_start)
    kind = workloads.CALIBRATION[args.workload]
    results = solve(cases, args.seconds, args.trace, kind, timeout)
    rounds = [r for res in results for r in res["rounds"]]
    errors = check(cases, results)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    failures = [(c["label"], r["rcs"][i]) for r in rounds for i, c in enumerate(cases) if r["rcs"][i] != 0]
    for label, rc in sorted(set(failures)):
        print(f"failed: {label}: exit {rc}", file=sys.stderr)

    plain = typical(rounds, False, kind)
    solve_s = sum(t for t, _ in plain)
    largest = next(i for i, c in enumerate(cases) if c.get("largest"))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "calibration": kind,
        "chunks_s": [c for r in rounds for c in r["chunks"]],
        "setup_s": setup_s, "cases": [
            {"label": c["label"], "median_s": plain[i][0],
             "times_s": [r["times"][i] for r in rounds if not r["traced"]],
             "scaled_s": [scaled(r, i, kind) for r in rounds if not r["traced"]]}
            for i, c in enumerate(cases)
        ],
    }
    if args.trace:
        best = typical(rounds, True, kind)
        metrics = layer_metrics(rounds, best)
        traced_s = sum(t for t, _ in best)
        print(f"tracing overhead: {traced_s - solve_s:+.4f} s "
              f"(solve_s traced {traced_s:.4f} s, untraced {solve_s:.4f} s)")
        record["tracing_overhead_s"] = traced_s - solve_s
        record["layers_per_case"] = [
            {"label": c["label"], "traced_s": best[i][0], "layers": rounds[best[i][1]]["layers"][i]}
            for i, c in enumerate(cases)
        ]
    else:
        metrics = {
            "solve_s": {"value": solve_s, "unit": "s"},
            "largest_case_s": {"value": plain[largest][0], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_kb"] for r in results) / 1024, "unit": "MB"},
        }
    line = {
        "correct": not errors,
        "attempted": len(rounds) * len(cases),
        "failed": len(failures),
        "metrics": metrics,
    }
    record.update(line)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
