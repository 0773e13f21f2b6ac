"""The traced benchmark run wraps program functions by name (LAYERS in
bench/worker.py).  Building its Tracer resolves every one of those names
without installing anything, so a rename or removal in the package that
would break the traced run fails here."""

import importlib.util
import pathlib


def test_bench_tracer_resolves_every_layer():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "worker.py"
    spec = importlib.util.spec_from_file_location("bench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    worker.Tracer()
