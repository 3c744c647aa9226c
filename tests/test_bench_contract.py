"""The names the benchmark harness in `benchmarks/` reads from vrank.

`tracer.Instrumentation()` raises when a traced function no longer resolves
or a reference to one is left unwrapped, so a rename that would break traced
benchmark runs fails here.  Nothing under `benchmarks/` is edited.
"""

import importlib.util
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_wrap():
    tracer = _load("tracer")
    instrumentation = tracer.Instrumentation()
    try:
        assert len(instrumentation.installed) == len(tracer.TARGETS)
    finally:
        instrumentation.restore()


def _start_cold():
    """Empty the family caches that live for the whole process, as a benchmark
    repetition starts in a fresh worker: slices and counts cached by earlier
    tests would hide the calls that a cold run makes."""
    from vrank import families

    families._component_slice.cache_clear()
    families._COUNTS.clear()


def test_traced_roundtrip_reaches_every_expected_layer():
    # a traced run fails when a layer its workload must use records no calls;
    # the memoized bijection kernels must still leave partition calls behind,
    # and the staircase component slices format_element calls
    run = _load("run")
    tracer = _load("tracer")
    workloads = _load("workloads")
    _start_cold()
    instrumentation = tracer.Instrumentation()
    try:
        tally = workloads.roundtrip("small")
    finally:
        instrumentation.restore()
    assert tally.attempted > 0 and tally.failed == 0
    layers = instrumentation.layer_metrics()
    for key in run.EXPECTED_CALLS["roundtrip"]:
        assert layers[key] > 0, key
    assert layers["bijections.roundtrip_failed"] == 0


def test_traced_verify_reaches_every_expected_layer():
    # o_hat memoizes its shift, but must still classify every tuple it moves:
    # orbits.case1_frac is read off those classify_case calls
    run = _load("run")
    tracer = _load("tracer")
    workloads = _load("workloads")
    _start_cold()
    instrumentation = tracer.Instrumentation()
    try:
        tally = workloads.verify("small")
    finally:
        instrumentation.restore()
    assert tally.attempted > 0 and tally.failed == 0
    layers = instrumentation.layer_metrics()
    for key in run.EXPECTED_CALLS["verify"]:
        assert layers[key] > 0, key
    assert instrumentation.counts["orbits.cases"] == layers["orbits.o_hat_calls"]
    assert 0 < layers["orbits.case1_frac"] < 1
    # slice texts are joined from run texts: no element is formatted to be sorted
    assert layers["families.format_calls"] == 0
    assert layers["bijections.roundtrip_failed"] == 0


def test_workloads_read_cli_and_families():
    workloads = _load("workloads")
    assert workloads.verify_elements("small") > 0
