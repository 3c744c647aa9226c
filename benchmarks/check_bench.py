"""Self-test of the benchmark, at small sizes (about 15 s).

    python3 benchmarks/check_bench.py

The file name does not match pytest's `test_*.py` pattern, so the repository's
test suite does not collect it.  It checks that every workload, traced and
untraced, reports exactly the metrics BENCHMARK.json names, with their units;
that an injected wrong inverse makes the run fail its checks; and that the
benchmark refuses to run without the vrank sources.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [*SPEC["command"], "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is not None and "correct" not in result:
        result = None
    return proc.returncode, result


def check_metrics(workload: str, trace: int) -> None:
    code, result = bench("--workload", workload, "--trace", str(trace), "--size", "small")
    where = f"{workload} --trace {trace}"
    assert code == 0 and result is not None, f"{where}: exit {code}, no result"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0, (where, result)
    assert result["attempted"] >= 1, (where, result)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed], where
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (where, m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (where, got)
        if not trace:
            assert got["value"] > 0, (where, m["name"], got)


def check_fault(workload: str, trace: int) -> None:
    code, result = bench("--workload", workload, "--trace", str(trace), "--size", "small",
                         "--fault", "inverse")
    where = f"{workload} --trace {trace} --fault inverse"
    assert code == 0 and result is not None, f"{where}: exit {code}, no result"
    assert not result["correct"] and result["failed"] / result["attempted"] > 0, (where, result)
    if trace:
        assert result["metrics"]["bijections.roundtrip_failed"]["value"] > 0, where


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, result = bench("--workload", "series", "--trace", "0", cwd=Path(tmp))
    assert code != 0 and result is None, f"bare directory: exit {code}, result {result}"


def main() -> int:
    checks = [(check_metrics, w["name"], t) for w in SPEC["workloads"] for t in (0, 1)]
    checks += [(check_fault, "roundtrip", 0), (check_fault, "verify", 1)]
    checks += [(check_refuses_without_sources,)]
    failures = 0
    for fn, *args in checks:
        label = " ".join([fn.__name__, *map(str, args)])
        try:
            fn(*args)
            print(f"ok    {label}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL  {label}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
