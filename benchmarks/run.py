"""vrank benchmark: one workload, each repetition in a fresh interpreter.

    python3 benchmarks/run.py --workload roundtrip|verify|series \\
        --seed N --seconds S --trace 0|1

A closed loop on one thread: the next repetition starts when the previous one
has ended, until S seconds have passed (at least three repetitions).  Every
repetition is a new process, so vrank's `lru_cache`s start cold, as they do
for one CLI call.  With --trace 0 the run reports the end-to-end metrics named
in BENCHMARK.json as medians over its repetitions.  With --trace 1 it
alternates untraced and traced repetitions and reports the per-layer metrics
(medians over the traced repetitions) and the tracing overhead (traced minus
untraced median wall time).  All inputs are exhaustive and fixed: --seed is
recorded, but no input depends on it.

The last line of stdout is the JSON result; the lines before it are the run's
provenance and a readable summary.  Exit code 0 means a result was printed,
whether or not its checks passed; `"correct": false` marks a failed check.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("roundtrip", "verify", "series")
RUN_LIMIT_S = 150  # a run must end well within 180 s, whatever --seconds says
MIN_REPS = 3
MIN_TRACED_ROUNDS = 2
SETUP_SAMPLES = 7

# Per-layer call counts that must be nonzero in a traced run of each workload.
EXPECTED_CALLS = {
    "roundtrip": (
        "partition.calls", "families.enumerate_calls", "families.format_calls",
        "bijections.forward_calls", "bijections.inverse_calls",
    ),
    "verify": (
        "partition.calls", "families.enumerate_calls", "families.count_calls",
        "bijections.forward_calls", "bijections.inverse_calls", "orbits.build_calls",
        "orbits.o_hat_calls", "series.build_calls", "cli.main_calls",
    ),
    "series": ("series.build_calls",),
}

# The readable name of items_per_s on each workload.
ITEMS_NAME = {"roundtrip": "elements_per_s", "verify": "elements_per_s", "series": "coeffs_per_s"}


# Fixed hashing, and bytecode caches written by the first worker and read by
# the rest, as they are for an installed CLI.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
WORKER_ENV["PYTHONHASHSEED"] = "0"


class RunError(Exception):
    """The benchmark cannot run here; no result is printed."""


def spawn(args: list[str], deadline: float) -> dict:
    """One fresh interpreter running worker.py; its JSON line, or {"error": ...}."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"error": "run time limit reached"}
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=WORKER_ENV,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker {args} timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    return json.loads(lines[-1])


def repeat(variants: list[list[str]], seconds: float, min_rounds: int,
           deadline: float) -> list[list[dict]]:
    """Run fresh workers back to back for `seconds`, at least min_rounds rounds.

    A round runs each variant once, so variants alternate and see the same
    machine conditions.  Returns the results of each variant."""
    out = [[] for _ in variants]
    t0 = time.monotonic()
    while (len(out[0]) < min_rounds or time.monotonic() - t0 < seconds) \
            and time.monotonic() < deadline:
        for args, results in zip(variants, out):
            results.append(spawn(args, deadline))
    return out


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vrank").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
        "seed_note": "inputs are exhaustive and fixed; no input depends on the seed",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="small inputs, for the benchmark's self-test")
    ap.add_argument("--fault", choices=("inverse",),
                    help="inject a wrong inverse, for the benchmark's self-test")
    args = ap.parse_args(argv)
    try:
        return run(args)
    except RunError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2


def run(args) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "vrank" / "__init__.py").is_file() or not spec_path.is_file():
        raise RunError(f"needs src/vrank and BENCHMARK.json under {ROOT}")
    spec = json.loads(spec_path.read_text())
    deadline = time.monotonic() + RUN_LIMIT_S

    print(json.dumps({"provenance": provenance(args.seed)}), flush=True)
    warm = spawn(["--setup-only"], deadline)  # also writes the bytecode caches
    if "error" in warm:
        raise RunError(warm["error"])

    rep_args = [args.workload, "--size", args.size]
    if args.fault:
        rep_args += ["--fault", args.fault]
    if args.trace:
        plain, traced = repeat([rep_args, rep_args + ["--trace"]], args.seconds,
                               MIN_TRACED_ROUNDS, deadline)
    else:
        (plain,), traced = repeat([rep_args], args.seconds, MIN_REPS, deadline), []

    attempted = failed = 0
    errors = []
    for r in plain + traced:
        if "error" in r:
            attempted, failed = attempted + 1, failed + 1
            errors.append(r["error"])
        else:
            attempted += r["attempted"]
            failed += r["failed"]
            errors += r["errors"]
    plain_ok = [r for r in plain if "error" not in r]
    traced_ok = [r for r in traced if "error" not in r]
    if not plain_ok or (args.trace and not traced_ok):
        raise RunError("no repetition completed: " + "; ".join(errors[:3]))

    setup = [r["setup_s"] for r in plain_ok]
    while len(setup) < SETUP_SAMPLES:
        sample = spawn(["--setup-only"], deadline)
        if "error" in sample:
            raise RunError(sample["error"])
        setup.append(sample["setup_s"])

    wall = statistics.median([r["wall_s"] for r in plain_ok])
    e2e = {
        "wall_s": wall,
        "items_per_s": statistics.median([r["items"] / r["wall_s"] for r in plain_ok]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain_ok]),
    }
    if args.trace:
        layers = {k: statistics.median([r["layers"][k] for r in traced_ok])
                  for k in traced_ok[0]["layers"]}
        layers["trace.overhead_s"] = statistics.median([r["wall_s"] for r in traced_ok]) - wall
        for key in EXPECTED_CALLS[args.workload]:
            for r in traced_ok:
                attempted += 1
                if r["layers"][key] == 0:
                    failed += 1
                    errors.append(f"traced {args.workload} made no {key}")
        metrics, listed = layers, spec["per_layer"]
    else:
        metrics, listed = e2e, spec["end_to_end"]
    if set(metrics) != {m["name"] for m in listed}:
        raise RunError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")

    fail_frac = failed / attempted
    print(f"workload {args.workload} (size {args.size}, seed {args.seed}; the inputs do not "
          f"depend on the seed): {len(plain)} untraced and {len(traced)} traced "
          f"repetitions, {len(setup)} set-up samples")
    readable = [
        ("wall_s", e2e["wall_s"], "s"),
        (ITEMS_NAME[args.workload], e2e["items_per_s"], "1/s"),
        ("setup_s", e2e["setup_s"], "s"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        ("fail_frac", fail_frac, f"({failed} of {attempted} checks failed)"),
    ]
    if args.trace:
        readable += [(m["name"], metrics[m["name"]], m["unit"]) for m in listed]
    for name, value, unit in readable:
        print(f"  {name:28s} {value:.6g} {unit}")
    for line in errors[:5]:
        print(f"check failed: {line}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
