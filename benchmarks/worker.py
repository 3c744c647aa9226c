"""One timed repetition of a workload, in the fresh interpreter it was started in.

    python3 benchmarks/worker.py WORKLOAD --size full|small [--trace] [--fault inverse]
    python3 benchmarks/worker.py --setup-only

Prints one JSON object: the set-up time (importing vrank and building the CLI
parser), the wall time of the workload body, its work count, its checks, the
peak RSS of this process, and with --trace the per-layer metrics.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def measure_setup() -> float:
    """Import vrank and build the CLI parser; nothing else the CLI needs
    (argparse, json) has been imported yet."""
    t0 = time.perf_counter()
    import vrank.cli

    vrank.cli.build_parser()
    return time.perf_counter() - t0


def inject_inverse_fault(every: int = 50) -> None:
    """Make every `every`-th inverse call return the previous call's result."""
    from vrank import bijections

    from tracer import rebind

    calls = [0, None]
    for name in ("lambda_pd_inv", "lambda_a_inv", "lambda_pod_inv"):
        original = getattr(bijections, name)

        def faulty(v, _original=original):
            calls[0] += 1
            right = _original(v)
            wrong, calls[1] = calls[1], right
            return wrong if calls[0] % every == 0 and wrong is not None else right

        rebind(original, faulty)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    setup_s = measure_setup()

    import argparse
    import json
    import resource

    ap = argparse.ArgumentParser()
    ap.add_argument("workload", nargs="?", choices=("roundtrip", "verify", "series"))
    ap.add_argument("--size", default="full", choices=("full", "small"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--fault", choices=("inverse",))
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if args.workload is None and not args.setup_only:
        ap.error("name a workload or pass --setup-only")

    out = {"setup_s": setup_s}
    if not args.setup_only:
        import workloads
        from tracer import Instrumentation

        if args.fault:
            inject_inverse_fault()
        inst = Instrumentation() if args.trace else None
        t0 = time.perf_counter()
        tally = workloads.WORKLOADS[args.workload](args.size)
        wall = time.perf_counter() - t0
        if inst is not None:
            inst.restore()
            out["layers"] = inst.layer_metrics()
            out["layers"]["trace.spans"] = inst.tracer.spans
        if args.workload == "verify":
            tally.items = workloads.verify_elements(args.size)
        out.update(
            wall_s=wall,
            items=tally.items,
            attempted=tally.attempted,
            failed=tally.failed,
            errors=tally.errors,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
