"""Span recording around vrank's public functions, installed from outside.

`Instrumentation()` replaces each public function listed in `TARGETS` by a wrapper
that records one span per call: its name, start, end and the span that was
open when it began.  Spans live in flat arrays in memory; self times are
computed once the workload ends.  vrank itself is not edited: the wrappers are
bound wherever a caller holds the function, which is every `vrank.*` module
attribute (so `from .partition import conjugate` bindings are covered), the
`PowerSeries` class, and the callables stored in `orbits._LAMBDAS`.
"""

import sys
import time
from array import array
from collections import Counter

# (module, attribute, layer group).  The group names the per-layer metric the
# function's calls and self time are added to.
TARGETS = (
    ("partition", "conjugate", "partition"),
    ("partition", "union", "partition"),
    ("partition", "scale2", "partition"),
    ("partition", "halve", "partition"),
    ("partition", "split_by_residue3", "partition"),
    ("partition", "count_residue3", "partition"),
    ("partition", "to_frobenius", "partition"),
    ("partition", "from_frobenius", "partition"),
    ("families", "enumerate_family", "families.enumerate"),
    ("families", "format_element", "families.format"),
    ("families", "count_family", "families.count"),
    ("bijections", "lambda_pd", "bijections.forward"),
    ("bijections", "lambda_a", "bijections.forward"),
    ("bijections", "lambda_pod", "bijections.forward"),
    ("bijections", "lambda_pd_inv", "bijections.inverse"),
    ("bijections", "lambda_a_inv", "bijections.inverse"),
    ("bijections", "lambda_pod_inv", "bijections.inverse"),
    ("orbits", "build_orbits", "orbits.build"),
    ("orbits", "o_hat", "orbits.o_hat"),
    ("orbits", "classify_case", "orbits.o_hat"),
    ("orbits", "tail_condition_holds", "orbits.tail_check"),
    ("series", "family_series", "series.build"),
    ("series", "build_series", "series.build"),
    ("series", "PowerSeries.mul", "series.mul"),
    ("series", "scan_congruence", "series.scan"),
    ("cli", "main", "cli"),
)


class Tracer:
    """Records (name, parent, start, end) for every call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def wrap(self, name, fn, observe=None, on_error=None):
        """Return a wrapper of fn recording a span per call.

        observe(parent_name, args, result) runs after the span is closed;
        on_error(exception) runs when the call raises."""
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack
        )
        names = self.names
        clock = time.perf_counter

        def span(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                if on_error is not None:
                    on_error(e)
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if observe is not None:
                p = parent[idx]
                observe(names[name_of[p]] if p >= 0 else None, args, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, and the
        inclusive seconds of calls not nested in a call of the same name."""
        n = len(self.name_of)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        covered = [0.0] * n
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "outer_s": 0.0}
               for name in self.names}
        # Children are appended after their parent, so walking backwards sees
        # every child before the parent it belongs to.
        for i in range(n - 1, -1, -1):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                covered[p] += dur
            row = out[self.names[name_of[i]]]
            row["calls"] += 1
            row["incl_s"] += dur
            row["self_s"] += dur - covered[i]
            if p < 0 or name_of[p] != name_of[i]:
                row["outer_s"] += dur
        return out

    @property
    def spans(self) -> int:
        return len(self.name_of)


class RoundTripWatch:
    """Checks each bijection call against the call that undoes it.

    When a call's argument is the very object the previous bijection call
    returned (inverse(forward(x)) or forward(inverse(v))), its result must
    equal the previous call's argument."""

    def __init__(self):
        self.last = None
        self.failed = 0

    def __call__(self, _parent, args, result):
        last = self.last
        if last is not None and last[0] is args[0]:
            self.failed += result != last[1]
            self.last = None
        else:
            self.last = (result, args[0])


def vrank_modules():
    return [m for name, m in sys.modules.items() if name == "vrank" or name.startswith("vrank.")]


def rebind(old, new) -> int:
    """Point every reference vrank callers hold to `old` at `new`; returns
    how many there were.  rebind(f, f) only counts them."""
    from vrank import orbits, series

    count = 0
    for mod in vrank_modules():
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
                count += 1
    if series.PowerSeries.__dict__.get("mul") is old:
        series.PowerSeries.mul = new
        count += 1
    for fam, triple in list(orbits._LAMBDAS.items()):
        if any(c is old for c in triple):
            orbits._LAMBDAS[fam] = tuple(new if c is old else c for c in triple)
            count += 1
    return count


def _resolve(module: str, attr: str):
    from vrank import series

    if attr == "PowerSeries.mul":
        return series.PowerSeries.__dict__["mul"]
    return getattr(sys.modules[f"vrank.{module}"], attr)


class Instrumentation:
    """Installs a span wrapper on every target; `restore()` takes them out."""

    def __init__(self):
        import vrank.cli  # noqa: F401  (every module that binds a target)
        from vrank import orbits

        self.tracer = Tracer()
        self.counts = Counter()
        self.watch = RoundTripWatch()
        self.groups: dict[str, str] = {}
        self.installed: list[tuple] = []
        observers = {
            "enumerate_family": self._enumerated,
            "build_orbits": self._built,
            "classify_case": self._classified,
            "family_series": self._series_built,
            "scan_congruence": self._scanned,
            "main": self._exited,
        }
        self.case1 = orbits.CASE1
        for module, attr, group in TARGETS:
            original = _resolve(module, attr)
            name = attr.rsplit(".", 1)[-1]
            observe = observers.get(name)
            if group.startswith("bijections."):
                observe = self.watch
            on_error = self._failed_build if name == "build_orbits" else None
            wrapper = self.tracer.wrap(name, original, observe, on_error)
            self.groups[name] = group
            if rebind(original, wrapper) == 0:
                raise RuntimeError(f"no caller holds vrank.{module}.{attr}")
            self.installed.append((original, wrapper))
        left = [o.__name__ for o, _ in self.installed if rebind(o, o)]
        if left:
            raise RuntimeError(f"references to unwrapped functions remain: {left}")

    def restore(self) -> None:
        for original, wrapper in reversed(self.installed):
            rebind(wrapper, original)
        self.installed.clear()

    # --- observers: counts taken where the work happens ---------------------

    def _enumerated(self, _parent, _args, result):
        self.counts["families.elements"] += len(result)

    def _built(self, _parent, _args, result):
        self.counts["orbits.orbits"] += len(result)

    def _failed_build(self, error):
        if "degenerate" in str(error):
            self.counts["orbits.degenerate"] += 1

    def _classified(self, _parent, _args, result):
        self.counts["orbits.cases"] += 1
        self.counts["orbits.case1"] += result == self.case1

    def _series_built(self, parent, _args, result):
        if parent != "family_series":
            self.counts["series.coeffs"] += len(result.coeffs)

    def _scanned(self, _parent, _args, result):
        self.counts["series.violations"] += len(result)

    def _exited(self, _parent, _args, result):
        self.counts["cli.exit_nonzero"] += result != 0

    # --- per-layer metrics --------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        per_name = self.tracer.totals()
        by_group: dict[str, dict[str, float]] = {}
        for name, row in per_name.items():
            g = by_group.setdefault(
                self.groups[name], {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "outer_s": 0.0}
            )
            for k, v in row.items():
                g[k] += v

        def calls(group):
            return by_group[group]["calls"]

        def self_s(group):
            return by_group[group]["self_s"]

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        c = self.counts
        fs = per_name["family_series"]
        return {
            "partition.calls": calls("partition"),
            "partition.self_s": self_s("partition"),
            "families.enumerate_calls": calls("families.enumerate"),
            "families.enumerate_s": self_s("families.enumerate"),
            "families.elements": c["families.elements"],
            "families.format_calls": calls("families.format"),
            "families.format_s": self_s("families.format"),
            "families.count_calls": calls("families.count"),
            "families.count_s": self_s("families.count"),
            "bijections.forward_calls": calls("bijections.forward"),
            "bijections.forward_s": self_s("bijections.forward"),
            "bijections.forward_per_s": rate(
                calls("bijections.forward"), by_group["bijections.forward"]["incl_s"]
            ),
            "bijections.inverse_calls": calls("bijections.inverse"),
            "bijections.inverse_s": self_s("bijections.inverse"),
            "bijections.inverse_per_s": rate(
                calls("bijections.inverse"), by_group["bijections.inverse"]["incl_s"]
            ),
            "bijections.roundtrip_failed": self.watch.failed,
            "orbits.build_calls": per_name["build_orbits"]["calls"],
            "orbits.build_s": self_s("orbits.build"),
            "orbits.orbits": c["orbits.orbits"],
            "orbits.o_hat_calls": per_name["o_hat"]["calls"],
            "orbits.o_hat_s": self_s("orbits.o_hat"),
            "orbits.case1_frac": rate(c["orbits.case1"], c["orbits.cases"]),
            "orbits.tail_check_s": self_s("orbits.tail_check"),
            "orbits.degenerate": c["orbits.degenerate"],
            "series.build_calls": fs["calls"],
            "series.build_s": self_s("series.build"),
            "series.mul_s": self_s("series.mul"),
            "series.scan_s": self_s("series.scan"),
            "series.coeffs": c["series.coeffs"],
            "series.coeffs_per_s": rate(c["series.coeffs"], fs["outer_s"]),
            "series.violations": c["series.violations"],
            "cli.main_calls": calls("cli"),
            "cli.self_s": self_s("cli"),
            "cli.exit_nonzero": c["cli.exit_nonzero"],
        }
