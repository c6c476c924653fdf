"""Per-layer call statistics for the traced benchmark run.

The tracer times the package's layers from outside the package: it
replaces a module attribute with a wrapper that counts calls and adds up
busy time (inclusive) and self time (busy time minus the time spent in
other wrapped calls made inside it).  Modules import functions by name,
so a function is replaced in every module where its callers look it up;
``eco.is_in_class`` and ``paths.is_in_class`` feed one statistic.

Calls such as ``eco.children`` run close to a million times in one
workload, so nothing is recorded per call: each wrapper updates its
aggregate in memory, and the caller reads the totals with
:func:`layer_metrics` after the run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Stat:
    """Aggregate of one wrapped function: calls, busy and self seconds.

    ``items`` is a function-specific count (paths returned, rule steps
    run, ...) and ``keys`` maps a call key to the largest size requested
    with it; both are filled by the function's hook.
    """

    __slots__ = ("calls", "busy", "self_time", "items", "keys")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.items = 0
        self.keys: dict = {}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_len(stat, args, kwargs, result):
    stat.items += len(result)


def _count_paths(stat, args, kwargs, result):
    stat.items += sum(result)


def _count_rule_steps(stat, args, kwargs, result):
    params, n = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "n")
    stat.items += n
    key = (params.h, params.k)
    stat.keys[key] = max(stat.keys.get(key, 0), n)


def _count_solved(stat, args, kwargs, result):
    params, order = _arg(args, kwargs, 0, "params"), _arg(args, kwargs, 1, "order")
    stat.items += (order + 1) * len(result)
    stat.keys[(params.h, params.k, order)] = order


def _targets(cli, eco, identity, oracle, paths, series):
    """(statistic, module, attribute, hook) for every wrapped name."""
    return [
        ("cli", cli, "main", None),
        ("eco.children", eco, "children", _count_len),
        ("eco.generate", eco, "generate", _count_len),
        ("eco.label_of", eco, "label_of", None),
        ("eco.rule_counts", eco, "rule_counts", _count_rule_steps),
        ("paths.is_in_class", eco, "is_in_class", None),
        ("paths.is_in_class", paths, "is_in_class", None),
        ("paths.height", cli, "height", None),
        ("paths.parse_path", oracle, "parse_path", None),
        ("paths.catalan", identity, "catalan", None),
        ("oracle.brute_counts_upto", oracle, "brute_counts_upto", _count_paths),
        ("oracle.enumerate_dyck", oracle, "enumerate_dyck", _count_len),
        ("series.f_series", series, "f_series", None),
        ("series.solve_series", series, "solve_series", _count_solved),
        ("identity.catalan_recurrence_check", identity, "catalan_recurrence_check", None),
    ]


class Tracer:
    """Wraps the package's layer functions while :meth:`installed` is active."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        # One entry per active wrapped call: seconds spent in wrapped callees.
        self._inner: list[float] = []

    def _wrap(self, stat: Stat, fn, hook):
        inner = self._inner
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            inner.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.calls += 1
                stat.busy += dt
                stat.self_time += dt - inner.pop()
                if inner:
                    inner[-1] += dt
            if hook is not None:
                hook(stat, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, cli, eco, identity, oracle, paths, series):
        """Replace every target attribute that exists; restore them on exit."""
        saved = []
        try:
            for name, module, attr, hook in _targets(cli, eco, identity, oracle, paths, series):
                stat = self.stats.setdefault(name, Stat())
                if not hasattr(module, attr):
                    continue  # the layer no longer has this function
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(stat, fn, hook))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics: name -> (unit, value from the stats and CLI stdout bytes).
# A layer that does not run on a workload reports 0 calls and 0.0 s.
PER_LAYER = {
    "eco.children.calls": ("count", lambda s, b: s["eco.children"].calls),
    "eco.children.emitted": ("count", lambda s, b: s["eco.children"].items),
    "eco.children.busy_s": ("s", lambda s, b: s["eco.children"].busy),
    "eco.children.self_s": ("s", lambda s, b: s["eco.children"].self_time),
    "oracle.brute_counts_upto.calls": ("count", lambda s, b: s["oracle.brute_counts_upto"].calls),
    "oracle.brute_counts_upto.busy_s": ("s", lambda s, b: s["oracle.brute_counts_upto"].busy),
    "oracle.paths_counted": ("count", lambda s, b: s["oracle.brute_counts_upto"].items),
    "paths.is_in_class.calls": ("count", lambda s, b: s["paths.is_in_class"].calls),
    "paths.is_in_class.busy_s": ("s", lambda s, b: s["paths.is_in_class"].busy),
    "eco.generate.paths": ("count", lambda s, b: s["eco.generate"].items),
    "eco.generate.busy_s": ("s", lambda s, b: s["eco.generate"].busy),
    "eco.label_of.calls": ("count", lambda s, b: s["eco.label_of"].calls),
    "eco.label_of.busy_s": ("s", lambda s, b: s["eco.label_of"].busy),
    "eco.label_of.self_s": ("s", lambda s, b: s["eco.label_of"].self_time),
    "paths.height.calls": ("count", lambda s, b: s["paths.height"].calls),
    "paths.height.busy_s": ("s", lambda s, b: s["paths.height"].busy),
    "cli.self_s": ("s", lambda s, b: s["cli"].self_time),
    "cli.stdout_bytes": ("bytes", lambda s, b: b),
    "oracle.enumerate_dyck.paths": ("count", lambda s, b: s["oracle.enumerate_dyck"].items),
    "oracle.enumerate_dyck.busy_s": ("s", lambda s, b: s["oracle.enumerate_dyck"].busy),
    "paths.parse_path.calls": ("count", lambda s, b: s["paths.parse_path"].calls),
    "paths.parse_path.busy_s": ("s", lambda s, b: s["paths.parse_path"].busy),
    "eco.rule_counts.calls": ("count", lambda s, b: s["eco.rule_counts"].calls),
    "eco.rule_counts.steps": ("count", lambda s, b: s["eco.rule_counts"].items),
    "eco.rule_counts.busy_s": ("s", lambda s, b: s["eco.rule_counts"].busy),
    # Steps a caller needs (the largest n it asks for, per (h, k)) over steps run.
    "eco.rule_counts.step_yield": ("ratio", lambda s, b: _ratio(
        sum(s["eco.rule_counts"].keys.values()), s["eco.rule_counts"].items)),
    "series.f_series.calls": ("count", lambda s, b: s["series.f_series"].calls),
    "series.f_series.busy_s": ("s", lambda s, b: s["series.f_series"].busy),
    "series.solve_series.calls": ("count", lambda s, b: s["series.solve_series"].calls),
    "series.solve_series.busy_s": ("s", lambda s, b: s["series.solve_series"].busy),
    # Calls per distinct (h, k, order).
    "series.solve_series.repeat_ratio": ("ratio", lambda s, b: _ratio(
        s["series.solve_series"].calls, len(s["series.solve_series"].keys))),
    # Component coefficients solved: (order + 1) * h per call.
    "series.coefficients": ("count", lambda s, b: s["series.solve_series"].items),
    "identity.catalan_recurrence_check.calls": (
        "count", lambda s, b: s["identity.catalan_recurrence_check"].calls),
    "identity.catalan_recurrence_check.busy_s": (
        "s", lambda s, b: s["identity.catalan_recurrence_check"].busy),
    "identity.catalan_recurrence_check.self_s": (
        "s", lambda s, b: s["identity.catalan_recurrence_check"].self_time),
    "paths.catalan.calls": ("count", lambda s, b: s["paths.catalan"].calls),
    "paths.catalan.busy_s": ("s", lambda s, b: s["paths.catalan"].busy),
    "paths.catalan.calls_per_check": ("ratio", lambda s, b: _ratio(
        s["paths.catalan"].calls, s["identity.catalan_recurrence_check"].calls)),
}


def layer_metrics(stats: dict[str, Stat], stdout_bytes: int) -> dict[str, float]:
    """Every per-layer metric of one traced run (``trace.overhead_s`` aside)."""
    return {name: fn(stats, stdout_bytes) for name, (_unit, fn) in PER_LAYER.items()}
