"""Runtime spans around the calls into every clroute module.

Nothing in the package is edited: ``Tracer.install`` replaces each public
function a clroute module binds (plus the two Monte Carlo loss kernels)
with a wrapper that records one span, and ``Tracer.uninstall`` puts the
originals back. A function bound under several names (``cli`` imports
``generate_instance`` from ``instance``, ``planner`` looks up ``shp.*`` at
call time) gets one wrapper, rebound everywhere it is bound, and is named
after the module that defines it: ``instance.generate_instance``.

Spans are kept in memory as ``[name, start, end, parent, op, attr]`` and
turned into self times and per-layer metrics at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import Counter, defaultdict

MODULES = ("instance", "loss", "shp", "planner", "mc_verify", "cli")

# Private names wrapped as well, because a per-layer metric is built on them.
EXTRA = ("mc_verify._under_losses", "mc_verify._over_losses")


def _hk_size(args, kwargs, result):
    return args[0].t_regions


def _odd_size(args, kwargs, result):
    return len(args[1])


def _trials(args, kwargs, result):
    return args[3]


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# Attribute recorded on a span after the call returns (never timed).
ATTRS = {
    "shp.held_karp_min_path": _hk_size,
    "shp.min_weight_perfect_matching": _odd_size,
    "mc_verify._under_losses": _trials,
    "mc_verify._over_losses": _trials,
    "instance.read_instance": _file_bytes,
}

# Every name a per-layer metric reads; missing ones are reported as absent.
METRIC_SOURCES = (
    "shp.held_karp_min_path",
    "shp.min_weight_perfect_matching",
    "shp.minimum_spanning_tree",
    "shp.eulerian_circuit",
    "shp.shortcut_to_hamiltonian",
    "shp.remove_dummy",
    "instance.validate_instance",
    "instance.metric_closure",
    "instance.generate_instance",
    "instance.write_instance",
    "instance.read_instance",
    "planner.plan_algorithm1",
    "planner.plan_exact",
    "planner.plan_forgetting_baseline",
    "planner.plan_random",
    "loss.loss_upper",
    "loss.closed_form_forgetting_under",
    "loss.closed_form_forgetting_over",
    "mc_verify._under_losses",
    "mc_verify._over_losses",
    "cli.main",
)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.wrapped: list[str] = []

    def _wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        attr_fn = ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if attr_fn is not None:
                    span[5] = attr_fn(args, kwargs, result)

        return wrapper

    def install(self, package) -> None:
        """Wrap the functions bound in ``package``'s modules and rebind them."""
        namespaces = [package] + [getattr(package, m) for m in MODULES if hasattr(package, m)]
        replace: dict[int, object] = {}
        names: list[str] = []
        for mod in namespaces[1:]:
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or not obj.__module__.startswith("clroute."):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                if obj.__name__.startswith("_") and name not in EXTRA:
                    continue
                if id(obj) not in replace:
                    replace[id(obj)] = self._wrapper(name, obj)
                    names.append(name)
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, replace[id(obj)])
        self.wrapped = sorted(names)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(spans: list[list], traced_ops: int) -> tuple[dict[str, float], dict]:
    """Per-layer metrics from the spans, plus a detail record for the run file.

    Times are milliseconds per call (inclusive, or self time where the name
    says so); work counts are per traced op. A layer the workload never
    calls reads 0.
    """
    own = self_times(spans)
    incl: dict[str, list[float]] = defaultdict(list)
    selfs: dict[str, list[float]] = defaultdict(list)
    attrs: dict[str, list] = defaultdict(list)
    for s, o in zip(spans, own):
        incl[s[0]].append((s[2] - s[1]) * 1e3)
        selfs[s[0]].append(o * 1e3)
        if s[5] is not None:
            attrs[s[0]].append(s[5])

    def per_call(name: str) -> float:
        return _mean(incl[name])

    def self_per_call(name: str) -> float:
        return _mean(selfs[name])

    ops = max(traced_ops, 1)
    m: dict[str, float] = {}
    hk = list(zip(attrs["shp.held_karp_min_path"], incl["shp.held_karp_min_path"]))
    for t in (10, 12, 14):
        m[f"shp.held_karp_ms.T{t}"] = _mean(ms for size, ms in hk if size == t)
    m["shp.held_karp_states"] = sum(2**t * t for t, _ in hk) / ops
    ks = attrs["shp.min_weight_perfect_matching"]
    m["shp.matching_ms"] = per_call("shp.min_weight_perfect_matching")
    m["shp.matching_states"] = sum(2**k for k in ks) / ops
    m["shp.odd_set_size.mean"] = _mean(ks)
    m["shp.odd_set_size.max"] = float(max(ks, default=0))
    m["shp.mst_ms"] = per_call("shp.minimum_spanning_tree")
    m["shp.euler_ms"] = per_call("shp.eulerian_circuit")
    n_short = len(incl["shp.shortcut_to_hamiltonian"])
    m["shp.shortcut_ms"] = (
        (sum(incl["shp.shortcut_to_hamiltonian"]) + sum(incl["shp.remove_dummy"])) / n_short
        if n_short
        else 0.0
    )
    m["instance.validate_ms"] = per_call("instance.validate_instance")
    m["instance.metric_closure_ms"] = per_call("instance.metric_closure")
    m["instance.generate_ms"] = self_per_call("instance.generate_instance")
    m["instance.write_ms"] = per_call("instance.write_instance")
    m["instance.read_ms"] = self_per_call("instance.read_instance")
    m["instance.json_bytes"] = _mean(attrs["instance.read_instance"])
    for key, fn in (
        ("alg1", "plan_algorithm1"),
        ("exact", "plan_exact"),
        ("forgetting", "plan_forgetting_baseline"),
        ("random", "plan_random"),
    ):
        m[f"planner.self_ms.{key}"] = self_per_call(f"planner.{fn}")
    m["planner.alg1_ms"] = per_call("planner.plan_algorithm1")
    m["loss.loss_upper_ms"] = per_call("loss.loss_upper")
    for regime in ("under", "over"):
        name = f"mc_verify._{regime}_losses"
        trials = sum(attrs[name])
        m[f"mc_verify.{regime}_ms_per_1k_trials"] = (
            sum(incl[name]) / trials * 1e3 if trials else 0.0
        )
    m["mc_verify.closed_form_ms"] = _mean(
        incl["loss.closed_form_forgetting_under"] + incl["loss.closed_form_forgetting_over"]
    )
    n_main = len(incl["cli.main"])
    cli_self = sum(sum(v) for k, v in selfs.items() if k.startswith("cli."))
    m["cli.self_ms"] = cli_self / n_main if n_main else 0.0

    total_self = sum(own) * 1e3 or 1.0
    for key, name in (
        ("held_karp", "shp.held_karp_min_path"),
        ("matching", "shp.min_weight_perfect_matching"),
        ("validate", "instance.validate_instance"),
        ("mc_over", "mc_verify._over_losses"),
    ):
        m[f"self_share.{key}"] = sum(selfs[name]) / total_self

    table = sorted(
        ((k, len(v), sum(v), sum(incl[k])) for k, v in selfs.items()), key=lambda r: -r[2]
    )
    detail = {
        "spans": len(spans),
        "self_time_ms": [
            {"name": k, "calls": c, "self_ms": s, "incl_ms": i, "self_share": s / total_self}
            for k, c, s, i in table
        ],
        "top_self": table[0][0] if table else None,
        "odd_set_size_histogram": dict(sorted(Counter(ks).items())),
        "held_karp_calls_by_t": dict(sorted(Counter(t for t, _ in hk).items())),
    }
    return m, detail
