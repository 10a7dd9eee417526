"""Reversible call tracing of the degenums modules, from outside the package.

``Tracer.install()`` wraps every public function of the traced modules and
every public method (plus the arithmetic and comparison operators) of the
classes they define.  Each wrapped call is a span: the wrapper counts it and
times it, and a span's self time is its duration minus the time its wrapped
child calls took.  Spans are aggregated in memory per wrapped name, so a
traced pass of millions of polynomial operations stays small.

A wrapped name is patched in every place the package bound it at import
time: each module namespace (``stirling2_table`` is imported by name into
``algorithms`` and ``audit``, ``build_table`` into ``audit`` and ``cli``),
the values of module-level dicts (the CLI's dispatch tables) and the bound
classmethods stored there.  ``__radd__`` and ``__rmul__`` of ``LambdaPoly``
are aliases bound when the class was created, so they are wrapped as names
of their own.  ``Tracer.uninstall()`` puts every original back and checks
that it did.
"""

from __future__ import annotations

import importlib
import inspect
import types
from time import perf_counter

LAYERS = ("exact", "series", "numbers", "algorithms", "audit", "cli")

# Dunder methods that carry the arithmetic; every other underscore name stays
# unwrapped.
OPERATORS = frozenset(
    ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
     "__mul__", "__rmul__", "__neg__", "__eq__")
)

# Names whose inclusive time is also summed into a group; a group counts an
# interval once even when its members nest (the *_poly_sequence functions
# call the *_deg_sequence ones).
GROUPS = {
    "numbers.sequence": (
        "numbers.bernoulli_deg_sequence", "numbers.euler_deg_sequence",
        "numbers.bell_deg_sequence", "numbers.bernoulli_deg_poly_sequence",
        "numbers.euler_deg_poly_sequence",
    ),
    "algorithms.transform": (
        "algorithms.transform_check", "algorithms.inverse_transform_check",
    ),
    "cli.render": ("cli.to_structured", "cli.to_flat"),
}


def _table_cells(table) -> int:
    return sum(len(row) for row in table.rows)


# Per-name counters taken from a call's result.
RESULT_COUNTERS = {"algorithms.build_table": ("algorithms.table_cells", _table_cells)}


class _Timer:
    """Inclusive time of the outermost active calls of one name or group."""

    __slots__ = ("active", "total")

    def __init__(self) -> None:
        self.active = 0
        self.total = 0.0


class _Stat:
    __slots__ = ("calls", "self_s", "timers")

    def __init__(self, timers: tuple[_Timer, ...]) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.timers = timers


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.groups = {name: _Timer() for name in GROUPS}
        self.counters = {name: 0 for name, _ in RESULT_COUNTERS.values()}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []  # (container, key, original)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        timers = [_Timer()]
        timers += [self.groups[g] for g, members in GROUPS.items() if qualname in members]
        stat = self.stats.setdefault(qualname, _Stat(tuple(timers)))
        stack = self._stack
        counter = RESULT_COUNTERS.get(qualname)
        counters = self.counters

        def traced(*args, **kwargs):
            for t in stat.timers:
                t.active += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                for t in stat.timers:
                    t.active -= 1
                    if not t.active:
                        t.total += elapsed
            if counter is not None:
                counters[counter[0]] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    def _patch(self, container, key: str, new, old) -> None:
        self._patches.append((container, key, old))
        if isinstance(container, dict):
            container[key] = new
        else:
            setattr(container, key, new)

    def _wrap_member(self, qualname: str, member):
        if isinstance(member, (classmethod, staticmethod)):
            return type(member)(self._wrap(qualname, member.__func__))
        if isinstance(member, property):
            return property(self._wrap(qualname, member.fget), member.fset, member.fdel)
        return self._wrap(qualname, member)

    def install(self) -> None:
        """Wrap the public callables of every layer and rebind their aliases."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module("degenums")]
        modules += [importlib.import_module(f"degenums.{m}") for m in LAYERS]
        replaced: dict[int, object] = {}  # id(original function) -> wrapper
        for layer, mod in zip(LAYERS, modules[1:]):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj, replaced)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in replaced:
                    self._patch(mod, name, replaced[id(value)], value)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        new = self._rebound(item, replaced)
                        if new is not None:
                            self._patch(value, key, new, item)

    def _wrap_class(self, layer: str, cls: type, replaced: dict[int, object]) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            if not (inspect.isfunction(member)
                    or isinstance(member, (classmethod, staticmethod, property))):
                continue
            new = self._wrap_member(f"{layer}.{cls.__name__}.{name}", member)
            self._patch(cls, name, new, member)
            if isinstance(member, classmethod):
                replaced[id(member.__func__)] = new.__func__

    @staticmethod
    def _rebound(item, replaced: dict[int, object]):
        if id(item) in replaced:
            return replaced[id(item)]
        if isinstance(item, types.MethodType) and id(item.__func__) in replaced:
            return types.MethodType(replaced[id(item.__func__)], item.__self__)
        return None

    def uninstall(self) -> None:
        """Restore every patched name and check that each original is back."""
        for container, key, old in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = old
            else:
                setattr(container, key, old)
        for container, key, old in self._patches:
            now = container[key] if isinstance(container, dict) else vars(container)[key]
            if now is not old:
                raise RuntimeError(f"tracer failed to restore {key!r} on {container!r}")
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-name calls, self time and inclusive time, plus groups and counters."""
        return {
            "names": {
                name: {"calls": s.calls, "self_s": s.self_s, "incl_s": s.timers[0].total}
                for name, s in self.stats.items()
            },
            "groups": {name: t.total for name, t in self.groups.items()},
            "counters": dict(self.counters),
        }


def _calls(names: dict, *qualnames: str) -> int:
    return sum(names[q]["calls"] for q in qualnames if q in names)


def _incl(names: dict, qualname: str) -> float:
    return names[qualname]["incl_s"] if qualname in names else 0.0


def layer_metrics(snap: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from ``Tracer.snapshot()``."""
    names, groups, counters = snap["names"], snap["groups"], snap["counters"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            s["self_s"] for q, s in names.items() if q.split(".", 1)[0] == layer
        )
    lp = "exact.LambdaPoly."
    out["exact.mul_calls"] = _calls(names, lp + "__mul__", lp + "__rmul__")
    out["exact.add_calls"] = _calls(names, lp + "__add__", lp + "__radd__")
    out["exact.scale_calls"] = _calls(names, lp + "scale")
    out["exact.init_calls"] = _calls(names, lp + "__init__")
    out["exact.eq_calls"] = _calls(names, lp + "__eq__")
    out["exact.eval_at_calls"] = _calls(names, lp + "eval_at")
    out["exact.render_calls"] = _calls(names, lp + "render")
    out["exact.parse_calls"] = _calls(names, lp + "parse")
    ts = "series.TruncatedSeries."
    out["series.mul_calls"] = _calls(names, ts + "__mul__", ts + "__rmul__")
    out["series.compose_calls"] = _calls(names, ts + "compose")
    out["series.compose_s"] = _incl(names, ts + "compose")
    out["series.reciprocal_s"] = _incl(names, ts + "reciprocal")
    out["numbers.stirling2_table_s"] = _incl(names, "numbers.stirling2_table")
    out["numbers.stirling2_table_calls"] = _calls(names, "numbers.stirling2_table")
    out["numbers.sequence_s"] = groups["numbers.sequence"]
    out["algorithms.build_table_s"] = _incl(names, "algorithms.build_table")
    out["algorithms.build_table_calls"] = _calls(names, "algorithms.build_table")
    out["algorithms.table_cells"] = counters["algorithms.table_cells"]
    out["algorithms.transform_s"] = groups["algorithms.transform"]
    out["audit.run_identity_suite_s"] = _incl(names, "audit.run_identity_suite")
    out["audit.audit_printed_matrices_s"] = _incl(names, "audit.audit_printed_matrices")
    out["cli.render_s"] = groups["cli.render"]
    return out
