"""Per-layer tracing from outside the package.

Each traced function is replaced, in every ``orientkit`` module namespace
and in every default argument that holds it, by a wrapper that records
calls, inclusive time, self time and exceptions. Both places matter:
``cli`` imports names directly and ``sweep_theorem`` binds ``theta_k`` and
``theta_s`` as default arguments when it is defined, so patching only the
defining module would miss those calls without any sign.

Spans nest on one stack (the benchmark is single-threaded), so a
function's self time is its inclusive time minus the inclusive time of
the traced calls it made.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass
from time import perf_counter

# (module, attribute, metric prefix). The prefix names the layer first.
TARGETS = (
    ("cli", "cli_main", "cli.cli_main"),
    ("corpus", "sweep_theorem", "corpus.sweep_theorem"),
    ("corpus", "enumerate_graphs", "corpus.enumerate_graphs"),
    ("corpus", "write_report", "corpus.render"),
    ("graphs", "parse_graph", "graphs.parse_graph"),
    ("graphs", "canonical_graph", "graphs.canonical_graph"),
    ("graphs", "orbit_contraction", "graphs.orbit_contraction"),
    ("automorphisms", "enumerate_automorphisms", "automorphisms.enumerate"),
    ("automorphisms", "induced_actions", "automorphisms.induced_actions"),
    ("orientation", "orientability", "orientation.orientability"),
    ("orientation", "or_orbits_bruteforce", "orientation.or_orbits_bruteforce"),
    ("orientation", "theta_k", "orientation.theta_k"),
    ("orientation", "theta_s", "orientation.theta_s"),
    ("orientation", "cycle_basis", "orientation.cycle_basis"),
    ("families", "eq1_check", "families.eq1_check"),
    ("perms", "sign", "perms.sign"),
    ("perms", "power", "perms.power"),
)

LAYERS = ("cli", "corpus", "graphs", "automorphisms", "orientation", "families", "perms")


class CoverageError(RuntimeError):
    """A traced function is missing, or a layer expected on a workload saw no calls."""


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    items: int = 0  # yielded items (generators) or returned list lengths


class Tracer:
    """Installs the wrappers on demand; ``stats`` accumulate across installs."""

    def __init__(self, clock=perf_counter):
        self._clock = clock
        self.stats = {metric: Stat() for _, _, metric in TARGETS}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._wrappers = {}
        for module, attr, metric in TARGETS:
            mod = sys.modules.get(f"orientkit.{module}")
            fn = getattr(mod, attr, None)
            if fn is None:
                raise CoverageError(f"orientkit.{module}.{attr} not found; the trace map is stale")
            self._wrappers[id(fn)] = (fn, self._wrap(fn, self.stats[metric], metric))

    def _wrap(self, fn, st: Stat, metric: str):
        stack, clock = self._stack, self._clock
        count_len = metric == "automorphisms.enumerate"

        def enter():
            frame = [0.0]
            stack.append(frame)
            return frame, clock()

        def leave(frame, t0):
            dt = clock() - t0
            stack.pop()
            st.s += dt
            st.self_s += dt - frame[0]
            if stack:
                stack[-1][0] += dt

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                st.calls += 1
                while True:
                    frame, t0 = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException:
                        st.errors += 1
                        raise
                    finally:
                        leave(frame, t0)
                    st.items += 1
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            frame, t0 = enter()
            st.calls += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                leave(frame, t0)
            if count_len:
                st.items += len(result)
            return result
        return wrapper

    def _swap(self, value):
        hit = self._wrappers.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "orientkit" or name.startswith("orientkit."))]
        # Default arguments first, while every namespace still holds the originals.
        for mod in modules:
            for holder in [mod] + [v for v in vars(mod).values() if inspect.isclass(v)]:
                for fn in list(vars(holder).values()):
                    fn = getattr(fn, "__func__", fn)
                    if not inspect.isfunction(fn) or not fn.__defaults__:
                        continue
                    old = fn.__defaults__
                    new = tuple(self._swap(v) or v for v in old)
                    if new != old:
                        self._undo.append((fn, "__defaults__", old))
                        fn.__defaults__ = new
        for mod in modules:
            for name, value in list(vars(mod).items()):
                wrapper = self._swap(value)
                if wrapper is not None:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            obj, name, value = self._undo.pop()
            setattr(obj, name, value)

    def check_coverage(self, expected: tuple[str, ...]) -> None:
        silent = [m for m in expected if self.stats[m].calls == 0]
        if silent:
            raise CoverageError("traced run saw no calls to " + ", ".join(silent))

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for metric, st in self.stats.items():
            out[metric.split(".", 1)[0]] += st.self_s
        return out
