"""Per-layer tracing of degeis from outside the package.

The tracer wraps public functions and methods of the degeis modules and
records, for each wrapped name, the number of calls and the self time (the
span minus the time covered by wrapped callees).  A module
that imported a function by name (``from .zetas import expand_in``) holds its
own binding, so every binding of the original object in every loaded degeis
module is replaced, not only the one in the defining module.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref

# (module, attribute) pairs traced as spans, named "<module>.<attribute>".
FUNCTION_SPANS = [
    ("rootdata", "build_system"),
    ("eisenstein", "coset_reps"),
    ("eisenstein", "gk_factor"),
    ("eisenstein", "constant_term"),
    ("eisenstein", "pole_report"),
    ("eisenstein", "render_table_rows"),
    ("eisenstein", "entireness_report"),
    ("eisenstein", "sharp_invariance_check"),
    ("eisenstein", "siegel_weil_constant"),
    ("characters", "weyl_act"),
    ("characters", "iota_check"),
    ("zetas", "expand_in"),
    ("zetas", "laurent_at"),
    ("cli", "main"),
]
# (module, class, method, span name) of methods traced as spans.
METHOD_SPANS = [
    ("rootdata", "RootSystem", "weyl_elements", "rootdata.weyl_elements"),
    ("rootdata", "RootSystem", "word_on_root", "rootdata.word_on_root"),
    ("zetas", "ZetaExpr", "build", "zetas.ZetaExpr.build"),
]
# Kernel operations that are only counted: a span each would cost more than the
# operation itself.  "add" covers __add__ and its alias __radd__.
METHOD_COUNTS = [
    ("forms", "AffineForm", "__add__", "forms.AffineForm.add"),
    ("forms", "AffineForm", "subs", "forms.AffineForm.subs"),
]
# Modules whose every public function is traced and summed into "<module>.self_s".
MODULE_SPANS = ["dualside", "localint"]


class Tracer:
    """Install with :meth:`install`, run the workload, then :meth:`uninstall`."""

    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, self_s]
        self.elements = 0                     # Weyl elements materialised
        self.coset_scanned = 0                # Weyl elements scanned by coset_reps
        self.coset_found = 0                  # representatives it returned
        self._stack: list[float] = []         # child time of each open span
        self._patches: list[tuple[object, str, object]] = []
        self._originals: list[object] = []

    # -- wrappers -------------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0])

    def _span(self, name: str, fn, after=None):
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result
        wrapper.traced_as = name
        return wrapper

    def _counter(self, name: str, fn):
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)
        wrapper.traced_as = name
        return wrapper

    # -- patching -------------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Replace every binding of ``original`` in every loaded degeis module."""
        self._originals.append(original)
        for mod in degeis_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _patch_method(self, cls, method: str, make) -> None:
        raw = cls.__dict__[method]
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        wrapped = make(fn)
        replacement = staticmethod(wrapped) if is_static else wrapped
        self._originals.append(raw)
        for attr, value in list(vars(cls).items()):   # aliases such as __radd__
            if value is raw:
                self._patches.append((cls, attr, value))
                setattr(cls, attr, replacement)

    def install(self) -> None:
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in degeis_modules()}
        weyl_elements = mods["rootdata"].RootSystem.weyl_elements
        materialised = weakref.WeakSet()

        def count_elements(args, result):
            system = args[0]
            if system not in materialised:
                materialised.add(system)
                self.elements += len(result)

        def count_cosets(args, result):
            self.coset_scanned += len(weyl_elements(args[0]))   # cached, untraced
            self.coset_found += len(result)

        hooks = {"rootdata.weyl_elements": count_elements,
                 "eisenstein.coset_reps": count_cosets}
        for mod, attr in FUNCTION_SPANS:
            name = f"{mod}.{attr}"
            original = getattr(mods[mod], attr)
            self._rebind(original, self._span(name, original, hooks.get(name)))
        for mod, cls, method, name in METHOD_SPANS:
            self._patch_method(getattr(mods[mod], cls), method,
                               lambda fn, n=name: self._span(n, fn, hooks.get(n)))
        for mod, cls, method, name in METHOD_COUNTS:
            self._patch_method(getattr(mods[mod], cls), method,
                               lambda fn, n=name: self._counter(n, fn))
        for mod in MODULE_SPANS:
            module = mods[mod]
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    self._rebind(fn, self._span(f"{mod}:{attr}", fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def unpatched_bindings(self) -> list[str]:
        """Bindings of traced originals that are still reachable while installed."""
        return [name for name, value in bindings()
                if any(value is o for o in self._originals)]

    # -- results --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def module_self_s(self, module: str) -> float:
        return sum(s[1] for n, s in self.stats.items() if n.startswith(module + ":"))

    def module_calls(self, module: str) -> int:
        return sum(s[0] for n, s in self.stats.items() if n.startswith(module + ":"))


def degeis_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "degeis" or n.startswith("degeis."))]


def bindings():
    """(qualified name, value) of every module and class attribute in degeis."""
    for mod in degeis_modules():
        for attr, value in list(vars(mod).items()):
            yield f"{mod.__name__}.{attr}", value
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for name, member in list(vars(value).items()):
                    yield f"{mod.__name__}.{attr}.{name}", member


def wrapped_bindings() -> list[str]:
    """Bindings that hold a tracer wrapper (none once the tracer is uninstalled)."""
    return [name for name, value in bindings()
            if hasattr(getattr(value, "__func__", value), "traced_as")]
