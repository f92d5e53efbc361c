"""Call-boundary tracing from outside the package.

A :class:`Tracer` replaces chosen functions of a set of modules with wrappers
that record one span per call (name, start, end, parent span) and let an
extractor pull counts out of the arguments or the return value.  Nothing in
the traced package is edited: a function is replaced wherever the modules
hold a reference to it (``from .x import f`` copies, dict registries such as
a runner table, and class attributes), and every replacement is undone on
exit.  Spans stay in memory; the caller aggregates or writes them.
"""

from __future__ import annotations

import inspect
import itertools
import time
import types
from collections import Counter, defaultdict, namedtuple

Span = namedtuple("Span", "sid parent name start end")


def public_targets(modules) -> dict:
    """Qualified name -> function for the public callables of ``modules``.

    Module-level functions defined in the module, and methods (``__init__``
    included) written in the module's own source file on its public classes.
    Generated methods (dataclass ``__init__``), properties and private names
    are skipped.  Names look like ``lindblad.build_liouvillian`` or
    ``hilbert.CompositeSpace.embed``.
    """
    out = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                out[f"{short}.{name}"] = obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                    if (
                        isinstance(fn, types.FunctionType)
                        and fn.__code__.co_filename == mod.__file__
                    ):
                        out[f"{short}.{name}.{attr}"] = fn
    return out


class Tracer:
    """Wraps ``targets`` (name -> function) inside ``modules`` while active.

    ``extractors`` maps a target name to ``fn(tracer, args, kwargs, result)``,
    which may append to ``tracer.values``; ``result_hooks`` maps a name to
    ``fn(tracer, result) -> result`` (used to trace callables a function
    returns).  Targets listed in ``count_only`` are counted but get no span,
    for functions called so often that a span would distort the timing.
    """

    def __init__(self, modules, targets, extractors=None, result_hooks=None, count_only=()):
        self.modules = list(modules)
        self.targets = dict(targets)
        self.extractors = dict(extractors or {})
        self.result_hooks = dict(result_hooks or {})
        self.count_only = set(count_only)
        self.spans: list = []
        self.calls: Counter = Counter()
        self.values: dict = defaultdict(list)
        self._stack: list = []
        self._ids = itertools.count()
        self._restore: list = []

    # -- recording -------------------------------------------------------
    def reset(self) -> None:
        self.spans = []
        self.calls = Counter()
        self.values = defaultdict(list)

    def wrap(self, name: str, fn):
        """Return a recording wrapper of ``fn`` under ``name``."""
        tracer = self
        extract = self.extractors.get(name)
        hook = self.result_hooks.get(name)
        clock = time.perf_counter

        if name in self.count_only:
            def counted(*args, **kwargs):
                tracer.calls[name] += 1
                return fn(*args, **kwargs)

            counted.__wrapped__ = fn
            return counted

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(Span(sid, parent, name, start, end))
            if extract is not None:
                extract(tracer, args, kwargs, result)
            if hook is not None:
                result = hook(tracer, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------
    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        wrappers = {id(fn): self.wrap(name, fn) for name, fn in self.targets.items()}
        try:
            for mod in self.modules:
                for key, val in list(vars(mod).items()):
                    if key.startswith("__"):
                        continue
                    if id(val) in wrappers:
                        self._replace(mod, key, val, wrappers[id(val)], setattr)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if id(v) in wrappers:
                                self._replace(val, k, v, wrappers[id(v)], _setitem)
                    elif inspect.isclass(val) and val.__module__ == mod.__name__:
                        for attr, member in list(vars(val).items()):
                            fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                            if id(fn) in wrappers:
                                new = wrappers[id(fn)]
                                if fn is not member:
                                    new = type(member)(new)
                                self._replace(val, attr, member, new, setattr)
        except BaseException:
            self.uninstall()
            raise

    def _replace(self, owner, key, old, new, assign) -> None:
        assign(owner, key, new)
        self._restore.append((owner, key, old, assign))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, old, assign = self._restore.pop()
            assign(owner, key, old)


def _setitem(mapping, key, value) -> None:
    mapping[key] = value


# -- aggregation ------------------------------------------------------------
def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover.

    Calls are nested in one thread, so the children of a span are disjoint
    and inside it; their durations add up to the covered part.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - child[s.sid] for s in spans}


def inclusive_time(spans, match) -> float:
    """Total duration of spans satisfying ``match`` that have no matching
    ancestor, so a recursive or re-entrant layer is not counted twice."""
    by_id = {s.sid: s for s in spans}
    total = 0.0
    for s in spans:
        if not match(s.name):
            continue
        p = by_id.get(s.parent)
        while p is not None and not match(p.name):
            p = by_id.get(p.parent)
        if p is None:
            total += s.end - s.start
    return total


def self_time_by(spans, key) -> dict:
    """Sum of self times grouped by ``key(name)``."""
    st = self_times(spans)
    out = defaultdict(float)
    for s in spans:
        out[key(s.name)] += st[s.sid]
    return dict(out)
