"""Outside-in tracer for supercoinv.

The tracer changes nothing in the package.  It replaces, from the outside,
the names that callers resolve at call time: module globals (including the
copies that ``from .x import f`` leaves in other modules) and class
attributes for methods.  Two kinds of wrapper exist:

* a *layer* wrapper keeps an aggregate per layer key: calls, total time
  and self time.  Self time is the wrapped call's duration minus the time
  spent in nested layer calls, so the self times of all layers plus an
  ``other`` remainder add up to the traced wall time;
* a *span* wrapper records one span (name, start, end, parent id and a few
  attributes) for a coarse operation and is transparent to self time.

Spans are held in memory and written out by ``write``.
"""

import json
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self, modules):
        self.modules = modules          # the package modules to patch
        self.stats = {}                 # layer key -> [calls, self_s, total_s]
        self.counters = {}              # counter name -> int
        self.spans = []                 # closed spans, in end order
        self.missing = []               # targets that no longer exist
        self._frames = []               # open layer frames: [child_s, start]
        self._depth = {}                # layer key -> open frames of that key
        self._open_spans = []           # ids of open spans
        self._span_ids = 0
        self._epoch = _clock()

    # -- patching -------------------------------------------------------

    def _replace(self, original, wrapper):
        """Rebind every module global and class attribute that refers to
        ``original``."""
        for mod in self.modules:
            for name, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, name, wrapper)
                elif isinstance(val, type) and val.__module__ == mod.__name__:
                    for attr, member in list(vars(val).items()):
                        if member is original:
                            setattr(val, attr, wrapper)

    def _lookup(self, target):
        """Resolve "module:qualname" to the current object, or None."""
        modname, _, qualname = target.partition(":")
        obj = next((m for m in self.modules if m.__name__ == modname), None)
        for part in qualname.split("."):
            obj = vars(obj).get(part) if obj is not None else None
        return obj

    def layer(self, key, target, on_result=None):
        """Aggregate calls to ``target`` under layer ``key``.  ``on_result``
        sees each call's arguments and result, after its frame closed."""
        original = self._lookup(target)
        if not callable(original):
            self.missing.append(target)
            return
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        depth = self._depth
        depth.setdefault(key, 0)
        frames = self._frames

        def wrapper(*args, **kwargs):
            frame = [0.0, _clock()]
            frames.append(frame)
            depth[key] += 1
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = _clock() - frame[1]
                frames.pop()
                depth[key] -= 1
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                if not depth[key]:
                    stats[2] += elapsed
                if frames:
                    frames[-1][0] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = original
        self._replace(original, wrapper)

    def span_target(self, name, target, attrs=None, keep=None):
        """Record a span for each call to ``target``.  ``attrs`` maps the
        call arguments to span attributes; ``keep`` decides from them
        whether this call is recorded at all."""
        original = self._lookup(target)
        if not callable(original):
            self.missing.append(target)
            return

        def wrapper(*args, **kwargs):
            if keep is not None and not keep(args):
                return original(*args, **kwargs)
            extra = attrs(args) if attrs else {}
            with self.span(name, **extra):
                return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        self._replace(original, wrapper)

    def span_dict(self, name, table, attr):
        """Record a span for each call through the functions of a dispatch
        dict, labelled with the dict key under ``attr``."""
        for label, fn in list(table.items()):
            def wrapper(*args, _fn=fn, _label=label, **kwargs):
                with self.span(name, **{attr: _label}):
                    return _fn(*args, **kwargs)
            table[label] = wrapper

    # -- spans and counters ----------------------------------------------

    def span(self, name, **attrs):
        return _Span(self, name, attrs)

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def self_time(self):
        return sum(s[1] for s in self.stats.values())

    def write(self, path, metrics):
        """One JSON line with the metrics, the per-layer aggregates and the
        counters, then one line per span."""
        layers = {k: {"calls": c, "self_s": s, "total_s": t}
                  for k, (c, s, t) in self.stats.items()}
        with open(path, "w") as fh:
            fh.write(json.dumps({"metrics": metrics, "layers": layers,
                                 "counters": self.counters}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name, attrs):
        self.tracer = tracer
        self.record = {"id": None, "parent": None, "name": name, **attrs}

    def __enter__(self):
        t = self.tracer
        t._span_ids += 1
        self.record["id"] = t._span_ids
        if t._open_spans:
            self.record["parent"] = t._open_spans[-1]
        t._open_spans.append(self.record["id"])
        self.record["start"] = _clock() - t._epoch
        return self

    def __exit__(self, *exc):
        t = self.tracer
        self.record["end"] = _clock() - t._epoch
        if exc[0] is not None:
            self.record["error"] = exc[0].__name__
        t._open_spans.pop()
        t.spans.append(self.record)
        return False
