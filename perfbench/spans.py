"""Call tracing for the benchmark's traced passes.

``Tracer.install`` wraps every public function of the traced modules and
puts the wrapper under every name that referred to the original in any
``tdcodes`` module, so calls between modules and within one module both go
through it.  A span wrapper counts calls and adds up self time
(its duration minus the time its child spans cover).  Functions called
millions of times get a wrapper that only counts; their time stays in the
caller's self time.  Nothing is written out: ``snapshot`` returns the
totals when the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("roots", "confusability", "oracle", "optimal", "codes", "bounds", "cli")
COUNT_ONLY = frozenset(
    {
        "confusability.main_and_region",
        "confusability.labels_confusable",
        "oracle.canonical_form",
    }
)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = []  # per open span: time its children took

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def snapshot(self) -> dict:
        return {
            "spans": {name: list(rec) for name, rec in self.spans.items()},
            "counts": dict(self.counts),
        }

    def span(self, name: str, fn, pre=None, post=None):
        """Wrap ``fn`` in a span; ``pre(args, kwargs)`` returns a token for
        ``post(token, result, args, kwargs)``, whose time is excluded."""
        rec = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = pre(args, kwargs) if pre is not None else None
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if post is not None:
                t1 = clock()
                post(token, result, args, kwargs)
                if stack:
                    stack[-1][0] += clock() - t1
            return result

        return wrapper

    def counter(self, name: str, fn, on_result=None):
        rec = self.spans.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec[0] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _hooks(self, oracle):
        spans = self.spans
        add = self.add
        descendant_cone = oracle.descendant_cone  # the original, not a wrapper

        def root_symbols(args, kwargs):
            add("roots.root_le_k.symbols", len(_arg(args, kwargs, 0, "x")))

        def scanned(args, kwargs):
            # the scan loops over every symbol of the word it is given
            add("confusability.extended_prefix.symbols_scanned", len(_arg(args, kwargs, 1, "x")))

        def decided(args, kwargs):
            x, y = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "y")
            add("confusability.input_symbols", len(x) + len(y))

        def labelled(args, kwargs):
            add("confusability.input_symbols", len(_arg(args, kwargs, 0, "x")))

        def sweep_start(args, kwargs):
            return spans["confusability.compute_label"][0]

        def sweep_end(before, result, args, kwargs):
            add("optimal.labels_by_root.words", spans["confusability.compute_label"][0] - before)

        def graph_size(_, graph, args, kwargs):
            add("optimal.graph_from_labels.vertices", len(graph.vertices))
            edges = sum(bin(mask).count("1") for mask in graph.adjacency) // 2
            add("optimal.graph_from_labels.edges", edges)

        def cone_states(_, result, args, kwargs):
            r, n = _arg(args, kwargs, 0, "r"), _arg(args, kwargs, 1, "n")
            budget = kwargs.get("budget", 2_000_000)
            cone = descendant_cone(r, n, budget=budget)
            add("oracle.cone_states", sum(len(words) for words in cone.by_length.values()))

        return {
            "roots.root_le_k": (root_symbols, None),
            "confusability.extended_prefix": (scanned, None),
            "confusability.confusable": (decided, None),
            "confusability.compute_label": (labelled, None),
            "optimal.labels_by_root": (sweep_start, sweep_end),
            "optimal.graph_from_labels": (None, graph_size),
            "oracle.enumerate_labels": (None, cone_states),
        }

    def install(self) -> None:
        """Wrap the public functions of every traced ``tdcodes`` module."""
        import tdcodes.cli  # noqa: F401  (imports every traced module)

        modules = {layer: sys.modules[f"tdcodes.{layer}"] for layer in LAYERS}
        hooks = self._hooks(modules["oracle"])
        wrapped = {}
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrapper = self.counter(name, fn)
                else:
                    pre, post = hooks.get(name, (None, None))
                    wrapper = self.span(name, fn, pre, post)
                wrapped[id(fn)] = (fn, wrapper)
        for modname, mod in list(sys.modules.items()):
            if modname != "tdcodes" and not modname.startswith("tdcodes."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

        cache_cls = modules["optimal"].SizeCache
        get, put = cache_cls.get, cache_cls.put

        def looked_up(result):
            self.add("optimal.SizeCache.hits" if result is not None else "optimal.SizeCache.misses", 1)

        put_signature = inspect.signature(put)

        def storing(args, kwargs):
            a = put_signature.bind(*args, **kwargs).arguments
            if get(a["self"], a["root"], a["n"]) != (a["size"], a["witness"]):
                self.add("optimal.SizeCache.writes", 1)

        cache_cls.get = self.counter("optimal.SizeCache.get", get, looked_up)
        cache_cls.put = self.span("optimal.SizeCache.put", put, storing)
