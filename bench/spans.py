"""In-memory span recorder for the traced benchmark pass.

Spans are taken around the package's public functions *as looked up at
their call sites*: ``install`` swaps the module attribute a caller reads
(``chaingraphs.recovery.dep_all``, ``chaingraphs.cli.recover_pattern``, ...)
for a timing wrapper and ``uninstall`` puts the original back.  Nothing in
the package itself is edited, so the untraced passes run the plain code.

Each span knows its parent, so self time (duration minus the time covered
by child spans), per-caller call counts and the number of spans that
opened any child span fall out of the stack.  Very
frequent, tiny calls (graph construction, model queries) are aggregated but
not kept as individual spans, which keeps the span list small.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.total: Counter = Counter()       # inclusive seconds per name
        self.self_time: Counter = Counter()   # exclusive seconds per name
        self.by_parent: Counter = Counter()   # (parent name, name) -> calls
        self.by_parent_s: Counter = Counter()  # (parent name, name) -> seconds
        self.with_children: Counter = Counter()  # spans that opened a child span
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counters: Counter = Counter()    # events counted by callbacks
        self._stack: list[list] = []   # [id, name, start, child seconds, child count]
        self._next_id = 1
        self._undo: list = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [self._next_id, name, perf_counter(), 0.0, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, keep: bool) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child, n_children = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
            parent[4] += 1
        self.calls[name] += 1
        if n_children:
            self.with_children[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        key = (parent[1] if parent else "", name)
        self.by_parent[key] += 1
        self.by_parent_s[key] += dur
        if keep:
            self.durations[name].append(dur)
            self.spans.append((span_id, parent[0] if parent else 0, name, start, end))

    def wrap(self, name: str, fn, keep: bool = True):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, keep)

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        original = getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_fn(self, module, attr: str, name: str, keep: bool = True) -> None:
        self.patch(module, attr, self.wrap(name, getattr(module, attr), keep))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def install(self, cg) -> None:
        """Wrap the call sites of the package ``cg`` (``import chaingraphs``)."""
        cli, io, graph = cg.cli, cg.io, cg.graph
        complexes, separation, depmodel, recovery = (
            cg.complexes, cg.separation, cg.depmodel, cg.recovery)

        self.patch_fn(cli, "run", "cli.run")
        for module in (cli, io):
            self.patch_fn(module, "parse_graph", "io.parse_graph")
        self.patch_fn(cli, "serialize_graph", "io.serialize_graph")
        self.patch_fn(cli, "serialize_graphs", "io.serialize_graphs")
        self.patch_fn(cli, "recover_pattern", "recovery.recover_pattern")
        self.patch_fn(cli, "equivalence_class", "complexes.equivalence_class")
        for module in (cli, recovery):
            self.patch(module, "recover_largest",
                       self._with_stage2_trace(self.wrap(
                           "recovery.recover_largest", module.recover_largest)))
        for attr in ("dep_all", "dep_plus"):
            self.patch_fn(recovery, attr, f"depmodel.{attr}")
        rules = recovery._RULES
        original_rules = dict(rules)
        self._undo.append(lambda: rules.update(original_rules))
        for rule, fn in original_rules.items():
            rules[rule] = self.wrap(f"recovery.{fn.__name__}", fn)
        for module in (recovery, complexes):
            self.patch_fn(module, "pattern_of", "complexes.pattern_of")
        self.patch_fn(recovery, "is_chain_graph", "graph.is_chain_graph")
        for module in (depmodel, separation):
            self.patch_fn(module, "moralization_represented",
                          "separation.moralization_represented")
            self.patch_fn(module, "c_represented", "separation.c_represented")
        self.patch_fn(separation, "complex_parent_pairs", "complexes.complex_parent_pairs")
        self.patch_fn(separation, "slides_to", "separation.slides_to")
        self.patch(depmodel.CGBackedModel, "is_independent", self.wrap(
            "depmodel.is_independent", depmodel.CGBackedModel.is_independent, keep=False))
        # graph.py itself keeps the plain class: HybridGraph.__eq__ looks the
        # class name up there for its isinstance test
        built = self._counted_class(graph.HybridGraph)
        for module in (complexes, recovery):
            self.patch(module, "HybridGraph", built)
        self.patch_fn(io, "build_graph", "graph.build", keep=False)

    def _with_stage2_trace(self, fn):
        """Count stage-2 bans and directings through the public ``trace=``."""
        counters = self.counters

        def traced(g0, *args, trace=None, **kwargs):
            def sink(event):
                counters["stage2.bans" if event[0] == "ban" else "stage2.directings"] += 1
                if trace is not None:
                    trace(event)
            return fn(g0, *args, trace=sink, **kwargs)

        return traced

    def _counted_class(self, cls):
        init = self.wrap("graph.build", cls.__init__, keep=False)
        return type(cls.__name__, (cls,), {"__slots__": (), "__init__": init})

    # -- results -----------------------------------------------------------

    def ms(self, name: str) -> float:
        return self.total[name] * 1e3

    def child_ms(self, parent: str, name: str) -> float:
        """Inclusive time of ``name`` spans opened directly under ``parent``."""
        return self.by_parent_s[(parent, name)] * 1e3

    def write(self, path: str) -> None:
        """Write every kept span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start_s", "end_s"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
