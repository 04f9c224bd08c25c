"""Spans around every call the CLI makes into a layer, plus frozen-graph probes.

`Tracer.install` swaps the names `powersat.cli` imported (and the `EGraph` and
`StimulusConfig` methods it calls) for timing wrappers, so spans come from the
benchmark's own files and the program is unchanged. Spans stay in memory:
(name, start, end, parent span, cell id). After each cell, `probe` times
`ematch` per rule group, `EGraph.count_designs` and `EGraph.rebuild` on the
cell's final e-graph; probes run outside the cell's span.
"""

import functools
import time
from dataclasses import dataclass

# Names `powersat.cli` imported, by layer; wrapped in the CLI's namespace so
# only the CLI's own calls are recorded.
CLI_CALLS = {
    "ir": ("parse_design", "print_design"),
    "rewrite": ("rules_by_name", "apply_rules"),
    "stimulus": ("generate_stimuli",),
    "simulate": ("choose_representatives", "simulate", "graph_activity"),
    "power": ("class_scores",),
    "extract": ("seed_from_design", "build_problem", "_closure", "selection_cost",
                "solve", "reconstruct"),
    "equiv": ("cosimulate",),
}
# Methods the CLI calls on objects, wrapped on the class for the traced pass.
METHODS = (("egraph", "EGraph", "add_expr"), ("egraph", "EGraph", "design_enodes"),
           ("stimulus", "StimulusConfig", "from_json"))
RULE_GROUPS = ("data-gate", "transparent-register", "clock-gate-retime", "boolean",
               "arithmetic")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    cell: str
    work: float = 0.0  # layer-specific count: nodes, bit-cycles, explored, ...

    @property
    def duration(self) -> float:
        return self.end - self.start


def _work(name: str, args: tuple, result) -> float:
    """Units of work a call did, read from its arguments and result."""
    if name == "ir.parse_design":
        return len(result.nodes)
    if name == "stimulus.generate_stimuli":
        return sum(w.width * w.cycles for w in result.values())
    if name == "simulate.simulate":
        return len(result) * max((w.cycles for w in result.values()), default=0)
    if name == "extract.solve":
        return result.stats.explored
    if name == "equiv.cosimulate":
        d1, d2, stimuli = args
        cycles = min(w.cycles for w in stimuli.values())
        return (len(d1.nodes) + len(d2.nodes)) * cycles
    return 0.0


class Tracer:
    """Records spans while installed; `cell` names the cell in progress."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cell = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.graphs: dict[str, object] = {}  # cell id -> final e-graph, until probed
        self.shapes: dict[str, tuple[int, int]] = {}  # cell id -> (classes, nodes)

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, time.perf_counter(), 0.0, parent, self.cell)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
        sp.work = _work(name, args, result)
        if name == "rewrite.apply_rules":
            self.graphs[self.cell] = args[0]
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import powersat.cli as cli

        for layer, names in CLI_CALLS.items():
            for fn_name in names:
                self._patch(cli, fn_name, self._wrap(f"{layer}.{fn_name}", getattr(cli, fn_name)))
        for layer, cls_name, meth in METHODS:
            cls = getattr(cli, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(f"{layer}.{meth}", raw.__func__))
            else:
                wrapped = self._wrap(f"{layer}.{meth}", raw)
            self._patch(cls, meth, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def probe(self, cell: str) -> None:
        """Time the rewrite engine's pieces on the cell's final e-graph."""
        from powersat.rewrite import ematch, rule_library

        g = self.graphs.pop(cell, None)
        if g is None:  # the cell failed before rewriting finished
            return
        self.shapes[cell] = (g.class_count(), g.enode_count())
        root = Span("probe", time.perf_counter(), 0.0, None, cell)
        self.spans.append(root)
        parent = len(self.spans) - 1

        def timed(name: str, fn, counts: bool = False) -> None:
            start = time.perf_counter()
            result = fn()
            self.spans.append(Span(name, start, time.perf_counter(), parent, cell,
                                   result if counts else 0.0))

        by_group: dict[str, list] = {grp: [] for grp in RULE_GROUPS}
        for rule in rule_library():
            by_group[rule.group].append(rule)
        for grp, rules in by_group.items():
            timed(f"probe.ematch.{grp}",
                  lambda rs=rules: sum(len(ematch(g, r.lhs)) for r in rs), counts=True)
        timed("probe.count_designs", g.count_designs)
        timed("probe.rebuild", g.rebuild)
        root.end = time.perf_counter()
