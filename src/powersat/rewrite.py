"""Rewrite rules over the e-graph: patterns, matching, instantiation, saturation.

A mask written {w{s}} in datapath notation is materialized structurally as
And(x, Rep(w, s)) where s is a single select bit replicated to x's width.
"""

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from .egraph import COUNT_CAP, EGraph, EGraphError, ENode
from .ir import WidthError, infer_width

Subst = dict[str, "int | str"]


@dataclass(frozen=True)
class PVar:
    """Matches any class and binds it."""

    name: str


@dataclass(frozen=True)
class PConst:
    """Matches (or builds) a literal constant."""

    width: int
    value: int


@dataclass(frozen=True)
class PConstOf:
    """Builds a constant as wide as a bound class; value is an int or "ones"."""

    width_of: str
    value: "int | str"


@dataclass(frozen=True)
class PRep:
    """A mask replication: a Rep node spreading one select bit to the width
    of the class bound as `width_of`."""

    child: "Pattern"
    width_of: str


@dataclass(frozen=True)
class PNode:
    """An operator node; `kinds` lists the admissible operators and
    `kind_var` binds whichever matched so the other side can reuse it."""

    kinds: tuple[str, ...]
    children: tuple["Pattern", ...]
    kind_var: str | None = None
    bind: str | None = None


Pattern = PVar | PConst | PConstOf | PRep | PNode


def _n(kind, *children, kind_var=None, bind=None) -> PNode:
    kinds = (kind,) if isinstance(kind, str) else tuple(kind)
    return PNode(kinds, tuple(children), kind_var, bind)


def _mask(x: Pattern, of: str, sel: Pattern) -> PNode:
    return _n("and", x, PRep(sel, of))


@dataclass(frozen=True)
class Rewrite:
    name: str
    group: str
    lhs: Pattern
    rhs: Pattern
    cond: Callable[[EGraph, Subst], bool] | None = None


# ---------------------------------------------------------------------------
# matching


def _match_children(g: EGraph, pats, classes, subst: Subst) -> Iterator[Subst]:
    if not pats:
        yield subst
        return
    for s in _match_class(g, pats[0], classes[0], subst):
        yield from _match_children(g, pats[1:], classes[1:], s)


def _match_class(g: EGraph, pat: Pattern, cid: int, subst: Subst) -> Iterator[Subst]:
    cid = g.find(cid)
    if isinstance(pat, PVar):
        bound = subst.get(pat.name)
        if bound is None:
            yield {**subst, pat.name: cid}
        elif g.find(bound) == cid:
            yield subst
        return
    if isinstance(pat, PConst):
        for n in g.nodes_of(cid):
            if n.kind == "const" and n.width == pat.width and n.value == pat.value:
                yield subst
                return
        return
    if isinstance(pat, PRep):
        of = subst.get(pat.width_of)
        if of is None:
            raise EGraphError(f"PRep width reference {pat.width_of!r} unbound at match time")
        want = g.class_width(of)
        for n in g.nodes_of(cid):
            if n.kind == "rep" and n.count == want:
                yield from _match_class(g, pat.child, n.children[0], subst)
        return
    if isinstance(pat, PNode):
        if pat.bind is not None:
            prev = subst.get(pat.bind)
            if prev is not None and g.find(prev) != cid:
                return
            subst = {**subst, pat.bind: cid}
        for n in g.nodes_of(cid):
            if n.kind not in pat.kinds:
                continue
            s0 = subst
            if pat.kind_var is not None:
                bound_kind = s0.get(pat.kind_var)
                if bound_kind is None:
                    s0 = {**s0, pat.kind_var: n.kind}
                elif bound_kind != n.kind:
                    continue
            yield from _match_children(g, pat.children, n.children, s0)
        return
    raise EGraphError(f"cannot match against {pat!r}")


def ematch(g: EGraph, pat: Pattern) -> list[tuple[int, Subst]]:
    """All (class, substitution) pairs where the pattern matches, deduplicated,
    in deterministic class-id order."""
    out = []
    seen = set()
    for cid in g.class_ids():
        for subst in _match_class(g, pat, cid, {}):
            key = (cid, tuple(sorted(subst.items())))
            if key not in seen:
                seen.add(key)
                out.append((cid, subst))
    return out


def instantiate(g: EGraph, pat: Pattern, subst: Subst) -> int:
    """Build a pattern into the graph under a substitution; returns its class."""
    if isinstance(pat, PVar):
        return g.find(subst[pat.name])
    if isinstance(pat, PConst):
        return g.add(ENode("const", (), pat.width, value=pat.value))
    if isinstance(pat, PConstOf):
        w = g.class_width(subst[pat.width_of])
        v = (1 << w) - 1 if pat.value == "ones" else int(pat.value)
        return g.add(ENode("const", (), w, value=v))
    if isinstance(pat, PRep):
        child = instantiate(g, pat.child, subst)
        count = g.class_width(subst[pat.width_of])
        width = count * g.class_width(child)
        return g.add(ENode("rep", (child,), width, count=count))
    if isinstance(pat, PNode):
        kind = subst[pat.kind_var] if pat.kind_var is not None else pat.kinds[0]
        children = tuple([instantiate(g, c, subst) for c in pat.children])
        widths = tuple(map(g.class_width, children))
        try:
            width = infer_width(kind, widths)
        except WidthError as e:
            raise EGraphError(f"rewrite built an ill-formed {kind} node: {e}") from e
        return g.add(ENode(kind, children, width))
    raise EGraphError(f"cannot instantiate {pat!r}")


# ---------------------------------------------------------------------------
# the rule library

# Operator families. Gating distributes through all of these because each
# maps all-zero operands to an all-zero result.
_OPS_MASK = ("mul", "shl", "shr", "add", "sub")
_OPS_MASK_LEFT = ("mul", "shl", "shr")
_OPS_ZERO = ("add", "sub", "mul", "and", "or", "xor", "shl", "shr")
_OPS_RETIME = ("and", "or", "xor")


def rule_library() -> list[Rewrite]:
    a, b, c = PVar("a"), PVar("b"), PVar("c")
    s, s1, s2, en = PVar("s"), PVar("s1"), PVar("s2"), PVar("en")
    one = PConst(1, 1)
    zero = PConst(1, 0)
    rules = [
        # -- data gating ---------------------------------------------------
        Rewrite("gate-left", "data-gate",
                _n("mux", s, b, c),
                _n("mux", s, _mask(b, "b", s), c)),
        Rewrite("gate-right", "data-gate",
                _n("mux", s, b, c),
                _n("mux", s, b, _mask(c, "c", _n("not", s)))),
        Rewrite("propagate-mask", "data-gate",
                _n("and", _n(_OPS_MASK, a, b, kind_var="op", bind="ab"), PRep(s, "ab")),
                _n(_OPS_MASK, _mask(a, "a", s), _mask(b, "b", s), kind_var="op")),
        Rewrite("propagate-mask-left", "data-gate",
                _n("and", _n(_OPS_MASK_LEFT, a, b, kind_var="op", bind="ab"), PRep(s, "ab")),
                _n(_OPS_MASK_LEFT, _mask(a, "a", s), b, kind_var="op")),
        Rewrite("propagate-mux-mask", "data-gate",
                _n("and", _n("mux", s1, a, b, bind="m"), PRep(s2, "m")),
                _n("mux", s1, _mask(a, "a", s2), _mask(b, "b", s2))),
        Rewrite("propagate-mux-mask-right", "data-gate",
                _n("and", _n("mux", s1, a, b, bind="m"), PRep(s2, "m")),
                _n("mux", _n("and", s1, s2), a, _mask(b, "b", s2))),
        Rewrite("propagate-mux-mask-left", "data-gate",
                _n("and", _n("mux", s1, a, b, bind="m"), PRep(s2, "m")),
                _n("mux", _n("or", s1, _n("not", s2)), _mask(a, "a", s2), b)),
        Rewrite("combine-masks", "data-gate",
                _n("and", _mask(a, "a", s1), PRep(s2, "a")),
                _mask(a, "a", _n("and", s1, s2))),
        # -- transparent registers ------------------------------------------
        Rewrite("transp-reg-left", "transparent-register",
                _n("mux", s, b, c),
                _n("mux", s, _n("treg", b, s), c)),
        Rewrite("transp-reg-right", "transparent-register",
                _n("mux", s, b, c),
                _n("mux", s, b, _n("treg", c, _n("not", s)))),
        Rewrite("transp-reg-mask", "transparent-register",
                _mask(a, "a", s),
                _n("and", _n("treg", a, s), PRep(s, "a"))),
        Rewrite("transp-reg-saturate", "transparent-register",
                _n("or", a, PRep(s, "a")),
                _n("or", _n("treg", a, _n("not", s)), PRep(s, "a"))),
        Rewrite("transp-reg-reg", "transparent-register",
                _n("reg", a, en),
                _n("reg", _n("treg", a, en), en)),
        Rewrite("propagate", "transparent-register",
                _n("treg", _n(_OPS_ZERO, a, b, kind_var="op"), s),
                _n(_OPS_ZERO, _n("treg", a, s), _n("treg", b, s), kind_var="op")),
        Rewrite("propagate-mux", "transparent-register",
                _n("treg", _n("mux", s1, a, b), s2),
                _n("mux", _n("treg", s1, s2), _n("treg", a, s2), _n("treg", b, s2))),
        # Sound only when both guards are the same signal: with independent
        # guards the inner latch can refresh while the combined one holds.
        Rewrite("combine-transp-reg", "transparent-register",
                _n("treg", _n("treg", a, s), s),
                _n("treg", a, _n("and", s, s))),
        # -- clock gating and retiming ---------------------------------------
        # Restricted to operators with op(0,0) = 0 so the cycle-0 register
        # output is preserved (nand/nor/xnor would flip it).
        Rewrite("retime-boolean", "clock-gate-retime",
                _n(_OPS_RETIME, _n("reg", a, en), _n("reg", b, en), kind_var="op"),
                _n("reg", _n(_OPS_RETIME, a, b, kind_var="op"), en)),
        Rewrite("clock-gate-reg", "clock-gate-retime",
                _n("treg", _n("reg", a, en), _n("reg", b, en)),
                _n("reg", a, _n("and", en, b))),
        # -- boolean ---------------------------------------------------------
        Rewrite("and-mask-identity", "boolean", _mask(a, "a", one), a),
        Rewrite("and-mask-annihilate", "boolean", _mask(a, "a", zero), PConstOf("a", 0)),
        Rewrite("or-mask-identity", "boolean", _n("or", a, PRep(zero, "a")), a),
        Rewrite("or-mask-saturate", "boolean", _n("or", a, PRep(one, "a")), PConstOf("a", "ones")),
        Rewrite("and-idempotent", "boolean", _n("and", a, a), a),
        Rewrite("or-idempotent", "boolean", _n("or", a, a), a),
        Rewrite("double-negation", "boolean", _n("not", _n("not", a)), a),
        Rewrite("de-morgan-and", "boolean",
                _n("not", _n("and", a, b)),
                _n("or", _n("not", a), _n("not", b))),
        Rewrite("de-morgan-or", "boolean",
                _n("not", _n("or", a, b)),
                _n("and", _n("not", a), _n("not", b))),
        Rewrite("and-commute", "boolean", _n("and", a, b), _n("and", b, a)),
        Rewrite("and-associate", "boolean",
                _n("and", _n("and", a, b), c),
                _n("and", a, _n("and", b, c))),
        # -- arithmetic --------------------------------------------------------
        Rewrite("add-commute", "arithmetic", _n("add", a, b), _n("add", b, a)),
        Rewrite("add-associate", "arithmetic",
                _n("add", _n("add", a, b), c),
                _n("add", a, _n("add", b, c))),
        Rewrite("add-cluster", "arithmetic",
                _n("add", _n("add", a, b), c),
                _n("add3", a, b, c)),
        Rewrite("add-uncluster", "arithmetic",
                _n("add3", a, b, c),
                _n("add", _n("add", a, b), c)),
        Rewrite("mux-op-distribute", "arithmetic",
                _n(_OPS_ZERO, _n("mux", s, a, b), c, kind_var="op"),
                _n("mux", s, _n(_OPS_ZERO, a, c, kind_var="op"), _n(_OPS_ZERO, b, c, kind_var="op"))),
        Rewrite("mux-op-factor", "arithmetic",
                _n("mux", s, _n(_OPS_ZERO, a, c, kind_var="op"), _n(_OPS_ZERO, b, c, kind_var="op")),
                _n(_OPS_ZERO, _n("mux", s, a, b), c, kind_var="op")),
    ]
    for r in rules:
        _validate_rule(r)
    return rules


def rules_by_name(names=None, disabled=()) -> list[Rewrite]:
    """The library, optionally filtered; unknown names raise ValueError."""
    lib = rule_library()
    known = {r.name for r in lib}
    for name in list(names or []) + list(disabled):
        if name not in known:
            raise ValueError(f"unknown rule {name!r}; known rules: {', '.join(sorted(known))}")
    if names is not None:
        lib = [r for r in lib if r.name in set(names)]
    return [r for r in lib if r.name not in set(disabled)]


def _pattern_vars(pat: Pattern, out: list[str]) -> None:
    if isinstance(pat, PVar):
        if pat.name not in out:
            out.append(pat.name)
    elif isinstance(pat, PRep):
        _pattern_vars(pat.child, out)
    elif isinstance(pat, PNode):
        for c in pat.children:
            _pattern_vars(c, out)


def _pattern_binds(pat: Pattern, out: set[str]) -> None:
    if isinstance(pat, PRep):
        _pattern_binds(pat.child, out)
    elif isinstance(pat, PNode):
        if pat.bind:
            out.add(pat.bind)
        if pat.kind_var:
            out.add(pat.kind_var)
        for c in pat.children:
            _pattern_binds(c, out)


def _validate_rule(r: Rewrite) -> None:
    lhs_vars: list[str] = []
    _pattern_vars(r.lhs, lhs_vars)
    binds: set[str] = set(lhs_vars)
    _pattern_binds(r.lhs, binds)
    rhs_vars: list[str] = []
    _pattern_vars(r.rhs, rhs_vars)
    rhs_refs = set(rhs_vars)
    _pattern_binds(r.rhs, rhs_refs)
    loose = rhs_refs - binds
    if loose:
        raise EGraphError(f"rule {r.name}: right side references unbound {sorted(loose)}")


# ---------------------------------------------------------------------------
# saturation


@dataclass
class IterationStats:
    iteration: int
    classes: int
    nodes: int
    designs: int


@dataclass
class RunReport:
    iterations: list[IterationStats] = field(default_factory=list)
    stop_reason: str = "iteration-limit"

    @property
    def saturated(self) -> bool:
        return self.stop_reason == "saturated"


def apply_rules(
    g: EGraph,
    rules: list[Rewrite],
    max_iters: int = 8,
    max_nodes: int = 50_000,
) -> RunReport:
    """Run every rule each iteration until saturation or a limit.

    Matches are collected against the frozen graph, then instantiated and
    merged as a batch, then congruence is rebuilt once per iteration. The
    graph only gains designs, so once the count reaches the cap it stays.
    """
    g.rebuild()
    report = RunReport()
    designs = 0
    for it in range(1, max_iters + 1):
        before = g.version
        matches: list[tuple[Rewrite, int, Subst]] = []
        for rule in rules:
            for cid, subst in ematch(g, rule.lhs):
                if rule.cond is None or rule.cond(g, subst):
                    matches.append((rule, cid, subst))
        for rule, cid, subst in matches:
            g.origin_tag = rule.name
            try:
                new_cid = instantiate(g, rule.rhs, subst)
            finally:
                g.origin_tag = "design"
            lhs_cid = g.find(cid)
            if g.class_width(lhs_cid) != g.class_width(new_cid):
                raise EGraphError(f"rule {rule.name} changed width on class {lhs_cid}")
            g.merge(lhs_cid, new_cid)
        g.rebuild()
        if designs != COUNT_CAP:
            designs = g.count_designs()
        nodes = g.enode_count()
        report.iterations.append(IterationStats(it, g.class_count(), nodes, designs))
        if nodes > max_nodes:
            report.stop_reason = "node-limit"
            break
        if g.version == before:
            report.stop_reason = "saturated"
            break
    return report

