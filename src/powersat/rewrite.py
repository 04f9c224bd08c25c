"""Rewrite rules over the e-graph: patterns, matching, instantiation, saturation.

A mask written {w{s}} in datapath notation is materialized structurally as
And(x, Rep(w, s)) where s is a single select bit replicated to x's width.
"""

import functools
import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from .egraph import COUNT_CAP, EGraph, EGraphError
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

    def __post_init__(self):
        _validate_rule(self)


# ---------------------------------------------------------------------------
# matching
#
# Each distinct left side compiles once into one generated Python function:
# nested loops, one per operator, mask or constant of the pattern, in the
# order a depth-first match visits them. This is egg's e-matching machine
# (after de Moura and Bjorner, "Efficient E-Matching for SMT Solvers", CADE
# 2007) with its instructions turned into code; a loop interpreting them
# costs CPython as much as the nested generators it would replace. Which
# names are bound at each point is fixed by the pattern, so each bound class
# or operator lives in one local variable: a repeated name compiles to an
# equality test. A match is the tuple of the matched class and the bound
# locals, in the order of the matcher's `names`. The generated code reads
# e-nodes by index: kind 0, child i at 1 + i; a constant's value 2 and
# width 4; a replication's count 4. It reads child ids without `find`: a
# rebuilt graph's members have canonical children, and `apply_rules` and
# `ematch` match only rebuilt graphs.


class _Matcher(NamedTuple):
    """A compiled left side: `match(g)` lists the match keys: the class,
    then each bound class or operator, named by `names`."""

    match: Callable[[EGraph], list[tuple]]
    names: tuple[str, ...]


def _compile(pat: Pattern) -> _Matcher:
    lines = [
        "def match(g):",
        "    width = g.class_width",
        "    members = g.sorted_members()",
        "    out = []",
        "    seen = set()",
        "    for cid in g.class_ids():",
    ]
    namespace: dict[str, object] = {}  # the generated function's globals
    regs: dict[str, str] = {}  # bound name -> local holding its class or operator
    operators: set[str] = set()  # the names in regs that hold an operator
    fresh = itertools.count(1).__next__

    def emit(depth: int, line: str) -> None:
        lines.append("    " * depth + line)

    def class_reg(name: str) -> str | None:
        if name in operators:
            raise EGraphError(f"{name!r} names both an operator and a class")
        return regs.get(name)

    def bind_class(name: str, c: str, depth: int) -> int:
        bound = class_reg(name)
        if bound is None:
            regs[name] = c
            return depth
        emit(depth, f"if {c} == {bound}:")
        return depth + 1

    def step(goals: list[tuple[Pattern, str]], depth: int) -> None:
        # goals: the patterns still to match, each with the local holding its
        # canonical class; one loop per node pattern, nested in visit order
        if not goals:
            key = ", ".join(["cid", *regs.values()])
            emit(depth, f"key = ({key},)")
            emit(depth, "if key not in seen:")
            emit(depth + 1, "seen.add(key)")
            emit(depth + 1, "out.append(key)")
            return
        (p, c), rest = goals[0], goals[1:]
        n = f"n{fresh()}"
        if isinstance(p, PVar):
            step(rest, bind_class(p.name, c, depth))
        elif isinstance(p, PConst):
            emit(depth, f"for {n} in members[{c}]:")
            emit(depth + 1, f"if {n}[0] == 'const' and {n}[4] == {p.width} and {n}[2] == {p.value}:")
            step(rest, depth + 2)
            emit(depth + 2, "break")
        elif isinstance(p, PRep):
            of = class_reg(p.width_of)
            if of is None:
                raise EGraphError(f"PRep width reference {p.width_of!r} unbound before the PRep")
            emit(depth, f"w{n} = width({of})")
            emit(depth, f"for {n} in members[{c}]:")
            emit(depth + 1, f"if {n}[0] == 'rep' and {n}[4] == w{n}:")
            emit(depth + 2, f"c{n} = {n}[1]")
            step([(p.child, f"c{n}"), *rest], depth + 2)
        elif isinstance(p, PNode):
            if p.bind is not None:
                depth = bind_class(p.bind, c, depth)
            kv = p.kind_var
            if kv is not None and kv in regs and kv not in operators:
                raise EGraphError(f"{kv!r} names both an operator and a class")
            if len(p.kinds) == 1:
                test = f"{n}[0] == {p.kinds[0]!r}"
            else:
                namespace[f"K{n}"] = frozenset(p.kinds)
                test = f"{n}[0] in K{n}"
            if kv in operators:
                test += f" and {n}[0] == {regs[kv]}"
            emit(depth, f"for {n} in members[{c}]:")
            emit(depth + 1, f"if {test}:")
            if kv is not None and kv not in operators:
                operators.add(kv)
                regs[kv] = f"k{n}"
                emit(depth + 2, f"k{n} = {n}[0]")
            children = []
            for i, child in enumerate(p.children):
                emit(depth + 2, f"c{n}_{i} = {n}[{1 + i}]")
                children.append((child, f"c{n}_{i}"))
            step([*children, *rest], depth + 2)
        else:
            raise EGraphError(f"cannot match against {p!r}")

    step([(pat, "cid")], 2)
    lines.append("    return out")
    try:
        exec(compile("\n".join(lines), f"<match {pat!r}>", "exec"), namespace)
    except SyntaxError as e:  # CPython allows 20 nested loops
        raise EGraphError(f"pattern too deep to compile: {e.msg}") from e
    return _Matcher(namespace["match"], tuple(regs))


# Patterns are frozen values, so each distinct one compiles once.
_matcher = functools.cache(_compile)


def ematch(g: EGraph, pat: Pattern) -> list[tuple[int, Subst]]:
    """All (class, substitution) pairs where the pattern matches, deduplicated,
    in deterministic class-id order. Rebuilds the graph first: matchers read
    members' child ids as canonical."""
    g.rebuild()
    m = _matcher(pat)
    return [(key[0], dict(zip(m.names, key[1:]))) for key in m.match(g)]


# ---------------------------------------------------------------------------
# building
#
# Each right side compiles, per layout of the match keys, into one generated
# function `build(g, key)` that adds its nodes children first, each distinct
# subpattern once, and returns the root's canonical class. Each node is a
# plain tuple in ENode's layout, which `add_canonical` looks up in the
# hashcons and makes an ENode only when new, so a match that adds nothing
# costs a few hash lookups.


@functools.cache
def _width(kind: str, *widths: int) -> int:
    """`infer_width` for the builders, cached per operator and operand widths."""
    try:
        return infer_width(kind, widths)
    except WidthError as e:
        raise EGraphError(f"rewrite built an ill-formed {kind} node: {e}") from e


@functools.cache  # patterns are frozen values: each compiles once per layout
def _builder(pat: Pattern, names: tuple[str, ...]) -> Callable[[EGraph, tuple], int]:
    key = {name: f"key[{i}]" for i, name in enumerate(names, 1)}
    lines = ["def build(g, key):", "    find, add, W = g.find, g.add_canonical, g._width"]
    local: dict[Pattern, str] = {}  # subpattern -> the local holding its class

    def emit(p: Pattern) -> str:
        if p in local:
            return local[p]
        if isinstance(p, PVar):
            value = f"find({key[p.name]})"
        elif isinstance(p, PConst):
            value = f"add(('const', '', {p.value}, 0, {p.width}))"
        elif isinstance(p, PConstOf):
            w = f"W[{key[p.width_of]}]"
            value = f"add(('const', '', {f'(1 << {w}) - 1' if p.value == 'ones' else int(p.value)}, 0, {w}))"
        elif isinstance(p, PRep):
            child, count = emit(p.child), f"W[{key[p.width_of]}]"
            value = f"add(('rep', {child}, '', 0, {count}, {count} * W[{child}]))"
        else:
            kind = key[p.kind_var] if p.kind_var is not None else repr(p.kinds[0])
            children = [emit(child) for child in p.children]
            widths = ", ".join(f"W[{child}]" for child in children)
            value = f"add(({kind}, {''.join(f'{c}, ' for c in children)}'', 0, 0, width({kind}, {widths})))"
        local[p] = f"c{len(local)}"
        lines.append(f"    {local[p]} = {value}")
        return local[p]

    lines.append(f"    return {emit(pat)}")
    namespace = {"width": _width}
    exec(compile("\n".join(lines), f"<build {pat!r}>", "exec"), namespace)
    return namespace["build"]


def instantiate(g: EGraph, pat: Pattern, subst: Subst) -> int:
    """Build a pattern into the graph under a substitution; returns its
    canonical class."""
    return _builder(pat, tuple(subst))(g, (None, *subst.values()))


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


def subpatterns(pat: Pattern) -> Iterator[Pattern]:
    """The pattern and every pattern inside it, in pre-order: a node before
    its children, children left to right."""
    stack = [pat]
    while stack:
        p = stack.pop()
        yield p
        if isinstance(p, PRep):
            stack.append(p.child)
        elif isinstance(p, PNode):
            stack.extend(reversed(p.children))


def _names(pat: Pattern) -> set[str]:
    """Every name a pattern binds or reuses: variables, `bind` and `kind_var`."""
    out = set()
    for p in subpatterns(pat):
        if isinstance(p, PVar):
            out.add(p.name)
        elif isinstance(p, PNode):
            out.update(name for name in (p.bind, p.kind_var) if name)
    return out


def _validate_rule(r: Rewrite) -> None:
    """Reject a left side that cannot be matched (a PConstOf, or a PRep whose
    width name is bound only after it) and a right side that reads a name,
    width references included, the left side does not bind."""
    try:
        _matcher(r.lhs)
    except EGraphError as e:
        raise EGraphError(f"rule {r.name}: left side: {e}") from None
    widths = {p.width_of for p in subpatterns(r.rhs) if isinstance(p, (PRep, PConstOf))}
    loose = (_names(r.rhs) | widths) - _names(r.lhs)
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

    Matches are collected against the frozen graph, each distinct left side
    matched once for all the rules that share it, then built and merged as
    a batch, then congruence is rebuilt once per iteration. The
    graph only gains designs, so once the count reaches the cap it stays.
    The hashcons is compacted once at the end.
    """
    g.rebuild()
    report = RunReport()
    designs = 0
    # Each distinct left side's matcher, and per rule its name, the index of
    # its left side's match list and its builder.
    lhs_index = {lhs: i for i, lhs in enumerate(dict.fromkeys(r.lhs for r in rules))}
    matchers = [_matcher(lhs) for lhs in lhs_index]
    plan = [(r.name, lhs_index[r.lhs], _builder(r.rhs, _matcher(r.lhs).names)) for r in rules]
    find, width = g.find, g.class_width
    for it in range(1, max_iters + 1):
        before = g.version
        found = [m.match(g) for m in matchers]
        for name, i, build in plan:
            g.origin_tag = name
            try:
                for key in found[i]:
                    new_cid = build(g, key)
                    lhs_cid = find(key[0])
                    if new_cid != lhs_cid:
                        if width(lhs_cid) != width(new_cid):
                            raise EGraphError(f"rule {name} changed width on class {lhs_cid}")
                        g.merge(lhs_cid, new_cid)
            finally:
                g.origin_tag = "design"
        del found  # the match lists go before the rebuild grows the graph
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
    g.compact_hashcons()
    return report

