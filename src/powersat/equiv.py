"""Equivalence checking between designs: cosimulation, exhaustive enumeration,
and randomized rewrite-rule fuzzing.

`simulate_design` is a scalar interpreter written apart from the e-graph
simulator: it is the oracle for cosimulation and for the replay of every
mismatch. It returns every node's waveform; `cosimulate` runs the same loop
keeping only the outputs, dropping each other node's list once its last
reader is evaluated. Exhaustive enumeration runs the simulator's own
operators.
"""

import itertools
import operator
import random
from collections.abc import Callable, Collection
from dataclasses import dataclass

import numpy as np

from .egraph import EGraphError
from .ir import _EQUAL_WIDTH, Design, DesignBuilder
from .rewrite import (
    PConst,
    PConstOf,
    PNode,
    PRep,
    PVar,
    Pattern,
    Rewrite,
    Subst,
    subpatterns,
)
from .simulate import _apply
from .stimulus import Waveform, word_dtype


class EquivError(Exception):
    pass


@dataclass
class Mismatch:
    """Earliest observed divergence between two designs."""

    cycle: int
    port: str
    expected: int
    actual: int
    stimuli: dict[str, Waveform]

    def __str__(self) -> str:
        return (f"output {self.port!r} differs at cycle {self.cycle}: "
                f"expected {self.expected}, got {self.actual}")


# Operators whose result always fits the node's width, so it needs no mask.
_UNMASKED = {"and": operator.and_, "or": operator.or_, "xor": operator.xor,
             "mul": operator.mul}


def _interpret(
    d: Design, stimuli: dict[str, Waveform], cycles: int | None, keep: Collection[int]
) -> tuple[dict[str, Waveform], list[list[int] | None]]:
    """Outputs of one design and the waveforms of the nodes in `keep`, which
    holds the output nodes; every other node's list is dropped (None) once
    the last node reading it has been evaluated.

    Children precede their node, so each node's whole waveform is computed
    from its children's in one pass; only registers step through the cycles.
    """
    if cycles is None:
        cycles = min(stimuli[p].cycles for p, _ in d.inputs) if d.inputs else 0
    last_reader = list(range(len(d.nodes)))  # a node nobody reads goes once built
    for i, n in enumerate(d.nodes):
        for c in n.children:
            last_reader[c] = i
    drops: dict[int, list[int]] = {}
    for c, i in enumerate(last_reader):
        if c not in keep:
            drops.setdefault(i, []).append(c)
    values: list[list[int] | None] = []
    for i, n in enumerate(d.nodes):
        k = n.kind
        ch = [values[c] for c in n.children]
        mask = (1 << n.width) - 1
        if k == "var":
            src = stimuli[n.port]
            if src.width != n.width:
                raise EquivError(f"stimulus for {n.port!r} is {src.width} bits, want {n.width}")
            v = src.head(cycles)
        elif k == "const":
            v = [n.value] * cycles
        elif k in ("reg", "treg"):  # a treg passes its data while enabled, else holds
            v, q = [], 0
            for x, en in zip(*ch):
                if en:
                    q = x
                v.append(q)
            if k == "reg":  # shows what a treg showed the cycle before, 0 at first
                v = ([0] + v)[:-1]
        elif k == "mux":
            v = [x if s else y for s, x, y in zip(*ch)]
        elif k == "add":
            v = [(x + y) & mask for x, y in zip(*ch)]
        elif k == "add3":
            v = [(x + y + z) & mask for x, y, z in zip(*ch)]
        elif k == "sub":
            v = [(x - y) & mask for x, y in zip(*ch)]
        elif k in _UNMASKED:
            v = list(map(_UNMASKED[k], *ch))
        elif k == "not":
            v = [x ^ mask for x in ch[0]]
        elif k == "shl":
            v = [(x << sh) & mask if sh < n.width else 0 for x, sh in zip(*ch)]
        elif k == "shr":
            v = [x >> sh if sh < n.width else 0 for x, sh in zip(*ch)]
        elif k == "rep":  # the operand times 1 + 2^w + 2^2w + ... tiles it
            w = n.width // n.count
            tile = sum(1 << (j * w) for j in range(n.count))
            v = [x * tile for x in ch[0]]
        else:
            raise EquivError(f"cannot simulate {k!r}")
        values.append(v)
        for c in drops.get(i, ()):
            values[c] = None
    outputs = {p: Waveform(d.nodes[idx].width, values[idx]) for p, idx in d.outputs}
    return outputs, values


def simulate_design(
    d: Design, stimuli: dict[str, Waveform], cycles: int | None = None
) -> tuple[dict[str, Waveform], list[list[int]]]:
    """Outputs and per-node waveforms of one design under explicit stimuli,
    over `cycles` cycles, by default as many as the shortest input stimulus
    (none for a design without inputs)."""
    return _interpret(d, stimuli, cycles, range(len(d.nodes)))


def cosimulate(
    d1: Design, d2: Design, stimuli: dict[str, Waveform], cycles: int | None = None
) -> Mismatch | None:
    """Run both designs on the same stimuli, over `cycles` cycles as in
    `simulate_design`; None means cycle-for-cycle equal. Each design keeps
    only its output waveforms, so memory follows the nodes live at once, not
    the design's size."""
    if d1.signature() != d2.signature():
        raise EquivError(
            f"port signatures differ: {d1.signature()} vs {d2.signature()}"
        )
    out1 = _interpret(d1, stimuli, cycles, {idx for _, idx in d1.outputs})[0]
    out2 = _interpret(d2, stimuli, cycles, {idx for _, idx in d2.outputs})[0]
    if all(out1[port].values == out2[port].values for port, _ in d1.outputs):
        return None
    for i in range(min(len(w.values) for w in out1.values())):
        for port, _ in d1.outputs:
            a, b = out1[port].values[i], out2[port].values[i]
            if a != b:
                return Mismatch(i, port, a, b, stimuli)
    return None


# ---------------------------------------------------------------------------
# exhaustive checking
#
# Stream j sets the (port, cycle, bit) slot s to bit s of j: ports in order,
# each port's cycles in order, lowest bit first. Blocks of streams run through
# `simulate._apply`, every node over a (streams, cycles) array; the earliest
# mismatch (cycle, then output port order, then stream) is replayed through
# `cosimulate`, so the scalar interpreter reports it.

# Words a block holds over all nodes of both designs: about 8 MB at uint64.
_BLOCK_WORDS = 1 << 20


def _stream_words(d: Design, streams: np.ndarray, cycles: int) -> dict[str, np.ndarray]:
    """Each input port's words in the given streams, one row a stream. Built
    cycle-major and transposed, so numpy's inner loop runs over the streams."""
    words, slot = {}, 0
    for port, width in d.inputs:
        shifts = np.arange(slot, slot + width * cycles, width, dtype=np.uint64)
        words[port] = ((streams >> shifts[:, None]) & np.uint64((1 << width) - 1)).T
        slot += width * cycles
    return words


def _block_outputs(d: Design, words: dict, shape: tuple[int, int]) -> dict[str, np.ndarray]:
    """Each output port's (streams, cycles) words, every node by `_apply`."""
    values: list[np.ndarray] = []
    for n in d.nodes:
        if n.kind == "var":
            v = words[n.port]
        elif n.kind == "const":
            v = np.full(shape, n.value, dtype=word_dtype(n.width))
        else:
            v = _apply(n, [values[c] for c in n.children], [d.nodes[c].width for c in n.children])
        values.append(v)
    return {p: values[idx] for p, idx in d.outputs}


def exhaustive_check(d1: Design, d2: Design, max_cycles: int) -> Mismatch | None:
    """Compare two designs on every possible input stream of max_cycles cycles.

    The enumeration bound is (total input bits) * max_cycles <= 24."""
    if d1.signature() != d2.signature():
        raise EquivError("port signatures differ")
    total_bits = sum(w for _, w in d1.inputs) * max_cycles
    if total_bits > 24:
        raise EquivError(f"enumeration bound exceeded: {total_bits} stream bits > 24")
    block = max(1, _BLOCK_WORDS // ((len(d1.nodes) + len(d2.nodes)) * max(max_cycles, 1)))
    first = None  # (cycle, output position, stream) of the earliest mismatch
    for start in range(0, 1 << total_bits, block):
        streams = np.arange(start, min(start + block, 1 << total_bits), dtype=np.uint64)
        words = _stream_words(d1, streams, max_cycles)
        shape = (len(streams), max_cycles)
        out1, out2 = _block_outputs(d1, words, shape), _block_outputs(d2, words, shape)
        for pos, (port, _) in enumerate(d1.outputs):
            differ = out1[port] != out2[port]
            cycles = np.flatnonzero(differ.any(axis=0))
            if len(cycles):
                i = int(cycles[0])
                found = (i, pos, start + int(np.argmax(differ[:, i])))
                first = found if first is None else min(first, found)
        if first is not None and first[:2] == (0, 0):
            break  # no later stream can come before it
    if first is None:
        return None
    mm = cosimulate(d1, d2, _decode_scenario(d1, first[2], max_cycles), max_cycles)
    if mm is None:  # cannot happen; decoded from a differing scenario
        raise EquivError("scenario decode failed to reproduce mismatch")
    return mm


def _decode_scenario(d: Design, scenario: int, cycles: int) -> dict[str, Waveform]:
    words = _stream_words(d, np.array([scenario], dtype=np.uint64), cycles)
    return {port: Waveform(width, words[port][0]) for port, width in d.inputs}


# ---------------------------------------------------------------------------
# instantiating a rule's two sides as concrete designs (for fuzz testing)


class _Widths:
    """Union-find over pattern variable widths with forced values."""

    def __init__(self):
        self.parent: dict[str, str] = {}
        self.forced: dict[str, int] = {}

    def find(self, v: str) -> str:
        self.parent.setdefault(v, v)
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, x: str, y: str) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        fx, fy = self.forced.get(rx), self.forced.get(ry)
        if fx is not None and fy is not None and fx != fy:
            raise EGraphError(f"conflicting widths for {x} and {y}")
        self.parent[ry] = rx
        if fy is not None:
            self.forced[rx] = fy

    def force(self, v: str, k: int) -> None:
        r = self.find(v)
        prev = self.forced.get(r)
        if prev is not None and prev != k:
            raise EGraphError(f"conflicting widths for {v}")
        self.forced[r] = k


# Width handles: ("v", var), ("k", literal), ("s", h1, h2) for products,
# ("f",) for widths that adapt automatically (masks, built constants).
def _walk_widths(pat: Pattern, uf: _Widths, kinds: Subst):
    if isinstance(pat, PVar):
        return ("v", pat.name)
    if isinstance(pat, PConst):
        return ("k", pat.width)
    if isinstance(pat, PConstOf):
        return ("f",)
    if isinstance(pat, PRep):
        _force(_walk_widths(pat.child, uf, kinds), 1, uf)
        return ("f",)
    if isinstance(pat, PNode):
        kind = kinds[pat.kind_var] if pat.kind_var is not None else pat.kinds[0]
        hs = [_walk_widths(c, uf, kinds) for c in pat.children]
        if kind in _EQUAL_WIDTH:
            for other in hs[1:]:
                _unify(hs[0], other, uf)
            return _first_concrete(hs)
        if kind == "mux":
            _force(hs[0], 1, uf)
            _unify(hs[1], hs[2], uf)
            return _first_concrete(hs[1:])
        if kind in ("reg", "treg"):
            _force(hs[1], 1, uf)
            return hs[0]
        if kind == "mul":
            return ("s", hs[0], hs[1])
        if kind in ("shl", "shr", "not"):
            return hs[0]
    raise EGraphError(f"cannot solve widths for {pat!r}")


def _first_concrete(hs):
    for h in hs:
        if h[0] != "f":
            return h
    return ("f",)


def _unify(h1, h2, uf: _Widths) -> None:
    if h1[0] == "f" or h2[0] == "f":
        return
    if h1[0] == "s" and h2[0] == "s":
        _unify(h1[1], h2[1], uf)
        _unify(h1[2], h2[2], uf)
        return
    if h1[0] == "s" or h2[0] == "s":
        raise EGraphError("cannot unify a product width with a plain width")
    if h1[0] == "v" and h2[0] == "v":
        uf.union(h1[1], h2[1])
    elif h1[0] == "v":
        uf.force(h1[1], h2[1])
    elif h2[0] == "v":
        uf.force(h2[1], h1[1])
    elif h1[1] != h2[1]:
        raise EGraphError("conflicting literal widths")


def _force(h, k: int, uf: _Widths) -> None:
    if h[0] == "f":
        return
    if h[0] == "v":
        uf.force(h[1], k)
    elif h[0] == "k":
        if h[1] != k:
            raise EGraphError("conflicting literal widths")
    else:
        raise EGraphError("cannot force a product width")


def rule_vars(rule: Rewrite) -> list[str]:
    """Left-side variable names in first-visit pre-order; fuzz draws follow it."""
    return list(dict.fromkeys(p.name for p in subpatterns(rule.lhs) if isinstance(p, PVar)))


def rule_kind_vars(rule: Rewrite) -> dict[str, tuple[str, ...]]:
    """kind_var name -> admissible operator family, from the left side."""
    out: dict[str, tuple[str, ...]] = {}
    for p in subpatterns(rule.lhs):
        if isinstance(p, PNode) and p.kind_var is not None:
            out.setdefault(p.kind_var, p.kinds)
    return out


def solve_rule_widths(rule: Rewrite, kinds: Subst, pick: Callable[[str], int]) -> dict[str, int]:
    """Assign a width to every left-side variable; `pick` chooses free widths."""
    uf = _Widths()
    _walk_widths(rule.lhs, uf, kinds)
    chosen: dict[str, int] = {}
    widths: dict[str, int] = {}
    for name in rule_vars(rule):
        root = uf.find(name)
        if root not in chosen:
            chosen[root] = uf.forced.get(root, 0) or pick(root)
        widths[name] = chosen[root]
    return widths


def _build_pattern(pat: Pattern, b: DesignBuilder, widths: dict[str, int],
                   kinds: Subst, bindw: dict[str, int]) -> int:
    if isinstance(pat, PVar):
        return b.var(pat.name)
    if isinstance(pat, PConst):
        return b.const(pat.width, pat.value)
    if isinstance(pat, PConstOf):
        w = bindw.get(pat.width_of, widths.get(pat.width_of, 0))
        value = (1 << w) - 1 if pat.value == "ones" else int(pat.value)
        return b.const(w, value)
    if isinstance(pat, PRep):
        child = _build_pattern(pat.child, b, widths, kinds, bindw)
        count = bindw.get(pat.width_of, widths.get(pat.width_of, 0))
        return b.op("rep", child, count=count)
    if isinstance(pat, PNode):
        kind = kinds[pat.kind_var] if pat.kind_var is not None else pat.kinds[0]
        children = [_build_pattern(c, b, widths, kinds, bindw) for c in pat.children]
        idx = b.op(kind, *children)
        if pat.bind is not None:
            bindw[pat.bind] = b.nodes[idx].width
        return idx
    raise EGraphError(f"cannot build {pat!r}")


def rule_designs(rule: Rewrite, widths: dict[str, int], kinds: Subst) -> tuple[Design, Design]:
    """Both sides of a rule as designs over identical input ports."""
    names = rule_vars(rule)
    designs = []
    for tag, pat in (("lhs", rule.lhs), ("rhs", rule.rhs)):
        b = DesignBuilder(f"{rule.name.replace('-', '_')}_{tag}")
        for name in names:
            b.add_input(name, widths[name])
        bindw: dict[str, int] = dict(widths)
        out = _build_pattern(pat, b, widths, kinds, bindw)
        b.add_output("out", out)
        designs.append(b.finish())
    return designs[0], designs[1]


# A fuzz trial draws each width from 1 to this and runs this many cycles.
_FUZZ_MAX_WIDTH = 4
_FUZZ_CYCLES = 8


def sample_rule_instance(rule: Rewrite, rng: random.Random):
    """Random operator choices and widths for one fuzz trial."""
    kinds: Subst = {kv: rng.choice(family) for kv, family in rule_kind_vars(rule).items()}
    widths = solve_rule_widths(rule, kinds, lambda _root: rng.randint(1, _FUZZ_MAX_WIDTH))
    return rule_designs(rule, widths, kinds), widths, kinds


# ---------------------------------------------------------------------------
# rule fuzzing


@dataclass
class Counterexample:
    lhs: Design
    rhs: Design
    widths: dict[str, int]
    kinds: dict[str, str]
    mismatch: Mismatch


@dataclass
class FuzzResult:
    rule: str
    passed: bool
    trials: int
    counterexample: Counterexample | None = None


def _random_stimuli(d: Design, rng: random.Random, cycles: int) -> dict[str, Waveform]:
    return {
        port: Waveform(width, [rng.getrandbits(width) for _ in range(cycles)])
        for port, width in d.inputs
    }


def _shrink(rule: Rewrite, kinds: dict, found: Counterexample) -> Counterexample:
    """Prefer the smallest witness: all widths 1, then the shortest stream."""
    try:
        widths1 = solve_rule_widths(rule, kinds, lambda _root: 1)
        lhs1, rhs1 = rule_designs(rule, widths1, kinds)
        for cycles in range(1, 5):
            if sum(w for _, w in lhs1.inputs) * cycles > 24:
                break
            mm = exhaustive_check(lhs1, rhs1, cycles)
            if mm is not None:
                return Counterexample(lhs1, rhs1, widths1, dict(kinds), mm)
    except EquivError:
        pass
    cut = found.mismatch.cycle + 1
    trimmed = {p: Waveform(w.width, w.values[:cut]) for p, w in found.mismatch.stimuli.items()}
    mm = cosimulate(found.lhs, found.rhs, trimmed)
    if mm is not None:
        return Counterexample(found.lhs, found.rhs, found.widths, found.kinds, mm)
    return found


def fuzz_rule(rule: Rewrite, trials: int = 1000, seed: int = 0) -> FuzzResult:
    """Random instantiations of both rule sides cosimulated on random streams.
    A counterexample is shrunk toward width 1 and the fewest cycles."""
    rng = random.Random(seed)
    for t in range(1, trials + 1):
        (lhs, rhs), widths, kinds = sample_rule_instance(rule, rng)
        stimuli = _random_stimuli(lhs, rng, _FUZZ_CYCLES)
        mm = cosimulate(lhs, rhs, stimuli)
        if mm is not None:
            found = Counterexample(lhs, rhs, widths, dict(kinds), mm)
            return FuzzResult(rule.name, False, t, _shrink(rule, kinds, found))
    return FuzzResult(rule.name, True, trials)


def exhaustive_rule_check(rule: Rewrite, cycles: int = 4) -> Counterexample | None:
    """Width-1 instantiation of every operator combination, checked on every
    input stream of the given length."""
    families = rule_kind_vars(rule)
    names = sorted(families)
    for combo in itertools.product(*(families[n] for n in names)):
        kinds = dict(zip(names, combo))
        widths = solve_rule_widths(rule, kinds, lambda _root: 1)
        lhs, rhs = rule_designs(rule, widths, kinds)
        mm = exhaustive_check(lhs, rhs, cycles)
        if mm is not None:
            return Counterexample(lhs, rhs, widths, kinds, mm)
    return None
