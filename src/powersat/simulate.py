"""Cycle-accurate simulation of a whole e-graph via one representative per class.

Registers update from the previous cycle: a Reg's output at cycle i is its
data input at i-1 when enabled at i-1, the held value otherwise, and 0 at
cycle 0. A transparent register (Treg) passes its input combinationally while
enabled, holds while disabled, and reads 0 before its first enable.

Each representative is evaluated over its whole waveform at once by one entry
of `_OPS`, after the classes it reads. Only a group of classes that reads
itself through a register is stepped a cycle at a time, with the same table.

Class waveforms are stored in their width's `word_dtype`, 1 to 8 bytes a
cycle. Operators compute in uint64 (Python ints past 64 bits), and a result
narrows only after its width check.
"""

from dataclasses import dataclass

import numpy as np

from .egraph import (
    EGraph,
    ENode,
    closes_cycle,
    combinational_edges,
    origin_choice,
    strongly_connected,
)
from .stimulus import Waveform, word_dtype


class SimulationError(Exception):
    pass


def choose_representatives(
    g: EGraph, origin: dict[int, list[ENode]] | None = None
) -> dict[int, ENode]:
    """Pick one member per class so the induced graph is combinationally acyclic.

    Classes holding nodes of the seed design take those nodes first (the
    statistics then favor the designer's structure; see `origin_choice`);
    remaining classes are filled in rounds, each round admitting nodes whose
    combinational children are already assigned. Reg nodes read state, so
    they are always admissible.
    """
    rep: dict[int, ENode] = origin_choice(g, origin) if origin else {}

    def ready(n: ENode) -> bool:
        if n.kind == "reg":
            return True
        return all(g.find(c) in rep for c in n.children)

    pending = [c for c in g.class_ids() if c not in rep]
    while pending:
        progressed = False
        still = []
        for cid in pending:
            candidates = [n for n in g.nodes_of(cid) if ready(n)]
            if candidates:
                rep[cid] = candidates[0]  # nodes_of is sorted by node_key
                progressed = True
            else:
                still.append(cid)
        if not progressed:
            raise SimulationError(f"no acyclic representative choice for classes {still}")
        pending = still
    return rep


# -- operator semantics --------------------------------------------------------
#
# Every entry maps an e-node and its child waveforms, all of one work dtype
# (uint64, or Python ints when any word involved is wider than 64 bits), to the
# node's waveform. `k` turns a Python int into a scalar of that dtype, so no
# operation mixes uint64 with a signed or float type. Shift amounts are clamped
# before shifting (numpy leaves shifts by 64 or more undefined) and the
# out-of-range cycles are selected away afterwards.

def _hold(d: np.ndarray, en: np.ndarray) -> np.ndarray:
    """At each cycle, the sample of `d` from the last cycle `en` was set, else 0.
    Cycles run along the last axis, so a 2-D array holds one stream a row."""
    cycles = d.shape[-1]
    last = np.where(en != 0, np.arange(1, cycles + 1), 0)
    np.maximum.accumulate(last, axis=-1, out=last)
    padded = np.zeros(d.shape[:-1] + (cycles + 1,), d.dtype)
    padded[..., 1:] = d
    return np.take_along_axis(padded, last, axis=-1)


def _reg(n, k, d, en):
    out = np.zeros_like(d)
    out[..., 1:] = _hold(d, en)[..., :-1]
    return out


def _shl(n, k, a, sh):
    shifted = (a << np.minimum(sh, k(n.width - 1))) & k((1 << n.width) - 1)
    return np.where(sh < k(n.width), shifted, k(0))


def _shr(n, k, a, sh):
    return np.where(sh < k(n.width), a >> np.minimum(sh, k(n.width - 1)), k(0))


def _rep(n, k, a):
    part = n.width // n.count
    out = np.zeros_like(a)
    for j in range(n.count):
        out = out + (a << k(j * part))
    return out


_OPS = {
    "reg": _reg,
    "treg": lambda n, k, d, en: _hold(d, en),
    "mux": lambda n, k, s, a, b: np.where(s != 0, a, b),
    "add": lambda n, k, a, b: (a + b) & k((1 << n.width) - 1),
    "add3": lambda n, k, a, b, c: (a + b + c) & k((1 << n.width) - 1),
    "sub": lambda n, k, a, b: (a - b) & k((1 << n.width) - 1),
    "mul": lambda n, k, a, b: a * b,
    "and": lambda n, k, a, b: a & b,
    "or": lambda n, k, a, b: a | b,
    "xor": lambda n, k, a, b: a ^ b,
    "not": lambda n, k, a: a ^ k((1 << n.width) - 1),
    "shl": _shl,
    "shr": _shr,
    "rep": _rep,
}


def _apply(n: ENode, children: list[np.ndarray], widths: list[int]) -> np.ndarray:
    """One operator over its child waveforms (equal lengths, any word dtypes),
    computed in a work dtype: uint64, or Python ints past 64 bits. `_fit`
    narrows the result to storage.

    The work dtype covers the node and every child; for `mul` it covers the
    full product, so a product never wraps before the width check sees it.
    """
    op = _OPS.get(n.kind)
    if op is None:
        raise SimulationError(f"cannot simulate {n.kind!r}")
    widest = sum(widths) if n.kind == "mul" else max(widths, default=0)
    dtype = np.dtype(np.uint64) if max(n.width, widest) <= 64 else np.dtype(object)
    return op(n, dtype.type, *(c.astype(dtype, copy=False) for c in children))


def _node_wave(
    n: ENode, children: list[np.ndarray], widths: list[int], stimuli: dict[str, Waveform],
    cycles: int,
) -> np.ndarray:
    if n.kind == "var":
        if n.port not in stimuli:
            raise SimulationError(f"no stimulus for input port {n.port!r}")
        return stimuli[n.port].array[:cycles]
    if n.kind == "const":
        return np.full(cycles, n.value, dtype=word_dtype(n.width))
    return _apply(n, children, widths)


def _fit(values: np.ndarray, width: int, cid: int) -> np.ndarray:
    """Work-dtype `values` narrowed to the class's word dtype; raises first if
    any overflows the width, so a wide value never wraps into range."""
    if len(values) and int(values.max()) >> width:
        bad = next(int(v) for v in values if int(v) >> width)
        raise SimulationError(f"value {bad} overflows width of class {cid}")
    return values.astype(word_dtype(width), copy=False)


def _combinational_order(g: EGraph, rep: dict[int, ENode], group: list[int]) -> list[int]:
    """Members of a register loop, each after the members it reads this cycle."""
    reads = combinational_edges(g, {cid: rep[cid] for cid in group})
    parts = strongly_connected(reads)
    if any(closes_cycle(part, reads) for part in parts):
        raise SimulationError("combinational cycle among chosen representatives")
    return [part[0] for part in parts]


def _step_loop(
    g: EGraph, rep: dict[int, ENode], group: list[int], waves: dict[int, np.ndarray],
    cycles: int,
) -> None:
    """Simulate a group of classes that reads itself through a register, one
    cycle at a time: registers by their update rule, everything else by `_OPS`
    on the cycle's samples."""
    order = _combinational_order(g, rep, group)
    for cid in order:
        waves[cid] = np.zeros(cycles, dtype=word_dtype(rep[cid].width))
    plan = []
    for cid in order:
        n = rep[cid]
        children = [waves[g.find(c)] for c in n.children]
        plan.append((cid, n, children, [g.class_width(c) for c in n.children], waves[cid]))
    for i in range(cycles):
        for cid, n, ch, widths, own in plan:
            if n.kind == "reg":
                v = (ch[0][i - 1] if ch[1][i - 1] else own[i - 1]) if i else 0
            elif n.kind == "treg":
                v = ch[0][i] if ch[1][i] else (own[i - 1] if i else 0)
            else:
                v = _apply(n, [c[i:i + 1] for c in ch], widths)[0]
            if int(v) >> n.width:
                raise SimulationError(f"value {int(v)} overflows width of class {cid}")
            own[i] = v


def simulate(
    g: EGraph, rep: dict[int, ENode], stimuli: dict[str, Waveform]
) -> dict[int, Waveform]:
    """Waveform of every class under its representative. Every value is
    checked against the class width."""
    cycle_counts = {w.cycles for w in stimuli.values()}
    if len(cycle_counts) != 1:
        raise SimulationError(f"stimuli disagree on cycle count: {sorted(cycle_counts)}")
    cycles = cycle_counts.pop()
    reads = {cid: [g.find(c) for c in n.children] for cid, n in rep.items()}
    for cid, r in reads.items():
        if any(c not in rep for c in r):
            raise SimulationError(f"class {cid} reads a class with no representative")
    waves: dict[int, np.ndarray] = {}
    for group in strongly_connected(reads):
        if closes_cycle(group, reads):
            _step_loop(g, rep, group, waves, cycles)
            continue
        cid = group[0]
        n = rep[cid]
        out = _node_wave(n, [waves[c] for c in reads[cid]],
                         [g.class_width(c) for c in reads[cid]], stimuli, cycles)
        waves[cid] = out if n.kind in ("var", "const") else _fit(out, n.width, cid)
    return {cid: Waveform(rep[cid].width, w) for cid, w in waves.items()}


@dataclass(frozen=True)
class ActivityStats:
    """Switching statistics of one waveform."""

    width: int
    cycles: int
    toggles: tuple[int, ...]  # per-bit transition counts
    rates: tuple[float, ...]  # per-bit toggle rates, transitions/(cycles-1)
    word_rate: float  # arithmetic mean of the per-bit rates
    static_prob: tuple[float, ...]  # per-bit fraction of cycles spent at 1
    static_prob_mean: float


def _bit_counts(rows: np.ndarray, width: int) -> tuple[list[list[int]], list[list[int]]]:
    """Per-row, per-bit toggle and one counts of a (waveforms, cycles) matrix
    in the width's word dtype."""
    diff = rows[:, 1:] ^ rows[:, :-1]
    toggles = np.empty((len(rows), width), dtype=np.int64)
    ones = np.empty((len(rows), width), dtype=np.int64)
    for b in range(width):
        bit = rows.dtype.type(1 << b)
        toggles[:, b] = np.count_nonzero(diff & bit, axis=1)
        ones[:, b] = np.count_nonzero(rows & bit, axis=1)
    return toggles.tolist(), ones.tolist()


def _stats(width: int, cycles: int, toggles: list[int], ones: list[int]) -> ActivityStats:
    rates = tuple(t / (cycles - 1) for t in toggles)
    probs = tuple(o / cycles for o in ones)
    return ActivityStats(
        width=width,
        cycles=cycles,
        toggles=tuple(toggles),
        rates=rates,
        word_rate=sum(rates) / width,
        static_prob=probs,
        static_prob_mean=sum(probs) / width,
    )


def activity(w: Waveform) -> ActivityStats:
    """Per-bit and word-level toggle statistics of a waveform."""
    return graph_activity({0: w})[0]


# Waveforms counted per batch: bounds the temporaries of one batch to about a MB
# at 2,000 cycles and 8 bits.
_ACTIVITY_BATCH = 256


def graph_activity(waves: dict[int, Waveform]) -> dict[int, ActivityStats]:
    """`activity` of every waveform, counted in batches of equal shape."""
    shapes: dict[tuple[int, int], list[int]] = {}
    for cid, w in waves.items():
        if w.cycles < 2:
            raise SimulationError("activity needs at least two cycles")
        shapes.setdefault((w.width, w.cycles), []).append(cid)
    stats: dict[int, ActivityStats] = {}
    for (width, cycles), cids in shapes.items():
        for start in range(0, len(cids), _ACTIVITY_BATCH):
            batch = cids[start:start + _ACTIVITY_BATCH]
            rows = np.empty((len(batch), cycles), dtype=word_dtype(width))
            for i, cid in enumerate(batch):
                rows[i] = waves[cid].array
            toggles, ones = _bit_counts(rows, width)
            for cid, t, o in zip(batch, toggles, ones):
                stats[cid] = _stats(width, cycles, t, o)
    return {cid: stats[cid] for cid in waves}


def activity_csv(stats: dict[int, ActivityStats]) -> str:
    """CSV dump, one row per class: class_id,width,word_toggle_rate,static_prob_mean."""
    lines = ["class_id,width,word_toggle_rate,static_prob_mean"]
    for cid in sorted(stats):
        s = stats[cid]
        lines.append(f"{cid},{s.width},{s.word_rate:.6f},{s.static_prob_mean:.6f}")
    return "\n".join(lines) + "\n"


def class_consistency_mismatches(
    g: EGraph,
    rep: dict[int, ENode],
    waves: dict[int, Waveform],
    stimuli: dict[str, Waveform],
) -> list[tuple[int, ENode, int]]:
    """Every member of every class, simulated directly over its child class
    waveforms, must reproduce the class waveform. Returns (class, node,
    first differing cycle) triples; an empty list means consistent."""
    cycles = min(w.cycles for w in stimuli.values())
    bad = []
    for cid in g.class_ids():
        expect = waves[cid].array
        for n in g.nodes_of(cid):
            children = [waves[g.find(c)].array for c in n.children]
            got = _node_wave(n, children, [g.class_width(c) for c in n.children],
                             stimuli, cycles)
            differ = np.flatnonzero(got != expect)
            if len(differ):
                bad.append((cid, n, int(differ[0])))
    return bad
