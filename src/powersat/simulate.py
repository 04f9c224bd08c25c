"""Cycle-accurate simulation of a whole e-graph via one representative per class.

Registers update from the previous cycle: a Reg's output at cycle i is its
data input at i-1 when enabled at i-1, the held value otherwise, and 0 at
cycle 0. A transparent register (Treg) passes its input combinationally while
enabled, holds while disabled, and reads 0 before its first enable.

Every member of a class computes the class's waveform, so any one member
will do. Each class is simulated through its oldest member, which reads only
classes made before it, even where the class graph has a register loop. So
every representative is evaluated over its whole waveform at once by one
entry of `_OPS`, after the classes it reads; nothing steps a cycle at a time.

Class waveforms are stored in their width's `word_dtype`, 1 to 8 bytes a
cycle. Operators compute in uint64 (Python ints past 64 bits), and a result
narrows only after its width check. `class_waveforms` yields them one class
at a time and keeps each only until its last reader is simulated, so
`graph_activity` can count a whole graph without holding every waveform; it
counts them in batches of at most `_ACTIVITY_BYTES`, so its working set does
not grow with the cycle count either.
"""

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .egraph import EGraph, ENode
from .stimulus import StimulusError, Waveform, word_dtype


class SimulationError(Exception):
    pass


def choose_representatives(g: EGraph) -> dict[int, ENode]:
    """Each class's oldest member (`EGraph.oldest_member`), classes in the
    order those members were made.

    A class's maker reads only classes made before it, and a rebuild gives a
    re-canonicalized form the earliest tag of the forms that meet in it, so
    each representative reads only classes listed before its own: no loop of
    representatives exists, through a register or not.
    """
    made = sorted((g.oldest_member(cid), cid) for cid in g.class_ids())
    return {cid: n for (_, n), cid in made}


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
    computed in a work dtype: uint64, or Python ints past 64 bits. The
    class's `Waveform` checks the result against the width, then narrows it
    to storage.

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


def class_waveforms(
    g: EGraph, rep: dict[int, ENode], stimuli: dict[str, Waveform]
) -> Iterator[tuple[int, Waveform]]:
    """(class, waveform) of every class under its representative, in the
    order of `rep`, which must list each class after the classes it reads.
    Every value is checked against the class width. A class's array is
    dropped here once every class reading it has been simulated, so only
    the caller keeps what it has been given."""
    cycle_counts = {w.cycles for w in stimuli.values()}
    if not cycle_counts:
        raise SimulationError("no stimuli given, so no cycle count to simulate over")
    if len(cycle_counts) != 1:
        raise SimulationError(f"stimuli disagree on cycle count: {sorted(cycle_counts)}")
    cycles = cycle_counts.pop()
    reads = {cid: [g.find(c) for c in n.children] for cid, n in rep.items()}
    readers = dict.fromkeys(reads, 0)  # distinct classes still to read each class
    for cid, r in reads.items():
        if any(c not in rep for c in r):
            raise SimulationError(f"class {cid} reads a class with no representative")
        for c in set(r):
            readers[c] += 1
    waves: dict[int, np.ndarray] = {}
    for cid, n in rep.items():
        r = reads[cid]
        late = next((c for c in r if c not in waves), None)
        if late is not None:
            raise SimulationError(f"class {cid} is listed before class {late}, which it reads")
        out = _node_wave(n, [waves[c] for c in r], [g.class_width(c) for c in r], stimuli, cycles)
        try:
            wave = Waveform(n.width, out)  # checks the width, then narrows
        except StimulusError as e:
            raise SimulationError(f"class {cid}: {e}") from None
        waves[cid] = wave.array
        yield cid, wave
        for c in set(r):
            readers[c] -= 1
        for c in {cid, *r}:
            if not readers[c]:
                del waves[c]


def simulate(
    g: EGraph, rep: dict[int, ENode], stimuli: dict[str, Waveform]
) -> dict[int, Waveform]:
    """Waveform of every class under its representative, in simulation
    order (`class_waveforms`, held whole)."""
    return dict(class_waveforms(g, rep, stimuli))


@dataclass(frozen=True, slots=True)
class ActivityStats:
    """Switching statistics of one waveform: its per-bit toggle counts and
    the word rate scoring reads; the per-bit rates are derived on access."""

    width: int
    cycles: int
    toggles: tuple[int, ...]  # per-bit transition counts
    word_rate: float  # arithmetic mean of the per-bit rates

    @property
    def rates(self) -> tuple[float, ...]:
        """Per-bit toggle rates, transitions/(cycles-1)."""
        return tuple(t / (self.cycles - 1) for t in self.toggles)


def _bit_toggles(rows: np.ndarray, width: int) -> list[list[int]]:
    """Per-row, per-bit toggle counts of a (waveforms, cycles) matrix in the
    width's word dtype."""
    diff = rows[:, 1:] ^ rows[:, :-1]
    toggles = np.empty((len(rows), width), dtype=np.int64)
    for b in range(width):
        toggles[:, b] = np.count_nonzero(diff & rows.dtype.type(1 << b), axis=1)
    return toggles.tolist()


def activity(w: Waveform) -> ActivityStats:
    """Per-bit and word-level toggle statistics of a waveform."""
    return graph_activity({0: w})[0]


# Bytes of waveform rows counted per batch: 64 rows of 2,000 one-byte cycles.
# A batch holds as many rows as fit, at least one, so a batch and the few
# temporaries `_bit_toggles` makes of its size stay bounded at any cycle count
# and width.
_ACTIVITY_BYTES = 128_000


def _count_batch(width: int, cycles: int, batch: list[tuple[int, np.ndarray]],
                 stats: dict[int, ActivityStats]) -> None:
    rows = np.empty((len(batch), cycles), dtype=word_dtype(width))
    for i, (_, array) in enumerate(batch):
        rows[i] = array
    for (cid, _), toggles in zip(batch, _bit_toggles(rows, width)):
        word_rate = sum([t / (cycles - 1) for t in toggles]) / width
        stats[cid] = ActivityStats(width, cycles, tuple(toggles), word_rate)


def graph_activity(
    waves: dict[int, Waveform] | Iterable[tuple[int, Waveform]]
) -> dict[int, ActivityStats]:
    """`activity` of every waveform of a dict or a stream of (class,
    waveform) pairs, in the order given. Waveforms of one shape are counted
    once a batch of them fills `_ACTIVITY_BYTES`, then dropped, so a stream
    is never held whole."""
    pairs = waves.items() if isinstance(waves, dict) else waves
    pending: dict[tuple[int, int], list[tuple[int, np.ndarray]]] = {}
    stats: dict[int, ActivityStats] = {}
    order: list[int] = []
    for cid, w in pairs:
        array = w.array
        if len(array) < 2:
            raise SimulationError("activity needs at least two cycles")
        order.append(cid)
        batch = pending.setdefault((w.width, len(array)), [])
        batch.append((cid, array))
        if len(batch) >= max(1, _ACTIVITY_BYTES // array.nbytes):
            _count_batch(w.width, len(array), batch, stats)
            batch.clear()
    for (width, cycles), batch in pending.items():
        if batch:
            _count_batch(width, cycles, batch, stats)
    return {cid: stats[cid] for cid in order}


def activity_csv(stats: dict[int, ActivityStats]) -> str:
    """CSV dump, one row per class: class_id,width,word_toggle_rate."""
    lines = ["class_id,width,word_toggle_rate"]
    for cid in sorted(stats):
        s = stats[cid]
        lines.append(f"{cid},{s.width},{s.word_rate:.6f}")
    return "\n".join(lines) + "\n"


def class_consistency_mismatches(
    g: EGraph, waves: dict[int, Waveform], stimuli: dict[str, Waveform]
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
