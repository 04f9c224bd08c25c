"""Activity-weighted power scores: gate-count areas times mean toggle rates.

A node's score is area(n) * (T_out + sum of T_in) / (k + 1) where k is its
child count and each T is the word-level toggle rate of a class. The rates
are summed with one rounding (`math.fsum`), so the score does not depend on
the order of the operands: commuted nodes score bit-identically, which lets
extraction treat them as twins. Area mode replaces the toggle factor with 1
and reduces the objective to an area sum.
"""

import math
from dataclasses import dataclass, field

from .egraph import EGraph, ENode
from .simulate import ActivityStats


class PowerError(Exception):
    pass


@dataclass
class AreaModel:
    """Gate-count area per operator; `multipliers` rescale individual ops."""

    multipliers: dict[str, float] = field(default_factory=dict)

    def area(self, n: ENode, g: EGraph) -> float:
        scale = self.multipliers.get(n.kind, 1.0)
        return scale * self._base(n, g)

    def _base(self, n: ENode, g: EGraph) -> float:
        kind, w = n.kind, n.width
        if kind in ("var", "const", "rep"):
            return 0.0
        if kind in ("and", "or", "xor", "not"):
            return float(w)
        if kind == "mux":
            return 3.0 * w
        if kind in ("add", "sub"):
            return 5.0 * w
        if kind == "add3":
            return 8.0 * w
        if kind == "mul":
            wa = g.class_width(n.children[0])
            wb = g.class_width(n.children[1])
            area = 6.0 * wa * wb
            if _is_const_class(g, n.children[0]) or _is_const_class(g, n.children[1]):
                area /= 2.0
            return area
        if kind in ("shl", "shr"):
            if _is_const_class(g, n.children[1]):
                return 0.0
            return 3.0 * w * math.ceil(math.log2(w)) if w > 1 else 0.0
        if kind in ("reg", "treg"):
            return 4.0 * w
        raise PowerError(f"no area model for operator {kind!r}")


def _is_const_class(g: EGraph, cid: int) -> bool:
    return any(n.kind == "const" for n in g.nodes_of(cid))


def node_power(
    n: ENode,
    g: EGraph,
    stats: dict[int, ActivityStats],
    model: AreaModel | None = None,
    mode: str = "power",
    *,
    out_class: int,
) -> float:
    """Score one e-node of class `out_class` under the graph's activity statistics."""
    a = (model or AreaModel()).area(n, g)
    if mode == "area":
        return a
    if mode != "power":
        raise PowerError(f"unknown mode {mode!r}")
    if a == 0.0:
        return 0.0
    cid = g.find(out_class)
    t = math.fsum([stats[cid].word_rate, *(stats[g.find(c)].word_rate for c in n.children)])
    return a * t / (len(n.children) + 1)


def class_scores(
    g: EGraph,
    stats: dict[int, ActivityStats],
    model: AreaModel | None = None,
    mode: str = "power",
) -> dict[int, dict[ENode, float]]:
    """Score every member of every class; the extraction objective's inputs."""
    model = model or AreaModel()
    return {
        cid: {n: node_power(n, g, stats, model, mode, out_class=cid) for n in g.nodes_of(cid)}
        for cid in g.class_ids()
    }


def design_power(
    selection: dict[int, ENode],
    g: EGraph,
    stats: dict[int, ActivityStats],
    model: AreaModel | None = None,
    mode: str = "power",
) -> float:
    """Total score of a {class: node} selection, summed in its order."""
    total = 0.0
    for cid, n in selection.items():
        total += node_power(n, g, stats, model, mode, out_class=cid)
    return total
