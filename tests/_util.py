"""Shared test helpers: random designs, random e-graphs, brute-force extraction."""

import os
import random
import tracemalloc
from pathlib import Path

from powersat.egraph import EGraph, ENode, node_key
from powersat.ir import Design, DesignBuilder
from powersat.stimulus import Waveform

WIDTHS = (1, 2, 3, 4, 8)

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict[str, str]:
    """The environment with the package sources first on PYTHONPATH, for
    subprocesses that import powersat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env

_EQUAL_BIN = ("add", "sub", "and", "or", "xor")
# Draw weights of `random_design`: biased toward register-bearing graphs.
REGISTER_KINDS = ("add", "sub", "and", "or", "xor", "not", "mux", "shl", "shr",
                  "reg", "reg", "treg", "treg", "reg")
# Every operator the netlist format has, once each.
EVERY_KIND = ("add", "sub", "and", "or", "xor", "not", "mux", "shl", "shr",
              "mul", "add3", "rep", "reg", "treg")


def random_design(rng: random.Random, max_nodes: int = 10, name: str = "rand",
                  kinds: tuple[str, ...] = REGISTER_KINDS,
                  widths: tuple[int, ...] = WIDTHS) -> Design:
    """A small valid design with operators drawn from `kinds`, its word
    width drawn from `widths`."""
    b = DesignBuilder(name)
    pool: dict[int, list[int]] = {}

    def new_leaf(width: int) -> int:
        if not b.inputs or rng.random() < 0.7:
            port = f"p{len(b.inputs)}"
            b.add_input(port, width)
            idx = b.var(port)
        else:
            idx = b.const(width, rng.randrange(1 << width))
        pool.setdefault(width, []).append(idx)
        return idx

    def pick(width: int) -> int:
        if width not in pool:
            return new_leaf(width)
        return rng.choice(pool[width])

    w = rng.choice(widths)
    new_leaf(w)
    budget = rng.randint(3, max_nodes)
    attempts = 0
    while len(b.nodes) < budget and attempts < 100:  # interning may dedup draws
        attempts += 1
        kind = rng.choice(kinds)
        if kind in _EQUAL_BIN:
            idx = b.op(kind, pick(w), pick(w))
        elif kind == "add3":
            idx = b.op("add3", pick(w), pick(w), pick(w))
        elif kind == "mul":  # the operand widths split the word
            if w < 2:
                continue
            lo = rng.randint(1, w - 1)
            idx = b.op("mul", pick(lo), pick(w - lo))
        elif kind == "rep":
            part = rng.choice([k for k in range(1, w + 1) if w % k == 0])
            idx = b.op("rep", pick(part), count=w // part)
        elif kind == "not":
            idx = b.op("not", pick(w))
        elif kind == "mux":
            idx = b.op("mux", pick(1), pick(w), pick(w))
        elif kind in ("shl", "shr"):
            idx = b.op(kind, pick(w), pick(rng.choice((1, 2))))
        else:  # reg / treg
            idx = b.op(kind, pick(w), pick(1))
        pool.setdefault(w, []).append(idx)
    used = {c for n in b.nodes for c in n.children}
    sinks = [i for i in range(len(b.nodes)) if i not in used]
    for k, idx in enumerate(sinks):  # every node reachable from some output
        b.add_output(f"y{k}", idx)
    return b.finish()


def traced_peak(fn):
    """`fn()`'s result and the most bytes Python held at once while it ran,
    as tracemalloc counts them from its start."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def traced_held(fn):
    """`fn()`'s result and the bytes Python still holds, once it returns,
    of what it allocated, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        result = fn()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, held


def provenance_tags(g: EGraph) -> dict[ENode, tuple[int, str]]:
    """Every member of the graph with its (creation index, rule) tag, checking
    that no two members share a creation index: tags of forms that met in a
    rebuild collapse to one, and nothing else keeps a tag."""
    tags = {n: g.decode_tag(tag) for cls in g._classes.values()
            for n, tag in zip(cls.nodes[::2], cls.nodes[1::2])}
    assert len({index for index, _ in tags.values()}) == len(tags)
    assert all(g.provenance(n) == rule for n, (_, rule) in tags.items())
    return tags


def chain(depth: int) -> Design:
    """A `depth`-deep alternating add/xor chain over two inputs."""
    b = DesignBuilder("chain")
    b.add_input("a", 4)
    b.add_input("b", 4)
    top = b.var("a")
    for i in range(depth):
        top = b.op("add" if i % 2 else "xor", top, b.var("b"))
    b.add_output("y", top)
    return b.finish()


def flat_adders(outputs: int, width: int = 4) -> Design:
    """`outputs` independent adders, output y_i = (add a_i b_i): three
    classes per output, all needed, so one selection is as deep as the
    class count."""
    b = DesignBuilder("flat")
    for i in range(outputs):
        b.add_input(f"a{i}", width)
        b.add_input(f"b{i}", width)
    for i in range(outputs):
        b.add_output(f"y{i}", b.op("add", b.var(f"a{i}"), b.var(f"b{i}")))
    return b.finish()


def random_stimuli(rng: random.Random, design: Design, cycles: int) -> dict[str, Waveform]:
    return {
        p: Waveform(w, [rng.randrange(1 << w) for _ in range(cycles)])
        for p, w in design.inputs
    }


def random_egraph(rng: random.Random, max_classes: int = 12):
    """A synthetic e-graph, its roots, and random per-node scores.

    The graph starts as a DAG (so at least one acyclic selection exists) and
    then gets a few arbitrary equal-width merges, which is what produces
    multi-node classes and the occasional self-referential member.
    """
    g = EGraph()
    cids: list[int] = [g.add(ENode("var", (), 1, "v0"))]
    for i in range(1, rng.randint(2, 4)):
        cids.append(g.add(ENode("var", (), rng.choice((1, 2, 4)), f"v{i}")))

    target = rng.randint(len(cids) + 1, max_classes)
    while len(set(g.find(c) for c in cids)) < target:
        kind = rng.choice(("and", "or", "xor", "add", "not", "reg", "mux", "shl"))
        if kind == "not":
            a = rng.choice(cids)
            n = ENode("not", (a,), g.class_width(a))
        elif kind == "shl":
            a, s = rng.choice(cids), rng.choice(cids)
            n = ENode("shl", (a, s), g.class_width(a))
        elif kind == "reg":
            a = rng.choice(cids)
            en = rng.choice([c for c in cids if g.class_width(c) == 1])
            n = ENode("reg", (a, en), g.class_width(a))
        elif kind == "mux":
            w = g.class_width(rng.choice(cids))
            legs = [c for c in cids if g.class_width(c) == w]
            sel = [c for c in cids if g.class_width(c) == 1]
            n = ENode("mux", (rng.choice(sel), rng.choice(legs), rng.choice(legs)), w)
        else:
            w = g.class_width(rng.choice(cids))
            legs = [c for c in cids if g.class_width(c) == w]
            n = ENode(kind, (rng.choice(legs), rng.choice(legs)), w)
        cids.append(g.add(n))

    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(cids, 2)
        if g.class_width(a) == g.class_width(b):
            g.merge(a, b)
    g.rebuild()

    classes = g.class_ids()
    scores = {
        cid: {n: round(rng.uniform(0.5, 10.0), 3) for n in g.nodes_of(cid)}
        for cid in classes
    }
    roots = rng.sample(classes, k=min(len(classes), rng.randint(1, 2)))
    return g, roots, scores


def brute_force_leaves(g: EGraph, roots, scores) -> list[tuple[float, tuple, dict]]:
    """Every valid selection as (cost, key, choice), key being the choice
    sorted by (class id, node key).

    Mirrors the solver's validity notion (one node per needed class, children
    needed, combinational representative graph acyclic with register data
    edges exempt) but explores the whole tree with no pruning.
    """
    leaves = []

    def reaches(edges, src, dst):
        stack, seen = [src], set()
        while stack:
            x = stack.pop()
            if x == dst:
                return True
            if x not in seen:
                seen.add(x)
                stack.extend(edges.get(x, ()))
        return False

    def rec(undecided, choice, edges, cost):
        if not undecided:
            key = tuple(sorted((cid, node_key(n)) for cid, n in choice.items()))
            leaves.append((cost, key, dict(choice)))
            return
        cid = min(undecided)
        rest = undecided - {cid}
        for n in g.nodes_of(cid):
            children = {g.find(c) for c in n.children}
            comb = children if n.kind != "reg" else set()
            if any(reaches(edges, d, cid) for d in comb):
                continue
            choice[cid] = n
            edges[cid] = comb
            rec(rest | {d for d in children if d not in choice and d != cid},
                choice, edges, cost + scores[cid][n])
            del choice[cid]
            del edges[cid]

    rec({g.find(r) for r in roots}, {}, {}, 0.0)
    return leaves


def brute_force_min(g: EGraph, roots, scores):
    """The cheapest valid selection as (best_cost, best_choice).

    Among the selections within 1e-9 of the cheapest, the choice returned is
    the one lexicographically smallest by (class id, node key), the solver's
    tie-break. (inf, None) if no selection is valid.
    """
    leaves = brute_force_leaves(g, roots, scores)
    if not leaves:
        return float("inf"), None
    best_cost = min(cost for cost, _, _ in leaves)
    _, choice = min(((key, choice) for cost, key, choice in leaves
                     if cost <= best_cost + 1e-9), key=lambda leaf: leaf[0])
    return best_cost, choice


def cheapest_costlier_leaf(g: EGraph, roots, scores):
    """The cheapest valid selection costing more than the optimum (beyond
    the solver's 1e-9 tie tolerance), as (cost, choice), or None if every
    valid selection ties with the optimum. Seeded as the incumbent, it makes
    the solver prune with the tightest bound short of the optimum itself."""
    leaves = brute_force_leaves(g, roots, scores)
    if not leaves:
        return None
    best_cost = min(cost for cost, _, _ in leaves)
    above = [(cost, key, choice) for cost, key, choice in leaves if cost > best_cost + 1e-9]
    if not above:
        return None
    cost, _, choice = min(above, key=lambda leaf: leaf[:2])
    return cost, choice
