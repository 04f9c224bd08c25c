"""Minimum-cost extraction: pick one node per needed class, acyclically.

Selecting a node makes every child class needed. Combinational child edges
must respect a topological order; register data and enable edges read state
from the previous cycle and are exempt. Solved by depth-first branch and
bound with the original design seeding the incumbent, so a feasible answer
always exists and the objective can only improve on the baseline.
"""

import time
from dataclasses import dataclass, field

from .egraph import (
    EGraph,
    EGraphError,
    ENode,
    closes_cycle,
    node_key,
    origin_choice,
    strongly_connected,
)
from .ir import Design, DesignBuilder


@dataclass
class SelectionProblem:
    g: EGraph
    roots: list[int]
    candidates: dict[int, list[tuple[float, tuple, ENode]]]  # sorted (score, key, node)
    incumbent: dict[int, ENode] | None = None


@dataclass
class SolverStats:
    explored: int = 0
    proven_optimal: bool = False


@dataclass
class ExtractionSolution:
    choice: dict[int, ENode] = field(default_factory=dict)
    objective: float = 0.0
    stats: SolverStats = field(default_factory=SolverStats)


def build_problem(
    g: EGraph,
    scores: dict[int, dict[ENode, float]],
    roots: list[int] | None = None,
    incumbent: dict[int, ENode] | None = None,
) -> SelectionProblem:
    """Package per-node scores into a selection problem over the graph."""
    roots = [g.find(c) for c in (roots if roots is not None else g.root_classes())]
    candidates = {}
    for cid in g.class_ids():
        per = scores[cid]
        ranked = sorted(((per[n], node_key(n), n) for n in g.nodes_of(cid)))
        if not ranked:
            raise EGraphError(f"class {cid} has no candidate nodes")
        candidates[cid] = ranked
    return SelectionProblem(g, roots, candidates, incumbent)


def seed_from_design(g: EGraph, design: Design) -> dict[int, ENode]:
    """The original design as a selection: each of its classes keeps its node."""
    return origin_choice(g, g.design_enodes(design))


def _closure(g: EGraph, choice: dict[int, ENode], roots: list[int]) -> dict[int, ENode]:
    """Restrict a selection to the classes actually reachable from the roots."""
    out: dict[int, ENode] = {}
    stack = [g.find(r) for r in roots]
    while stack:
        cid = stack.pop()
        if cid in out:
            continue
        n = choice.get(cid)
        if n is None:
            raise EGraphError(f"selection misses needed class {cid}")
        out[cid] = n
        stack.extend(g.find(c) for c in n.children)
    return out


def selection_cost(problem: SelectionProblem, choice: dict[int, ENode]) -> float:
    total = 0.0
    for cid, n in choice.items():
        per = {key: (s, nd) for s, key, nd in problem.candidates[problem.g.find(cid)]}
        s, _ = per[node_key(n)]
        total += s
    return total


# A search row: (score, node, classes choosing the node makes needed that
# the class's own forced set does not already hold, combinational child
# classes). Register children are not ordering edges.
_Row = tuple[float, ENode, tuple[int, ...], tuple[int, ...]]


def _late(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() > deadline


def _bound_tables(
    problem: SelectionProblem, roots: list[int], deadline: float | None
) -> tuple[dict[int, list[_Row]], dict[int, tuple[int, ...]], dict[int, float]] | None:
    """Per class: search rows, forced set and bound h. None once the
    deadline passes.

    Rows are made once per candidate, with its canonical child classes. A
    row with the score, child classes and register flag of an earlier row
    is its twin: its subtree is a copy whose leaves differ only in this
    class's node, which sorts later by node key, so it is left out.

    forced(c) = {c} ∪ ⋂_{rows n of c} ⋃_{d ∈ children(n)} forced(d) holds
    the classes every selection containing c contains, as a tuple that
    starts with c. It is closed: it holds the forced set of each member.

    A class d is exclusive if it has exactly one parent class p over all
    candidates, is not a root, is not its own parent and is in no other
    class's forced set. Any forced set holding d reaches it through p, so
    the last condition reads d ∉ forced(p). An exclusive class becomes
    needed only as a child of p's chosen row. So h(c), the least over rows
    n of score(n) plus h of the exclusive children of n, bounds c and its
    exclusive descendants, and the undecided classes' h never count a
    class twice.

    Both tables are computed children first over the strongly connected
    components of the class graph, iterating only inside cyclic ones.
    Forced sets grow from {c} to a fixpoint. h rises from the cheapest row
    for at most one round per member; every iterate is a valid bound, and
    only a cycle of exclusive classes, which never becomes needed, would
    keep rising. Once a component is done, its rows keep only the classes
    they add to the class's forced set, since that set is needed before
    the class is decided.
    """
    find = problem.g.find
    rows_of: dict[int, list[_Row]] = {}
    parent: dict[int, int] = {}  # class -> its parent class, while it has one
    shared = set(roots)  # classes that cannot be exclusive
    for cid, ranked in problem.candidates.items():
        if _late(deadline):
            return None
        out, seen = [], set()
        for score, _key, n in ranked:
            children = tuple({find(c) for c in n.children})
            twin = (score, frozenset(children), n.kind == "reg")
            if twin in seen:
                continue
            seen.add(twin)
            out.append((score, n, children, () if n.kind == "reg" else children))
            for d in children:
                if parent.setdefault(d, cid) != cid or d == cid:
                    shared.add(d)
        rows_of[cid] = out

    forced: dict[int, tuple[int, ...]] = {}
    h: dict[int, float] = {}

    def forced_of(c: int) -> tuple[int, ...]:
        common: set[int] | None = None
        for _score, _n, children, _comb in rows_of[c]:
            reach = {x for d in children for x in forced[d]}
            common = reach if common is None else common & reach
            if not common:
                return (c,)
        common.discard(c)
        return (c, *common)

    def h_of(c: int) -> float:
        mine = forced[c]
        return min(score + sum(h[d] for d in children
                               if d not in shared and parent[d] == c and d not in mine)
                   for score, _n, children, _comb in rows_of[c])

    succ = {cid: [d for row in out for d in row[2]] for cid, out in rows_of.items()}
    for comp in strongly_connected(succ):
        if _late(deadline):
            return None
        for c in comp:
            forced[c] = (c,)
            h[c] = rows_of[c][0][0]
        cyclic = closes_cycle(comp, succ)
        grew = True
        while grew:
            grew = False
            for c in comp:
                f = forced_of(c)
                if len(f) > len(forced[c]):
                    forced[c] = f
                    grew = cyclic
        for _ in range(len(comp) if cyclic else 1):
            rose = False
            for c in comp:
                v = h_of(c)
                if v > h[c]:
                    h[c] = v
                    rose = True
            if not rose:
                break
        for c in comp:
            mine = set(forced[c])
            rows_of[c] = [(score, n, tuple({x for d in children for x in forced[d]} - mine), comb)
                          for score, n, children, comb in rows_of[c]]
    return rows_of, forced, h


def solve(problem: SelectionProblem, time_budget: float | None = None) -> ExtractionSolution:
    """Exact branch and bound; returns the incumbent if the budget runs out.

    Classes are decided in ascending-id order among those currently needed;
    candidates are tried cheapest first. When a class becomes needed, its
    whole forced set (the classes every selection containing it contains)
    becomes needed with it. The bound adds, for each undecided needed class,
    h: the cheapest cost of the class together with its exclusive
    descendants, classes that only it can make needed (see
    `_bound_tables`). Ties on the objective resolve to the selection that is
    lexicographically smallest by (class id, node key). The budget covers
    the whole call, set-up included; if it is spent when set-up ends, the
    incumbent comes back unproven.

    The search runs on an explicit stack, so its depth is not limited by
    Python's recursion limit. One frame per decided class holds
    [class, candidate rows, next row, cost, bound of the other undecided
    classes, classes the current row made needed]; the undecided set and
    the selection are updated in place and undone on backtrack.
    """
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    roots = sorted(set(problem.roots))

    best_choice: dict[int, ENode] | None = None
    best_cost = float("inf")
    best_key: tuple | None = None

    def sel_key(choice: dict[int, ENode]) -> tuple:
        return tuple(sorted((cid, node_key(n)) for cid, n in choice.items()))

    if problem.incumbent is not None:
        seeded = _closure(problem.g, problem.incumbent, roots)
        best_choice = seeded
        best_cost = selection_cost(problem, seeded)
        best_key = sel_key(seeded)

    tables = _bound_tables(problem, roots, deadline)
    if tables is None or _late(deadline):
        if best_choice is None:
            raise EGraphError("time budget spent before any feasible selection was found")
        return ExtractionSolution(best_choice, best_cost, SolverStats(0, False))
    rows_of, forced, h = tables

    choice: dict[int, ENode] = {}
    edges: dict[int, tuple[int, ...]] = {}  # decided class -> its combinational children
    decided = edges.keys()

    def reaches(srcs: tuple[int, ...], dst: int) -> bool:
        stack, seen = list(srcs), set()
        while stack:
            x = stack.pop()
            if x == dst:
                return True
            if x in seen:
                continue
            seen.add(x)
            stack.extend(edges.get(x, ()))
        return False

    undecided = {c for r in roots for c in forced[r]}
    frames: list[list] = []
    cost, lb = 0.0, sum(h[c] for c in undecided)
    explored = 0
    out_of_time = False
    while True:
        # Visit the node (cost, lb): the selection in `choice`, `undecided` to go.
        explored += 1
        if deadline is not None and explored % 256 == 0 and time.monotonic() > deadline:
            out_of_time = True
            break
        if not undecided:
            if cost <= best_cost + 1e-9:
                key = sel_key(choice)
                if cost < best_cost - 1e-9 or best_key is None or key < best_key:
                    best_choice = dict(choice)
                    best_cost = cost
                    best_key = key
        elif cost + lb <= best_cost + 1e-9:
            cid = min(undecided)
            undecided.remove(cid)
            frames.append([cid, rows_of[cid], 0, cost, lb - h[cid], ()])
        # Move to the next child of the deepest frame that has one left.
        while frames:
            frame = frames[-1]
            cid, cand_rows, i, base, rest_lb, grown = frame
            if i:  # undo the row tried last
                del choice[cid]
                del edges[cid]
                undecided.difference_update(grown)
            descend = False
            while i < len(cand_rows):
                score, n, needs, comb = cand_rows[i]
                i += 1
                if base + score + rest_lb > best_cost + 1e-9:
                    break  # rows are sorted; nothing cheaper follows
                # Only a decided class has edges, so only one can lead back to cid.
                if cid in comb or (not decided.isdisjoint(comb) and reaches(comb, cid)):
                    continue
                choice[cid] = n
                edges[cid] = comb
                lb = rest_lb
                grown = []
                for x in needs:
                    if x not in choice and x not in undecided:
                        undecided.add(x)
                        grown.append(x)
                        lb += h[x]
                frame[2] = i
                frame[5] = grown
                cost = base + score
                descend = True
                break
            if descend:
                break
            frames.pop()
            undecided.add(cid)
        else:
            break  # no frame left: the search is exhausted
    if best_choice is None:
        raise EGraphError("search exhausted with no feasible selection")
    return ExtractionSolution(best_choice, best_cost, SolverStats(explored, not out_of_time))


def reconstruct(g: EGraph, solution: ExtractionSolution, base: Design) -> Design:
    """Materialize the chosen nodes as a design with the base's port interface."""
    root_classes = g.design_classes(base)
    b = DesignBuilder(base.name)
    for port, width in base.inputs:
        b.add_input(port, width)
    memo: dict[int, int] = {}
    on_path: set[int] = set()

    def build(cid: int) -> int:
        cid = g.find(cid)
        if cid in memo:
            return memo[cid]
        if cid in on_path:
            raise EGraphError(f"selected nodes form a register feedback loop at class {cid}")
        on_path.add(cid)
        n = solution.choice.get(cid)
        if n is None:
            raise EGraphError(f"no node chosen for needed class {cid}")
        if n.kind == "var":
            idx = b.var(n.port)
        elif n.kind == "const":
            idx = b.const(n.width, n.value)
        else:
            idx = b.op(n.kind, *(build(c) for c in n.children), count=n.count)
        on_path.discard(cid)
        memo[cid] = idx
        return idx

    for port, node_idx in base.outputs:
        b.add_output(port, build(root_classes[node_idx]))
    return b.finish()


def lp_text(problem: SelectionProblem) -> str:
    """The selection ILP in LP file format, for cross-checking with an
    external solver. x_<class>_<i> picks a node, y_<class> marks a class
    needed, integer levels linearize the combinational acyclicity."""
    g = problem.g
    class_ids = sorted(problem.candidates)
    big_m = len(class_ids) + 1
    obj_terms = []
    rows = []
    binaries = []
    generals = []
    for cid in class_ids:
        ranked = problem.candidates[cid]
        xs = []
        for i, (score, _key, n) in enumerate(ranked):
            x = f"x_{cid}_{i}"
            xs.append(x)
            binaries.append(x)
            obj_terms.append(f"{score:.9g} {x}")
            for child in sorted({g.find(c) for c in n.children}):
                rows.append(f" dep_{x}_{child}: {x} - y_{child} <= 0")
            if n.kind != "reg":
                for child in sorted({g.find(c) for c in n.children}):
                    rows.append(
                        f" lvl_{x}_{child}: lvl_{child} - lvl_{cid} + {big_m} {x} <= {big_m - 1}"
                    )
        rows.append(f" sel_{cid}: " + " + ".join(xs) + f" - y_{cid} = 0")
        binaries.append(f"y_{cid}")
        generals.append(f"lvl_{cid}")
    for r in sorted(set(problem.roots)):
        rows.append(f" root_{r}: y_{r} = 1")
    lines = ["Minimize", " obj: " + (" + ".join(obj_terms) if obj_terms else "0")]
    lines.append("Subject To")
    lines.extend(rows)
    lines.append("Bounds")
    for v in generals:
        lines.append(f" 0 <= {v} <= {big_m}")
    lines.append("Binaries")
    lines.append(" " + " ".join(binaries))
    lines.append("Generals")
    lines.append(" " + " ".join(generals))
    lines.append("End")
    return "\n".join(lines) + "\n"
