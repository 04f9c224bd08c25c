"""Minimum-cost extraction: pick one node per needed class, acyclically.

Selecting a node makes every child class needed. Combinational child edges
must respect a topological order; register data and enable edges read state
from the previous cycle and are exempt. Solved by depth-first branch and
bound with the original design seeding the incumbent, so a feasible answer
always exists and the objective can only improve on the baseline. egg's
greedy selection replaces that incumbent when it is cheaper.
"""

import math
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .egraph import (
    EGraph,
    EGraphError,
    ENode,
    closes_cycle,
    combinational_edges,
    node_key,
    strongly_connected,
)
from .ir import Design, DesignBuilder


@dataclass
class SelectionProblem:
    g: EGraph
    roots: list[int]
    # Canonical class -> {node: score}, ordered by score, then node key.
    scores: dict[int, dict[ENode, float]]
    incumbent: dict[int, ENode] | None = None


@dataclass
class SolverStats:
    explored: int = 0
    proven_optimal: bool = False
    # The incumbent the search starts from: "design" (the problem's
    # incumbent) or "greedy" (see `_greedy`), and its objective.
    start: str | None = None
    start_objective: float | None = None
    # The bound at the root, the sum of h over the roots' forced sets; None
    # if set-up ran out of budget. An unproven run is within objective
    # minus root_bound of the optimum.
    root_bound: float | None = None


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
    """Package per-node scores into a selection problem over the graph, each
    class's nodes ranked by score, then node key: `nodes_of` lists them by
    node key and the sort is stable.

    Every member needs a finite score of at least 0, the only scores the
    search's bound and the greedy start hold for, and every incumbent entry
    must pick a member of its class. Raises EGraphError otherwise."""
    roots = [g.find(c) for c in (roots if roots is not None else g.root_classes())]
    ranked = {}
    for cid in g.class_ids():
        per = scores.get(cid, {})
        nodes = g.nodes_of(cid)
        if not nodes:
            raise EGraphError(f"class {cid} has no candidate nodes")
        for n in nodes:
            s = per.get(n)
            if s is None or not 0.0 <= s < math.inf:
                raise EGraphError(f"class {cid}: node {n} needs a finite score >= 0, got {s}")
        ranked[cid] = {n: per[n] for n in sorted(nodes, key=per.__getitem__)}
    for cid, n in (incumbent or {}).items():
        if n not in ranked.get(cid, ()):
            raise EGraphError(f"incumbent picks {n} for class {cid}, not one of its members")
    return SelectionProblem(g, roots, ranked, incumbent)


def seed_from_design(g: EGraph, design: Design) -> dict[int, ENode]:
    """The original design as a selection: one of its own members per design
    class, combinationally acyclic.

    Each class takes its smallest design member by node key. After
    rewriting, that member can read its own class: `(or a a)` lands in the
    class of `a`. Every class on such a cycle takes instead its member of
    lowest design index; that member reads only classes of earlier design
    nodes, so the replacements repeat until no cycle is left.
    """
    choice: dict[int, ENode] = {}
    first: dict[int, ENode] = {}
    for cid, nodes in g.design_enodes(design).items():
        choice[cid] = min(nodes, key=node_key)
        first[cid] = nodes[0]
    while True:
        reads = combinational_edges(g, choice)
        cyclic = [c for comp in strongly_connected(reads) if closes_cycle(comp, reads)
                  for c in comp if choice[c] != first[c]]
        if not cyclic:
            return choice
        for cid in cyclic:
            choice[cid] = first[cid]


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
    """The correctly rounded sum of the scores of the chosen nodes the roots
    read, so it depends on the selection only, not on the order of `choice`
    or on chosen classes no root needs. Raises EGraphError if the selection
    misses a needed class."""
    picked = _closure(problem.g, choice, problem.roots)
    return math.fsum([problem.scores[cid][n] for cid, n in picked.items()])


# A search row: (score, node, classes choosing the node makes needed that
# the class's own forced set does not already hold, combinational child
# classes). Register children are not ordering edges.
_Row = tuple[float, ENode, tuple[int, ...], tuple[int, ...]]


class _OutOfTime(Exception):
    """The deadline passed; `solve` returns its incumbent unproven."""


def _check_clock(deadline: float | None) -> None:
    """Raise _OutOfTime once the deadline has passed: `solve`'s one comparison
    of the clock with the deadline, in set-up and every 256 search nodes."""
    if deadline is not None and time.monotonic() > deadline:
        raise _OutOfTime


def _search_rows(
    problem: SelectionProblem, roots: list[int], deadline: float | None
) -> tuple[dict[int, list[_Row]], list[tuple[list[int], bool]], dict[int, int], set[int]]:
    """Per class: search rows, made once per candidate with its canonical
    child classes. Then the graph's `class_order`; each class's parent class
    while it has only one; and the classes that cannot be exclusive (see
    `_bound_tables`).

    A row with the score, child classes and register flag of an earlier row
    is its twin: its subtree is a copy whose leaves differ only in this
    class's node, which sorts later by node key, so it is left out.
    """
    find = problem.g.find
    rows_of: dict[int, list[_Row]] = {}
    parent: dict[int, int] = {}  # class -> its parent class, while it has one
    shared = set(roots)  # classes that cannot be exclusive
    for cid, ranked in problem.scores.items():
        _check_clock(deadline)
        out, seen = [], set()
        for n, score in ranked.items():
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
    return rows_of, problem.g.class_order(), parent, shared


def _greedy(
    rows_of: dict[int, list[_Row]], order: list[tuple[list[int], bool]], roots: list[int],
    deadline: float | None,
) -> dict[int, ENode]:
    """egg's greedy extraction over the search rows: the closure from the
    roots of each class's cheapest row by tree cost.

    A class's tree cost is the least, over its rows, of the row's score
    plus the tree costs of its child classes, so a class read twice is
    counted twice. Costs are computed children first over the components,
    sweeping a cyclic one until no cost falls; a class keeps the first row
    that lowered its cost. Scores are at least 0 (`build_problem`), so each
    sweep settles one more class, and one sweep per member and one to
    confirm suffice. Every class gets a finite cost, since the member that
    made it reads only older classes. A kept row costs at least each of its
    children, whose costs only fall afterwards, so the picks close no
    cycle, register edges included.
    """
    cost: dict[int, float] = {}
    pick: dict[int, _Row] = {}
    inf = math.inf
    for comp, cyclic in order:
        _check_clock(deadline)
        for _ in range(len(comp) + 1 if cyclic else 1):
            fell = False
            for c in comp:
                best = cost.get(c, inf)
                for row in rows_of[c]:
                    if row[0] >= best:
                        break  # rows are sorted by score; children add at least 0
                    v = row[0] + sum([cost.get(d, inf) for d in row[2]])
                    if v < best:
                        best = v
                        pick[c] = row
                        fell = True
                cost[c] = best
            if not fell:
                break
    chosen: dict[int, ENode] = {}
    stack = list(roots)
    while stack:
        c = stack.pop()
        if c not in chosen:
            _score, chosen[c], children, _comb = pick[c]
            stack.extend(children)
    return chosen


def greedy_selection(problem: SelectionProblem) -> dict[int, ENode]:
    """The greedy selection `solve` starts from when it beats the
    incumbent (see `_greedy`)."""
    roots = sorted(set(problem.roots))
    rows_of, order, _parent, _shared = _search_rows(problem, roots, None)
    return _greedy(rows_of, order, roots, None)


def _bound_tables(
    rows_of: dict[int, list[_Row]], order: list[tuple[list[int], bool]], parent: dict[int, int],
    shared: set[int], deadline: float | None,
) -> tuple[dict[int, tuple[int, ...]], dict[int, float]]:
    """Per class: forced set and bound h.

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

    Both tables are computed children first over `EGraph.class_order`,
    iterating only inside cyclic components.
    Forced sets grow from {c} to a fixpoint. h rises from the cheapest row
    for at most one round per member; every iterate is a valid bound, and
    only a cycle of exclusive classes, which never becomes needed, would
    keep rising. Once a component is done, its rows in `rows_of` are
    rewritten to keep only the classes they add to the class's forced set,
    since that set is needed before the class is decided.
    """
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

    for comp, cyclic in order:
        _check_clock(deadline)
        for c in comp:
            forced[c] = (c,)
            h[c] = rows_of[c][0][0]
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
    return forced, h


def solve(problem: SelectionProblem, time_budget: float | None = None) -> ExtractionSolution:
    """Exact branch and bound; returns the incumbent if the budget runs out.

    Among the classes currently needed, the most constrained is decided
    first (Haralick and Elliott's fail-first order): a class with one
    candidate row, which does not branch, then the highest bound h per
    candidate row, then the lowest class id. Candidates are tried cheapest
    first. When a class becomes needed, its whole forced set (the classes
    every selection containing it contains) becomes needed with it. The
    bound adds, for each undecided needed class, h: the cheapest cost of the
    class together with its exclusive descendants, classes that only it can
    make needed (see `_bound_tables`). Ties on the objective resolve to the
    selection that is lexicographically smallest by (class id, node key).
    The search starts from the problem's incumbent, or from egg's greedy
    selection (see `_greedy`) if that is cheaper by more than the 1e-9 tie
    tolerance; a better start only prunes more, since ties are still
    explored. The budget covers the whole call, set-up included; if it is
    spent when set-up ends, the start comes back unproven. Pruning compares
    costs summed along the search path; the objective returned is
    `selection_cost` of the answer.

    The search runs on an explicit stack, so its depth is not limited by
    Python's recursion limit. One frame per decided class holds
    [class, candidate rows, next row, cost, bound of the other undecided
    classes, classes the current row made needed]; the undecided set, a
    heap that yields its least-ranked class, and the selection are updated
    in place and undone on backtrack.
    """
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    roots = sorted(set(problem.roots))

    best_choice: dict[int, ENode] | None = None
    best_cost = float("inf")
    best_key: tuple | None = None

    def sel_key(choice: dict[int, ENode]) -> tuple:
        return tuple(sorted((cid, node_key(n)) for cid, n in choice.items()))

    start = start_objective = None
    if problem.incumbent is not None:
        best_choice = _closure(problem.g, problem.incumbent, roots)
        best_cost = start_objective = selection_cost(problem, best_choice)
        best_key = sel_key(best_choice)
        start = "design"

    explored = 0
    root_bound = None
    try:
        rows_of, order, parent, shared = _search_rows(problem, roots, deadline)
        greedy = _greedy(rows_of, order, roots, deadline)
        greedy_cost = selection_cost(problem, greedy)
        if greedy_cost < best_cost - 1e-9:
            best_choice, best_key = greedy, sel_key(greedy)
            best_cost = start_objective = greedy_cost
            start = "greedy"
        forced, h = _bound_tables(rows_of, order, parent, shared, deadline)
        _check_clock(deadline)
        # A path back to a class over decided edges is a path in the class graph,
        # so only a class in a cyclic component can close a cycle.
        on_cycle = {c for comp, cyclic in order if cyclic for c in comp}

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

        # Decision order, most constrained first; the heap holds ranks.
        ranked = sorted(rows_of, key=lambda c: (len(rows_of[c]) > 1, -h[c] / len(rows_of[c]), c))
        rank = {c: i for i, c in enumerate(ranked)}

        undecided = {c for r in roots for c in forced[r]}
        # A min-heap of the ranks of the classes in `queued`: every undecided
        # class once, and classes that left the undecided set after they were
        # pushed, which are skipped when they come off it.
        queue = sorted(rank[c] for c in undecided)
        queued = set(undecided)
        frames: list[list] = []
        cost, lb = 0.0, sum(h[c] for c in undecided)
        root_bound = lb
        while True:
            # Visit the node (cost, lb): the selection in `choice`, `undecided` to go.
            explored += 1
            if explored % 256 == 0:
                _check_clock(deadline)
            if not undecided:
                if cost <= best_cost + 1e-9:
                    key = sel_key(choice)
                    if cost < best_cost - 1e-9 or key < best_key:
                        best_choice = dict(choice)
                        best_cost = cost
                        best_key = key
            elif cost + lb <= best_cost + 1e-9:
                cid = ranked[heappop(queue)]
                while cid not in undecided:
                    queued.remove(cid)
                    cid = ranked[heappop(queue)]
                queued.remove(cid)
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
                    if cid in comb or (cid in on_cycle and not decided.isdisjoint(comb)
                                       and reaches(comb, cid)):
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
                            if x not in queued:
                                queued.add(x)
                                heappush(queue, rank[x])
                    frame[2] = i
                    frame[5] = grown
                    cost = base + score
                    descend = True
                    break
                if descend:
                    break
                frames.pop()
                undecided.add(cid)
                queued.add(cid)
                heappush(queue, rank[cid])
            else:
                break  # no frame left: the search is exhausted
        proven = True
    except _OutOfTime:
        if best_choice is None:
            raise EGraphError("time budget spent before any feasible selection was found") from None
        proven = False
    return ExtractionSolution(best_choice, selection_cost(problem, best_choice),
                              SolverStats(explored, proven, start, start_objective, root_bound))


def reconstruct(g: EGraph, solution: ExtractionSolution, base: Design) -> Design:
    """Materialize the chosen nodes as a design with the base's port interface.

    A depth-first walk on an explicit stack: a class is built once its
    children are, and a class met again while its children are still being
    built closes a loop."""
    root_classes = g.design_classes(base)
    b = DesignBuilder(base.name)
    for port, width in base.inputs:
        b.add_input(port, width)
    memo: dict[int, int] = {}
    on_path: set[int] = set()  # classes whose children are being built
    for port, node_idx in base.outputs:
        root = g.find(root_classes[node_idx])
        stack = [root]
        while stack:
            cid = stack[-1]
            if cid in memo:
                stack.pop()
                continue
            n = solution.choice.get(cid)
            if n is None:
                raise EGraphError(f"no node chosen for needed class {cid}")
            children = [g.find(c) for c in n.children]
            if cid not in on_path:
                on_path.add(cid)
                for c in reversed(children):
                    if c in on_path:
                        raise EGraphError(
                            f"selected nodes form a register feedback loop at class {c}")
                    stack.append(c)
                continue
            stack.pop()
            on_path.discard(cid)
            if n.kind == "var":
                memo[cid] = b.var(n.port)
            elif n.kind == "const":
                memo[cid] = b.const(n.width, n.value)
            else:
                memo[cid] = b.op(n.kind, *(memo[c] for c in children), count=n.count)
        b.add_output(port, memo[root])
    return b.finish()


def lp_text(problem: SelectionProblem) -> str:
    """The selection ILP in LP file format, for cross-checking with an
    external solver. x_<class>_<i> picks a node, y_<class> marks a class
    needed, integer levels linearize the combinational acyclicity."""
    g = problem.g
    class_ids = sorted(problem.scores)
    big_m = len(class_ids) + 1
    obj_terms = []
    rows = []
    binaries = []
    generals = []
    for cid in class_ids:
        xs = []
        for i, (n, score) in enumerate(problem.scores[cid].items()):
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
