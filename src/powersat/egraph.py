"""E-graph over netlist operators: union-find, hashconsing, and congruence rebuilding."""

from dataclasses import dataclass, field
from typing import NamedTuple

from .ir import Design

# Design-space counts saturate here so huge e-graphs stay cheap to summarize.
COUNT_CAP = (1 << 63) - 1


class EGraphError(Exception):
    """Internal invariant violation; indicates a bug, not bad user input."""


class ENode(NamedTuple):
    """An operator whose children are e-class ids.

    A tuple, so construction, hashing and equality run in C: rewriting
    spends most of its time building and looking up e-nodes.
    """

    kind: str
    children: tuple[int, ...] = ()
    width: int = 0
    port: str = ""
    value: int = 0
    count: int = 0


def node_key(n: ENode) -> tuple:
    """Stable sort key for e-nodes (Python's hash() is salted per process)."""
    return (n.kind, n.children, n.port, n.value, n.count)


def enode_of(design: Design, idx: int, classes: list[int]) -> ENode:
    n = design.nodes[idx]
    return ENode(n.kind, tuple(classes[c] for c in n.children), n.width, n.port, n.value, n.count)


class _EClass:
    __slots__ = ("nodes", "parents", "width")

    def __init__(self, width: int):
        self.nodes: set[ENode] = set()
        self.parents: list[tuple[ENode, int]] = []
        self.width = width


@dataclass
class RootInfo:
    """Output roots of the design the graph was seeded from."""

    ports: list[str] = field(default_factory=list)
    classes: list[int] = field(default_factory=list)


class EGraph:
    """Equality classes of netlist expressions with congruence closure.

    Merges queue the surviving class and leave congruence broken until
    rebuild() (deferred rebuilding, as in egg). Each class lists the
    (node, class) pairs that read it, so rebuild finds exactly the nodes a
    merge made stale.
    """

    def __init__(self):
        self._uf: list[int] = []
        self._classes: dict[int, _EClass] = {}
        self._hashcons: dict[ENode, int] = {}
        self._worklist: list[int] = []
        self.roots = RootInfo()
        # Bumped by any structural change; equal before/after means saturation.
        self.version = 0
        self._sorted_cache: dict[int, list[ENode]] = {}
        self._cache_version = -1
        # (creation index, rule) of the rewrite that introduced each node,
        # "design" for seeded nodes. A node re-canonicalized from older ones
        # keeps the tag of the earliest, so tags never follow set order.
        self.made_by: dict[ENode, tuple[int, str]] = {}
        self.origin_tag = "design"

    # -- union-find --------------------------------------------------------

    def find(self, c: int) -> int:
        if self._uf[c] == c:
            return c
        root = c
        while self._uf[root] != root:
            root = self._uf[root]
        while self._uf[c] != root:  # path compression
            self._uf[c], c = root, self._uf[c]
        return root

    def _fresh(self, width: int) -> int:
        cid = len(self._uf)
        self._uf.append(cid)
        self._classes[cid] = _EClass(width)
        return cid

    # -- construction ------------------------------------------------------

    def canonicalize(self, n: ENode) -> ENode:
        ch = tuple(map(self.find, n.children))
        if ch == n.children:
            return n
        out = ENode(n.kind, ch, n.width, n.port, n.value, n.count)
        tag = self.made_by.get(n)
        if tag is not None:
            prev = self.made_by.get(out)
            if prev is None or tag < prev:
                self.made_by[out] = tag
        return out

    def add(self, n: ENode) -> int:
        n = self.canonicalize(n)
        hit = self._hashcons.get(n)
        if hit is not None:
            return self.find(hit)
        cid = self._fresh(n.width)
        self._classes[cid].nodes.add(n)
        self.made_by.setdefault(n, (self.version, self.origin_tag))
        for c in set(n.children):
            self._classes[c].parents.append((n, cid))
        self._hashcons[n] = cid
        self.version += 1
        return cid

    def add_expr(self, design: Design) -> list[int]:
        """Insert every node of a design; returns one root class per output."""
        classes = self.design_classes(design)
        roots = [classes[idx] for _, idx in design.outputs]
        self.roots = RootInfo([p for p, _ in design.outputs], roots)
        return roots

    def design_classes(self, design: Design) -> list[int]:
        """Canonical class of each design node (idempotent re-insertion)."""
        classes: list[int] = []
        for i in range(len(design.nodes)):
            classes.append(self.add(enode_of(design, i, classes)))
        return classes

    def design_enodes(self, design: Design) -> dict[int, list[ENode]]:
        """Canonical members contributed by a design, grouped by class, each
        class's members in design order."""
        classes = self.design_classes(design)
        out: dict[int, list[ENode]] = {}
        for i in range(len(design.nodes)):
            n = self.canonicalize(enode_of(design, i, classes))
            members = out.setdefault(self.find(classes[i]), [])
            if n not in members:
                members.append(n)
        return out

    # -- merging and rebuilding --------------------------------------------

    def merge(self, a: int, b: int) -> int:
        a, b = self.find(a), self.find(b)
        if a == b:
            return a
        ca, cb = self._classes[a], self._classes[b]
        if ca.width != cb.width:
            raise EGraphError(f"merging classes of widths {ca.width} and {cb.width}")
        # Union by size of the node sets.
        if len(ca.nodes) < len(cb.nodes):
            a, b, ca, cb = b, a, cb, ca
        self._uf[b] = a
        ca.nodes |= cb.nodes
        ca.parents.extend(cb.parents)
        del self._classes[b]
        self._worklist.append(a)
        self.version += 1
        return a

    def _repair(self, cid: int, touched: set[int]) -> None:
        cls = self._classes.get(cid)
        if cls is None:
            return
        # Re-canonicalize parents; congruent parents collapse via the hashcons.
        # The list is detached first: merges below extend the survivor's list.
        old_parents, cls.parents = cls.parents, []
        for pnode, pcls in old_parents:
            self._hashcons.pop(pnode, None)
        fresh: dict[ENode, int] = {}
        for pnode, pcls in old_parents:
            n = self.canonicalize(pnode)
            pcls = self.find(pcls)
            if n in fresh and fresh[n] != pcls:
                pcls = self.merge(fresh[n], pcls)
            fresh[n] = pcls
            hit = self._hashcons.get(n)
            if hit is not None and self.find(hit) != pcls:
                pcls = self.merge(hit, pcls)
                fresh[n] = pcls
            self._hashcons[n] = pcls
        touched.update(fresh.values())
        self._classes[self.find(cid)].parents.extend(fresh.items())

    def rebuild(self) -> None:
        """Restore congruence in one worklist pass.

        A queued class re-canonicalizes its parents, merging those the
        hashcons shows congruent, which queues more classes; then the parent
        classes touched re-canonicalize their members. Hashcons keys with
        stale children remain but cannot be hit: a lookup's key has only
        root children, and a merged-away id never becomes a root again.
        """
        touched: set[int] = set()
        while self._worklist:
            todo = {self.find(c) for c in self._worklist}
            self._worklist.clear()
            for cid in sorted(todo):
                self._repair(cid, touched)
        for cid in {self.find(c) for c in touched}:
            cls = self._classes[cid]
            cls.nodes = {self.canonicalize(n) for n in cls.nodes}

    # -- queries -----------------------------------------------------------

    def class_ids(self) -> list[int]:
        return sorted(self._classes)

    def nodes_of(self, cid: int) -> list[ENode]:
        cid = self.find(cid)
        if self._cache_version != self.version:
            self._sorted_cache.clear()
            self._cache_version = self.version
        hit = self._sorted_cache.get(cid)
        if hit is None:
            hit = sorted(self._classes[cid].nodes, key=node_key)
            self._sorted_cache[cid] = hit
        return hit

    def class_width(self, cid: int) -> int:
        return self._classes[self.find(cid)].width

    def class_count(self) -> int:
        return len(self._classes)

    def enode_count(self) -> int:
        return sum(len(c.nodes) for c in self._classes.values())

    def root_classes(self) -> list[int]:
        return [self.find(c) for c in self.roots.classes]

    def provenance(self, n: ENode) -> str:
        """Name of the rewrite that first introduced this node."""
        tag = self.made_by.get(n)
        return "design" if tag is None else tag[1]

    def check_invariants(self) -> None:
        """Canonical ids and members, each member in one class, under its
        class in the hashcons and in the parent list of every child class;
        for tests and debugging."""
        listed = {cid: {(self.canonicalize(p), self.find(pc)) for p, pc in cls.parents}
                  for cid, cls in self._classes.items()}
        seen: dict[ENode, int] = {}
        for cid, cls in self._classes.items():
            if self.find(cid) != cid:
                raise EGraphError(f"class {cid} stored under a non-canonical id")
            for n in cls.nodes:
                if self.canonicalize(n) != n:
                    raise EGraphError(f"stale children in {n} of class {cid}")
                if n in seen:
                    raise EGraphError(f"{n} appears in classes {seen[n]} and {cid}")
                seen[n] = cid
                hit = self._hashcons.get(n)
                if hit is None or self.find(hit) != cid:
                    raise EGraphError(f"{n} of class {cid} is not in the hashcons under it")
                for c in n.children:
                    if (n, cid) not in listed[c]:
                        raise EGraphError(f"{n} of class {cid} is missing from class {c}'s parents")

    # -- summaries -----------------------------------------------------------

    def _count_pass(self, counts: dict[int, int]) -> list[int]:
        changed = []
        for cid in sorted(self._classes):
            total = 0
            for n in self._classes[cid].nodes:
                prod = 1
                for c in n.children:
                    prod *= counts[self.find(c)]
                    if prod == 0 or prod >= COUNT_CAP:
                        break
                total += min(prod, COUNT_CAP)
                if total >= COUNT_CAP:
                    total = COUNT_CAP
                    break
            if total > counts[cid]:
                counts[cid] = total
                changed.append(cid)
        return changed

    def count_designs(self, roots: list[int] | None = None) -> int:
        """Number of distinct expression trees reachable for the root classes.

        Monotone fixpoint from zero: a node contributes the product of its
        child class counts, a class sums its nodes, everything saturates at
        COUNT_CAP. Classes only reachable through themselves stay at zero.
        A class still growing once every acyclic dependency chain has had
        time to settle is fed by a productive cycle, so its limit is the cap.
        Counts only grow, so the fixpoint stops once the roots reach the cap.
        """
        if roots is None:
            roots = self.root_classes()
        roots = {self.find(c) for c in roots}
        counts = {cid: 0 for cid in self._classes}

        def product() -> int:
            result = 1
            for cid in roots:
                result = min(result * counts[cid], COUNT_CAP)
            return result

        limit = len(self._classes) + 1
        while True:
            changed: list[int] = []
            for _ in range(limit):
                changed = self._count_pass(counts)
                if not changed:
                    break
                if product() == COUNT_CAP:
                    return COUNT_CAP
            if not changed:
                return product()
            for cid in changed:
                counts[cid] = COUNT_CAP

    def render(self, n: ENode) -> str:
        """One e-node as text: `var:a`, `const:4'd3`, `rep8(c2)`, `add(c0,c1)`."""
        if n.kind == "var":
            return f"var:{n.port}"
        if n.kind == "const":
            return f"const:{n.width}'d{n.value}"
        name = f"rep{n.count}" if n.kind == "rep" else n.kind
        return f"{name}(" + ",".join(f"c{c}" for c in n.children) + ")"

    def dump(self) -> str:
        """One line per class: 'c<ID> w<WIDTH>: node node ...'."""
        lines = []
        for cid in self.class_ids():
            cls = self._classes[cid]
            rendered = " ".join(self.render(n) for n in self.nodes_of(cid))
            lines.append(f"c{cid} w{cls.width}: {rendered}")
        return "\n".join(lines) + "\n"


def strongly_connected(succ: dict[int, list[int]]) -> list[list[int]]:
    """Strongly connected components of a graph given as node -> successors.

    Iterative Tarjan. A component comes after every component it reaches, so
    with edges from a reader to what it reads, dependencies come first.
    Successors outside `succ` are ignored.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    out: list[list[int]] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in succ:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out


def combinational_edges(g: EGraph, choice: dict[int, ENode]) -> dict[int, list[int]]:
    """Class -> classes its chosen node reads within the cycle. A register
    reads the previous cycle, so its edges do not count."""
    return {cid: [] if n.kind == "reg" else [g.find(c) for c in n.children]
            for cid, n in choice.items()}


def closes_cycle(comp: list[int], succ: dict[int, list[int]]) -> bool:
    """Whether a strongly connected component holds a cycle (or a self-loop)."""
    return len(comp) > 1 or comp[0] in succ[comp[0]]


def origin_choice(g: EGraph, origin: dict[int, list[ENode]]) -> dict[int, ENode]:
    """One seed-design member per design class, combinationally acyclic.

    Each class takes its smallest member by node key. After rewriting, that
    member can read its own class: `(or a a)` lands in the class of `a`.
    Every class on such a cycle takes instead its member of lowest design
    index; that member reads only classes of earlier design nodes, so the
    replacements repeat until no cycle is left.
    """
    choice: dict[int, ENode] = {}
    first: dict[int, ENode] = {}
    for cid, nodes in origin.items():
        root = g.find(cid)
        if root not in choice:
            choice[root] = min(nodes, key=node_key)
            first[root] = nodes[0]
    while True:
        reads = combinational_edges(g, choice)
        cyclic = [c for comp in strongly_connected(reads) if closes_cycle(comp, reads)
                  for c in comp if choice[c] != first[c]]
        if not cyclic:
            return choice
        for cid in cyclic:
            choice[cid] = first[cid]
