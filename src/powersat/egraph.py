"""E-graph over netlist operators: union-find, hashconsing, and congruence rebuilding."""

import math
from itertools import chain
from operator import itemgetter

from .ir import Design

# Design-space counts saturate here so huge e-graphs stay cheap to summarize.
COUNT_CAP = (1 << 63) - 1

# A provenance tag is one int: the member's creation index shifted left by
# this many bits, plus the index of its rule in the graph's name table.
_RULE_BITS = 16
_RULE_MASK = (1 << _RULE_BITS) - 1


class EGraphError(Exception):
    """Internal invariant violation; indicates a bug, not bad user input."""


class ENode(tuple):
    """An operator whose children are e-class ids.

    One tuple, `(kind, *children, port, value, count, width)`, so
    construction, hashing and equality run in C and a node costs one object:
    rewriting spends most of its time building and looking up e-nodes. The
    children are `n[1:-4]`; hot loops index the tuple, the named accessors
    serve the rest.
    """

    __slots__ = ()

    def __new__(cls, kind: str, children: tuple[int, ...] = (), width: int = 0,
                port: str = "", value: int = 0, count: int = 0):
        return tuple.__new__(cls, (kind, *children, port, value, count, width))

    kind = property(itemgetter(0))
    children = property(itemgetter(slice(1, -4)))
    port = property(itemgetter(-4))
    value = property(itemgetter(-3))
    count = property(itemgetter(-2))
    width = property(itemgetter(-1))

    def __getnewargs__(self):
        return self.kind, self.children, self.width, self.port, self.value, self.count

    def __repr__(self) -> str:
        return (f"ENode(kind={self.kind!r}, children={self.children!r}, width={self.width!r}, "
                f"port={self.port!r}, value={self.value!r}, count={self.count!r})")


def node_key(n: ENode) -> tuple:
    """Stable sort key for e-nodes (Python's hash() is salted per process)."""
    return (n[0], n[1:-4], n[-4], n[-3], n[-2])


def enode_of(design: Design, idx: int, classes: list[int]) -> ENode:
    n = design.nodes[idx]
    return ENode(n.kind, tuple(classes[c] for c in n.children), n.width, n.port, n.value, n.count)


class _EClass:
    __slots__ = ("nodes", "parents")

    def __init__(self, nodes: list[ENode | int]):
        # The members, each followed by its provenance tag (creation index
        # and rule, packed): a flat list, 72 bytes for one member, as most
        # classes have, against a dict's 224.
        self.nodes = nodes
        # The nodes that read this class, each followed by its class id: a
        # flat list, not one (node, class) tuple an entry.
        self.parents: list[ENode | int] = []


class EGraph:
    """Equality classes of netlist expressions with congruence closure.

    Merges queue the surviving class and leave congruence broken until
    rebuild() (deferred rebuilding, as in egg). Each class lists the
    (node, class) pairs that read it, so rebuild finds exactly the nodes a
    merge made stale. `compact_hashcons` leaves one object per form,
    shared by the member table, the hashcons and the parent lists. Each
    member's provenance is one int (see `decode_tag`).
    """

    def __init__(self):
        self._uf: list[int] = []
        # Width by class id, canonical or not: merge only joins equal widths.
        self._width: list[int] = []
        self._classes: dict[int, _EClass] = {}
        self._hashcons: dict[ENode, int] = {}
        self._worklist: list[int] = []
        # Output classes of the design the graph was seeded from.
        self.roots: list[int] = []
        # Bumped by any structural change; equal before/after means saturation.
        self.version = 0
        # Caches of the current version, dropped by every change.
        self._members: dict[int, list[ENode]] | None = None
        self._order: list[tuple[list[int], bool]] | None = None
        # Rule names by index, as packed into provenance tags.
        self._rule_names: list[str] = []
        self._rule_index: dict[str, int] = {}
        self.origin_tag = "design"

    @property
    def origin_tag(self) -> str:
        """The provenance name given to nodes added from now on."""
        return self._rule_names[self._rule]

    @origin_tag.setter
    def origin_tag(self, name: str) -> None:
        rule = self._rule_index.get(name)
        if rule is None:
            rule = len(self._rule_names)
            if rule > _RULE_MASK:
                raise EGraphError(f"more than {_RULE_MASK + 1} provenance names in one graph")
            self._rule_index[name] = rule
            self._rule_names.append(name)
        self._rule = rule

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

    def _fresh(self, n: ENode) -> int:
        """A new class whose one member is `n`, tagged with its creation."""
        cid = len(self._uf)
        self._uf.append(cid)
        self._width.append(n[-1])
        self._classes[cid] = _EClass([n, self.version << _RULE_BITS | self._rule])
        return cid

    # -- construction ------------------------------------------------------

    def canonicalize(self, n: ENode) -> ENode:
        children = n[1:-4]
        ch = tuple(map(self.find, children))
        if ch == children:
            return n
        return tuple.__new__(ENode, (n[0], *ch, *n[-4:]))

    def add(self, n: ENode) -> int:
        return self.add_canonical(self.canonicalize(n))

    def add_canonical(self, n: ENode) -> int:
        """`add` for a node whose children are already canonical ids."""
        hit = self._hashcons.get(n)
        if hit is not None:
            return self.find(hit)
        cid = self._fresh(n)
        for c in set(n[1:-4]):
            self._classes[c].parents += (n, cid)
        self._hashcons[n] = cid
        self.version += 1
        self._members = self._order = None
        return cid

    def add_expr(self, design: Design) -> list[int]:
        """Insert every node of a design; returns one root class per output."""
        classes = self.design_classes(design)
        self.roots = [classes[idx] for _, idx in design.outputs]
        return self.roots

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
        if self._width[a] != self._width[b]:
            raise EGraphError(f"merging classes of widths {self._width[a]} and {self._width[b]}")
        ca, cb = self._classes[a], self._classes[b]
        # Union by size of the node sets.
        if len(ca.nodes) < len(cb.nodes):
            a, b, ca, cb = b, a, cb, ca
        self._uf[b] = a
        ca.nodes += cb.nodes  # members of two classes are distinct forms
        ca.parents.extend(cb.parents)
        del self._classes[b]
        self._worklist.append(a)
        self.version += 1
        self._members = self._order = None
        return a

    def _repair(self, cid: int, touched: set[int]) -> None:
        cls = self._classes.get(cid)
        if cls is None:
            return
        # Re-canonicalize parents; congruent parents collapse via the hashcons.
        # The list is detached first: merges below extend the survivor's list.
        old_parents, cls.parents = cls.parents, []
        pnodes, owners = old_parents[::2], old_parents[1::2]
        # A stale parent's key goes. A canonical parent's key stays, since a
        # pop and re-insert would spend a new slot and grow the table, but
        # counts as absent until its form is entered below, as if popped. A
        # stale parent has a merged-away child, so it equals no form here.
        absent = set(pnodes)
        fresh: dict[ENode, int] = {}
        for pnode, pcls in zip(pnodes, owners):
            n = self.canonicalize(pnode)
            if n is not pnode:
                self._hashcons.pop(pnode, None)
            pcls = self.find(pcls)
            if n in fresh and fresh[n] != pcls:
                pcls = self.merge(fresh[n], pcls)
            fresh[n] = pcls
            hit = None if n in absent else self._hashcons.get(n)
            if hit is not None and self.find(hit) != pcls:
                pcls = self.merge(hit, pcls)
                fresh[n] = pcls
            self._hashcons[n] = pcls
            absent.discard(n)
        touched.update(fresh.values())
        parents = self._classes[self.find(cid)].parents
        for entry in fresh.items():
            parents += entry

    def rebuild(self) -> None:
        """Restore congruence in one worklist pass.

        A queued class re-canonicalizes its parents, merging those the
        hashcons shows congruent, which queues more classes; then the parent
        classes touched re-canonicalize their members, each stale member's
        tag moving to its new form; where forms meet, the earlier tag wins,
        so tags never follow set order. A re-canonicalized form is a new
        object in each place it is made, until `compact_hashcons`. Hashcons
        keys with stale children remain until then too but cannot be hit: a
        lookup's key has only root children, and a merged-away id never
        becomes a root again.
        """
        if not self._worklist:
            return
        self._members = self._order = None
        touched: set[int] = set()
        while self._worklist:
            todo = {self.find(c) for c in self._worklist}
            self._worklist.clear()
            for cid in sorted(todo):
                self._repair(cid, touched)
        for cid in {self.find(c) for c in touched}:
            cls = self._classes[cid]
            members: dict[ENode, int] = {}
            nodes = cls.nodes
            for n, tag in zip(nodes[::2], nodes[1::2]):
                m = self.canonicalize(n)
                if members.setdefault(m, tag) > tag:  # the earlier tag wins
                    members[m] = tag
            cls.nodes = [*chain.from_iterable(members.items())]

    def compact_hashcons(self) -> None:
        """Rebuild the hashcons and the parent lists from the live members,
        after a rebuild, so all three share one object per form.

        Repairs pop parent keys and insert their repaired forms, which
        leaves stale keys behind and the table larger than its live keys
        need: 0.59 MB for 8,349 keys against 0.29 MB for the 8,244 live ones
        on the combinational add-tree at 4 iterations (`sys.getsizeof`). A
        repair rewrites only the repaired class's parent list, so the lists
        of a node's other children keep its stale forms, 2,695 objects
        there, and rebuilds make 10,158 more copies of live forms.
        """
        classes = self._classes
        self._hashcons = {}
        for cls in classes.values():
            cls.parents = []
        for cid, cls in classes.items():
            for n in cls.nodes[::2]:
                self._hashcons[n] = cid
                for c in set(n[1:-4]):
                    classes[c].parents += (n, cid)

    # -- queries -----------------------------------------------------------

    def class_ids(self) -> list[int]:
        return sorted(self._classes)

    def nodes_of(self, cid: int) -> list[ENode]:
        return self.sorted_members()[self.find(cid)]

    def sorted_members(self) -> dict[int, list[ENode]]:
        """Canonical class id -> its members sorted by node key (what
        `nodes_of` returns), built whole in one pass; valid until the graph
        next changes."""
        if self._members is None:
            self._members = {cid: sorted(cls.nodes[::2], key=node_key)
                             for cid, cls in self._classes.items()}
        return self._members

    def class_order(self) -> list[tuple[list[int], bool]]:
        """The strongly connected components of the class graph, children
        first, each with whether it closes a cycle; a class reads the child
        classes of all its members. Valid until the graph next changes."""
        if self._order is None:
            find = self.find
            succ = {cid: list(dict.fromkeys([find(c) for n in cls.nodes[::2] for c in n[1:-4]]))
                    for cid, cls in self._classes.items()}
            self._order = [(comp, closes_cycle(comp, succ)) for comp in strongly_connected(succ)]
        return self._order

    def class_width(self, cid: int) -> int:
        return self._width[cid]

    def class_count(self) -> int:
        return len(self._classes)

    def enode_count(self) -> int:
        return sum(len(c.nodes) for c in self._classes.values()) // 2

    def root_classes(self) -> list[int]:
        return [self.find(c) for c in self.roots]

    def provenance(self, n: ENode) -> str:
        """Name of the rewrite that first introduced this node."""
        hit = self._hashcons.get(n)
        nodes = [] if hit is None else self._classes[self.find(hit)].nodes
        tag = next((t for m, t in zip(nodes[::2], nodes[1::2]) if m == n), None)
        return "design" if tag is None else self.decode_tag(tag)[1]

    def oldest_member(self, cid: int) -> tuple[int, ENode]:
        """(tag, member) of the class's lowest provenance tag: the member
        made first, in its current form."""
        nodes = self._classes[self.find(cid)].nodes
        return min(zip(nodes[1::2], nodes[::2]))

    def decode_tag(self, tag: int) -> tuple[int, str]:
        """A member's provenance tag as (creation index, rule name). The
        index is in the high bits, so comparing tags compares indices."""
        return tag >> _RULE_BITS, self._rule_names[tag & _RULE_MASK]

    def check_invariants(self) -> None:
        """Canonical ids and members, each member in one class, under its
        class in the hashcons and in the parent list of every child class;
        for tests and debugging."""
        listed = {cid: {(self.canonicalize(p), self.find(pc))
                        for p, pc in zip(cls.parents[::2], cls.parents[1::2])}
                  for cid, cls in self._classes.items()}
        seen: dict[ENode, int] = {}
        for cid, cls in self._classes.items():
            if self.find(cid) != cid:
                raise EGraphError(f"class {cid} stored under a non-canonical id")
            for n in cls.nodes[::2]:
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

    def count_designs(self, roots: list[int] | None = None) -> int:
        """Number of distinct expression trees reachable for the root classes,
        saturating at COUNT_CAP.

        Every class holds at least one tree: the node that created it reads
        only older classes, and merges keep it. So a class on a cycle of the
        class graph holds unboundedly many, and every class of a cyclic
        component of `class_order` counts COUNT_CAP. Any other class, taken
        children first, counts the sum over its members of the product of
        their child class counts.
        """
        if roots is None:
            roots = self.root_classes()
        counts: dict[int, int] = {}
        for comp, cyclic in self.class_order():
            if cyclic:
                counts.update(dict.fromkeys(comp, COUNT_CAP))
            else:
                counts[comp[0]] = min(COUNT_CAP, sum(
                    math.prod(counts[self.find(c)] for c in n[1:-4])
                    for n in self._classes[comp[0]].nodes[::2]))
        return min(COUNT_CAP, math.prod(counts[c] for c in {self.find(r) for r in roots}))

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
            rendered = " ".join(self.render(n) for n in self.nodes_of(cid))
            lines.append(f"c{cid} w{self._width[cid]}: {rendered}")
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

