import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersat import benchmarks
from powersat.egraph import COUNT_CAP, EGraph, EGraphError, ENode, closes_cycle
from powersat.ir import parse_design
from powersat.rewrite import apply_rules, rule_library

from _util import EVERY_KIND, provenance_tags, random_design

FIG1 = """
(module fig1
  (input s 1) (input a 16) (input b 8) (input c 8)
  (output out (mux s a (mul c b))))
"""


def seeded(text):
    g = EGraph()
    d = parse_design(text)
    roots = g.add_expr(d)
    return g, d, roots


@pytest.mark.parametrize("n", [
    ENode("add", (3, 5), 8),
    ENode("var", (), 4, "x"),
    ENode("const", (), 4, value=9),
    ENode("rep", (2,), 8, count=4),
], ids=["add", "var", "const", "rep"])
def test_enode_survives_pickle_and_copy(n):
    # a tuple subclass is rebuilt from __getnewargs__; tuple's own would
    # hand the whole tuple to ENode.__new__ as `kind` and load a wrong node
    copies = [copy.copy(n), copy.deepcopy(n)]
    copies += [pickle.loads(pickle.dumps(n, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    fields = (n.kind, n.children, n.width, n.port, n.value, n.count)
    for m in copies:
        assert type(m) is ENode
        assert (m.kind, m.children, m.width, m.port, m.value, m.count) == fields
        assert m == n and hash(m) == hash(n)


def test_add_expr_fig1_class_count():
    g, _, roots = seeded(FIG1)
    # one class per distinct node: s, a, b, c, the mul, the mux
    assert g.class_count() == 6
    assert len(roots) == 1 and g.class_width(roots[0]) == 16


def test_add_expr_shares_identical_children():
    g, _, _ = seeded("(module m (input a 4) (output y (add a a)))")
    assert g.class_count() == 2


def test_add_expr_idempotent():
    g, d, _ = seeded(FIG1)
    before = g.class_count()
    g.add_expr(d)
    assert g.class_count() == before


def test_merge_self_is_noop():
    g, _, roots = seeded(FIG1)
    v = g.version
    assert g.merge(roots[0], roots[0]) == g.find(roots[0])
    assert g.version == v


def test_merge_rejects_width_mismatch():
    g, _, _ = seeded(FIG1)
    a = g.add(ENode("var", (), 4, "x"))
    b = g.add(ENode("var", (), 8, "y"))
    with pytest.raises(EGraphError):
        g.merge(a, b)


def test_congruence_unifies_parents():
    g = EGraph()
    x = g.add(ENode("var", (), 4, "x"))
    y = g.add(ENode("var", (), 4, "y"))
    fx = g.add(ENode("not", (x,), 4))
    fy = g.add(ENode("not", (y,), 4))
    assert g.find(fx) != g.find(fy)
    g.merge(x, y)
    g.rebuild()
    assert g.find(fx) == g.find(fy)
    g.check_invariants()


def test_rebuild_on_clean_graph_changes_nothing():
    g, _, _ = seeded(FIG1)
    v = g.version
    g.rebuild()
    assert g.version == v


def test_chain_of_merges_collapses():
    g = EGraph()
    vs = [g.add(ENode("var", (), 2, f"v{i}")) for i in range(4)]
    g.merge(vs[0], vs[1])
    g.merge(vs[1], vs[2])
    g.merge(vs[2], vs[3])
    g.rebuild()
    assert len({g.find(v) for v in vs}) == 1
    g.check_invariants()


def test_count_designs_single_chain():
    g, _, _ = seeded("(module m (input a 4) (output y (not a)))")
    assert g.count_designs() == 1


def test_count_designs_two_member_class():
    g, _, roots = seeded("(module m (input a 4) (output y (add a a)))")
    a = next(c for c in g.class_ids() if any(n.kind == "var" for n in g.nodes_of(c)))
    one = g.add(ENode("const", (), 4, value=1))
    alt = g.add(ENode("shl", (a, one), 4))
    g.merge(roots[0], alt)
    g.rebuild()
    assert g.count_designs() == 2


def test_count_designs_product_of_independent_children():
    g = EGraph()
    a = g.add(ENode("var", (), 2, "a"))
    b = g.add(ENode("var", (), 2, "b"))
    # grow class a to 3 members and class b to 5 via chained unary wrappers
    for i in range(2):
        g.merge(a, g.add(ENode("not", (g.add(ENode("var", (), 2, f"x{i}")),), 2)))
    for i in range(4):
        g.merge(b, g.add(ENode("not", (g.add(ENode("var", (), 2, f"y{i}")),), 2)))
    g.rebuild()
    root = g.add(ENode("xor", (g.find(a), g.find(b)), 2))
    assert g.count_designs([root]) == 15


def test_count_designs_cycle_contributes_zero():
    g = EGraph()
    a = g.add(ENode("var", (), 2, "a"))
    loop = g.add(ENode("and", (a, a), 2))
    g.merge(a, loop)  # class now contains and(c,c) with c = the class itself
    g.rebuild()
    # the self-referential member wraps any tree of the class in one more
    # and: a, and(a,a), and(and(a,a),a), ... so the count saturates
    assert g.count_designs([g.find(a)]) == COUNT_CAP


def test_count_designs_unrollable_cycle_hits_cap():
    # a ≡ not(not(a)) admits unboundedly many distinct unrollings; the count
    # must saturate rather than iterate forever
    g = EGraph()
    a = g.add(ENode("var", (), 2, "a"))
    n1 = g.add(ENode("not", (a,), 2))
    g.merge(a, g.add(ENode("not", (n1,), 2)))
    g.rebuild()
    assert g.count_designs([g.find(a)]) == COUNT_CAP


def test_count_designs_two_class_cycle_hits_cap_beside_an_exact_sibling():
    # a = {var a, not(b)}, b = {not(a)}: a cyclic component of two classes
    g = EGraph()
    a = g.add(ENode("var", (), 2, "a"))
    b = g.add(ENode("not", (a,), 2))
    g.merge(a, g.add(ENode("not", (b,), 2)))
    g.rebuild()
    a = g.find(a)
    assert sorted(len(g.nodes_of(c)) for c in (a, b)) == [1, 2]
    root = g.add(ENode("xor", (a, b), 2))
    s = g.add(ENode("var", (), 2, "s"))
    g.merge(s, g.add(ENode("var", (), 2, "t")))
    g.rebuild()
    sibling = g.add(ENode("xor", (g.find(s), g.add(ENode("var", (), 2, "u"))), 2))
    assert g.count_designs([root]) == COUNT_CAP
    assert g.count_designs([sibling]) == 2
    assert g.count_designs([root, sibling]) == COUNT_CAP


def class_graph(g):
    return {cid: {g.find(c) for n in g.nodes_of(cid) for c in n.children}
            for cid in g.class_ids()}


GROWN = [(name, 8) for name in ("dual_op_alu", "fig1_op_isolate", "seq_reg")] + [
    (f"mixed/{draw}", 2) for draw in range(5)]


@pytest.mark.parametrize("name,iters", GROWN)
def test_class_order_is_children_first(name, iters):
    if name.startswith("mixed/"):
        d = random_design(random.Random(name), max_nodes=24, kinds=EVERY_KIND)
    else:
        d = benchmarks.design(name)
    g = EGraph()
    g.add_expr(d)
    apply_rules(g, rule_library(), max_iters=iters)
    succ = class_graph(g)
    order = g.class_order()
    assert sorted(c for comp, _ in order for c in comp) == g.class_ids()
    position = {c: i for i, (comp, _) in enumerate(order) for c in comp}
    for i, (comp, cyclic) in enumerate(order):
        assert all(position[d] <= i for c in comp for d in succ[c])
        assert cyclic == closes_cycle(comp, succ)
        # a component's classes reach one another
        reach, stack = set(), [comp[0]]
        while stack:
            c = stack.pop()
            if c not in reach:
                reach.add(c)
                stack.extend(d for d in succ[c] if position[d] == i)
        assert reach == set(comp)
    assert any(cyclic for _, cyclic in order)
    assert g.class_order() is order  # built once per graph version


def test_class_order_follows_a_merge_and_rebuild():
    g, _, roots = seeded("(module m (input a 4) (output y (not a)))")
    a = next(c for c in g.class_ids() if c != roots[0])
    before = g.class_order()
    assert before == [([a], False), ([roots[0]], False)]
    g.merge(a, g.add(ENode("not", (roots[0],), 4)))
    g.rebuild()
    after = g.class_order()
    assert after is not before
    assert [(sorted(comp), cyclic) for comp, cyclic in after] == [(sorted([a, roots[0]]), True)]


def test_count_designs_saturates():
    g = EGraph()
    base = g.add(ENode("var", (), 1, "a"))
    cur = base
    # stack xors so counts square-ish each level after merging wide classes
    for i in range(80):
        cur = g.add(ENode("xor", (cur, base), 1))
        g.merge(cur, g.add(ENode("or", (cur, cur), 1)))
    g.rebuild()
    assert g.count_designs([g.find(cur)]) <= COUNT_CAP


def test_dump_format():
    g, _, _ = seeded("(module m (input a 4) (output y (add a a)))")
    lines = g.dump().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("c0 w4: var:a")
    assert "add(c0,c0)" in lines[1]


def test_width_stored_per_class():
    g, _, _ = seeded(FIG1)
    widths = sorted(g.class_width(c) for c in g.class_ids())
    assert widths == [1, 8, 8, 16, 16, 16]


def test_width_of_a_merged_away_id():
    g = EGraph()
    a = g.add(ENode("var", (), 4, "a"))
    b = g.add(ENode("var", (), 4, "b"))
    gone = b if g.merge(a, b) == a else a
    assert g.class_width(gone) == 4


@settings(max_examples=60)
@given(st.integers(0, 10**9))
def test_random_merges_keep_invariants(seed):
    rng = random.Random(seed)
    g = EGraph()
    g.add_expr(random_design(rng, max_nodes=12))
    ids = g.class_ids()
    for _ in range(rng.randint(1, 6)):
        a, b = rng.choice(ids), rng.choice(ids)
        if g.class_width(a) == g.class_width(b):
            g.merge(a, b)
    g.rebuild()
    g.check_invariants()
    # congruence: no two identical canonical nodes in different classes
    seen = {}
    for cid in g.class_ids():
        for n in g.nodes_of(cid):
            assert seen.setdefault(n, cid) == cid


def test_rebuild_keeps_parent_lists_of_absorbed_classes():
    # a merge inside one class's repair absorbs it into a larger class, whose
    # parent list must keep its own entries next to the repaired ones
    g = EGraph()
    g.add_expr(random_design(random.Random("mixed/190"), max_nodes=24, kinds=EVERY_KIND))
    apply_rules(g, rule_library(), max_iters=3)
    g.check_invariants()


@settings(max_examples=40)
@given(st.integers(0, 10**9), st.integers(1, 3))
def test_rewriting_keeps_invariants(seed, iters):
    g = EGraph()
    g.add_expr(random_design(random.Random(seed), max_nodes=24, kinds=EVERY_KIND))
    apply_rules(g, rule_library(), max_iters=iters)
    g.check_invariants()
    # congruence: every member canonical, no canonical node in two classes
    seen = {}
    for cid in g.class_ids():
        for n in g.nodes_of(cid):
            assert g.canonicalize(n) == n
            assert seen.setdefault(n, cid) == cid


@pytest.mark.parametrize("name,iters", [("fig1_op_isolate", 8), ("comb_mux_add_tree", 3)])
def test_rewritten_graph_lists_only_live_parents_and_still_rebuilds(name, iters):
    # apply_rules rebuilds the parent lists from the live members; they must
    # list every member under each child class, hold nothing else, and still
    # drive a later rebuild to congruence
    g = EGraph()
    g.add_expr(benchmarks.design(name))
    apply_rules(g, rule_library(), max_iters=iters)
    g.check_invariants()
    live = {n: cid for cid in g.class_ids() for n in g.nodes_of(cid)}
    for cid in g.class_ids():
        parents = g._classes[cid].parents
        for p, owner in zip(parents[::2], parents[1::2]):
            assert live.get(p, -1) == owner and cid in p.children
    by_width = {}
    for cid in g.class_ids():
        by_width.setdefault(g.class_width(cid), []).append(cid)
    a, b = next(ids[:2] for ids in by_width.values() if len(ids) > 1)
    g.merge(a, b)
    g.rebuild()
    g.check_invariants()
    seen = {}
    for cid in g.class_ids():
        for n in g.nodes_of(cid):
            assert g.canonicalize(n) == n
            assert seen.setdefault(n, cid) == cid


def test_rewriting_leaves_only_live_nodes_in_the_hashcons():
    # on this design repairs leave 2 keys with merged-away children beside
    # 56 live nodes; apply_rules drops them once it is done
    g = EGraph()
    g.add_expr(random_design(random.Random("mixed/113"), max_nodes=24, kinds=EVERY_KIND))
    apply_rules(g, rule_library(), max_iters=1)
    assert len(g._hashcons) == g.enode_count() == 56
    g.check_invariants()


def test_rewriting_keeps_provenance_of_live_nodes_only():
    g = EGraph()
    g.add_expr(random_design(random.Random("mixed/113"), max_nodes=24, kinds=EVERY_KIND))
    apply_rules(g, rule_library(), max_iters=1)
    assert set(provenance_tags(g)) == {n for cid in g.class_ids() for n in g.nodes_of(cid)}


@pytest.mark.parametrize("survivor", ["design", "later"])
def test_forms_meeting_in_a_rebuild_keep_the_earlier_tag(survivor):
    # add(a, b) comes from the design and add(a, c) from a later rule; merging
    # b and c makes them one form, which keeps the design's tag whichever of
    # the two forms survives the rebuild
    g = EGraph()
    a, b, c = (g.add(ENode("var", (), 8, port=p)) for p in "abc")
    g.add(ENode("add", (a, b), 8))
    g.origin_tag = "later"
    g.add(ENode("add", (a, c), 8))
    g.origin_tag = "design"
    assert g.provenance(ENode("add", (a, c), 8)) == "later"
    g.merge(*((b, c) if survivor == "design" else (c, b)))
    g.rebuild()
    g.check_invariants()
    (n,) = [n for n in provenance_tags(g) if n.kind == "add"]
    assert n == ENode("add", (a, b if survivor == "design" else c), 8)
    assert g.provenance(n) == "design"
