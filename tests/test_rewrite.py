import hashlib
import random
import subprocess
import sys

import pytest

from powersat import benchmarks
from powersat.egraph import COUNT_CAP, EGraph, EGraphError, ENode
from powersat.equiv import sample_rule_instance
from powersat.ir import parse_design, print_design
from powersat.rewrite import (
    PConst,
    PConstOf,
    PNode,
    PRep,
    PVar,
    Rewrite,
    apply_rules,
    ematch,
    instantiate,
    rule_library,
    rules_by_name,
    _n,
)

from _util import EVERY_KIND, provenance_tags, random_design, src_env, traced_held, traced_peak

FIG1 = """
(module fig1
  (input s 1) (input a 16) (input b 8) (input c 8)
  (output out (mux s a (mul c b))))
"""

GROUPS = {
    "data-gate": [
        "gate-left", "gate-right", "propagate-mask", "propagate-mask-left",
        "propagate-mux-mask", "propagate-mux-mask-right", "propagate-mux-mask-left",
        "combine-masks",
    ],
    "transparent-register": [
        "transp-reg-left", "transp-reg-right", "transp-reg-mask",
        "transp-reg-saturate", "transp-reg-reg", "propagate", "propagate-mux",
        "combine-transp-reg",
    ],
    "clock-gate-retime": ["retime-boolean", "clock-gate-reg"],
}


def seeded(text):
    g = EGraph()
    d = parse_design(text)
    roots = g.add_expr(d)
    return g, d, roots


def class_with(g, pred):
    return [cid for cid in g.class_ids() if any(pred(n) for n in g.nodes_of(cid))]


def test_library_contains_every_named_rule():
    names = [r.name for r in rule_library()]
    assert len(names) == len(set(names))
    for group, expected in GROUPS.items():
        have = [r.name for r in rule_library() if r.group == group]
        assert sorted(have) == sorted(expected)
    boolean = {r.name for r in rule_library() if r.group == "boolean"}
    assert {"and-mask-identity", "and-mask-annihilate", "or-mask-identity",
            "or-mask-saturate", "and-idempotent", "or-idempotent",
            "double-negation", "de-morgan-and", "de-morgan-or",
            "and-commute", "and-associate"} == boolean
    arith = {r.name for r in rule_library() if r.group == "arithmetic"}
    assert {"add-commute", "add-associate", "add-cluster", "add-uncluster",
            "mux-op-distribute", "mux-op-factor"} == arith


def test_rules_by_name_filters_and_disables():
    only = rules_by_name(["gate-left", "gate-right"])
    assert [r.name for r in only] == ["gate-left", "gate-right"]
    without = rules_by_name(disabled=["gate-left"])
    assert "gate-left" not in {r.name for r in without}
    assert len(without) == len(rule_library()) - 1
    with pytest.raises(ValueError, match="unknown rule"):
        rules_by_name(["no-such"])
    with pytest.raises(ValueError, match="unknown rule"):
        rules_by_name(disabled=["also-no-such"])


def test_ematch_mux_pattern_on_fig1():
    g, _, roots = seeded(FIG1)
    pat = _n("mux", PVar("s"), PVar("b"), PVar("c"))
    matches = ematch(g, pat)
    assert len(matches) == 1
    cid, subst = matches[0]
    assert g.find(cid) == g.find(roots[0])
    assert g.class_width(subst["s"]) == 1


def test_ematch_bare_var_matches_every_class():
    g, _, _ = seeded(FIG1)
    assert len(ematch(g, PVar("x"))) == g.class_count()


def test_ematch_nonlinear_needs_same_class():
    g = EGraph()
    p = g.add(ENode("var", (), 4, "p"))
    q = g.add(ENode("var", (), 4, "q"))
    g.add(ENode("and", (p, q), 4))
    pat = _n("and", PVar("a"), PVar("a"))
    assert ematch(g, pat) == []
    g.merge(p, q)
    g.rebuild()
    assert len(ematch(g, pat)) == 1


def rule(name):
    (r,) = rules_by_name([name])
    return r


def test_shared_kind_var_must_bind_the_same_operator():
    factor = rule("mux-op-factor").lhs
    g, _, roots = seeded("""
    (module m (input s 1) (input a 8) (input b 8) (input c 8)
      (output y (mux s (add a c) (add b c))))
    """)
    (cid, subst), = ematch(g, factor)
    assert cid == g.find(roots[0]) and subst["op"] == "add"
    g, _, _ = seeded("""
    (module m (input s 1) (input a 8) (input b 8) (input c 8)
      (output y (mux s (add a c) (sub b c))))
    """)
    assert ematch(g, factor) == []


def test_repeated_bind_name_needs_one_class():
    pat = _n("and", _n("not", PVar("a"), bind="x"), _n("not", PVar("b"), bind="x"))
    g, _, roots = seeded("(module m (input p 4) (input q 4) (output y (and (not p) (not q))))")
    assert ematch(g, pat) == []
    (and_node,) = g.nodes_of(roots[0])
    g.merge(*and_node.children)
    g.rebuild()
    found = ematch(g, pat)
    x = g.find(and_node.children[0])
    assert len(found) == 4  # each child picks either member of the merged class
    assert {s["x"] for _, s in found} == {x}
    assert len({(s["a"], s["b"]) for _, s in found}) == 4


def test_const_leaf_matches_only_its_literal():
    pat = _n("and", PVar("a"), PConst(4, 3))
    g, _, roots = seeded("(module m (input p 4) (output y (and p (const 4 3))))")
    (cid, subst), = ematch(g, pat)
    assert cid == g.find(roots[0]) and set(subst) == {"a"}
    g, _, _ = seeded("(module m (input p 4) (output y (and p (const 4 5))))")
    assert ematch(g, pat) == []


def test_const_of_cannot_be_matched():
    g, _, _ = seeded("(module m (input p 4) (output y (and p (const 4 0))))")
    with pytest.raises(EGraphError, match="PConstOf"):
        ematch(g, _n("and", PVar("a"), PConstOf("a", 0)))


def test_rep_width_must_be_bound_before_the_rep():
    g, _, _ = seeded("(module m (input p 4) (input s 1) (output y (and (rep4 s) p)))")
    with pytest.raises(EGraphError, match="unbound"):
        ematch(g, _n("and", PRep(PVar("s"), "a"), PVar("a")))


def test_compile_errors_are_egraph_errors():
    g, _, _ = seeded(FIG1)
    with pytest.raises(EGraphError, match="both an operator and a class"):
        ematch(g, _n(("add", "mul"), PVar("op"), PVar("b"), kind_var="op"))
    deep = PVar("a")
    for _ in range(20):  # one loop per level, past CPython's 20 nested blocks
        deep = _n("not", deep)
    with pytest.raises(EGraphError, match="too deep"):
        ematch(g, deep)


def test_rule_width_references_must_be_bound():
    a = PVar("a")
    with pytest.raises(EGraphError, match=r"unbound \['zz'\]"):
        Rewrite("bad", "boolean", _n("not", a), PConstOf("zz", 0))
    with pytest.raises(EGraphError, match=r"unbound \['zz'\]"):
        Rewrite("bad", "boolean", _n("not", a), _n("and", a, PRep(a, "zz")))


def test_rule_left_rep_width_must_be_bound_before_it():
    a, s = PVar("a"), PVar("s")
    with pytest.raises(EGraphError, match="rule bad: left side: PRep width reference 'a'"):
        Rewrite("bad", "boolean", _n("and", PRep(s, "a"), a), a)
    Rewrite("good", "boolean", _n("and", a, PRep(s, "a")), a)


def test_instantiate_reuses_bound_classes():
    g, _, roots = seeded(FIG1)
    (cid, subst), = ematch(g, _n("mux", PVar("s"), PVar("b"), PVar("c")))
    rebuilt = instantiate(g, _n("mux", PVar("s"), PVar("b"), PVar("c")), subst)
    assert g.find(rebuilt) == g.find(cid)  # hashcons hit, no new class


def test_transp_reg_mask_adds_treg_variant():
    # the masked-signal class gains a member gating the same source via a
    # transparent register: A & rep(M)  =>  TREG(A, M) & rep(M)
    g, _, roots = seeded("""
    (module m (input a 8) (input msel 1)
      (output y (and a (rep8 msel))))
    """)
    report = apply_rules(g, rules_by_name(["transp-reg-mask"]), max_iters=2)
    root = g.find(roots[0])
    tregs = class_with(g, lambda n: n.kind == "treg")
    assert tregs, "expected a treg node somewhere"
    masked = [n for n in g.nodes_of(root) if n.kind == "and"]
    assert any(g.find(n.children[0]) in map(g.find, tregs) for n in masked)


def test_empty_rule_list_saturates_immediately():
    g, _, _ = seeded(FIG1)
    report = apply_rules(g, [], max_iters=5)
    assert report.stop_reason == "saturated"
    assert report.saturated
    assert len(report.iterations) == 1


def test_double_negation_saturates():
    g, _, roots = seeded("(module m (input a 4) (output y (not (not a))))")
    report = apply_rules(g, rule_library(), max_iters=8)
    assert report.stop_reason == "saturated"
    # the double negation collapsed into the var's class
    a = class_with(g, lambda n: n.kind == "var")[0]
    assert g.find(roots[0]) == g.find(a)
    # saturation means a rerun adds nothing
    v = g.version
    apply_rules(g, rule_library(), max_iters=1)
    assert g.version == v


def test_gate_then_propagate_reaches_masked_multiplier():
    # s ? a : (c*b) grows a variant whose multiplier input is masked by ~s
    g, _, roots = seeded(FIG1)
    report = apply_rules(
        g, rules_by_name(["gate-right", "propagate-mask-left"]), max_iters=2
    )
    def is_masked_mul(n):
        if n.kind != "mul":
            return False
        left = g.nodes_of(n.children[0])
        return any(m.kind == "and" for m in left)
    hits = [
        n for n in g.nodes_of(g.find(roots[0]))
        if n.kind == "mux" and any(is_masked_mul(m) for m in g.nodes_of(n.children[2]))
    ]
    assert hits, "no mux over a masked multiplier after two iterations"


def test_node_count_never_drops_during_instantiation():
    g, _, _ = seeded(FIG1)
    g.rebuild()
    before = g.enode_count()
    for rule in rules_by_name(["gate-left", "gate-right"]):
        for cid, subst in ematch(g, rule.lhs):
            instantiate(g, rule.rhs, subst)
            assert g.enode_count() >= before


def test_iteration_stats_recorded():
    g, _, _ = seeded(FIG1)
    report = apply_rules(g, rules_by_name(["gate-right"]), max_iters=3)
    assert [s.iteration for s in report.iterations] == list(range(1, len(report.iterations) + 1))
    for s in report.iterations:
        assert s.classes > 0 and s.nodes >= s.classes and s.designs >= 1


def test_node_limit_stops_run():
    g, _, _ = seeded(FIG1)
    report = apply_rules(g, rule_library(), max_iters=50, max_nodes=60)
    assert report.stop_reason == "node-limit"


def test_rule_order_does_not_change_equalities():
    def partition(rules):
        g = EGraph()
        d = parse_design(FIG1)
        g.add_expr(d)
        apply_rules(g, rules, max_iters=3)
        classes = g.design_classes(d)
        groups = {}
        for idx, cid in enumerate(classes):
            groups.setdefault(g.find(cid), set()).add(idx)
        return sorted(map(frozenset, groups.values()), key=sorted)

    forward = partition(rule_library())
    backward = partition(list(reversed(rule_library())))
    assert forward == backward


def test_provenance_tags_new_nodes():
    g, _, roots = seeded(FIG1)
    apply_rules(g, rules_by_name(["gate-right"]), max_iters=1)
    tags = {g.provenance(n) for cid in g.class_ids() for n in g.nodes_of(cid)}
    assert "gate-right" in tags and "design" in tags


def test_provenance_tells_constants_of_different_widths_apart():
    # the rule builds an 8-bit zero; the design's own zero is 1 bit wide
    g, _, _ = seeded("(module m (input a 8) (output y (and a (rep8 (const 1 0)))))")
    apply_rules(g, rules_by_name(["and-mask-annihilate"]), max_iters=1)
    assert g.provenance(ENode("const", (), 8, value=0)) == "and-mask-annihilate"
    assert g.provenance(ENode("const", (), 1, value=0)) == "design"


PROVENANCE_SCRIPT = """
from powersat import EGraph, apply_rules, benchmarks, rule_library
for name in ("dual_op_alu", "fig1_op_isolate", "seq_reg"):
    g = EGraph()
    g.add_expr(benchmarks.design(name))
    apply_rules(g, rule_library(), max_iters=8)
    for cid in g.class_ids():
        for n in g.nodes_of(cid):
            print(name, cid, g.render(n), g.provenance(n))
"""


def test_provenance_does_not_depend_on_the_hash_seed():
    # set iteration order follows PYTHONHASHSEED; a node rebuilt from several
    # stale ones must still get the same tag
    runs = []
    for seed in ("1", "2"):
        env = {**src_env(), "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", PROVENANCE_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    assert runs[0].count("\n") > 400


def test_sample_rule_instance_produces_valid_designs():
    rng = random.Random(7)
    for rule in rule_library():
        (lhs, rhs), _widths, _kinds = sample_rule_instance(rule, rng)
        assert lhs.inputs == rhs.inputs
        assert lhs.signature() == rhs.signature()
        for d in (lhs, rhs):
            assert parse_design(print_design(d)) == d


# Saturation pins: sha256 of `g.dump()`, (classes, nodes, designs) after each
# iteration, and the stop reason, under the whole library. The values come
# from the e-graph before its hot paths were tuned (frozen-dataclass e-nodes,
# uncapped design counts); any change that keeps the e-graph keeps them. The
# dump orders classes by id and members by node key, so it does not depend
# on PYTHONHASHSEED.
CAP = COUNT_CAP
CORPUS_SATURATION = [
    ("comb_mux_add_tree", 3, "8b2603b6a104f3ff438bad03cc099b1cffd4614627abbbda3f21e18acd5160cb",
     [(43, 61, 1331), (115, 231, 3161912), (526, 1383, 284314268722)], "iteration-limit"),
    ("dual_op_alu", 8, "27b7452fd8fb973f3a4be5a67d29014e925e099e6f281cebd465a309d57de976",
     [(14, 19, 10), (29, 55, 196), (57, 148, 17002), (39, 148, CAP), (33, 165, CAP), (39, 183, CAP), (49, 218, CAP), (40, 213, CAP)], "iteration-limit"),
    ("fig1_op_isolate", 8, "34461d7cc9720ed819d76f1e7b72ef38ea3a59a017b3370e3d143f281bc47384",
     [(13, 17, 5), (24, 45, 66), (46, 122, 3013), (30, 114, CAP), (26, 125, CAP), (29, 133, CAP), (35, 151, CAP), (33, 157, CAP)], "iteration-limit"),
    ("pipe_mux_add_tree", 3, "7ca9bb826b9c0cd3ffe00b9356e7ba4ddf228a03ba55a7776200bb0b2d05dac6",
     [(43, 60, 4400), (113, 225, 28016184), (435, 1160, CAP)], "iteration-limit"),
    # the add-trees at 4 iterations, the `budgeted` benchmark's graphs, pinned
    # from the rebuild that interned every form it made
    ("comb_mux_add_tree", 4, "75f0edfe97441cd5a9b83d0904a9a1456ff7b9e125894b849220399b62c899ec",
     [(43, 61, 1331), (115, 231, 3161912), (526, 1383, 284314268722), (2419, 8244, CAP)], "iteration-limit"),
    ("pipe_mux_add_tree", 4, "3e165c7b933221db5107913a4c9e7c476892d8b38f8a2e7c13d0b9bdcd36ffac",
     [(43, 60, 4400), (113, 225, 28016184), (435, 1160, CAP), (1477, 5114, CAP)], "iteration-limit"),
    ("seq_reg", 8, "425ff903014747d63ed974db194420f0c642252bcbbf132bce0e78d5a73bb011",
     [(9, 12, 5), (13, 23, 19), (21, 45, 84), (20, 41, CAP), (19, 46, CAP), (14, 42, CAP), (15, 46, CAP), (15, 47, CAP)], "iteration-limit"),
]
# Random designs of every operator kind, at 2 iterations.
MIXED_SATURATION = [
    (0, "bea8490d50f12396b81d68922b1a488c427756c78096c8b901c6a89c4697e586",
     [(28, 36, CAP), (43, 75, CAP)], "iteration-limit"),
    (1, "8ed89b3f70b01d4429d2a55516d009b4bb572d04e63682c158c4d0363c7597b8",
     [(16, 19, 48), (13, 16, CAP)], "iteration-limit"),
    (2, "d131441e3c15b3b20a2cee216dd7b53eeb614720cec40379769142b9b7dd60be",
     [(2, 3, CAP), (2, 3, CAP)], "saturated"),
    (3, "6c3817d3f50688df8d7f19f5b9d2542f738afb2eea35094778dd5545bbf19c0b",
     [(38, 55, CAP), (97, 191, CAP)], "iteration-limit"),
    (4, "4bce20a7ab7fd46f6c6c9dd836e93b9522ffa281da9dad6705f1727dcbfc6ba6",
     [(19, 27, CAP), (23, 42, CAP)], "iteration-limit"),
]


def saturation_fingerprint(design, iters):
    g = EGraph()
    g.add_expr(design)
    report = apply_rules(g, rule_library(), max_iters=iters)
    steps = [(s.classes, s.nodes, s.designs) for s in report.iterations]
    return hashlib.sha256(g.dump().encode()).hexdigest(), steps, report.stop_reason


@pytest.mark.parametrize("name,iters,digest,steps,stop", CORPUS_SATURATION)
def test_corpus_saturation_is_pinned(name, iters, digest, steps, stop):
    assert saturation_fingerprint(benchmarks.design(name), iters) == (digest, steps, stop)


@pytest.mark.parametrize("draw,digest,steps,stop", MIXED_SATURATION)
def test_mixed_saturation_is_pinned(draw, digest, steps, stop):
    d = random_design(random.Random(f"mixed/{draw}"), max_nodes=24, kinds=EVERY_KIND)
    assert saturation_fingerprint(d, 2) == (digest, steps, stop)


# Match-list pins: per graph, the sha256 of every library rule's
# `ematch(g, rule.lhs)` as [(class, sorted substitution items)], in library
# order, and the total match count. The graphs are the saturation pins'
# (add-trees at 3 iterations, the rest at 8; mixed draws at 2). The values
# come from the generator-based matcher; the compiled one must reproduce
# every list and its order.
CORPUS_MATCHES = [
    ("comb_mux_add_tree", 3, "59c0c43faae0f15f3ac3f54b76b823a5ef0b8d1fa0064a084baf16d36857f712", 10732),
    ("dual_op_alu", 8, "76dde0622fa7277d2f1153e440acabe684b27c656148b48b295f8af601754350", 890),
    ("fig1_op_isolate", 8, "2d47bcc46363e1bc55df5108ad8d17befa7ce095ae8657067616c34b4757c919", 644),
    ("pipe_mux_add_tree", 3, "2e12652c74ab91f80eedac4db3863bdbaf03e42bfa1df16f429305e14c81925f", 7045),
    ("seq_reg", 8, "10c08cfd3b5eea01d74fbfa7cc15216fbcfeabe0c47a1cec796ec4b2080fa244", 119),
]
MIXED_MATCHES = [
    (0, "c9e302713cbd34907facbadbef1b06d7a9732822fa0372fa02974cf390dcf000", 191),
    (1, "7205b976208d2909b5471528a9deaf9e914f12e2b6817020daa1a92884192104", 9),
    (2, "6576f89609b268ba2e0dcd0fd04d1ac112ac48ec9b9b54875a9be3e8773df601", 3),
    (3, "089e9b16aab0546d14ac8343b45bac1c6395ff760c4648b7639a99aece4ee68b", 874),
    (4, "946d98b9f7e76bdb333fb1860551d2aaabd73b0923cc45a11a87c9e6450085f5", 72),
]


def match_fingerprint(design, iters):
    g = EGraph()
    g.add_expr(design)
    apply_rules(g, rule_library(), max_iters=iters)
    h = hashlib.sha256()
    total = 0
    for r in rule_library():
        found = ematch(g, r.lhs)
        total += len(found)
        h.update(repr([(cid, sorted(s.items())) for cid, s in found]).encode())
    return h.hexdigest(), total


@pytest.mark.parametrize("name,iters,digest,total", CORPUS_MATCHES)
def test_corpus_matches_are_pinned(name, iters, digest, total):
    assert match_fingerprint(benchmarks.design(name), iters) == (digest, total)


@pytest.mark.parametrize("draw,digest,total", MIXED_MATCHES)
def test_mixed_matches_are_pinned(draw, digest, total):
    d = random_design(random.Random(f"mixed/{draw}"), max_nodes=24, kinds=EVERY_KIND)
    assert match_fingerprint(d, 2) == (digest, total)


def one_object_per_form(g):
    """Every parent entry that is a live member is that very member object,
    and provenance is kept for the live members only."""
    live = {n: n for cid in g.class_ids() for n in g.nodes_of(cid)}
    for cls in g._classes.values():
        for p in cls.parents[::2]:
            assert live.get(p, p) is p
    assert set(provenance_tags(g)) == set(live)


@pytest.mark.parametrize("draw", [None] + [draw for draw, *_ in MIXED_SATURATION])
def test_rebuild_keeps_one_object_per_form(draw):
    if draw is None:
        d, iters = benchmarks.design("comb_mux_add_tree"), 3
    else:
        d = random_design(random.Random(f"mixed/{draw}"), max_nodes=24, kinds=EVERY_KIND)
        iters = 2
    g = EGraph()
    g.add_expr(d)
    apply_rules(g, rule_library(), max_iters=iters)
    one_object_per_form(g)


def test_rewriting_memory_is_bounded():
    # before live forms shared one object, parent lists were tuples and
    # match lists held dicts, the peak was 14.1 MB (tracemalloc); with
    # (index, rule) tag tuples, a children tuple per node, a dict per member
    # table and repairs that pop and re-insert live hashcons keys, 9.3 MB;
    # now 6.2 MB
    g = EGraph()
    g.add_expr(benchmarks.design("comb_mux_add_tree"))
    report, peak = traced_peak(lambda: apply_rules(g, rule_library(), max_iters=4))
    assert report.iterations[-1].nodes == 8244
    assert peak < 7.4 * (1 << 20)


def test_rewritten_graph_bytes_per_node_are_bounded():
    # everything the graph holds after rewriting, over its live e-nodes:
    # 715 bytes with the layout above, 483 now
    rules = rule_library()

    def rewritten():
        g = EGraph()
        g.add_expr(benchmarks.design("comb_mux_add_tree"))
        apply_rules(g, rules, max_iters=4)
        return g

    g, held = traced_held(rewritten)
    assert g.enode_count() == 8244
    assert held / g.enode_count() < 580
