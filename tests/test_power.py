import pytest

from powersat.egraph import EGraph, ENode
from powersat.ir import parse_design
from powersat.power import AreaModel, area, class_scores, design_power, node_power
from powersat.rewrite import apply_rules, rules_by_name
from powersat.simulate import ActivityStats, choose_representatives, graph_activity, simulate
from powersat.stimulus import StimulusConfig, generate_stimuli

FIG1 = """
(module fig1
  (input s 1) (input a 16) (input b 8) (input c 8)
  (output out (mux s a (mul c b))))
"""


def graph_of(text):
    g = EGraph()
    d = parse_design(text)
    g.add_expr(d)
    return g, d


def flat_stats(g, rate):
    return {
        cid: ActivityStats(
            width=(w := g.class_width(cid)),
            cycles=100,
            toggles=(0,) * w,
            ones=(50,) * w,
            word_rate=rate,
            static_prob_mean=0.5,
        )
        for cid in g.class_ids()
    }


def node_of(g, kind):
    for cid in g.class_ids():
        for n in g.nodes_of(cid):
            if n.kind == kind:
                return cid, n
    raise AssertionError(kind)


def test_area_basic_formulas():
    g, _ = graph_of("""
    (module m (input a 8) (input b 8) (input s 1) (input en 1)
      (output y1 (and a b))
      (output y2 (mux s a b))
      (output y3 (add a b))
      (output y4 (add a b a))
      (output y5 (mul a b))
      (output y6 (not a))
      (output y7 (reg a en))
      (output y8 (treg a en))
      (output y9 (rep8 s)))
    """)
    expect = {"and": 8, "mux": 24, "add": 40, "add3": 64, "mul": 384,
              "not": 8, "reg": 32, "treg": 32, "rep": 0, "var": 0}
    for kind, want in expect.items():
        _, n = node_of(g, kind)
        assert area(n, g) == want


def test_clustered_add_cheaper_than_two_adders():
    g, _ = graph_of("(module m (input a 8) (input b 8) (input c 8) (output y (add a b c)))")
    _, add3 = node_of(g, "add3")
    assert area(add3, g) == 64 < 2 * 40


def test_constant_multiplier_operand_halves_area():
    g, _ = graph_of("(module m (input a 8) (output y (mul a (const 8 3))))")
    _, mul = node_of(g, "mul")
    assert area(mul, g) == 192


def test_shift_area_depends_on_amount_kind():
    g, _ = graph_of("""
    (module m (input a 8) (input k 3)
      (output y1 (shl a (const 3 2)))
      (output y2 (shl a k)))
    """)
    nodes = [n for cid in g.class_ids() for n in g.nodes_of(cid) if n.kind == "shl"]
    areas = sorted(area(n, g) for n in nodes)
    assert areas == [0.0, 72.0]  # constant shift wires; variable shift 3*8*log2(8)


def test_width_one_variable_shift_is_free():
    g = EGraph()
    a = g.add(ENode("var", (), 1, "a"))
    k = g.add(ENode("var", (), 1, "k"))
    sh = ENode("shl", (a, k), 1)
    g.add(sh)
    assert area(sh, g) == 0.0


def test_area_multiplier_override():
    g, _ = graph_of("(module m (input a 8) (input b 8) (output y (mul a b)))")
    _, mul = node_of(g, "mul")
    assert area(mul, g, AreaModel({"mul": 0.25})) == 96
    _, var = node_of(g, "var")
    assert area(var, g, AreaModel({"var": 99.0})) == 0.0  # zero base stays zero


def test_node_power_is_equal_weighted_toggle_average():
    g, _ = graph_of("(module m (input a 8) (input b 8) (output y (add a b)))")
    cid, add = node_of(g, "add")
    stats = flat_stats(g, 0.5)
    assert node_power(add, g, stats, out_class=cid) == pytest.approx(40 * 0.5)


def test_commuted_nodes_score_bit_identically():
    # (0.2 + 0.1) + 0.3 != (0.2 + 0.3) + 0.1 in floating point; the score
    # must not depend on operand order, or commuted nodes only nearly tie
    g, _ = graph_of("(module m (input a 8) (input b 8) (output y (add a b)))")
    cid, ab = node_of(g, "add")
    a, b = ab.children
    g.merge(cid, g.add(ENode("add", (b, a), 8)))
    g.rebuild()
    cid = g.find(cid)
    rates = {cid: 0.2, g.find(a): 0.1, g.find(b): 0.3}
    stats = {c: ActivityStats(width=8, cycles=100, toggles=(0,) * 8, ones=(50,) * 8,
                              word_rate=r, static_prob_mean=0.5)
             for c, r in rates.items()}
    scores = [node_power(n, g, stats, out_class=cid) for n in sorted(g.nodes_of(cid))]
    assert len(scores) == 2
    assert scores[0] == scores[1]


def test_zero_area_nodes_score_zero():
    g, _ = graph_of("(module m (input a 8) (output y (not a)))")
    cid, var = node_of(g, "var")
    assert node_power(var, g, flat_stats(g, 1.0), out_class=cid) == 0.0


def test_frozen_logic_scores_zero():
    g, _ = graph_of("(module m (input a 8) (input b 8) (output y (add a b)))")
    cid, add = node_of(g, "add")
    assert node_power(add, g, flat_stats(g, 0.0), out_class=cid) == 0.0


def test_area_mode_ignores_activity():
    g, _ = graph_of("(module m (input a 8) (input b 8) (output y (add a b)))")
    cid, add = node_of(g, "add")
    lo = node_power(add, g, flat_stats(g, 0.1), mode="area", out_class=cid)
    hi = node_power(add, g, flat_stats(g, 0.9), mode="area", out_class=cid)
    assert lo == hi == 40


def test_scores_scale_linearly_with_rates():
    g, _ = graph_of("(module m (input a 8) (input b 8) (output y (mul a b)))")
    one = class_scores(g, flat_stats(g, 0.2))
    three = class_scores(g, flat_stats(g, 0.6))
    for cid in one:
        for n, s in one[cid].items():
            assert three[cid][n] == pytest.approx(3 * s)


def test_design_power_counts_shared_nodes_once():
    g, _ = graph_of("(module m (input a 8) (output y (add a a)))")
    cid, add = node_of(g, "add")
    stats = flat_stats(g, 0.5)
    once = design_power({cid: add}, g, stats)
    twice = design_power([(cid, add), (cid, add)], g, stats)
    assert once == twice == pytest.approx(40 * 0.5)


def test_design_power_empty_selection():
    g, _ = graph_of("(module m (input a 8) (output y a))")
    assert design_power({}, g, flat_stats(g, 0.5)) == 0.0


def test_gated_multiplier_scores_lower_at_low_select_activity():
    # the data-gated variant of the mux-over-multiplier design burns less
    # model power when the select stays mostly put
    g = EGraph()
    d = parse_design(FIG1)
    g.add_expr(d)
    apply_rules(g, rules_by_name(["gate-right", "propagate-mask", "combine-masks"]),
                max_iters=3)
    cfg = StimulusConfig.from_dict({
        "cycles": 2000, "seed": 7,
        "inputs": {p: {"toggle_rate": 0.1 if p == "s" else 0.5} for p, _ in d.inputs},
    })
    stim = generate_stimuli(cfg, d)
    rep = choose_representatives(g)
    stats = graph_activity(simulate(g, rep, stim))

    gated_mul = None
    for cid in g.class_ids():
        for n in g.nodes_of(cid):
            if n.kind == "mul" and all(
                any(m.kind == "and" for m in g.nodes_of(c)) for c in n.children
            ):
                gated_mul = (cid, n)
    assert gated_mul is not None

    # compare the ungated multiplier against its double-masked equivalent
    mul_cid, mul_node = next(
        (cid, n)
        for cid, nodes in g.design_enodes(d).items()
        for n in nodes
        if n.kind == "mul"
    )
    ungated = node_power(mul_node, g, stats, out_class=mul_cid)
    gated = node_power(gated_mul[1], g, stats, out_class=gated_mul[0])
    assert gated < ungated
