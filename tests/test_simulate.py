import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersat.egraph import EGraph, ENode
from powersat.equiv import simulate_design
from powersat.extract import seed_from_design
from powersat.ir import DesignBuilder, parse_design
from powersat.rewrite import apply_rules, rules_by_name
from powersat.simulate import (
    SimulationError,
    _hold,
    _reg,
    activity,
    activity_csv,
    choose_representatives,
    class_consistency_mismatches,
    graph_activity,
    simulate,
)
from powersat.stimulus import Waveform, word_dtype

from _util import random_design, random_stimuli

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


def run_design(text, **stim):
    g, d, roots = seeded(text)
    rep = choose_representatives(g, origin=g.design_enodes(d))
    waves = {p: Waveform(dict(d.inputs)[p], list(v)) for p, v in stim.items()}
    return simulate(g, rep, waves), g, roots


def test_representatives_of_unrewritten_graph_are_the_design():
    g, d, _ = seeded(FIG1)
    rep = choose_representatives(g, origin=g.design_enodes(d))
    origin = g.design_enodes(d)
    assert set(rep) == set(g.class_ids())
    for cid, n in rep.items():
        assert n in origin[cid]


def test_design_member_preferred_over_equivalent():
    g, d, roots = seeded("(module m (input x 4) (output y (add x x)))")
    xcls = next(c for c in g.class_ids() if any(n.kind == "var" for n in g.nodes_of(c)))
    one = g.add(ENode("const", (), 4, value=1))
    g.merge(roots[0], g.add(ENode("shl", (xcls, one), 4)))
    g.rebuild()
    rep = choose_representatives(g, origin=g.design_enodes(d))
    assert rep[g.find(roots[0])].kind == "add"


def test_self_referential_member_skipped():
    g, d, roots = seeded("(module m (input a 4) (output y a))")
    acls = g.find(roots[0])
    g.merge(acls, g.add(ENode("and", (acls, acls), 4)))
    g.rebuild()
    rep = choose_representatives(g)
    assert rep[g.find(acls)].kind == "var"


def test_reg_stream_semantics():
    waves, g, roots = run_design(
        "(module m (input a 4) (input en 1) (output q (reg a en)))",
        a=[3, 5, 7], en=[1, 0, 1],
    )
    assert waves[g.find(roots[0])].values == [0, 3, 3]


def test_treg_stream_semantics():
    waves, g, roots = run_design(
        "(module m (input a 4) (input en 1) (output q (treg a en)))",
        a=[3, 5, 7], en=[0, 1, 0],
    )
    assert waves[g.find(roots[0])].values == [0, 5, 5]


def test_shift_semantics_zero_fill_and_overshift():
    waves, g, roots = run_design(
        "(module m (input a 4) (input k 3) (output y (shl a k)))",
        a=[0b1011, 0b1011, 0b1011, 0b1011, 0b1011],
        k=[0, 1, 3, 4, 7],
    )
    assert waves[g.find(roots[0])].values == [0b1011, 0b0110, 0b1000, 0, 0]


def test_mul_produces_full_width_product():
    waves, g, roots = run_design(
        "(module m (input a 8) (input b 8) (output y (mul a b)))",
        a=[255, 17], b=[255, 3],
    )
    assert waves[g.find(roots[0])].values == [255 * 255, 51]
    assert g.class_width(roots[0]) == 16


def test_rep_tiles_the_operand():
    waves, g, roots = run_design(
        "(module m (input a 2) (output y (rep4 a)))", a=[0b10, 0b01],
    )
    assert waves[g.find(roots[0])].values == [0b10101010, 0b01010101]


def test_simulation_needs_every_input():
    g, d, _ = seeded(FIG1)
    rep = choose_representatives(g, origin=g.design_enodes(d))
    with pytest.raises(SimulationError):
        simulate(g, rep, {"s": Waveform(1, [0, 1])})


def test_simulation_rejects_ragged_cycle_counts():
    g, d, _ = seeded("(module m (input a 4) (input en 1) (output q (reg a en)))")
    rep = choose_representatives(g, origin=g.design_enodes(d))
    with pytest.raises(SimulationError):
        simulate(g, rep, {"a": Waveform(4, [0, 1]), "en": Waveform(1, [1])})


def test_activity_word_average_of_mixed_rates():
    # three bits toggling at 0.25, 0.5 and 0.75 average to exactly 0.5
    stats = activity(Waveform(3, [0, 6, 2, 4, 5]))
    assert stats.rates == (0.25, 0.5, 0.75)
    assert stats.word_rate == 0.5
    assert stats.static_prob == (0.2, 0.4, 0.6)
    assert stats.static_prob_mean == pytest.approx(0.4)


def test_activity_of_constant_is_zero():
    stats = activity(Waveform(4, [9] * 10))
    assert stats.word_rate == 0.0 and all(r == 0.0 for r in stats.rates)


def test_activity_alternating_bit():
    stats = activity(Waveform(1, [0, 1, 0, 1, 0, 1, 0, 1, 0]))
    assert stats.rates == (1.0,)
    assert stats.static_prob == (pytest.approx(4 / 9),)


def test_activity_needs_two_cycles():
    with pytest.raises(SimulationError):
        activity(Waveform(1, [0]))


def test_activity_csv_layout():
    waves, g, roots = run_design(
        "(module m (input a 2) (output y (not a)))", a=[0, 3, 0],
    )
    csv = activity_csv(graph_activity(waves))
    lines = csv.strip().splitlines()
    assert lines[0] == "class_id,width,word_toggle_rate,static_prob_mean"
    assert len(lines) == 1 + len(waves)
    cid = g.find(roots[0])
    assert any(line.startswith(f"{cid},2,1.000000,") for line in lines[1:])


def test_width_safety_on_random_graphs():
    rng = random.Random(99)
    for _ in range(40):
        d = random_design(rng)
        g = EGraph()
        g.add_expr(d)
        rep = choose_representatives(g, origin=g.design_enodes(d))
        waves = simulate(g, rep, random_stimuli(rng, d, 16))
        for cid, w in waves.items():
            assert all(0 <= v < (1 << w.width) for v in w.values)


def test_class_consistency_after_rewriting():
    g, d, _ = seeded(FIG1)
    apply_rules(g, rules_by_name(["gate-right", "propagate-mask", "combine-masks"]),
                max_iters=3)
    rep = choose_representatives(g, origin=g.design_enodes(d))
    rng = random.Random(4)
    stim = random_stimuli(rng, d, 64)
    waves = simulate(g, rep, stim)
    assert class_consistency_mismatches(g, rep, waves, stim) == []


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), cycles=st.integers(1, 24))
def test_graph_simulation_matches_the_scalar_oracle(seed, cycles):
    rng = random.Random(seed)
    d = random_design(rng)
    g = EGraph()
    g.add_expr(d)
    stim = random_stimuli(rng, d, cycles)
    waves = simulate(g, choose_representatives(g, origin=g.design_enodes(d)), stim)
    _, values = simulate_design(d, stim)
    for idx, cid in enumerate(g.design_classes(d)):
        assert waves[g.find(cid)].values == values[idx], d.nodes[idx]


def accumulator(width=4):
    """q = reg(q + a, en), built by merging a placeholder with the register."""
    g = EGraph()
    a = g.add(ENode("var", (), width, "a"))
    en = g.add(ENode("var", (), 1, "en"))
    q = g.add(ENode("var", (), width, "q"))
    total = g.add(ENode("add", (q, a), width))
    g.merge(q, g.add(ENode("reg", (total, en), width)))
    g.rebuild()
    return g, g.find(q), g.find(total)


def test_register_loop_is_stepped_per_cycle():
    g, q, total = accumulator()
    rep = choose_representatives(g)
    assert rep[q].kind == "reg"  # the register reads its own class through the add
    waves = simulate(g, rep, {"a": Waveform(4, [1, 2, 3, 4, 5, 9]),
                              "en": Waveform(1, [1, 1, 0, 1, 1, 1]),
                              "q": Waveform(4, [0] * 6)})
    assert waves[q].values == [0, 1, 3, 3, 7, 12]
    assert waves[total].values == [1, 3, 6, 7, 12, 5]  # wraps at 4 bits


def test_combinational_loop_is_rejected():
    g, q, total = accumulator()
    rep = choose_representatives(g)
    rep[q] = ENode("and", (total, total), 4)
    with pytest.raises(SimulationError, match="combinational cycle"):
        simulate(g, rep, {"a": Waveform(4, [1]), "en": Waveform(1, [1]), "q": Waveform(4, [0])})


def test_words_wider_than_64_bits():
    top = (1 << 40) - 1
    waves, g, roots = run_design(
        "(module m (input a 40) (input b 40) (output y (mul a b)) (output z (rep2 a)))",
        a=[top, 3, 1 << 39], b=[top, 5, 2],
    )
    y, z = (g.find(r) for r in roots)
    assert g.class_width(y) == 80
    assert waves[y].values == [top * top, 15, 1 << 40]
    assert waves[z].values == [top << 40 | top, 3 << 40 | 3, 1 << 79 | 1 << 39]
    v = waves[y].values
    stats = activity(waves[y])
    assert stats.toggles == tuple(((v[0] ^ v[1]) >> b & 1) + ((v[1] ^ v[2]) >> b & 1)
                                  for b in range(80))
    assert stats.static_prob[79] == pytest.approx(1 / 3)


@pytest.mark.parametrize("text", [
    "(module m (input p0 4) (output y (add (or p0 p0) p0)))",
    "(module m (input a 4) (output y (xor (not (not a)) a)))",
])
def test_design_choice_is_acyclic_after_rewriting(text):
    g, d, _ = seeded(text)
    apply_rules(g, rules_by_name(None), max_iters=1)
    origin = g.design_enodes(d)
    rep = choose_representatives(g, origin=origin)
    seed = seed_from_design(g, d)
    assert {cid: rep[cid] for cid in seed} == seed
    assert all(n in origin[cid] for cid, n in seed.items())
    simulate(g, rep, random_stimuli(random.Random(5), d, 8))


# Widths on each side of every storage dtype boundary (test_stimulus pins
# which dtype each width stores in); operators compute in uint64 either way.
BOUNDARY_WIDTHS = (1, 8, 9, 16, 17, 32, 33, 64, 65)


def boundary_stimuli(width, ports):
    """Every pairing of all-zero, all-one and top-bit words on `ports`, with
    the select and enable bits cycling underneath."""
    words = (0, (1 << width) - 1, 1 << (width - 1))
    combos = list(itertools.product(words, repeat=len(ports)))
    waves = {p: Waveform(width, [c[i] for c in combos]) for i, p in enumerate(ports)}
    waves["s"] = Waveform(1, [i % 2 for i in range(len(combos))])
    waves["en"] = Waveform(1, [i // 2 % 2 for i in range(len(combos))])
    return waves


@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
def test_narrow_storage_matches_the_oracle_at_dtype_boundaries(width):
    b = DesignBuilder("m")  # add3 has no netlist syntax; rewriting makes it
    for port, w in (("a", width), ("b", width), ("c", width), ("s", 1), ("en", 1)):
        b.add_input(port, w)
    a, x, c, s, en = (b.var(p) for p in ("a", "b", "c", "s", "en"))
    nodes = [b.op("add", a, x), b.op("sub", a, x), b.op("add3", a, x, c), b.op("mul", a, x),
             b.op("shl", a, c), b.op("shr", a, c), b.op("not", a), b.op("rep", a, count=2),
             b.op("mux", s, a, x), b.op("reg", b.op("add", a, c), en),
             b.op("treg", b.op("sub", a, c), en)]
    for i, n in enumerate(nodes):
        b.add_output(f"o{i}", n)
    d = b.finish()
    g = EGraph()
    g.add_expr(d)
    stim = boundary_stimuli(width, ("a", "b", "c"))
    waves = simulate(g, choose_representatives(g, origin=g.design_enodes(d)), stim)
    _, values = simulate_design(d, stim)
    for idx, cid in enumerate(g.design_classes(d)):
        assert waves[g.find(cid)].values == values[idx], d.nodes[idx]
    for cid, w in waves.items():
        assert w.array.dtype == word_dtype(g.class_width(cid)), (cid, w.width)


@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
def test_register_loop_writes_narrow_words(width):
    g, q, total = accumulator(width)
    stim = boundary_stimuli(width, ("a",))
    stim["q"] = Waveform(width, [0] * stim["a"].cycles)
    waves = simulate(g, choose_representatives(g), stim)
    acc, expect_q, expect_total = 0, [], []
    for a, en in zip(stim["a"].values, stim["en"].values):
        expect_q.append(acc)
        expect_total.append((acc + a) % (1 << width))
        acc = expect_total[-1] if en else acc
    assert waves[q].values == expect_q
    assert waves[total].values == expect_total
    assert waves[q].array.dtype == waves[total].array.dtype == word_dtype(width)


def test_class_waveforms_take_one_byte_a_cycle_on_the_grown_add_tree(grown_comb):
    # every class is 1 or 8 bits wide: 2,000 cycles x 2,419 classes x 1 byte,
    # against 8 bytes a cycle when every word was stored as uint64
    _, g, _, waves = grown_comb
    assert {g.class_width(cid) for cid in waves} == {1, 8}
    assert len(waves) == g.class_count() == 2419
    assert sum(w.array.nbytes for w in waves.values()) == 2000 * 2419 == 4_838_000
    # provenance is kept for the live nodes only (18,193 keys before)
    assert len(g.made_by) == g.enode_count() == 8244


@pytest.mark.parametrize("cycles", [0, 1, 2, 7])
def test_registers_on_stream_rows_equal_one_stream_at_a_time(cycles):
    # exhaustive checking runs the register entries on (streams, cycles) arrays
    rng = np.random.default_rng(cycles)
    data = rng.integers(0, 16, (5, cycles)).astype(np.uint64)
    enable = rng.integers(0, 2, (5, cycles)).astype(np.uint64)
    held, registered = _hold(data, enable), _reg(None, None, data, enable)
    assert held.shape == registered.shape == (5, cycles)
    for row in range(5):
        assert held[row].tolist() == _hold(data[row], enable[row]).tolist()
        assert registered[row].tolist() == _reg(None, None, data[row], enable[row]).tolist()
