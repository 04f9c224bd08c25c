import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersat import benchmarks
from powersat.egraph import EGraph, ENode
from powersat.equiv import simulate_design
from powersat.extract import seed_from_design
from powersat.ir import DesignBuilder, parse_design
from powersat.rewrite import apply_rules, rules_by_name
from powersat.simulate import (
    _ACTIVITY_BYTES,
    SimulationError,
    _hold,
    _reg,
    activity,
    activity_csv,
    choose_representatives,
    class_consistency_mismatches,
    class_waveforms,
    graph_activity,
    simulate,
)
from powersat.stimulus import Waveform, generate_stimuli, word_dtype

from _util import (
    EVERY_KIND,
    provenance_tags,
    random_design,
    random_egraph,
    random_stimuli,
    traced_held,
    traced_peak,
)

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
    rep = choose_representatives(g)
    waves = {p: Waveform(dict(d.inputs)[p], list(v)) for p, v in stim.items()}
    return simulate(g, rep, waves), g, roots


def test_representatives_of_unrewritten_graph_are_the_design():
    g, d, _ = seeded(FIG1)
    rep = choose_representatives(g)
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
    rep = choose_representatives(g)
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
    rep = choose_representatives(g)
    with pytest.raises(SimulationError):
        simulate(g, rep, {"s": Waveform(1, [0, 1])})


def test_simulation_rejects_ragged_cycle_counts():
    g, d, _ = seeded("(module m (input a 4) (input en 1) (output q (reg a en)))")
    rep = choose_representatives(g)
    with pytest.raises(SimulationError):
        simulate(g, rep, {"a": Waveform(4, [0, 1]), "en": Waveform(1, [1])})


def test_simulation_without_stimuli_names_the_missing_cycle_count():
    g, _, _ = seeded("(module m (output y (const 8 3)))")
    with pytest.raises(SimulationError, match="no stimuli given, so no cycle count"):
        simulate(g, choose_representatives(g), {})


def test_simulation_rejects_a_value_wider_than_its_class():
    g = EGraph()
    a, b = (g.add(ENode("var", (), 4, port)) for port in "ab")
    product = g.add(ENode("mul", (a, b), 4))
    stimuli = {"a": Waveform(4, [3, 15]), "b": Waveform(4, [5, 15])}
    with pytest.raises(SimulationError, match=f"class {product}: value 225 does not fit in 4 bits"):
        simulate(g, choose_representatives(g), stimuli)


def test_activity_word_average_of_mixed_rates():
    # three bits toggling at 0.25, 0.5 and 0.75 average to exactly 0.5
    stats = activity(Waveform(3, [0, 6, 2, 4, 5]))
    assert stats.rates == (0.25, 0.5, 0.75)
    assert stats.word_rate == 0.5


def test_activity_of_constant_is_zero():
    stats = activity(Waveform(4, [9] * 10))
    assert stats.word_rate == 0.0 and all(r == 0.0 for r in stats.rates)


def test_activity_alternating_bit():
    stats = activity(Waveform(1, [0, 1, 0, 1, 0, 1, 0, 1, 0]))
    assert stats.rates == (1.0,)


def test_activity_needs_two_cycles():
    with pytest.raises(SimulationError):
        activity(Waveform(1, [0]))



@settings(max_examples=100)
@given(data=st.data(), width=st.integers(1, 80), cycles=st.integers(2, 30))
def test_activity_matches_a_plain_int_toggle_count(data, width, cycles):
    # widths 1-80 cross every storage dtype: uint8/16/32/64 and Python ints
    words = data.draw(st.lists(st.integers(0, (1 << width) - 1),
                               min_size=cycles, max_size=cycles))
    toggles = [sum((a ^ b) >> bit & 1 for a, b in zip(words, words[1:]))
               for bit in range(width)]
    stats = activity(Waveform(width, words))
    assert stats.toggles == tuple(toggles)
    assert stats.word_rate == sum(t / (cycles - 1) for t in toggles) / width

def test_activity_csv_layout():
    waves, g, roots = run_design(
        "(module m (input a 2) (output y (not a)))", a=[0, 3, 0],
    )
    csv = activity_csv(graph_activity(waves))
    lines = csv.strip().splitlines()
    assert lines[0] == "class_id,width,word_toggle_rate"
    assert len(lines) == 1 + len(waves)
    cid = g.find(roots[0])
    assert f"{cid},2,1.000000" in lines[1:]


def test_width_safety_on_random_graphs():
    rng = random.Random(99)
    for _ in range(40):
        d = random_design(rng)
        g = EGraph()
        g.add_expr(d)
        rep = choose_representatives(g)
        waves = simulate(g, rep, random_stimuli(rng, d, 16))
        for cid, w in waves.items():
            assert all(0 <= v < (1 << w.width) for v in w.values)


def test_class_consistency_after_rewriting():
    g, d, _ = seeded(FIG1)
    apply_rules(g, rules_by_name(["gate-right", "propagate-mask", "combine-masks"]),
                max_iters=3)
    rep = choose_representatives(g)
    rng = random.Random(4)
    stim = random_stimuli(rng, d, 64)
    waves = simulate(g, rep, stim)
    assert class_consistency_mismatches(g, waves, stim) == []


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), cycles=st.integers(1, 24))
def test_graph_simulation_matches_the_scalar_oracle(seed, cycles):
    rng = random.Random(seed)
    d = random_design(rng)
    g = EGraph()
    g.add_expr(d)
    stim = random_stimuli(rng, d, cycles)
    waves = simulate(g, choose_representatives(g), stim)
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


def test_combinational_loop_is_rejected():
    # A class listed before a class it reads is rejected, so a loop of
    # representatives, which no order can list, is too.
    g, q, total = accumulator()
    stim = {"a": Waveform(4, [1]), "en": Waveform(1, [1]), "q": Waveform(4, [0])}
    backwards = dict(reversed(choose_representatives(g).items()))
    with pytest.raises(SimulationError, match=f"class {total} is listed before class {q},"):
        simulate(g, backwards, stim)
    rep = choose_representatives(g)
    rep[q] = ENode("and", (total, total), 4)
    with pytest.raises(SimulationError, match=f"class {q} is listed before class {total},"):
        simulate(g, rep, stim)


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


@pytest.mark.parametrize("text", [
    "(module m (input p0 4) (output y (add (or p0 p0) p0)))",
    "(module m (input a 4) (output y (xor (not (not a)) a)))",
])
def test_design_choice_is_acyclic_after_rewriting(text):
    g, d, _ = seeded(text)
    apply_rules(g, rules_by_name(None), max_iters=1)
    origin = g.design_enodes(d)
    rep = choose_representatives(g)
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
    waves = simulate(g, choose_representatives(g), stim)
    _, values = simulate_design(d, stim)
    for idx, cid in enumerate(g.design_classes(d)):
        assert waves[g.find(cid)].values == values[idx], d.nodes[idx]
    for cid, w in waves.items():
        assert w.array.dtype == word_dtype(g.class_width(cid)), (cid, w.width)


def test_class_waveforms_take_one_byte_a_cycle_on_the_grown_add_tree(grown_comb):
    # every class is 1 or 8 bits wide: 2,000 cycles x 2,419 classes x 1 byte,
    # against 8 bytes a cycle when every word was stored as uint64
    _, g, _, waves = grown_comb
    assert {g.class_width(cid) for cid in waves} == {1, 8}
    assert len(waves) == g.class_count() == 2419
    assert sum(w.array.nbytes for w in waves.values()) == 2000 * 2419 == 4_838_000
    # provenance is kept for the live nodes only (18,193 keys before)
    assert len(provenance_tags(g)) == g.enode_count() == 8244


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


def assert_streamed_activity_is_whole_graph_activity(g, rep, stim):
    # each waveform counted alone, from the graph simulated whole
    waves = simulate(g, rep, stim)
    streamed = graph_activity(class_waveforms(g, rep, stim))
    assert list(streamed) == list(waves)
    assert streamed == {cid: activity(w) for cid, w in waves.items()}
    assert graph_activity(waves) == streamed


@pytest.mark.parametrize("name,cfg", [(n, c) for n in benchmarks.corpus_names()
                                      for c in benchmarks.config_names()])
def test_streamed_activity_on_every_corpus_cell(name, cfg):
    d = benchmarks.design(name)
    g = EGraph()
    g.add_expr(d)
    apply_rules(g, rules_by_name(None), max_iters=2 if "add_tree" in name else 8)
    stim = generate_stimuli(benchmarks.stimuli_config(name, cfg), d)
    assert_streamed_activity_is_whole_graph_activity(
        g, choose_representatives(g), stim)


def looped(rng, d):
    """The graph of `d` with some input ports merged with a register of a
    class of their width, so the class graph can loop through a register.
    A port's oldest member is the port itself, so no representative loop
    forms, and the port's stimulus is its class's waveform."""
    g = EGraph()
    g.add_expr(d)
    classes = g.class_ids()
    enables = [c for c in classes if g.class_width(c) == 1]
    enables = enables or [g.add(ENode("const", (), 1, value=1))]
    for port, w in d.inputs:
        if rng.random() < 0.5:
            q = g.add(ENode("var", (), w, port))
            data = rng.choice([c for c in classes if g.class_width(c) == w])
            g.merge(q, g.add(ENode("reg", (data, rng.choice(enables)), w)))
    g.rebuild()
    return g


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), cycles=st.integers(2, 24))
def test_streamed_activity_on_random_register_loops(seed, cycles):
    rng = random.Random(seed)
    d = random_design(rng, max_nodes=16, kinds=EVERY_KIND)
    g = looped(rng, d)
    assert_streamed_activity_is_whole_graph_activity(
        g, choose_representatives(g), random_stimuli(rng, d, cycles))


def test_streamed_activity_steps_register_loops():
    # the accumulator's class graph loops through its register; the oldest
    # members, the port q and the add, do not, so each is simulated whole
    g, q, total = accumulator()
    stim = {"a": Waveform(4, [1, 2, 3, 4, 5, 9]), "en": Waveform(1, [1, 1, 0, 1, 1, 1]),
            "q": Waveform(4, [0] * 6)}
    assert_streamed_activity_is_whole_graph_activity(g, choose_representatives(g), stim)


def test_streamed_activity_memory_is_bounded(grown_comb):
    # the 2,419 class waveforms take 4.8 MB; simulated whole and then
    # counted 256 a batch they peaked at 9.2 MB (tracemalloc)
    d, g, stim, _ = grown_comb
    rep = choose_representatives(g)
    stats, peak = traced_peak(lambda: graph_activity(class_waveforms(g, rep, stim)))
    assert len(stats) == 2419
    assert peak < 5 << 20



def test_activity_holds_under_500_bytes_a_class(grown_comb):
    # per-bit toggles and one word rate a class; per-bit ones counts and
    # static probabilities beside them held 789 bytes a class (tracemalloc)
    _, _, _, waves = grown_comb
    stats, held = traced_held(lambda: graph_activity(waves))
    assert len(stats) == 2419
    assert held < 500 * 2419

def test_activity_batches_are_bounded_in_bytes():
    # A batch holds at most `_ACTIVITY_BYTES` of waveforms; its row matrix,
    # the XOR of neighbouring cycles and one masked temporary are each no
    # larger. The rest is the waveform in hand and the statistics, so the
    # peak does not grow with the number of waveforms.
    cycles, rng = 50_000, np.random.default_rng(5)

    def stream():
        for cid in range(100):
            yield cid, Waveform(8, rng.integers(0, 256, cycles, dtype=np.uint8))

    stats, peak = traced_peak(lambda: graph_activity(stream()))
    assert len(stats) == 100
    assert peak < 4 * _ACTIVITY_BYTES + 8 * cycles


# Representative pins: sha256 of the sorted (class, rendered representative)
# pairs of `choose_representatives(g)`, each class's oldest member. Scores
# cannot catch a changed choice: every member of a class simulates to the
# class's waveform.
CORPUS_REPRESENTATIVES = [
    ("comb_mux_add_tree", 4, "2ff02f2ea22434643117e3325db1a9ed1f5e84d5647b4ab72077f03378c9bf1c"),
    ("dual_op_alu", 8, "48c213242f42f849ec475d62e1fe1e9225c5ae5eb9d881c8196faf7ed0d02d1a"),
    ("fig1_op_isolate", 8, "e80c798a375a64f3b136bd9cf234d9ed383491bbb8411c7d3d7fa218447d36af"),
    ("pipe_mux_add_tree", 4, "60b1e7203245a30ce648ce38aceb4b2895ba8d6b940e66a41c6d82fe13fe36c0"),
    ("seq_reg", 8, "f7d2976f0fc22d3841a52466a6e910b46737c1f32fdf565694e71fecb402b9d9"),
]
# The draws of test_rewrite.MIXED_SATURATION, at 2 iterations.
MIXED_REPRESENTATIVES = [
    (0, "6b9a55e81eeb4d183d2ad33c8faec8350dbb769e2b1ce984cfebf9edfe8149df"),
    (1, "032540388515c8ef050e5ac84dbe39d28b62539b4452ebeb3fa9738e0e20d7b7"),
    (2, "5ee5ae6f565886434370267e6f26fe1eb7cedb22d202440607cc4508730e8d96"),
    (3, "a4deeea4d4e58fa2cd33bdc04eb414048579fdf96b9dd5cbeaee0d85f33d3fe6"),
    (4, "cf18d285fc3d2f62dece4e3cb658f1c61c4eb08469729ac352a623501f0eca4c"),
]


def representative_digest(d, iters):
    g = EGraph()
    g.add_expr(d)
    apply_rules(g, rules_by_name(None), max_iters=iters)
    rep = choose_representatives(g)
    return hashlib.sha256(repr(sorted((cid, g.render(n)) for cid, n in rep.items()))
                          .encode()).hexdigest()


@pytest.mark.parametrize("name,iters,digest", CORPUS_REPRESENTATIVES)
def test_corpus_representatives_are_pinned(name, iters, digest):
    assert representative_digest(benchmarks.design(name), iters) == digest


@pytest.mark.parametrize("draw,digest", MIXED_REPRESENTATIVES)
def test_mixed_representatives_are_pinned(draw, digest):
    d = random_design(random.Random(f"mixed/{draw}"), max_nodes=24, kinds=EVERY_KIND)
    assert representative_digest(d, 2) == digest


def assert_oldest_members_in_made_order(g):
    """Each representative is its class's lowest-tag member, and each class
    is listed after every class its representative reads, register edges
    included."""
    tags = provenance_tags(g)
    rep = choose_representatives(g)
    assert sorted(rep) == g.class_ids()
    listed = set()
    for cid, n in rep.items():
        assert tags[n] == min(tags[m] for m in g.nodes_of(cid)), (cid, n)
        assert {g.find(c) for c in n.children} <= listed, (cid, n)
        listed.add(cid)
    return rep


@pytest.mark.parametrize("name,iters", [(n, i) for n, i, _ in CORPUS_REPRESENTATIVES])
def test_corpus_representatives_are_oldest_members_in_made_order(name, iters):
    g = EGraph()
    g.add_expr(benchmarks.design(name))
    apply_rules(g, rules_by_name(None), max_iters=iters)
    assert_oldest_members_in_made_order(g)


@pytest.mark.parametrize("draw", [draw for draw, _ in MIXED_REPRESENTATIVES])
def test_mixed_representatives_are_oldest_members_in_made_order(draw):
    g = EGraph()
    g.add_expr(random_design(random.Random(f"mixed/{draw}"), max_nodes=24, kinds=EVERY_KIND))
    apply_rules(g, rules_by_name(None), max_iters=2)
    assert_oldest_members_in_made_order(g)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_egraph_representatives_are_oldest_members_in_made_order(seed):
    # the merges often close cycles of the class graph, through registers too
    rng = random.Random(seed)
    g, _, _ = random_egraph(rng)
    rep = assert_oldest_members_in_made_order(g)
    ports = {n.port: n.width for cid in g.class_ids() for n in g.nodes_of(cid) if n.kind == "var"}
    stim = {p: Waveform(w, [rng.randrange(1 << w) for _ in range(6)]) for p, w in ports.items()}
    assert list(simulate(g, rep, stim)) == list(rep)


def test_the_simulate_module_is_importable_by_name():
    # a package attribute named `simulate` would shadow the module here
    import powersat.simulate as S

    assert S.choose_representatives is choose_representatives
