import hashlib
import random

import pytest

from powersat import benchmarks, equiv
from powersat.equiv import (
    EquivError,
    Mismatch,
    cosimulate,
    exhaustive_check,
    exhaustive_rule_check,
    fuzz_rule,
    rule_vars,
    simulate_design,
)
from powersat.ir import parse_design, print_design
from powersat.rewrite import PConst, PNode, PRep, PVar, Rewrite, rules_by_name
from powersat.stimulus import StimulusConfig, Waveform, generate_stimuli

from _util import EVERY_KIND, chain, random_design, random_stimuli, traced_held, traced_peak

REG = "(module r (input a 4) (input en 1) (output q (reg a en)))"
TREG = "(module r (input a 4) (input en 1) (output q (treg a en)))"


def wave(width, values):
    return Waveform(width, list(values))


def register_output(text, a, en):
    outs, _ = simulate_design(parse_design(text), {"a": wave(4, a), "en": wave(1, en)})
    return outs["q"].values


def test_register_stream():
    # 0 at cycle 0, then the data of the last cycle the enable was high
    assert register_output(REG, [3, 5, 7], [1, 0, 1]) == [0, 3, 3]
    assert register_output(REG, [9, 5, 7, 2, 4, 6], [1, 0, 0, 1, 1, 0]) == [0, 9, 9, 9, 2, 4]
    assert register_output(REG, [3, 4, 5], [0, 0, 0]) == [0, 0, 0]


def test_transparent_register_stream():
    # transparent while the enable is high, holds while low, 0 before capture
    assert register_output(TREG, [3, 5, 7], [0, 1, 0]) == [0, 5, 5]
    assert register_output(TREG, [9, 5, 7, 2, 4, 6], [0, 1, 1, 0, 0, 1]) == [0, 5, 7, 7, 7, 6]
    assert register_output(TREG, [3, 4, 5], [1, 1, 1]) == [3, 4, 5]


# sha256 of the oracle's per-node waveforms on every corpus cell's stimulus,
# computed with the cycle-by-cycle interpreter; a faster oracle keeps them.
ORACLE_PINS = {
    "comb_mux_add_tree/cfg1": "067a6c6e18cf1146e62faa54403fedefc96518414b658b84fd03286ad9a88dea",
    "comb_mux_add_tree/cfg2": "067a6c6e18cf1146e62faa54403fedefc96518414b658b84fd03286ad9a88dea",
    "comb_mux_add_tree/cfg3": "70fde67439dd082e997d49a6f5d15113452afd7d0086fde78bafdb430c3798e5",
    "comb_mux_add_tree/cfg4": "70fde67439dd082e997d49a6f5d15113452afd7d0086fde78bafdb430c3798e5",
    "dual_op_alu/cfg1": "d7829f8182369bf1ec1ddf6ac25f7b4340d8c393db872cf3767a5e3fc27e03f1",
    "dual_op_alu/cfg2": "d7829f8182369bf1ec1ddf6ac25f7b4340d8c393db872cf3767a5e3fc27e03f1",
    "dual_op_alu/cfg3": "a17faba344cdaa53874f3f4126313e85cfbd78c6f7b422419414ba3722e9686d",
    "dual_op_alu/cfg4": "a17faba344cdaa53874f3f4126313e85cfbd78c6f7b422419414ba3722e9686d",
    "fig1_op_isolate/cfg1": "4a42dad13d94b52cb1b129ee3f0d450c10bc02f01e5c1eb693eb1595ae3dde8c",
    "fig1_op_isolate/cfg2": "4a42dad13d94b52cb1b129ee3f0d450c10bc02f01e5c1eb693eb1595ae3dde8c",
    "fig1_op_isolate/cfg3": "30ba781a2151e57426f8371610443f1a025b6887117e565f64a1b99ff4edfee0",
    "fig1_op_isolate/cfg4": "30ba781a2151e57426f8371610443f1a025b6887117e565f64a1b99ff4edfee0",
    "pipe_mux_add_tree/cfg1": "80ea02be68c1df2be47765034d675aa20b24079bf02d65f21ea15c249c1865f6",
    "pipe_mux_add_tree/cfg2": "cbf8342fad6f3aebed77b07289eb79406282af09c46e1b34fb04e95288eea39e",
    "pipe_mux_add_tree/cfg3": "72a4a5b7d7f826fa195f60d4ae8dd3f9098fbca3349cbb13060891cb2b55cb1f",
    "pipe_mux_add_tree/cfg4": "14766e19b36ade48271492528cd05f19f4e56e0668ad320024f4db1430a581bc",
    "seq_reg/cfg1": "49c45afd649c535de85052a0edb4053da8f0db5689dd026c81d074e50e16cc5d",
    "seq_reg/cfg2": "6d6294fa30ef368f72629cb7e9ff6a263812f025badba4822e0f7a9f123af19b",
    "seq_reg/cfg3": "6d6294fa30ef368f72629cb7e9ff6a263812f025badba4822e0f7a9f123af19b",
    "seq_reg/cfg4": "49c45afd649c535de85052a0edb4053da8f0db5689dd026c81d074e50e16cc5d",
}


@pytest.mark.parametrize("cell", sorted(ORACLE_PINS))
def test_oracle_waveforms_are_pinned(cell):
    name, cfg = cell.split("/")
    d = benchmarks.design(name)
    _, values = simulate_design(d, generate_stimuli(benchmarks.stimuli_config(name, cfg), d))
    text = "\n".join(" ".join(map(str, v)) for v in values)
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_PINS[cell]


def test_cosimulate_design_with_itself():
    rng = random.Random(11)
    for _ in range(25):
        d = random_design(rng)
        assert cosimulate(d, d, random_stimuli(rng, d, 32)) is None


def test_gated_mux_leg_is_equivalent():
    lhs = parse_design(
        "(module m (input s 1) (input b 4) (input c 4) (output y (mux s b c)))"
    )
    rhs = parse_design(
        "(module m (input s 1) (input b 4) (input c 4)"
        " (output y (mux s b (and c (rep4 (not s))))))"
    )
    rng = random.Random(3)
    for _ in range(20):
        assert cosimulate(lhs, rhs, random_stimuli(rng, lhs, 16)) is None


def test_register_flavors_differ_at_cycle_zero():
    mm = cosimulate(
        parse_design("(module r (input a 1) (input en 1) (output q (reg a en)))"),
        parse_design("(module r (input a 1) (input en 1) (output q (treg a en)))"),
        {"a": wave(1, [1, 1]), "en": wave(1, [1, 0])},
    )
    assert mm is not None
    assert (mm.cycle, mm.port, mm.expected, mm.actual) == (0, "q", 0, 1)
    assert "cycle 0" in str(mm)


def test_mismatch_reports_earliest_cycle():
    mm = cosimulate(
        parse_design("(module r (input a 4) (output q (reg a (const 1 1))))"),
        parse_design("(module r (input a 4) (output q (treg a (const 1 1))))"),
        {"a": wave(4, [0, 5, 9])},
    )
    assert mm is not None and mm.cycle == 1
    assert (mm.expected, mm.actual) == (0, 5)


def test_mismatch_is_the_earliest_cycle_then_the_first_port():
    d1 = parse_design("(module m (input a 4) (input b 4)"
                      " (output x (and a b)) (output y (xor a b)))")
    d2 = parse_design("(module m (input a 4) (input b 4)"
                      " (output x (or a b)) (output y (or a b)))")
    mm = cosimulate(d1, d2, {"a": wave(4, [0, 2, 1]), "b": wave(4, [0, 2, 3])})
    assert (mm.cycle, mm.port, mm.expected, mm.actual) == (1, "y", 0, 2)
    mm = cosimulate(d1, d2, {"a": wave(4, [0, 1, 2]), "b": wave(4, [0, 3, 2])})
    assert (mm.cycle, mm.port, mm.expected, mm.actual) == (1, "x", 1, 3)


# Earliest mismatch between a random design and a one-operator mutant, as the
# cycle-by-cycle interpreter found it (None: equal on that stimulus).
MUTANT_PINS = [
    (0, (0, "y3", 0, 7)), (1, (0, "y3", 4, 1)), (3, (2, "y1", 1, 0)),
    (4, (1, "y1", 0, 1)), (5, (0, "y4", 0, 8)), (6, None), (7, (0, "y0", 14, 0)),
    (8, None), (10, None), (11, None),
]
_SWAPS = (("(and ", "(or "), ("(xor ", "(and "), ("(shl ", "(shr "), ("(treg ", "(reg "))


@pytest.mark.parametrize("seed,expected", MUTANT_PINS)
def test_mutant_mismatch_is_pinned(seed, expected):
    rng = random.Random(f"mismatch/{seed}")
    d = random_design(rng, max_nodes=16, kinds=EVERY_KIND)
    text = print_design(d)
    old, new = next((o, n) for o, n in _SWAPS if o in text)
    mm = cosimulate(d, parse_design(text.replace(old, new, 1)), random_stimuli(rng, d, 64))
    assert (None if mm is None else (mm.cycle, mm.port, mm.expected, mm.actual)) == expected


def test_signature_mismatch_rejected():
    d1 = parse_design("(module m (input a 4) (output y a))")
    d2 = parse_design("(module m (input a 8) (output y a))")
    with pytest.raises(EquivError, match="signatures"):
        cosimulate(d1, d2, {"a": wave(4, [0])})
    with pytest.raises(EquivError, match="signatures"):
        exhaustive_check(d1, d2, 2)


def test_exhaustive_confirms_clock_gating_identity():
    lhs = parse_design(
        "(module m (input a 1) (input b 1) (input en 1)"
        " (output q (treg (reg a en) (reg b en))))"
    )
    rhs = parse_design(
        "(module m (input a 1) (input b 1) (input en 1)"
        " (output q (reg a (and en b))))"
    )
    assert exhaustive_check(lhs, rhs, 5) is None


def test_exhaustive_confirms_xor_retiming():
    lhs = parse_design(
        "(module m (input a 1) (input b 1) (input en 1)"
        " (output q (xor (reg a en) (reg b en))))"
    )
    rhs = parse_design(
        "(module m (input a 1) (input b 1) (input en 1)"
        " (output q (reg (xor a b) en)))"
    )
    assert exhaustive_check(lhs, rhs, 4) is None


def test_exhaustive_rejects_inverted_retiming():
    # pulling an output inverter through the registers flips cycle 0
    lhs = parse_design(
        "(module m (input a 1) (input b 1) (input en 1)"
        " (output q (not (and (reg a en) (reg b en)))))"
    )
    rhs = parse_design(
        "(module m (input a 1) (input b 1) (input en 1)"
        " (output q (reg (not (and a b)) en)))"
    )
    mm = exhaustive_check(lhs, rhs, 5)
    assert mm is not None and mm.cycle == 0
    assert (mm.expected, mm.actual) == (1, 0)
    replay = cosimulate(lhs, rhs, mm.stimuli)
    assert replay is not None and replay.cycle == 0


def test_exhaustive_bound_is_enforced():
    d = parse_design("(module m (input a 8) (output y (not a)))")
    with pytest.raises(EquivError, match="bound"):
        exhaustive_check(d, d, 4)


# Each library rule's left-side variables in first-visit pre-order. Fuzz
# trials draw one width per variable in this order, so a walker that visits
# them differently changes every fuzz draw.
LHS_VARS = {
    "gate-left": ["s", "b", "c"],
    "gate-right": ["s", "b", "c"],
    "propagate-mask": ["a", "b", "s"],
    "propagate-mask-left": ["a", "b", "s"],
    "propagate-mux-mask": ["s1", "a", "b", "s2"],
    "propagate-mux-mask-right": ["s1", "a", "b", "s2"],
    "propagate-mux-mask-left": ["s1", "a", "b", "s2"],
    "combine-masks": ["a", "s1", "s2"],
    "transp-reg-left": ["s", "b", "c"],
    "transp-reg-right": ["s", "b", "c"],
    "transp-reg-mask": ["a", "s"],
    "transp-reg-saturate": ["a", "s"],
    "transp-reg-reg": ["a", "en"],
    "propagate": ["a", "b", "s"],
    "propagate-mux": ["s1", "a", "b", "s2"],
    "combine-transp-reg": ["a", "s"],
    "retime-boolean": ["a", "en", "b"],
    "clock-gate-reg": ["a", "en", "b"],
    "and-mask-identity": ["a"],
    "and-mask-annihilate": ["a"],
    "or-mask-identity": ["a"],
    "or-mask-saturate": ["a"],
    "and-idempotent": ["a"],
    "or-idempotent": ["a"],
    "double-negation": ["a"],
    "de-morgan-and": ["a", "b"],
    "de-morgan-or": ["a", "b"],
    "and-commute": ["a", "b"],
    "and-associate": ["a", "b", "c"],
    "add-commute": ["a", "b"],
    "add-associate": ["a", "b", "c"],
    "add-cluster": ["a", "b", "c"],
    "add-uncluster": ["a", "b", "c"],
    "mux-op-distribute": ["s", "a", "b", "c"],
    "mux-op-factor": ["s", "a", "c", "b"],
}


def test_rule_variable_order_is_pinned():
    assert {r.name: rule_vars(r) for r in rules_by_name(None)} == LHS_VARS


def test_fuzz_passes_the_shipped_rules():
    for rule in rules_by_name(None):
        res = fuzz_rule(rule, trials=60, seed=7)
        assert res.passed, f"{rule.name}: {res.counterexample}"


def test_fuzz_catches_a_wrong_mask_polarity():
    s, b, c = PVar("s"), PVar("b"), PVar("c")
    bad = Rewrite(
        "gate-left-bad", "data-gate",
        PNode(("mux",), (s, b, c)),
        PNode(("mux",), (s, PNode(("and",), (b, PRep(PNode(("not",), (s,)), "b"))), c)),
    )
    res = fuzz_rule(bad, trials=1000, seed=0)
    assert not res.passed
    ce = res.counterexample
    assert ce is not None and ce.mismatch is not None
    assert all(w == 1 for w in ce.widths.values())  # shrunk to the smallest witness
    replay = cosimulate(ce.lhs, ce.rhs, ce.mismatch.stimuli)
    assert replay is not None and replay.cycle == ce.mismatch.cycle


def test_exhaustive_rule_check_covers_operator_families():
    saturate = rules_by_name(["transp-reg-saturate"])[0]
    assert exhaustive_rule_check(saturate, cycles=4) is None

    a, en = PVar("a"), PVar("en")
    bad = Rewrite(
        "drop-enable", "transparent-register",
        PNode(("treg",), (a, en)),
        PNode(("treg",), (a, PConst(1, 1))),
    )
    ce = exhaustive_rule_check(bad, cycles=3)
    assert ce is not None
    assert ce.mismatch.cycle <= 2


# Block pins: the engine enumerates streams in blocks, and a 16-word block
# budget leaves a single stream per block. The stream index packs each port's
# cycles in port order, lowest bits first, so with two cycles of `a` (2 bits)
# and `b` (1 bit) every stream below 16 has `b` low on both cycles. The pinned
# mismatches are the earliest cycle, then the first output port, then the
# lowest stream, as the whole-space bit-parallel engine found them.
_AB = "(module m (input a 2) (input b 1) "
BLOCK_PINS = {
    # only streams with `b` high differ, all past the first 16
    "only-past-the-first-block": (
        _AB + "(output y a))",
        _AB + "(output y (mux b (not a) a)))",
        (0, "y", 0, 3, {"a": [0, 0], "b": [1, 0]})),
    # stream 0 first differs at cycle 1; stream 16 already at cycle 0
    "later-block-earlier-cycle": (
        _AB + "(output y (not (reg a (const 1 1)))))",
        _AB + "(output y (mux b (const 2 0) (xor (const 2 3) (reg (const 2 1) (const 1 1))))))",
        (0, "y", 3, 0, {"a": [0, 0], "b": [1, 0]})),
    # `y` differs on stream 0 at cycle 0, `x` only from stream 16 on
    "first-port-wins": (
        _AB + "(output x a) (output y a))",
        _AB + "(output x (mux b (not a) a)) (output y (not a)))",
        (0, "x", 0, 3, {"a": [0, 0], "b": [1, 0]})),
}


def _zero_streams(d, cycles):
    return {p: wave(w, [0] * cycles) for p, w in d.inputs}


@pytest.mark.parametrize("case", sorted(BLOCK_PINS))
def test_exhaustive_mismatch_across_blocks_is_pinned(case, monkeypatch):
    monkeypatch.setattr(equiv, "_BLOCK_WORDS", 16, raising=False)
    left, right, expected = BLOCK_PINS[case]
    d1, d2 = parse_design(left), parse_design(right)
    first = cosimulate(d1, d2, _zero_streams(d1, 2))
    if case == "only-past-the-first-block":
        assert all(cosimulate(d1, d2, {"a": wave(2, [x, y]), "b": wave(1, [0, 0])}) is None
                   for x in range(4) for y in range(4))
    elif case == "later-block-earlier-cycle":
        assert (first.cycle, first.port) == (1, "y")
    else:
        assert (first.cycle, first.port) == (0, "y")
    mm = exhaustive_check(d1, d2, 2)
    assert mm is not None
    stimuli = {p: w.values for p, w in mm.stimuli.items()}
    assert (mm.cycle, mm.port, mm.expected, mm.actual, stimuli) == expected


def test_exhaustive_check_memory_is_bounded():
    d = parse_design("(module m (input a 1) (input b 1) (input c 1) (input en 1)"
                     " (output q (treg (reg (xor a c) en) (reg b en))))")
    result, peak = traced_peak(lambda: exhaustive_check(d, d, 5))
    assert result is None  # 20 stream bits
    assert peak < 32 << 20


def test_cosimulation_memory_follows_the_live_nodes():
    # Each design holds its two input slices, the node in hand, its child and
    # its output, and the first design's output stays while the second runs:
    # a few lists of one 8-byte pointer a cycle (4-bit words are cached
    # ints), however long the chain.
    d = chain(300)
    cycles = 20_000
    stimuli = random_stimuli(random.Random(3), d, cycles)
    result, peak = traced_peak(lambda: cosimulate(d, d, stimuli))
    assert result is None
    assert peak < 8 * 8 * cycles


def test_cosimulation_leaves_the_stimuli_as_they_were():
    # generated stimuli are arrays; reading them as lists once cached one
    # Python list per input port on the waveforms, 8.0 MB after this run
    d = benchmarks.design("comb_mux_add_tree")
    cfg = benchmarks.stimuli_config("comb_mux_add_tree", "cfg1")
    stimuli = generate_stimuli(StimulusConfig(100_000, cfg.seed, cfg.inputs), d)
    result, held = traced_held(lambda: cosimulate(d, d, stimuli))
    assert result is None
    assert held < 64 << 10


def test_exhaustive_check_of_designs_without_inputs():
    # the replay runs the enumerated cycle count, not one read off the
    # (absent) input stimuli
    d1 = parse_design("(module m (output y (reg (const 2 1) (const 1 1))))")
    d2 = parse_design("(module m (output y (treg (const 2 1) (const 1 1))))")
    assert exhaustive_check(d1, d2, 3) == Mismatch(cycle=0, port="y", expected=0, actual=1,
                                                   stimuli={})
    assert exhaustive_check(d1, d1, 3) is None


def _oracle_first_mismatch(d1, d2, cycles):
    """Every stream in index order through `cosimulate`; the mismatch first
    by (cycle, output port order, stream index)."""
    ports = [p for p, _ in d1.outputs]
    bits = sum(w for _, w in d1.inputs) * cycles
    best = None
    for stream in range(1 << bits):
        stimuli, slot = {}, 0
        for port, width in d1.inputs:
            words = []
            for _ in range(cycles):
                words.append((stream >> slot) & ((1 << width) - 1))
                slot += width
            stimuli[port] = wave(width, words)
        mm = cosimulate(d1, d2, stimuli)
        if mm is not None:
            key = (mm.cycle, ports.index(mm.port), stream)
            if best is None or key < best[0]:
                best = (key, mm)
    return None if best is None else best[1]


def _facts(mm):
    if mm is None:
        return None
    return (mm.cycle, mm.port, mm.expected, mm.actual,
            {p: w.values for p, w in mm.stimuli.items()})


@pytest.mark.parametrize("seed", range(16))
def test_exhaustive_check_equals_the_brute_force_oracle(seed, monkeypatch):
    rng = random.Random(f"oracle/{seed}")
    while True:  # a design narrow enough to enumerate, with an operator to swap
        d = random_design(rng, max_nodes=12, kinds=EVERY_KIND, widths=(1, 2))
        text = print_design(d)
        swaps = [(o, n) for o, n in _SWAPS if o in text]
        in_bits = sum(w for _, w in d.inputs)
        if swaps and in_bits <= 10:
            break
    old, new = rng.choice(swaps)
    mutant = parse_design(text.replace(old, new, 1))
    cycles = 10 // in_bits
    expected = _facts(_oracle_first_mismatch(d, mutant, cycles))
    assert _facts(exhaustive_check(d, mutant, cycles)) == expected
    monkeypatch.setattr(equiv, "_BLOCK_WORDS", 16)  # one stream a block
    assert _facts(exhaustive_check(d, mutant, cycles)) == expected
