"""Acceptance gate: ten checks covering the whole optimization stack.

Each test prints one `criterion NN ...: PASS/FAIL` line (visible under
`pytest -s`); stated runtime budgets are asserted inside the tests.
"""

import functools
import random
import time

from powersat import benchmarks
from powersat.egraph import EGraph
from powersat.equiv import (
    cosimulate,
    exhaustive_check,
    exhaustive_rule_check,
    fuzz_rule,
    simulate_design,
)
from powersat.extract import (
    build_problem,
    reconstruct,
    seed_from_design,
    selection_cost,
    solve,
)
from powersat.ir import parse_design
from powersat.power import class_scores
from powersat.rewrite import apply_rules, rules_by_name
from powersat.simulate import (
    activity,
    choose_representatives,
    class_consistency_mismatches,
    graph_activity,
    simulate,
)
from powersat.stimulus import PortSpec, StimulusConfig, Waveform, generate_stimuli

from _util import brute_force_min, random_design, random_egraph, random_stimuli


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} ({label}): FAIL")
                raise
            print(f"criterion {num:2d} ({label}): PASS "
                  f"[{time.perf_counter() - t0:.1f}s]")
        return wrapper
    return deco


# the add-tree benchmarks grow explosively; two iterations keeps their
# extraction exactly solvable while still admitting every gating rewrite
PIPELINE_ITERS = {"comb_mux_add_tree": 2, "pipe_mux_add_tree": 2}


@functools.lru_cache(maxsize=None)
def run_pipeline(name, cfgname):
    design = benchmarks.design(name)
    cfg = benchmarks.stimuli_config(name, cfgname)
    g = EGraph()
    g.add_expr(design)
    apply_rules(g, rules_by_name(None), max_iters=PIPELINE_ITERS.get(name, 8))
    stimuli = generate_stimuli(cfg, design)
    seed = seed_from_design(g, design)
    rep = choose_representatives(g)
    scores = class_scores(g, graph_activity(simulate(g, rep, stimuli)))
    problem = build_problem(g, scores, incumbent=seed)
    baseline = selection_cost(problem, seed)
    solution = solve(problem)
    optimized = reconstruct(g, solution, design)
    return design, cfg, baseline, solution, optimized


@criterion(1, "rewrite rule soundness")
def test_criterion_01_rule_soundness():
    t0 = time.perf_counter()
    for rule in rules_by_name(None):
        res = fuzz_rule(rule, trials=1000, seed=11)
        assert res.passed, f"{rule.name} fuzz: {res.counterexample.mismatch}"
        ce = exhaustive_rule_check(rule, cycles=4)
        assert ce is None, f"{rule.name} exhaustive: {ce.mismatch}"

    # pulling an inverting operator across registers is unsound (it flips
    # the zero-initialized first cycle); the checker must reject it
    lhs = parse_design(
        "(module w (input a 1) (input b 1) (input en 1)"
        " (output q (not (and (reg a en) (reg b en)))))"
    )
    rhs = parse_design(
        "(module w (input a 1) (input b 1) (input en 1)"
        " (output q (reg (not (and a b)) en)))"
    )
    mm = exhaustive_check(lhs, rhs, 4)
    assert mm is not None and mm.cycle == 0
    assert time.perf_counter() - t0 < 60.0


@criterion(2, "clock-gate identity, exhaustive")
def test_criterion_02_clock_gate_identity():
    t0 = time.perf_counter()
    lhs = parse_design(
        "(module m (input a 1) (input b 1) (input en 1)"
        " (output q (treg (reg a en) (reg b en))))"
    )
    rhs = parse_design(
        "(module m (input a 1) (input b 1) (input en 1)"
        " (output q (reg a (and en b))))"
    )
    assert exhaustive_check(lhs, rhs, 5) is None  # all 2^15 input streams
    assert time.perf_counter() - t0 < 5.0


@criterion(3, "word-average activity")
def test_criterion_03_word_average():
    # three bits toggling at 1/4, 2/4, 3/4 average to exactly one half
    w = Waveform(3, [0b000, 0b110, 0b010, 0b100, 0b101])
    stats = activity(w)
    assert stats.rates == (0.25, 0.5, 0.75)
    assert stats.word_rate == 0.5


@criterion(4, "registers initialize to zero")
def test_criterion_04_register_reset():
    rng = random.Random(404)
    checked = 0
    for _ in range(10_000):
        d = random_design(rng, max_nodes=10)
        stimuli = random_stimuli(rng, d, 3)
        _, values = simulate_design(d, stimuli)
        for idx, n in enumerate(d.nodes):
            if n.kind == "reg":
                assert values[idx][0] == 0
                checked += 1
    assert checked > 1000  # the generator must actually emit registers


@criterion(5, "e-class consistency under simulation")
def test_criterion_05_class_consistency():
    t0 = time.perf_counter()
    cases = [("fig1_op_isolate", 4), ("pipe_mux_add_tree", 3)]
    for name, iters in cases:
        design = benchmarks.design(name)
        g = EGraph()
        g.add_expr(design)
        apply_rules(g, rules_by_name(None), max_iters=iters)
        cfg = benchmarks.stimuli_config(name, "cfg2")
        stimuli = generate_stimuli(
            StimulusConfig(1000, cfg.seed, cfg.inputs), design
        )
        rep = choose_representatives(g)
        waves = simulate(g, rep, stimuli)
        assert class_consistency_mismatches(g, waves, stimuli) == []
    assert time.perf_counter() - t0 < 30.0


@criterion(6, "extraction optimality vs brute force")
def test_criterion_06_extraction_optimality():
    t0 = time.perf_counter()
    rng = random.Random(606)
    for _ in range(200):
        g, roots, scores = random_egraph(rng, max_classes=12)
        want, _ = brute_force_min(g, roots, scores)
        sol = solve(build_problem(g, scores, roots=roots))
        assert abs(sol.objective - want) < 1e-9
    assert time.perf_counter() - t0 < 120.0


@criterion(7, "no regression and sequential equivalence")
def test_criterion_07_no_regression_and_equivalence():
    for name in benchmarks.corpus_names():
        for cfgname in benchmarks.config_names():
            design, cfg, baseline, solution, optimized = run_pipeline(name, cfgname)
            assert solution.objective <= baseline + 1e-9, (name, cfgname)
            fresh = StimulusConfig(10_000, cfg.seed + 1, cfg.inputs)
            mm = cosimulate(design, optimized, generate_stimuli(fresh, design))
            assert mm is None, (name, cfgname, str(mm))


def _has_gating(design):
    for n in design.nodes:
        if n.kind == "treg":
            return True
        if n.kind == "and" and any(design.nodes[c].kind == "rep" for c in n.children):
            return True
        if n.kind == "reg" and design.nodes[n.children[1]].kind != "var":
            return True
    return False


@criterion(8, "stimulus-dependent optimization")
def test_criterion_08_data_dependence():
    _, _, _, _, quiet = run_pipeline("pipe_mux_add_tree", "cfg1")
    _, _, _, _, busy = run_pipeline("pipe_mux_add_tree", "cfg3")
    assert quiet != busy
    assert _has_gating(quiet)


@criterion(9, "e-graph growth outpaces class count")
def test_criterion_09_design_space_growth():
    design = benchmarks.design("fig1_op_isolate")
    g = EGraph()
    g.add_expr(design)
    initial_classes = len(g.class_ids())
    initial_designs = g.count_designs()
    report = apply_rules(g, rules_by_name(None), max_iters=3)
    assert len(report.iterations) >= 3
    classes = len(g.class_ids())
    designs = g.count_designs()
    assert designs > classes
    assert classes < 10 * initial_classes
    assert designs >= 10 * initial_designs


@criterion(10, "stimulus generator hits configured rates")
def test_criterion_10_stimulus_fidelity():
    cfg = StimulusConfig(
        10_000, 42, {"x": PortSpec(toggle_rate=0.1, initial_static_probability=0.5)}
    )
    d = parse_design("(module m (input x 8) (output y x))")
    wave = generate_stimuli(cfg, d)["x"]
    assert abs(activity(wave).word_rate - 0.1) <= 0.02
