"""Fixtures shared by the test modules."""

import pytest

from powersat import benchmarks
from powersat.egraph import EGraph
from powersat.rewrite import apply_rules, rules_by_name
from powersat.simulate import choose_representatives, simulate
from powersat.stimulus import generate_stimuli


@pytest.fixture(scope="session")
def grown_comb():
    """comb_mux_add_tree grown for 4 rewrite iterations (2,419 classes) and
    simulated under cfg1: (design, graph, stimuli, class waveforms)."""
    d = benchmarks.design("comb_mux_add_tree")
    g = EGraph()
    g.add_expr(d)
    apply_rules(g, rules_by_name(None), max_iters=4)
    stim = generate_stimuli(benchmarks.stimuli_config("comb_mux_add_tree", "cfg1"), d)
    waves = simulate(g, choose_representatives(g, origin=g.design_enodes(d)), stim)
    return d, g, stim, waves
