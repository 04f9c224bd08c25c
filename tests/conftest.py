"""Fixtures shared by the test modules, and the Hypothesis profile."""

import pytest
from hypothesis import settings

from powersat import benchmarks
from powersat.egraph import EGraph
from powersat.extract import seed_from_design
from powersat.rewrite import apply_rules, rules_by_name
from powersat.simulate import choose_representatives, simulate
from powersat.stimulus import generate_stimuli

# No per-example deadline: on a loaded machine a slow example is not a failure.
settings.register_profile("powersat", deadline=None)
settings.load_profile("powersat")


@pytest.fixture(scope="session")
def grown_comb():
    """comb_mux_add_tree grown for 4 rewrite iterations (2,419 classes) and
    simulated under cfg1: (design, graph, stimuli, class waveforms)."""
    d = benchmarks.design("comb_mux_add_tree")
    g = EGraph()
    g.add_expr(d)
    apply_rules(g, rules_by_name(None), max_iters=4)
    stim = generate_stimuli(benchmarks.stimuli_config("comb_mux_add_tree", "cfg1"), d)
    waves = simulate(g, choose_representatives(g, seed_from_design(g, d)), stim)
    return d, g, stim, waves
