"""The full optimization loop, spelled out one stage at a time.

A mux that rarely flips its select wastes multiplier energy on the branch
nobody reads. Growing the e-graph exposes operand-isolated variants; the
activity-weighted cost model prices every node; branch-and-bound extraction
then picks the cheapest single implementation, and the result is checked
against the original on an independently seeded stream before we trust it.
"""

from powersat import (
    EGraph,
    apply_rules,
    benchmarks,
    build_problem,
    choose_representatives,
    class_scores,
    cosimulate,
    generate_stimuli,
    graph_activity,
    print_design,
    reconstruct,
    rules_by_name,
    seed_from_design,
    selection_cost,
    solve,
)
from powersat.simulate import simulate
from powersat.stimulus import StimulusConfig

design = benchmarks.design("fig1_op_isolate")
cfg = benchmarks.stimuli_config("fig1_op_isolate", "cfg1")

g = EGraph()
g.add_expr(design)
apply_rules(g, rules_by_name(None), max_iters=8)

# every class is simulated through one member: every member computes its waveform
stimuli = generate_stimuli(cfg, design)
scores = class_scores(g, graph_activity(simulate(g, choose_representatives(g), stimuli)))

# the design's own selection: extraction starts from it and must beat it
seed = seed_from_design(g, design)
problem = build_problem(g, scores, incumbent=seed)
baseline = selection_cost(problem, seed)
solution = solve(problem)

print(f"baseline objective  {baseline:10.3f}")
print(f"optimized objective {solution.objective:10.3f}")
print(f"relative change     {(solution.objective - baseline) / baseline:+10.2%}")
print(f"solver explored {solution.stats.explored} partial selections, "
      f"optimal: {solution.stats.proven_optimal}")

optimized = reconstruct(g, solution, design)
print("\n" + print_design(optimized))

check = generate_stimuli(StimulusConfig(10_000, cfg.seed + 1, cfg.inputs), design)
mismatch = cosimulate(design, optimized, check)
print("verification:", "passed" if mismatch is None else f"FAILED ({mismatch})")
