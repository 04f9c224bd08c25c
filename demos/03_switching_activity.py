"""Drive a design with synthetic stimuli and read off switching activity.

Stimulus generation is a deterministic function of (seed, port name, bit
position): each bit follows its own toggle process, so two runs with one
seed agree bit for bit, and adding a port never perturbs the others.
"""

from powersat import (
    EGraph,
    activity_csv,
    benchmarks,
    choose_representatives,
    generate_stimuli,
    graph_activity,
)
from powersat.simulate import simulate

name = "seq_reg"
design = benchmarks.design(name)
cfg = benchmarks.stimuli_config(name, "cfg4")  # busy data, quiet enables

print("port toggle rates requested:")
for port, spec in sorted(cfg.inputs.items()):
    print(f"  {port:3s} {spec.toggle_rate}")

stimuli = generate_stimuli(cfg, design)
g = EGraph()
g.add_expr(design)
waves = simulate(g, choose_representatives(g), stimuli)
stats = graph_activity(waves)

print("\nmeasured per-class activity:")
print(activity_csv(stats))

# the enable chain is mostly idle, so the register downstream barely toggles
quietest = min(stats, key=lambda c: stats[c].word_rate)
print(f"quietest class: {quietest} at word rate {stats[quietest].word_rate:.4f}")
