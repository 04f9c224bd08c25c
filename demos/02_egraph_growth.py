"""Watch the e-graph absorb rewrites of a mux-over-multiplier design.

Each iteration matches every rule against the frozen graph, adds the
right-hand sides, merges the proven-equal classes, and restores congruence.
The class count stays tame while the number of distinct extractable designs
explodes, which is the entire point of sharing equivalent subterms.
"""

from powersat import EGraph, apply_rules, benchmarks, rules_by_name

design = benchmarks.design("fig1_op_isolate")
g = EGraph()
g.add_expr(design)

print(f"seed graph: {len(g.class_ids())} classes, {g.enode_count()} nodes, "
      f"{g.count_designs()} design")

report = apply_rules(g, rules_by_name(None), max_iters=5)

print(f"{'iter':>4} {'classes':>8} {'nodes':>6} {'designs':>10}")
for s in report.iterations:
    print(f"{s.iteration:>4} {s.classes:>8} {s.nodes:>6} {s.designs:>10}")
print(f"stopped: {report.stop_reason}")
print("(a design count pinned at 2^63-1 means some class can be unrolled forever,")
print(" e.g. once `x` and `and(x, x)` share a class; the counter saturates there)")

sel_cls = next(c for c in g.class_ids()
               for n in g.nodes_of(c) if n.kind == "var" and n.port == "s")
print(f"\nthe select bit's class now holds {len(g.nodes_of(sel_cls))} "
      f"equivalent forms, e.g.")
for n in g.nodes_of(sel_cls)[:4]:
    print("  ", g.render(n))
