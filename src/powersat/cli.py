"""Command line front end: design in, stimuli config in, optimized design out.

The pipeline is parse, grow the e-graph with the rule library, simulate the
graph under the configured stimuli, score every node, extract the cheapest
selection, reconstruct a design, and cosimulate it against the input on a
fresh seed before anything is written. Exit codes: 0 success, 1 bad input,
2 verification mismatch (the optimized design is withheld).
"""

import argparse
import json
import math
import sys
import time

from .egraph import EGraph, EGraphError
from .equiv import EquivError, cosimulate
# `_closure` and `simulate` go unused but stay bound: perfbench/spans.py wraps them.
from .extract import (
    _closure,
    build_problem,
    lp_text,
    reconstruct,
    seed_from_design,
    selection_cost,
    solve,
)
from .ir import ARITY, NetlistError, parse_design, print_design
from .power import AreaModel, PowerError, class_scores
from .rewrite import apply_rules, rules_by_name
from .simulate import (
    SimulationError,
    choose_representatives,
    class_waveforms,
    graph_activity,
    simulate,
)
from .stimulus import StimulusConfig, StimulusError, generate_stimuli

SCHEMA_VERSION = 2


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for verification failure.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _at_least_zero(kind):
    """An argparse type: `kind` of the text, rejected unless >= 0, so NaN is
    rejected too."""
    def parse(text: str):
        value = kind(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="powersat",
        description="Optimize a word-level netlist for switching power or area.",
    )
    p.add_argument("--input", required=True, help="design file (s-expression netlist)")
    p.add_argument("--stimuli", required=True, help="stimuli config JSON")
    p.add_argument("--mode", choices=("power", "area"), default="power")
    p.add_argument("--max-iters", type=_at_least_zero(int), default=8, help="rewrite iteration limit")
    p.add_argument("--max-nodes", type=_at_least_zero(int), default=50_000, help="e-graph node limit")
    p.add_argument("--time-budget", type=_at_least_zero(float), default=None,
                   help="extraction budget in seconds (default: run to optimality)")
    p.add_argument("--output", default=None, help="write the optimized design here")
    p.add_argument("--report", default=None, help="write a JSON run report here")
    p.add_argument("--disable-rule", action="append", default=[], metavar="NAME",
                   help="drop a rule by name; repeatable")
    p.add_argument("--dump-lp", default=None, metavar="FILE",
                   help="write the extraction problem in LP text format")
    p.add_argument("--verify-seed", type=int, default=None,
                   help="stimulus seed for the final equivalence check "
                        "(default: optimization seed + 1)")
    return p


def _area_model(overrides) -> AreaModel:
    """The config's `area_model`: a finite multiplier >= 0 per operator name."""
    if not isinstance(overrides, dict):
        raise StimulusError("area_model must be an object")
    for op, v in overrides.items():
        if op not in ARITY:
            raise StimulusError(f"area_model: unknown operator {op!r}")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 <= v < math.inf:
            raise StimulusError(f"area_model values must be numbers, finite and >= 0; "
                                f"got {op!r}: {v!r}")
    return AreaModel({op: float(v) for op, v in overrides.items()})


def run(args: argparse.Namespace) -> int:
    clock: dict[str, float] = {}
    t0 = time.perf_counter()

    def lap(phase: str, start: float) -> float:
        now = time.perf_counter()
        clock[phase] = now - start
        return now

    with open(args.input, "r", encoding="utf-8") as fh:
        design = parse_design(fh.read())
    with open(args.stimuli, "r", encoding="utf-8") as fh:
        raw_cfg = fh.read()
    cfg = StimulusConfig.from_json(raw_cfg)
    # Activity is counted between cycles of input stimuli; checked here, not
    # after the costly rewriting.
    if not design.inputs:
        raise NetlistError(f"design {design.name!r} has no input ports to drive with stimuli")
    if cfg.cycles < 2:
        raise StimulusError(f"bad stimuli config: cycles must be >= 2 to measure switching "
                            f"activity, got {cfg.cycles}")
    unknown = sorted(cfg.inputs.keys() - {port for port, _ in design.inputs})
    if unknown:
        raise StimulusError(f"stimuli for {', '.join(map(repr, unknown))}: no such input port")
    model = _area_model(json.loads(raw_cfg).get("area_model", {}))
    rules = rules_by_name(disabled=args.disable_rule)
    t = lap("parse", t0)

    # Built from the design and the config alone, so a port without an entry
    # or a vector list of the wrong length fails here too.
    stimuli = generate_stimuli(cfg, design)
    t = lap("stimuli", t)

    g = EGraph()
    g.add_expr(design)
    report_rw = apply_rules(g, rules, max_iters=args.max_iters, max_nodes=args.max_nodes)
    t = lap("rewrite", t)

    # Each phase's products are dropped once the next phase has read them.
    rep = choose_representatives(g)
    stats = graph_activity(class_waveforms(g, rep, stimuli))
    del rep, stimuli
    t = lap("simulate", t)

    scores = class_scores(g, stats, model=model, mode=args.mode)
    del stats
    t = lap("score", t)

    # The design's own selection: the incumbent, and the baseline's cost.
    seed = seed_from_design(g, design)
    problem = build_problem(g, scores, incumbent=seed)
    del scores
    if args.dump_lp:
        with open(args.dump_lp, "w", encoding="utf-8") as fh:
            fh.write(lp_text(problem))
    baseline = selection_cost(problem, seed)
    solution = solve(problem, time_budget=args.time_budget)
    t = lap("extract", t)

    optimized = reconstruct(g, solution, design)
    t = lap("reconstruct", t)

    verify_seed = args.verify_seed if args.verify_seed is not None else cfg.seed + 1
    verify_cfg = StimulusConfig(cfg.cycles, verify_seed, cfg.inputs)
    verify_waves = generate_stimuli(verify_cfg, design)
    mismatch = cosimulate(design, optimized, verify_waves)
    t = lap("verify", t)
    clock["total"] = t - t0

    equivalence: dict = {"verdict": "pass" if mismatch is None else "fail",
                         "seed": verify_seed, "cycles": cfg.cycles}
    if mismatch is not None:
        cut = mismatch.cycle + 1
        trimmed = {p: w.prefix(cut) for p, w in verify_waves.items()}
        replay = StimulusConfig.from_waveforms(trimmed, seed=verify_seed)
        equivalence.update(cycle=mismatch.cycle, port=mismatch.port,
                           expected=mismatch.expected, actual=mismatch.actual,
                           counterexample=replay.to_dict())

    selection = [
        {"class": cid, "width": g.class_width(cid), "node": g.render(n),
         "provenance": g.provenance(n)}
        for cid, n in sorted(solution.choice.items())
    ]
    predicted = (solution.objective - baseline) / baseline if baseline else 0.0
    report = {
        "schema_version": SCHEMA_VERSION,
        "mode": args.mode,
        "input": args.input,
        "stimuli": args.stimuli,
        "disabled_rules": sorted(args.disable_rule),
        "rewrite": {
            "stop_reason": report_rw.stop_reason,
            "saturated": report_rw.saturated,
            "iterations": [
                {"iteration": s.iteration, "classes": s.classes,
                 "nodes": s.nodes, "designs": s.designs}
                for s in report_rw.iterations
            ],
        },
        "baseline_objective": baseline,
        "optimized_objective": solution.objective,
        "predicted_relative_change": predicted,
        "solver": {"explored": solution.stats.explored,
                   "proven_optimal": solution.stats.proven_optimal,
                   "start": {"source": solution.stats.start,
                             "objective": solution.stats.start_objective},
                   "root_bound": solution.stats.root_bound},
        "selection": selection,
        "equivalence": equivalence,
        "wall_clock": {k: round(v, 6) for k, v in clock.items()},
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

    if mismatch is not None:
        print(f"verification FAILED: {mismatch}", file=sys.stderr)
        print("replayable counterexample stimuli:", file=sys.stderr)
        print(replay.to_json(), file=sys.stderr, end="")
        return 2

    text = print_design(optimized)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(
        f"{args.mode} objective {baseline:.6f} -> {solution.objective:.6f} "
        f"({predicted:+.2%}), verification passed",
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (NetlistError, StimulusError, EGraphError, SimulationError, PowerError,
            EquivError, ValueError, OSError) as e:
        print(f"powersat: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
