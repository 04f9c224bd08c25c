"""Pipeline benchmark for powersat: one workload through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Load is a closed loop: one process calls `powersat.cli.main` on one cell
(design x stimuli config x flags) at a time, as a user runs powersat. Whole
passes over the cells repeat while the next one still fits in `--seconds`
(there is always one); time metrics take each cell's median over the passes.
Set-up is repeated before the first pass and after every pass, and
`setup_s` is the median of those rounds. Every answer is checked: an exit-0
design is cosimulated against its input by `equiv.simulate_design` on the
verification-seed stimulus and rescored there (held-out power).

With `--trace 0` the last stdout line carries the end-to-end metrics. With
`--trace 1` one untraced pass is followed by one traced pass (spans around
every call the CLI makes into a layer, see spans.py) and frozen-graph probes;
the last line carries the per-layer metrics, derived from the traced pass.
`failed_share` is zero on `exact` and an end-to-end metric must never be, so
the end-to-end form is `verified_share` (1 - failed_share); `failed_share` and
`proven_optimal_share` are printed and reported with the per-layer metrics. Every run writes its cell records, environment and
spans to perfbench/_work/.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from spans import RULE_GROUPS, Tracer
from workloads import WORKLOADS, Cell, build_cells

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_REPS = 5
CELL_TIMEOUT_S = 60.0
# Cells still unstarted this long after start count as timed out, so a run
# ends within three minutes even when the program hangs.
RUN_LIMIT_S = 160.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "designs_per_min": "1/min",
    "cell_s_p50": "s",
    "objective_ratio_geomean": "ratio",
    "heldout_power_ratio_geomean": "ratio",
    "verified_share": "share",
    "peak_rss_mb": "MB",
}


class CellTimeout(BaseException):
    """Raised by SIGALRM inside a cell that overran its time limit."""


def _on_alarm(signum, frame):
    raise CellTimeout()


@dataclass
class CellResult:
    cell_id: str
    design: str
    config: str
    flags: list[str]
    seed: int
    status: str  # ok, exit1, exit2, exception, timeout, wrong
    exit_code: int | None
    seconds: float
    baseline: float | None = None
    optimized: float | None = None
    proven_optimal: bool | None = None
    explored: int = 0
    budget_hit: bool | None = None
    verdict: str | None = None
    sha256: str | None = None
    error: str | None = None
    heldout_ratio: float | None = None
    iterations: int = 0
    saturated: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def answer(self) -> tuple:
        """What a rerun of the same cell must reproduce."""
        return (self.status, self.baseline, self.optimized, self.proven_optimal,
                self.verdict, self.sha256)


def import_powersat():
    """Fresh import of the package under test; returns `powersat.cli`."""
    for name in [m for m in sys.modules if m == "powersat" or m.startswith("powersat.")]:
        del sys.modules[name]
    import powersat.cli

    return powersat.cli


def setup(workload: str, seed: int, tiny: bool = False) -> tuple[list[float], list[Cell]]:
    """SETUP_REPS rounds of a fresh powersat import plus writing the inputs."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        import_powersat()
        cells = build_cells(workload, seed, WORK / "inputs", tiny=tiny)
        times.append(time.perf_counter() - start)
    return times, cells


def _price(design, values, model) -> float:
    """Power of a design on an e-graph that holds only that design."""
    from powersat.egraph import EGraph, enode_of
    from powersat.power import design_power
    from powersat.simulate import activity
    from powersat.stimulus import Waveform

    g = EGraph()
    classes = g.design_classes(design)
    selection, stats = {}, {}
    for idx, n in enumerate(design.nodes):
        cid = g.find(classes[idx])
        selection[cid] = enode_of(design, idx, classes)
        stats[cid] = activity(Waveform(n.width, values[idx]))
    return design_power(selection, g, stats, model)


def heldout(cell: Cell, optimized_text: str) -> tuple[bool, float]:
    """Cosimulate input and output with the scalar oracle on the CLI's
    verification-seed stimulus; returns (outputs equal, power ratio)."""
    from powersat.equiv import simulate_design
    from powersat.ir import parse_design
    from powersat.power import AreaModel
    from powersat.stimulus import StimulusConfig, generate_stimuli

    original = parse_design(cell.dsl.read_text(encoding="utf-8"))
    optimized = parse_design(optimized_text)
    if original.signature() != optimized.signature():
        return False, 1.0
    raw = json.loads(cell.stimuli.read_text(encoding="utf-8"))
    cfg = StimulusConfig.from_dict(raw)
    model = AreaModel({str(k): float(v) for k, v in raw.get("area_model", {}).items()})
    waves = generate_stimuli(StimulusConfig(cfg.cycles, cfg.seed + 1, cfg.inputs), original)
    out_a, values_a = simulate_design(original, waves)
    out_b, values_b = simulate_design(optimized, waves)
    if any(out_a[p].values != out_b[p].values for p, _ in original.outputs):
        return False, 1.0
    before = _price(original, values_a, model)
    if before <= 0.0:  # nothing to save; any rewrite is neutral
        return True, 1.0
    return True, _price(optimized, values_b, model) / before


def run_cell(cell: Cell, seed: int, main, deadline: float, checked: dict) -> CellResult:
    """One CLI run under a time limit, then the benchmark's own answer check."""
    report, output = WORK / "report.json", WORK / "optimized.dsl"
    for path in (report, output):
        path.unlink(missing_ok=True)
    res = CellResult(cell.cell_id, cell.design, cell.config, cell.flags, seed,
                     "timeout", None, 0.0)
    limit = min(CELL_TIMEOUT_S, deadline - time.perf_counter())
    if limit <= 0.5:
        res.error = "run time limit reached before the cell started"
        return res
    stderr = io.StringIO()
    # Start every cell from a clean heap, as a fresh CLI process would; the
    # previous cell's cyclic garbage (its e-graph among it) is not its cost.
    gc.collect()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = main(cell.argv(report, output))
        res.exit_code = code
        res.status = "ok" if code == 0 else f"exit{code}"
    except CellTimeout:
        res.error = f"cell timed out after {limit:.1f} s"
    except SystemExit as e:
        res.exit_code = e.code if isinstance(e.code, int) else 1
        res.status = f"exit{res.exit_code}"
    except Exception as e:  # a crash of the program is a failed cell, not a failed run
        res.status = "exception"
        res.error = f"{type(e).__name__}: {e}"
    finally:
        res.seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    if res.error is None and not res.ok:
        res.error = next((ln for ln in stderr.getvalue().splitlines() if ln.strip()), "")
    if report.exists():
        rpt = json.loads(report.read_text(encoding="utf-8"))
        res.baseline = rpt["baseline_objective"]
        res.optimized = rpt["optimized_objective"]
        res.proven_optimal = rpt["solver"]["proven_optimal"]
        res.explored = rpt["solver"]["explored"]
        res.budget_hit = "--time-budget" in cell.flags and not res.proven_optimal
        res.verdict = rpt["equivalence"]["verdict"]
        res.iterations = len(rpt["rewrite"]["iterations"])
        res.saturated = rpt["rewrite"]["saturated"]
    if res.ok:
        if not output.exists() or res.verdict != "pass":
            res.status, res.error = "wrong", "exit 0 without a verified design"
            return res
        text = output.read_text(encoding="utf-8")
        res.sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
        key = (cell.cell_id, res.sha256)
        if key not in checked:
            checked[key] = heldout(cell, text)
        equal, res.heldout_ratio = checked[key]
        if not equal:
            res.status = "wrong"
            res.error = "optimized design differs from input on held-out cosimulation"
    return res


def run_pass(cells: list[Cell], seed: int, main, deadline: float, checked: dict,
             tracer: Tracer | None = None) -> list[CellResult]:
    """Every cell once, in order; with a tracer, each cell is a span and is
    followed by its frozen-graph probes."""
    results = []
    for cell in cells:
        call = main
        if tracer is not None:
            tracer.cell = cell.cell_id
            call = lambda argv: tracer.span("cell", main, argv)  # noqa: E731
        results.append(run_cell(cell, seed, call, deadline, checked))
        if tracer is not None:
            tracer.probe(cell.cell_id)
    return results


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _share(results: list[CellResult], pred) -> float:
    return sum(1 for r in results if pred(r)) / len(results)


def _objective_ratio(r: CellResult) -> float:
    if not r.ok or not r.baseline:
        return 1.0
    return r.optimized / r.baseline


def end_to_end(setup_s: float, passes: list[list[CellResult]]) -> dict[str, float]:
    """Time metrics take each cell's median over the passes, so runs that fit
    different numbers of passes estimate the same quantity."""
    results = [r for p in passes for r in p]
    typical = [statistics.median(r.seconds for r in runs) for runs in zip(*passes)]
    verified = sum(r.ok for r in results) / len(passes)
    return {
        "setup_s": setup_s,
        "designs_per_min": verified / (sum(typical) / 60.0),
        "cell_s_p50": statistics.median(typical),
        "objective_ratio_geomean": _geomean([_objective_ratio(r) for r in results]),
        "heldout_power_ratio_geomean": _geomean(
            [r.heldout_ratio if r.ok else 1.0 for r in results]),
        "verified_share": _share(results, lambda r: r.ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def mismatches(reference: list[CellResult], rerun: list[CellResult]) -> tuple[int, int]:
    """Cells whose answer differs: (total, among cells no budget could explain)."""
    total = strict = 0
    for a, b in zip(reference, rerun):
        if a.answer() != b.answer():
            total += 1
            strict += not (a.budget_hit or b.budget_hit)
    return total, strict


def layer_metrics(tracer: Tracer, untraced: list[CellResult],
                  traced: list[CellResult]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced pass, summed over its cells."""
    dur: dict[str, float] = {}
    work: dict[str, float] = {}
    for sp in tracer.spans:
        dur[sp.name] = dur.get(sp.name, 0.0) + sp.duration
        work[sp.name] = work.get(sp.name, 0.0) + sp.work
    cell_ids = {i for i, sp in enumerate(tracer.spans) if sp.name == "cell"}
    covered = sum(sp.duration for sp in tracer.spans if sp.parent in cell_ids)

    def d(name: str) -> float:
        return dur.get(name, 0.0)

    def rate(name: str) -> float:
        return work.get(name, 0.0) / d(name) if d(name) > 0 else 0.0

    m: dict[str, tuple[float, str]] = {
        "ir.parse_s": (d("ir.parse_design"), "s"),
        "ir.print_s": (d("ir.print_design"), "s"),
        "ir.design_nodes": (work.get("ir.parse_design", 0.0), "count"),
        "rewrite.apply_s": (d("rewrite.apply_rules"), "s"),
        "rewrite.iterations": (sum(r.iterations for r in traced), "count"),
        "rewrite.saturated_share": (_share(traced, lambda r: r.saturated), "share"),
        "rewrite.ematch_s": (sum(d(f"probe.ematch.{g}") for g in RULE_GROUPS), "s"),
        "rewrite.matches": (sum(work.get(f"probe.ematch.{g}", 0.0) for g in RULE_GROUPS),
                            "count"),
    }
    for g in RULE_GROUPS:
        m[f"rewrite.ematch_s.{g}"] = (d(f"probe.ematch.{g}"), "s")
        m[f"rewrite.matches.{g}"] = (work.get(f"probe.ematch.{g}", 0.0), "count")
    m.update({
        "egraph.classes": (sum(c for c, _ in tracer.shapes.values()), "count"),
        "egraph.nodes": (sum(k for _, k in tracer.shapes.values()), "count"),
        "egraph.count_designs_s": (d("probe.count_designs"), "s"),
        "egraph.rebuild_s": (d("probe.rebuild"), "s"),
        "stimulus.generate_s": (d("stimulus.generate_stimuli"), "s"),
        "stimulus.bit_cycles_per_s": (rate("stimulus.generate_stimuli"), "1/s"),
        "simulate.representatives_s": (d("simulate.choose_representatives"), "s"),
        "simulate.simulate_s": (d("simulate.simulate"), "s"),
        "simulate.class_cycles_per_s": (rate("simulate.simulate"), "1/s"),
        "simulate.activity_s": (d("simulate.graph_activity"), "s"),
        "power.score_s": (d("power.class_scores"), "s"),
        "extract.build_s": (d("extract.seed_from_design") + d("extract.build_problem")
                            + d("extract._closure") + d("extract.selection_cost"), "s"),
        "extract.solve_s": (d("extract.solve"), "s"),
        "extract.explored": (work.get("extract.solve", 0.0), "count"),
        "extract.explored_per_s": (rate("extract.solve"), "1/s"),
        "extract.budget_hit_share": (_share(traced, lambda r: r.budget_hit), "share"),
        "extract.proven_optimal_share": (_share(untraced, lambda r: r.proven_optimal), "share"),
        "extract.reconstruct_s": (d("extract.reconstruct"), "s"),
        "equiv.cosim_s": (d("equiv.cosimulate"), "s"),
        "equiv.node_cycles_per_s": (rate("equiv.cosimulate"), "1/s"),
        "failed_share": (_share(untraced, lambda r: not r.ok), "share"),
        "trace.overhead_s": (sum(r.seconds for r in traced) - sum(r.seconds for r in untraced),
                             "s"),
        "trace.span_coverage_share": (covered / d("cell") if d("cell") > 0 else 0.0, "share"),
        "trace.answer_mismatches": (mismatches(untraced, traced)[0], "count"),
    })
    return m


def environment() -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": _git_commit(),
            "cell_timeout_s": CELL_TIMEOUT_S}


def _git_commit() -> str:
    """HEAD of the repository the benchmark sits in, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _print_cells(results: list[CellResult]) -> None:
    for r in results:
        ratio = _objective_ratio(r)
        held = f"{r.heldout_ratio:.4f}" if r.heldout_ratio is not None else "-"
        note = f"  {r.error}" if r.error else ""
        print(f"  {r.cell_id:<44} {r.status:<9} {r.seconds:7.3f} s  objective x{ratio:.4f}"
              f"  held-out x{held}  proven={r.proven_optimal}{note}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Set up, run the passes, check every answer; returns the result object."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    WORK.mkdir(parents=True, exist_ok=True)
    setup_times, cells = setup(workload, seed, tiny)
    checked: dict = {}
    passes: list[list[CellResult]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(cells, seed, sys.modules["powersat.cli"].main, deadline, checked))
        if trace:
            break
        # Set-up rounds spread over the run see the same machine as the passes.
        setup_times += setup(workload, seed, tiny)[0]
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    untraced = [r for p in passes for r in p]
    wrong = sum(r.status == "wrong" for r in untraced)
    unstable = sum(mismatches(passes[0], p)[1] for p in passes[1:])
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "passes": len(passes),
              "cells": [asdict(r) for r in untraced]}
    print(f"{workload} seed {seed}: {len(passes)} pass(es) of {len(cells)} cells; "
          f"{record['environment']}")
    _print_cells(passes[0])
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cells, seed, sys.modules["powersat.cli"].main, deadline,
                              checked, tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, passes[0], traced)
        total, strict = mismatches(passes[0], traced)
        unstable += strict
        wrong += sum(r.status == "wrong" for r in traced)
        record["traced_cells"] = [asdict(r) for r in traced]
        record["spans"] = [asdict(sp) for sp in tracer.spans]
        if total:
            print(f"traced pass: {total} cell(s) answered differently from the untraced pass "
                  f"({strict} without a budget hit)")
    else:
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in end_to_end(statistics.median(setup_times), passes).items()}
        print(f"  failed_share = {_share(untraced, lambda r: not r.ok):.4f} share; "
              f"proven_optimal_share = {_share(untraced, lambda r: r.proven_optimal):.4f} share")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    out = WORK / f"{workload}.seed{seed}.trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return {
        "correct": wrong == 0 and unstable == 0,
        "attempted": len(untraced),
        "failed": sum(not r.ok for r in untraced),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {workload} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (SRC / "powersat" / "__init__.py").is_file():
        print(f"perfbench: no powersat sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
