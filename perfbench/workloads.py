"""The benchmark's workloads: which cells each runs and how their inputs are built.

A cell is one CLI run: a design, a stimuli config and the flags. Every
workload's inputs are written to disk by `build_cells`, which is part of the
timed set-up. The benchmark seed replaces the `seed` of every stimuli config
fed to the CLI, so seed 1 reproduces the shipped corpus configs.

Cells come in four groups, each chosen so that some layer leads in it:

- corpus-exact: every corpus design under every shipped config, run to a
  proven optimum. Extraction leads; this is what a user can run today.
- long-stimulus: corpus designs under cfg1 and cfg3 on 5x longer stimuli.
  Stimulus generation, graph simulation and cosimulation lead; extraction
  and rewriting are small.
- addtree-grown: the two add-trees grown to 4 rewrite iterations under quiet
  and busy control. Graph simulation and rewriting lead.
- generated-mixed: random designs of every operator kind, 3 to 40 operators,
  widths 1 to 8. The only group not built from the five hand-written designs;
  it varies size and operator mix. Every draw is kept, including the ones the
  CLI rejects. Designs and per-port toggle rates are drawn once from fixed
  generator seeds, and the benchmark seed replaces only the stimulus seed, as
  for the corpus: how many draws hit the extraction budget dominates the pass
  time, and a population redrawn per seed moved the time metrics by far more
  than any bound.

The groups form two workloads by extraction mode. In `exact`, a faster
solver shows as time. In `budgeted`, extraction stops at a fixed budget, so
it shows as quality. Two long workloads, not four short ones: on a shared
2-vCPU Xeon machine, Python throughput averaged over 20 s windows varied by
±14%, and over 60 s windows by ±6%.
"""

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = {
    "exact": ("corpus-exact", "long-stimulus"),
    "budgeted": ("addtree-grown", "generated-mixed"),
}

ADD_TREES = ("comb_mux_add_tree", "pipe_mux_add_tree")
# Extraction budget of the budgeted groups, in seconds.
EXTRACT_BUDGET_S = 0.1
GENERATED_DRAWS = 40
# Five times the shipped 2,000 cycles: the per-cycle layers lead.
LONG_CYCLES = 10_000
# Every operator the netlist format has; "add3" is the three-operand add form.
GENERATED_KINDS = ("add", "sub", "and", "or", "xor", "not", "mux", "shl", "shr",
                   "mul", "add3", "rep", "reg", "treg")


@dataclass
class Cell:
    """One CLI run of the workload."""

    cell_id: str
    design: str
    config: str
    dsl: Path
    stimuli: Path
    flags: list[str] = field(default_factory=list)

    def argv(self, report: Path, output: Path) -> list[str]:
        return ["--input", str(self.dsl), "--stimuli", str(self.stimuli),
                "--report", str(report), "--output", str(output), *self.flags]


def _flags(iters: int, budget: float | None) -> list[str]:
    flags = ["--max-iters", str(iters)]
    if budget is not None:
        flags += ["--time-budget", str(budget)]
    return flags


def _write_config(path: Path, raw: dict) -> Path:
    path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _corpus_cell(group: str, name: str, cfg: str, seed: int, out: Path, flags: list[str],
                 cycles: int | None = None) -> Cell:
    from powersat import benchmarks

    raw = json.loads(benchmarks.stimuli_path(name, cfg).read_text(encoding="utf-8"))
    raw["seed"] = seed
    if cycles is not None:
        raw["cycles"] = cycles
    stimuli = _write_config(out / f"{name}.{cfg}.json", raw)
    return Cell(f"{group}:{name}/{cfg}", name, cfg, benchmarks.design_path(name), stimuli, flags)


def random_design(rng: random.Random, name: str):
    """A valid design with 3 to 40 operators of every kind.

    The datapath word is 1..8 bits wide; selects and enables are 1 bit,
    shift amounts 1..3 bits, multiplier operands split the word width.
    Operands are drawn from everything built so far, so the same value may
    feed both sides of an operator.
    """
    from powersat.ir import DesignBuilder

    b = DesignBuilder(name)
    pool: dict[int, list[int]] = {}

    def leaf(width: int) -> int:
        if not b.inputs or rng.random() < 0.7:
            port = f"p{len(b.inputs)}"
            b.add_input(port, width)
            idx = b.var(port)
        else:
            idx = b.const(width, rng.randrange(1 << width))
        pool.setdefault(width, []).append(idx)
        return idx

    def pick(width: int) -> int:
        if width not in pool or rng.random() < 0.15:
            return leaf(width)
        return rng.choice(pool[width])

    w = rng.randint(1, 8)
    leaf(w)
    target = rng.randint(3, 40)
    ops: set[int] = set()
    attempts = 0
    while len(ops) < target and attempts < 800:  # interning dedups draws
        attempts += 1
        kind = rng.choice(GENERATED_KINDS)
        if kind in ("add", "sub", "and", "or", "xor"):
            idx = b.op(kind, pick(w), pick(w))
        elif kind == "add3":
            idx = b.op("add3", pick(w), pick(w), pick(w))
        elif kind == "not":
            idx = b.op("not", pick(w))
        elif kind == "mux":
            idx = b.op("mux", pick(1), pick(w), pick(w))
        elif kind in ("shl", "shr"):
            idx = b.op(kind, pick(w), pick(rng.randint(1, 3)))
        elif kind == "mul":
            if w < 2:
                continue
            lo = rng.randint(1, w - 1)
            idx = b.op("mul", pick(lo), pick(w - lo))
        elif kind == "rep":
            part = rng.choice([d for d in range(1, w + 1) if w % d == 0])
            idx = b.op("rep", pick(part), count=w // part)
        else:  # reg / treg
            idx = b.op(kind, pick(w), pick(1))
        ops.add(idx)
        pool.setdefault(w, []).append(idx)
    used = {c for n in b.nodes for c in n.children}
    sinks = [i for i in sorted(ops) if i not in used]
    for k, idx in enumerate(sinks):
        b.add_output(f"y{k}", idx)
    return b.finish()


def _generated_cells(seed: int, out: Path, draws: int, cycles: int, flags: list[str]) -> list[Cell]:
    from powersat.ir import print_design

    cells = []
    for i in range(draws):
        name = f"gen{i:03d}"
        rng = random.Random(f"generated-mixed/{i}")
        d = random_design(rng, name)
        dsl = out / f"{name}.dsl"
        dsl.write_text(print_design(d), encoding="utf-8")
        inputs = {port: {"toggle_rate": round(rng.uniform(0.02, 0.9), 3),
                         "initial_static_probability": 0.5}
                  for port, _ in d.inputs}
        stimuli = _write_config(out / f"{name}.json",
                                {"cycles": cycles, "seed": seed, "inputs": inputs})
        cells.append(Cell(f"generated-mixed:{name}", name, "random", dsl, stimuli, flags))
    return cells


def _group_cells(group: str, seed: int, out: Path, tiny: bool) -> list[Cell]:
    from powersat import benchmarks

    out.mkdir(parents=True, exist_ok=True)
    if group == "generated-mixed":
        if tiny:
            return _generated_cells(seed, out, 3, 200, _flags(1, 0.2))
        return _generated_cells(seed, out, GENERATED_DRAWS, 2000, _flags(2, EXTRACT_BUDGET_S))
    designs = benchmarks.corpus_names()
    if group == "corpus-exact":
        plan = [(n, c, 2 if n in ADD_TREES else 8, None, None)
                for n in designs for c in benchmarks.config_names()]
    elif group == "addtree-grown":
        plan = [(n, c, 4, EXTRACT_BUDGET_S, None) for n in ADD_TREES for c in ("cfg1", "cfg3")]
    else:  # long-stimulus
        plan = [(n, c, 1 if n in ADD_TREES else 8, None, LONG_CYCLES)
                for n in designs for c in ("cfg1", "cfg3")]
    if tiny:
        plan = [(n, c, 1, 0.2, 200) for n, c, _, _, _ in plan[:2]]
    return [_corpus_cell(group, n, c, seed, out, _flags(iters, budget), cycles)
            for n, c, iters, budget, cycles in plan]


def build_cells(workload: str, seed: int, out: Path, tiny: bool = False) -> list[Cell]:
    """Write the workload's inputs under `out` and return its cells in run order.

    `tiny` shrinks every group to a few short cells for the self-test.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    return [cell for group in WORKLOADS[workload]
            for cell in _group_cells(group, seed, out / group, tiny)]
