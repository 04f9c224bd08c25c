"""Fast self-test of the benchmark itself; exits 0 when every check passes.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, traced and untraced, and checks that each
metric BENCHMARK.json names is emitted with its unit. Then sabotages the CLI
to show that a wrong optimized design, a design the CLI's own check rejects
and a cell that raises are each counted as failed rather than skipped, and
that the benchmark refuses to run without the sources.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny(workload: str, trace: bool = False, sabotage=None) -> dict:
    """A tiny run; `sabotage(cli)` edits the freshly imported CLI module."""
    fresh = run.import_powersat
    if sabotage is not None:
        def patched():
            cli = fresh()
            sabotage(cli)
            return cli
        run.import_powersat = patched
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return run.run_workload(workload, seed=3, seconds=0, trace=trace, tiny=True)
    finally:
        run.import_powersat = fresh


def check_metrics() -> None:
    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        for workload in WORKLOADS:
            got = tiny(workload, trace)
            emitted = {k: v["unit"] for k, v in got["metrics"].items()}
            check(emitted == want, f"{workload} --trace {int(trace)} emits every {kind} "
                                   f"metric with its unit")
            check(got["correct"] and got["attempted"] >= 1,
                  f"{workload} --trace {int(trace)} answers are correct")


def _invert_first_output(design):
    from powersat.ir import Node

    port, idx = design.outputs[0]
    flipped = Node("not", (idx,), design.nodes[idx].width)
    return replace(design, nodes=[*design.nodes, flipped],
                   outputs=[(port, len(design.nodes)), *design.outputs[1:]])


def check_sabotage() -> None:
    def wrong_and_unchecked(cli):
        reconstruct = cli.reconstruct
        cli.reconstruct = lambda *a: _invert_first_output(reconstruct(*a))
        cli.cosimulate = lambda *a: None

    got = tiny("exact", sabotage=wrong_and_unchecked)
    check(got["failed"] == got["attempted"] and not got["correct"]
          and got["metrics"]["verified_share"]["value"] == 0.0,
          "a wrong design the CLI passes fails the held-out check and marks the run incorrect")

    def wrong_and_checked(cli):
        reconstruct = cli.reconstruct
        cli.reconstruct = lambda *a: _invert_first_output(reconstruct(*a))

    got = tiny("exact", sabotage=wrong_and_checked)
    check(got["failed"] == got["attempted"] and got["correct"],
          "a wrong design the CLI rejects (exit 2) is counted as failed")

    calls = {"n": 0}

    def first_solve_raises(cli):
        solve = cli.solve

        def flaky(*a, **k):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected failure")
            return solve(*a, **k)
        cli.solve = flaky

    got = tiny("budgeted", sabotage=first_solve_raises)
    clean = tiny("budgeted")
    check(got["attempted"] == clean["attempted"] and got["failed"] == clean["failed"] + 1,
          "a cell that raises is counted as attempted and failed, not skipped")


def check_refuses_without_sources() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for src in run.HERE.glob("*.py"):
        shutil.copy(src, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", next(iter(WORKLOADS)), "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the sources the benchmark exits nonzero and prints no result")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    check_metrics()
    check_sabotage()
    check_refuses_without_sources()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
