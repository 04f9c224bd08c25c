import json
import random
import resource
import runpy
import subprocess
import sys

import pytest

from powersat import cli
from powersat.equiv import Mismatch, cosimulate
from powersat.ir import Design, DesignBuilder, parse_design, print_design

from _util import EVERY_KIND, SRC, chain, flat_adders, random_design, random_stimuli, src_env

FIG1 = """
(module fig1
  (input s 1) (input a 16) (input b 8) (input c 8)
  (output out (mux s a (mul c b))))
"""

CFG = {
    "cycles": 500,
    "seed": 1,
    "inputs": {
        "s": {"toggle_rate": 0.1},
        "a": {"toggle_rate": 0.5},
        "b": {"toggle_rate": 0.5},
        "c": {"toggle_rate": 0.5},
    },
}

REPORT_KEYS = {
    "schema_version", "mode", "input", "stimuli", "disabled_rules", "rewrite",
    "baseline_objective", "optimized_objective", "predicted_relative_change",
    "solver", "selection", "equivalence", "wall_clock",
}


@pytest.fixture
def fig1(tmp_path):
    dsl = tmp_path / "fig1.dsl"
    dsl.write_text(FIG1)
    cfg = tmp_path / "fig1.json"
    cfg.write_text(json.dumps(CFG))
    return dsl, cfg


def invoke(*argv):
    return cli.main([str(a) for a in argv])


def test_end_to_end_power_run(fig1, tmp_path, capsys):
    dsl, cfg = fig1
    out = tmp_path / "opt.dsl"
    rep = tmp_path / "report.json"
    rc = invoke("--input", dsl, "--stimuli", cfg, "--output", out, "--report", rep)
    assert rc == 0
    assert "verification passed" in capsys.readouterr().err

    optimized = parse_design(out.read_text())
    original = parse_design(FIG1)
    rng = random.Random(99)
    assert cosimulate(original, optimized, random_stimuli(rng, original, 64)) is None

    report = json.loads(rep.read_text())
    assert set(report) == REPORT_KEYS
    assert report["schema_version"] == 2
    assert report["mode"] == "power"
    assert report["equivalence"]["verdict"] == "pass"
    assert report["optimized_objective"] <= report["baseline_objective"]
    assert report["predicted_relative_change"] < 0
    assert report["solver"]["proven_optimal"] is True
    assert set(report["solver"]) == {"explored", "proven_optimal", "start", "root_bound"}
    assert report["solver"]["start"]["source"] in ("design", "greedy")
    assert report["solver"]["root_bound"] <= report["optimized_objective"]
    assert report["rewrite"]["iterations"][0]["iteration"] == 1
    for entry in report["selection"]:
        assert {"class", "width", "node", "provenance"} <= set(entry)
    tags = {entry["provenance"] for entry in report["selection"]}
    assert "design" in tags and len(tags) > 1


def test_runs_are_deterministic(fig1, tmp_path, capsys):
    dsl, cfg = fig1
    outs, reports = [], []
    for i in (0, 1):
        out = tmp_path / f"o{i}.dsl"
        rep = tmp_path / f"r{i}.json"
        assert invoke("--input", dsl, "--stimuli", cfg, "--output", out, "--report", rep) == 0
        outs.append(out.read_text())
        reports.append(json.loads(rep.read_text()))
    capsys.readouterr()
    assert outs[0] == outs[1]
    for r in reports:
        r.pop("wall_clock")  # timing is the one nondeterministic section
    assert reports[0] == reports[1]


def test_design_lands_on_stdout_without_output_flag(fig1, capsys):
    dsl, cfg = fig1
    assert invoke("--input", dsl, "--stimuli", cfg) == 0
    assert capsys.readouterr().out.startswith("(module fig1")


def test_disabling_the_mask_rule_switches_to_register_isolation(fig1, tmp_path, capsys):
    dsl, cfg = fig1
    masked = tmp_path / "masked.dsl"
    unmasked = tmp_path / "unmasked.dsl"
    assert invoke("--input", dsl, "--stimuli", cfg, "--output", masked) == 0
    assert invoke("--input", dsl, "--stimuli", cfg, "--output", unmasked,
                  "--disable-rule", "gate-right") == 0
    capsys.readouterr()
    assert "(rep8 (not s))" in masked.read_text()
    assert "rep8" not in unmasked.read_text()
    assert "treg" in unmasked.read_text()


def test_verify_seed_is_recorded(fig1, tmp_path, capsys):
    dsl, cfg = fig1
    rep = tmp_path / "report.json"
    assert invoke("--input", dsl, "--stimuli", cfg, "--report", rep,
                  "--verify-seed", 12345) == 0
    capsys.readouterr()
    assert json.loads(rep.read_text())["equivalence"]["seed"] == 12345


def test_dump_lp(fig1, tmp_path, capsys):
    dsl, cfg = fig1
    lp = tmp_path / "problem.lp"
    assert invoke("--input", dsl, "--stimuli", cfg, "--dump-lp", lp) == 0
    capsys.readouterr()
    text = lp.read_text()
    assert text.startswith("Minimize") and text.rstrip().endswith("End")


def test_area_mode_on_minimal_design(tmp_path, capsys):
    dsl = tmp_path / "add.dsl"
    dsl.write_text("(module m (input a 8) (input b 8) (output y (add a b)))")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "cycles": 100, "seed": 4,
        "inputs": {"a": {"toggle_rate": 0.5}, "b": {"toggle_rate": 0.5}},
    }))
    rep = tmp_path / "report.json"
    assert invoke("--input", dsl, "--stimuli", cfg, "--mode", "area", "--report", rep) == 0
    out = capsys.readouterr().out
    report = json.loads(rep.read_text())
    assert report["mode"] == "area"
    assert report["baseline_objective"] == report["optimized_objective"] == 40.0
    assert parse_design(out) == parse_design(dsl.read_text())


def test_area_model_override_disarms_the_gating(fig1, tmp_path, capsys):
    dsl, _ = fig1
    cfg = tmp_path / "costly-gates.json"
    pricy = {k: 400.0 for k in ("and", "or", "not", "reg", "treg")}
    cfg.write_text(json.dumps({**CFG, "area_model": pricy}))
    assert invoke("--input", dsl, "--stimuli", cfg) == 0
    out = capsys.readouterr().out
    assert parse_design(out) == parse_design(FIG1)


def test_missing_stimulus_port_exits_1(fig1, tmp_path, capsys):
    dsl, _ = fig1
    cfg = tmp_path / "short.json"
    trimmed = {**CFG, "inputs": {k: v for k, v in CFG["inputs"].items() if k != "b"}}
    cfg.write_text(json.dumps(trimmed))
    assert invoke("--input", dsl, "--stimuli", cfg) == 1
    assert "'b'" in capsys.readouterr().err


def test_unknown_rule_exits_1(fig1, capsys):
    dsl, cfg = fig1
    assert invoke("--input", dsl, "--stimuli", cfg, "--disable-rule", "no-such-rule") == 1
    assert "no-such-rule" in capsys.readouterr().err


def test_broken_design_exits_1(tmp_path, capsys):
    dsl = tmp_path / "broken.dsl"
    dsl.write_text("(module m (input a 4) (output y (add a)))")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cycles": 10, "seed": 0,
                               "inputs": {"a": {"toggle_rate": 0.5}}}))
    assert invoke("--input", dsl, "--stimuli", cfg) == 1
    assert "error" in capsys.readouterr().err


def test_unreadable_input_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    assert invoke("--input", tmp_path / "absent.dsl", "--stimuli", cfg) == 1
    capsys.readouterr()


def test_malformed_stimuli_json_exits_1(fig1, tmp_path, capsys):
    dsl, _ = fig1
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert invoke("--input", dsl, "--stimuli", cfg) == 1
    capsys.readouterr()


@pytest.mark.parametrize("change,message", [
    ({"inputs": []}, "inputs must be an object"),
    ({"inputs": {**CFG["inputs"], "s": {"vectors": 5}}}, "port 's': vectors must be a list"),
    ({"inputs": {**CFG["inputs"], "s": {"vectors": [None]}}}, "port 's': bad vector None"),
    ({"inputs": {**CFG["inputs"], "s": {"toggle_rate": None}}}, "port 's': bad toggle_rate None"),
    ({"area_model": []}, "area_model must be an object"),
    ({"area_model": {"mul": None}}, "area_model values must be numbers"),
    ({"cycles": 2.9}, "bad stimuli config: bad cycles 2.9"),
    ({"seed": 1.5}, "bad stimuli config: bad seed 1.5"),
    ({"cycles": True}, "bad stimuli config: bad cycles True"),
    ({"cycles": 0}, "bad stimuli config: cycles must be >= 1"),
    ({"inputs": {**CFG["inputs"], "s": {"vectors": [1.7]}}}, "port 's': bad vector 1.7"),
    ({"inputs": {**CFG["inputs"], "s": {"vectors": [True]}}}, "port 's': bad vector True"),
    ({"inputs": {**CFG["inputs"], "s": {"toggle_rate": True}}}, "port 's': bad toggle_rate True"),
    ({"area_model": {"mul": float("nan")}}, "area_model values must be numbers, finite and >= 0"),
    ({"area_model": {"mul": float("inf")}}, "area_model values must be numbers, finite and >= 0"),
    ({"area_model": {"mul": -1e9}}, "area_model values must be numbers, finite and >= 0"),
    ({"area_model": {"mull": 2}}, "area_model: unknown operator 'mull'"),
    ({"cylces": 10}, "bad stimuli config: unknown key 'cylces'"),
    ({"inputs": {**CFG["inputs"], "s": {"toggle_rte": 0.1}}}, "port 's': unknown key 'toggle_rte'"),
    ({"inputs": {**CFG["inputs"], "zz": {"toggle_rate": 0.5}}}, "stimuli for 'zz': no such input port"),
], ids=["inputs-list", "vectors-int", "vectors-null", "toggle-rate-null", "area-model-list",
        "area-model-null", "cycles-fraction", "seed-fraction", "cycles-bool", "cycles-zero",
        "vector-fraction", "vector-bool", "toggle-rate-bool", "area-model-nan", "area-model-inf",
        "area-model-negative", "area-model-unknown-op", "unknown-key", "unknown-port-key",
        "unknown-port"])
def test_malformed_config_shape_exits_1(fig1, tmp_path, capsys, change, message):
    dsl, _ = fig1
    cfg = tmp_path / "shape.json"
    cfg.write_text(json.dumps({**CFG, **change}))
    assert invoke("--input", dsl, "--stimuli", cfg) == 1
    err = capsys.readouterr().err
    assert "powersat: error: " in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text,config,message", [
    ("(module m (output y (const 8 3)))", {"cycles": 10, "seed": 1, "inputs": {}},
     "design 'm' has no input ports to drive with stimuli"),
    (FIG1, {**CFG, "cycles": 1},
     "bad stimuli config: cycles must be >= 2 to measure switching activity, got 1"),
    (FIG1, {**CFG, "cycles": 4, "inputs": {**CFG["inputs"], "a": {"vectors": [1, 2]}}},
     "port 'a': 2 vectors for 4 cycles"),
    (FIG1, {**CFG, "inputs": {k: v for k, v in CFG["inputs"].items() if k != "b"}},
     "no stimuli entry for input port 'b'"),
], ids=["no-input-ports", "one-cycle", "vector-count", "port-without-entry"])
def test_unsimulable_run_exits_1_before_rewriting(tmp_path, capsys, monkeypatch, text, config,
                                                  message):
    def rewrite(*args, **kwargs):
        raise AssertionError("rewriting ran")

    monkeypatch.setattr(cli, "apply_rules", rewrite)
    dsl = tmp_path / "m.dsl"
    dsl.write_text(text)
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps(config))
    assert invoke("--input", dsl, "--stimuli", cfg) == 1
    err = capsys.readouterr().err
    assert f"powersat: error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("draw", range(40))
def test_generated_design_ends_in_an_exit_code_with_a_message(tmp_path, capsys, draw):
    # Random designs of every operator kind through the whole pipeline under
    # a small extraction budget: any exception other than the CLI's own
    # errors escapes `cli.main` and fails the test.
    rng = random.Random(f"cli-sweep/{draw}")
    d = random_design(rng, max_nodes=24, name=f"sweep{draw}", kinds=EVERY_KIND)
    dsl = tmp_path / "d.dsl"
    dsl.write_text(print_design(d))
    cfg = tmp_path / "d.json"
    cfg.write_text(json.dumps({
        "cycles": 64, "seed": draw,
        "inputs": {p: {"toggle_rate": round(rng.uniform(0.02, 0.9), 3)} for p, _ in d.inputs},
    }))
    rc = invoke("--input", dsl, "--stimuli", cfg, "--max-iters", 2, "--time-budget", 0.05,
                "--output", tmp_path / "opt.dsl")
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    assert rc == 0 or "powersat: error: " in err or "verification FAILED" in err
    assert "Traceback" not in err


# A small design with a random port, a vector port and a select, and a
# config that sets every field; `_mutated_configs` drops, retypes and pushes
# each field to its edges.
SWEEP_DSL = ("(module sweep (input a 4) (input b 4) (input s 1)"
             " (output y (mux s (add a b) (xor a b))))")
SWEEP_CFG = {
    "cycles": 8, "seed": 5,
    "inputs": {"a": {"toggle_rate": 0.3, "initial_static_probability": 0.5},
               "b": {"vectors": [0, 1, 2, 3, 4, 5, 6, 7]},
               "s": {"toggle_rate": 0.5}},
    "area_model": {"mul": 2},
}
SWEEP_FIELDS = [("cycles",), ("seed",), ("inputs",), ("inputs", "a"),
                ("inputs", "a", "toggle_rate"), ("inputs", "a", "initial_static_probability"),
                ("inputs", "b", "vectors"), ("inputs", "b", "vectors", 0), ("area_model",),
                ("area_model", "mul")]


def _mutated(path: tuple, value=None, drop: bool = False) -> dict:
    config = json.loads(json.dumps(SWEEP_CFG))
    *parents, last = path
    holder = config
    for key in parents:
        holder = holder[key]
    if drop:
        del holder[last]
    else:
        holder[last] = value
    return config


def _mutated_configs():
    for path in SWEEP_FIELDS:
        name = ".".join(map(str, path))
        yield f"drop-{name}", _mutated(path, drop=True)
        for kind, value in (("string", "x"), ("list", []), ("bool", True), ("null", None)):
            yield f"{kind}-{name}", _mutated(path, value)
    for cycles in (0, 1, 2):
        yield f"cycles-{cycles}", {**_mutated(("inputs", "b", "vectors"), list(range(cycles))),
                                   "cycles": cycles}
    for rate in (-0.1, 1.0, 1.1, float("nan")):
        yield f"toggle-rate-{rate}", _mutated(("inputs", "a", "toggle_rate"), rate)
        yield f"static-probability-{rate}", _mutated(
            ("inputs", "a", "initial_static_probability"), rate)
    yield "inputs-empty", _mutated(("inputs",), {})


MUTATED_CONFIGS = dict(_mutated_configs())
EXIT_MESSAGES = {0: "verification passed", 1: "powersat: error: ", 2: "verification FAILED"}


@pytest.mark.parametrize("case", list(MUTATED_CONFIGS))
def test_mutated_config_ends_in_an_exit_code_with_a_message(tmp_path, capsys, case):
    dsl = tmp_path / "sweep.dsl"
    dsl.write_text(SWEEP_DSL)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(MUTATED_CONFIGS[case]))
    rc = invoke("--input", dsl, "--stimuli", cfg, "--max-iters", 1,
                "--output", tmp_path / "opt.dsl")
    err = capsys.readouterr().err
    assert rc in EXIT_MESSAGES
    assert EXIT_MESSAGES[rc] in err
    assert "Traceback" not in err


def _register_chain(depth: int) -> Design:
    """A `depth`-deep chain alternating `not` and an enabled register."""
    b = DesignBuilder("regs")
    b.add_input("a", 4)
    b.add_input("en", 1)
    top = b.var("a")
    for i in range(depth):
        top = b.op("reg", top, b.var("en")) if i % 2 else b.op("not", top)
    b.add_output("y", top)
    return b.finish()


@pytest.mark.parametrize("make", [chain, _register_chain], ids=["add-xor", "not-reg"])
def test_deep_chain_ends_in_an_exit_code_with_a_message(tmp_path, capsys, make):
    d = make(3000)
    dsl = tmp_path / "deep.dsl"
    dsl.write_text(print_design(d))
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps({"cycles": 16, "seed": 2,
                               "inputs": {p: {"toggle_rate": 0.5} for p, _ in d.inputs}}))
    rc = invoke("--input", dsl, "--stimuli", cfg, "--max-iters", 1, "--time-budget", 0.05,
                "--output", tmp_path / "opt.dsl")
    err = capsys.readouterr().err
    assert rc in EXIT_MESSAGES
    assert EXIT_MESSAGES[rc] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,value", [
    ("--time-budget", "nan"), ("--time-budget", "-1"), ("--max-iters", "-1"),
    ("--max-nodes", "-1"),
])
def test_negative_or_nan_limit_exits_1(fig1, capsys, flag, value):
    dsl, cfg = fig1
    with pytest.raises(SystemExit) as exc:
        invoke("--input", dsl, "--stimuli", cfg, flag, value)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"powersat: error: argument {flag}: must be >= 0, got '{value}'" in err
    assert "Traceback" not in err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--input", "only.dsl"])
    assert exc.value.code == 1
    assert "--stimuli" in capsys.readouterr().err


def test_verification_failure_exits_2(fig1, tmp_path, capsys, monkeypatch):
    dsl, cfg = fig1
    out = tmp_path / "opt.dsl"
    rep = tmp_path / "report.json"

    def sabotage(d1, d2, waves):
        return Mismatch(cycle=2, port="out", expected=0, actual=1, stimuli=waves)

    monkeypatch.setattr(cli, "cosimulate", sabotage)
    rc = invoke("--input", dsl, "--stimuli", cfg, "--output", out, "--report", rep)
    assert rc == 2
    assert not out.exists()  # the optimized design is withheld

    err = capsys.readouterr().err
    assert "verification FAILED" in err
    blob = err.split("replayable counterexample stimuli:\n", 1)[1]
    replay = json.loads(blob)
    assert replay["cycles"] == 3  # trimmed just past the mismatch
    assert set(replay["inputs"]) == set(CFG["inputs"])

    report = json.loads(rep.read_text())
    eq = report["equivalence"]
    assert eq["verdict"] == "fail"
    assert (eq["cycle"], eq["port"], eq["expected"], eq["actual"]) == (2, "out", 0, 1)
    assert eq["counterexample"] == replay


@pytest.mark.parametrize("text,port", [
    # (or p0 p0) joins the class of p0 and so reads its own class
    ("(module m (input p0 4) (output y (add (or p0 p0) p0)))", "p0"),
    # (not (not a)) joins the class of a: a two-class loop through (not a)
    ("(module m (input a 4) (output y (xor (not (not a)) a)))", "a"),
])
def test_design_member_that_reads_its_own_class_is_passed_over(tmp_path, text, port):
    dsl = tmp_path / "m.dsl"
    dsl.write_text(text)
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps({"cycles": 200, "seed": 3,
                               "inputs": {port: {"toggle_rate": 0.4}}}))
    rc = invoke("--input", dsl, "--stimuli", cfg, "--max-iters", 1,
                "--output", tmp_path / "opt.dsl")
    assert rc == 0


def test_python_dash_m_runs_the_cli(fig1, tmp_path):
    dsl, cfg = fig1
    out = tmp_path / "opt.dsl"
    proc = subprocess.run(
        [sys.executable, "-m", "powersat", "--input", str(dsl), "--stimuli", str(cfg),
         "--output", str(out)],
        cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "verification passed" in proc.stderr
    assert parse_design(out.read_text()).signature() == parse_design(FIG1).signature()


def test_running_out_of_memory_exits_1_with_a_message(tmp_path):
    # 10^10 cycles ask stimulus generation for a 74.5 GiB array; the child's
    # own address space is capped at 1.5 GB, so no allocation can reach the
    # machine's memory
    corpus = SRC / "powersat" / "corpus"
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(dict(json.loads((corpus / "fig1_op_isolate.cfg1.json")
                                              .read_text()), cycles=10**10)))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    proc = subprocess.run(
        [sys.executable, "-m", "powersat", "--input", str(corpus / "fig1_op_isolate.dsl"),
         "--stimuli", str(cfg)],
        cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=120,
        preexec_fn=cap)
    assert proc.returncode == 1
    assert "powersat: error: out of memory: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_selection_deeper_than_the_recursion_limit_exits_0(tmp_path, capsys):
    d = flat_adders(700)
    dsl = tmp_path / "flat.dsl"
    dsl.write_text(print_design(d))
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({"cycles": 64, "seed": 1,
                               "inputs": {p: {"toggle_rate": 0.5} for p, _ in d.inputs}}))
    rep = tmp_path / "report.json"
    rc = invoke("--input", dsl, "--stimuli", cfg, "--max-iters", 1,
                "--output", tmp_path / "opt.dsl", "--report", rep)
    assert rc == 0, capsys.readouterr().err
    assert json.loads(rep.read_text())["solver"]["proven_optimal"] is True


def test_chain_deeper_than_the_recursion_limit_exits_0(tmp_path, capsys):
    d = chain(1200)
    dsl = tmp_path / "chain.dsl"
    dsl.write_text(print_design(d))
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps({"cycles": 64, "seed": 1,
                               "inputs": {p: {"toggle_rate": 0.5} for p, _ in d.inputs}}))
    out = tmp_path / "opt.dsl"
    rc = invoke("--input", dsl, "--stimuli", cfg, "--max-iters", 1, "--output", out)
    assert rc == 0, capsys.readouterr().err
    assert parse_design(out.read_text()).signature() == d.signature()


def test_names_the_benchmark_tracer_patches_are_bound():
    # perfbench/spans.py swaps these names in the CLI's namespace and these
    # methods on their classes; a binding dropped from the CLI would otherwise
    # surface only in the benchmark's own self-test
    spans = runpy.run_path(str(SRC.parent / "perfbench" / "spans.py"))
    for layer, names in spans["CLI_CALLS"].items():
        for name in names:
            assert name in cli.__dict__, f"{layer}.{name}"
    for _layer, cls_name, meth in spans["METHODS"]:
        assert meth in cli.__dict__[cls_name].__dict__, f"{cls_name}.{meth}"
