import json
import random
import subprocess
import sys

import pytest

from powersat import cli
from powersat.equiv import Mismatch, cosimulate
from powersat.ir import parse_design, print_design

from _util import flat_adders, random_stimuli, src_env

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
    assert report["schema_version"] == 1
    assert report["mode"] == "power"
    assert report["equivalence"]["verdict"] == "pass"
    assert report["optimized_objective"] <= report["baseline_objective"]
    assert report["predicted_relative_change"] < 0
    assert report["solver"]["proven_optimal"] is True
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


def test_selection_deeper_than_the_recursion_limit_exits_0(tmp_path, capsys):
    d = flat_adders(700)
    dsl = tmp_path / "flat.dsl"
    dsl.write_text(print_design(d))
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({"cycles": 64, "seed": 1,
                               "inputs": {p: {"toggle_rate": 0.5} for p, _ in d.inputs}}))
    rep = tmp_path / "report.json"
    rc = invoke("--input", dsl, "--stimuli", cfg, "--max-iters", 1, "--time-budget", 0.2,
                "--output", tmp_path / "opt.dsl", "--report", rep)
    assert rc == 0, capsys.readouterr().err
    assert json.loads(rep.read_text())["solver"]["proven_optimal"] is True
