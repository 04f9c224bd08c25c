"""The shipped benchmark corpus: five small datapaths, four stimuli configs each.

Configs follow one scheme: data ports toggle at 0.5 while control ports
(mux selects, register enables) sweep the low/high corners:

  cfg1: selects 0.1, enables 0.1      cfg3: selects 0.8, enables 0.8
  cfg2: selects 0.1, enables 0.8      cfg4: selects 0.8, enables 0.1
"""

from importlib import resources
from pathlib import Path

from .ir import Design, parse_design
from .stimulus import StimulusConfig

_SELECTS = {
    "fig1_op_isolate": ("s",),
    "comb_mux_add_tree": ("s0", "s1", "s2"),
    "pipe_mux_add_tree": ("s0", "s1", "s2"),
    "dual_op_alu": ("op",),
    "seq_reg": (),
}

_ENABLES = {
    "fig1_op_isolate": (),
    "comb_mux_add_tree": (),
    "pipe_mux_add_tree": ("g0", "g1"),
    "dual_op_alu": (),
    "seq_reg": ("en", "b"),
}

_CFG_RATES = {
    "cfg1": (0.1, 0.1),
    "cfg2": (0.1, 0.8),
    "cfg3": (0.8, 0.8),
    "cfg4": (0.8, 0.1),
}

_CYCLES = 2000
_SEED = 1


def corpus_names() -> list[str]:
    return sorted(_SELECTS)


def config_names() -> list[str]:
    return sorted(_CFG_RATES)


def _corpus_root() -> Path:
    return Path(str(resources.files("powersat") / "corpus"))


def design_path(name: str) -> Path:
    path = _corpus_root() / f"{name}.dsl"
    if not path.exists():
        raise KeyError(f"no benchmark named {name!r}; have {', '.join(corpus_names())}")
    return path


def stimuli_path(name: str, cfg: str) -> Path:
    path = _corpus_root() / f"{name}.{cfg}.json"
    if not path.exists():
        raise KeyError(f"no stimuli config {cfg!r} for {name!r}")
    return path


def design_text(name: str) -> str:
    return design_path(name).read_text(encoding="utf-8")


def design(name: str) -> Design:
    return parse_design(design_text(name))


def stimuli_config(name: str, cfg: str) -> StimulusConfig:
    return StimulusConfig.from_json(stimuli_path(name, cfg).read_text(encoding="utf-8"))


def _make_config(name: str, cfg: str) -> dict:
    sel_rate, en_rate = _CFG_RATES[cfg]
    d = design(name)
    inputs = {}
    for port, _width in d.inputs:
        if port in _SELECTS[name]:
            rate = sel_rate
        elif port in _ENABLES[name]:
            rate = en_rate
        else:
            rate = 0.5
        inputs[port] = {"toggle_rate": rate, "initial_static_probability": 0.5}
    return {"cycles": _CYCLES, "seed": _SEED, "inputs": inputs}


def regenerate_configs(root: Path | None = None) -> list[Path]:
    """Rewrite every shipped stimuli JSON from the scheme above."""
    import json

    root = root or _corpus_root()
    written = []
    for name in corpus_names():
        for cfg in config_names():
            path = root / f"{name}.{cfg}.json"
            path.write_text(
                json.dumps(_make_config(name, cfg), indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            written.append(path)
    return written


if __name__ == "__main__":
    for p in regenerate_configs():
        print(p)
