import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powersat import benchmarks
from powersat.ir import DesignBuilder, parse_design
from powersat.stimulus import (
    PortSpec,
    SplitMix64,
    StimulusConfig,
    StimulusError,
    Waveform,
    convergence_tolerance,
    fnv1a64,
    generate_stimuli,
    word_dtype,
)

from _util import traced_peak

DESIGN = parse_design("""
(module m (input a 8) (input b 1)
  (output y (and a (rep8 b))))
""")


def cfg(cycles=64, seed=1, **ports):
    inputs = {p: spec for p, spec in ports.items()}
    return StimulusConfig.from_dict({"cycles": cycles, "seed": seed, "inputs": inputs})


def word_toggles(w: Waveform) -> float:
    total = 0
    for bit in range(w.width):
        total += sum(
            ((w.values[i] >> bit) ^ (w.values[i + 1] >> bit)) & 1
            for i in range(w.cycles - 1)
        )
    return total / (w.width * (w.cycles - 1))


# reference vectors for the fixed generator primitives
def test_fnv1a64_known_values():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_splitmix64_known_sequence():
    s = SplitMix64(0)
    assert [s.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    assert SplitMix64(1234567).next_u64() == 0x599ED017FB08FC85


def test_zero_toggle_rate_freezes():
    waves = generate_stimuli(
        cfg(a={"toggle_rate": 0.0}, b={"toggle_rate": 0.0}), DESIGN
    )
    for w in waves.values():
        assert len(set(w.values)) == 1
        assert word_toggles(w) == 0.0


def test_full_toggle_rate_alternates():
    waves = generate_stimuli(cfg(a={"toggle_rate": 1.0}, b={"toggle_rate": 1.0}), DESIGN)
    a = waves["a"]
    assert word_toggles(a) == 1.0
    assert all(a.values[i] ^ a.values[i + 1] == 0xFF for i in range(a.cycles - 1))


def test_rate_converges_at_scale():
    c = cfg(cycles=10_000, a={"toggle_rate": 0.1}, b={"toggle_rate": 0.5})
    measured = word_toggles(generate_stimuli(c, DESIGN)["a"])
    assert abs(measured - 0.1) <= 0.02


def test_initial_static_probability_extremes():
    ones = generate_stimuli(
        cfg(a={"toggle_rate": 0.0, "initial_static_probability": 1.0},
            b={"toggle_rate": 0.0, "initial_static_probability": 1.0}),
        DESIGN,
    )
    assert ones["a"].values[0] == 0xFF and ones["b"].values[0] == 1
    zeros = generate_stimuli(
        cfg(a={"toggle_rate": 0.0, "initial_static_probability": 0.0},
            b={"toggle_rate": 0.0, "initial_static_probability": 0.0}),
        DESIGN,
    )
    assert zeros["a"].values[0] == 0 and zeros["b"].values[0] == 0


def test_generation_is_deterministic():
    c = cfg(a={"toggle_rate": 0.3}, b={"toggle_rate": 0.7})
    assert generate_stimuli(c, DESIGN) == generate_stimuli(c, DESIGN)


def test_ports_are_independent():
    base = generate_stimuli(cfg(a={"toggle_rate": 0.3}, b={"toggle_rate": 0.7}), DESIGN)
    renamed = parse_design("""
    (module m (input a 8) (input zz 1)
      (output y (and a (rep8 zz))))
    """)
    other = generate_stimuli(
        cfg(a={"toggle_rate": 0.3}, zz={"toggle_rate": 0.7}), renamed
    )
    assert base["a"] == other["a"]


def test_explicit_vectors_pass_through():
    c = cfg(cycles=3, a={"vectors": [1, 2, 3]}, b={"vectors": ["0x1", 0, 1]})
    waves = generate_stimuli(c, DESIGN)
    assert waves["a"].values == [1, 2, 3]
    assert waves["b"].values == [1, 0, 1]


def test_vector_length_must_match_cycles():
    with pytest.raises(StimulusError, match="3 vectors for 4 cycles"):
        generate_stimuli(cfg(cycles=4, a={"vectors": [1, 2, 3]}, b={"vectors": [0] * 4}), DESIGN)


def test_vector_value_must_fit_width():
    with pytest.raises(StimulusError, match=r"^port 'b': value 2 does not fit in 1 bits$"):
        generate_stimuli(cfg(cycles=1, a={"vectors": [0]}, b={"vectors": [2]}), DESIGN)


def test_missing_port_names_the_port():
    with pytest.raises(StimulusError, match="'b'"):
        generate_stimuli(cfg(a={"toggle_rate": 0.5}), DESIGN)


def test_bad_rates_rejected():
    with pytest.raises(StimulusError):
        cfg(a={"toggle_rate": 1.5}, b={"toggle_rate": 0.5})
    with pytest.raises(StimulusError):
        StimulusConfig.from_dict({"cycles": 0, "seed": 1, "inputs": {}})


def test_whole_numbers_may_be_integral_floats_or_integer_strings():
    # fractions and booleans are rejected (test_cli's malformed configs)
    c = StimulusConfig.from_dict({"cycles": 3.0, "seed": "0x10",
                                  "inputs": {"a": {"vectors": [1.0, "0x2", 3]}}})
    assert (c.cycles, c.seed, c.inputs["a"].vectors) == (3, 16, [1, 2, 3])
    with pytest.raises(StimulusError, match="bad cycles inf"):
        StimulusConfig.from_dict({"cycles": float("inf"), "seed": 1})
    with pytest.raises(StimulusError, match="missing 'seed'"):
        StimulusConfig.from_dict({"cycles": 3})


def test_config_json_roundtrip():
    c = cfg(cycles=5, a={"toggle_rate": 0.25}, b={"vectors": [1, 0, 1, 1, 0]})
    again = StimulusConfig.from_json(c.to_json())
    assert again == c
    assert json.loads(c.to_json())["inputs"]["b"]["vectors"] == ["0x1", "0x0", "0x1", "0x1", "0x0"]


def test_from_waveforms_is_replayable():
    c = cfg(a={"toggle_rate": 0.4}, b={"toggle_rate": 0.9})
    waves = generate_stimuli(c, DESIGN)
    frozen = StimulusConfig.from_waveforms(waves, seed=c.seed)
    assert generate_stimuli(frozen, DESIGN) == waves


def test_convergence_tolerance():
    assert convergence_tolerance(10_000) == pytest.approx(2 / math.sqrt(10_000))


def test_waveform_prefix_and_bounds():
    w = Waveform(2, [0, 1, 2, 3])
    assert w.prefix(2).values == [0, 1]
    with pytest.raises(StimulusError):
        Waveform(2, [4])


@pytest.mark.parametrize("words,bad", [
    ([-1, 2], -1),
    ([1 << 64], 1 << 64),
    (np.array([259, 3], dtype=np.uint64), 259),  # would wrap to 3 in uint8
    (np.array([-1, 3]), -1),
])
def test_waveform_checks_words_as_given(words, bad):
    with pytest.raises(StimulusError, match=f"value {bad} does not fit in 8 bits"):
        Waveform(8, words)


@pytest.mark.parametrize("width,dtype", [
    (1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32),
    (32, np.uint32), (33, np.uint64), (64, np.uint64), (65, object),
])
def test_waveforms_are_stored_in_the_narrowest_word_type(width, dtype):
    assert word_dtype(width) == np.dtype(dtype)
    top = 1 << (width - 1)
    for w in (Waveform(width, [0, top]), Waveform(width, np.array([0, top], dtype=object))):
        assert w.array.dtype == np.dtype(dtype)
        assert w.values == [0, top]


GOLDEN = 0x9E3779B97F4A7C15
M64 = (1 << 64) - 1


def reference_stream(seed: int, port: str, bit: int, spec: PortSpec, cycles: int) -> list[int]:
    """One (port, bit) stream drawn a cycle at a time from the scalar generator."""
    gen = SplitMix64(seed ^ fnv1a64(port.encode("utf-8")) ^ ((bit * GOLDEN) & M64))
    value = 1 if gen.unit() < spec.initial_static_probability else 0
    bits = [value]
    for _ in range(1, cycles):
        if gen.unit() < spec.toggle_rate:
            value ^= 1
        bits.append(value)
    return bits


@settings(max_examples=60)
@given(
    seed=st.integers(-(1 << 64), 1 << 65),
    port=st.text(min_size=1, max_size=8),
    rate=st.floats(0.0, 1.0),
    isp=st.floats(0.0, 1.0),
    width=st.integers(1, 70),
    cycles=st.integers(1, 40),
)
def test_streams_match_the_scalar_generator(seed, port, rate, isp, width, cycles):
    b = DesignBuilder("one")
    b.add_input(port, width)
    b.add_output("y" if port != "y" else "z", b.var(port))
    spec = PortSpec(toggle_rate=rate, initial_static_probability=isp)
    wave = generate_stimuli(StimulusConfig(cycles, seed, {port: spec}), b.finish())[port]
    columns = [reference_stream(seed, port, bit, spec, cycles) for bit in range(width)]
    expect = [sum(columns[bit][i] << bit for bit in range(width)) for i in range(cycles)]
    assert wave.width == width
    assert wave.values == expect


# sha256 of every shipped config's stimuli, pinned before the generator was vectorized
CORPUS_STIMULUS_SHA256 = {
    ("comb_mux_add_tree", "cfg1"): "d1f1e6624566c1c7335a1f77d2d8cdc392d3337024b5d73a0fdd2467639f50d6",
    ("comb_mux_add_tree", "cfg2"): "d1f1e6624566c1c7335a1f77d2d8cdc392d3337024b5d73a0fdd2467639f50d6",
    ("comb_mux_add_tree", "cfg3"): "7b1d178b600e21e8779723122ef1de6cf9012e0fee67dbbdd1917d573aea82a4",
    ("comb_mux_add_tree", "cfg4"): "7b1d178b600e21e8779723122ef1de6cf9012e0fee67dbbdd1917d573aea82a4",
    ("dual_op_alu", "cfg1"): "7ebb47b2167d0ba9b556dad335a14531e58072c81d99139a4fdb0567fac2d3bd",
    ("dual_op_alu", "cfg2"): "7ebb47b2167d0ba9b556dad335a14531e58072c81d99139a4fdb0567fac2d3bd",
    ("dual_op_alu", "cfg3"): "9f63f699cd1fc77a2cf53d6a95dfcc5157b31efbe0047bdb75889c8f9a8b7632",
    ("dual_op_alu", "cfg4"): "9f63f699cd1fc77a2cf53d6a95dfcc5157b31efbe0047bdb75889c8f9a8b7632",
    ("fig1_op_isolate", "cfg1"): "019351e179e1a2206415f45edecd2bd32946c02eafdcba43c6849114a132848a",
    ("fig1_op_isolate", "cfg2"): "019351e179e1a2206415f45edecd2bd32946c02eafdcba43c6849114a132848a",
    ("fig1_op_isolate", "cfg3"): "b4e01c3f508532f593dfc2a208521ccc79f7a7e23f8934ce6a63d5795162f01f",
    ("fig1_op_isolate", "cfg4"): "b4e01c3f508532f593dfc2a208521ccc79f7a7e23f8934ce6a63d5795162f01f",
    ("pipe_mux_add_tree", "cfg1"): "c6a01b419cebc8e72f8bb83297ce8e19a529aed6571895b6037d96d655be1527",
    ("pipe_mux_add_tree", "cfg2"): "452d8abae7bf1756f2e4f13f5756485f02e711cea39a11fcc8b259c41c44a960",
    ("pipe_mux_add_tree", "cfg3"): "5c1a7a73b6fa368d2df54179cd27eb6c488c25531180e59d093f745718fb12bf",
    ("pipe_mux_add_tree", "cfg4"): "e94254368c955de8de65c2c4ea0926992d42eb2c7a7213599695df1ef223763e",
    ("seq_reg", "cfg1"): "ee3411d1ae5cde2e8db01e68587891d9850676441450a673d40d532bcffb21c7",
    ("seq_reg", "cfg2"): "97f134461cfa87d092b77cdb04c5d3905e72c21956b4272f57cd492789c65ee7",
    ("seq_reg", "cfg3"): "97f134461cfa87d092b77cdb04c5d3905e72c21956b4272f57cd492789c65ee7",
    ("seq_reg", "cfg4"): "ee3411d1ae5cde2e8db01e68587891d9850676441450a673d40d532bcffb21c7",
}


def stimulus_digest(waves: dict[str, Waveform]) -> str:
    blob = json.dumps({p: [w.width, w.values] for p, w in waves.items()}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,config", sorted(CORPUS_STIMULUS_SHA256))
def test_corpus_stimuli_are_pinned(name, config):
    waves = generate_stimuli(benchmarks.stimuli_config(name, config), benchmarks.design(name))
    assert stimulus_digest(waves) == CORPUS_STIMULUS_SHA256[name, config]


def test_stimulus_memory_is_independent_of_port_width():
    # One bit stream is built at a time: the draw counter, the draws and one
    # scratch array (8 bytes a cycle each), the flips (1 byte) and the words
    # with one shifted bit (2 bytes each at 16 bits), whatever the width.
    # numpy's casting buffers are a fixed size.
    cycles = 50_000
    b = DesignBuilder("wide")
    b.add_input("a", 16)
    b.add_output("y", b.var("a"))
    config = StimulusConfig(cycles, 7, {"a": PortSpec(toggle_rate=0.3)})
    waves, peak = traced_peak(lambda: generate_stimuli(config, b.finish()))
    assert waves["a"].cycles == cycles
    assert peak < cycles * (3 * 8 + 1 + 2 * 2) + (256 << 10)
