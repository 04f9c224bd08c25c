"""Reproducible input stimuli: per-bit toggle streams from a counter-based PRNG."""

import json
from dataclasses import dataclass, field

import numpy as np

from .ir import Design

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_TWO64 = float(1 << 64)


class StimulusError(Exception):
    pass


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _M64
    return h


class SplitMix64:
    """The splitmix64 counter generator; bit-exact across platforms."""

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def unit(self) -> float:
        return self.next_u64() / _TWO64


def word_dtype(width: int) -> np.dtype:
    """Array dtype holding words of a width: uint64, or Python ints past 64 bits."""
    return np.dtype(np.uint64) if width <= 64 else np.dtype(object)


class Waveform:
    """A cycle-indexed stream of unsigned words of one width.

    Built from a list of ints or from an array (uint64, object past 64 bits).
    The range is checked once; the other form is derived on first use and kept.
    `values` is always a list of Python ints, so scalar code never sees a
    wrapping numpy integer.
    """

    __slots__ = ("width", "_values", "_array")

    def __init__(self, width: int, values):
        self.width = width
        self._values: list[int] | None = None
        self._array: np.ndarray | None = None
        if isinstance(values, np.ndarray):
            self._array = values if values.dtype == word_dtype(width) else \
                values.astype(word_dtype(width))
            lo, hi = (int(self._array.min()), int(self._array.max())) if len(values) else (0, 0)
        else:
            self._values = values
            lo, hi = (int(min(values)), int(max(values))) if values else (0, 0)
        if lo < 0 or hi >= 1 << width:
            bad = next(int(v) for v in self.array if not 0 <= v < (1 << width))
            raise StimulusError(f"value {bad} does not fit in {width} bits")

    @property
    def values(self) -> list[int]:
        if self._values is None:
            self._values = self._array.tolist()
        return self._values

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            self._array = np.array(self._values, dtype=word_dtype(self.width))
        return self._array

    @property
    def cycles(self) -> int:
        return len(self._values) if self._values is not None else len(self._array)

    def prefix(self, cycles: int) -> "Waveform":
        if self._values is not None:
            return Waveform(self.width, self._values[:cycles])
        return Waveform(self.width, self._array[:cycles])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Waveform):
            return NotImplemented
        return self.width == other.width and np.array_equal(self.array, other.array)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Waveform(width={self.width}, values={self.values!r})"


@dataclass
class PortSpec:
    """Random per-bit behavior, or an explicit vector stream."""

    toggle_rate: float = 0.5
    initial_static_probability: float = 0.5
    vectors: list[int] | None = None

    def __post_init__(self):
        if self.vectors is None:
            if not 0.0 <= self.toggle_rate <= 1.0:
                raise StimulusError(f"toggle_rate {self.toggle_rate} outside [0, 1]")
            if not 0.0 <= self.initial_static_probability <= 1.0:
                raise StimulusError("initial_static_probability outside [0, 1]")


@dataclass
class StimulusConfig:
    cycles: int
    seed: int
    inputs: dict[str, PortSpec] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "StimulusConfig":
        try:
            cycles = int(raw["cycles"])
            seed = int(raw["seed"])
        except (KeyError, TypeError, ValueError) as e:
            raise StimulusError(f"bad stimuli config: {e}") from None
        if cycles < 1:
            raise StimulusError("cycles must be >= 1")
        inputs = {}
        for port, spec in raw.get("inputs", {}).items():
            if not isinstance(spec, dict):
                raise StimulusError(f"port {port!r}: spec must be an object")
            if "vectors" in spec:
                vectors = [int(v, 0) if isinstance(v, str) else int(v) for v in spec["vectors"]]
                inputs[port] = PortSpec(vectors=vectors)
            else:
                inputs[port] = PortSpec(
                    toggle_rate=float(spec.get("toggle_rate", 0.5)),
                    initial_static_probability=float(spec.get("initial_static_probability", 0.5)),
                )
        return cls(cycles, seed, inputs)

    @classmethod
    def from_json(cls, text: str) -> "StimulusConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise StimulusError(f"stimuli config is not valid JSON: {e}") from None
        return cls.from_dict(raw)

    @classmethod
    def from_path(cls, path) -> "StimulusConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def to_dict(self) -> dict:
        inputs = {}
        for port, spec in self.inputs.items():
            if spec.vectors is not None:
                inputs[port] = {"vectors": [hex(v) for v in spec.vectors]}
            else:
                inputs[port] = {
                    "toggle_rate": spec.toggle_rate,
                    "initial_static_probability": spec.initial_static_probability,
                }
        return {"cycles": self.cycles, "seed": self.seed, "inputs": inputs}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_waveforms(cls, waves: dict[str, Waveform], seed: int = 0) -> "StimulusConfig":
        """Freeze concrete waveforms into a replayable explicit-vector config."""
        cycles = min(w.cycles for w in waves.values())
        inputs = {p: PortSpec(vectors=list(w.values[:cycles])) for p, w in waves.items()}
        return cls(cycles, seed, inputs)


def _unit_draws(stream_seeds: np.ndarray, count: int) -> np.ndarray:
    """The first `count` splitmix64 draws of each seed as units in [0, 1):
    one row per seed, equal to calling `SplitMix64(seed).unit()` `count` times."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = stream_seeds[:, None] + steps[None, :]
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    # uint64 -> float64 rounds to nearest, as Python's int / float does
    return z.astype(np.float64) / _TWO64


def _random_port(seed: int, port: str, width: int, spec: PortSpec, cycles: int) -> np.ndarray:
    """Words of one port: bit b is the toggle stream seeded by (seed, port, b),
    which starts at 1 with the initial static probability and flips on each
    later cycle whose draw falls under the toggle rate."""
    base = seed ^ fnv1a64(port.encode("utf-8"))
    seeds = np.array([(base ^ (b * _GOLDEN)) & _M64 for b in range(width)], dtype=np.uint64)
    units = _unit_draws(seeds, cycles)
    flips = np.empty(units.shape, dtype=np.uint8)
    flips[:, 0] = units[:, 0] < spec.initial_static_probability
    flips[:, 1:] = units[:, 1:] < spec.toggle_rate
    bits = np.bitwise_xor.accumulate(flips, axis=1)
    dtype = word_dtype(width)
    words = np.zeros(cycles, dtype=dtype)
    for b in range(width):
        words |= bits[b].astype(dtype) << dtype.type(b)
    return words


def generate_stimuli(cfg: StimulusConfig, design: Design) -> dict[str, Waveform]:
    """One waveform per design input. Port streams are independent: each
    (port, bit) pair owns a dedicated generator, so adding or renaming one
    port never disturbs another's stream."""
    waves: dict[str, Waveform] = {}
    for port, width in design.inputs:
        spec = cfg.inputs.get(port)
        if spec is None:
            raise StimulusError(f"no stimuli entry for input port {port!r}")
        if spec.vectors is not None:
            if len(spec.vectors) != cfg.cycles:
                raise StimulusError(
                    f"port {port!r}: {len(spec.vectors)} vectors for {cfg.cycles} cycles"
                )
            for v in spec.vectors:
                if not 0 <= v < (1 << width):
                    raise StimulusError(f"port {port!r}: vector {v:#x} exceeds {width} bits")
            waves[port] = Waveform(width, list(spec.vectors))
            continue
        waves[port] = Waveform(width, _random_port(cfg.seed, port, width, spec, cfg.cycles))
    return waves


def convergence_tolerance(cycles: int) -> float:
    """Sampling tolerance for comparing a measured rate against its target."""
    return 2.0 / (cycles ** 0.5)
