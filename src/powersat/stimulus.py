"""Reproducible input stimuli: per-bit toggle streams from a counter-based PRNG.

A port's streams are generated one bit at a time in reused buffers, so the
memory a port needs beyond its words is a fixed number of bytes a cycle,
whatever its width.
"""

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
    """Array dtype storing words of a width: the narrowest of uint8, uint16,
    uint32 and uint64 that holds it, or Python ints past 64 bits. Storage
    only: operators compute in uint64 (or Python ints) and narrow after."""
    return np.min_scalar_type((1 << width) - 1)


class Waveform:
    """A cycle-indexed stream of unsigned words of one width.

    Built from a list of ints or from an array of any integer dtype. The words
    are range-checked as given, then an array is stored in `word_dtype(width)`
    (1 to 8 bytes a cycle, Python ints past 64 bits); the other form is
    derived on first use and kept. `values` is always a list of Python ints,
    so scalar code never sees a wrapping numpy integer.
    """

    __slots__ = ("width", "_values", "_array")

    def __init__(self, width: int, values):
        self.width = width
        self._values: list[int] | None = None
        self._array: np.ndarray | None = None
        # numpy reductions for arrays: builtin min over one runs at Python speed
        if len(values):
            lo, hi = (values.min(), values.max()) if isinstance(values, np.ndarray) else \
                (min(values), max(values))
            if lo < 0 or int(hi) >> width:
                bad = next(v for v in map(int, values) if not 0 <= v < 1 << width)
                raise StimulusError(f"value {bad} does not fit in {width} bits")
        if isinstance(values, np.ndarray):
            self._array = values.astype(word_dtype(width), copy=False)
        else:
            self._values = values

    @property
    def values(self) -> list[int]:
        if self._values is None:
            self._values = self._array.tolist()
        return self._values

    def head(self, cycles: int) -> list[int]:
        """The first `cycles` words as a new list of Python ints, without
        keeping the list form of an array-backed waveform."""
        if self._values is not None:
            return self._values[:cycles]
        return self._array[:cycles].tolist()

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


# The keys a config may hold; the CLI reads `area_model`.
_CONFIG_KEYS = {"cycles", "seed", "inputs", "area_model"}
_PORT_KEYS = {"toggle_rate", "initial_static_probability", "vectors"}


def _word(v) -> int:
    """A whole number: an integer string such as "0x1f", or a number without
    a fraction (2.9 is an error, not 2)."""
    if isinstance(v, str):
        return int(v, 0)
    if int(v) != v:
        raise ValueError
    return int(v)


def _field(where: str, name: str, value, convert):
    """`convert(value)`, or a StimulusError naming where the field sits. No
    field takes a boolean, which Python would read as 0 or 1."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise StimulusError(f"{where}: bad {name} {value!r}") from None


def _known_keys(where: str, raw: dict, known: set[str]) -> None:
    unknown = sorted(raw.keys() - known)
    if unknown:
        raise StimulusError(f"{where}: unknown key {', '.join(map(repr, unknown))}")


@dataclass
class StimulusConfig:
    cycles: int
    seed: int
    inputs: dict[str, PortSpec] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "StimulusConfig":
        where = "bad stimuli config"
        if not isinstance(raw, dict):
            raise StimulusError(f"{where}: expected an object")
        _known_keys(where, raw, _CONFIG_KEYS)
        missing = sorted({"cycles", "seed"} - raw.keys())
        if missing:
            raise StimulusError(f"{where}: missing {', '.join(map(repr, missing))}")
        cycles = _field(where, "cycles", raw["cycles"], _word)
        seed = _field(where, "seed", raw["seed"], _word)
        if cycles < 1:
            raise StimulusError(f"{where}: cycles must be >= 1")
        ports = raw.get("inputs", {})
        if not isinstance(ports, dict):
            raise StimulusError(f"{where}: inputs must be an object")
        inputs = {}
        for port, spec in ports.items():
            where = f"port {port!r}"
            if not isinstance(spec, dict):
                raise StimulusError(f"{where}: spec must be an object")
            _known_keys(where, spec, _PORT_KEYS)
            if "vectors" in spec:
                if not isinstance(spec["vectors"], list):
                    raise StimulusError(f"{where}: vectors must be a list")
                vectors = [_field(where, "vector", v, _word) for v in spec["vectors"]]
                inputs[port] = PortSpec(vectors=vectors)
            else:
                inputs[port] = PortSpec(
                    toggle_rate=_field(where, "toggle_rate", spec.get("toggle_rate", 0.5), float),
                    initial_static_probability=_field(
                        where, "initial_static_probability",
                        spec.get("initial_static_probability", 0.5), float),
                )
        return cls(cycles, seed, inputs)

    @classmethod
    def from_json(cls, text: str) -> "StimulusConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise StimulusError(f"stimuli config is not valid JSON: {e}") from None
        return cls.from_dict(raw)

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


def _random_port(seed: int, port: str, width: int, spec: PortSpec, cycles: int) -> np.ndarray:
    """Words of one port: bit b is the toggle stream seeded by (seed, port, b),
    which starts at 1 with the initial static probability and flips on each
    later cycle whose draw falls under the toggle rate.

    Draw i of a stream is `SplitMix64(stream seed).unit()` called i times,
    computed for all cycles at once; one stream at a time, in reused buffers."""
    base = seed ^ fnv1a64(port.encode("utf-8"))
    steps = np.arange(1, cycles + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = np.empty(cycles, dtype=np.uint64)
    scratch = np.empty(cycles, dtype=np.uint64)
    units = scratch.view(np.float64)
    flips = np.empty(cycles, dtype=np.uint8)
    dtype = word_dtype(width)
    words = np.zeros(cycles, dtype=dtype)
    for b in range(width):
        np.add(steps, np.uint64((base ^ (b * _GOLDEN)) & _M64), out=z)
        z ^= np.right_shift(z, np.uint64(30), out=scratch)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= np.right_shift(z, np.uint64(27), out=scratch)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= np.right_shift(z, np.uint64(31), out=scratch)
        # uint64 -> float64 rounds to nearest, as Python's int / float does
        units[...] = z
        units /= _TWO64
        np.less(units[:1], spec.initial_static_probability, out=flips[:1])
        np.less(units[1:], spec.toggle_rate, out=flips[1:])
        np.bitwise_xor.accumulate(flips, out=flips)
        bit = flips.astype(dtype)
        bit <<= dtype.type(b)
        words |= bit
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
