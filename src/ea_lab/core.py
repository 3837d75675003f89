"""Search-space primitives: bitstrings, seeded randomness, standard bit
mutation, binomial flip-count formulas, the mutation-kernel row over
zeros-count levels, and the unitation test-function composer.

Unitation functions are described by an ordered list of blocks (linear,
gap, plateau) scanned from the all-zeros bitstring towards the all-ones
bitstring.  The fitness of a point depends on its zeros-count only, so a
function is fully described by a value table indexed by zeros-count.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.special import gammaln


class DimensionError(ValueError):
    """A bitstring length does not match the function dimension."""


class SpecError(ValueError):
    """A unitation specification violates its structural invariants."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


# ---------------------------------------------------------------------------
# Randomness


# numpy's SeedSequence (numpy/random/bit_generator.pyx) hashes its entropy
# words into a pool of 4 uint32 words with these constants, and hashes the
# pool again to generate state.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF

# Streams whose keys one table holds.  2**32 is a multiple of it, so the
# indices of a block differ only in their lowest 32-bit word.
_KEY_BLOCK = 1024
_BLOCK_OFFSETS = np.arange(_KEY_BLOCK, dtype=np.uint32)
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.setflags(write=False)


def _uint32_words(value: int) -> list[int]:
    """``value`` as 32-bit words, least significant first, as SeedSequence
    splits an integer (0 is one word)."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's running hash: each call hashes an array of words with
    the next multiplier of the sequence ``const * mult**k``."""

    def hashmix(words: np.ndarray) -> np.ndarray:
        nonlocal const
        words = words ^ np.uint32(const)
        const = const * mult & _MASK32
        words = words * np.uint32(const)
        return words ^ (words >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> 16)


@functools.lru_cache(maxsize=64)
def _stream_keys(master_seed: int, block: int) -> np.ndarray:
    """Philox keys of a block of streams, as a read-only (_KEY_BLOCK, 2)
    uint64 array.

    Row j is the key of stream i = block * _KEY_BLOCK + j,
    ``SeedSequence(master_seed, spawn_key=(i,)).generate_state(2,
    np.uint64)``: the same hash, run once over arrays that hold a word of
    every stream of the block (a word shared by all of them is a
    1-element array that broadcasts).
    """
    # With a spawn key, SeedSequence pads the entropy to the pool size
    # with zero words, then appends the words of the spawn key.
    run = _uint32_words(master_seed)
    run += [0] * (_POOL_SIZE - len(run))
    words = [np.array([w], dtype=np.uint32) for w in run]
    spawn = _uint32_words(block * _KEY_BLOCK)
    words.append(_BLOCK_OFFSETS + np.uint32(spawn[0]))
    words += [np.array([w], dtype=np.uint32) for w in spawn[1:]]

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))

    # generate_state(2, np.uint64): four words, read as two little-endian
    # uint64 words.
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(w).astype(np.uint64) for w in pool]
    keys = np.empty((_KEY_BLOCK, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    keys.setflags(write=False)
    return keys


class _StreamKey(ISeedSequence):
    """A seed sequence that hands ``np.random.Philox`` a precomputed key:
    Philox keys itself with ``generate_state(2, np.uint64)`` of its seed
    sequence.  One per generator, so concurrent calls cannot mix keys."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


@dataclass(frozen=True)
class RngStream:
    """Identifier of an independent random stream.

    ``(master_seed, stream_index)`` fully determines the generated
    sequence.  Distinct stream indices under the same master seed yield
    statistically independent streams (Philox counter-based generator
    keyed through a SeedSequence spawn key), so batches of runs are
    reproducible independently of execution order.

    :meth:`generator` returns exactly
    ``Generator(Philox(SeedSequence(master_seed, spawn_key=(stream_index,))))``,
    whose seed sequence is child ``stream_index`` of
    ``SeedSequence(master_seed).spawn``.  It builds no SeedSequence,
    though: a Philox key names its stream completely, and the keys come
    from a cached table of 1,024 consecutive streams per
    ``(master_seed, block)``, computed at once by SeedSequence's hash on
    arrays (``_stream_keys``).
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if operator.index(self.master_seed) < 0:
            raise DomainError("master_seed must be non-negative")
        if operator.index(self.stream_index) < 0:
            raise DomainError("stream_index must be non-negative")

    def generator(self) -> np.random.Generator:
        block, row = divmod(self.stream_index, _KEY_BLOCK)
        key = _StreamKey(_stream_keys(self.master_seed, block)[row])
        # A counter given as an array skips Philox's slower conversion of
        # the default integer 0.
        return np.random.Generator(np.random.Philox(key, counter=_ZERO_COUNTER))


# ---------------------------------------------------------------------------
# Bitstrings


class Bitstring:
    """Fixed-length binary search point.

    Immutable after construction; ``ones() + zeros() == n``.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: Sequence[int] | np.ndarray):
        raw = np.asarray(bits)
        if raw.ndim != 1 or raw.size == 0:
            raise DimensionError("bits must be a non-empty 1-d sequence")
        if not np.all((raw == 0) | (raw == 1)):
            raise ValueError("bits must be 0/1 valued")
        arr = raw.astype(np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @classmethod
    def _trusted(cls, bits: np.ndarray) -> "Bitstring":
        """Wrap a 1-d uint8 array of 0/1 values without checking it; for
        results that are valid by construction."""
        obj = object.__new__(cls)
        bits.setflags(write=False)
        object.__setattr__(obj, "bits", bits)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("Bitstring is immutable")

    @property
    def n(self) -> int:
        return int(self.bits.size)

    def ones(self) -> int:
        return int(np.count_nonzero(self.bits))

    def zeros(self) -> int:
        return self.n - self.ones()

    @classmethod
    def all_ones(cls, n: int) -> "Bitstring":
        return cls(np.ones(n, dtype=np.uint8))

    @classmethod
    def all_zeros(cls, n: int) -> "Bitstring":
        return cls(np.zeros(n, dtype=np.uint8))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "Bitstring":
        return cls(rng.integers(0, 2, size=n, dtype=np.uint8))

    @classmethod
    def with_zeros(cls, n: int, z: int, rng: np.random.Generator) -> "Bitstring":
        """Uniform random bitstring with exactly ``z`` zero-bits."""
        if not 0 <= z <= n:
            raise DomainError("zeros-count out of range")
        bits = np.ones(n, dtype=np.uint8)
        bits[rng.choice(n, size=z, replace=False)] = 0
        return cls(bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, Bitstring) and np.array_equal(self.bits, other.bits)

    def __hash__(self) -> int:
        return hash(self.bits.tobytes())

    def __repr__(self) -> str:
        return f"Bitstring({''.join(map(str, self.bits))})"


# ---------------------------------------------------------------------------
# Mutation


@dataclass(frozen=True)
class MutationParams:
    """Standard bit mutation parameters: per-bit flip rate is ``chi / n``."""

    n: int
    chi: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("n must be positive")
        if not 0 < self.chi < self.n:
            raise DomainError("chi must satisfy 0 < chi < n")

    @property
    def rate(self) -> float:
        return self.chi / self.n


def standard_bit_mutation(
    x: Bitstring, p: MutationParams, rng: np.random.Generator
) -> Bitstring:
    """Flip each bit of ``x`` independently with probability ``p.rate``."""
    if p.n != x.n:
        raise DimensionError("mutation parameters sized for a different n")
    mask = rng.random(x.n) < p.rate
    # The XOR of two 0/1 arrays is a valid bitstring: skip the checks.
    return Bitstring._trusted(x.bits ^ mask.view(np.uint8))


def flip_count_pmf(n: int, p: float, j: int) -> float:
    """Probability that a Binomial(n, p) flip count equals ``j``; an
    entry of :func:`flip_count_pmf_table`."""
    if not 0 <= j <= n:
        raise DomainError("j must lie in 0..n")
    return float(flip_count_pmf_table(n, p)[j])


def flip_count_pmf_table(n: int, p: float) -> np.ndarray:
    """Full binomial pmf over flip counts 0..n.

    The log-ratios log P(j + 1) / P(j) are summed outwards from the mode
    and the table is normalised, so an entry k counts from the mode is
    accurate to about k ulps and the table sums to 1.  (The log-gamma
    formula of :func:`mutation_kernel_row` cancels terms of size n log n
    and loses up to ~1e-12 relative accuracy at n near 1000.)
    """
    if not 0 <= p <= 1:
        raise DomainError("p must be a probability")
    if p in (0.0, 1.0):
        return np.eye(1, n + 1, 0 if p == 0.0 else n)[0]
    j = np.arange(n)
    log_ratios = np.log(n - j) - np.log(j + 1) + (math.log(p) - math.log1p(-p))
    mode = min(n, int((n + 1) * p))
    log_rel = np.zeros(n + 1)
    log_rel[mode + 1 :] = np.cumsum(log_ratios[mode:])
    log_rel[:mode] = -np.cumsum(log_ratios[:mode][::-1])[::-1]
    table = np.exp(log_rel)
    return table / table.sum()


# Natural logs below this give 0.0 under exp (the smallest subnormal is
# e^-744.44); the margin covers lgamma/gammaln rounding differences.
_LOG_ZERO = -746.0


@functools.lru_cache(maxsize=8)
def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n."""
    return gammaln(np.arange(1, n + 2))


def _binomial_support(m: int, p: float, n: int) -> tuple[int, np.ndarray]:
    """Binomial(m, p) pmf, m <= n, as ``(lo, pmf)`` over the counts
    ``lo, lo + 1, ...`` whose probability is non-zero in double
    precision, evaluated in log space by the log-gamma formula;
    ``0 < p < 1``."""
    log_p, log_q, log_fact = math.log(p), math.log1p(-p), _log_factorials(n)

    def log_pmf(j):
        return log_fact[m] - log_fact[j] - log_fact[m - j] + j * log_p + (m - j) * log_q

    # The pmf is log-concave, so it falls monotonically away from the
    # mode: search outwards in doubling steps for a count past each end.
    mode = min(m, int((m + 1) * p))
    ends = []
    for direction, limit in ((-1, 0), (1, m)):
        j, step = mode, 1
        while j != limit and log_pmf(j) > _LOG_ZERO:
            j = max(0, min(m, mode + direction * step))
            step *= 2
        ends.append(j)
    pmf = np.exp(log_pmf(np.arange(ends[0], ends[1] + 1)))
    nonzero = np.flatnonzero(pmf)
    return ends[0] + int(nonzero[0]), pmf[nonzero[0] : nonzero[-1] + 1]


def mutation_kernel_row(n: int, z: int, rate: float | None) -> tuple[int, np.ndarray]:
    """Mutation-kernel row of zeros-count level ``z`` as ``(lo, probs)``:
    ``probs[i]`` is the probability that the offspring has ``lo + i``
    zeros.  Selection plays no part.

    ``rate`` is the per-bit flip rate of standard bit mutation, or None
    for RLS, which flips one uniformly chosen bit.  Standard bit mutation
    flips Bin(z, rate) zero-bits and Bin(n - z, rate) one-bits, so the
    row is the convolution of the first pmf, reversed, with the second.
    Both pmfs cover only the flip counts of non-zero probability, which
    keeps the row banded when n is large.
    """
    if not 0 <= z <= n:
        raise DomainError("zeros-count out of range")
    if rate is None:
        lo, probs = z - 1, np.array([z / n, 0.0, (n - z) / n])
        if z == 0:
            lo, probs = 0, probs[1:]
        return lo, probs[:-1] if z == n else probs
    lo0, zero_flips = _binomial_support(z, rate, n)
    lo1, one_flips = _binomial_support(n - z, rate, n)
    # Scaling both factors by 2^500 (exact) keeps their products out of
    # the subnormal range, where floating-point arithmetic is many times
    # slower; the row sums to at most 1, so the scaled sums cannot overflow.
    row = np.convolve(np.ldexp(zero_flips[::-1], 500), np.ldexp(one_flips, 500))
    return z - (lo0 + zero_flips.size - 1) + lo1, np.ldexp(row, -1000)


# ---------------------------------------------------------------------------
# Unitation functions


class BlockKind(Enum):
    LINEAR = "linear"
    GAP = "gap"
    PLATEAU = "plateau"


@dataclass(frozen=True)
class BlockSpec:
    """One unitation block: length ``m`` plus slope/intercept for linear blocks."""

    kind: BlockKind
    m: int
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise SpecError("block length m must be >= 1")
        if self.kind is BlockKind.LINEAR and self.a <= 0:
            raise SpecError("linear block slope a must be positive")

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "m": self.m, "a": self.a, "b": self.b}

    @classmethod
    def from_dict(cls, d: dict) -> "BlockSpec":
        return cls(
            kind=BlockKind(d["kind"]),
            m=int(d["m"]),
            a=float(d.get("a", 1.0)),
            b=float(d.get("b", 0.0)),
        )


def linear(m: int, a: float = 1.0, b: float = 0.0) -> BlockSpec:
    return BlockSpec(BlockKind.LINEAR, m, a, b)


def gap(m: int) -> BlockSpec:
    return BlockSpec(BlockKind.GAP, m)


def plateau(m: int) -> BlockSpec:
    return BlockSpec(BlockKind.PLATEAU, m)


@dataclass(frozen=True)
class UnitationSpec:
    """A fitness function of unitation built from an ordered list of blocks.

    Blocks are listed in the order they are traversed from the all-zeros
    bitstring towards the all-ones optimum; their lengths must sum to
    ``n``.  The position ``k`` of a block is the total length of the
    blocks after it, so a block spans zeros-counts ``k + m`` (its start,
    shared with the previous block) down to ``k`` (its end).
    """

    n: int
    blocks: tuple[BlockSpec, ...]

    def __init__(self, n: int, blocks: Sequence[BlockSpec]):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "blocks", tuple(blocks))
        if self.n < 1:
            raise SpecError("n must be positive")
        # Building the table validates block lengths and the optimum invariant.
        object.__setattr__(self, "_table", build_value_table(self))
        object.__setattr__(self, "_optimum", float(self._table[0]))

    @property
    def value_table(self) -> np.ndarray:
        """Fitness indexed by zeros-count; read-only."""
        return self._table

    @property
    def optimum_value(self) -> float:
        return self._optimum

    def block_position(self, index: int) -> int:
        """Position k of the block at ``index`` (lengths of all later blocks)."""
        return sum(b.m for b in self.blocks[index + 1 :])

    def to_dict(self) -> dict:
        return {"n": self.n, "blocks": [b.to_dict() for b in self.blocks]}

    @classmethod
    def from_dict(cls, d: dict) -> "UnitationSpec":
        return cls(int(d["n"]), [BlockSpec.from_dict(b) for b in d["blocks"]])


def build_value_table(spec: UnitationSpec) -> np.ndarray:
    """Stitch the block values into a table indexed by zeros-count.

    A running level tracks the value of the most recent non-gap point,
    starting at 0 on the all-zeros bitstring.  Linear blocks raise the
    level by ``a`` per point (plus a constant offset ``b`` over the
    block), plateau interiors repeat the level and their end point gets
    level + 1, gap interiors are assigned the global minimum (strictly
    below every other value) and their end point gets level + 1.  A
    final affine shift places the table minimum at 0.
    """
    n = spec.n
    total = sum(b.m for b in spec.blocks)
    if total != n:
        raise SpecError(f"block lengths sum to {total}, expected n={n}")

    table = np.full(n + 1, np.nan)
    in_gap = np.zeros(n + 1, dtype=bool)
    level = 0.0

    if spec.blocks[0].kind is BlockKind.GAP:
        in_gap[n] = True
    else:
        table[n] = level

    k = n
    for block in spec.blocks:
        k -= block.m
        start = k + block.m  # owned by the previous block
        if block.kind is BlockKind.LINEAR:
            for i in range(1, block.m + 1):
                table[start - i] = level + block.a * i + block.b
            level = level + block.a * block.m + block.b
        elif block.kind is BlockKind.PLATEAU:
            for z in range(start - 1, k, -1):
                table[z] = level
            table[k] = level + 1.0
            level = level + 1.0
        else:  # gap
            for z in range(start - 1, k, -1):
                in_gap[z] = True
            table[k] = level + 1.0
            level = level + 1.0
    assert k == 0

    if in_gap.any():
        table[in_gap] = np.nanmin(table[~in_gap]) - 1.0
    table -= table.min()

    if not np.all(table[0] > table[1:]):
        raise SpecError("table[0] must be the unique maximum (optimum at all-ones)")
    table.setflags(write=False)
    return table


def evaluate(spec: UnitationSpec, x: Bitstring) -> float:
    """Fitness of ``x``; depends on ``x`` only through its zeros-count."""
    if x.n != spec.n:
        raise DimensionError(f"bitstring length {x.n} != spec.n {spec.n}")
    return float(spec.value_table[x.zeros()])


# Common named functions ----------------------------------------------------


def onemax(n: int) -> UnitationSpec:
    """Count-the-ones function: one linear block covering the whole space."""
    return UnitationSpec(n, [linear(n)])


def needle(n: int) -> UnitationSpec:
    """All-flat function with a single optimal point at all-ones.

    Realised as a single gap block spanning the whole space: every point
    except the optimum shares the minimum value.
    """
    return UnitationSpec(n, [gap(n)])


def gap_function(n: int, m: int, k: int) -> UnitationSpec:
    """Leading linear ramp, a gap of length ``m`` ending at position ``k``,
    and a trailing linear ramp to the optimum."""
    if m + k > n:
        raise SpecError("gap block requires m + k <= n")
    blocks: list[BlockSpec] = []
    if n - m - k > 0:
        blocks.append(linear(n - m - k))
    blocks.append(gap(m))
    if k > 0:
        blocks.append(linear(k))
    return UnitationSpec(n, blocks)


def plateau_function(n: int, m: int, k: int) -> UnitationSpec:
    """Leading linear ramp, a plateau of length ``m`` ending at position
    ``k``, and a trailing linear ramp to the optimum."""
    if m + k > n:
        raise SpecError("plateau block requires m + k <= n")
    blocks: list[BlockSpec] = []
    if n - m - k > 0:
        blocks.append(linear(n - m - k))
    blocks.append(plateau(m))
    if k > 0:
        blocks.append(linear(k))
    return UnitationSpec(n, blocks)


# ---------------------------------------------------------------------------
# Generic objectives


@dataclass(frozen=True)
class FitnessFunction:
    """A pseudo-Boolean objective given as a callable, for non-unitation
    functions such as weighted linear functions."""

    n: int
    fn: Callable[[np.ndarray], float] = field(repr=False)
    optimum_value: float
    name: str = "custom"

    def value(self, x: Bitstring) -> float:
        if x.n != self.n:
            raise DimensionError("bitstring length mismatch")
        return float(self.fn(x.bits))


class _LinearEval:
    # Top-level callable so linear objectives stay picklable for worker pools.
    def __init__(self, w: np.ndarray):
        self.w = w

    def __call__(self, bits: np.ndarray) -> float:
        return float(np.dot(self.w, bits))


def linear_function(weights: Sequence[float]) -> FitnessFunction:
    """Linear pseudo-Boolean function with positive weights."""
    w = np.array(weights, dtype=float)
    if w.ndim != 1 or w.size == 0 or np.any(w <= 0):
        raise SpecError("weights must be a non-empty positive vector")
    w.setflags(write=False)
    fn = _LinearEval(w)
    # The optimum is the value the runs compute at all-ones; w.sum() can
    # differ from it by an ulp, and then no run would ever reach it.
    return FitnessFunction(
        n=int(w.size),
        fn=fn,
        optimum_value=fn(np.ones(w.size, dtype=np.uint8)),
        name="linear",
    )
