"""Search-space primitives: seeded randomness, the mutation operators,
binomial flip-count formulas and the unitation test-function composer.
A mutation operator's ``kernel_row`` feeds the exact level chain and the
level samplers; its ``flips`` are the flips of bit runs, whose search
points are uint8 0/1 rows.

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


_setattr = object.__setattr__  # sets a field of a frozen dataclass


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

    # Written out, where the dataclass would generate it and call a
    # __post_init__: a batch builds one stream per run, and this is faster.
    def __init__(self, master_seed: int, stream_index: int = 0) -> None:
        if operator.index(master_seed) < 0:
            raise DomainError("master_seed must be non-negative")
        if operator.index(stream_index) < 0:
            raise DomainError("stream_index must be non-negative")
        _setattr(self, "master_seed", master_seed)
        _setattr(self, "stream_index", stream_index)

    def generator(self) -> np.random.Generator:
        block, row = divmod(self.stream_index, _KEY_BLOCK)
        key = _StreamKey(_stream_keys(self.master_seed, block)[row])
        # A counter given as an array skips Philox's slower conversion of
        # the default integer 0.
        return np.random.Generator(np.random.Philox(key, counter=_ZERO_COUNTER))


# ---------------------------------------------------------------------------
# Mutation


@dataclass(frozen=True)
class MutationParams:
    """Standard bit mutation: each bit flips with probability ``chi / n``."""

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

    def kernel_row(self, z: int) -> tuple[int, np.ndarray]:
        """Mutation-kernel row of zeros-count level ``z`` as ``(lo, probs)``:
        ``probs[i]`` is the probability that the offspring has ``lo + i``
        zeros.  Selection plays no part.

        The offspring flips Bin(z, rate) zero-bits and Bin(n - z, rate)
        one-bits, so the row is the convolution of the first pmf, reversed,
        with the second.  Both pmfs cover only the flip counts of non-zero
        probability, which keeps the row banded when n is large.

        Every operator of the same n and chi in the process reads one
        table: the pmfs of all flip counts 0..n are computed together when
        it is made, and each row is convolved on its first request and
        then kept as a read-only array.  The exact chain's move table, which
        the jump-chain sampler reads too, and the population sampler are
        handed the same arrays.
        """
        if not 0 <= z <= self.n:
            raise DomainError("zeros-count out of range")
        return _kernel_rows(self.n, self.chi).row(z)

    def flips(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The flat positions ``row * n + bit`` of the bits flipped in
        ``count`` offspring, ascending.  Each of the ``count * n`` bits
        flips with probability ``rate``, so the gaps between successive
        flips are Geometric(rate), drawn by inversion: about one uniform
        per flip rather than one per bit."""
        total = count * self.n
        log_keep = math.log1p(-self.rate)
        mean = count * self.chi
        # Enough gaps, most often, to pass the last bit in one draw.
        size = int(mean + 4 * math.sqrt(mean)) + 4
        last, chunks = -1, []
        while last < total:
            # floor(log(U) / log(1 - rate)) bits stay before the next flip,
            # U in (0, 1]; gaps past the end are clipped to keep the sums finite.
            gaps = np.minimum(np.log1p(-rng.random(size)) / log_keep, total)
            chunks.append(last + np.cumsum(gaps.astype(np.int64) + 1))
            last = int(chunks[-1][-1])
        flat = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        return flat[: np.searchsorted(flat, total)]


@dataclass(frozen=True)
class OneBitFlip:
    """The mutation of RLS: flip one bit, chosen uniformly at random."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("n must be positive")

    def kernel_row(self, z: int) -> tuple[int, np.ndarray]:
        """As :meth:`MutationParams.kernel_row`: z - 1 zeros with probability z / n, else z + 1."""
        n = self.n
        if not 0 <= z <= n:
            raise DomainError("zeros-count out of range")
        lo, probs = z - 1, np.array([z / n, 0.0, (n - z) / n])
        if z == 0:
            lo, probs = 0, probs[1:]
        return lo, probs[:-1] if z == n else probs

    def flips(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """As :meth:`MutationParams.flips`: one uniform bit per offspring."""
        return np.arange(count) * self.n + rng.integers(0, self.n, count)


Mutation = MutationParams | OneBitFlip


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
    formula of :meth:`MutationParams.kernel_row` cancels terms of size n log n
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
# e^-744.44); the margin covers rounding in the log-pmf sums, so that no
# entry that is non-zero under exp falls outside the searched support.
_LOG_ZERO = -746.0

# Stirling-series coefficients of the Cephes library's lgam.
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)


def log_gamma(x: int) -> float:
    """log Gamma(x) for a positive integer ``x``, bit for bit as the Cephes
    library's ``lgam`` computes it: the log of the factorial below 13,
    else Stirling's series, whose tail is a degree-4 polynomial in 1/x^2,
    or degree 2 from x = 1000 on.  (Cephes drops the tail above 10^8,
    where it is below half an ulp, so that cut-off changes nothing.)"""
    if x < 13:
        return math.log(math.factorial(x - 1))
    x = float(x)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    series = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        series = series * p + a
    return q + series / x


@functools.lru_cache(maxsize=8)
def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n."""
    return np.array([log_gamma(k) for k in range(1, n + 2)])


# Window entries that _binomial_supports evaluates per numpy call: 1 MB
# per float64 temporary.
_WINDOW_CHUNK = 1 << 17


def _binomial_supports(n: int, p: float) -> list[tuple[int, np.ndarray]]:
    """Binomial(m, p) pmfs of every m = 0..n, entry m as ``(lo, pmf)``
    over the counts ``lo, lo + 1, ...`` whose probability is non-zero in
    double precision, evaluated in log space by the log-gamma formula;
    ``0 < p < 1``.  The pmfs are read-only arrays.

    The ends of every support are searched at once, and the pmfs of many
    m are evaluated by each numpy call, over the windows between those
    ends.  Each value is the one a search for that m alone would give,
    since the formula is applied element by element in the same order."""
    log_p, log_q, log_fact = math.log(p), math.log1p(-p), _log_factorials(n)

    def log_pmf(m, j):
        return log_fact[m] - log_fact[j] - log_fact[m - j] + j * log_p + (m - j) * log_q

    # The pmf is log-concave, so it falls monotonically away from the
    # mode: search outwards in doubling steps for a count past each end,
    # stepping only the m whose search is still going.
    m = np.arange(n + 1)
    mode = np.minimum(m, ((m + 1) * p).astype(np.int64))
    ends = []
    for direction, limit in ((-1, np.zeros_like(m)), (1, m)):
        j, step = mode.copy(), 1
        going = np.flatnonzero((j != limit) & (log_pmf(m, j) > _LOG_ZERO))
        while going.size:
            j[going] = np.clip(mode[going] + direction * step, 0, m[going])
            step *= 2
            jg = j[going]
            going = going[(jg != limit[going]) & (log_pmf(m[going], jg) > _LOG_ZERO)]
        ends.append(j)

    # Evaluate the windows ends[0][m]..ends[1][m], laid end to end, for a
    # block of m at a time, so that temporaries stay near _WINDOW_CHUNK
    # entries however large n is.
    width = ends[1] - ends[0] + 1
    per_block = max(1, _WINDOW_CHUNK // int(width.max()))
    supports = []
    for first_m in range(0, n + 1, per_block):
        block = slice(first_m, first_m + per_block)
        lo, w = ends[0][block], width[block]
        starts = np.cumsum(w) - w
        counts = np.arange(w.sum()) - np.repeat(starts - lo, w)
        pmf = np.exp(log_pmf(np.repeat(m[block], w), counts))
        pmf.setflags(write=False)
        # Trim each window to its first and last non-zero entry.
        index = np.arange(pmf.size)
        first = np.minimum.reduceat(np.where(pmf != 0, index, pmf.size), starts)
        last = np.maximum.reduceat(np.where(pmf != 0, index, -1), starts) + 1
        supports += [(a, pmf[b:c]) for a, b, c in
                     zip((lo + first - starts).tolist(), first.tolist(), last.tolist())]
    return supports


class _KernelRows:
    """The mutation-kernel rows of standard bit mutation at one n and
    rate: the flip-count pmfs of all m = 0..n, computed together, and
    each row, convolved from two of them on its first request and then
    kept read-only."""

    def __init__(self, n: int, rate: float):
        self.flips = _binomial_supports(n, rate)
        self.rows: list[tuple[int, np.ndarray] | None] = [None] * (n + 1)

    def row(self, z: int) -> tuple[int, np.ndarray]:
        row = self.rows[z]
        if row is None:
            # z zero-bits and n - z one-bits may flip.
            row = self.rows[z] = _convolved_row(z, self.flips[z], self.flips[-1 - z])
        return row


def _convolved_row(z: int, zero_flips, one_flips) -> tuple[int, np.ndarray]:
    """The kernel row of level ``z`` from the ``(lo, pmf)`` supports of its
    zero-bit and one-bit flip counts, as a read-only array."""
    (lo0, zero_pmf), (lo1, one_pmf) = zero_flips, one_flips
    # Scaling both factors by 2^500 (exact) keeps their products out of
    # the subnormal range, where floating-point arithmetic is many times
    # slower; the row sums to at most 1, so the scaled sums cannot overflow.
    row = np.ldexp(np.convolve(np.ldexp(zero_pmf[::-1], 500), np.ldexp(one_pmf, 500)), -1000)
    row.setflags(write=False)
    return z - (lo0 + zero_pmf.size - 1) + lo1, row


@functools.lru_cache(maxsize=8)
def _kernel_rows(n: int, chi: float) -> _KernelRows:
    """The row table of every ``MutationParams(n, chi)`` in the process."""
    return _KernelRows(n, chi / n)


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


def fitness_classes(values: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Levels grouped by fitness value: one ascending tuple of levels per
    distinct value of ``values``, the best value first."""
    order = np.argsort(-values, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(values[order])) + 1).tolist(), values.size]
    order = order.tolist()
    return tuple(tuple(order[a:b]) for a, b in zip(cuts, cuts[1:]))


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


def _ramp_function(n: int, m: int, k: int, middle: Callable[[int], BlockSpec]) -> UnitationSpec:
    """Leading linear ramp, the block ``middle(m)`` ending at position
    ``k``, and a trailing linear ramp; errors name the block by
    ``middle.__name__``."""
    if m + k > n:
        raise SpecError(f"{middle.__name__} block requires m + k <= n")
    blocks: list[BlockSpec] = []
    if n - m - k > 0:
        blocks.append(linear(n - m - k))
    blocks.append(middle(m))
    if k > 0:
        blocks.append(linear(k))
    return UnitationSpec(n, blocks)


def gap_function(n: int, m: int, k: int) -> UnitationSpec:
    """Leading linear ramp, a gap of length ``m`` ending at position ``k``,
    and a trailing linear ramp to the optimum."""
    return _ramp_function(n, m, k, gap)


def plateau_function(n: int, m: int, k: int) -> UnitationSpec:
    """Leading linear ramp, a plateau of length ``m`` ending at position
    ``k``, and a trailing linear ramp to the optimum."""
    return _ramp_function(n, m, k, plateau)


# ---------------------------------------------------------------------------
# Linear objectives


@dataclass(frozen=True, eq=False)
class FitnessFunction:
    """A linear pseudo-Boolean objective, ``fn(x) = np.dot(weights, x)``,
    made by :func:`linear_function`: the objective of the bit samplers.
    Instances compare by identity."""

    weights: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.weights.size

    @functools.cached_property
    def optimum_value(self) -> float:
        # The value the runs compute at all-ones; w.sum() can differ from
        # it by an ulp, and then no run would ever reach it.
        return self.fn(np.ones(self.n, dtype=np.uint8))

    def fn(self, bits: np.ndarray) -> float:
        return float(np.dot(self.weights, bits))


def linear_function(weights: Sequence[float]) -> FitnessFunction:
    """Linear pseudo-Boolean function with positive, finite weights."""
    w = np.array(weights, dtype=float)
    if w.ndim != 1 or w.size == 0 or not np.all((w > 0) & (w < np.inf)):
        raise SpecError("weights must be a non-empty vector of positive finite numbers")
    w.setflags(write=False)
    return FitnessFunction(w)
