"""Tests for seeded randomness, mutation, binomial pmfs and the
unitation function composer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln

from ea_lab.core import (
    BlockKind,
    BlockSpec,
    DomainError,
    MutationParams,
    OneBitFlip,
    RngStream,
    SpecError,
    UnitationSpec,
    _LOG_ZERO,
    _log_factorials,
    flip_count_pmf,
    flip_count_pmf_table,
    gap,
    gap_function,
    linear,
    linear_function,
    log_gamma,
    needle,
    onemax,
    plateau,
    plateau_function,
)


# ---------------------------------------------------------------------------
# Randomness


def test_same_stream_reproduces_sequence():
    a = RngStream(123, 7).generator().random(32)
    b = RngStream(123, 7).generator().random(32)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(123, 0).generator().random(32)
    b = RngStream(123, 1).generator().random(32)
    assert not np.array_equal(a, b)


def test_negative_stream_index_rejected():
    with pytest.raises(DomainError):
        RngStream(1, -1)
    with pytest.raises(DomainError):
        RngStream(-1, 0)


@pytest.mark.parametrize("master", [0, 5, 2**32 - 1, 2**32, 2**70 + 11])
@pytest.mark.parametrize("index", [0, 1, 1023, 1024, 2**20 + 7, 2**32 + 1])
def test_stream_keys_equal_seed_sequence_spawning(master, index):
    # The key table re-implements SeedSequence's hash; these cases cross a
    # table block, and 2**32 + 1 is a two-word spawn key.
    seq = np.random.SeedSequence(entropy=master, spawn_key=(index,))
    expected = np.random.Generator(np.random.Philox(seq)).random(9)
    assert np.array_equal(RngStream(master, index).generator().random(9), expected)


# ---------------------------------------------------------------------------
# Mutation


def test_mutation_params_domain():
    with pytest.raises(DomainError):
        MutationParams(n=10, chi=0.0)
    with pytest.raises(DomainError):
        MutationParams(n=10, chi=10.0)
    assert MutationParams(n=10, chi=2.0).rate == pytest.approx(0.2)


def _reference_kernel_row(n, z, rate):
    """The mutation-kernel row of both operators from one function,
    ``rate`` None standing for RLS: the reference that each operator's
    ``kernel_row`` must equal exactly.  Each binomial support comes from
    its own scalar search, not from the operator's one-pass table."""
    if rate is None:
        lo, probs = z - 1, np.array([z / n, 0.0, (n - z) / n])
        if z == 0:
            lo, probs = 0, probs[1:]
        return lo, probs[:-1] if z == n else probs

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

    lo0, zero_flips = _binomial_support(z, rate, n)
    lo1, one_flips = _binomial_support(n - z, rate, n)
    row = np.convolve(np.ldexp(zero_flips[::-1], 500), np.ldexp(one_flips, 500))
    return z - (lo0 + zero_flips.size - 1) + lo1, np.ldexp(row, -1000)


@pytest.mark.parametrize("n", [1, 2, 10, 100, 256, 512, 3000])
def test_operator_kernel_rows_equal_reference(n):
    operators = [(OneBitFlip(n), None)] + [
        (MutationParams(n, chi), chi / n) for chi in (0.5, 1.0, 2.5, n / 3) if chi < n
    ]
    for op, rate in operators:
        for z in range(n + 1):
            lo, probs = op.kernel_row(z)
            ref_lo, ref_probs = _reference_kernel_row(n, z, rate)
            assert lo == ref_lo and np.array_equal(probs, ref_probs), (op, z)
        for z in (-1, n + 1):
            with pytest.raises(DomainError):
                op.kernel_row(z)


def test_one_bit_flip_flips():
    n, count = 13, 500
    flips = OneBitFlip(n).flips(RngStream(3).generator(), count)
    assert flips.min() >= 0 and np.all(np.bincount(flips // n, minlength=count) == 1)
    assert np.all(np.bincount(flips % n, minlength=n) > 0)  # every position gets picked


def _chi_square_pvalue(observed, expected):
    """Goodness of fit, with the cells expected below 5 pooled into the
    last cell expected at least 5 before them."""
    observed, expected = list(observed), list(expected)
    while expected[-1] < 5:
        tail_observed, tail_expected = observed.pop(), expected.pop()
        observed[-1] += tail_observed
        expected[-1] += tail_expected
    return stats.chisquare(observed, expected).pvalue


def _flip_counts_independent(a, b):
    """p-value of a chi-square test that the flip counts ``a`` and ``b``,
    as 0, 1 or more, are independent."""
    table = np.zeros((3, 3))
    np.add.at(table, (np.minimum(a, 2), np.minimum(b, 2)), 1)
    return stats.chi2_contingency(table).pvalue


@pytest.mark.parametrize("chi", [0.5, 1.0, 2.5])
def test_standard_bit_mutation_flips(chi):
    n, count, calls = 13, 5, 4_000
    op = MutationParams(n, chi)
    flips = op.flips(RngStream(4).generator(), count)
    assert np.all(np.diff(flips) > 0) and np.all((0 <= flips) & (flips < count * n))

    rng = RngStream(5).generator()
    batches = [op.flips(rng, count) for _ in range(calls)]
    counts = np.array([np.bincount(f // n, minlength=count) for f in batches])  # calls x count
    positions = np.concatenate([f + i * count * n for i, f in enumerate(batches)])
    rows = np.zeros(calls * count * n, dtype=np.uint8)
    rows[positions] = 1
    rows = rows.reshape(-1, n)
    # Each row flips Bin(n, chi / n) bits ...
    pmf = flip_count_pmf_table(n, chi / n)
    observed = np.bincount(counts.reshape(-1), minlength=n + 1)
    assert _chi_square_pvalue(observed, pmf * len(rows)) > 1e-4
    # ... and each position flips Bin(rows, chi / n) times, independently.
    mean, var = len(rows) * chi / n, len(rows) * chi / n * (1 - chi / n)
    z2 = ((np.bincount(positions % n, minlength=n) - mean) ** 2 / var).sum()
    assert stats.chi2.sf(z2, n) > 1e-4
    # Flips are independent across the row boundary and the call boundary:
    # neighbouring bits (the last of a row, the first of the next), and the
    # flip counts of neighbouring rows in a call and across calls.
    bits = stats.chi2_contingency(np.histogram2d(rows[:-1, -1], rows[1:, 0], bins=2)[0])
    assert bits.pvalue > 1e-4
    assert _flip_counts_independent(counts[:, 0], counts[:, 1]) > 1e-4
    assert _flip_counts_independent(counts[:-1, -1], counts[1:, 0]) > 1e-4


def test_one_bit_flip_domain():
    with pytest.raises(DomainError):
        OneBitFlip(0)


def test_flip_count_pmf_edge_cases():
    assert flip_count_pmf(10, 0.0, 0) == 1.0
    assert flip_count_pmf(10, 0.0, 1) == 0.0
    assert flip_count_pmf(10, 1.0, 10) == 1.0
    assert flip_count_pmf(4, 0.5, 2) == pytest.approx(6 / 16)


@given(n=st.integers(1, 1000), p=st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_flip_count_pmf_rows_sum_to_one(n, p):
    table = flip_count_pmf_table(n, p)
    assert np.all(table >= 0)
    assert abs(table.sum() - 1.0) < 1e-12


def test_no_flip_probability_at_least_inverse_e():
    # (1 - 1/n)^n converges to 1/e from below; the pmf at 0 flips matches it.
    for n in (10, 100, 1000):
        p0 = flip_count_pmf(n, 1.0 / n, 0)
        assert p0 == pytest.approx((1 - 1 / n) ** n, rel=1e-12)
        assert p0 < 1 / math.e < flip_count_pmf(n, 1.0 / n, 0) / (1 - 1 / n)


def test_log_gamma_is_bit_identical_to_gammaln():
    small = np.arange(1, 100_001)
    assert np.array_equal([log_gamma(int(x)) for x in small], gammaln(small))
    large = np.random.default_rng(11).integers(10**6, 10**10, size=2000)
    assert [log_gamma(int(x)) for x in large] == gammaln(large).tolist()


@pytest.mark.parametrize("n", [1, 12, 13, 999, 1000, 512])
def test_log_factorials_are_bit_identical_to_gammaln(n):
    assert np.array_equal(_log_factorials(n), gammaln(np.arange(1, n + 2)))


# ---------------------------------------------------------------------------
# Blocks and stitching


def test_block_validation():
    with pytest.raises(SpecError):
        BlockSpec(BlockKind.LINEAR, m=0)
    with pytest.raises(SpecError):
        BlockSpec(BlockKind.LINEAR, m=3, a=0.0)
    # Gap blocks ignore slope constraints.
    BlockSpec(BlockKind.GAP, m=3)


def test_block_lengths_must_sum_to_n():
    with pytest.raises(SpecError):
        UnitationSpec(5, [linear(3)])


def test_onemax_table():
    spec = onemax(6)
    assert np.array_equal(spec.value_table, [6, 5, 4, 3, 2, 1, 0])
    assert spec.optimum_value == 6.0


def test_needle_table():
    spec = needle(6)
    assert np.array_equal(spec.value_table, [1, 0, 0, 0, 0, 0, 0])


def test_gap_table():
    # linear(7) + gap(2) + linear(1) on n=10: gap interior strictly below
    # everything, gap end one above the entry level.
    spec = gap_function(10, 2, 1)
    assert np.array_equal(spec.value_table, [10, 9, 0, 8, 7, 6, 5, 4, 3, 2, 1])


def test_plateau_table():
    spec = plateau_function(8, 3, 2)
    assert np.array_equal(spec.value_table, [6, 5, 4, 3, 3, 3, 2, 1, 0])


def test_plateau_end_is_one_above_interior():
    spec = UnitationSpec(4, [linear(1), plateau(3)])
    # Ramp to level 1 at z=3, plateau interior stays there, end z=0 gets 2.
    assert np.array_equal(spec.value_table, [2, 1, 1, 1, 0])


def test_table_minimum_is_zero_and_max_unique():
    spec = gap_function(12, 3, 2)
    t = spec.value_table
    assert t.min() == 0.0
    assert np.sum(t == t.max()) == 1 and t[0] == t.max()


def test_serialization_roundtrip():
    # The reader of the "blocks" family: a and b default to 1 and 0.
    spec = UnitationSpec.from_dict({"n": 9, "blocks": [
        {"kind": "linear", "m": 4, "a": 2.0, "b": 1.0},
        {"kind": "plateau", "m": 3},
        {"kind": "linear", "m": 2},
    ]})
    direct = UnitationSpec(9, [linear(4, a=2.0, b=1.0), plateau(3), linear(2)])
    assert spec == direct
    assert np.array_equal(spec.value_table, direct.value_table)


@st.composite
def unitation_specs(draw):
    n_blocks = draw(st.integers(1, 4))
    blocks = []
    for _ in range(n_blocks):
        kind = draw(st.sampled_from(list(BlockKind)))
        m = draw(st.integers(1, 6))
        if kind is BlockKind.LINEAR:
            a = draw(st.floats(0.5, 3.0))
            blocks.append(linear(m, a=a))
        elif kind is BlockKind.GAP:
            blocks.append(gap(m))
        else:
            blocks.append(plateau(m))
    n = sum(b.m for b in blocks)
    try:
        return UnitationSpec(n, blocks)
    except SpecError:
        # e.g. a trailing gap/plateau can make the optimum non-unique.
        return None


@given(unitation_specs())
@settings(max_examples=80, deadline=None)
def test_optimum_always_unique_max_at_zero(spec):
    if spec is None:
        return
    t = spec.value_table
    assert t[0] == t.max()
    assert np.all(t[0] > t[1:])
    assert t.min() == 0.0


# ---------------------------------------------------------------------------
# Generic objectives


def test_linear_function_values():
    f = linear_function([3.0, 1.0, 2.0])
    assert f.optimum_value == 6.0
    assert f.fn(np.array([1, 0, 1], dtype=np.uint8)) == 5.0


def test_linear_function_rejects_bad_weights():
    with pytest.raises(SpecError):
        linear_function([1.0, -2.0])
    with pytest.raises(SpecError):
        linear_function([])
    # The bit loop's skip rule bounds rounding by the sum of the weights.
    for weight in (math.nan, math.inf):
        with pytest.raises(SpecError):
            linear_function([1.0, weight])
