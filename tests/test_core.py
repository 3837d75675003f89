"""Tests for bitstrings, mutation, binomial pmfs and the unitation
function composer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ea_lab.core import (
    Bitstring,
    BlockKind,
    BlockSpec,
    DimensionError,
    DomainError,
    MutationParams,
    RngStream,
    SpecError,
    UnitationSpec,
    evaluate,
    flip_count_pmf,
    flip_count_pmf_table,
    gap,
    gap_function,
    linear,
    linear_function,
    needle,
    onemax,
    plateau,
    plateau_function,
    standard_bit_mutation,
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
# Bitstrings


def test_bitstring_counts_add_up():
    x = Bitstring([1, 0, 1, 1, 0])
    assert x.n == 5
    assert x.ones() == 3
    assert x.zeros() == 2
    assert x.ones() + x.zeros() == x.n


def test_bitstring_is_immutable():
    x = Bitstring([1, 0])
    with pytest.raises(AttributeError):
        x.bits = np.array([0, 0])
    with pytest.raises(ValueError):
        x.bits[0] = 0


def test_bitstring_rejects_non_binary():
    with pytest.raises(ValueError):
        Bitstring([0, 2])
    with pytest.raises(ValueError):
        Bitstring([0.5, 1])  # not truncated to 01
    with pytest.raises(DimensionError):
        Bitstring([])


def test_with_zeros_has_requested_count():
    rng = RngStream(0).generator()
    for z in (0, 3, 10):
        assert Bitstring.with_zeros(10, z, rng).zeros() == z


def test_bitstring_equality_and_hash():
    a = Bitstring([1, 0, 1])
    b = Bitstring([1, 0, 1])
    assert a == b and hash(a) == hash(b)
    assert a != Bitstring([1, 1, 1])


# ---------------------------------------------------------------------------
# Mutation


def test_mutation_params_domain():
    with pytest.raises(DomainError):
        MutationParams(n=10, chi=0.0)
    with pytest.raises(DomainError):
        MutationParams(n=10, chi=10.0)
    assert MutationParams(n=10, chi=2.0).rate == pytest.approx(0.2)


def test_mutation_preserves_length_and_mixes():
    rng = RngStream(42).generator()
    x = Bitstring.all_zeros(200)
    p = MutationParams(n=200, chi=1.0)
    flipped = [standard_bit_mutation(x, p, rng).ones() for _ in range(500)]
    assert all(0 <= f <= 200 for f in flipped)
    # Mean flip count should be about chi = 1.
    assert 0.7 < np.mean(flipped) < 1.3


def test_mutation_dimension_mismatch():
    rng = RngStream(0).generator()
    with pytest.raises(DimensionError):
        standard_bit_mutation(Bitstring.all_ones(5), MutationParams(n=6), rng)


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


def test_block_position_is_suffix_length():
    spec = UnitationSpec(10, [linear(4), gap(3), linear(3)])
    assert spec.block_position(0) == 6
    assert spec.block_position(1) == 3
    assert spec.block_position(2) == 0


def test_table_minimum_is_zero_and_max_unique():
    spec = gap_function(12, 3, 2)
    t = spec.value_table
    assert t.min() == 0.0
    assert np.sum(t == t.max()) == 1 and t[0] == t.max()


def test_serialization_roundtrip():
    spec = UnitationSpec(9, [linear(4, a=2.0, b=1.0), plateau(3), linear(2)])
    again = UnitationSpec.from_dict(spec.to_dict())
    assert again == spec
    assert np.array_equal(again.value_table, spec.value_table)


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


@given(unitation_specs(), st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_fitness_depends_only_on_zeros_count(spec, seed):
    if spec is None:
        return
    rng = RngStream(seed).generator()
    z = int(rng.integers(0, spec.n + 1))
    x = Bitstring.with_zeros(spec.n, z, rng)
    y = Bitstring.with_zeros(spec.n, z, rng)
    assert evaluate(spec, x) == evaluate(spec, y) == spec.value_table[z]


@given(unitation_specs())
@settings(max_examples=80, deadline=None)
def test_optimum_always_unique_max_at_zero(spec):
    if spec is None:
        return
    t = spec.value_table
    assert t[0] == t.max()
    assert np.all(t[0] > t[1:])
    assert t.min() == 0.0


def test_evaluate_dimension_check():
    with pytest.raises(DimensionError):
        evaluate(onemax(5), Bitstring.all_ones(6))


# ---------------------------------------------------------------------------
# Generic objectives


def test_linear_function_values():
    f = linear_function([3.0, 1.0, 2.0])
    assert f.optimum_value == 6.0
    assert f.value(Bitstring([1, 0, 1])) == 5.0


def test_linear_function_rejects_bad_weights():
    with pytest.raises(SpecError):
        linear_function([1.0, -2.0])
    with pytest.raises(SpecError):
        linear_function([])
