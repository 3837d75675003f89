"""Tests for the exact level-chain oracle.

The independent ground truth used here is a brute-force Markov chain
over the full bitstring space (2^n states) built directly from per-bit
flip probabilities — a completely separate code path from the
level-space kernel under test.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.special import gammaln

from ea_lab import oracle
from ea_lab.algorithms import AlgorithmConfig, AlgorithmKind, _Levels
from ea_lab.core import (
    DomainError,
    MutationParams,
    OneBitFlip,
    UnitationSpec,
    fitness_classes,
    gap,
    gap_function,
    linear,
    needle,
    onemax,
    plateau,
    plateau_function,
)
from ea_lab.oracle import (
    CHAIN_BYTES,
    binomial_start,
    build_level_chain,
    exact_drift,
    exact_expected_hitting_time,
    exact_success_probability,
    expected_hitting_times_to,
    fitness_level_data,
    jump_tail,
    point_start,
)

ROW_SUM_TOL = 1e-12


def harmonic(k):
    return sum(1.0 / i for i in range(1, k + 1))


def expected_hitting_times(chain):
    return expected_hitting_times_to(chain, chain.absorbing)


# ---------------------------------------------------------------------------
# Dense references


def _kernel(mutation):
    """The operator's mutation kernel as a dense matrix of its
    ``kernel_row``s, the summation residual folded into the self-loop."""
    n = mutation.n
    kernel = np.zeros((n + 1, n + 1))
    for z in range(n + 1):
        lo, probs = mutation.kernel_row(z)
        kernel[z, lo : lo + probs.size] = probs
        kernel[z, z] += 1.0 - kernel[z].sum()
    return kernel


def _reference_P(spec, mutation):
    """The elitist transition matrix built from the kernel and the value
    table: worse offspring fold into the self-loop, ties are accepted, and
    the optimum's row is the identity."""
    table, kernel = spec.value_table, _kernel(mutation)
    accept = table[None, :] >= table[:, None]
    P = np.where(accept, kernel, 0.0)
    P[np.diag_indices(spec.n + 1)] += np.where(accept, 0.0, kernel).sum(axis=1)
    P[0] = 0.0
    P[0, 0] = 1.0
    return P


def _dense(chain):
    """The banded chain as a dense matrix: its accepted moves, and 1 - s
    on the diagonal."""
    moves = [chain.level(z) for z in range(chain.n + 1)]
    P = np.diag([1.0 - m.s for m in moves])
    for z, m in enumerate(moves):
        P[z, m.dests] = m.probs
    return P


def _can_reach(support, goal):
    """Members from which some path along ``support`` (a boolean matrix of
    one-step moves) reaches a member of ``goal`` (a boolean mask)."""
    reach = goal.copy()
    frontier = goal
    while frontier.any():
        frontier = support[:, frontier].any(axis=1) & ~reach
        reach |= frontier
    return reach


def _dense_hitting_times(P, values, target):
    """Expected hitting times of ``target`` on the dense matrix ``P``, by
    the fitness-ordered sweep over whole rows."""
    support = P > 0
    support[target] = False
    doomed = _can_reach(support, ~_can_reach(support, target))
    live = ~target & ~doomed
    leave = np.where(np.eye(P.shape[0], dtype=bool), 0.0, P).sum(axis=1)
    t = np.zeros(P.shape[0])
    for level in fitness_classes(values):
        idx = [z for z in level if live[z]]
        if idx:
            block = -P[np.ix_(idx, idx)]
            block[np.diag_indices(len(idx))] = leave[idx]
            t[idx] = np.linalg.solve(block, 1.0 + P[idx] @ t)
    t[doomed] = np.inf
    return t


# ---------------------------------------------------------------------------
# Kernel structure


@given(n=st.integers(1, 40), chi=st.floats(0.1, 3.0))
@settings(max_examples=40, deadline=None)
def test_rows_are_distributions(n, chi):
    if chi >= n:
        return
    mutation = MutationParams(n, chi)
    chain = build_level_chain(onemax(n), "OnePlusOneEA", mutation)
    for mat in (_kernel(mutation), _dense(chain)):
        assert np.all(mat >= 0)
        assert np.all(np.abs(mat.sum(axis=1) - 1.0) <= ROW_SUM_TOL)


def test_absorbing_rows_are_identity():
    chain = build_level_chain(onemax(8), "OnePlusOneEA")
    assert list(np.flatnonzero(chain.absorbing)) == [0]
    P = _dense(chain)
    assert P[0, 0] == 1.0 and P[0, 1:].sum() == 0.0


def test_elitist_rejection_folds_into_self_loop():
    chain = build_level_chain(onemax(6), "OnePlusOneEA")
    table, P, kernel = chain.value_table, _dense(chain), _kernel(MutationParams(6))
    for z in range(1, 7):
        worse = table < table[z]
        assert np.all(P[z, worse] == 0)
        rejected = kernel[z, worse].sum()
        assert P[z, z] == pytest.approx(kernel[z, z] + rejected, abs=1e-14)


def test_rls_kernel_moves_by_one_level():
    k = _kernel(OneBitFlip(5))
    for z in range(6):
        for z2 in range(6):
            if abs(z - z2) > 1:
                assert k[z, z2] == 0.0


def _per_flip_count_kernel(n, p):
    """The standard-bit-mutation kernel built by a Python loop over the
    number d0 of flipped zero-bits, with one scalar log-gamma pmf per
    flip count: the reference for the vectorised row."""

    def pmf_table(m):
        return np.array([
            math.exp(gammaln(m + 1) - gammaln(j + 1) - gammaln(m - j + 1)
                     + j * math.log(p) + (m - j) * math.log1p(-p))
            for j in range(m + 1)
        ])

    kernel = np.zeros((n + 1, n + 1))
    for z in range(n + 1):
        pmf_zero = pmf_table(z)
        pmf_one = pmf_table(n - z)
        row = kernel[z]
        for d0 in range(z + 1):
            lo = z - d0
            row[lo : lo + (n - z) + 1] += pmf_zero[d0] * pmf_one
        row[z] += 1.0 - row.sum()
    return kernel


# Every (n, chi) with n in {1, 2, 17, 64} and chi in {1, 2.5} that
# satisfies 0 < chi < n; n = 1 has none, and its RLS kernel is checked below.
@pytest.mark.parametrize("n, chi", [(2, 1.0), (17, 1.0), (17, 2.5), (64, 1.0), (64, 2.5)])
def test_mutation_kernel_matches_per_flip_count_loop(n, chi):
    kernel = _kernel(MutationParams(n, chi))
    assert np.abs(kernel - _per_flip_count_kernel(n, chi / n)).max() <= 1e-15
    assert np.all(np.abs(kernel.sum(axis=1) - 1.0) <= ROW_SUM_TOL)


@pytest.mark.parametrize("n", [1, 2, 17, 64])
def test_rls_kernel_matches_closed_form(n):
    closed = np.zeros((n + 1, n + 1))
    for z in range(n + 1):
        if z > 0:
            closed[z, z - 1] = z / n
        if z < n:
            closed[z, z + 1] = (n - z) / n
    kernel = _kernel(OneBitFlip(n))
    assert np.abs(kernel - closed).max() <= 1e-15
    assert np.all(np.abs(kernel.sum(axis=1) - 1.0) <= ROW_SUM_TOL)


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        build_level_chain(onemax(4), "SimulatedAnnealing")
    with pytest.raises(DomainError):
        build_level_chain(onemax(4), "MuPlusLambdaEA", MutationParams(4))


def test_moves_are_the_positive_off_diagonal_entries():
    # At n = 1000 some kernel rows end in entries that underflow to 0.
    spec, mutation = onemax(1000), MutationParams(1000)
    assert any(not mutation.kernel_row(z)[1].all() for z in range(1001))
    chain = build_level_chain(spec, "OnePlusOneEA", mutation)
    P = _reference_P(spec, mutation)
    for z in range(spec.n + 1):
        m = chain.level(z)
        assert set(m.dests.tolist()) == set(np.flatnonzero(P[z]).tolist()) - {z}
        assert np.array_equal(m.probs, P[z, m.dests])
        assert np.array_equal(m.cum, np.cumsum(m.probs)) and m.s == (m.cum[-1] if z else 0.0)


def test_kind_and_mutation_must_match():
    with pytest.raises(DomainError, match="only RLS"):
        build_level_chain(onemax(4), "RLS", MutationParams(4))
    with pytest.raises(DomainError, match="only RLS"):
        build_level_chain(onemax(4), "OnePlusOneEA", OneBitFlip(4))
    with pytest.raises(DomainError, match="different n"):
        build_level_chain(onemax(4), "RLS", OneBitFlip(5))
    assert np.array_equal(_dense(build_level_chain(onemax(4), "RLS", OneBitFlip(4))),
                          _dense(build_level_chain(onemax(4), "RLS")))


def _refuse_tables(monkeypatch):
    def refused(*args):
        raise AssertionError("a move table was requested")

    monkeypatch.setattr(oracle, "move_table", refused)


def _assert_refused(monkeypatch, spec, kind, mutation=None):
    if mutation is None:
        mutation = OneBitFlip(spec.n) if kind == "RLS" else MutationParams(spec.n)
    size = oracle.chain_cost(spec, mutation).nbytes
    assert size > CHAIN_BYTES
    _refuse_tables(monkeypatch)
    with pytest.raises(DomainError, match=f"the exact level chain at n = {spec.n} needs about "
                                          f"{size / 1e9:.3g} GB"):
        build_level_chain(spec, kind, mutation)


# The estimate is about 1 kB a level for RLS and 15 kB for standard bit
# mutation at chi = 1, plus 8 c (2w + 1) bytes for the band of the largest
# fitness class c, whose moves span w places.
@pytest.mark.parametrize("kind", ["RLS", "OnePlusOneEA"])
def test_oversized_chain_is_rejected_before_allocating(monkeypatch, kind):
    _assert_refused(monkeypatch, onemax(800_000 if kind == "RLS" else 60_000), kind)


def test_wide_plateau_is_rejected_before_allocating(monkeypatch):
    # Rows as wide as the space, and a band as wide as the class.
    _assert_refused(monkeypatch, needle(4096), "OnePlusOneEA", MutationParams(4096, 2047))


@pytest.mark.parametrize("kind", ["RLS", "OnePlusOneEA"])
def test_needle_10000_is_admitted(kind):
    # Stored as a band, a plateau costs less than the rows around it.
    n = 10_000
    mutation = OneBitFlip(n) if kind == "RLS" else MutationParams(n)
    assert oracle.chain_cost(needle(n), mutation).nbytes <= CHAIN_BYTES


def test_rls_solves_needle_10000():
    n = 10_000
    chain = build_level_chain(needle(n), "RLS")
    times = expected_hitting_times_to(chain, chain.absorbing)
    assert times[0] == 0 and np.all(times[1:] == np.inf)  # beyond float range
    # To the optimum or half-way, a birth-death chain: RLS leaves level z
    # downwards with probability z / n and upwards otherwise.
    target = chain.absorbing | (np.arange(n + 1) >= n // 2)
    z = np.arange(1, n // 2)
    banded = np.zeros((3, z.size))
    banded[0, 1:], banded[1], banded[2, :-1] = -(n - z[:-1]) / n, 1.0, -z[1:] / n
    expected = solve_banded((1, 1), banded, np.ones(z.size))
    times = expected_hitting_times_to(chain, target)
    assert np.allclose(times[z], expected, rtol=1e-9, atol=0)


def test_rls_needle_4096_solve_stores_only_the_band():
    chain = build_level_chain(needle(4096), "RLS")
    tracemalloc.start()
    try:
        expected_hitting_times_to(chain, chain.absorbing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6  # a dense block of the 4096-level class takes 134 MB


def test_chain_byte_budget_admits_a_4096_plateau_and_onemax_at_50000():
    for spec in (needle(4096), onemax(50_000)):
        assert oracle.chain_cost(spec, MutationParams(spec.n)).nbytes <= CHAIN_BYTES


# ---------------------------------------------------------------------------
# Cross-check against a brute-force bit-space chain


def _bit_space_expected_time(spec, p):
    """Expected generations of the elitist single-individual algorithm,
    from a uniform start, computed on the full 2^n state space."""
    n = spec.n
    table = spec.value_table
    states = list(itertools.product((0, 1), repeat=n))
    size = len(states)
    P = np.zeros((size, size))
    opt = table.max()
    for i, x in enumerate(states):
        zx = n - sum(x)
        if table[zx] == opt:
            P[i, i] = 1.0
            continue
        for j, y in enumerate(states):
            d = sum(a != b for a, b in zip(x, y))
            prob = p**d * (1 - p) ** (n - d)
            if table[n - sum(y)] >= table[zx]:
                P[i, j] += prob
            else:
                P[i, i] += prob
    transient = [i for i, x in enumerate(states) if table[n - sum(x)] != opt]
    Q = P[np.ix_(transient, transient)]
    t = np.linalg.solve(np.eye(len(transient)) - Q, np.ones(len(transient)))
    times = np.zeros(size)
    times[transient] = t
    return times.mean()  # uniform start over all bitstrings


@pytest.mark.parametrize("make", [onemax, needle, lambda n: gap_function(n, 2, 1)])
def test_level_chain_matches_bit_space_chain(make):
    n = 6
    spec = make(n)
    chain = build_level_chain(spec, "OnePlusOneEA", MutationParams(n, 1.0))
    level_value = exact_expected_hitting_time(chain, binomial_start(n))
    brute = _bit_space_expected_time(spec, 1.0 / n)
    assert level_value == pytest.approx(brute, rel=1e-10)


def test_rls_onemax_closed_form():
    # From z zeros, RLS waits n/i at each level i: E[T] = n * H_z.
    n = 15
    chain = build_level_chain(onemax(n), "RLS")
    times = expected_hitting_times(chain)
    for z in range(n + 1):
        assert times[z] == pytest.approx(n * harmonic(z), abs=1e-9)


# ---------------------------------------------------------------------------
# Exact rational hitting times


def _rational_kernel(n, chi):
    """Level kernel in exact arithmetic: RLS for ``chi=None``, else
    standard bit mutation at the rational rate chi/n."""
    if chi is None:
        return [[Fraction(z, n) if w == z - 1 else Fraction(n - z, n) if w == z + 1 else 0
                 for w in range(n + 1)] for z in range(n + 1)]
    r, s = Fraction(chi).numerator, Fraction(chi).denominator
    weight = [r**k * (s * n - r) ** (n - k) for k in range(n + 1)]
    kernel = []
    for z in range(n + 1):
        row = [0] * (n + 1)
        for a in range(z + 1):
            for b in range(n - z + 1):
                row[z - a + b] += math.comb(z, a) * math.comb(n - z, b) * weight[a + b]
        kernel.append([Fraction(v, (s * n) ** n) for v in row])
    return kernel


def _rational_hitting_times(spec, chi, target):
    """Expected generations to reach ``target`` (a set of levels) from
    each level, in exact arithmetic; None where the time is infinite.
    Gauss-Jordan elimination on the whole transient system, with no use
    of the fitness order."""
    n, f = spec.n, spec.value_table.tolist()
    kernel = _rational_kernel(n, chi)
    P = [[kernel[z][w] if w != z and f[w] >= f[z] else 0 for w in range(n + 1)]
         for z in range(n + 1)]
    levels = range(n + 1)

    def closure(seed, step):
        grown = set(seed)
        while new := {z for z in levels if z not in grown and step(z, grown)}:
            grown |= new
        return grown

    reaches = closure(target, lambda z, into: any(P[z][w] for w in into))
    doomed = closure(set(levels) - reaches,
                     lambda z, into: z not in target and any(P[z][w] for w in into))
    idx = [z for z in levels if z not in target and z not in doomed]
    # (I - Q) t = 1, where the diagonal of I - Q is the leave mass.
    rows = [[sum(P[z]) if w == z else -P[z][w] for w in idx] + [Fraction(1)] for z in idx]
    for c in range(len(idx)):
        pivot = next(r for r in range(c, len(idx)) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(len(idx)):
            if r != c and rows[r][c] != 0:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    times = [None if z in doomed else Fraction(0) for z in levels]
    for row, z in zip(rows, idx):
        times[z] = row[-1]
    return times


# The worst relative error allowed.  Strictly ordered levels are solved by
# one division each, and a plateau class by state reduction, which never
# subtracts; a dense LU of needle(16) reaches 6.0e-12.
_STRICT = 1e-12


def _assert_exact(times, exact):
    """``times`` is inf where ``exact`` is None, else within _STRICT of it."""
    assert np.isinf(times).tolist() == [t is None for t in exact]
    for z, t in enumerate(exact):
        if t is not None:
            assert abs(Fraction(times[z]) - t) <= _STRICT * t, z


@pytest.mark.parametrize("chi", [1, 2])
@pytest.mark.parametrize("make", [
    lambda: onemax(32),
    lambda: needle(12),
    lambda: needle(16),
    lambda: needle(24),
    lambda: gap_function(32, 10, 4),  # P_zz rounds to 1 at the gap
    lambda: gap_function(24, 3, 2),
    lambda: plateau_function(20, 4, 3),
    lambda: plateau_function(32, 6, 10),
], ids=["onemax-32", "needle-12", "needle-16", "needle-24", "gap-32-10-4", "gap-24-3-2",
        "plateau-20-4-3", "plateau-32-6-10"])
def test_hitting_times_match_exact_rationals(make, chi):
    spec = make()
    chain = build_level_chain(spec, "OnePlusOneEA", MutationParams(spec.n, chi))
    exact = _rational_hitting_times(spec, chi, set(np.flatnonzero(chain.absorbing).tolist()))
    _assert_exact(expected_hitting_times(chain), exact)


# For RLS, the wide gap's interior and the plateau before a trap are
# classes of several levels that move to levels of infinite time.
_BANDED_CASES = [onemax(40), gap_function(30, 3, 5), gap_function(30, 6, 5),
                 plateau_function(30, 4, 10), UnitationSpec(20, [plateau(6), gap(3), linear(11)]),
                 needle(10)]


@pytest.mark.parametrize("kind, chi", [("RLS", None), ("OnePlusOneEA", 1.0),
                                       ("OnePlusOneEA", 2.5)])
@pytest.mark.parametrize("spec", _BANDED_CASES, ids=["onemax", "gap", "wide-gap", "plateau",
                                                     "plateau-trap", "needle"])
def test_banded_hitting_times_match_the_dense_reference(spec, kind, chi):
    mutation = OneBitFlip(spec.n) if chi is None else MutationParams(spec.n, chi)
    chain = build_level_chain(spec, kind, mutation)
    dense = _dense_hitting_times(_reference_P(spec, mutation), spec.value_table,
                                 chain.absorbing)
    times = expected_hitting_times(chain)
    assert np.array_equal(np.isinf(times), np.isinf(dense))
    finite = np.isfinite(dense)
    assert np.all(np.abs(times[finite] - dense[finite]) <= 1e-12 * dense[finite])


def test_onemax_5000_hitting_time_matches_closed_form():
    # From one zero, the (1+1) EA on OneMax improves only by flipping that
    # bit and no other, with probability p (1 - p)^(n - 1).
    n = 5000
    p = 1.0 / n
    times = expected_hitting_times(build_level_chain(onemax(n), "OnePlusOneEA"))
    exact = 1.0 / (p * (1.0 - p) ** (n - 1))
    assert abs(times[1] - exact) <= 1e-12 * exact


class _ValueTable:
    """A value table that no block list makes: under RLS, levels 3 and 4
    form a class of equal value that nothing leaves, so 2..5 never reach
    the optimum."""

    n = 5
    value_table = np.array([5.0, 4.0, 1.0, 2.0, 2.0, 0.0])

    def __repr__(self):
        return f"_ValueTable({self.value_table.tolist()})"


@pytest.mark.parametrize("spec, kind, target", [
    (onemax(32), "RLS", {0}),
    (gap_function(20, 3, 5), "RLS", {0}),  # trapped at level 8: 6..20 never arrive
    (onemax(16), "OnePlusOneEA", {0, 5}),  # a target the chain can jump over
    (_ValueTable(), "RLS", {0}),
    (needle(48), "RLS", {0}),  # left only from level 1, with probability 1/48
])
def test_rls_and_other_targets_match_exact_rationals(spec, kind, target):
    chain = build_level_chain(spec, kind)
    mask = np.isin(np.arange(spec.n + 1), list(target))
    _assert_exact(expected_hitting_times_to(chain, mask),
                  _rational_hitting_times(spec, 1 if kind == "OnePlusOneEA" else None, target))


@st.composite
def _value_tables(draw):
    """Value tables of n = 2..8 whose unique maximum is level 0 and whose
    other levels take a few values, so that the fitness classes scatter
    and may hold levels that never leave them."""
    n = draw(st.integers(2, 8))
    rest = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    table = _ValueTable()
    table.n, table.value_table = n, np.array([4.0, *rest], dtype=float)
    return table


@given(spec=_value_tables(), kind=st.sampled_from(["RLS", "OnePlusOneEA"]))
@settings(max_examples=300, deadline=None)
def test_arbitrary_fitness_classes_match_exact_rationals(spec, kind):
    chain = build_level_chain(spec, kind)
    _assert_exact(expected_hitting_times(chain),
                  _rational_hitting_times(spec, 1 if kind == "OnePlusOneEA" else None, {0}))


@given(spec=_value_tables())
@settings(max_examples=200, deadline=None)
def test_fitness_classes_group_levels_by_value(spec):
    groups = {}
    for z, value in enumerate(spec.value_table.tolist()):
        groups.setdefault(value, []).append(z)
    best_first = sorted(groups, reverse=True)
    assert fitness_classes(spec.value_table) == tuple(tuple(groups[v]) for v in best_first)


@given(spec=_value_tables())
@settings(max_examples=200, deadline=None)
def test_level_populations_rank_levels_by_the_fitness_classes(spec):
    cfg = AlgorithmConfig(AlgorithmKind.MU_COMMA_LAMBDA_EA, MutationParams(spec.n, 0.5),
                          mu=2, lam=4)
    rep = _Levels(spec, cfg)
    # The rank order and class bounds by the arithmetic _Levels once did itself.
    rank = np.argsort(-spec.value_table, kind="stable")
    values = spec.value_table[rank]
    new = np.r_[True, values[1:] != values[:-1]]
    starts = np.flatnonzero(new)
    ends = np.r_[starts[1:], values.size]
    cls = np.cumsum(new) - 1
    assert rep.rank.tolist() == rank.tolist() and rep.rank.dtype == rank.dtype
    assert rep.position.tolist() == np.argsort(rank).tolist()
    assert rep.values == values.tolist()
    assert rep.cls_start == starts[cls].tolist() and rep.cls_end == ends[cls].tolist()
    assert rep.tied == ((ends - starts)[cls] > 1).tolist()


@pytest.mark.parametrize("kind, mutation", [("RLS", OneBitFlip(30)),
                                            ("OnePlusOneEA", MutationParams(30, 2.5))])
def test_the_level_chain_is_the_process_move_table(kind, mutation):
    spec = gap_function(30, 3, 5)
    chain = build_level_chain(spec, kind, mutation)
    assert chain is oracle.move_table(spec, mutation)
    assert sorted(chain.levels) == list(range(spec.n + 1))


# ---------------------------------------------------------------------------
# Derived quantities


def test_point_and_binomial_starts():
    u = point_start(8, 3)
    assert u[3] == 1.0 and u.sum() == 1.0
    b = binomial_start(8)
    assert b.sum() == pytest.approx(1.0, abs=1e-12)
    assert b[4] == max(b)


def test_start_must_be_distribution():
    chain = build_level_chain(onemax(5), "RLS")
    with pytest.raises(DomainError):
        exact_expected_hitting_time(chain, np.ones(6))
    chain = build_level_chain(onemax(10), "OnePlusOneEA")
    with pytest.raises(DomainError):
        exact_success_probability(chain, np.full(11, 0.54), 5)


def test_success_probability_monotone_and_limits():
    chain = build_level_chain(onemax(8), "OnePlusOneEA")
    start = binomial_start(8)
    probs = [exact_success_probability(chain, start, t) for t in (0, 5, 20, 100, 500)]
    assert probs == sorted(probs)
    assert probs[0] == pytest.approx(start[0])
    assert probs[-1] > 0.99


def test_exact_drift_positive_on_onemax():
    chain = build_level_chain(onemax(10), "OnePlusOneEA")
    drift = exact_drift(chain, lambda z: float(z))
    assert np.isnan(drift[0])
    assert np.all(drift[1:] > 0)


def test_exact_drift_validates_distance():
    chain = build_level_chain(onemax(5), "OnePlusOneEA")
    with pytest.raises(DomainError):
        exact_drift(chain, lambda z: 1.0)  # nonzero on the absorbing level


def test_jump_tail_decreases():
    chain = build_level_chain(needle(12), "OnePlusOneEA")
    tails = [jump_tail(chain, 6, j) for j in range(5)]
    assert tails[0] == pytest.approx(1.0)
    assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_jump_tail_rejects_levels_outside_the_chain():
    chain = build_level_chain(onemax(10), "OnePlusOneEA")
    for z in (-1, 11):
        with pytest.raises(DomainError, match="zeros-count out of range"):
            jump_tail(chain, z, 2)
    assert jump_tail(chain, 10, 0) == pytest.approx(1.0)


def test_hitting_time_to_subset():
    # Time for RLS on OneMax from z=5 to reach z <= 3 is n/5 + n/4.
    n = 10
    chain = build_level_chain(onemax(n), "RLS")
    target = np.arange(n + 1) <= 3
    times = expected_hitting_times_to(chain, target)
    assert times[5] == pytest.approx(n / 5 + n / 4)
    assert times[3] == 0.0


def test_hitting_time_to_subset_validates():
    chain = build_level_chain(onemax(5), "RLS")
    with pytest.raises(DomainError):
        expected_hitting_times_to(chain, np.zeros(6, dtype=bool))
    # Excluding the absorbing optimum from the target set is meaningless.
    bad = np.zeros(6, dtype=bool)
    bad[5] = True
    with pytest.raises(DomainError):
        expected_hitting_times_to(chain, bad)


def test_levels_that_can_miss_the_target_take_forever():
    # RLS on this gap function never leaves zeros-count 8, the edge of the
    # gap far from the optimum; every level that can reach it (6..20) has
    # an infinite expected time.
    n = 20
    chain = build_level_chain(gap_function(n, 3, 5), "RLS")
    times = expected_hitting_times(chain)
    assert np.flatnonzero(np.isinf(times)).tolist() == list(range(6, n + 1))
    finite = np.flatnonzero(~chain.absorbing & np.isfinite(times))
    Q = _dense(chain)[np.ix_(finite, finite)]
    assert np.allclose(times[finite] - Q @ times[finite], 1.0, atol=1e-12)
    assert exact_expected_hitting_time(chain, point_start(n, 8)) == math.inf
    # Start mass only on finite levels keeps the expectation finite.
    assert exact_expected_hitting_time(chain, point_start(n, 3)) == pytest.approx(
        times[3])


# ---------------------------------------------------------------------------
# Fitness-level data


def test_fitness_level_data_on_onemax():
    n = 7
    chain = build_level_chain(onemax(n), "OnePlusOneEA")
    data = fitness_level_data(chain)
    assert len(data.levels) == n + 1
    assert data.levels[-1] == (0,)  # optimum on top
    assert np.all(data.s_min == data.s_max)  # one state per level here
    assert np.all(data.s_min > 0)


def test_fitness_level_data_groups_equal_values():
    chain = build_level_chain(needle(6), "OnePlusOneEA")
    data = fitness_level_data(chain)
    assert len(data.levels) == 2
    assert set(data.levels[0]) == set(range(1, 7))
    assert np.all(data.s_min <= data.s_max)
    # Moves within the plateau are accepted but are no improvement.
    P = _reference_P(needle(6), MutationParams(6))
    improve = [P[z, 0] for z in data.levels[0]]
    assert data.s_min[0] == pytest.approx(min(improve), rel=1e-15)
    assert data.s_max[0] == pytest.approx(max(improve), rel=1e-15)
