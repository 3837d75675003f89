"""Executable theorem library: fitness-level, level-based, drift and tail
bounds, plus the closed-form corollaries for unitation blocks.

Every evaluator returns a :class:`BoundReport` carrying the checked
hypotheses and the numeric bound.  Probability and waiting-time
arithmetic is done in log-space and exponentiated only at the reporting
boundary, because gap bounds reach ``n^m`` scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .core import DomainError, log_gamma

EULER_GAMMA = 0.5772156649015328606
_HARMONIC_EXACT_LIMIT = 1_000_000


class Direction(Enum):
    UPPER_ON_E = "UpperOnE"
    LOWER_ON_E = "LowerOnE"
    TAIL_UPPER = "TailUpper"


@dataclass
class BoundReport:
    """A theorem's verdict on one instance.  ``hypotheses_ok`` is None when
    the theorem does not apply to the instance at all (``detail["reason"]``
    says why), False when its hypotheses were checked and fail."""

    theorem_id: str
    hypotheses_ok: bool | None
    direction: Direction
    bound_value: float | None = None
    log_value: float | None = None
    detail: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.hypotheses_ok:
            self.bound_value = None


def harmonic(n: int) -> float:
    """n-th harmonic number; exact summation up to 10^6, Euler-Maclaurin
    expansion beyond."""
    if n < 0:
        raise DomainError("harmonic number needs n >= 0")
    if n == 0:
        return 0.0
    if n <= _HARMONIC_EXACT_LIMIT:
        return float(np.sum(1.0 / np.arange(1, n + 1)))
    return math.log(n) + EULER_GAMMA + 1.0 / (2 * n) - 1.0 / (12 * n**2)


# ---------------------------------------------------------------------------
# Tail inequalities


def markov_bound(expectation: float, t: float) -> float:
    """Markov's inequality: P(X >= t) <= E[X]/t for non-negative X."""
    if expectation < 0:
        raise DomainError("expectation must be non-negative")
    if t <= 0:
        raise DomainError("threshold t must be positive")
    return min(1.0, expectation / t)


def chernoff_lower(expectation: float, delta: float) -> float:
    """P(X <= (1-delta)E[X]) <= exp(-E[X] delta^2 / 2) for delta in [0,1]."""
    if expectation < 0:
        raise DomainError("expectation must be non-negative")
    if not 0 <= delta <= 1:
        raise DomainError("delta must lie in [0, 1]")
    return min(1.0, math.exp(-expectation * delta * delta / 2.0))


def chernoff_upper(expectation: float, delta: float) -> float:
    """P(X > (1+delta)E[X]) <= (e^delta / (1+delta)^(1+delta))^E[X] for delta > 0."""
    if expectation < 0:
        raise DomainError("expectation must be non-negative")
    if delta <= 0:
        raise DomainError("delta must be positive")
    log_bound = expectation * (delta - (1.0 + delta) * math.log1p(delta))
    return min(1.0, math.exp(log_bound))


# ---------------------------------------------------------------------------
# Artificial fitness levels


@dataclass(frozen=True)
class LevelData:
    """Per-level data for the fitness-level theorems.

    For the upper bound, ``s`` holds lower bounds on the per-level
    leaving probabilities.  For the lower bound, ``s`` holds upper
    bounds, ``u`` the initial-level distribution over the m-1 non-top
    levels (tail mass in the top level may be dropped) and ``chi_afl``
    the jump-structure constant certified by the caller.
    """

    s: np.ndarray
    u: np.ndarray | None = None
    chi_afl: float = 1.0

    def __post_init__(self) -> None:
        s = np.asarray(self.s, dtype=float)
        object.__setattr__(self, "s", s)
        if np.any(s < 0) or np.any(s > 1):
            raise DomainError("level probabilities must lie in [0, 1]")
        if not 0 < self.chi_afl <= 1:
            raise DomainError("chi_afl must lie in (0, 1]")
        if self.u is not None:
            u = np.asarray(self.u, dtype=float)
            object.__setattr__(self, "u", u)
            if u.size != s.size:
                raise DomainError("u must have one entry per non-top level")
            if np.any(u < 0) or u.sum() > 1 + 1e-12:
                raise DomainError("u must be a sub-distribution")


def afl_upper(levels: LevelData) -> BoundReport:
    """Fitness-level upper bound: E[T] <= sum of 1/s_i over non-top levels."""
    if np.any(levels.s == 0):
        return BoundReport(
            "afl_upper", False, Direction.UPPER_ON_E,
            detail={"reason": "some level has leaving probability bound 0"},
        )
    value = float(np.sum(1.0 / levels.s))
    return BoundReport("afl_upper", True, Direction.UPPER_ON_E, bound_value=value)


def afl_lower(levels: LevelData) -> BoundReport:
    """Fitness-level lower bound: E[T] >= chi * sum_i u_i sum_{j>=i} 1/s_j."""
    if levels.u is None:
        raise DomainError("lower bound needs the initial-level distribution u")
    if np.any(levels.s == 0):
        return BoundReport(
            "afl_lower", False, Direction.LOWER_ON_E,
            detail={"reason": "zero leaving-probability upper bound"},
        )
    tail_sums = np.cumsum((1.0 / levels.s)[::-1])[::-1]
    value = float(levels.chi_afl * np.dot(levels.u, tail_sums))
    return BoundReport("afl_lower", True, Direction.LOWER_ON_E, bound_value=value)


def afl_chi_certificate(n: int, chi: float = 1.0) -> float:
    """Valid jump-structure constant for standard bit mutation on a
    unitation level structure: (1 - chi/n)^(n-1), which is >= 1/e when
    chi = 1.

    Jumping exactly to level j requires a specific flip pattern whose
    probability is at least (1-p)^(n-(j-i)) times the probability of
    flipping at least j-i of the available zero-bits, which dominates
    the whole tail beyond j.
    """
    if n < 1:
        raise DomainError("n must be positive")
    p = chi / n
    if not 0 < p < 1:
        raise DomainError("chi/n must lie in (0, 1)")
    return float((1.0 - p) ** (n - 1))


# ---------------------------------------------------------------------------
# Level-based analysis of non-elitist populations


@dataclass(frozen=True)
class LevelBasedParams:
    """Parameters of the level-based theorem: per-level success
    probabilities ``z`` (m entries), their minimum bound ``z_star``,
    selective-pressure margin ``delta``, population-fraction constant
    ``gamma0`` and offspring population size ``lam``."""

    m: int
    z: np.ndarray
    z_star: float
    delta: float
    gamma0: float
    lam: int

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "z", z)
        if z.size != self.m:
            raise DomainError("need one z_j per level")
        if self.z_star <= 0 or np.any(z < self.z_star):
            raise DomainError("z_j >= z_star > 0 required")
        if self.delta <= 0:
            raise DomainError("delta must be positive")
        if not 0 < self.gamma0 < 1:
            raise DomainError("gamma0 must lie in (0, 1)")
        if self.lam < 1:
            raise DomainError("lambda must be positive")

    @property
    def a(self) -> float:
        return self.delta**2 * self.gamma0 / (2.0 * (1.0 + self.delta))

    @property
    def eps(self) -> float:
        return min(self.delta / 2.0, 0.5)

    @property
    def c(self) -> float:
        return self.eps**4 / 24.0


def level_based_lambda_min(p: LevelBasedParams) -> int:
    """Smallest population size satisfying condition (C3)."""
    threshold = (2.0 / p.a) * math.log(16.0 * p.m / (p.a * p.c * p.eps * p.z_star))
    return int(math.ceil(threshold))


def level_based_bound(p: LevelBasedParams) -> BoundReport:
    """Level-based theorem: checks (C3) and evaluates the runtime bound
    (in evaluations; the theorem's T is t * lambda)."""
    lam_min = level_based_lambda_min(p)
    detail = {
        "a": p.a, "eps": p.eps, "c": p.c, "lambda_min": lam_min,
        "C3_satisfied": p.lam >= lam_min,
    }
    if p.lam < lam_min:
        return BoundReport(
            "level_based", False, Direction.UPPER_ON_E, detail=detail,
        )
    value = (2.0 / (p.c * p.eps)) * (
        p.m * p.lam * (1.0 + math.log1p(p.c * p.lam)) + float(np.sum(1.0 / p.z))
    )
    return BoundReport(
        "level_based", True, Direction.UPPER_ON_E, bound_value=value, detail=detail
    )


def onemax_level_params(
    n: int, chi: float, delta: float, lam: int, mu: int | None = None
) -> LevelBasedParams:
    """Level-based instantiation for the (mu,lambda) EA on the
    count-the-ones function: z_j = (n-j)(chi/n)e^(-chi)(1-delta) over the
    n levels below the optimum, gamma0 = mu/lambda (or the boundary ratio
    admitted by the selective-pressure condition when mu is omitted)."""
    if not 0 < delta < 1:
        raise DomainError("delta must lie in (0, 1)")
    if mu is None:
        gamma0 = (1.0 - delta) / ((1.0 + delta) * math.exp(chi))
    else:
        gamma0 = mu / lam
    z = np.array(
        [(n - j) * (chi / n) * math.exp(-chi) * (1.0 - delta) for j in range(n)]
    )
    z_star = float(z.min())
    return LevelBasedParams(m=n, z=z, z_star=z_star, delta=delta, gamma0=gamma0, lam=lam)


@dataclass(frozen=True)
class MutationLemmaResult:
    precondition_ok: bool
    lhs: float  # (1 - chi/n)^n
    rhs: float  # (1 - delta) e^(-chi)
    inequality_holds: bool


def mutation_lemma_check(n: int, chi: float, delta: float) -> MutationLemmaResult:
    """No-flip probability lemma: if n >= (chi+delta)(chi/delta) then
    (1 - chi/n)^n >= (1-delta)e^(-chi)."""
    if not 0 < delta < 1:
        raise DomainError("delta must lie in (0, 1)")
    if chi <= 0:
        raise DomainError("chi must be positive")
    precondition = n >= (chi + delta) * (chi / delta)
    lhs = (1.0 - chi / n) ** n
    rhs = (1.0 - delta) * math.exp(-chi)
    return MutationLemmaResult(precondition, lhs, rhs, lhs >= rhs)


# ---------------------------------------------------------------------------
# Drift theorems


@dataclass(frozen=True)
class AdditiveDrift:
    """Additive drift data: state interval bound ``b``, per-step expected
    progress ``eps``, initial distance ``Y0``.  Progress is measured as a
    decrease in distance (the sign convention of the applications)."""

    b: float
    eps: float
    Y0: float

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise DomainError("eps must be positive")
        if not 0 <= self.Y0 <= self.b:
            raise DomainError("need 0 <= Y0 <= b")


def additive_drift_bounds(spec: AdditiveDrift) -> tuple[BoundReport, BoundReport]:
    """Upper bound b/eps (drift at least eps) and lower bound Y0/eps
    (drift at most eps); finiteness of E[T] is a caller attestation."""
    upper = BoundReport(
        "additive_drift_upper", True, Direction.UPPER_ON_E,
        bound_value=spec.b / spec.eps,
        detail={"attests": "E[T] finite and drift >= eps while Y > 0"},
    )
    lower = BoundReport(
        "additive_drift_lower", True, Direction.LOWER_ON_E,
        bound_value=spec.Y0 / spec.eps,
        detail={"attests": "drift <= eps while Y > 0"},
    )
    return upper, lower


@dataclass(frozen=True)
class MultiplicativeDrift:
    delta: float
    c_min: float
    c_max: float

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise DomainError("delta must be positive")
        if not 0 < self.c_min <= self.c_max:
            raise DomainError("need 0 < c_min <= c_max")


def multiplicative_drift_bound(spec: MultiplicativeDrift) -> BoundReport:
    """Multiplicative drift theorem: E[T] <= (2/delta) ln(1 + c_max/c_min)."""
    value = (2.0 / spec.delta) * math.log1p(spec.c_max / spec.c_min)
    return BoundReport(
        "multiplicative_drift", True, Direction.UPPER_ON_E, bound_value=value
    )


class VariableDriftMode(Enum):
    UPPER_ON_E = "UpperOnE"
    LOWER_ON_E = "LowerOnE"
    TAIL_UPPER_III = "TailUpper_iii"
    TAIL_UPPER_IV = "TailUpper_iv"


@dataclass(frozen=True)
class VariableDrift:
    """Variable drift data: drift function ``h`` positive on
    [x_min, x_max], initial state ``X0``, and for the tail parts a
    uniform slope magnitude ``rate`` (|h'| >= rate)."""

    h: Callable[[float], float] = field(repr=False)
    x_min: float
    x_max: float
    X0: float
    rate: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.x_min < self.x_max:
            raise DomainError("need 0 <= x_min < x_max")
        if not self.x_min <= self.X0 <= self.x_max:
            raise DomainError("X0 must lie in [x_min, x_max]")
        if self.rate is not None and self.rate <= 0:
            raise DomainError("rate must be positive")


def _adaptive_simpson(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-9,
    max_depth: int = 60,
) -> float:
    """Adaptive Simpson quadrature with absolute tolerance."""

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flmid = f(lmid)
        frmid = f(rmid)
        left = simpson(lo, mid, flo, flmid, fmid)
        right = simpson(mid, hi, fmid, frmid, fhi)
        if depth >= max_depth:
            raise ArithmeticError("quadrature did not converge")
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, flmid, fmid, left, eps / 2.0, depth + 1) + recurse(
            mid, hi, fmid, frmid, fhi, right, eps / 2.0, depth + 1
        )

    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fmid = f(mid)
    whole = simpson(a, b, fa, fmid, fb)
    return recurse(a, b, fa, fmid, fb, whole, tol, 0)


def _derivative_bounds(h, x_min: float, x_max: float, points: int = 201):
    xs = np.linspace(x_min, x_max, points)
    hs = np.array([h(x) for x in xs])
    if np.any(hs <= 0):
        raise DomainError("h must be positive on [x_min, x_max]")
    slopes = np.diff(hs) / np.diff(xs)
    return float(slopes.min()), float(slopes.max())


def variable_drift_bound(
    spec: VariableDrift, mode: VariableDriftMode, t: float | None = None
) -> BoundReport:
    """Variable drift theorem, parts (i)-(iv), for the first hitting time
    of 0.

    (i)/(ii) bound E[T] by x_min/h(x_min) + integral of 1/h from x_min to
    X0 (upper bound needs h non-decreasing, lower bound h non-increasing);
    (iii)/(iv) are the exponential tail bounds at time ``t`` and require
    |h'| >= rate of the matching sign.
    """
    theorem_id = f"variable_drift_{mode.value}"
    slope_min, slope_max = _derivative_bounds(spec.h, spec.x_min, spec.x_max)
    tol = 1e-9 * max(1.0, abs(slope_min), abs(slope_max))

    if mode is VariableDriftMode.UPPER_ON_E:
        sign_ok = slope_min >= -tol
        direction = Direction.UPPER_ON_E
    elif mode is VariableDriftMode.LOWER_ON_E:
        sign_ok = slope_max <= tol
        direction = Direction.LOWER_ON_E
    else:
        if spec.rate is None or t is None:
            raise DomainError("tail modes need rate and t")
        direction = Direction.TAIL_UPPER
        if mode is VariableDriftMode.TAIL_UPPER_III:
            sign_ok = slope_min >= spec.rate - tol
        else:
            sign_ok = slope_max <= -spec.rate + tol

    detail = {"slope_min": slope_min, "slope_max": slope_max}
    if not sign_ok:
        detail["reason"] = "declared derivative sign not verified on the grid"
        return BoundReport(theorem_id, False, direction, detail=detail)

    integral = _adaptive_simpson(lambda y: 1.0 / spec.h(y), spec.x_min, spec.X0)
    head = spec.x_min / spec.h(spec.x_min) if spec.x_min > 0 else 0.0
    expectation_term = head + integral
    detail["expectation_term"] = expectation_term

    if mode in (VariableDriftMode.UPPER_ON_E, VariableDriftMode.LOWER_ON_E):
        return BoundReport(
            theorem_id, True, direction, bound_value=expectation_term, detail=detail
        )
    rate = spec.rate
    if mode is VariableDriftMode.TAIL_UPPER_III:
        log_bound = -rate * (t - expectation_term)
        return BoundReport(
            theorem_id, True, direction,
            bound_value=min(1.0, math.exp(log_bound)), log_value=log_bound,
            detail=detail,
        )
    # part (iv): P(T < t) bound
    log_front = math.log(math.expm1(rate * t) - math.expm1(rate)) - math.log(
        math.expm1(rate)
    )
    log_bound = log_front - rate * head - rate * integral
    return BoundReport(
        theorem_id, True, direction,
        bound_value=min(1.0, math.exp(log_bound)), log_value=log_bound, detail=detail,
    )


@dataclass(frozen=True)
class NegativeDrift:
    """Negative drift data: interval [a, b] of the distance scale, drift
    magnitude ``eps`` away from the target, jump-decay parameters
    ``delta`` and ``r``."""

    a: float
    b: float
    eps: float
    delta: float
    r: float

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise DomainError("need a < b (non-empty interval)")
        if min(self.eps, self.delta, self.r) <= 0:
            raise DomainError("eps, delta and r must be positive")


def negative_drift_check(
    spec: NegativeDrift,
    drift_at: Callable[[int], float],
    jump_tail_at: Callable[[int, int], float],
    state_max: int | None = None,
) -> BoundReport:
    """Negative-drift theorem hypothesis check.

    Condition 1: drift away from the target at least ``eps`` on the open
    interval (a, b).  Condition 2: jump tails bounded by
    (1+delta)^-(j-r) for states above ``a`` (up to ``state_max``),
    evaluated until both sides fall below 1e-15.  The theorem's waiting
    time constant is existential, so the report certifies only the
    conditions and the interval width b - a.
    """
    interior = [i for i in range(math.floor(spec.a) + 1, math.ceil(spec.b)) if spec.a < i < spec.b]
    if not interior:
        return BoundReport(
            "negative_drift", False, Direction.TAIL_UPPER,
            detail={"reason": "no integer states strictly inside (a, b)"},
        )
    drifts = {i: float(drift_at(i)) for i in interior}
    cond1 = all(v >= spec.eps for v in drifts.values())

    hi = math.ceil(spec.b) if state_max is None else int(state_max)
    cond2 = True
    worst = None
    for i in range(math.floor(spec.a) + 1, hi + 1):
        if not i > spec.a:
            continue
        j = 1
        while True:
            tail = float(jump_tail_at(i, j))
            limit = (1.0 + spec.delta) ** -(j - spec.r)
            if tail > limit:
                cond2 = False
                worst = (i, j, tail, limit)
            if tail < 1e-15 and limit < 1e-15:
                break
            j += 1
        if not cond2:
            break

    detail = {
        "condition1_ok": cond1,
        "condition2_ok": cond2,
        "interval_width": spec.b - spec.a,
        "min_drift": min(drifts.values()),
    }
    if worst is not None:
        detail["condition2_violation"] = worst
    ok = cond1 and cond2
    return BoundReport("negative_drift", ok, Direction.TAIL_UPPER, detail=detail)


# ---------------------------------------------------------------------------
# Closed-form corollaries for unitation blocks


@dataclass(frozen=True)
class GapBlockBounds:
    """Waiting-time sandwich for a gap block: the inner pair uses the
    exact binomial coefficient, the outer pair its (n/k)^k <= C(n,k) <=
    (en/k)^k relaxation.  Log values are always valid; linear values are
    inf when not representable."""

    log_inner_lower: float
    log_inner_upper: float
    log_outer_lower: float
    log_outer_upper: float

    def _lin(self, lv: float) -> float:
        return math.exp(lv) if lv < 709 else math.inf

    @property
    def inner_lower(self) -> float:
        return self._lin(self.log_inner_lower)

    @property
    def inner_upper(self) -> float:
        return self._lin(self.log_inner_upper)

    @property
    def outer_lower(self) -> float:
        return self._lin(self.log_outer_lower)

    @property
    def outer_upper(self) -> float:
        return self._lin(self.log_outer_upper)


def gap_block_bounds(n: int, m: int, k: int) -> GapBlockBounds:
    """Expected (1+1) EA time to jump a gap block of length m at position
    k, from the start of the block."""
    if m < 1 or k < 0 or m + k > n:
        raise DomainError("need m >= 1, k >= 0, m + k <= n")
    log_binom = log_gamma(m + k + 1) - log_gamma(m + 1) - log_gamma(k + 1)
    log_inner_lower = m * math.log(n) - log_binom
    log_inner_upper = log_inner_lower + 1.0
    log_outer_lower = m * (math.log(n * m / (m + k)) - 1.0)
    log_outer_upper = m * math.log(n * m / (m + k)) + 1.0
    return GapBlockBounds(
        log_inner_lower, log_inner_upper, log_outer_lower, log_outer_upper
    )


def onemax_afl_upper(n: int) -> float:
    """Fitness-level upper bound e * n * H_n for the (1+1) EA on the
    count-the-ones function."""
    if n < 1:
        raise DomainError("n must be positive")
    return math.e * n * harmonic(n)


def linear_block_upper(n: int, m: int, k: int) -> float:
    """Fitness-level upper bound e * n * ln((m+k)/k) for a linear block
    of length m ending at position k >= 1."""
    if m < 1 or k < 1 or m + k > n:
        raise DomainError("need m >= 1, k >= 1, m + k <= n")
    return math.e * n * math.log((m + k) / k)


def linear_block_lower(n: int, m: int, k: int) -> float:
    """Fitness-level lower bound for a linear block, from the block
    start: chi * n * (H_{m+k} - H_k) with the standard-bit-mutation
    certificate chi = (1 - 1/n)^(n-1) and leaving probabilities at most
    i/n."""
    if m < 1 or k < 0 or m + k > n:
        raise DomainError("need m >= 1, k >= 0, m + k <= n")
    chi = afl_chi_certificate(n)
    return chi * n * (harmonic(m + k) - harmonic(k))


def plateau_bounds(n: int, m: int, k: int) -> tuple[float, float]:
    """Additive-drift sandwich (lower, upper) for crossing a plateau
    block of length m ending at position k > n/2."""
    if m < 1 or k < 0 or m + k > n:
        raise DomainError("need m >= 1, k >= 0, m + k <= n")
    if 2 * k <= n:
        raise DomainError(
            "plateau bounds hold in the regime k > n/2 (positive drift towards the end)"
        )
    upper = m * n / (2 * k - n)
    lower = m * n / (2 * (m + k) - n)
    return lower, upper


def mucommalambda_runtime_bound(
    n: int,
    chi: float,
    delta: float,
    lam: int,
    linear_term_constant: float = 0.0,
) -> BoundReport:
    """Runtime bound for the (mu,lambda) EA on the count-the-ones
    function: 1536 n / delta^5 * (lambda ln lambda + e^chi ln(n+2) /
    (chi (1-delta))) plus a configurable multiple of n*lambda standing
    in for the additive term whose constant is left implicit."""
    if not 0 < delta < 1:
        raise DomainError("delta must lie in (0, 1)")
    if not 0 < chi < n / 2:
        raise DomainError("chi must lie in (0, n/2)")
    params = onemax_level_params(n, chi, delta, lam)
    c3 = level_based_bound(params)
    lemma = mutation_lemma_check(n, chi, delta)
    value = (1536.0 * n / delta**5) * (
        lam * math.log(lam) + math.exp(chi) * math.log(n + 2) / (chi * (1.0 - delta))
    ) + linear_term_constant * n * lam
    report = BoundReport(
        "mucommalambda_runtime",
        c3.hypotheses_ok and lemma.precondition_ok,
        Direction.UPPER_ON_E,
        bound_value=value,
        detail={
            "level_based": c3.detail,
            "mutation_lemma_precondition": lemma.precondition_ok,
            "lambda_over_mu_min": (1.0 + delta) / (1.0 - delta) * math.exp(chi),
        },
    )
    if linear_term_constant == 0.0:
        report.warnings.append(
            "additive n*lambda term evaluated with constant 0 (no explicit constant available)"
        )
    return report
