"""Closed-form bound calculators and their measured inputs.

The consistency-driven stability bound says the probability that noisy
improving dynamics end Nash-stable is at least

    p ** k_eff * p_easy ** (k_n - k_eff) * gamma

where p is consistency on critical decisions (value gap under twice the
rationality bound), p_easy on the rest, k_eff / k_n the critical / total
decision counts at verification, and gamma the probability that fully
consistent dynamics converge.  gamma itself has the structural lower bound
1 - exp(-delta / epsilon_bar).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .game import (
    GameSpec,
    Partition,
    check_potential_alignment,
    iter_deviation_checks,
    per_capita_table,
    value_gap_delta,
)

from .dynamics import EpisodeConfig, EpisodeLog, EpisodeOutcome, run_episode
from .preferences import OracleKind, OracleSpec


@dataclass(frozen=True)
class BoundInputs:
    p: float
    p_easy: float
    k_eff: float
    k_n: float
    gamma: float
    delta: float
    epsilon_bar: float

    def __post_init__(self) -> None:
        if not 0 < self.p <= 1 or not 0 < self.p_easy <= 1:
            raise ValueError("consistency probabilities must lie in (0, 1]")
        if self.k_eff < 0 or self.k_n < self.k_eff:
            raise ValueError("need 0 <= k_eff <= k_n")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")
        if not self.delta > 0:
            raise ValueError("delta must be > 0")
        if not self.epsilon_bar > 0:
            raise ValueError("epsilon_bar must be > 0")


@dataclass(frozen=True)
class BoundReport:
    consistency_factor: float
    structure_factor: float
    lower_bound: float
    gamma_formula_bound: float

    def to_dict(self) -> dict:
        return {
            "consistency_factor": self.consistency_factor,
            "structure_factor": self.structure_factor,
            "lower_bound": self.lower_bound,
            "gamma_formula_bound": self.gamma_formula_bound,
        }


def gamma_formula_bound(delta: float, epsilon_bar: float) -> float:
    """Structural lower bound on the consistent-convergence probability."""
    return 1.0 - math.exp(-delta / epsilon_bar)


def stability_lower_bound(inputs: BoundInputs) -> BoundReport:
    """Evaluate the consistency-driven stability lower bound."""
    consistency = inputs.p**inputs.k_eff * inputs.p_easy ** (inputs.k_n - inputs.k_eff)
    return BoundReport(
        consistency_factor=consistency,
        structure_factor=inputs.gamma,
        lower_bound=consistency * inputs.gamma,
        gamma_formula_bound=gamma_formula_bound(inputs.delta, inputs.epsilon_bar),
    )


def count_critical_decisions(
    game: GameSpec, partition: Partition, epsilon: float
) -> tuple[int, int]:
    """(k_eff, k_n) over the same deviation checks as Nash verification.

    A check is critical when its absolute per-capita gap is strictly below
    2 * epsilon; with epsilon 0 nothing qualifies.
    """
    pc = per_capita_table(game)
    threshold = 2.0 * epsilon
    k_n = 0
    k_eff = 0
    for _, own, _, joined in iter_deviation_checks(partition.masks):
        k_n += 1
        delta = 0.0 if joined == own else pc[joined] - pc[own]
        if abs(delta) < threshold:
            k_eff += 1
    return k_eff, k_n


def estimate_gamma(logs: Sequence[EpisodeLog]) -> float:
    """Fraction of fully consistent episodes that ended Nash-stable.

    An episode is consistent when every answered non-tie query matched the
    ground-truth comparison, i.e. the run followed deterministic improving
    dynamics throughout.
    """
    consistent = [
        log
        for log in logs
        if log.summary.consistent and log.outcome is not EpisodeOutcome.ERROR
    ]
    if not consistent:
        raise ValueError("gamma undefined: no consistent episodes in the batch")
    stable = sum(log.outcome is EpisodeOutcome.NASH_STABLE for log in consistent)
    return stable / len(consistent)


def measure_bound_inputs(
    game: GameSpec,
    logs: Sequence[EpisodeLog],
    oracle: OracleSpec,
    *,
    perfect_gamma_fallback: bool = True,
) -> BoundInputs:
    """Measure every bound input from a finished batch.

    Consistency probabilities are the pooled match rates of answered
    critical / easy queries against the ground-truth comparison; decision
    counts are averaged over terminal partitions; gamma comes from the
    consistent episodes, or from perfect-oracle replays of the same starts
    when no episode stayed fully consistent.
    """
    if not logs:
        raise ValueError("empty batch")
    crit_q = sum(log.summary.critical_queries for log in logs)
    crit_m = sum(log.summary.critical_matched for log in logs)
    easy_q = sum(log.summary.easy_queries for log in logs)
    easy_m = sum(log.summary.easy_matched for log in logs)
    p = crit_m / crit_q if crit_q else oracle.p_critical
    p_easy = easy_m / easy_q if easy_q else oracle.p_easy
    epsilon = oracle.epsilon
    counts = [
        count_critical_decisions(game, log.terminal_partition, epsilon) for log in logs
    ]
    k_eff = sum(c[0] for c in counts) / len(counts)
    k_n = sum(c[1] for c in counts) / len(counts)
    try:
        gamma = estimate_gamma(logs)
    except ValueError:
        if not perfect_gamma_fallback:
            raise
        perfect = OracleSpec(kind=OracleKind.PERFECT, epsilon=epsilon, seed=oracle.seed)
        stable = 0
        for log in logs:
            cfg = replace(
                log.config, oracles=(perfect,) * game.n, record_queries=False
            )
            if run_episode(cfg).outcome is EpisodeOutcome.NASH_STABLE:
                stable += 1
        gamma = stable / len(logs)
    gamma = min(max(gamma, 1e-9), 1.0)
    p = min(max(p, 1e-9), 1.0)
    p_easy = min(max(p_easy, 1e-9), 1.0)
    delta = value_gap_delta(game, max_size=min(game.n, 4))
    if math.isinf(delta):
        delta = epsilon  # degenerate game: gap plays no role in the formula
    return BoundInputs(
        p=p,
        p_easy=p_easy,
        k_eff=k_eff,
        k_n=k_n,
        gamma=gamma,
        delta=delta,
        epsilon_bar=epsilon,
    )


def scaling_prediction(n: int) -> float:
    """Predicted Nash-stability rate at n agents, capped at 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return min(1.0, 1.9 / math.sqrt(n))


@dataclass(frozen=True)
class RegressionFit:
    slope: float
    intercept: float
    r_squared: float
    n: int

    def to_dict(self) -> dict:
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "n": self.n,
        }


def consistency_regression(points: Sequence[tuple[float, float]]) -> RegressionFit:
    """Ordinary least squares of stability rate on consistency."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate regression: all consistency values equal")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    sst = sum((y - my) ** 2 for y in ys)
    ssr = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    r2 = 1.0 if sst == 0 else 1.0 - ssr / sst
    return RegressionFit(slope=slope, intercept=intercept, r_squared=r2, n=len(points))


@dataclass(frozen=True)
class PreconditionReport:
    met: bool
    epsilon: float
    delta: float
    gap_ok: bool
    aligned: bool
    reasons: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "met": self.met,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "gap_ok": self.gap_ok,
            "aligned": self.aligned,
            "reasons": list(self.reasons),
        }


def deterministic_preconditions_met(
    game: GameSpec, epsilon: float, max_size: int = 4
) -> PreconditionReport:
    """Gate for the deterministic convergence guarantee.

    Met exactly when epsilon < delta / 2 and potential alignment holds.
    Capability monotonicity, the third sufficient condition (Bogomolnaia &
    Jackson 2002), holds by construction and needs no check.  If agent j's
    profile dominates agent i's, then v(S + j) >= v(S + i) for every S
    avoiding both.  Each componentwise max is exact and no smaller with j;
    both sides add the maxima in the same order, divide by d and subtract
    the same size cost; and correctly rounded IEEE arithmetic is monotone
    in each operand.  tests/test_game.py checks this as a property.
    """
    delta = value_gap_delta(game, max_size=max_size)
    gap_ok = epsilon < delta / 2
    aligned = check_potential_alignment(game)
    reasons = []
    if not gap_ok:
        reasons.append(
            f"epsilon >= delta/2 (epsilon={epsilon:.6g}, delta/2={delta / 2:.6g})"
        )
    if not aligned.passed:
        reasons.append("potential alignment fails")
    return PreconditionReport(
        met=gap_ok and aligned.passed,
        epsilon=epsilon,
        delta=delta,
        gap_ok=gap_ok,
        aligned=aligned.passed,
        reasons=tuple(reasons),
    )
