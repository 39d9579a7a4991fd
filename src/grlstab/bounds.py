"""Closed-form evaluation of every theoretical stability/generalization bound.

All recursion solutions go through singularity-safe kernels:

    geometric_series(x, T)  = (x^T - 1)/(x - 1) = sum_{t<T} x^t
    double_geometric(x, T)  = (x^{2T} - x^T)/(x^2 - x) = x^{T-1} geom(x, T)

with first-order-corrected branches near the removable points so the closed
forms match direct loop iteration to 1e-9 relative even at |x - 1| ~ 1e-12.

Recursion constants for T-step fixed-step SGD over N vertices with field
sizes NN_i and certificate constants (lam, gamma, L, zeta, B_Z, B_L) come
from one per-step case table, ``step_cases``. A step that samples a vertex
whose field holds i ("hit", probability (NN_i - 1)/N), i itself ("self",
1/N) or neither ("miss", (N - NN_i)/N) maps the deviation d to at most
growth * d + kick:

    hit = (c, a B_Z zeta),  self = (1, 2 a L),  miss = (c, 0)

with c = rho = 1 - a lam gamma/(lam+gamma) (strongly convex) or 1 + a lam
(non-convex). The strongly convex hit case in two lines: the same-data step
is rho-expansive for a <= 2/(lam+gamma) (Hardt, Recht & Singer 2016, Lemma
3.7), and changing the data at one field member moves the gradient by at
most zeta B_Z; projection is 1-Lipschitz, so both survive it.
``recursion_constants`` is the table's average over the three cases, in
both regimes, as (N,) arrays over the field sizes:

    growth_i = c + (1 - c)/N
    kick_i   = a B_Z zeta (NN_i - 1)/N + 2 a L / N

``bound_terms`` maps the scalar kernels over them one vertex at a time into
one ``BoundTerms`` record (growth, kick, geom(growth_i, T), the expected
envelope, both second-moment forms below, the validity conditions); every
bound and every number of ``bound_report`` is a max or sum over it.

The strongly convex bounds have two validity conditions, which
``bound_report`` prints and ``BoundTerms.applicable`` gates on: a <=
2/(lam+gamma), which the lemma needs, and the paper's step-size domain
a^4 lam^2 + 2 a lam gamma/(lam+gamma) <= 1. Neither implies the other: at
lam = 100, gamma = 1, a = 0.03 the second holds and the first fails. The
non-convex regime has no condition.

Expected stability:  E[beta_{2,i}] <= L * geom(growth_i, T) * kick_i.

Second-moment recursion, with g = growth_i and k = kick_i:
v_t = g^2 v_{t-1} + 2 k g m_{t-1} + k^2 with m_t the first-moment solution.
Its exact solution is the squared first moment, (k geom(g, T))^2. The looser
sum form

    2 k^2 (g^{2T} - g^T)/(g^2 - g) + k^2 (1 - g^T)/(1 - g)^2

is what the high-probability expressions consume; both are reported. The
second ratio of the loose form has no finite limit at g = 1, so within
the branch width it falls back to the exact-solution limit (geom^2 = T^2);
this is recorded, not hidden. For growth > 1 at small T the loose form is
negative, so at small T every non-convex spec has it negative; the
high-probability expressions that take its square root are then
not-applicable (None).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .objectives import NON_CONVEX, STRONGLY_CONVEX, ConstantsCertificate
from .sampling import check_range

BRANCH_WIDTH = 1e-7


class BoundDomainError(ValueError):
    """Inputs outside the bound's stated domain (e.g. Dobrushin alpha >= 1)."""


# ---------------------------------------------------------------------------
# Singularity-safe kernels


def _power(x: float, k: int) -> float:
    """x ** k for an integer k, or a signed infinity where a float ** raises OverflowError."""
    try:
        return x**k
    except OverflowError:
        return -math.inf if x < 0 and k % 2 else math.inf


def geometric_series(x: float, steps: int) -> float:
    """sum_{t=0}^{steps-1} x^t, continuous through x = 1."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps == 0:
        return 0.0
    eps = x - 1.0
    if abs(eps) < BRANCH_WIDTH:
        # limit steps at x = 1, first-order correction keeps loop equivalence
        return steps + eps * steps * (steps - 1) / 2.0
    return (_power(x, steps) - 1.0) / eps


def double_geometric(x: float, steps: int) -> float:
    """(x^{2T} - x^T)/(x^2 - x) via the identity x^{T-1} * geom(x, T)."""
    if steps == 0:
        return 0.0
    return _power(x, steps - 1) * geometric_series(x, steps)


# ---------------------------------------------------------------------------
# Parameters


@dataclass(frozen=True, eq=False)
class SgdBoundParams:
    certificate: ConstantsCertificate
    step_size: float
    steps: int
    n_vertices: int
    field_sizes: np.ndarray  # (N,) int, NN_i
    regime: str

    def __post_init__(self):
        if self.regime not in (STRONGLY_CONVEX, NON_CONVEX):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.regime == STRONGLY_CONVEX and self.certificate.strong_convexity <= 0:
            raise ValueError("strongly-convex regime needs strong_convexity > 0")
        check_range("step size", self.step_size, strict=True)
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        sizes = np.asarray(self.field_sizes, dtype=int)
        if sizes.shape != (self.n_vertices,):
            raise ValueError("field_sizes must have length n_vertices")
        if np.any(sizes < 1) or np.any(sizes > self.n_vertices):
            raise ValueError("field sizes must lie in [1, N]")
        object.__setattr__(self, "field_sizes", sizes)


# ---------------------------------------------------------------------------
# Recursion constants and validity conditions


def step_cases(cert: ConstantsCertificate, a: float, regime: str) -> dict:
    """(growth, kick) of the "hit", "self" and "miss" cases: one step of size
    a maps a deviation d to at most growth * d + kick. The hit and miss
    growth is rho = 1 - a lam gamma/(lam+gamma) (strongly convex, for
    a <= 2/(lam+gamma)) or 1 + a lam (non-convex)."""
    lam = cert.smoothness
    if regime == STRONGLY_CONVEX:
        gamma = cert.strong_convexity
        grow = 1.0 - a * lam * gamma / (lam + gamma)
    else:
        grow = 1.0 + a * lam
    return {"hit": (grow, a * cert.sample_diameter * cert.gradient_data_lipschitz),
            "self": (1.0, 2.0 * a * cert.lipschitz), "miss": (grow, 0.0)}


def recursion_constants(p: SgdBoundParams):
    """(growth, kick): ``step_cases`` averaged over the case probabilities
    (NN_i - 1)/N, 1/N and (N - NN_i)/N, as (N,) arrays."""
    n = p.n_vertices
    sizes = p.field_sizes
    cases = step_cases(p.certificate, p.step_size, p.regime)

    def average(k):
        return (cases["hit"][k] * (sizes - 1) / n + cases["self"][k] / n
                + cases["miss"][k] * (n - sizes) / n)

    return average(0), average(1)


def _conditions(p: SgdBoundParams) -> dict:
    """The validity conditions of the SGD bounds, each {"value", "ok"}; the
    non-convex regime has none."""
    if p.regime != STRONGLY_CONVEX:
        return {}
    a = p.step_size
    lam, gamma = p.certificate.smoothness, p.certificate.strong_convexity
    step = _power(a, 4) * _power(lam, 2) + 2.0 * a * lam * gamma / (lam + gamma)
    return {
        "step-size: a^4 lam^2 + 2 a lam gamma/(lam+gamma) <= 1": {
            "value": step, "ok": bool(step <= 1.0)},
        "contraction: a <= 2/(lam+gamma)": {
            "value": a, "ok": bool(a <= 2.0 / (lam + gamma))},
    }


def _check_delta(delta: float) -> None:
    """Reject a failure probability outside (0, 1), NaN included."""
    if not 0.0 < delta < 1.0:
        raise BoundDomainError(f"delta must be in (0, 1), got {delta}")


def _sup(values: np.ndarray) -> float:
    """max(0, v_0, v_1, ...) taken left to right, as a scalar loop from 0."""
    return max([0.0, *values.tolist()])


# ---------------------------------------------------------------------------
# Second-moment kernels


def _loose_second_ratio(z: float, steps: int) -> float:
    """(1 - z^T)/(1 - z)^2; no finite limit at z = 1, falls back to geom^2."""
    if abs(1.0 - z) < 1e-9:
        return _power(geometric_series(z, steps), 2)
    return (1.0 - _power(z, steps)) / _power(1.0 - z, 2)


def variance_term_loose(growth: float, kick: float, steps: int) -> float:
    return 2.0 * _power(kick, 2) * double_geometric(growth, steps) \
        + _power(kick, 2) * _loose_second_ratio(growth, steps)


def variance_term_exact(growth: float, kick: float, steps: int) -> float:
    return _power(kick * geometric_series(growth, steps), 2)


# ---------------------------------------------------------------------------
# Per-vertex bound terms


@dataclass(frozen=True, eq=False)
class BoundTerms:
    """Every per-vertex term the SGD bounds read, as (N,) arrays."""

    growth: np.ndarray  # recursion growth
    kick: np.ndarray  # recursion kick
    geom: np.ndarray  # geometric_series(growth_i, T)
    loose: np.ndarray  # loose second-moment sum form
    exact: np.ndarray  # exact second-moment solution (squared first moment)
    expected: np.ndarray  # expected stability envelope L * geom_i * kick_i
    conditions: dict  # validity conditions, as ``bound_report`` prints them

    @property
    def applicable(self) -> bool:
        return all(c["ok"] for c in self.conditions.values())


def bound_terms(p: SgdBoundParams) -> BoundTerms:
    """The per-vertex terms of p, each scalar kernel mapped one vertex at a time."""
    growth, kick = recursion_constants(p)
    pairs = list(zip(growth.tolist(), kick.tolist()))
    geom = np.array([geometric_series(g, p.steps) for g, _ in pairs])
    return BoundTerms(
        growth=growth, kick=kick, geom=geom,
        loose=np.array([variance_term_loose(g, k, p.steps) for g, k in pairs]),
        exact=np.array([variance_term_exact(g, k, p.steps) for g, k in pairs]),
        expected=p.certificate.lipschitz * geom * kick,
        conditions=_conditions(p),
    )


# ---------------------------------------------------------------------------
# Expected stability


def expected_stability_bound(p: SgdBoundParams, i: int | None = None) -> float | None:
    """L * geom(growth_i, T) * kick_i; sup over i when i is None.

    Returns None (not-applicable) when a validity condition fails.
    """
    t = bound_terms(p)
    if not t.applicable:
        return None
    return _sup(t.expected) if i is None else float(t.expected[i])


# ---------------------------------------------------------------------------
# High-probability stability bounds


def highprob_stability_bound(p: SgdBoundParams, delta: float) -> float | None:
    """Non-asymptotic high-probability stability bound for the active regime.

    Chebyshev mass enters under 1/delta and the sub-Gaussian tail under
    log(2/delta) (the union-bound split). Returns None when a validity
    condition fails or the loose second moment is negative (growth > 1 at
    small T).
    """
    _check_delta(delta)
    t = bound_terms(p)
    if not t.applicable or np.any(t.loose < 0.0):
        return None
    cert = p.certificate
    lip = cert.lipschitz
    log_term = math.log(2.0 / delta)
    total_loose = float(t.loose.sum())
    if p.regime == STRONGLY_CONVEX:
        lam, gamma = cert.smoothness, cert.strong_convexity
        sup_env = _sup(t.geom * t.kick)
        gap = (lam - gamma) * math.sqrt(log_term / 8.0)
        chebyshev = math.sqrt(total_loose / delta)
        return (lip + gap) * sup_env + gap * _power(sup_env + chebyshev, 2)
    return expected_stability_bound(p) * (1.0 + math.sqrt(log_term / 2.0)) \
        + lip * math.sqrt(log_term / delta * total_loose)


# ---------------------------------------------------------------------------
# Generalization bounds


def concentration_tail(c_list, alpha_dob: float, t: float) -> float:
    """exp(-(1 - alpha) t^2 / (2 sum c_i^2)), clipped to [0, 1].

    Tail bound for functions with per-coordinate sensitivity c_i under a
    distribution satisfying the Dobrushin condition with coefficient alpha.
    Degenerate all-zero sensitivities with t > 0 return 0.
    """
    c = np.asarray(c_list, dtype=float)
    if np.any(c < 0):
        raise BoundDomainError("sensitivities must be >= 0")
    if not t >= 0:  # NaN fails every comparison, so this fails on it
        raise BoundDomainError(f"threshold t must be >= 0, got {t!r}")
    if alpha_dob >= 1.0:
        raise BoundDomainError("Dobrushin coefficient must be < 1")
    denom = 2.0 * float(np.sum(c * c))
    if denom == 0.0:
        return 1.0 if t == 0.0 else 0.0
    return float(min(1.0, math.exp(-(1.0 - alpha_dob) * t * t / denom)))


def generalization_bound_single(beta1: float, beta2: float, loss_bound: float,
                                d_list, alpha_dob: float, delta: float) -> float:
    """Single-graph surplus: 2 dbar beta2 + tail term.

    surplus = 2 dbar beta2
            + sqrt(2 sum_i ((2 - 2 d_i) beta1 + d_i (beta2 + B_L))^2)
            * sqrt(log(1/delta) / (1 - alpha))
    """
    if not 0.0 <= alpha_dob < 1.0:
        raise BoundDomainError(f"Dobrushin coefficient must be in [0, 1), got {alpha_dob}")
    _check_delta(delta)
    if beta1 > beta2:
        raise BoundDomainError("need beta1 <= beta2")
    d = np.asarray(d_list, dtype=float)
    d_bar = float(d.sum())
    sens = (2.0 - 2.0 * d) * beta1 + d * (beta2 + loss_bound)
    tail = math.sqrt(2.0 * float(np.sum(sens**2))) * math.sqrt(
        math.log(1.0 / delta) / (1.0 - alpha_dob)
    )
    return 2.0 * d_bar * beta2 + tail


def generalization_bound_mgraph(mu: float, loss_bound: float, d_list, m: int,
                                alpha_dob: float, delta: float) -> float:
    """m-graph surplus: N mu + sqrt(2m sum_i ((2 - d_i/m) mu + d_i B_L/m)^2) * tail."""
    if m < 1:
        raise BoundDomainError("m must be >= 1")
    if not 0.0 <= alpha_dob < 1.0:
        raise BoundDomainError(f"Dobrushin coefficient must be in [0, 1), got {alpha_dob}")
    _check_delta(delta)
    d = np.asarray(d_list, dtype=float)
    n = d.size
    sens = (2.0 - d / m) * mu + d * loss_bound / m
    tail = math.sqrt(2.0 * m * float(np.sum(sens**2))) * math.sqrt(
        math.log(1.0 / delta) / (1.0 - alpha_dob)
    )
    return n * mu + tail


def sgd_generalization_bound(p: SgdBoundParams, delta: float) -> float | None:
    """High-probability generalization surplus for the active regime.

    surplus = [(2 - 1/N) sqrt(2N log(2/delta)) + 2] * sup_i envelope_i
            + (B_L / N) sqrt(2N log(2/delta))
    with the regime's per-vertex stability envelope inside the sup. Returns
    None when a validity condition fails or the loose second moment is
    negative.
    """
    _check_delta(delta)
    t = bound_terms(p)
    if not t.applicable or np.any(t.loose < 0.0):
        return None
    cert = p.certificate
    n = p.n_vertices
    prefactor = (2.0 - 1.0 / n) * math.sqrt(2.0 * n * math.log(2.0 / delta)) + 2.0
    tail = cert.loss_bound / n * math.sqrt(2.0 * n * math.log(2.0 / delta))
    if p.regime == STRONGLY_CONVEX:
        lam, gamma = cert.smoothness, cert.strong_convexity
        env = t.expected + math.sqrt(1.0 / (4.0 * delta)) * (lam - gamma) * (4.0 / delta * t.loose)
    else:
        env = t.expected * (1.0 + math.sqrt(1.0 / delta)) + np.sqrt(4.0 / delta * t.loose)
    return prefactor * _sup(env) + tail


# ---------------------------------------------------------------------------
# Sparse-selection confidence


class SrmFloorError(BoundDomainError):
    """epsilon below the guarantee floor; carries the floor value."""

    def __init__(self, floor: float):
        super().__init__(f"epsilon must be >= the guarantee floor {floor}")
        self.floor = floor


def srm_epsilon_floor(beta2: float, lambda_slack: float, d_max: int) -> float:
    """sup over the degree grid of 2 (2 - lambda) d beta2."""
    return max(2.0 * (2.0 - lambda_slack) * d * beta2 for d in range(1, d_max + 1))


def srm_confidence(beta1: float, beta2: float, loss_bound: float, lambda_slack: float,
                   d_max: int, n_vertices: int, epsilon: float) -> float:
    """Failure probability of the sparse-selection oracle inequality.

    2 sum_{d=1}^{d_max} exp( -(eps/2 + (lambda - 2) d beta2)^2
                             / (2N ((2 - 2d) beta1 + d (beta2 + B_L))^2) ),
    clipped to [0, 1]. Degrees run over the integer grid 1..d_max; epsilon
    below the floor sup_d 2(2 - lambda) d beta2 is rejected.
    """
    if d_max < 1:
        raise BoundDomainError("d_max must be >= 1")
    floor = srm_epsilon_floor(beta2, lambda_slack, d_max)
    if epsilon < floor:
        raise SrmFloorError(floor)
    total = 0.0
    for d in range(1, d_max + 1):
        num = (epsilon / 2.0 + (lambda_slack - 2.0) * d * beta2) ** 2
        den = 2.0 * n_vertices * ((2.0 - 2.0 * d) * beta1 + d * (beta2 + loss_bound)) ** 2
        total += 0.0 if den == 0.0 else math.exp(-num / den)
    return float(min(1.0, 2.0 * total))


# ---------------------------------------------------------------------------
# Report assembly


def bound_report(p: SgdBoundParams, delta: float) -> dict:
    """JSON report of every bound with validity conditions.

    Failed conditions mark dependent bounds as null (not-applicable) rather
    than numeric. The non-convex regime has no condition: its growth
    exceeds 1 at every step size, so at a large enough T a number leaves
    float range, and a report that would hold it raises BoundDomainError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        t = bound_terms(p)
        env = t.expected if t.applicable else None
        per_vertex = [{
            "vertex": i,
            "growth": g,
            "kick": k,
            "expected_beta2": None if env is None else float(env[i]),
            "variance_loose": float(t.loose[i]),
            "variance_exact": float(t.exact[i]),
        } for i, (g, k) in enumerate(zip(t.growth.tolist(), t.kick.tolist()))]
        report = {
            "regime": p.regime,
            "n_vertices": p.n_vertices,
            "steps": p.steps,
            "step_size": p.step_size,
            "delta": delta,
            "certificate": asdict(p.certificate),
            "conditions": t.conditions,
            "per_vertex": per_vertex,
            "expected_beta2": None if env is None else _sup(env),
            "variance_sum_loose": float(t.loose.sum()),
            "variance_sum_exact": float(t.exact.sum()),
            "highprob_beta2": highprob_stability_bound(p, delta),
            "generalization_surplus": sgd_generalization_bound(p, delta),
        }
    try:
        json.dumps(report, allow_nan=False)
    except ValueError:
        raise BoundDomainError(
            f"the bound report leaves float range at sgd.steps = {p.steps} "
            f"(sgd.step_size = {p.step_size}); lower sgd.steps or sgd.step_size") from None
    return report
