"""Closed-form evaluation of every theoretical stability/generalization bound.

All recursion solutions go through singularity-safe kernels:

    geometric_series(x, T)  = (x^T - 1)/(x - 1) = sum_{t<T} x^t
    double_geometric(x, T)  = (x^{2T} - x^T)/(x^2 - x) = x^{T-1} geom(x, T)

with first-order-corrected branches near the removable points so the closed
forms match direct loop iteration to 1e-9 relative even at |x - 1| ~ 1e-12.

Recursion constants for T-step fixed-step SGD over N vertices with field
sizes NN_i (d_i = NN_i / N), certificate constants (lam, gamma, L, zeta,
B_Z, B_L):

  strongly convex:
    PZ_i = d_i a lam (gamma/(lam+gamma) - a) + a^2 lam / N
           + (1 - a lam gamma/(lam+gamma))
    PY_i = a B_Z zeta (NN_i - 1)/N + 2 a L / N
    valid when a^4 lam^2 + 2 a lam gamma/(lam+gamma) <= 1
  non-convex:
    PM   = (N-1)/N * a lam               (flagged divergent when PM > 1)
    PY_i as above

Each depends on vertex i only through NN_i: ``recursion_constants``
returns them as (N,) arrays over the field sizes, every bound reads them
there, and the scalar kernels are mapped over them one vertex at a time.

Expected stability:  E[beta_{2,i}] <= L * geom(PZ_i or PM, T) * PY_i.

Second-moment recursion v_t = PZ^2 v_{t-1} + 2 PY PZ m_{t-1} + PY^2 with
m_t the first-moment solution. Its exact solution is the squared first
moment, (PY geom(PZ, T))^2. The looser sum form

    2 PY^2 (PZ^{2T} - PZ^T)/(PZ^2 - PZ) + PY^2 (1 - PZ^T)/(1 - PZ)^2

is what the high-probability expressions consume; both are reported. The
second ratio of the loose form has no finite limit at PZ = 1, so within
the branch width it falls back to the exact-solution limit (geom^2 = T^2);
this is recorded, not hidden. For growth > 1 at small T the loose form is
negative; the high-probability expressions that take its square root are
then not-applicable (None).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .objectives import NON_CONVEX, STRONGLY_CONVEX, ConstantsCertificate

BRANCH_WIDTH = 1e-7


class BoundDomainError(ValueError):
    """Inputs outside the bound's stated domain (e.g. Dobrushin alpha >= 1)."""


# ---------------------------------------------------------------------------
# Singularity-safe kernels


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
    return (x**steps - 1.0) / eps


def double_geometric(x: float, steps: int) -> float:
    """(x^{2T} - x^T)/(x^2 - x) via the identity x^{T-1} * geom(x, T)."""
    if steps == 0:
        return 0.0
    return x ** (steps - 1) * geometric_series(x, steps)


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
        if self.step_size <= 0:
            raise ValueError("step size must be > 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        sizes = np.asarray(self.field_sizes, dtype=int)
        if sizes.shape != (self.n_vertices,):
            raise ValueError("field_sizes must have length n_vertices")
        if np.any(sizes < 1) or np.any(sizes > self.n_vertices):
            raise ValueError("field sizes must lie in [1, N]")
        object.__setattr__(self, "field_sizes", sizes)

    @property
    def d(self) -> np.ndarray:
        return self.field_sizes / float(self.n_vertices)


def step_condition(a: float, lam: float, gamma: float) -> float:
    """a^4 lam^2 + 2 a lam gamma / (lam + gamma), at most 1 in the strongly
    convex domain; the per-step envelopes pick their hit-case branch by it."""
    return a**4 * lam**2 + 2.0 * a * lam * gamma / (lam + gamma)


def step_condition_ok(p: SgdBoundParams) -> bool:
    cert = p.certificate
    return step_condition(p.step_size, cert.smoothness, cert.strong_convexity) <= 1.0


# ---------------------------------------------------------------------------
# Recursion constants


def recursion_constants(p: SgdBoundParams):
    """(growth, kick): the active regime's per-vertex constants as (N,) arrays.

    growth is PZ_i (strongly convex) or PM at every vertex (non-convex);
    kick is PY_i. Both depend on vertex i only through NN_i.
    """
    cert = p.certificate
    a = p.step_size
    n = p.n_vertices
    sizes = p.field_sizes
    kick = a * cert.sample_diameter * cert.gradient_data_lipschitz * (sizes - 1) / n \
        + 2.0 * a * cert.lipschitz / n
    if p.regime == STRONGLY_CONVEX:
        lam, gamma = cert.smoothness, cert.strong_convexity
        growth = sizes / n * a * lam * (gamma / (lam + gamma) - a) + a**2 * lam / n + (
            1.0 - a * lam * gamma / (lam + gamma)
        )
    else:
        growth = np.full(n, (n - 1) / n * a * cert.smoothness)
    return growth, kick


def _geometric(growth: np.ndarray, steps: int) -> np.ndarray:
    """geometric_series at each growth constant, one scalar call per vertex."""
    return np.array([geometric_series(g, steps) for g in growth.tolist()])


def _sup(values: np.ndarray) -> float:
    """max(0, v_0, v_1, ...) taken left to right, as a scalar loop from 0."""
    return max([0.0, *values.tolist()])


# ---------------------------------------------------------------------------
# Expected stability


def _expected_envelope(p: SgdBoundParams) -> np.ndarray | None:
    """(N,) L * geom(growth_i, T) * kick_i; None when the step condition fails."""
    if p.regime == STRONGLY_CONVEX and not step_condition_ok(p):
        return None
    growth, kick = recursion_constants(p)
    return p.certificate.lipschitz * _geometric(growth, p.steps) * kick


def expected_stability_bound(p: SgdBoundParams, i: int | None = None) -> float | None:
    """L * geom(growth_i, T) * kick_i; sup over i when i is None.

    Returns None (not-applicable) when the strongly convex step-size
    condition fails.
    """
    env = _expected_envelope(p)
    if env is None:
        return None
    return _sup(env) if i is None else float(env[i])


# ---------------------------------------------------------------------------
# Second-moment bounds


@dataclass(frozen=True)
class VarianceBound:
    per_vertex_loose: np.ndarray  # loose sum form per vertex
    per_vertex_exact: np.ndarray  # exact recursion solution (squared first moment)
    total_loose: float
    total_exact: float


def _loose_second_ratio(z: float, steps: int) -> float:
    """(1 - z^T)/(1 - z)^2; no finite limit at z = 1, falls back to geom^2."""
    if abs(1.0 - z) < 1e-9:
        return geometric_series(z, steps) ** 2
    return (1.0 - z**steps) / (1.0 - z) ** 2


def variance_term_loose(growth: float, kick: float, steps: int) -> float:
    return 2.0 * kick**2 * double_geometric(growth, steps) \
        + kick**2 * _loose_second_ratio(growth, steps)


def variance_term_exact(growth: float, kick: float, steps: int) -> float:
    return (kick * geometric_series(growth, steps)) ** 2


def variance_bound(p: SgdBoundParams) -> VarianceBound:
    growth, kick = recursion_constants(p)
    pairs = list(zip(growth.tolist(), kick.tolist()))
    loose = np.array([variance_term_loose(g, k, p.steps) for g, k in pairs])
    exact = np.array([variance_term_exact(g, k, p.steps) for g, k in pairs])
    return VarianceBound(
        per_vertex_loose=loose,
        per_vertex_exact=exact,
        total_loose=float(loose.sum()),
        total_exact=float(exact.sum()),
    )


# ---------------------------------------------------------------------------
# High-probability stability bounds


def highprob_stability_bound(p: SgdBoundParams, delta: float) -> float | None:
    """Non-asymptotic high-probability stability bound for the active regime.

    Chebyshev mass enters under 1/delta and the sub-Gaussian tail under
    log(2/delta) (the union-bound split). Returns None when the
    strongly-convex step-size condition fails or the loose second moment
    is negative (growth > 1 at small T).
    """
    if not 0.0 < delta < 1.0:
        raise BoundDomainError(f"delta must be in (0, 1), got {delta}")
    if p.regime == STRONGLY_CONVEX and not step_condition_ok(p):
        return None
    var = variance_bound(p)
    if np.any(var.per_vertex_loose < 0.0):
        return None
    cert = p.certificate
    lip = cert.lipschitz
    log_term = math.log(2.0 / delta)
    if p.regime == STRONGLY_CONVEX:
        lam, gamma = cert.smoothness, cert.strong_convexity
        growth, kick = recursion_constants(p)
        sup_env = _sup(_geometric(growth, p.steps) * kick)
        gap = (lam - gamma) * math.sqrt(log_term / 8.0)
        chebyshev = math.sqrt(var.total_loose / delta)
        return (lip + gap) * sup_env + gap * (sup_env + chebyshev) ** 2
    return expected_stability_bound(p) * (1.0 + math.sqrt(log_term / 2.0)) \
        + lip * math.sqrt(log_term / delta * var.total_loose)


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
    if t < 0:
        raise BoundDomainError("threshold t must be >= 0")
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
    if not 0.0 < delta < 1.0:
        raise BoundDomainError(f"delta must be in (0, 1), got {delta}")
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
    if not 0.0 < delta < 1.0:
        raise BoundDomainError(f"delta must be in (0, 1), got {delta}")
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
    None when the strongly-convex step-size condition fails or the loose
    second moment is negative.
    """
    if not 0.0 < delta < 1.0:
        raise BoundDomainError(f"delta must be in (0, 1), got {delta}")
    expected = _expected_envelope(p)
    var = variance_bound(p).per_vertex_loose
    if expected is None or np.any(var < 0.0):
        return None
    cert = p.certificate
    n = p.n_vertices
    prefactor = (2.0 - 1.0 / n) * math.sqrt(2.0 * n * math.log(2.0 / delta)) + 2.0
    tail = cert.loss_bound / n * math.sqrt(2.0 * n * math.log(2.0 / delta))
    if p.regime == STRONGLY_CONVEX:
        lam, gamma = cert.smoothness, cert.strong_convexity
        env = expected + math.sqrt(1.0 / (4.0 * delta)) * (lam - gamma) * (4.0 / delta * var)
    else:
        env = expected * (1.0 + math.sqrt(1.0 / delta)) + np.sqrt(4.0 / delta * var)
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
    """JSON-serializable report of every bound with validity conditions.

    Failed conditions mark dependent bounds as null (not-applicable) rather
    than numeric; a divergent non-convex growth constant (PM > 1) stays
    numeric but is flagged.
    """
    cert = p.certificate
    growth, kick = recursion_constants(p)
    conditions = {}
    if p.regime == STRONGLY_CONVEX:
        value = step_condition(p.step_size, cert.smoothness, cert.strong_convexity)
        conditions["step-size: a^4 lam^2 + 2 a lam gamma/(lam+gamma) <= 1"] = {
            "value": value,
            "ok": bool(value <= 1.0),
        }
        rho_ok = p.step_size <= 2.0 / (cert.smoothness + cert.strong_convexity)
        conditions["contraction: a <= 2/(lam+gamma)"] = {
            "value": p.step_size,
            "ok": bool(rho_ok),
        }
    else:
        pm = float(growth[0])  # the same PM at every vertex
        conditions["convergence: PM <= 1"] = {"value": pm, "ok": bool(pm <= 1.0)}

    env = _expected_envelope(p)
    var = variance_bound(p)
    per_vertex = [{
        "vertex": i,
        "growth": g,
        "kick": k,
        "expected_beta2": None if env is None else float(env[i]),
        "variance_loose": float(var.per_vertex_loose[i]),
        "variance_exact": float(var.per_vertex_exact[i]),
    } for i, (g, k) in enumerate(zip(growth.tolist(), kick.tolist()))]

    return {
        "regime": p.regime,
        "n_vertices": p.n_vertices,
        "steps": p.steps,
        "step_size": p.step_size,
        "delta": delta,
        "certificate": asdict(cert),
        "conditions": conditions,
        "per_vertex": per_vertex,
        "expected_beta2": expected_stability_bound(p),
        "variance_sum_loose": var.total_loose,
        "variance_sum_exact": var.total_exact,
        "highprob_beta2": highprob_stability_bound(p, delta),
        "generalization_surplus": sgd_generalization_bound(p, delta),
    }
