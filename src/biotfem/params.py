"""Physical-to-reduced parameter maps for the three-field consolidation system.

The solver works with the rescaled system in which the shear modulus has been
eliminated and the remaining coefficients are the dimensionless triple
(lambda, rp_inv, alpha_p) together with the derived weights

    rho   = min(lambda, rp_inv),
    gamma = max(1/rho, alpha_p),

which drive every norm and preconditioner block downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


class RangeViolation(ValueError):
    """A parameter lies outside the admissible range."""


class DimensionMismatch(ValueError):
    """Fields passed to an operation do not live on the same mesh/space."""


def _require_finite(params):
    for f in fields(params):
        val = getattr(params, f.name)
        if not np.isfinite(val):
            raise RangeViolation(f"{f.name} must be finite, got {val}")


@dataclass(frozen=True)
class PhysicalParams:
    """Material and time-step data of the physical model.

    mu, lam : Lame parameters (Pa); alpha : Biot-Willis constant;
    K : hydraulic conductivity; tau : time-step length; c_pp : storage
    coefficient.
    """

    mu: float
    lam: float
    alpha: float
    K: float
    tau: float
    c_pp: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if not (self.mu > 0):
            raise RangeViolation(f"mu must be positive, got {self.mu}")
        if not (self.lam >= 0):
            raise RangeViolation(f"lambda must be nonnegative, got {self.lam}")
        if not (self.alpha > 0):
            raise RangeViolation(f"alpha must be positive, got {self.alpha}")
        if not (self.K > 0):
            raise RangeViolation(f"K must be positive, got {self.K}")
        if not (self.tau > 0):
            raise RangeViolation(f"tau must be positive, got {self.tau}")
        if not (self.c_pp >= 0):
            raise RangeViolation(f"c_pp must be nonnegative, got {self.c_pp}")


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless coefficient triple of the rescaled static system.

    rho = min(lam, rp_inv) and gamma = max(1/rho, alpha_p) are properties,
    computed from (lam, rp_inv, alpha_p) on every read.
    """

    lam: float
    rp_inv: float
    alpha_p: float

    def __post_init__(self):
        _require_finite(self)
        if not (self.lam >= 1):
            raise RangeViolation(
                f"reduced lambda must be >= 1, got {self.lam}"
            )
        # rp_inv = 0 is admissible on paper but makes gamma unbounded and the
        # flux norm block singular; smallest exercised value is 1e-8.
        if not (self.rp_inv > 0):
            raise RangeViolation(
                f"rp_inv must be strictly positive, got {self.rp_inv}"
            )
        if not (self.alpha_p >= 0):
            raise RangeViolation(
                f"alpha_p must be nonnegative, got {self.alpha_p}"
            )

    @property
    def rho(self) -> float:
        return min(self.lam, self.rp_inv)

    @property
    def gamma(self) -> float:
        return max(1.0 / self.rho, self.alpha_p)


@dataclass(frozen=True)
class FieldScaling:
    """Multiplicative factors mapping physical fields to reduced fields.

    Forward: u~ = u_scale*u, v~ = v_scale*v, p~ = p_scale*p, and likewise for
    the right-hand sides f~ = f_scale*f, g~ = g_scale*g.
    """

    u_scale: float
    v_scale: float
    p_scale: float
    f_scale: float
    g_scale: float

    def __post_init__(self):
        for name in ("u_scale", "v_scale", "p_scale", "f_scale", "g_scale"):
            if not (getattr(self, name) > 0):
                raise RangeViolation(f"{name} must be positive")

    def to_reduced(self, u=None, v=None, p=None, f=None, g=None):
        """Scale any subset of physical fields/arrays to reduced scale."""
        return self._scaled(np.multiply, u, v, p, f, g)

    def to_physical(self, u=None, v=None, p=None, f=None, g=None):
        """Inverse of :meth:`to_reduced`."""
        return self._scaled(np.divide, u, v, p, f, g)

    def _scaled(self, op, u, v, p, f, g):
        out = [op(np.asarray(field), fac) for field, fac in (
            (u, self.u_scale), (v, self.v_scale), (p, self.p_scale),
            (f, self.f_scale), (g, self.g_scale)) if field is not None]
        return out[0] if len(out) == 1 else tuple(out)


def reduce(phys: PhysicalParams) -> tuple[ReducedParams, FieldScaling]:
    """Map physical parameters to the reduced triple and field scaling.

    The map eliminates 2*mu from the system (all rows divided by 2*mu) and
    then substitutes u~ = c*u, v~ = t*v, p~ = c^2*p with c = alpha/(2*mu) and
    t = tau/(2*mu), which yields

        lambda_red = lambda / (2*mu),
        rp_inv     = alpha^2 / (2*mu * tau * K),
        alpha_p    = 2*mu * c_pp / alpha^2.

    Raises RangeViolation if lambda_red < 1; the stability theory assumes
    the reduced Lame parameter is at least one.
    """
    two_mu = 2.0 * phys.mu
    lam_red = phys.lam / two_mu
    if lam_red < 1.0:
        raise RangeViolation(
            f"reduced lambda = lambda/(2 mu) = {lam_red} < 1; the scaled "
            "system requires lambda >= 2 mu"
        )
    c = phys.alpha / two_mu
    t = phys.tau / two_mu
    red = ReducedParams(
        lam=lam_red,
        rp_inv=c * c / (t * phys.K),
        alpha_p=(phys.c_pp / two_mu) / (c * c),
    )
    scaling = FieldScaling(
        u_scale=c,
        v_scale=t,
        p_scale=c * c,
        f_scale=c / two_mu,
        g_scale=1.0 / two_mu,
    )
    return red, scaling


def compose_timestep_rhs(g_means, u_prev, p_prev, phys: PhysicalParams,
                         uspace) -> np.ndarray:
    """Per-step pressure-equation source for the backward Euler sweep.

    Composes, at physical scale and cellwise (the pressure space is piecewise
    constant, so only cell means enter the discrete system),

        gk = -tau * g - alpha * div(u_prev) - c_pp * p_prev,

    and returns it rescaled to the reduced system (factor 1/(2*mu)).

    Parameters
    ----------
    g_means : per-cell means of the physical source at the new time level
    u_prev : physical displacement coefficients on `uspace`
    p_prev : physical per-cell pressure values
    phys : physical parameters (tau, alpha, c_pp are used)
    uspace : displacement FE space of u_prev (supplies cellwise divergence)
    """
    ncells = uspace.mesh.num_cells
    g_means = np.asarray(g_means, dtype=float)
    u_prev = np.asarray(u_prev, dtype=float)
    p_prev = np.asarray(p_prev, dtype=float)
    if g_means.shape != (ncells,):
        raise DimensionMismatch(
            f"g has {g_means.shape}, expected ({ncells},)")
    if p_prev.shape != (ncells,):
        raise DimensionMismatch(
            f"p_prev has {p_prev.shape}, expected ({ncells},)")
    if u_prev.shape != (uspace.ndof,):
        raise DimensionMismatch(
            f"u_prev has {u_prev.shape}, expected ({uspace.ndof},)")
    div_u = uspace.cell_divergence(u_prev)
    gk = -phys.tau * g_means - phys.alpha * div_u - phys.c_pp * p_prev
    _, scaling = reduce(phys)
    return scaling.g_scale * gk
