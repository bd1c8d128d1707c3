"""Sturmian-expansion evaluation of the radial Coulomb Green functions.

Two kernels are evaluated in floating point:

* the resolvent G_l(E; r, r') at a negative non-eigenvalue energy, a plain
  sum of separable Sturmian terms weighted by 1/(mu_j - 1);
* the reduced (pole-subtracted) kernel attached to a bound level, whose
  extra pieces are a 1/2 diagonal term and one r d/dr term acting on the
  resonant Sturmian on each argument.

All Sturmians of a channel share one exponential scale, so every
verification integral factors as (polynomial) x (fixed weight x^a e^{-x}),
and generalized Gauss-Laguerre quadrature with the weight matched to the
product of scales is exact up to degree 2*nodes - 1.  The "stripped"
internal evaluators return the smooth factor with the envelope
x^(l+1/2) e^{-x/2} removed, which is what keeps large-node quadrature free
of overflow.

Every polynomial value comes from one place, the three-term Laguerre
recurrence of `_laguerre_table`: the Sturmian rows, the bound factor (the
resonant row) and its r d/dr image (a combination of two adjacent rows).
Expanding the alternating monomial coefficients instead cancels
catastrophically at large n_r (eps4 lost 1e-9 relative at n = 18 and 2e-5
at n = 30).  Both kernels are separable, so each integral contracts the
factors against its weight vector first, at O(truncation x nodes) cost;
no nodes-by-nodes kernel is formed.  With the default truncation and 200
nodes the eps4 double integral is tested to 1e-11 relative for n <= 60.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import roots_genlaguerre

from .coulomb import QuantumState, energy0, sturmian_mu_squared
from .exactmath import rational_sqrt

__all__ = [
    "GreenEvalConfig",
    "PoleError",
    "QuadratureError",
    "green_eval",
    "green_reduced_eval",
    "gauss_laguerre",
    "reduced_double_integral",
    "reduced_orthogonality_defect",
    "projection_defect",
]

DEFAULT_NODES = 200


class PoleError(ValueError):
    """Raised when the requested energy sits on a bound level of the channel."""

    def __init__(self, n_r: int):
        self.n_r = n_r
        super().__init__(
            f"energy is an eigenvalue of the channel (resonant n_r = {n_r}); "
            "use the reduced kernel for level-anchored work"
        )


class QuadratureError(ValueError):
    """Raised when the Gauss-Laguerre rule of a weight has non-finite nodes or weights.

    `scipy.special.roots_genlaguerre` overflows at large node counts (from
    somewhere between 360 and 380 nodes for alpha <= 25) and returns inf or
    NaN instead of failing, which would otherwise surface as a NaN integral.
    """

    def __init__(self, alpha: int, nodes: int):
        self.alpha = alpha
        self.nodes = nodes
        super().__init__(
            f"Gauss-Laguerre rule for weight x^{alpha} e^-x with {nodes} nodes "
            "has non-finite nodes or weights; use fewer quadrature nodes"
        )


@dataclass(frozen=True)
class GreenEvalConfig:
    """Evaluation parameters for one channel and one anchor.

    Exactly one of ``energy`` (resolvent mode) and ``level`` (reduced-kernel
    mode) is set.  ``truncation`` counts Sturmian terms; the reduced kernel
    needs at least n_r + 4 of them so the whole coupling band of the
    resonant index is present.
    """

    l: int
    Z: Fraction = Fraction(1)
    truncation: int = 30
    quad_nodes: int = DEFAULT_NODES
    energy: Fraction | None = None
    level: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "Z", Fraction(self.Z))
        if self.l < 0:
            raise ValueError("l must be non-negative")
        if self.Z <= 0:
            raise ValueError("Z must be positive")
        if self.truncation < 1:
            raise ValueError("truncation must be positive")
        if self.quad_nodes < 2:
            raise ValueError("need at least two quadrature nodes")
        if (self.energy is None) == (self.level is None):
            raise ValueError("set exactly one of energy (resolvent) or level (reduced)")
        if self.energy is not None:
            object.__setattr__(self, "energy", Fraction(self.energy))
            if self.energy >= 0:
                raise ValueError("resolvent anchor energy must be negative")
        if self.level is not None:
            if self.level < self.l + 1:
                raise ValueError("level must satisfy n >= l+1")
            if self.truncation < self.resonant_n_r + 4:
                raise ValueError("truncation must be at least n_r + 4 for the reduced kernel")

    @classmethod
    def at_energy(
        cls,
        energy: Fraction,
        l: int,
        Z: Fraction = Fraction(1),
        truncation: int = 30,
        quad_nodes: int = DEFAULT_NODES,
    ) -> "GreenEvalConfig":
        return cls(l=l, Z=Z, truncation=truncation, quad_nodes=quad_nodes, energy=Fraction(energy))

    @classmethod
    def for_level(
        cls,
        n: int,
        l: int,
        Z: Fraction = Fraction(1),
        truncation: int | None = None,
        quad_nodes: int = DEFAULT_NODES,
    ) -> "GreenEvalConfig":
        n_r = n - l - 1
        if truncation is None:
            truncation = n_r + 12
        return cls(l=l, Z=Z, truncation=truncation, quad_nodes=quad_nodes, level=n)

    @property
    def resonant_n_r(self) -> int:
        if self.level is None:
            raise ValueError("resonant index exists only in reduced-kernel mode")
        return self.level - self.l - 1

    @property
    def anchor_energy(self) -> Fraction:
        if self.energy is not None:
            return self.energy
        return energy0(QuantumState(self.level, self.l, self.l), self.Z)

    @property
    def scale_squared(self) -> Fraction:
        return -2 * self.anchor_energy

    @cached_property
    def scale_float(self) -> float:
        root = rational_sqrt(self.scale_squared)
        return float(root) if root is not None else math.sqrt(float(self.scale_squared))


@lru_cache(maxsize=None)
def gauss_laguerre(alpha: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the weight x^alpha e^{-x} on (0, inf).

    Raises `QuadratureError` when the rule is not finite; being cached, the
    check runs once per (alpha, nodes).  The overflow that makes a rule
    non-finite is silenced here, so the typed error is all a caller sees.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x, w = roots_genlaguerre(nodes, alpha)
    if not (np.isfinite(x).all() and np.isfinite(w).all()):
        raise QuadratureError(alpha, nodes)
    return x, w


def _laguerre_table(j_max: int, alpha: int, x: np.ndarray) -> np.ndarray:
    """L_j^{(alpha)}(x) for j = 0..j_max by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    out = np.empty((j_max + 1,) + x.shape)
    out[0] = 1.0
    if j_max >= 1:
        out[1] = alpha + 1.0 - x
    for j in range(1, j_max):
        out[j + 1] = ((2 * j + alpha + 1 - x) * out[j] - (j + alpha) * out[j - 1]) / (j + 1)
    return out


def _norm_consts(cfg: GreenEvalConfig) -> np.ndarray:
    """sqrt(j! / (Z (j+2l)!)) for j below the truncation, built recursively."""
    two_l = 2 * cfg.l
    c = np.empty(cfg.truncation)
    c[0] = math.sqrt(1.0 / (float(cfg.Z) * math.factorial(two_l)))
    for j in range(cfg.truncation - 1):
        c[j + 1] = c[j] * math.sqrt((j + 1) / (j + 1 + two_l))
    return c


def _pole_scan(cfg: GreenEvalConfig) -> None:
    for j in range(cfg.truncation):
        if sturmian_mu_squared(j, cfg.l, cfg.energy, cfg.Z) == 1:
            raise PoleError(j)


def _mu_floats(cfg: GreenEvalConfig) -> np.ndarray:
    k_over_z = cfg.scale_float / float(cfg.Z)
    return (np.arange(cfg.truncation) + cfg.l + 0.5) * k_over_z


def _envelope(cfg: GreenEvalConfig, r: float) -> tuple[float, float]:
    """Return (x, x^(l+1/2) e^{-x/2}) at radius r."""
    x = 2.0 * cfg.scale_float * r
    return x, x ** (cfg.l + 0.5) * math.exp(-0.5 * x)


def green_eval(cfg: GreenEvalConfig, r: float, rp: float) -> float:
    """Resolvent kernel G_l(E; r, r') as a truncated Sturmian sum."""
    if cfg.energy is None:
        raise ValueError("green_eval needs an energy-anchored configuration")
    if r <= 0 or rp <= 0:
        raise ValueError("radii must be positive")
    _pole_scan(cfg)
    x, env = _envelope(cfg, r)
    xp, envp = _envelope(cfg, rp)
    table = _laguerre_table(cfg.truncation - 1, 2 * cfg.l, np.array([x, xp]))
    c = _norm_consts(cfg)
    mu = _mu_floats(cfg)
    terms = c * c * table[:, 0] * table[:, 1] / (mu - 1.0)
    return env * envp * float(np.sum(terms))


def _reduced_factors(cfg: GreenEvalConfig, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Separable factors of the stripped reduced kernel on a grid.

    Returns (rows, s, d): rows[j] = c_j L_j(x) for j below the truncation,
    the resonant stripped Sturmian s = rows[n_r], and its stripped r d/dr
    image d = c_{n_r} ((l + 1/2) q - (x/2) q + x q') with q = L_{n_r}.
    By x L_k' = k L_k - (k + alpha) L_{k-1} that image is
    c_{n_r} ((l + 1/2 + n_r - x/2) L_{n_r} - (n_r + 2l) L_{n_r - 1}), so every
    factor is a row of one recurrence table.
    """
    n_r = cfg.resonant_n_r
    table = _laguerre_table(cfg.truncation - 1, 2 * cfg.l, x)
    c = _norm_consts(cfg)
    rows = c[:, None] * table
    d = (cfg.l + 0.5 + n_r - 0.5 * x) * table[n_r]
    if n_r:
        d -= (n_r + 2 * cfg.l) * table[n_r - 1]
    return rows, rows[n_r], c[n_r] * d


def _reduced_form(cfg: GreenEvalConfig, a: tuple, b: tuple) -> float:
    """The stripped reduced kernel contracted between two projected factors.

    ``a`` and ``b`` are (v, s, d) triples: the factors of `_reduced_factors`
    contracted against one vector each, or taken at one grid point.  The
    kernel N sum' c_j^2 L_j(x) L_j(x') / (j - n_r) + (1/2) s(x) s(x')
    + d(x) s(x') + s(x) d(x'), with N = n - 1/2, is separable, so no
    grid-by-grid matrix is formed.
    """
    n_r = cfg.resonant_n_r
    j = np.arange(cfg.truncation)
    coupling = np.zeros(cfg.truncation)
    off = j != n_r
    coupling[off] = (cfg.level - 0.5) / (j[off] - n_r)
    (va, sa, da), (vb, sb, db) = a, b
    return float(coupling @ (va * vb) + 0.5 * sa * sb + da * sb + sa * db)


def green_reduced_eval(cfg: GreenEvalConfig, r: float, rp: float) -> float:
    """Reduced kernel of the anchored level at a pair of radii."""
    if cfg.level is None:
        raise ValueError("green_reduced_eval needs a level-anchored configuration")
    if r <= 0 or rp <= 0:
        raise ValueError("radii must be positive")
    x, env = _envelope(cfg, r)
    xp, envp = _envelope(cfg, rp)
    rows, s, d = _reduced_factors(cfg, np.array([x, xp]))
    return env * envp * _reduced_form(cfg, (rows[:, 0], s[0], d[0]), (rows[:, 1], s[1], d[1]))


def reduced_double_integral(cfg: GreenEvalConfig) -> float:
    """Double integral of r^2 P0 (reduced kernel) r'^2 P0 over both radii.

    Under x = 2kr the bound factor is P0 = k s(x) x^(l+1/2) e^(-x/2), with
    s the resonant stripped Sturmian, so the integrand's smooth part is
    polynomial and the tensor Gauss-Laguerre rule with weight
    x^(2l+3) e^{-x} on each axis is exact.  Both axes project onto the
    same vector w s.  Multiplying by -(Z^6/64) reproduces the exact quartic
    coefficient; tests pin that.
    """
    if cfg.level is None:
        raise ValueError("reduced_double_integral needs a level-anchored configuration")
    x, w = gauss_laguerre(2 * cfg.l + 3, cfg.quad_nodes)
    rows, s, d = _reduced_factors(cfg, x)
    u = w * s
    proj = (rows @ u, s @ u, d @ u)
    k = cfg.scale_float
    return k * k * (2.0 * k) ** -6 * _reduced_form(cfg, proj, proj)


def reduced_orthogonality_defect(cfg: GreenEvalConfig, rp: float) -> float:
    """integral dr P0(r) G~(r, r') at fixed r'; exactly zero in the limit.

    The bound factor is orthogonal to the reduced kernel in plain measure;
    with the quadrature weight x^(2l+1) e^{-x} the smooth part is polynomial
    so the residual is pure truncation plus rounding.
    """
    if cfg.level is None:
        raise ValueError("reduced_orthogonality_defect needs a level-anchored configuration")
    if rp <= 0:
        raise ValueError("r' must be positive")
    x, w = gauss_laguerre(2 * cfg.l + 1, cfg.quad_nodes)
    xp, envp = _envelope(cfg, rp)
    # one table for the nodes and r', which sits in the last column
    rows, s, d = _reduced_factors(cfg, np.append(x, xp))
    u = w * s[:-1]
    proj = (rows[:, :-1] @ u, s[:-1] @ u, d[:-1] @ u)
    # P0 = k s env and dr = dx / (2k): the prefactor is 1/2
    return 0.5 * envp * _reduced_form(cfg, proj, (rows[:, -1], s[-1], d[-1]))


def projection_defect(cfg: GreenEvalConfig, m: int, r: float) -> float:
    """Defect of the weighted projection identity of the resolvent.

    integral dr' (Z/r') S_m(r') G(E; r, r') must equal S_m(r)/(mu_m - 1);
    the returned value is the difference, evaluated with the weight
    x^(2l) e^{-x} matched to the product of scales.
    """
    if cfg.energy is None:
        raise ValueError("projection_defect needs an energy-anchored configuration")
    if not 0 <= m < cfg.truncation:
        raise ValueError("projected index must sit inside the truncated basis")
    _pole_scan(cfg)
    x, w = gauss_laguerre(2 * cfg.l, cfg.quad_nodes)
    c = _norm_consts(cfg)
    mu = _mu_floats(cfg)
    table = _laguerre_table(cfg.truncation - 1, 2 * cfg.l, x)
    # integral (Z/r') S_m S_j dr' = Z c_m c_j integral x^(2l) e^{-x} L_m L_j dx
    weighted = float(cfg.Z) * c[m] * c * (table[m][None, :] * table @ w)
    xr, env = _envelope(cfg, r)
    basis_r = c * _laguerre_table(cfg.truncation - 1, 2 * cfg.l, np.array([xr]))[:, 0] * env
    projected = float(np.sum(weighted / (mu - 1.0) * basis_r))
    expected = float(basis_r[m] / (mu[m] - 1.0))
    return projected - expected
