"""Sturmian-expansion evaluation of the reduced radial Coulomb Green function.

The kernel evaluated, in floating point, is the reduced (pole-subtracted)
Green function attached to a bound level: the off-resonant Sturmian sum,
plus a 1/2 diagonal term and one r d/dr term acting on the resonant
Sturmian on each argument.  Its double integral against r^2 P0 is the
paper's route to the quartic coefficient.

All Sturmians of a channel share one exponential scale, so every
verification integral factors as (polynomial) x (fixed weight x^a e^{-x}),
and generalized Gauss-Laguerre quadrature with the weight matched to the
product of scales is exact up to degree 2*nodes - 1.  The "stripped"
internal evaluators return the smooth factor with the envelope
x^(l+1/2) e^{-x/2} removed, which is what keeps large-node quadrature free
of overflow.

The rules are built here (`_gauss_laguerre`, Golub-Welsch with one Newton
step), so the module needs numpy alone.  Each channel (l, n_r) uses one
rule, weight x^(2l+1) e^{-x}: the x^2 of r^2 P0 is a polynomial factor, so
the double integral and the orthogonality check share one node grid,
projecting onto w x^2 s and w s respectively.

The charge enters a config only through k = Z/N, which sets x = 2kr, and
through the Sturmian norms c_j, proportional to Z^(-1/2).  So what depends
on the channel alone is computed once, at Z = 1 whichever config asks
first, and kept in module-level caches keyed by (l, n_r); each public value
applies its own power of Z.  The double integral is k^2 (2k)^-6 Z^-2 F,
with F one cached float; the orthogonality defect scales as Z^(-3/2) and a
point value as Z^-1.  The point side of a channel (`_channel`: the Z = 1
norms and the coupling vector) needs no rule.  The quadrature side
(`_channel_quadratures`: F and the node side of the orthogonality check) is
built by the quadratures alone, after their range check, from the rule and
the node table, and keeps O(truncation) floats: the table is dropped once
contracted.  Cached arrays are read-only.

Importing the module pins OpenBLAS to one thread, as importing `oracle`
does (`zeeman2d._single_threaded_blas`: only while numpy is not yet loaded
and no thread count is set).

Every kernel polynomial value comes from one place, the three-term
Laguerre recurrence of `_laguerre_table`: the Sturmian rows, the bound
factor (the resonant row) and its r d/dr image (a combination of two
adjacent rows); expanding the alternating monomial coefficients instead
cancels catastrophically at large n_r.  The one exception is the Newton
polish of the rule, which runs the difference form of the recurrence
(`_laguerre_pair`), because the three-term form cancels near x -> 0.
The kernel is separable, so each integral contracts the factors against
its weight vector first, at O(truncation x nodes) cost; no nodes-by-nodes
kernel is formed.

A config is the level (l, n, Z) and nothing else: the kernel keeps n_r + 12
Sturmian terms (n_r = n - l - 1; the coupling band of the resonant index
needs n_r + 4) and its rule has 2 n_r + 16 nodes.  Both integrands have
degree <= 2 n_r + 13, so n_r + 7 nodes would be exact; the larger rule
keeps rounding below the 1e-11 tolerance.  Both quadratures accept
n_r <= `MAX_QUADRATURE_N_R` = 92 and l <= 84, so a rule has at most 200
nodes and weight x^169 e^{-x} at most.  Over that range, at Z in {1, 3/2},
eps4 holds to 1e-11 relative and the orthogonality defect stays below 1e-8
(at r' = 0.4, 1.1, 2.6 and (N^2/Z) {1/2, 1, 2}).  Past n_r = 92 both raise
`ValueError`, and at l = 85 `QuadratureError`, while point values run at
every level.

A single radius runs the same recurrence on plain Python floats, so point
values equal the matching column of a grid table bit for bit at a fraction
of the cost.  A non-finite radius raises `ValueError`; a radius whose
envelope underflows to 0 gives 0.0 without running the recurrence; a point
value that is not finite (rows of a high level overflowing at a far radius)
raises `ValueError`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

from . import _single_threaded_blas
from .coulomb import _check_charge, _check_level

_single_threaded_blas()  # before numpy loads, which is when OpenBLAS sizes its pool

import numpy as np  # noqa: E402

__all__ = [
    "GreenEvalConfig",
    "QuadratureError",
    "green_reduced_eval",
    "reduced_double_integral",
    "reduced_orthogonality_defect",
]

# (2l)! must be a finite double for the normalization constants: 170! is the
# last factorial below the float maximum.  The quadratures of the reduced
# kernel also need Gamma(2l+2) = (2l+1)! finite, so they run for l <= 84;
# at l = 85 only point values are available, and the quadratures raise
# `QuadratureError(171, nodes)`.
MAX_L = 85
# The largest n_r = n - l - 1 the quadratures accept, where they hold eps4 to
# 1e-11 (module docstring); their rules have at most 2 * 92 + 16 = 200 nodes.
MAX_QUADRATURE_N_R = 92


class QuadratureError(ValueError):
    """Raised when the Gauss-Laguerre rule of a weight has non-finite nodes or weights.

    Its weights sum to Gamma(alpha + 1), which overflows a float from
    alpha = 171 (l = 85 for the reduced kernel), and the Laguerre values of
    its Newton step overflow at large node counts (from somewhere between
    355 and 385 nodes for alpha <= 25); either would otherwise surface as
    an untyped `OverflowError` or a NaN integral.
    """

    def __init__(self, alpha: int, nodes: int):
        self.alpha = alpha
        self.nodes = nodes
        super().__init__(
            f"Gauss-Laguerre rule for weight x^{alpha} e^-x with {nodes} nodes "
            "has non-finite nodes or weights: Gamma(alpha + 1) or the Laguerre "
            "values of its Newton step overflow a float"
        )


class GreenEvalConfig(namedtuple("GreenEvalConfig", "l level Z")):
    """The reduced kernel of channel l anchored at the bound level n, charge Z.

    (level, l) and Z pass the level and charge checks of `coulomb`.  Like
    every record of the package it is an immutable named tuple, and
    `_replace` builds through the same checks.  It declares no
    ``__slots__``, so each instance has the ``__dict__`` in which
    `scale_float` is kept once computed.
    """

    def __new__(cls, l: int, level: int, Z: Fraction = Fraction(1)) -> "GreenEvalConfig":
        level, l = _check_level(level, l)
        if l > MAX_L:
            raise ValueError(f"l = {l} exceeds MAX_L = {MAX_L}: (2l)! overflows a float")
        return tuple.__new__(cls, (l, level, _check_charge(Z)))

    @classmethod
    def _make(cls, iterable) -> "GreenEvalConfig":
        return cls(*iterable)

    @classmethod
    def for_level(cls, n: int, l: int, Z: Fraction = Fraction(1)) -> "GreenEvalConfig":
        return cls(l=l, level=n, Z=Z)

    @property
    def resonant_n_r(self) -> int:
        return self.level - self.l - 1

    @property
    def truncation(self) -> int:
        """Sturmian terms kept: n_r + 12."""
        return self.resonant_n_r + 12

    @property
    def nodes(self) -> int:
        """Gauss-Laguerre nodes of the config's rule: 2 n_r + 16."""
        return 2 * self.resonant_n_r + 16

    @cached_property
    def scale_float(self) -> float:
        """k = Z/N, rational at every level, rounded once."""
        return float(self.Z / Fraction(2 * self.level - 1, 2))


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only, so no caller can change what a cache keeps for the next."""
    a.flags.writeable = False
    return a


def _gauss_laguerre(alpha: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for the weight x^alpha e^{-x} on (0, inf).

    Golub-Welsch (Math. Comp. 23 (1969) 221): the nodes are the eigenvalues
    of the dense Jacobi matrix of the Laguerre recurrence (`numpy.linalg`;
    the rules of the reduced kernel are small), polished by one Newton
    step, and the weights are 1/(L_{n-1}(x) L_n'(x)), log-normalized and
    scaled to sum to Gamma(alpha + 1).  This is the construction of
    `scipy.special.roots_genlaguerre`, whose nodes these equal bit for bit.

    Its one caller, `_channel_quadratures`, runs after the range check, so
    it asks for at most 2 * `MAX_QUADRATURE_N_R` + 16 = 200 nodes, with
    alpha = 2l + 1 <= 171; every such rule with alpha <= 169 is finite, and
    alpha = 171 raises `QuadratureError`.  Any other rule that is not
    finite raises it too; the overflow is silenced here, so the typed error
    is all a caller sees.  Nothing keeps a rule: each channel asks for its one rule once, inside
    its own cache.  The arrays are read-only, like every array a channel
    keeps: an in-place write raises `ValueError`.
    """
    try:
        total = math.gamma(alpha + 1)
    except OverflowError:
        raise QuadratureError(alpha, nodes) from None
    if nodes == 1:
        return _read_only(np.array([alpha + 1.0])), _read_only(np.array([total]))
    k = np.arange(nodes, dtype=float)
    jacobi = np.diag(2 * k + alpha + 1) + np.diag(-np.sqrt(k[1:] * (k[1:] + alpha)), -1)
    x = np.linalg.eigvalsh(jacobi, UPLO="L")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y, y_prev = _laguerre_pair(nodes, alpha, x)
        dy = (nodes * y - (nodes + alpha) * y_prev) / x
        x = x - y / dy
        fm = _laguerre_pair(nodes - 1, alpha, x)[0]
        # fm and dy span many decades: centre each on its log range
        log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
        fm = fm / np.exp((log_fm.max() + log_fm.min()) / 2.0)
        dy = dy / np.exp((log_dy.max() + log_dy.min()) / 2.0)
        w = 1.0 / (fm * dy)
        w = w * (total / w.sum())
    if not (np.isfinite(x).all() and np.isfinite(w).all()):
        raise QuadratureError(alpha, nodes)
    return _read_only(x), _read_only(w)


def _laguerre_pair(n: int, alpha: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L_n^{(alpha)}(x), L_{n-1}^{(alpha)}(x)) for n >= 1, by the difference form.

    d <- -x/(k+alpha+1) p + k/(k+alpha+1) d, p <- p + d carries
    p = L_k / binom(k+alpha, k) without the cancellation of the three-term
    form near x = 0; each value is scaled back by its binomial, and degrees
    0 and 1 are closed forms.  This is how `scipy.special.eval_genlaguerre`
    evaluates, so the values overflow where scipy's do.  The binomials stay
    below 1e110 for the rules the quadratures form (alpha <= 169,
    nodes <= 200).
    """
    lower = -x + alpha + 1
    if n == 1:
        return lower, np.ones_like(x)
    d = -x / (alpha + 1)
    p = d + 1
    for k in range(1, n):
        c = k + alpha + 1.0
        d = -x / c * p + (k / c) * d
        p, previous = d + p, p
    if n > 2:
        lower = float(math.comb(n - 1 + alpha, n - 1)) * previous
    return float(math.comb(n + alpha, n)) * p, lower


def _laguerre_table(j_max: int, alpha: int, x: float | np.ndarray) -> np.ndarray:
    """L_j^{(alpha)}(x) for j = 0..j_max by the three-term recurrence.

    ``x`` is a float (shape (j_max+1,)) or a grid (shape (j_max+1,) + x.shape).
    Both build their rows with the same expression in the same order, so a
    float's values equal the matching grid column bit for bit, and a single
    radius runs on Python floats with no numpy call per row.
    """
    point = isinstance(x, float)
    if not point:
        x = np.asarray(x, dtype=float)
    rows = [1.0, alpha + 1.0 - x][: j_max + 1]
    for j in range(1, j_max):
        rows.append(((2 * j + alpha + 1 - x) * rows[j] - (j + alpha) * rows[j - 1]) / (j + 1))
    if not point:
        rows[0] = np.ones_like(x)
    return np.array(rows)


def _envelope(cfg: GreenEvalConfig, r: float) -> tuple[float, float]:
    """Return (x, x^(l+1/2) e^{-x/2}) at radius r, with x a Python float.

    Formed in log space: at large l and far radii x^(l+1/2) alone overflows
    a float although the envelope underflows to 0.  A non-finite radius
    raises `ValueError`; a finite one so far out that x overflows has
    envelope 0.
    """
    if not math.isfinite(r):
        raise ValueError("radius must be finite")
    x = 2.0 * cfg.scale_float * float(r)
    if x == 0 or x == math.inf:
        return x, 0.0
    return x, math.exp((cfg.l + 0.5) * math.log(x) - 0.5 * x)


def _finite(value: float) -> float:
    """A point value, passed through unless the recurrence overflowed.

    Python float arithmetic overflows without a warning, so a kernel value
    at a radius whose envelope is tiny but not 0 could otherwise come back
    as NaN.  The rows grow like x^truncation: at x = 1420 they overflow for
    (400, 0) and (1000, 0), while (300, 0) stays finite.
    """
    if not math.isfinite(value):
        raise ValueError(
            "kernel value is not finite: the Laguerre rows of this level overflow "
            "a float at this radius"
        )
    return value


def _check_quadrature_range(cfg: GreenEvalConfig) -> None:
    """Refuse a level past `MAX_QUADRATURE_N_R`, where the quadratures lose accuracy."""
    if cfg.resonant_n_r > MAX_QUADRATURE_N_R:
        raise ValueError(
            f"level n = {cfg.level}, l = {cfg.l}: n_r = {cfg.resonant_n_r} exceeds "
            f"MAX_QUADRATURE_N_R = {MAX_QUADRATURE_N_R}, past which the quadratures "
            "miss eps4 by more than 1e-11"
        )


@lru_cache(maxsize=None)
def _channel(l: int, n_r: int) -> tuple[np.ndarray, np.ndarray]:
    """The point side of channel (l, n_r) at Z = 1: (norms, coupling), read-only.

    norms[j] = sqrt(j! / (j+2l)!) for j below the truncation, built
    recursively; a config at charge Z has norms Z^(-1/2) times these.
    coupling[j] = (n - 1/2) / (j - n_r) off the resonant index, 0 on it.
    """
    unit = GreenEvalConfig(l=l, level=l + n_r + 1)
    two_l = 2 * l
    c = np.empty(unit.truncation)
    c[0] = math.sqrt(1.0 / math.factorial(two_l))
    for j in range(unit.truncation - 1):
        c[j + 1] = c[j] * math.sqrt((j + 1) / (j + 1 + two_l))
    j = np.arange(unit.truncation)
    coupling = np.zeros(unit.truncation)
    off = j != n_r
    coupling[off] = (unit.level - 0.5) / (j[off] - n_r)
    return _read_only(c), _read_only(coupling)


@lru_cache(maxsize=None)
def _channel_quadratures(l: int, n_r: int) -> tuple[float, tuple[np.ndarray, float, float]]:
    """The quadrature side of channel (l, n_r) at Z = 1: (F, orthogonality projection).

    On the channel's rule, weight x^(2l+1) e^{-x}, F is the stripped reduced
    kernel contracted on both sides against w x^2 s, and the projection is
    (rows, s, d) contracted against w s.  The node table is dropped once
    contracted, so a channel keeps O(truncation) floats.  Only the
    quadratures call this, after `_check_quadrature_range`.
    """
    unit = GreenEvalConfig(l=l, level=l + n_r + 1)
    x, w = _gauss_laguerre(2 * l + 1, unit.nodes)
    rows, s, d = _reduced_factors(unit, x)
    u = w * (x * x * s)  # w nears Gamma(2l+2) on small rules: scale s first
    proj = (rows @ u, s @ u, d @ u)
    u = w * s
    return _reduced_form(unit, proj, proj), (_read_only(rows @ u), s @ u, d @ u)


def _reduced_factors(
    cfg: GreenEvalConfig, x: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Separable factors of the stripped reduced kernel at a point or on a grid.

    The factors are those of the config's channel at Z = 1, whatever cfg.Z:
    at charge Z each carries Z^(-1/2) more, which the public values apply.
    Returns (rows, s, d): rows[j] = c_j L_j(x) for j below the truncation,
    the resonant stripped Sturmian s = rows[n_r], and its stripped r d/dr
    image d = c_{n_r} ((l + 1/2) q - (x/2) q + x q') with q = L_{n_r}.
    By x L_k' = k L_k - (k + alpha) L_{k-1} that image is
    c_{n_r} ((l + 1/2 + n_r - x/2) L_{n_r} - (n_r + 2l) L_{n_r - 1}), so every
    factor is a row of one recurrence table.  For a float x, rows is a
    vector and s, d are scalars.
    """
    n_r = cfg.resonant_n_r
    table = _laguerre_table(cfg.truncation - 1, 2 * cfg.l, x)
    c = _channel(cfg.l, n_r)[0]
    rows = c.reshape((-1,) + (1,) * (table.ndim - 1)) * table
    d = (cfg.l + 0.5 + n_r - 0.5 * x) * table[n_r]
    if n_r:
        d -= (n_r + 2 * cfg.l) * table[n_r - 1]
    return rows, rows[n_r], c[n_r] * d


def _reduced_form(cfg: GreenEvalConfig, a: tuple, b: tuple) -> float:
    """The stripped reduced kernel contracted between two projected factors.

    ``a`` and ``b`` are (v, s, d) triples: the factors of `_reduced_factors`
    contracted against one vector each, or taken at one point.  The
    kernel N sum' c_j^2 L_j(x) L_j(x') / (j - n_r) + (1/2) s(x) s(x')
    + d(x) s(x') + s(x) d(x'), with N = n - 1/2, is separable, so no
    grid-by-grid matrix is formed.  Only the config's channel is read, not Z.
    """
    (va, sa, da), (vb, sb, db) = a, b
    coupling = _channel(cfg.l, cfg.resonant_n_r)[1]
    return float(coupling @ (va * vb) + 0.5 * sa * sb + da * sb + sa * db)


def green_reduced_eval(cfg: GreenEvalConfig, r: float, rp: float) -> float:
    """Reduced kernel of the anchored level at a pair of radii.

    The channel's Z = 1 form at x = 2kr and x' = 2kr', times Z^-1.
    """
    if r <= 0 or rp <= 0:
        raise ValueError("radii must be positive")
    x, env = _envelope(cfg, r)
    xp, envp = _envelope(cfg, rp)
    scale = env * envp
    if scale == 0:
        return 0.0
    form = _reduced_form(cfg, _reduced_factors(cfg, x), _reduced_factors(cfg, xp))
    return _finite(scale * form / float(cfg.Z))


def reduced_double_integral(cfg: GreenEvalConfig) -> float:
    """Double integral of r^2 P0 (reduced kernel) r'^2 P0 over both radii.

    Under x = 2kr the bound factor is P0 = k s(x) x^(l+1/2) e^(-x/2), with
    s the resonant stripped Sturmian, so the integrand's smooth part is
    polynomial and the tensor Gauss-Laguerre rule of the channel's grid,
    weight x^(2l+1) e^{-x}, is exact on each axis with the x^2 of r^2 in
    the polynomial.  Both axes project onto the same vector w x^2 s, so the
    value is k^2 (2k)^-6 Z^-2 F with F the channel's one cached float.
    Multiplying by -(Z^6/64) reproduces the exact quartic coefficient;
    tests pin that.
    """
    _check_quadrature_range(cfg)
    k = cfg.scale_float
    F = _channel_quadratures(cfg.l, cfg.resonant_n_r)[0]
    return k * k * (2.0 * k) ** -6 * (F / float(cfg.Z * cfg.Z))


def reduced_orthogonality_defect(cfg: GreenEvalConfig, rp: float) -> float:
    """integral dr P0(r) G~(r, r') at fixed r'; exactly zero in the limit.

    The bound factor is orthogonal to the reduced kernel in plain measure;
    with the quadrature weight x^(2l+1) e^{-x} the smooth part is polynomial
    so the residual is pure truncation plus rounding.  The node side is
    projected once per channel; each call evaluates only r' and applies
    Z^(-3/2).
    """
    _check_quadrature_range(cfg)
    if rp <= 0:
        raise ValueError("r' must be positive")
    xp, envp = _envelope(cfg, rp)
    if envp == 0:
        return 0.0
    # P0 = k s env and dr = dx / (2k): the prefactor is 1/2
    projection = _channel_quadratures(cfg.l, cfg.resonant_n_r)[1]
    form = _reduced_form(cfg, projection, _reduced_factors(cfg, xp))
    return _finite(0.5 * envp * form / float(cfg.Z) ** 1.5)
