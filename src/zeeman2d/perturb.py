"""Weak-field energy corrections for the planar hydrogen-like atom.

The dimensionless coefficients eps^(k) are defined by

    E = sum_k eps^(k) Z^(2-2k) b^k   (Hartree, b = B/B0),

with eps^(0) the unperturbed level (`coulomb.eps0`), eps^(1) = m_l/2 the
orientational term (plus 2 m_s with spin), and only even k >= 2 thereafter:
the diamagnetic perturbation is proportional to b^2 r^2, so no odd-order
channel exists in this formulation and `assemble_energy` has none.

Second and fourth order are each computed along two independent exact
routes that the validation suite requires to agree digit for digit:

* closed form -- polynomial expressions in (n, l);
* integral route -- weighted Laguerre moments of the bound density
  (second order) and the finite window of Sturmian couplings that the
  r^2 operator admits (fourth order).

Unit reduction used by the integral routes (canonical units, N = n - 1/2,
k = Z/N, x = 2kr, alpha = 2l, P_j = perm(j+alpha, alpha) = (j+alpha)!/j!;
every step is exact in the rationals):

    eps2 = Z^2/8 * integral r^2 P^2 dr
         = N * M3(n_r, alpha) / (64 P_{n_r})

    eps4 = -(Z^6/64) * [ N * sum_{j != n_r} R_j^2/(j - n_r) - 5/2 R_{n_r}^2 ]
    R_j^2 = N^4 B(n_r, j; alpha)^2 / (64 Z^6 P_{n_r} P_j)

where B is the banded third-moment integral M of the `laguerre` module and
M3(n_r, alpha) = B(n_r, n_r; alpha) its diagonal, and the sum runs only
over the seven-wide band |j - n_r| <= 3.
The Z powers cancel identically, so the coefficients are Z-independent and
are computed once per (n, l).  Neither route forms P_j.  The diagonal is
M3 = c P_{n_r} with c = `laguerre._moment3_factor`(n_r, 0, alpha), so P_{n_r}
cancels exactly and

    eps2 = N c / 64 = (2n - 1) c / 128.

The window sum is taken in reduced form.  At the level energy the
Sturmian of level n is the bound state rescaled by N/Z, and with
T_j = B_j^2 / (P_{n_r} P_j) and q = 2n - 1 = 2N

    eps4 = -(q^4 / 2^17) * [ q * sum_{j != n_r} T_j/(j - n_r) - 5 T_{n_r} ].

At j = n_r +- d (d = 0..3, j >= 0) put lo = min(j, n_r) and
hi = max(j, n_r).  Then B_j = c P_lo with c = `laguerre._moment3_factor`(lo,
d, alpha), so T_j = c^2 P_lo/P_hi, and one symmetric formula gives every
term:

    T_j = c^2 rise(lo, d) / rise(lo + alpha, d),   rise(x, d) = (x+1)...(x+d).

Above the level lo = n_r, and each denominator divides
top = rise(n_r + alpha, 3); below it lo = n_r - d, and each divides
bottom = rise(n_r + alpha - m, m) with m = min(n_r, 3).  So every T_j is
an integer t_j over D = top * bottom, and since 6/(j - n_r) is an integer
for |j - n_r| <= 3, `eps4_sturmian` sums

    eps4 = -q^4 [ q * sum_{j != n_r} (6/(j - n_r)) t_j - 30 t_{n_r} ] / (6 * 2^17 D)

in integers, forms no factorial and builds a single `Fraction` at the end.
Every coefficient, closed forms included, is one `Fraction` built from
integers, with no rational arithmetic on N: the closed forms are powers of
q times a polynomial body over a power of 2.

The records `CoefficientSet`, `EnergyResult` and `DisputedValueReport` are
immutable named tuples, like `coulomb.QuantumState`: they index, iterate and
compare as tuples, and assigning to a field raises `AttributeError`.  The
module loads no numpy, no scipy and no `inspect`.

`coefficient_set` keeps no memo: it computes eps2 and eps4 on each call.
Its eps0 comes from `coulomb._eps0`, which keeps a bounded memo per checked
n; the factorized text of the `coeff` command comes from
`exactmath._factor_text`, memoized per integer.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction

from . import reference
from .coulomb import QuantumState, _check_charge, _check_level, _check_spin, _eps0
from .exactmath import render_decimal
from .laguerre import _moment3_factor

__all__ = [
    "CoefficientSet",
    "EnergyResult",
    "DisputedValueReport",
    "eps1",
    "eps2_closed",
    "eps2_integral",
    "eps4_closed",
    "eps4_sturmian",
    "coefficient_set",
    "assemble_energy",
    "disputed_value_report",
]

TRUNCATION_NOTE = "neglected terms are O(Z^-10 (B/B0)^6)"


def eps1(m_l: int, m_s: Fraction | None = None) -> Fraction:
    """First order: m_l/2, or (m_l + 2 m_s)/2 with spin (g factor exactly 2)."""
    orbital = Fraction(operator.index(m_l), 2)
    return orbital if m_s is None else orbital + _check_spin(m_s)


def eps2_closed(n: int, l: int) -> Fraction:
    """Second order, closed form: N^2 (5n^2 - 5n - 3l^2 + 3) / 16."""
    return _eps2_closed(*_check_level(n, l))


def eps2_integral(n: int, l: int) -> Fraction:
    """Second order, integral route: (1/8) r^2 moment of the bound density."""
    return _eps2_integral(*_check_level(n, l))


def eps4_closed(n: int, l: int) -> Fraction:
    """Fourth order, closed form (negative for every bound state)."""
    return _eps4_closed(*_check_level(n, l))


def eps4_sturmian(n: int, l: int) -> Fraction:
    """Fourth order, independent route: the banded Sturmian window sum.

    The r^2 operator couples the level only to Sturmians with
    |n_r' - n_r| <= 3, so the formally infinite reduced sum is exact after
    seven terms; the -5/2 diagonal piece carries the pole subtraction and
    the derivative terms of the reduced kernel.
    """
    return _eps4_sturmian(*_check_level(n, l))


# The unchecked cores of the four routes, for labels already checked.


def _eps2_closed(n: int, l: int) -> Fraction:
    q = 2 * n - 1
    return Fraction(q * q * (5 * n * n - 5 * n - 3 * l * l + 3), 64)


def _eps2_integral(n: int, l: int) -> Fraction:
    return Fraction((2 * n - 1) * _moment3_factor(n - l - 1, 0, 2 * l), 128)


def _eps4_closed(n: int, l: int) -> Fraction:
    n2, l2 = n * n, l * l
    # 143n^4 - 286n^3 - 90n^2 l^2 + 582n^2 + 90n l^2 - 439n - 21l^4 - 138l^2 + 159
    body = (143 * n2 - 286 * n + 582 - 90 * l2) * n2 + (90 * l2 - 439) * n - (21 * l2 + 138) * l2 + 159
    q2 = (2 * n - 1) ** 2
    return Fraction(-q2 * q2 * q2 * body, 65536)


def _eps4_sturmian(n: int, l: int) -> Fraction:
    # T_j = c^2 rise(lo, d) / rise(lo + alpha, d) at j = n_r +- d, lo = min(j, n_r); below
    # the level lo = n_r - d, so its rising products are the falling ones from n_r and a
    n_r, alpha = n - l - 1, 2 * l
    a = n_r + alpha
    up = (1, n_r + 1, (n_r + 1) * (n_r + 2), (n_r + 1) * (n_r + 2) * (n_r + 3))
    up_a = (1, a + 1, (a + 1) * (a + 2), (a + 1) * (a + 2) * (a + 3))
    down = (1, n_r, n_r * (n_r - 1), n_r * (n_r - 1) * (n_r - 2))
    down_a = (1, a, a * (a - 1), a * (a - 1) * (a - 2))
    den = up_a[3] * down_a[min(n_r, 3)]  # top * bottom: each side's denominators nest
    shifted = 0  # sum over j != n_r of (6/(j - n_r)) T_j den
    for d in (1, 2, 3):
        c = _moment3_factor(n_r, d, alpha)
        t = c * c * up[d] * (den // up_a[d])
        if d <= n_r:
            c = _moment3_factor(n_r - d, d, alpha)
            t -= c * c * down[d] * (den // down_a[d])
        shifted += 6 // d * t
    c = _moment3_factor(n_r, 0, alpha)
    q = 2 * n - 1
    return Fraction(-(q**4) * (q * shifted - 30 * c * c * den), 3 * 2**18 * den)


class CoefficientSet(namedtuple("CoefficientSet", "n l eps0 eps2 eps4 provenance")):
    """Exact field-free, quadratic and quartic coefficients of one (n, l).

    The first-order coefficient is a property of m_l alone (see `eps1`) and
    deliberately lives outside this set.  ``provenance`` records which exact
    route produced eps2/eps4; both routes must agree, which the validation
    suite enforces state by state.
    """

    __slots__ = ()


def coefficient_set(n: int, l: int, provenance: str = "closed_form") -> CoefficientSet:
    """Coefficients of (n, l) by the named exact route, computed on each call.

    The labels are checked once, here; the route's cores and the memoized
    `coulomb._eps0` take them as checked.
    """
    n, l = _check_level(n, l)
    if provenance == "closed_form":
        e2, e4 = _eps2_closed(n, l), _eps4_closed(n, l)
    elif provenance == "sturmian_sum":
        e2, e4 = _eps2_integral(n, l), _eps4_sturmian(n, l)
    else:
        raise ValueError("provenance must be 'closed_form' or 'sturmian_sum'")
    return CoefficientSet(n, l, _eps0(n), e2, e4, provenance)


class EnergyResult(
    namedtuple(
        "EnergyResult",
        "state Z b order spin_included terms total regime_warning truncation_note",
        defaults=(TRUNCATION_NOTE,),
    )
):
    """Term-by-term exact energy of one state at one field strength.

    ``terms`` maps each order k to its exact term eps^(k) Z^(2-2k) b^k.
    """

    __slots__ = ()


def assemble_energy(
    state: QuantumState,
    Z: Fraction = Fraction(1),
    b: Fraction = Fraction(0),
    order: int = 4,
    spin: bool = False,
) -> EnergyResult:
    """Exact perturbative energy through the requested order.

    Valid orders are 0, 1, 2 and 4; there is no order-3 channel.  Each term
    is eps^(k) Z^(2-2k) b^k, kept as an exact rational.  The regime flag
    trips when the quartic term exceeds the quadratic one in magnitude
    (series no longer obviously asymptotic); it is a warning, not an error.
    """
    if order not in (0, 1, 2, 4):
        raise ValueError("order must be one of 0, 1, 2, 4 (odd orders vanish)")
    Z = _check_charge(Z)
    b = Fraction(b)
    if b < 0:
        raise ValueError("b = B/B0 must be non-negative")
    if spin and state.m_s is None:
        raise ValueError("spin requested but the state carries no m_s")
    coeffs = coefficient_set(state.n, state.l)
    terms: dict[int, Fraction] = {0: coeffs.eps0 * Z * Z}
    if order >= 1:
        terms[1] = eps1(state.m_l, state.m_s if spin else None) * b
    if order >= 2:
        terms[2] = coeffs.eps2 * b * b / (Z * Z)
    if order >= 4:
        terms[4] = coeffs.eps4 * b**4 / Z**6
    warning = order >= 4 and b > 0 and abs(terms[4]) > abs(terms[2])
    return EnergyResult(
        state=state,
        Z=Z,
        b=b,
        order=order,
        spin_included=spin,
        terms=terms,
        total=sum(terms.values(), Fraction(0)),
        regime_warning=warning,
    )


class DisputedValueReport(
    namedtuple(
        "DisputedValueReport",
        "closed_form sturmian_sum literature half_gap oracle_estimate oracle_uncertainty "
        "routes_agree literature_rejected accepted_value",
    )
):
    """Three-route comparison of the ground-state quartic coefficient.

    The exact values are `Fraction`s; the oracle estimate and its
    uncertainty are floats, or None when no fit was run.
    """

    __slots__ = ()

    def as_dict(self) -> dict:
        """The fields by name, with every exact value as its string (JSON keeps no rationals)."""
        return {k: str(v) if isinstance(v, Fraction) else v for k, v in self._asdict().items()}

    def summary_line(self) -> str:
        verdict = {True: "REJECTED", False: "NOT REJECTED", None: "UNRESOLVED"}[self.literature_rejected]
        if self.oracle_estimate is None:
            oracle_s = "skipped"
        elif self.oracle_uncertainty is None:
            oracle_s = f"{self.oracle_estimate:.9g}"
        else:
            oracle_s = f"{self.oracle_estimate:.9g}±{self.oracle_uncertainty:.1g}"
        return (
            f"eps4(1,0): closed={self.closed_form}, sturmian={self.sturmian_sum}, "
            f"oracle={oracle_s}, literature {self.literature} {verdict} "
            f"(exact value {render_decimal(self.closed_form, 9)})"
        )


def disputed_value_report(
    oracle_estimate: float | None = None,
    oracle_uncertainty: float | None = None,
) -> DisputedValueReport:
    """Adjudicate the ground-state eps4 discrepancy across all three routes.

    The numeric estimate comes from the caller (the oracle's ground-state
    fit); without one the literature value stays unresolved.  The
    literature value is rejected only if the estimate lands within half
    the gap of the exact value, i.e. strictly closer to it than to the
    literature one.
    """
    closed = eps4_closed(1, 0)
    stur = eps4_sturmian(1, 0)
    lit = reference.GROUND_EPS4_LITERATURE
    half_gap = reference.GROUND_EPS4_HALF_GAP
    rejected: bool | None
    if oracle_estimate is None:
        rejected = None
    else:
        rejected = (
            abs(oracle_estimate - float(closed)) < float(half_gap)
            and abs(oracle_estimate - float(lit)) > float(half_gap)
        )
    return DisputedValueReport(
        closed_form=closed,
        sturmian_sum=stur,
        literature=lit,
        half_gap=half_gap,
        oracle_estimate=oracle_estimate,
        oracle_uncertainty=oracle_uncertainty,
        routes_agree=closed == stur,
        literature_rejected=rejected,
        accepted_value=closed,
    )
