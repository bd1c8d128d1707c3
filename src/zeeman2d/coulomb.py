"""Zeroth-order planar Coulomb levels, the state labels and the shared input checks.

Canonical units throughout: hbar = m_e = e = 1/(4 pi eps0) = 1, so lengths
are Bohr radii, energies are Hartree, and the magnetic field unit B0 is 1.

The module is the one home of the input checks that every entry point
of the package shares (level labels, spin projection, charge) and of the
zeroth-order coefficient -2/q^2 (q = 2n - 1), which `energy0` scales by Z^2.
Its core `_eps0` keeps a bounded memo per n (`functools.lru_cache`, 256
entries); it takes only an n that `_check_level` has already made an `int`,
so no input reaches the memo unchecked.

`QuantumState`, like every record of the package, is an immutable named
tuple (`collections.namedtuple`): assigning to a field raises
`AttributeError`; it indexes, iterates and compares as a tuple; and
`_replace` (through `_make`) re-runs the checks of the constructor.  The
exact layers (`exactmath`, `laguerre`, `coulomb`, `perturb`, `reference`)
load no numpy, no scipy and no `inspect`.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from fractions import Fraction

__all__ = [
    "QuantumState",
    "eps0",
    "energy0",
]

HALF = Fraction(1, 2)


def _check_level(n: int, l: int) -> tuple[int, int]:
    """The one check of level labels: integral (`operator.index`), n >= 1, 0 <= l <= n-1."""
    n, l = operator.index(n), operator.index(l)
    if n < 1:
        raise ValueError("n must satisfy n >= 1")
    if not 0 <= l <= n - 1:
        raise ValueError("l must satisfy 0 <= l <= n-1")
    return n, l


def _check_spin(m_s) -> Fraction:
    """The one check of a spin projection: m_s = +-1/2, as a `Fraction`."""
    m_s = Fraction(m_s)
    if abs(m_s) != HALF:
        raise ValueError("m_s must be +1/2 or -1/2")
    return m_s


def _check_charge(Z) -> Fraction:
    """The one check of a nuclear charge: Z > 0, as a `Fraction`."""
    Z = Fraction(Z)
    if Z <= 0:
        raise ValueError("Z must be positive")
    return Z


class QuantumState(namedtuple("QuantumState", "n l m_l m_s")):
    """Bound-state labels (n, l, m_l) plus an optional spin projection.

    l counts radial symmetry: 0 <= l <= n-1 and |m_l| = l (the planar atom
    has a single angular quantum number; l is its magnitude).  m_s, when
    present, must be +-1/2.  The labels are taken through `operator.index`,
    so a float raises `TypeError` and every label is stored as an `int`.
    Like every record of the package it is an immutable named tuple, and
    `_replace` builds through the same checks.
    """

    __slots__ = ()

    def __new__(cls, n: int, l: int, m_l: int, m_s: Fraction | None = None) -> "QuantumState":
        n, l = _check_level(n, l)
        m_l = operator.index(m_l)
        if abs(m_l) != l:
            raise ValueError("m_l must satisfy |m_l| = l")
        m_s = None if m_s is None else _check_spin(m_s)
        return tuple.__new__(cls, (n, l, m_l, m_s))

    @classmethod
    def _make(cls, iterable) -> "QuantumState":
        return cls(*iterable)

    @property
    def n_r(self) -> int:
        """Radial node count n - l - 1."""
        return self.n - self.l - 1

    @property
    def effective_n(self) -> Fraction:
        """Half-integer effective principal number N = n - 1/2."""
        return Fraction(2 * self.n - 1, 2)


def eps0(n: int) -> Fraction:
    """Zeroth order: -1/(2 N^2) = -2/q^2 with q = 2n - 1."""
    n, _ = _check_level(n, 0)
    return _eps0(n)


@functools.lru_cache(maxsize=256)
def _eps0(n: int) -> Fraction:
    """The unchecked core of `eps0`, the one home of -2/q^2, memoized per checked n."""
    q = 2 * n - 1
    return Fraction(-2, q * q)


def energy0(state: QuantumState, Z: Fraction = Fraction(1)) -> Fraction:
    """Unperturbed level energy eps0(n) Z^2 = -Z^2 / (2 N^2) in Hartree."""
    Z = _check_charge(Z)
    return eps0(state.n) * Z * Z

