"""Tests for the exact perturbative coefficients and energy assembly."""

import math
import pickle
from fractions import Fraction

import pytest

import zeeman2d
from zeeman2d import coulomb, perturb, reference
from zeeman2d.coulomb import QuantumState, eps0
from zeeman2d.perturb import (
    CoefficientSet,
    assemble_energy,
    coefficient_set,
    disputed_value_report,
    eps1,
    eps2_closed,
    eps2_integral,
    eps4_closed,
    eps4_sturmian,
)

from radial_reference import r2_element_squared


class TestZerothOrder:
    def test_one_home(self):
        # eps0 lives in coulomb; the package root exports it, perturb does not
        assert zeeman2d.eps0 is coulomb.eps0
        assert not hasattr(perturb, "eps0") and "eps0" not in perturb.__all__

    def test_fixed_values(self):
        assert eps0(1) == -2
        assert eps0(2) == Fraction(-2, 9)
        assert eps0(3) == Fraction(-2, 25)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            eps0(0)


class TestFirstOrder:
    def test_without_spin(self):
        assert eps1(0) == 0
        assert eps1(-2) == -1
        assert eps1(3) == Fraction(3, 2)

    def test_with_spin(self):
        assert eps1(1, Fraction(1, 2)) == 1
        assert eps1(-1, Fraction(1, 2)) == 0
        assert eps1(0, Fraction(-1, 2)) == Fraction(-1, 2)


class TestSecondOrder:
    def test_closed_form_table_values(self):
        assert eps2_closed(1, 0) == Fraction(3, 64)
        assert eps2_closed(3, 1) == Fraction(375, 32)
        assert eps2_closed(4, 3) == Fraction(441, 16)

    def test_integral_route_fixed_values(self):
        assert eps2_integral(1, 0) == Fraction(3, 64)
        assert eps2_integral(2, 1) == Fraction(45, 32)
        assert eps2_integral(5, 2) == eps2_closed(5, 2)

    def test_dual_route_exact_agreement(self):
        # every state the exact_sweep benchmark renders
        states = [(n, l) for n in range(1, 81) for l in range(n)]
        assert len(states) == 3240
        for n, l in states:
            assert eps2_integral(n, l) == eps2_closed(n, l), (n, l)

    def test_circular_specialization(self):
        assert eps2_closed(1, 0) == Fraction(3, 64)
        assert eps2_closed(2, 1) == Fraction(45, 32)
        assert eps2_closed(4, 3) == Fraction(441, 16)

    def test_rejects_bad_quantum_numbers(self):
        with pytest.raises(ValueError):
            eps2_closed(2, 2)
        with pytest.raises(ValueError):
            eps2_closed(1, -1)


class TestFourthOrder:
    def test_closed_form_table_values(self):
        assert eps4_closed(1, 0) == Fraction(-159, 65536)
        assert eps4_closed(2, 0) == Fraction(-1172961, 65536)
        assert eps4_closed(4, 2) == Fraction(-2448393339, 65536)

    def test_sum_route_fixed_values(self):
        assert eps4_sturmian(1, 0) == Fraction(-159, 65536)
        assert eps4_sturmian(2, 1) == Fraction(-462915, 32768)
        assert eps4_sturmian(3, 0) == Fraction(-124078125, 65536)

    def test_dual_route_exact_agreement(self):
        # every state the `coeff --all-up-to 160` pin renders, and on to n = 200
        states = [(n, l) for n in range(1, 201) for l in range(n)]
        assert len(states) == 20100
        for n, l in states:
            assert eps4_sturmian(n, l) == eps4_closed(n, l), (n, l)

    def test_window_sum_of_reference_couplings(self):
        # the module docstring's sum -(Z^6/64)[N sum_{j != n_r} R_j^2/(j - n_r) - (5/2) R_{n_r}^2]
        # over the couplings R_j^2 that radial_reference builds by their definition
        for Z in (Fraction(1), Fraction(2), Fraction(3, 2)):
            for n in range(1, 9):
                for l in range(n):
                    state = QuantumState(n, l, l)
                    n_r, N = state.n_r, state.effective_n
                    r2 = [r2_element_squared(state, j, Z) for j in range(n_r + 5)]
                    shifted = sum(r2[j] / (j - n_r) for j in range(n_r + 5) if j != n_r)
                    summed = -(Z**6) / 64 * (N * shifted - Fraction(5, 2) * r2[n_r])
                    assert summed == eps4_sturmian(n, l), (Z, n, l)

    @pytest.mark.parametrize(
        "d,side", [(0, 0), (1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1)],
        ids=["d0", "d1-above", "d1-below", "d2-above", "d2-below", "d3-above", "d3-below"],
    )
    def test_one_wrong_moment_factor_breaks_the_agreement(self, monkeypatch, d, side):
        # one unit more on the factor c of the term j = n_r + side d moves its
        # c^2 by 2c + 1, never 0; (5, 1) has n_r = 3, so all seven terms exist
        n, l = 5, 1
        lo = min(n - l - 1, n - l - 1 + side * d)  # the term's factor is c(lo, d)
        true_factor = perturb._moment3_factor
        monkeypatch.setattr(perturb, "_moment3_factor", lambda k, e, a: true_factor(k, e, a) + ((k, e) == (lo, d)))
        assert eps4_sturmian(n, l) != eps4_closed(n, l)

    def test_circular_specialization(self):
        assert eps4_closed(1, 0) == Fraction(-159, 65536)
        assert eps4_closed(2, 1) == Fraction(-462915, 32768)
        assert eps4_closed(4, 3) == Fraction(-392830011, 16384)


class TestNoFactorials:
    def test_routes_form_no_factorial(self, monkeypatch):
        # both exact routes cancel perm(n_r+2l, 2l) analytically, so even at
        # (80, 79), where it has about 1000 bits, neither forms it: with
        # math.perm and math.factorial raising for every module, laguerre and
        # perturb included, both routes still run
        def forbidden(*args):
            raise AssertionError("a factorial was formed")

        monkeypatch.setattr(math, "perm", forbidden)
        monkeypatch.setattr(math, "factorial", forbidden)
        assert eps2_integral(80, 79) == eps2_closed(80, 79)
        assert eps4_sturmian(80, 79) == eps4_closed(80, 79)


class TestSigns:
    def test_sign_pattern_wide_sweep(self):
        # checked, not assumed: quadratic coefficients positive, quartic
        # negative, for every valid state through n = 50
        for n in range(1, 51):
            for l in range(n):
                assert eps2_closed(n, l) > 0
                assert eps4_closed(n, l) < 0
            assert eps0(n) < 0


class TestPublishedTable:
    def test_all_twenty_entries(self):
        for (n, l), e2 in reference.TABLE_EPS2.items():
            assert eps2_closed(n, l) == e2
        for (n, l), e4 in reference.TABLE_EPS4.items():
            assert eps4_closed(n, l) == e4


class TestCoefficientSet:
    def test_both_provenances_agree(self):
        for n in range(1, 6):
            for l in range(n):
                a = coefficient_set(n, l, "closed_form")
                b = coefficient_set(n, l, "sturmian_sum")
                assert (a.eps0, a.eps2, a.eps4) == (b.eps0, b.eps2, b.eps4)

    def test_bad_provenance(self):
        with pytest.raises(ValueError):
            coefficient_set(1, 0, "guesswork")

    def test_frozen(self):
        cs = coefficient_set(1, 0)
        with pytest.raises(AttributeError):
            cs.eps2 = Fraction(1)

    def test_records_keep_their_repr_and_pickle(self):
        # EnergyResult holds a dict, so it is unhashable: pairs, not a mapping
        records = [
            (coefficient_set(2, 1), "CoefficientSet(n=2, l=1, eps0=Fraction(-2, 9), eps2=Fraction(45, 32), "
            "eps4=Fraction(-462915, 32768), provenance='closed_form')"),
            (assemble_energy(QuantumState(1, 0, 0), b=Fraction(1, 10), order=2), "EnergyResult("
            "state=QuantumState(n=1, l=0, m_l=0, m_s=None), Z=Fraction(1, 1), b=Fraction(1, 10), order=2, "
            "spin_included=False, terms={0: Fraction(-2, 1), 1: Fraction(0, 1), 2: Fraction(3, 6400)}, "
            "total=Fraction(-12797, 6400), regime_warning=False, "
            "truncation_note='neglected terms are O(Z^-10 (B/B0)^6)')"),
            (disputed_value_report(), "DisputedValueReport(closed_form=Fraction(-159, 65536), "
            "sturmian_sum=Fraction(-159, 65536), literature=Fraction(-153, 65536), half_gap=Fraction(3, 65536), "
            "oracle_estimate=None, oracle_uncertainty=None, routes_agree=True, literature_rejected=None, "
            "accepted_value=Fraction(-159, 65536))"),
        ]
        for record, text in records:
            assert repr(record) == text
            back = pickle.loads(pickle.dumps(record))
            assert back == record and type(back) is type(record)
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)


class TestAssembleEnergy:
    def test_field_off(self):
        res = assemble_energy(QuantumState(1, 0, 0), Z=1, b=0, order=4)
        assert res.total == -2
        assert res.terms[0] == -2
        assert not res.regime_warning

    def test_order_two_fixed_value(self):
        res = assemble_energy(QuantumState(1, 0, 0), b=Fraction(1, 10), order=2)
        assert res.total == Fraction(-12797, 6400)
        assert float(res.total) == pytest.approx(-1.99953125, abs=0)

    def test_order_four_fixed_value(self):
        res = assemble_energy(QuantumState(1, 0, 0), b=Fraction(1, 10), order=4)
        expected = Fraction(-2) + Fraction(3, 6400) - Fraction(159, 655360000)
        assert res.total == expected == Fraction(-1310412959, 655360000)

    def test_spin_cancellation(self):
        st = QuantumState(2, 1, -1, Fraction(1, 2))
        res = assemble_energy(st, b=Fraction(1, 100), order=1, spin=True)
        assert res.terms[1] == 0
        assert res.total == Fraction(-2, 9)

    def test_spin_shift_exact(self):
        st = QuantumState(2, 1, 1, Fraction(1, 2))
        res = assemble_energy(st, b=Fraction(1, 100), order=1, spin=True)
        assert res.terms[1] == Fraction(1, 100)

    def test_spin_without_ms_rejected(self):
        with pytest.raises(ValueError, match="m_s"):
            assemble_energy(QuantumState(1, 0, 0), b=0, order=1, spin=True)

    def test_no_order_three_channel(self):
        with pytest.raises(ValueError, match="order must be one of 0, 1, 2, 4"):
            assemble_energy(QuantumState(1, 0, 0), order=3)

    def test_ml_sign_degeneracy(self):
        # quadratic and quartic terms depend on m_l through |m_l| only
        up = assemble_energy(QuantumState(3, 2, 2), b=Fraction(1, 50))
        dn = assemble_energy(QuantumState(3, 2, -2), b=Fraction(1, 50))
        assert up.terms[2] == dn.terms[2]
        assert up.terms[4] == dn.terms[4]
        assert up.terms[1] == -dn.terms[1]

    def test_z_scaling(self):
        # E^(k) = eps^(k) Z^(2-2k) b^k
        st = QuantumState(2, 0, 0)
        b = Fraction(1, 100)
        for Z in (Fraction(2), Fraction(3, 2)):
            res = assemble_energy(st, Z=Z, b=b)
            assert res.terms[0] == eps0(2) * Z**2
            assert res.terms[2] == eps2_closed(2, 0) * b**2 / Z**2
            assert res.terms[4] == eps4_closed(2, 0) * b**4 / Z**6

    def test_regime_warning_trips(self):
        res = assemble_energy(QuantumState(1, 0, 0), b=Fraction(5), order=4)
        assert res.regime_warning
        small = assemble_energy(QuantumState(1, 0, 0), b=Fraction(1, 10), order=4)
        assert not small.regime_warning

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            assemble_energy(QuantumState(1, 0, 0), b=Fraction(-1, 10))

    def test_truncation_note_present(self):
        res = assemble_energy(QuantumState(1, 0, 0), b=Fraction(1, 10))
        assert "O(Z^-10" in res.truncation_note


class TestDisputedValueReport:
    def test_exact_routes_without_oracle(self):
        rep = disputed_value_report()
        assert rep.closed_form == Fraction(-159, 65536)
        assert rep.sturmian_sum == Fraction(-159, 65536)
        assert rep.literature == Fraction(-153, 65536)
        assert rep.routes_agree
        assert rep.literature_rejected is None  # no numeric estimate injected
        assert rep.accepted_value == Fraction(-159, 65536)
        assert "UNRESOLVED" in rep.summary_line()

    def test_injected_estimate_rejects_literature(self):
        rep = disputed_value_report(
            oracle_estimate=float(Fraction(-159, 65536)) + 1e-8,
            oracle_uncertainty=1e-8,
        )
        assert rep.literature_rejected is True
        assert "REJECTED" in rep.summary_line()
        assert rep.as_dict()["literature_rejected"] is True

    def test_injected_estimate_near_literature_does_not_reject(self):
        rep = disputed_value_report(oracle_estimate=float(Fraction(-153, 65536)))
        assert rep.literature_rejected is False
        assert "NOT REJECTED" in rep.summary_line()

    def test_half_gap_boundary_is_strict(self):
        # the half-gap is derived from the two candidates, and at their
        # midpoint -156/65536 the estimate is no closer to either; the
        # distances to both candidates are exact in floats (Sterbenz)
        assert reference.GROUND_EPS4_HALF_GAP == Fraction(3, 65536)
        mid = float(Fraction(-156, 65536))
        assert disputed_value_report(oracle_estimate=mid).literature_rejected is False
        toward_exact = math.nextafter(mid, -math.inf)  # -159 lies below -156
        assert disputed_value_report(oracle_estimate=toward_exact).literature_rejected is True
        toward_literature = math.nextafter(mid, math.inf)
        assert disputed_value_report(oracle_estimate=toward_literature).literature_rejected is False

    def test_separation_is_resolvable(self):
        # the two candidate values differ by about 3.8 percent
        gap = abs(
            float(Fraction(-159, 65536)) - float(Fraction(-153, 65536))
        ) / abs(float(Fraction(-159, 65536)))
        assert 0.035 < gap < 0.04
