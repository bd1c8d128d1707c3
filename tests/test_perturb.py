"""Tests for the exact perturbative coefficients and energy assembly."""

from fractions import Fraction

import pytest

from zeeman2d import reference
from zeeman2d.coulomb import QuantumState
from zeeman2d.perturb import (
    CoefficientSet,
    assemble_energy,
    coefficient_set,
    disputed_value_report,
    eps0,
    eps1,
    eps2_circular,
    eps2_closed,
    eps2_integral,
    eps4_circular,
    eps4_closed,
    eps4_sturmian,
)


class TestZerothOrder:
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
        states = [(n, l) for n in range(1, 41) for l in range(n)]
        assert len(states) == 820
        for n, l in states:
            assert eps2_integral(n, l) == eps2_closed(n, l), (n, l)

    def test_circular_specialization(self):
        assert eps2_circular(1) == Fraction(3, 64)
        assert eps2_circular(2) == Fraction(45, 32)
        assert eps2_circular(4) == Fraction(441, 16)
        for n in range(1, 13):
            assert eps2_circular(n) == eps2_closed(n, n - 1)

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
        states = [(n, l) for n in range(1, 41) for l in range(n)]
        assert len(states) == 820
        for n, l in states:
            assert eps4_sturmian(n, l) == eps4_closed(n, l), (n, l)

    def test_circular_specialization(self):
        assert eps4_circular(1) == Fraction(-159, 65536)
        assert eps4_circular(2) == Fraction(-462915, 32768)
        assert eps4_circular(4) == Fraction(-392830011, 16384)
        for n in range(1, 13):
            assert eps4_circular(n) == eps4_closed(n, n - 1)


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

    def test_memoized(self):
        assert coefficient_set(3, 1) is coefficient_set(3, 1)

    def test_bad_provenance(self):
        with pytest.raises(ValueError):
            coefficient_set(1, 0, "guesswork")

    def test_frozen(self):
        cs = coefficient_set(1, 0)
        with pytest.raises(Exception):
            cs.eps2 = Fraction(1)


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
        rep = disputed_value_report(run_oracle=False)
        assert rep.closed_form == Fraction(-159, 65536)
        assert rep.sturmian_sum == Fraction(-159, 65536)
        assert rep.literature == Fraction(-153, 65536)
        assert rep.routes_agree
        assert rep.literature_rejected is None  # no numeric estimate injected
        assert rep.accepted_value == Fraction(-159, 65536)
        assert "UNRESOLVED" in rep.summary_line()

    def test_injected_estimate_rejects_literature(self):
        rep = disputed_value_report(
            run_oracle=False,
            oracle_estimate=float(Fraction(-159, 65536)) + 1e-8,
            oracle_uncertainty=1e-8,
        )
        assert rep.literature_rejected is True
        assert "REJECTED" in rep.summary_line()
        assert rep.as_dict()["literature_rejected"] is True

    def test_injected_estimate_near_literature_does_not_reject(self):
        rep = disputed_value_report(
            run_oracle=False, oracle_estimate=float(Fraction(-153, 65536))
        )
        assert rep.literature_rejected is False
        assert "NOT REJECTED" in rep.summary_line()

    def test_separation_is_resolvable(self):
        # the two candidate values differ by about 3.8 percent
        gap = abs(
            float(Fraction(-159, 65536)) - float(Fraction(-153, 65536))
        ) / abs(float(Fraction(-159, 65536)))
        assert 0.035 < gap < 0.04
