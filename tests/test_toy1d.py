import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypsurf.errors import EmptyWindow, ParameterOutOfRange
from hypsurf.toy1d import (StepObservable, alternating_step, mode_count_density,
                           toy1d_variance, window_mode_range)


class TestStepObservable:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepObservable((0.0, 0.5), (1.0, -1.0))
        with pytest.raises(ValueError):
            StepObservable((0.0, 0.7, 0.5, 1.0), (1.0, -1.0, 1.0))

    def test_cos_coefficient_matches_quadrature(self):
        from scipy.integrate import quad
        a = alternating_step(7)
        L, k = 37.0, 5
        num = 0.0
        for v, lo, hi in zip(a.values, a.edges, a.edges[1:]):
            val, _ = quad(lambda x: v * math.cos(2 * k * math.pi * x / L),
                          lo * L, hi * L, limit=200)
            num += val
        assert a.cos_coefficient(L, k) == pytest.approx(num / L, abs=1e-10)

    def test_mean(self):
        assert alternating_step(8).mean() == 0.0
        assert alternating_step(7).mean() == pytest.approx(1.0 / 7.0)


class TestModeWindow:
    def test_counts(self):
        ks = window_mode_range(100.0, (1.0, 2.0))
        assert ks[0] == 32 and ks[-1] == 45

    @settings(max_examples=30, deadline=None)
    @given(st.floats(50, 2000), st.floats(0.5, 2.0))
    def test_window_membership_property(self, L, lo):
        hi = lo + 0.7
        for k in window_mode_range(L, (lo, hi)):
            nu = (k * math.pi / L) ** 2
            assert lo - 1e-9 <= nu <= hi + 1e-9

    @pytest.mark.parametrize("L, window", [(-5.0, (1.0, 2.0)), (0.0, (1.0, 2.0)),
                                           (100.0, (2.0, 1.0)), (100.0, (1.5, 1.5))])
    def test_bad_length_or_window_is_out_of_range(self, L, window):
        # not an empty window: no length or window of this kind holds a mode
        with pytest.raises(ParameterOutOfRange):
            window_mode_range(L, window)


class TestVariance:
    def test_constant_observable_zero_variance(self):
        a = StepObservable((0.0, 1.0), (0.7,))
        rep = toy1d_variance(400.0, (1.0, 2.0), a)
        assert rep.variance == pytest.approx(0.0, abs=1e-30)

    @pytest.mark.parametrize("L", [100.0, 400.0, 1600.0])
    def test_parseval_bound_step(self, L):
        rep = toy1d_variance(L, (1.0, 2.0), alternating_step(7))
        assert rep.variance <= rep.parseval_bound

    def test_parseval_bound_callable(self):
        rep = toy1d_variance(200.0, (1.0, 2.0),
                             lambda x: math.sin(x / 3.0), M=1.0)
        assert rep.variance <= rep.parseval_bound

    def test_variance_decays_with_L(self):
        v = [toy1d_variance(L, (1.0, 2.0), alternating_step(7)).variance
             for L in (100.0, 1600.0)]
        assert v[1] < v[0]

    def test_empty_window(self):
        with pytest.raises(EmptyWindow):
            toy1d_variance(1.0, (1.0, 1.5), alternating_step(4))

    def test_callable_needs_bound(self):
        with pytest.raises(ValueError):
            toy1d_variance(100.0, (1.0, 2.0), lambda x: 1.0)

    def test_mode_density_converges(self):
        dens = mode_count_density([100.0, 400.0, 1600.0], (1.0, 2.0))
        center = float(np.mean(dens))
        # each N/L within 5% of their common value
        for d in dens:
            assert abs(d - center) <= 0.05 * center
        ideal = (math.sqrt(2.0) - 1.0) / math.pi
        assert dens[-1] == pytest.approx(ideal, rel=0.01)
