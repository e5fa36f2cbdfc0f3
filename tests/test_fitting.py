import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqdsim import (CalibrationResult, CalibrationTarget, PowerLawParams,
                    calibrate_depths, default_device, eval_powerlaw,
                    fit_powerlaw, fitting, solve_point)
from dqdsim.errors import NoConvergenceError, SingularFitError

MEASURED_LAW = PowerLawParams(amplitude_a=33.0e3, offset_delta=4.88,
                           offset_c=27.0)


class TestEvalPowerLaw:
    def test_reference_values_at_7nm(self):
        # hand evaluation: 33000 / 11.88^3 + 27
        assert eval_powerlaw(MEASURED_LAW, 7.0) == pytest.approx(
            33000.0 / 11.88 ** 3 + 27.0, rel=1e-12)
        assert eval_powerlaw(MEASURED_LAW, 7.0) == pytest.approx(46.68, abs=0.01)

    def test_asymptote(self):
        assert eval_powerlaw(MEASURED_LAW, 1e9) == pytest.approx(27.0, abs=1e-6)

    def test_zero_distance(self):
        assert eval_powerlaw(MEASURED_LAW, 0.0) == pytest.approx(
            33000.0 / 4.88 ** 3 + 27.0, rel=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            eval_powerlaw(MEASURED_LAW, -4.88)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            PowerLawParams(-1.0, 4.88, 27.0)
        with pytest.raises(ValueError):
            PowerLawParams(33.0e3, -0.1, 27.0)


class TestFitPowerLaw:
    def test_three_point_exact_recovery(self):
        points = [(l, eval_powerlaw(MEASURED_LAW, l)) for l in (3.0, 7.0, 9.5)]
        params, residuals = fit_powerlaw(points)
        assert params.amplitude_a == pytest.approx(33.0e3, rel=1e-3)
        assert params.offset_delta == pytest.approx(4.88, rel=1e-3)
        assert params.offset_c == pytest.approx(27.0, rel=1e-3)
        assert np.max(np.abs(residuals)) < 1e-6

    def test_round_trip_is_identity_on_params(self):
        start = PowerLawParams(12345.0, 3.3, 31.0)
        points = [(l, eval_powerlaw(start, l)) for l in (2.0, 6.0, 12.0)]
        params, _ = fit_powerlaw(points)
        assert params.amplitude_a == pytest.approx(start.amplitude_a,
                                                   rel=1e-3)
        assert params.offset_delta == pytest.approx(start.offset_delta,
                                                    rel=1e-3)
        assert params.offset_c == pytest.approx(start.offset_c, rel=1e-3)

    def test_noisy_fit_statistics(self):
        ls = np.arange(3.0, 15.0, 1.0)
        clean = np.array([eval_powerlaw(MEASURED_LAW, l) for l in ls])
        rng = np.random.default_rng(20240817)
        rmss, amps = [], []
        for _ in range(100):
            noisy = clean + rng.normal(0.0, 0.1, size=len(ls))
            params, residuals = fit_powerlaw(list(zip(ls, noisy)))
            rmss.append(np.sqrt(np.mean(residuals ** 2)))
            amps.append(params.amplitude_a)
        # residual floor sits at the noise level, reduced by the 3 dof
        expected = 0.1 * np.sqrt((len(ls) - 3) / len(ls))
        assert np.median(rmss) == pytest.approx(expected, rel=0.35)
        assert np.median(amps) == pytest.approx(33.0e3, rel=0.05)

    def test_scale_consistency(self):
        points = [(l, eval_powerlaw(MEASURED_LAW, l)) for l in (3.0, 7.0, 9.5)]
        scaled = [(l, 3.0 * g) for l, g in points]
        base, _ = fit_powerlaw(points)
        times3, _ = fit_powerlaw(scaled)
        assert times3.amplitude_a == pytest.approx(3 * base.amplitude_a,
                                                   rel=1e-3)
        assert times3.offset_c == pytest.approx(3 * base.offset_c, rel=1e-3)
        assert times3.offset_delta == pytest.approx(base.offset_delta,
                                                    rel=1e-3)

    @settings(deadline=None, max_examples=25)
    @given(a=st.floats(min_value=1e3, max_value=1e5),
           delta=st.floats(min_value=0.5, max_value=10.0),
           c=st.floats(min_value=1.0, max_value=100.0))
    def test_recovery_property(self, a, delta, c):
        truth = PowerLawParams(a, delta, c)
        points = [(l, eval_powerlaw(truth, l)) for l in (3.0, 6.0, 10.0)]
        params, residuals = fit_powerlaw(points)
        assert np.max(np.abs(residuals)) < 1e-6
        assert params.offset_delta == pytest.approx(delta, rel=2e-3,
                                                    abs=1e-4)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(SingularFitError):
            fit_powerlaw([(3.0, 50.0), (3.0, 60.0), (7.0, 40.0)])
        with pytest.raises(SingularFitError):
            fit_powerlaw([(3.0, 50.0), (7.0, 40.0)])
        with pytest.raises(SingularFitError):
            fit_powerlaw([(3.0, 27.0), (7.0, 27.0), (9.5, 27.0)])
        with pytest.raises(SingularFitError):
            fit_powerlaw([(3.0, 27.0), (7.0, 28.0), (9.5, 29.0)])


class TestCalibration:
    def test_round_trip_recovers_default_depths(self):
        device = default_device(50.0)
        point = solve_point(device)
        target = CalibrationTarget(emission_low=point.lines[0].energy,
                                   emission_high=point.lines[1].energy)
        result = calibrate_depths(target)
        assert result.depth_e_dot1 == pytest.approx(239.0, abs=0.1)
        assert result.depth_e_dot2 == pytest.approx(203.0, abs=0.1)
        # ratio constraint makes the hole depths exactly half
        assert result.depth_h_dot1 == result.depth_e_dot1 / 2
        assert result.depth_h_dot2 == result.depth_e_dot2 / 2
        assert abs(result.residual_low) < 0.01
        assert abs(result.residual_high) < 0.01

    def test_half_ratio_reproduces_default_hole_depths(self):
        assert 119.5 == 239.0 * 0.5
        assert 101.5 == 203.0 * 0.5

    def test_degenerate_targets_give_equal_depths(self):
        device = default_device(50.0)
        line = solve_point(device).lines[0].energy
        target = CalibrationTarget(emission_low=line, emission_high=line)
        result = calibrate_depths(target)
        assert result.depth_e_dot1 == pytest.approx(result.depth_e_dot2,
                                                    abs=1e-6)

    def test_raising_high_target_lowers_shallow_depth(self):
        device = default_device(50.0)
        point = solve_point(device)
        base = CalibrationTarget(emission_low=point.lines[0].energy,
                                 emission_high=point.lines[1].energy)
        raised = CalibrationTarget(emission_low=point.lines[0].energy,
                                   emission_high=point.lines[1].energy + 1.0)
        assert (calibrate_depths(raised).depth_e_dot2
                < calibrate_depths(base).depth_e_dot2)

    def test_each_depth_solved_once(self, monkeypatch):
        calls = []
        solve = fitting.single_well_ground

        def spy(depth, width, species, **kwargs):
            calls.append((depth, species.name))
            return solve(depth, width, species, **kwargs)

        monkeypatch.setattr(fitting, "single_well_ground", spy)
        # the lines of the default device at L = 50 nm
        result = calibrate_depths(CalibrationTarget(
            emission_low=-138.85586529514225,
            emission_high=-104.0928318257862))
        # 22 line evaluations, 8 of them repeats, without the per-call memo
        assert len(calls) == 28
        assert len(set(calls)) == len(calls)
        # bit for bit the result of solving every evaluation afresh
        assert result == CalibrationResult(
            depth_e_dot1=239.00103618609995, depth_e_dot2=203.00366859347903,
            depth_h_dot1=119.50051809304998, depth_h_dot2=101.50183429673952,
            residual_low=-5.985577899991767e-08,
            residual_high=-1.5377402462490863e-07)

    def test_unreachable_target_fails(self):
        target = CalibrationTarget(emission_low=-60.0, emission_high=10.0)
        with pytest.raises(NoConvergenceError):
            calibrate_depths(target)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            CalibrationTarget(emission_low=-100.0, emission_high=-150.0)
        with pytest.raises(ValueError):
            CalibrationTarget(emission_low=-150.0, emission_high=-100.0,
                              depth_ratio=1.5)
