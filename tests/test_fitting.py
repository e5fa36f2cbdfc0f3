import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dqdsim import (ELECTRON, HOLE, CalibrationResult, CalibrationTarget,
                    PowerLawParams, SolverOptions, calibrate_depths,
                    default_device, eval_powerlaw, fit_powerlaw, fitting,
                    solve_point)
from dqdsim.errors import NoConvergenceError, SingularFitError
from dqdsim.fitting import brent, single_well_ground

MEASURED_LAW = PowerLawParams(amplitude_a=33.0e3, offset_delta=4.88,
                           offset_c=27.0)
GOLDEN_GAPS = Path(__file__).parent / "golden" / "sweep_l" / "gap_vs_L.csv"
EPS = sys.float_info.epsilon


def recorded(f):
    """f, and the list of the points it is evaluated at."""
    points = []

    def g(x):
        points.append(x)
        return f(x)
    return g, points


class TestBrent:
    @settings(deadline=None, max_examples=200)
    @example(family="cubic", coeffs=[1.0, 0.0, 0.0, 0.0], ends=(2.0, -1.0),
             xtol=1e-14, rtol=4 * EPS)
    # dblk * dpre * (fblk - fpre) underflows to 0: brentq.c's step is then
    # inf or NaN, fails the step test, and it bisects
    @example(family="cubic", coeffs=[4.2740199894149484e-122, 0, 0,
                                     4.2740199894149484e-122],
             ends=(0.0, -2.0), xtol=0.0625, rtol=4 * EPS)
    @given(family=st.sampled_from(["monotone", "cubic"]),
           coeffs=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
           ends=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
           xtol=st.floats(1e-14, 1e-1),
           rtol=st.sampled_from([4 * EPS, 1e-12]))
    def test_same_points_and_root_as_scipy(self, family, coeffs, ends, xtol,
                                           rtol):
        from scipy.optimize import brentq  # the oracle only

        c0, c1, c2, c3 = coeffs
        if family == "monotone":  # strictly increasing through x = c0
            def f(x):
                return (1.0 + abs(c1)) * (x - c0) + abs(c2) * math.tanh(
                    x - c0) + abs(c3) * (x - c0) ** 3
        else:
            def f(x):
                return ((c0 * x + c1) * x + c2) * x + c3
        a, b = sorted(ends)
        assume(f(a) * f(b) < 0)
        ours, our_points = recorded(f)
        theirs, their_points = recorded(f)
        try:
            root = brentq(theirs, a, b, xtol=xtol, rtol=rtol)
        except RuntimeError:  # 100 steps short of xtol, as at a triple root
            with pytest.raises(NoConvergenceError):
                brent(ours, a, b, xtol=xtol, rtol=rtol)
        else:
            assert brent(ours, a, b, xtol=xtol, rtol=rtol) == root
        assert our_points == their_points

    def test_ends_of_one_sign_rejected(self):
        with pytest.raises(ValueError, match="share a sign"):
            brent(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-6)

    def test_gives_up_after_100_steps(self):
        # a step at 1e-200 inside [-1e300, 1e300] needs ~1,700 halvings
        f, points = recorded(lambda x: -1.0 if x < 1e-200 else 1.0)
        with pytest.raises(NoConvergenceError, match="within 100 steps"):
            brent(f, -1e300, 1e300, xtol=1e-300)
        assert len(points) == 2 + 100


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        good = [(3.0, 50.0), (7.0, 40.0), (9.5, 38.0)]
        for k in range(3):
            for point in ((bad, good[k][1]), (good[k][0], bad)):
                points = good[:k] + [point] + good[k + 1:]
                with pytest.raises(ValueError, match=rf"point \(L={point[0]}"
                                   rf", gap={point[1]}\) must be finite"):
                    fit_powerlaw(points)

    @staticmethod
    def slope(points, delta):
        """A sum r_i/(L_i + delta)^4, with (A, C) projected at delta: the
        derivative of the squared residuals in delta, over -6."""
        ls, gaps = np.array(points, dtype=float).T
        x = 1.0 / (ls + delta) ** 3
        xc = x - x.mean()
        a = xc @ (gaps - gaps.mean()) / np.sum(xc ** 2)
        residuals = a * x + gaps.mean() - a * x.mean() - gaps
        return a * np.sum(residuals / (ls + delta) ** 4)

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4])
    def test_delta_is_a_sign_change_of_the_slope(self, seed):
        # the golden sweep, and noisy samples of the measured law
        if seed is None:
            points = np.loadtxt(GOLDEN_GAPS, delimiter=",", skiprows=1)
        else:
            ls = np.arange(3.0, 15.0, 1.0)
            noise = np.random.default_rng(seed).normal(0.0, 0.1, len(ls))
            points = [(l, eval_powerlaw(MEASURED_LAW, l) + n)
                      for l, n in zip(ls, noise)]
        delta = fit_powerlaw(points)[0].offset_delta
        assert delta > 0
        # brent's last bracket is narrower than xtol + rtol |delta|
        width = 1e-12 + 4 * EPS * delta
        assert (self.slope(points, delta - width)
                * self.slope(points, delta + width)) <= 0

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

    @settings(deadline=None, max_examples=20)
    @given(depths=st.tuples(st.floats(150.0, 300.0), st.floats(150.0, 300.0)),
           width=st.floats(4.5, 5.5),
           binding=st.floats(0.0, 40.0), offset=st.floats(-200.0, 200.0))
    # off the 0.01 nm grid, with nodes on both inner well edges: well 2 is
    # well 1's mirror image, so dot 2 calibrated as well 1 comes back
    @example(width=4.875, depths=(155.0, 150.0), binding=25.0, offset=0.0)
    def test_round_trip_recovers_drawn_depths(self, depths, width, binding,
                                              offset):
        # dots closer than a few meV are still tunnel coupled at 50 nm
        # (3.6e-3 meV at 150/150), so the drawn pair is kept detuned; the
        # coupling grows as the wells narrow (150/155 is recovered to
        # 2.7e-6 meV at 4.5 nm but 1.3e-5 meV at 4.0 nm)
        assume(abs(depths[0] - depths[1]) >= 5.0)
        d1, d2 = max(depths), min(depths)
        device = replace(default_device(50.0), well_width_h=width,
                         binding_energy=binding, reference_offset=offset,
                         depth_e_dot1=d1, depth_e_dot2=d2,
                         depth_h_dot1=0.5 * d1, depth_h_dot2=0.5 * d2)
        low, high = solve_point(device).lines
        result = calibrate_depths(CalibrationTarget(low.energy, high.energy),
                                  device)
        assert result.depth_e_dot1 == pytest.approx(d1, abs=1e-5)
        assert result.depth_e_dot2 == pytest.approx(d2, abs=1e-5)
        assert result.depth_h_dot1 == pytest.approx(0.5 * d1, abs=1e-5)
        assert result.depth_h_dot2 == pytest.approx(0.5 * d2, abs=1e-5)

    def test_uncoupled_l_sets_the_solved_geometry(self, monkeypatch):
        spans = []
        solve = fitting.solve_vertical

        def spy(potential, grid, species, **kwargs):
            spans.append(grid.n_points * grid.step)
            return solve(potential, grid, species, **kwargs)

        monkeypatch.setattr(fitting, "solve_vertical", spy)
        target = CalibrationTarget(emission_low=-138.8, emission_high=-104.1,
                                   uncoupled_l=35.0)
        calibrate_depths(target, options=SolverOptions(padding=25.0))
        # both wells, the barrier at uncoupled_l, and padding on both sides
        assert spans and all(span == pytest.approx(2 * 4.5 + 35.0 + 2 * 25.0)
                             for span in spans)

    # the lines of the default device at L = 50 nm
    LINES = (-138.85586529514225, -104.0928318257862)

    @classmethod
    def solved_wells(cls, monkeypatch, hole=HOLE, depth_ratio=0.5):
        """The (depth, carrier) of every single-well solve of a calibration
        to LINES, and its result."""
        calls = []
        solve = fitting.single_well_ground

        def spy(depth, width, uncoupled_l, species, options):
            calls.append((depth, species.name))
            return solve(depth, width, uncoupled_l, species, options)

        monkeypatch.setattr(fitting, "single_well_ground", spy)
        result = calibrate_depths(CalibrationTarget(
            *cls.LINES, depth_ratio=depth_ratio), hole=hole)
        return calls, result

    def test_each_depth_solved_once(self, monkeypatch):
        calls, result = self.solved_wells(monkeypatch)
        # 22 line evaluations, 8 of them repeats, without the per-call memo;
        # the default hole is the electron at half scale (depth_ratio 0.5,
        # twice the mass), so its level is the electron's halved, unsolved
        assert len(calls) == 14
        assert {name for _, name in calls} == {"electron"}
        assert len({depth for depth, _ in calls}) == len(calls)
        # bit for bit the result of solving every evaluation afresh
        assert result == CalibrationResult(
            depth_e_dot1=239.00000008724726, depth_e_dot2=203.00000023159816,
            depth_h_dot1=119.50000004362363, depth_h_dot2=101.50000011579908,
            residual_low=-8.793634265202854e-08,
            residual_high=-2.2003528954428475e-07)

    def test_unscaled_hole_is_solved_too(self, monkeypatch):
        # a hole mass that is not a power of two times the electron's
        # solves both carriers at each of the 14 depths, the hole at half
        calls, result = self.solved_wells(
            monkeypatch, replace(HOLE, mass_ratio=0.07))
        assert len(calls) == 28 and len(set(calls)) == len(calls)
        electron = [depth for depth, name in calls if name == "electron"]
        hole = [depth for depth, name in calls if name == "hole"]
        assert hole == [0.5 * depth for depth in electron]
        assert len(set(electron)) == 14
        assert result.depth_e_dot1 != 239.00000008724726

    @pytest.mark.parametrize("nudge", ["mass_ratio", "depth_ratio"])
    def test_one_ulp_off_solves_the_hole(self, monkeypatch, nudge):
        # one ulp off the exact half scale the hole is solved at every
        # depth, and the residuals are those of direct solves of both dots
        hole, ratio = HOLE, 0.5
        if nudge == "mass_ratio":
            hole = replace(HOLE, mass_ratio=math.nextafter(0.06, 1.0))
        else:
            ratio = math.nextafter(0.5, 1.0)
        calls, result = self.solved_wells(monkeypatch, hole, ratio)
        assert len(calls) == 28
        assert [d for d, name in calls if name == "hole"] == [
            d * ratio for d, name in calls if name == "electron"]
        device = default_device(50.0)
        for depth, line, residual in (
                (result.depth_e_dot1, self.LINES[0], result.residual_low),
                (result.depth_e_dot2, self.LINES[1], result.residual_high)):
            e_level = single_well_ground(depth, 4.5, 50.0, ELECTRON)
            h_level = single_well_ground(depth * ratio, 4.5, 50.0, hole)
            assert device.line_energy(
                e_level + ELECTRON.lateral_quantum,
                h_level + hole.lateral_quantum) - line == residual

    def test_unreachable_target_fails(self):
        # above the line of an empty well (offset + zero point - binding)
        target = CalibrationTarget(emission_low=-60.0, emission_high=100.0)
        with pytest.raises(NoConvergenceError):
            calibrate_depths(target)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            CalibrationTarget(emission_low=-100.0, emission_high=-150.0)
        with pytest.raises(ValueError):
            CalibrationTarget(emission_low=-150.0, emission_high=-100.0,
                              depth_ratio=1.5)
