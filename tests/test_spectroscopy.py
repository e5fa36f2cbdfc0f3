from dataclasses import replace

import numpy as np
import pytest

from dqdsim import (ELECTRON, HOLE, DeviceSpec, FieldPoint, default_device,
                    effective_interdot_distance, emission_lines, molecular,
                    solve_point, spectroscopy, sweep_b, sweep_l)
from dqdsim.errors import MissingLabelError, NoBoundStateError, \
    OutOfRangeError
from dqdsim.fitting import single_well_ground
from dqdsim.vertical import VerticalSpectrum


def uncoupled_gap_oracle(device, uncoupled_l=50.0):
    """Sum of isolated-dot level differences from single-well solves, each
    dot alone in the device at L = uncoupled_l."""
    gap = 0.0
    for species in (ELECTRON, HOLE):
        d1, d2 = device.depths_for(species)
        gap += (single_well_ground(d2, device.well_width_h, uncoupled_l,
                                   species)
                - single_well_ground(d1, device.well_width_h, uncoupled_l,
                                     species))
    return gap


class TestEmissionLines:
    def test_uncoupled_limit_matches_single_dot_oracle(self):
        device = default_device(50.0)
        gap = solve_point(device).gap
        assert gap == pytest.approx(uncoupled_gap_oracle(device), abs=1e-6)

    def test_gap_near_measured_value_at_l7(self, device):
        assert solve_point(device).gap == pytest.approx(47.5, abs=3.0)

    def test_identical_dots_gap_is_sum_of_splittings(self):
        device = DeviceSpec(well_width_h=4.5, barrier_l=7.0,
                            depth_e_dot1=239.0, depth_e_dot2=239.0,
                            depth_h_dot1=119.5, depth_h_dot2=119.5)
        point = solve_point(device)
        e_split = (point.electron.energy_of_label("A:s")
                   - point.electron.energy_of_label("B:s"))
        h_split = (point.hole.energy_of_label("A:s")
                   - point.hole.energy_of_label("B:s"))
        assert e_split > 0 and h_split > 0
        assert point.gap == pytest.approx(e_split + h_split, abs=1e-9)

    def test_line_order_and_fields(self, device):
        point = solve_point(device, FieldPoint(0.0))
        low, high = point.lines
        assert low.label == "bonding-exciton"
        assert high.label == "antibonding-exciton"
        assert high.energy >= low.energy
        assert low.b == 0.0

    def test_offset_and_binding_cancel_in_gap(self, device):
        shifted = replace(device, reference_offset=1234.567,
                          binding_energy=0.0)
        gap_base = solve_point(device).gap
        gap_shift = solve_point(shifted).gap
        assert gap_shift == pytest.approx(gap_base, abs=1e-9)
        # the lines themselves do move
        base_low = solve_point(device).lines[0].energy
        shifted_low = solve_point(shifted).lines[0].energy
        assert shifted_low == pytest.approx(base_low + 1234.567 + 25.0,
                                            abs=1e-9)

    def test_missing_label_raises(self, device):
        point = solve_point(device)
        broken = replace(point.electron,
                         labels=tuple(l if l != "A:s" else "A:s?"
                                      for l in point.electron.labels))
        with pytest.raises(MissingLabelError):
            emission_lines(broken, point.hole, device)

    def test_mismatched_fields_rejected(self, device):
        e0 = solve_point(device, FieldPoint(0.0)).electron
        h1 = solve_point(device, FieldPoint(1.0)).hole
        with pytest.raises(ValueError):
            emission_lines(e0, h1, device)


def test_zero_field_reads_no_eigenvectors(monkeypatch):
    def unread(*_):
        raise AssertionError("eigenvectors read at B = 0")

    monkeypatch.setattr(VerticalSpectrum, "wavefunctions", property(unread))
    monkeypatch.setattr(molecular, "dz_matrix", unread)
    device = default_device(7.0)
    point = solve_point(device)
    assert point.electron.energy_of_label("A:s") is not None
    assert f"{point.gap:.6f}" == "46.650122"
    curve, _ = sweep_l(device, [7.0])
    assert f"{curve.gaps()[0]:.6f}" == "46.650122"
    curve, _ = sweep_b(device, [0.0])
    assert f"{curve.gaps()[0]:.6f}" == "46.650122"


class TestSweepL:
    def test_gap_strictly_decreasing(self, device):
        ls = [2.0, 3.0, 5.0, 7.0, 9.5, 12.0, 15.0, 20.0]
        curve, _ = sweep_l(device, ls)
        gaps = curve.gaps()
        assert np.all(np.diff(gaps) < 0)

    @pytest.mark.parametrize("start", [2.5, 7.0, 14.8])
    def test_gap_strictly_decreasing_on_lattice(self, device, start):
        # every step of the 0.01 nm lattice, the default grid step, over
        # 0.2 nm at both ends and in the middle of the 2.5-15 nm range;
        # off the lattice the grid rounds the barrier and gap(L) steps
        ls = np.round(start + 0.01 * np.arange(21), 2)
        curve, _ = sweep_l(device, ls)
        assert np.all(np.diff(curve.gaps()) < 0)

    def test_flat_tail_beyond_15nm(self, device):
        curve, _ = sweep_l(device, [15.0, 50.0])
        gaps = curve.gaps()
        assert abs(gaps[0] - gaps[1]) < 0.3
        assert gaps[1] == pytest.approx(uncoupled_gap_oracle(device),
                                        abs=0.01)

    def test_doubled_depths_keep_flat_tail(self):
        device = DeviceSpec(well_width_h=4.5, barrier_l=7.0,
                            depth_e_dot1=478.0, depth_e_dot2=406.0,
                            depth_h_dot1=239.0, depth_h_dot2=203.0)
        curve, _ = sweep_l(device, [45.0, 50.0])
        gaps = curve.gaps()
        assert abs(gaps[0] - gaps[1]) < 0.01
        assert gaps[1] != pytest.approx(
            uncoupled_gap_oracle(default_device()), abs=1.0)

    def test_threads_do_not_change_results(self, device):
        ls = [5.0, 7.0, 9.5]
        serial, _ = sweep_l(device, ls, threads=1)
        threaded, _ = sweep_l(device, ls, threads=3)
        assert serial.samples == threaded.samples

    def test_errors_carry_offending_distance(self):
        device = DeviceSpec(well_width_h=4.5, barrier_l=7.0,
                            depth_e_dot1=0.0, depth_e_dot2=0.0,
                            depth_h_dot1=0.0, depth_h_dot2=0.0)
        with pytest.raises(NoBoundStateError, match="at L=5.0"):
            sweep_l(device, [5.0, 7.0])

    def test_input_validation(self, device):
        with pytest.raises(ValueError):
            sweep_l(device, [7.0, 5.0])
        with pytest.raises(ValueError):
            sweep_l(device, [-1.0, 5.0])

    def test_electron_level_tables_labeled(self, device):
        _, points = sweep_l(device, [7.0])
        labels = points[0].electron.labels
        assert labels is not None and "B:s" in labels and "A:p_y" in labels


class TestSweepB:
    def test_zero_field_point_matches_sweep_l(self, device):
        curve_b, _ = sweep_b(device, [0.0])
        curve_l, _ = sweep_l(device, [7.0])
        assert curve_b.gaps()[0] == pytest.approx(curve_l.gaps()[0],
                                                  abs=1e-12)

    def test_lower_line_rises_diamagnetically(self, device):
        _, points = sweep_b(device, [0.0, 2.0, 4.0, 6.0, 8.0])
        low = [p.lines[0].energy for p in points]
        assert all(b >= a for a, b in zip(low, low[1:]))

    def test_weakly_coupled_geometry_decouples_slightly(self):
        device = default_device(9.5)
        curve, points = sweep_b(device, [0.0, 8.0])
        gaps = curve.gaps()
        # past the level crossing the antibonding line is pushed down
        assert gaps[1] < gaps[0]
        low = [p.lines[0].energy for p in points]
        high = [p.lines[1].energy for p in points]
        assert low[1] > low[0] and high[1] > high[0]

    def test_unsorted_fields_rejected(self, device):
        with pytest.raises(ValueError):
            sweep_b(device, [1.0, 0.0])


class TestEffectiveDistance:
    def test_round_trip(self, device):
        gap = solve_point(device).gap
        recovered = effective_interdot_distance(gap, device)
        assert recovered == pytest.approx(7.0, abs=0.02)

    def test_out_of_range_low_and_high(self, device):
        with pytest.raises(OutOfRangeError):
            effective_interdot_distance(1.0, device)
        with pytest.raises(OutOfRangeError):
            effective_interdot_distance(200.0, device)

    def test_known_gap_inverts_to_larger_distance(self, device):
        target = solve_point(default_device(10.0)).gap
        recovered = effective_interdot_distance(target, device)
        assert recovered == pytest.approx(10.0, abs=0.02)

    @pytest.mark.parametrize("tol", [0.0, float("nan")])
    def test_non_positive_tolerance_rejected_before_solving(
            self, device, tol, monkeypatch):
        # bisecting to a zero or NaN width would never stop
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking tol")

        monkeypatch.setattr(spectroscopy, "solve_point", no_solve)
        with pytest.raises(ValueError, match="tol"):
            effective_interdot_distance(40.0, device, tol=tol)
