import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from dqdsim import (ELECTRON, HOLE, DeviceSpec, FieldPoint, SolverOptions,
                    adiabatic_sweep, default_device,
                    effective_interdot_distance, emission_lines, molecular,
                    solve_point, spectroscopy, sweep_b, sweep_l, vertical)
from dqdsim.core import mass_scale
from dqdsim.errors import MissingLabelError, NoBoundStateError, \
    OutOfRangeError
from dqdsim.fitting import single_well_ground
from dqdsim.spectroscopy import vertical_spectrum
from dqdsim.vertical import VerticalSpectrum


# dots that bind one electron state at L = 7 nm
ONE_STATE_DEVICE = replace(default_device(7.0), depth_e_dot1=40.0,
                           depth_e_dot2=40.0)


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
        # dots binding one electron state have no "A:s" level
        point = solve_point(device)
        options = SolverOptions(vertical_cap=2)
        vert = vertical_spectrum(ONE_STATE_DEVICE, ELECTRON, options)
        broken = adiabatic_sweep(vert, ELECTRON, [0.0], options)[0]
        assert broken.energy_of_label("A:s") is None
        with pytest.raises(MissingLabelError, match="electron"):
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


def check_sector_stacks(monkeypatch, device, hole, solved):
    """Equal-size sectors share one stack over every field of the sweep,
    B = 0 among them, solved when a level in it is first read: per carrier
    solved, sweep_b shoots one vertical spectrum and makes one diagonalize
    call, on the sector size that holds B:s and A:s. Reading .energies of
    one spectrum then adds each other size once, and the stacks hold every
    level of every field once. Both carriers ask for a vertical spectrum,
    the hole with the electron's as its twin."""
    calls, stacks, verticals, shot = [], [], [], []
    diagonalize = molecular.diagonalize
    hamiltonians = molecular.BlockHamiltonian.hamiltonians
    solve_vertical = spectroscopy.solve_vertical
    lowest_eigenvalues = vertical._lowest_eigenvalues

    def spy(h):
        calls.append(h.shape)
        return diagonalize(h)

    def spy_stack(ham, b_values, size):
        stacks.append((ham.species, size, len(b_values)))
        return hamiltonians(ham, b_values, size)

    def spy_vertical(runs, step, species, n_states, twin=None):
        verticals.append((species, twin))
        return solve_vertical(runs, step, species, n_states, twin)

    def spy_shoot(runs, c_h2, k, upper=None):
        shot.append(c_h2)
        return lowest_eigenvalues(runs, c_h2, k, upper)

    monkeypatch.setattr(molecular, "diagonalize", spy)
    monkeypatch.setattr(molecular.BlockHamiltonian, "hamiltonians",
                        spy_stack)
    monkeypatch.setattr(spectroscopy, "solve_vertical", spy_vertical)
    monkeypatch.setattr(vertical, "_lowest_eigenvalues", spy_shoot)
    fields = [round(0.05 * k, 9) for k in range(161)]  # 0 to 8 T
    _, points = sweep_b(device, fields, hole=hole)
    n = len(fields)
    assert [species for species, _ in verticals] == [ELECTRON, hole]
    assert verticals[0][1] is None and verticals[1][1] is not None
    assert len(shot) == len(solved)
    hams = [molecular.BlockHamiltonian(
        spectroscopy.vertical_spectrum(device, species), species)
        for species in solved]
    line_sizes = []
    for ham, spec in zip(hams, (points[0].electron, points[0].hole)):
        sizes = {spec.chunk.size_of[ham.positions[label]]
                 for label in ("B:s", "A:s")}
        assert len(sizes) == 1 < len(ham.sectors)
        line_sizes.append(sizes.pop())
    # the lines read one stack per carrier, each carrier in turn
    assert stacks == [(species, size, n)
                      for species, size in zip(solved, line_sizes)]
    shapes = [ham.sectors[size][0].shape
              for ham, size in zip(hams, line_sizes)]
    assert calls == [(n, k, m, m) for k, m in shapes]
    for point in (points[0], points[-1]):
        assert len(point.electron.energies) == len(hams[0])
        assert len(point.hole.energies) == len(hams[-1])
    assert sorted(stacks, key=repr) == sorted(
        ((species, size, n) for species, ham in zip(solved, hams)
         for size in range(len(ham.sectors))), key=repr)
    assert len(calls) == len(stacks)
    assert sum(f * k * m for f, k, m, _ in calls) == sum(
        len(ham) * n for ham in hams)


@pytest.mark.parametrize("barrier_l", [2.5, 7.0])
def test_one_eigensolve_per_sector_size_per_chunk(monkeypatch, barrier_l):
    # the default hole is the electron at half scale: only the electron
    # is solved, and the hole's spectra are its spectra halved
    check_sector_stacks(monkeypatch, default_device(barrier_l), HOLE,
                        [ELECTRON])


@pytest.mark.parametrize("barrier_l", [2.5, 7.0])
def test_unscaled_hole_makes_its_own_eigensolves(monkeypatch, barrier_l):
    # a hole mass that is no power of two times the electron's: both
    # carriers are solved
    hole = replace(HOLE, mass_ratio=0.07)
    check_sector_stacks(monkeypatch, default_device(barrier_l), hole,
                        [ELECTRON, hole])


def test_zero_field_sweep_l_makes_no_eigensolve(monkeypatch):
    # B = 0 takes the closed form: no eigensolve, no d/dz, no sectors
    calls = {"diagonalize": 0, "eigh": 0, "dz_matrix": 0, "sectors": 0}

    def spy(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(molecular, "diagonalize",
                        spy("diagonalize", molecular.diagonalize))
    monkeypatch.setattr(np.linalg, "eigh", spy("eigh", np.linalg.eigh))
    monkeypatch.setattr(molecular, "dz_matrix",
                        spy("dz_matrix", molecular.dz_matrix))
    monkeypatch.setattr(molecular.BlockHamiltonian, "sectors", property(
        spy("sectors", molecular.BlockHamiltonian.sectors.func)))
    curve, points = sweep_l(default_device(), [3.0, 7.0, 12.0])
    assert len(curve.samples) == 3 and points[1].electron.labels[0] == "B:s"
    assert calls == {"diagonalize": 0, "eigh": 0, "dz_matrix": 0,
                     "sectors": 0}
    sweep_b(default_device(), [0.0, 1.0])  # the spies do count
    assert all(calls.values())


def test_every_eigensolve_is_a_real_sector_stack(monkeypatch):
    # the gauged sectors are real symmetric: src hands diagonalize only
    # real stacks, and hamiltonians builds one per sector size asked
    # for, holding every sector of that size
    stacks, sectors = [], []
    diagonalize = molecular.diagonalize
    hamiltonians = molecular.BlockHamiltonian.hamiltonians

    def spy_diagonalize(h):
        stacks.append(h)
        return diagonalize(h)

    def spy_hamiltonians(ham, b_values, size):
        sectors.append(ham.sectors[size][0].shape)
        return hamiltonians(ham, b_values, size)

    monkeypatch.setattr(molecular, "diagonalize", spy_diagonalize)
    monkeypatch.setattr(molecular.BlockHamiltonian, "hamiltonians",
                        spy_hamiltonians)
    sweep_b(default_device(), [0.0, 3.0, 8.0])
    assert len(stacks) == 1  # the lines' size only
    point = solve_point(default_device(9.5), FieldPoint(8.0))
    assert len(point.electron.energies) == len(point.electron.chunk.names)
    assert len(stacks) == len(sectors) > 2
    assert [h.shape[1:] for h in stacks] == [(k, m, m) for k, m in sectors]
    assert all(np.isrealobj(h) for h in stacks)


@settings(deadline=None, max_examples=30)
@given(l=st.integers(200, 1500).map(lambda k: k / 100) | st.floats(2.0, 15.0),
       width=st.floats(3.0, 6.0),
       depths=st.tuples(st.floats(150.0, 450.0), st.floats(150.0, 450.0)),
       cap=st.integers(2, 4), quanta=st.integers(2, 6),
       hole=st.sampled_from([HOLE, replace(HOLE, mass_ratio=0.07)]),
       fields=st.lists(st.floats(0.001, 12.0), min_size=1, max_size=4,
                       unique=True).map(sorted),
       rnd=st.randoms(use_true_random=False))
@example(l=7.0, width=4.5, depths=(239.0, 203.0), cap=4, quanta=6,
         hole=HOLE, fields=[3.3, 8.0, 12.0], rnd=random.Random(0))
def test_label_reads_equal_the_sorted_levels(l, width, depths, cap, quanta,
                                             hole, fields, rnd):
    # energy_of_label solves one sector size at a time; read first, in any
    # order, each level is bit for bit the one .energies lists under its
    # label afterwards, and with the dense scatter of one eigensolve per
    # sector the levels solve the dense complex H
    d1, d2 = max(depths), min(depths)
    device = DeviceSpec(well_width_h=width, barrier_l=l, depth_e_dot1=d1,
                        depth_e_dot2=d2, depth_h_dot1=d1 / 2,
                        depth_h_dot2=d2 / 2)
    options = SolverOptions(vertical_cap=cap, lateral_quanta=quanta)
    hams = [molecular.BlockHamiltonian(
        vertical_spectrum(device, species, options), species, options)
        for species in (ELECTRON, hole)]
    assume(all(len(ham.vertical.energies) > 1 for ham in hams))
    _, points = sweep_b(device, fields, options, ELECTRON, hole)
    for carrier, ham in enumerate(hams):
        spectra = [(point.electron, point.hole)[carrier] for point in points]
        basis = oracles.basis_of(ham)
        names = [oracles.label_of(basis, i) for i in range(len(ham))]
        for spec in spectra:
            rnd.shuffle(names)
            first = [spec.energy_of_label(name) for name in names]
            assert spec.energy_of_label("C:s") is None
            assert sorted(spec.labels) == sorted(names)
            after = [spec.energies[spec.labels.index(name)] for name in names]
            assert np.array(first).tobytes() == np.array(after).tobytes()
        for dense in oracles.dense_spectra(ham, spectra):
            assert oracles.gauge_residual(ham, dense) <= 1e-10


@pytest.mark.parametrize("fields", [[0.0], [8.0], [0.0, 3.0, 8.0]])
def test_one_bound_state_lacks_the_antibonding_line(fields):
    # dots binding one electron state: the lines find no "A:s" electron
    # level at any field, and say so
    options = SolverOptions(vertical_cap=2)
    vert = vertical_spectrum(ONE_STATE_DEVICE, ELECTRON, options)
    assert vert.labels == ("B",)
    with pytest.raises(MissingLabelError, match=r"^no level labeled 'A:s' "
                                                r"in the electron spectrum$"):
        sweep_b(ONE_STATE_DEVICE, fields, options)


def scaled_hole(r):
    """A hole whose H is the electron's times r, a power of two."""
    return replace(HOLE, mass_ratio=ELECTRON.mass_ratio / r,
                   lateral_quantum=r * ELECTRON.lateral_quantum)


def assert_same_spectra(found, expected):
    for spec, ref in zip(found, expected, strict=True):
        assert spec.b == ref.b and spec.labels == ref.labels
        assert spec.energies.tobytes() == ref.energies.tobytes()


class TestScaledHole:
    """A hole whose H is the electron's times a power of two r is not
    solved: sweep_b scales the electron's spectra, bit for bit what the
    hole's own solve gives, and anything else is solved directly. A hole
    whose vertical problem alone is the electron's times r shares the
    electron's vertical spectrum."""

    @settings(deadline=None, max_examples=40)
    @given(l=st.integers(100, 3000).map(lambda k: k / 100)
           | st.floats(1.0, 30.0),
           width=st.floats(3.0, 6.0),
           depths=st.tuples(st.floats(100.0, 450.0), st.floats(100.0, 450.0)),
           r=st.sampled_from([0.25, 0.5, 1.0]),
           cap=st.integers(2, 4), quanta=st.integers(2, 6),
           step=st.sampled_from([0.01, 0.007, 0.0025]),
           fields=st.lists(st.just(0.0) | st.floats(0.0, 12.0), min_size=1,
                           max_size=4, unique=True).map(sorted))
    @example(l=7.0, width=4.5, depths=(239.0, 203.0), r=0.5, cap=4,
             quanta=6, step=0.01, fields=[0.0, 3.3, 8.0, 12.0])
    # a subnormal field: exact only because adiabatic_sweep rounds it to 0
    @example(l=1.0, width=5.0, depths=(100.0, 166.0), r=0.25, cap=2,
             quanta=3, step=0.007, fields=[2.2250738585e-313])
    def test_sweep_b_hole_is_its_own_solve(self, l, width, depths, r, cap,
                                          quanta, step, fields):
        hole = scaled_hole(r)
        d1, d2 = max(depths), min(depths)
        device = DeviceSpec(well_width_h=width, barrier_l=l,
                            depth_e_dot1=d1, depth_e_dot2=d2,
                            depth_h_dot1=r * d1, depth_h_dot2=r * d2)
        options = SolverOptions(grid_step=step, vertical_cap=cap,
                                lateral_quanta=quanta)
        e_vertical = vertical_spectrum(device, ELECTRON, options)
        # the lines need the antibonding level: two bound states
        assume(len(e_vertical.energies) > 1)
        h_vertical = vertical_spectrum(device, hole, options, e_vertical)
        assert h_vertical.scale == r
        assert spectroscopy.hole_scale(ELECTRON, hole, h_vertical) == r
        h_direct = vertical_spectrum(device, hole, options)
        assert h_direct.scale is None
        # nothing is shot for the scaled hole; its own solve shoots the
        # electron's probes times r
        assert h_vertical.shoots == 0
        assert h_direct.shoots == e_vertical.shoots > 0
        assert h_vertical.energies.tobytes() == h_direct.energies.tobytes()
        assert (h_vertical.wavefunctions.tobytes()
                == h_direct.wavefunctions.tobytes())
        # the scaled hole builds its vectors from its own runs: the
        # electron's bit for bit, in an array of its own
        assert h_vertical.wavefunctions is not e_vertical.wavefunctions
        assert (h_vertical.wavefunctions.tobytes()
                == e_vertical.wavefunctions.tobytes())
        _, points = sweep_b(device, fields, options, ELECTRON, hole)
        direct = adiabatic_sweep(h_direct, hole, fields, options)
        assert_same_spectra([p.hole for p in points], direct)
        # the scaled levels, with the electron's sector eigenvectors in the
        # hole's gauge phases, solve the hole's dense complex H: only the
        # phases differ
        e_gauged = molecular.BlockHamiltonian(
            e_vertical, replace(ELECTRON, hyz_sign=hole.hyz_sign), options)
        h_ham = molecular.BlockHamiltonian(h_direct, hole, options)
        for dense in oracles.dense_spectra(e_gauged,
                                           [p.hole for p in points]):
            assert oracles.gauge_residual(h_ham, dense) <= 1e-10

    @settings(deadline=None, max_examples=40)
    @given(depth=st.floats(50.0, 800.0), width=st.floats(3.0, 6.0),
           uncoupled_l=st.floats(20.0, 60.0),
           r=st.sampled_from([0.25, 0.5, 1.0]),
           step=st.sampled_from([0.01, 0.007, 0.0025]))
    def test_single_well_scales(self, depth, width, uncoupled_l, r, step):
        options = SolverOptions(grid_step=step)
        assert (single_well_ground(depth * r, width, uncoupled_l,
                                   scaled_hole(r), options)
                == r * single_well_ground(depth, width, uncoupled_l,
                                          ELECTRON, options))

    def test_mass_scale(self):
        assert mass_scale(ELECTRON, HOLE) == 0.5
        assert mass_scale(ELECTRON, scaled_hole(0.25)) == 0.25
        assert mass_scale(ELECTRON, ELECTRON) == 1.0
        assert mass_scale(HOLE, ELECTRON) == 2.0
        for mass in (0.07, 0.09, math.nextafter(0.06, 1.0)):
            assert mass_scale(ELECTRON, replace(HOLE, mass_ratio=mass)) is None

    @pytest.mark.parametrize("nudge, shots", [
        ("mass_ratio", 2), ("lateral_quantum", 1), ("depth_h_dot1", 2),
        ("depth_h_dot2", 2)])
    def test_one_ulp_off_takes_the_direct_path(self, monkeypatch, nudge,
                                               shots):
        # one ulp off the exact scale, the hole's molecular spectra are
        # solved, and equal that solve's; its vertical spectrum is shot
        # unless only the lateral quantum is off
        hole, device = HOLE, default_device(7.0)
        if nudge in ("mass_ratio", "lateral_quantum"):
            hole = replace(hole, **{nudge: math.nextafter(
                getattr(hole, nudge), math.inf)})
        else:
            device = replace(device, **{nudge: math.nextafter(
                getattr(device, nudge), 0.0)})
        solved, shot = [], []
        sweep = spectroscopy.adiabatic_sweep
        lowest_eigenvalues = vertical._lowest_eigenvalues

        def spy(vert, species, b_values, options):
            solved.append(species)
            return sweep(vert, species, b_values, options)

        def spy_shoot(runs, c_h2, k, upper=None):
            shot.append(c_h2)
            return lowest_eigenvalues(runs, c_h2, k, upper)

        monkeypatch.setattr(spectroscopy, "adiabatic_sweep", spy)
        monkeypatch.setattr(vertical, "_lowest_eigenvalues", spy_shoot)
        fields = [0.0, 3.3, 8.0]
        _, points = sweep_b(device, fields, hole=hole)
        assert solved == [ELECTRON, hole]
        assert len(shot) == shots
        monkeypatch.undo()
        e_vertical = vertical_spectrum(device, ELECTRON)
        assert spectroscopy.hole_scale(ELECTRON, hole, vertical_spectrum(
            device, hole, twin=e_vertical)) is None
        direct = adiabatic_sweep(vertical_spectrum(device, hole), hole,
                                 fields)
        assert_same_spectra([p.hole for p in points], direct)


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

    def test_repeated_distance_rejected_before_any_solve(self, device,
                                                         monkeypatch):
        def unexpected(*args):
            raise AssertionError("a point was solved")

        monkeypatch.setattr(spectroscopy, "solve_point", unexpected)
        with pytest.raises(ValueError, match=r"^l_values must be strictly "
                                             r"ascending at L=7\.0 nm$"):
            sweep_l(device, [5.0, 7.0, 7.0, 9.0])

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
        # a repeated field is rejected as a repeated distance is
        with pytest.raises(ValueError, match=r"^b_values must be strictly "
                                             r"ascending at B=8\.0 T$"):
            sweep_b(device, [0.0, 8.0, 8.0])


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

    @pytest.mark.parametrize("l_star", [7.0, 10.0])
    def test_brentq_reuses_the_range_solves(self, device, l_star,
                                            monkeypatch):
        # the range check solves L_MIN and L_MAX once, and brent starts
        # from them; bisection to 0.01 nm took 2 + 13 = 15 solves, brent
        # on the gap itself up to 12, on the log of the splitting 7
        target = solve_point(default_device(l_star)).gap
        solved = []

        def counting(device, *args):
            solved.append(device.barrier_l)
            return solve_point(device, *args)

        monkeypatch.setattr(spectroscopy, "solve_point", counting)
        recovered = effective_interdot_distance(target, device)
        assert len(solved) <= 7
        assert solved[:2] == [spectroscopy.L_MIN, spectroscopy.L_MAX]
        assert len(set(solved)) == len(solved)
        assert abs(recovered - l_star) <= 0.005

    @pytest.mark.parametrize("tol", [0.0, float("nan")])
    def test_non_positive_tolerance_rejected_before_solving(
            self, device, tol, monkeypatch):
        # no root finder can stop at a zero or NaN width
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking tol")

        monkeypatch.setattr(spectroscopy, "solve_point", no_solve)
        with pytest.raises(ValueError, match="tol"):
            effective_interdot_distance(40.0, device, tol=tol)

    def test_nan_gap_rejected_before_solving(self, device, monkeypatch):
        # a NaN gap lies in no range: it is refused before the two range
        # solves, not after them as out of range
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking gap")

        monkeypatch.setattr(spectroscopy, "solve_point", no_solve)
        with pytest.raises(ValueError, match="gap"):
            effective_interdot_distance(float("nan"), device)

    @pytest.mark.parametrize("end", [spectroscopy.L_MIN, spectroscopy.L_MAX])
    def test_range_ends_invert_to_themselves(self, device, end,
                                             monkeypatch):
        # the log of the splitting is exactly 0 at either end's own gap,
        # so brent returns that end from the two range solves alone
        target = solve_point(device.with_barrier(end)).gap
        solved = []

        def counting(device, *args):
            solved.append(device.barrier_l)
            return solve_point(device, *args)

        monkeypatch.setattr(spectroscopy, "solve_point", counting)
        assert effective_interdot_distance(target, device) == end
        assert solved == [spectroscopy.L_MIN, spectroscopy.L_MAX]

    @settings(deadline=None, max_examples=30)
    @given(depth1=st.floats(200.0, 280.0), detuning=st.floats(20.0, 50.0),
           l_star=st.integers(300, 1200).map(lambda k: round(k * 0.01, 2))
           | st.floats(3.0, 12.0))
    @example(depth1=239.0, detuning=50.0, l_star=4.62)
    @example(depth1=239.0, detuning=50.0, l_star=7.003)
    def test_drawn_devices_invert_in_seven_solves(self, depth1, detuning,
                                                  l_star):
        # devices drawn as the inverse benchmark draws them, L* on and off
        # the 0.01 nm lattice: brent on the log of the splitting lands
        # within tol of a sign change of gap(L) - gap in at most 7 solves
        solved, recovered, target, device = invert_counting(
            depth1, detuning, l_star)
        assert len(solved) <= 7
        tol = 0.01 + 1e-9  # brent's width is xtol + 4 eps |x|
        ends = [max(recovered - tol, spectroscopy.L_MIN),
                min(recovered + tol, spectroscopy.L_MAX)]
        low_l, high_l = (solve_point(device.with_barrier(l)).gap
                         for l in ends)
        assert low_l >= target >= high_l
        # the log's argument stays positive wherever brent looked
        floor = solved[spectroscopy.L_MAX] - spectroscopy.SPLITTING_FLOOR
        assert all(gap > floor for gap in solved.values())

    def test_mean_solves_over_drawn_devices(self):
        # 24 draws of the inverse benchmark's ranges: brent on the gap
        # itself took 9.8 solves on average and up to 12
        rng = random.Random(0)
        counts = [len(invert_counting(200.0 + 80.0 * rng.random(),
                                      20.0 + 30.0 * rng.random(),
                                      rng.randrange(300, 1201) * 0.01)[0])
                  for _ in range(24)]
        assert max(counts) <= 7
        assert sum(counts) / len(counts) <= 5.5


def invert_counting(depth1, detuning, l_star):
    """The distinct solves of one inversion, as {L: gap}, the recovered
    L, the gap inverted (the device's own at l_star) and the device."""
    device = replace(default_device(7.0), depth_e_dot1=depth1,
                     depth_e_dot2=depth1 - detuning,
                     depth_h_dot1=0.5 * depth1,
                     depth_h_dot2=0.5 * (depth1 - detuning))
    target = solve_point(device.with_barrier(l_star)).gap
    solved = {}
    real = spectroscopy.solve_point

    def counting(device, *args):
        point = real(device, *args)
        solved[device.barrier_l] = point.gap
        return point

    spectroscopy.solve_point = counting
    try:
        recovered = effective_interdot_distance(target, device)
    finally:
        spectroscopy.solve_point = real
    return solved, recovered, target, device
