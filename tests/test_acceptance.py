"""Acceptance suite: one test and one printed pass/fail line per criterion.

Criteria 6 and 7 are asserted exactly as specified. The model, with the
reference parameters and the prescribed adiabatic level tracking, does not
reproduce those two windows (see the failure messages for the computed
values); they are left to fail rather than loosening the assertions.
"""

import time
from functools import cache

import numpy as np
from scipy.optimize import brentq

import oracles
from dqdsim import (ELECTRON, CalibrationTarget, FieldPoint,
                    ParticleSpecies, PowerLawParams, SolverOptions,
                    adiabatic_sweep, calibrate_depths, default_device,
                    diagonalize, effective_interdot_distance, eval_powerlaw,
                    fit_powerlaw, solve_point, sweep_b, sweep_l)
from dqdsim.cli import main
from dqdsim.core import kinetic_coefficient
from dqdsim.spectroscopy import vertical_spectrum
from dqdsim.vertical import DoubleWellSpec, Grid1D, dz_matrix, \
    solve_double_well, solve_vertical
from oracles import assemble, build_basis, product_basis, y_matrix

MEASURED_LAW = PowerLawParams(33.0e3, 4.88, 27.0)


def report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}"
    print(line)
    return line


def test_criterion_01_powerlaw_evaluation():
    t0 = time.perf_counter()
    for _ in range(1000):
        at7 = eval_powerlaw(MEASURED_LAW, 7.0)
    per_call = (time.perf_counter() - t0) / 1000
    tail = eval_powerlaw(MEASURED_LAW, 1e9)
    ok = (abs(at7 - 46.68) < 0.005 and abs(tail - 27.0) < 1e-6
          and per_call < 1e-3)
    line = report(1, ok, f"gap law evaluation: L=7 -> {at7:.4f} meV "
                         f"(want 46.68), asymptote {tail:.4f} meV, "
                         f"{per_call * 1e6:.1f} us/call")
    assert ok, line


def test_criterion_02_powerlaw_round_trip():
    t0 = time.perf_counter()
    points = [(l, eval_powerlaw(MEASURED_LAW, l)) for l in (3.0, 7.0, 9.5)]
    params, residuals = fit_powerlaw(points)
    elapsed = time.perf_counter() - t0
    rel = max(abs(params.amplitude_a / 33.0e3 - 1),
              abs(params.offset_delta / 4.88 - 1),
              abs(params.offset_c / 27.0 - 1))
    rms = float(np.sqrt(np.mean(residuals ** 2)))
    ok = rel < 1e-3 and rms < 1e-6 and elapsed < 1.0
    line = report(2, ok, f"3-point refit: worst param error "
                         f"{rel * 100:.4f}% (want < 0.1%), residual rms "
                         f"{rms:.2e} meV, {elapsed:.2f} s")
    assert ok, line


def test_criterion_03_vertical_solver_oracles():
    width, step = 10.0, 0.01
    n = int(round(width / step)) - 1
    grid = Grid1D(-width / 2 + step, -width / 2 + n * step, n)
    species = ParticleSpecies("electron", 1.0, 30.0, -1)
    # a uniform floor -v0 binds exactly the box's lowest 3 levels
    v0 = oracles.box_floor(n, kinetic_coefficient(species) / step ** 2, 3)
    t0 = time.perf_counter()
    box = solve_vertical([(-v0, n)], grid, species, n_states=4)
    t_box = time.perf_counter() - t0
    box_rel = np.max(np.abs((box.energies + v0)
                            / oracles.box_energies(width, 1, 3) - 1.0))
    t0 = time.perf_counter()
    well = solve_double_well(DoubleWellSpec(4.5, 10.0, 239.0, 0.0), ELECTRON)
    t_well = time.perf_counter() - t0
    well_err = abs(well.energies[0]
                   - oracles.finite_well_levels(239.0, 4.5, 0.03)[0])
    ok = (box_rel < 1e-3 and well_err < 0.05
          and t_box < 1.0 and t_well < 1.0)
    line = report(3, ok, f"vertical solver: box error {box_rel * 100:.4f}% "
                         f"(want < 0.1%), finite-well error {well_err:.4f} "
                         f"meV (want < 0.05), solves {t_box:.2f}/"
                         f"{t_well:.2f} s")
    assert ok, line


def test_criterion_04_depth_calibration():
    t0 = time.perf_counter()
    point = solve_point(default_device(50.0))
    target = CalibrationTarget(emission_low=point.lines[0].energy,
                               emission_high=point.lines[1].energy,
                               depth_ratio=0.5)
    result = calibrate_depths(target)
    elapsed = time.perf_counter() - t0
    err1 = abs(result.depth_e_dot1 - 239.0)
    err2 = abs(result.depth_e_dot2 - 203.0)
    holes_half = (result.depth_h_dot1 == result.depth_e_dot1 / 2
                  and result.depth_h_dot2 == result.depth_e_dot2 / 2)
    ok = err1 < 0.1 and err2 < 0.1 and holes_half and elapsed < 10.0
    line = report(4, ok, f"calibration: depths ({result.depth_e_dot1:.3f}, "
                         f"{result.depth_e_dot2:.3f}) meV, errors "
                         f"({err1:.3f}, {err2:.3f}) (want < 0.1), holes "
                         f"exactly half: {holes_half}, {elapsed:.1f} s")
    assert ok, line


def test_criterion_05_coupling_regime():
    t0 = time.perf_counter()
    device = default_device()
    ls = [3.0, 5.0, 7.0, 9.5, 12.0, 15.0, 50.0]
    curve, _ = sweep_l(device, ls)
    gaps = dict(zip(ls, curve.gaps()))
    elapsed = time.perf_counter() - t0
    decreasing = bool(np.all(np.diff(curve.gaps()) < 0))
    strong_coupling = gaps[5.0] - gaps[50.0] > 5.0
    ordering = gaps[3.0] > gaps[7.0] > gaps[9.5]
    at7 = gaps[7.0]
    ok = (decreasing and strong_coupling and ordering
          and abs(at7 - 47.5) <= 3.0 and elapsed < 60.0)
    line = report(5, ok, f"zero-field gap curve: decreasing={decreasing}, "
                         f"gap(5)-gap(50)={gaps[5.0] - gaps[50.0]:.2f} meV "
                         f"(want > 5), gap(7)={at7:.2f} meV "
                         f"(want 47.5 +- 3), {elapsed:.1f} s")
    assert ok, line


def test_criterion_06_field_induced_decoupling():
    t0 = time.perf_counter()
    bs = [float(b) for b in range(9)]
    curve7, points7 = sweep_b(default_device(7.0), bs)
    curve95, _ = sweep_b(default_device(9.5), bs)
    elapsed = time.perf_counter() - t0
    change7 = curve7.gaps()[-1] - curve7.gaps()[0]
    change95 = curve95.gaps()[-1] - curve95.gaps()[0]
    low7 = [p.lines[0].energy for p in points7]
    lower_monotone = all(b >= a for a, b in zip(low7, low7[1:]))
    window7 = -2.25 <= change7 <= -0.75
    small95 = abs(change95) < 0.5
    ok = window7 and lower_monotone and small95 and elapsed < 120.0
    line = report(6, ok, f"field sweep: gap change at L=7 "
                         f"{change7:+.3f} meV (want -1.5 +- 0.75), lower "
                         f"line monotone={lower_monotone}, at L=9.5 "
                         f"{change95:+.3f} meV (want |.| < 0.5), "
                         f"{elapsed:.1f} s")
    assert ok, line


def test_criterion_07_effective_distance():
    t0 = time.perf_counter()
    curve, _ = sweep_b(default_device(7.0), [0.0, 8.0])
    gap_8t = curve.gaps()[-1]
    recovered = effective_interdot_distance(gap_8t, default_device())
    elapsed = time.perf_counter() - t0
    ok = 8.5 <= recovered <= 11.5 and elapsed < 60.0
    line = report(7, ok, f"effective distance from gap(L=7, 8 T)="
                         f"{gap_8t:.2f} meV -> {recovered:.2f} nm "
                         f"(want 10 +- 1.5), {elapsed:.1f} s")
    assert ok, line


def test_criterion_08_level_crossing_location():
    t0 = time.perf_counter()

    @cache  # brentq starts from the two bracket ends solved here
    def separation(l):
        spec = solve_point(default_device(l)).electron
        return (spec.energy_of_label("A:s")
                - spec.energy_of_label("B:p_y"))

    lo, hi = 5.0, 10.0
    bracketed = separation(lo) * separation(hi) < 0
    crossing = (brentq(separation, lo, hi, xtol=0.01) if bracketed
                else float("nan"))
    elapsed = time.perf_counter() - t0
    ok = bracketed and 5.0 <= crossing <= 10.0 and elapsed < 60.0
    line = report(8, ok, f"electron A:s / B:p crossing at L = "
                         f"{crossing:.2f} nm (want within [5, 10]), "
                         f"{elapsed:.1f} s")
    assert ok, line


def test_criterion_09_numerical_properties():
    t0 = time.perf_counter()
    device = default_device()
    checks = {}

    vert = vertical_spectrum(device, ELECTRON)
    dz = dz_matrix(vert)
    psi = vert.wavefunctions
    h = vert.grid.step
    gram = psi.T @ psi * h
    checks["orthonormal"] = np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-8
    nodes_ok = True
    for k in range(len(vert.energies)):
        sig = psi[np.abs(psi[:, k]) > 1e-7 * np.max(np.abs(psi[:, k])), k]
        changes = int(np.sum(np.sign(sig[1:]) != np.sign(sig[:-1])))
        nodes_ok &= changes == k
    checks["sturm_nodes"] = nodes_ok
    checks["dz_antisymmetric"] = np.max(np.abs(dz + dz.T)) < 1e-8

    field = FieldPoint(8.0)
    basis = build_basis(ELECTRON, field, 6)
    ham = assemble(vert, dz, basis, y_matrix(basis, ELECTRON), ELECTRON,
                   field)
    checks["hermitian"] = (np.max(np.abs(ham - ham.conj().T))
                           < 1e-10 * np.max(np.abs(ham)))

    flipped = ParticleSpecies("electron", 0.03, 30.0, +1)
    basis_f = build_basis(flipped, field, 6)
    ham_f = assemble(vert, dz, basis_f, y_matrix(basis_f, flipped), flipped,
                     field)
    checks["sign_flip_invariant"] = bool(np.allclose(
        diagonalize(ham)[0], diagonalize(ham_f)[0], atol=1e-10))

    # second-order perturbation of the A:s level at 0.5 T, weak coupling
    dev95 = default_device(9.5)
    vert95 = vertical_spectrum(dev95, ELECTRON)
    dz95 = dz_matrix(vert95)
    b_small = FieldPoint(0.5)
    spec = adiabatic_sweep(vert95, ELECTRON, [b_small.b])[0]
    basis95 = build_basis(ELECTRON, b_small, 6)
    pb = product_basis(vert95, basis95)
    ham95 = assemble(vert95, dz95, basis95, y_matrix(basis95, ELECTRON),
                     ELECTRON, b_small)
    e0 = np.asarray(pb.e0)
    i = pb.entries.index((1, 0, 0))
    exact = spec.energies[np.argmin(np.abs(spec.energies - e0[i]))]
    pt2 = sum(-abs(ham95[i, k]) ** 2 / (e0[k] - e0[i])
              for k in range(len(pb)) if k != i and ham95[i, k] != 0)
    diamag = 0.5 * (basis95.quantum_y - 30.0)
    e_as_zero = vert95.energies[1] + 30.0 / 2 + 30.0 / 2
    checks["pt2_within_1pct"] = (abs((exact - e_as_zero) - (diamag + pt2))
                                 < 0.01 * abs(pt2))

    e_coarse = solve_double_well(DoubleWellSpec(4.5, 7.0, 239.0, 203.0),
                                 ELECTRON).energies[:2]
    e_fine = solve_double_well(DoubleWellSpec(4.5, 7.0, 239.0, 203.0),
                               ELECTRON, SolverOptions(grid_step=0.005)
                               ).energies[:2]
    checks["grid_convergence"] = np.max(np.abs(e_coarse - e_fine)) < 0.01

    lows = {}
    for cap, quanta in ((4, 6), (6, 8)):
        options = SolverOptions(vertical_cap=cap, lateral_quanta=quanta)
        v = vertical_spectrum(device, ELECTRON, options)
        lows[cap] = adiabatic_sweep(v, ELECTRON, [field.b],
                                    options)[0].energies[:2]
    checks["basis_convergence"] = np.max(np.abs(lows[4] - lows[6])) < 0.05

    elapsed = time.perf_counter() - t0
    failed = [name for name, passed in checks.items() if not passed]
    ok = not failed and elapsed < 120.0
    line = report(9, ok, f"numerical properties: "
                         f"{len(checks) - len(failed)}/{len(checks)} checks "
                         f"pass{' (failed: ' + ', '.join(failed) + ')' if failed else ''}, "
                         f"{elapsed:.1f} s")
    assert ok, line


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text("[sweep]\nb_values = 0, 1, 2\n")
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["sweep-b", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outputs.append((out / "lines_vs_B.csv").read_bytes())
    ok = outputs[0] == outputs[1]
    line = report(10, ok, f"determinism: repeated sweep-b byte-identical = "
                          f"{ok} ({len(outputs[0])} bytes)")
    assert ok, line
