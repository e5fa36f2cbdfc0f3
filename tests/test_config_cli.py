import math
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path

import pytest

from dqdsim import SolverOptions, default_device, errors, fitting, \
    solve_point, spectroscopy
from dqdsim.cli import main
from dqdsim.config import parse_config
from dqdsim.errors import ConfigError

FULL_CONFIG = """
[device]
well_width_h = 4.5
barrier_l = 7.0
depth_e_dot1 = 239.0
depth_e_dot2 = 203.0
depth_h_dot1 = 119.5
depth_h_dot2 = 101.5
binding_energy = 25.0
reference_offset = 0.0

[electron]
mass_ratio = 0.03
lateral_quantum = 30.0

[hole]
mass_ratio = 0.06
lateral_quantum = 15.0

[solver]
grid_step = 0.02
padding = 20.0
vertical_cap = 4
lateral_quanta = 6

[sweep]
l_values = 5, 7, 9.5
b_values = 0, 4, 8
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_full_config(self, tmp_path):
        run = parse_config(write(tmp_path, "full.ini", FULL_CONFIG))
        assert run.device == default_device(7.0)
        assert run.options.grid_step == 0.02
        assert run.l_values == (5.0, 7.0, 9.5)
        assert run.b_values == (0.0, 4.0, 8.0)

    def test_defaults_when_sections_missing(self, tmp_path):
        run = parse_config(write(tmp_path, "empty.ini", "[device]\n"))
        assert run.device == default_device()
        assert run.options.grid_step == 0.01

    def test_keys_are_the_dataclass_fields(self, tmp_path):
        device = replace(default_device(3.0), binding_energy=20.0)
        options = SolverOptions(grid_step=0.02, vertical_cap=3,
                                lateral_quanta=4)
        text = "".join(
            f"[{name}]\n" + "".join(f"{f.name} = {getattr(spec, f.name)}\n"
                                    for f in fields(spec))
            for name, spec in (("device", device), ("solver", options)))
        run = parse_config(write(tmp_path, "fields.ini", text))
        assert run.device == device
        assert run.options == options
        for f in fields(SolverOptions):
            assert type(getattr(run.options, f.name)).__name__ == f.type

    def test_integer_key_rejects_a_fraction(self, tmp_path):
        path = write(tmp_path, "bad.ini", "[solver]\nlateral_quanta = 2.5\n")
        with pytest.raises(ConfigError, match="lateral_quanta.*integer"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "bad.ini", "[device]\nwell_depth = 1\n")
        with pytest.raises(ConfigError, match="well_depth"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, "bad.ini", "[dots]\nn = 2\n")
        with pytest.raises(ConfigError, match="dots"):
            parse_config(path)

    def test_bad_number_rejected(self, tmp_path):
        path = write(tmp_path, "bad.ini", "[device]\nbarrier_l = wide\n")
        with pytest.raises(ConfigError, match="barrier_l"):
            parse_config(path)

    def test_invalid_device_value_rejected(self, tmp_path):
        path = write(tmp_path, "bad.ini", "[device]\nbarrier_l = -3\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_range_syntax(self, tmp_path):
        path = write(tmp_path, "range.ini",
                     "[sweep]\nb_start = 0\nb_stop = 8\nb_step = 2\n")
        run = parse_config(path)
        assert run.b_values == (0.0, 2.0, 4.0, 6.0, 8.0)

    def test_list_and_range_exclusive(self, tmp_path):
        path = write(tmp_path, "bad.ini",
                     "[sweep]\nb_values = 0, 8\nb_start = 0\n"
                     "b_stop = 8\nb_step = 1\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_negative_field_rejected(self, tmp_path):
        path = write(tmp_path, "bad.ini", "[sweep]\nb_values = -1, 8\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/config.ini")


class TestCliSolve:
    def test_default_solve_writes_tables(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve", "--out", str(out)]) == 0
        lines = (out / "lines.csv").read_text().splitlines()
        assert lines[0] == "B_T,line_low_meV,line_high_meV,gap_meV"
        b, low, high, gap = (float(x) for x in lines[1].split(","))
        assert gap == pytest.approx(47.5, abs=3.0)
        assert gap == pytest.approx(high - low, abs=1e-5)
        for name in ("levels_electron.csv", "levels_hole.csv"):
            header = (out / name).read_text().splitlines()[0]
            assert header == "B_T,level_index,label,energy_meV"

    def test_shared_parser_carries_no_flag_over(self, tmp_path, capsys):
        # every main call parses with the one cached parser: a flag given
        # to one call must not reach the next
        for argv in (["solve", "--b", "8"], ["sweep-b", "--svg"]):
            assert main([*argv, "--out", str(tmp_path / "flag")]) == 0
            assert main([argv[0], "--out", str(tmp_path / argv[0])]) == 0
        assert (tmp_path / "solve" / "lines.csv").read_text().splitlines()[
            1].startswith("0.000000,")
        assert (tmp_path / "flag" / "lines_vs_B.svg").exists()
        assert not (tmp_path / "sweep-b" / "lines_vs_B.svg").exists()

    def test_negative_field_flag_exits_2(self, tmp_path, capsys):
        assert main(["solve", "--out", str(tmp_path), "--b", "-1"]) == 2
        assert "--b" in capsys.readouterr().err

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.ini", "[device]\nnope = 1\n")
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == 2
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "barrier_l = 7\n",
        "[device]\nbarrier_l = 7\nbarrier_l = 8\n",
        "[device]\nbarrier_l = 7\n[device]\nwell_width_h = 4\n",
    ], ids=["no_section_header", "repeated_key", "repeated_section"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, text):
        cfg = write(tmp_path, "bad.ini", text)
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error (config): ")
        assert not out.exists()

    @pytest.mark.parametrize("b", ["0", "2"])
    def test_single_vertical_state_exits_2(self, tmp_path, capsys, b):
        # both emission lines need a bonding and an antibonding state
        cfg = write(tmp_path, "cap1.ini", "[solver]\nvertical_cap = 1\n")
        code = main(["solve", "--config", cfg, "--out", str(tmp_path),
                     "--b", b])
        assert code == 2
        assert "vertical_cap >= 2" in capsys.readouterr().err

    def test_padding_below_the_floor_exits_2(self, tmp_path, capsys):
        # SolverOptions holds the one padding guard: build_potential makes
        # every grid from it, so none has less barrier outside a well
        cfg = write(tmp_path, "thin.ini", "[solver]\npadding = 14.9\n")
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error (config): ")
        assert "padding >= 15.0 nm" in err
        assert not out.exists()

    @pytest.mark.parametrize("barrier", ["1e16", "1e306"])
    def test_barrier_past_the_grid_exits_2(self, tmp_path, capsys, barrier):
        # more than 2**24 nodes: a gap 3.1 meV short of the uncoupled limit
        # at 1e16 nm, a traceback at 1e306 nm, before build_potential
        # refused them
        cfg = write(tmp_path, "far.ini", f"[device]\nbarrier_l = {barrier}\n")
        out = tmp_path / "run"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error (config): ")
        assert "not 3 to 2**24" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "sweep-b"])
    def test_one_bound_electron_state_exits_3(self, tmp_path, capsys,
                                              command):
        # shallow dots bind one electron state: no antibonding A:s level,
        # whether or not the field needs the 1x1 d/dz matrix
        cfg = write(tmp_path, "shallow.ini",
                    "[device]\ndepth_e_dot1 = 40\ndepth_e_dot2 = 40\n"
                    "[solver]\nvertical_cap = 2\n")
        out = tmp_path / "run"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error (spectroscopy): no level labeled 'A:s' in the electron "
            "spectrum\n")
        assert not out.exists()

    def test_out_given_an_existing_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["solve", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error (config): ")
        assert out.read_text() == ""

    def test_zero_depths_exit_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "zero.ini",
                    "[device]\ndepth_e_dot1 = 0\ndepth_e_dot2 = 0\n"
                    "depth_h_dot1 = 0\ndepth_h_dot2 = 0\n")
        code = main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == 3
        assert "vertical" in capsys.readouterr().err


class TestNonFiniteInput:
    @pytest.mark.parametrize("command, text, where", [
        ("solve", "[device]\nbinding_energy = nan\n",
         "[device] binding_energy"),
        ("sweep-b", "[sweep]\nb_values = 0, nan, 1\n", "[sweep] b_values"),
        ("sweep-l", "[sweep]\nl_values = 7, inf\n", "[sweep] l_values"),
        # the key is gone, so any value of it is rejected by name
        ("solve", "[solver]\nfield_step = -inf\n",
         "unknown key 'field_step' in [solver]"),
    ], ids=["binding_energy", "b_values", "l_values", "field_step"])
    def test_config_value_exits_2(self, tmp_path, capsys, command, text,
                                  where):
        cfg = write(tmp_path, "bad.ini", text)
        out = tmp_path / "run"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert where in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("b", ["nan", "inf"])
    def test_field_flag_exits_2(self, tmp_path, capsys, b):
        out = tmp_path / "run"
        assert main(["solve", "--out", str(out), "--b", b]) == 2
        assert "--b" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_zero_field_is_zero_field(self, tmp_path, capsys):
        assert main(["solve", "--out", str(tmp_path), "--b", "-0"]) == 0
        golden = Path(__file__).parent / "golden" / "solve_b0"
        for csv in golden.glob("*.csv"):
            assert (tmp_path / csv.name).read_bytes() == csv.read_bytes()
        cfg = write(tmp_path, "negzero.ini", "[sweep]\nb_values = -0, 0.2\n")
        assert main(["sweep-b", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "lines_vs_B.csv").read_text().splitlines()
        assert rows[1].startswith("0.000000,")


class TestCliSweeps:
    def test_sweep_l_outputs(self, tmp_path):
        cfg = write(tmp_path, "cfg.ini",
                    "[sweep]\nl_values = 7, 9.5\n[solver]\ngrid_step = 0.02\n")
        out = tmp_path / "run"
        assert main(["sweep-l", "--config", cfg, "--out", str(out),
                     "--svg"]) == 0
        gap_lines = (out / "gap_vs_L.csv").read_text().splitlines()
        assert gap_lines[0] == "L_nm,gap_meV"
        assert len(gap_lines) == 3
        level_lines = (out / "levels_vs_L.csv").read_text().splitlines()
        assert level_lines[0] == "L_nm,label,energy_meV"
        labels = {row.split(",")[1] for row in level_lines[1:]}
        assert {"B:s", "A:s", "B:p_y", "A:p_y"} <= labels
        # three lowest shells only
        assert all(row.count(",") == 2 for row in level_lines[1:])
        svg = ET.parse(out / "gap_vs_L.svg").getroot()
        assert svg.tag.endswith("svg")

    def test_sweep_b_deterministic(self, tmp_path):
        cfg = write(tmp_path, "cfg.ini", "[sweep]\nb_values = 0, 0.2\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["sweep-b", "--config", cfg, "--out",
                         str(out)]) == 0
            outs.append((out / "lines_vs_B.csv").read_bytes())
        assert outs[0] == outs[1]
        text = outs[0].decode()
        assert text.startswith("B_T,line_low_meV,line_high_meV,gap_meV\n")
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_one_field_sweep_b_is_the_golden_8t_row(self, tmp_path):
        # every field is solved on its own: 8 T alone must give the 8 T row
        # of the default 33-field sweep
        cfg = write(tmp_path, "cfg.ini", "[sweep]\nb_values = 8\n")
        out = tmp_path / "run"
        assert main(["sweep-b", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "lines_vs_B.csv").read_text().splitlines()
        golden = Path(__file__).parent / "golden" / "sweep_b"
        assert len(rows) == 2
        assert rows[1] == (golden / "lines_vs_B.csv").read_text(
            ).splitlines()[-1]

    def test_removed_field_step_key_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "old.ini", "[solver]\nfield_step = 0.1\n")
        out = tmp_path / "run"
        assert main(["sweep-b", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error (config): unknown key 'field_step' in [solver]\n")
        assert not out.exists()

    def test_sweep_b_svg(self, tmp_path):
        cfg = write(tmp_path, "cfg.ini", "[sweep]\nb_values = 0, 0.2, 0.4\n")
        plain, plotted = tmp_path / "plain", tmp_path / "plotted"
        assert main(["sweep-b", "--config", cfg, "--out", str(plain)]) == 0
        assert main(["sweep-b", "--config", cfg, "--out", str(plotted),
                     "--svg"]) == 0
        assert not (plain / "lines_vs_B.svg").exists()
        assert ((plotted / "lines_vs_B.csv").read_bytes()
                == (plain / "lines_vs_B.csv").read_bytes())
        svg = ET.parse(plotted / "lines_vs_B.svg").getroot()
        assert svg.tag.endswith("svg")
        lines = svg.findall("{http://www.w3.org/2000/svg}polyline")
        assert len(lines) == 2  # the low and the high emission line
        assert all(len(line.get("points").split()) == 3 for line in lines)

    @pytest.mark.parametrize("command, flag", [
        ("solve", "--threads=8"), ("solve", "--svg"),
        ("sweep-b", "--threads=8"), ("calibrate", "--svg"),
        ("fit-powerlaw", "--threads=8"), ("sweep-l", "--threads=8")])
    def test_flags_only_where_read(self, tmp_path, capsys, command, flag):
        positional = {"calibrate": ["t.csv"], "fit-powerlaw": ["p.csv"]}
        with pytest.raises(SystemExit) as exit_info:
            main([command, *positional.get(command, []), flag,
                  "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_l_starts_no_thread_pool(self, tmp_path, monkeypatch):
        # the vertical solve holds the interpreter lock: a pool only adds
        # switching, so the CLI sweeps the distances in turn
        def no_pool(*args, **kwargs):
            raise AssertionError("sweep-l started a thread pool")

        monkeypatch.setattr(spectroscopy, "ThreadPoolExecutor", no_pool)
        cfg = write(tmp_path, "cfg.ini",
                    "[sweep]\nl_values = 5, 7, 9.5\n"
                    "[solver]\ngrid_step = 0.02\n")
        out = tmp_path / "run"
        assert main(["sweep-l", "--config", cfg, "--out", str(out)]) == 0
        assert len((out / "gap_vs_L.csv").read_text().splitlines()) == 4

    def test_repeated_distance_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.ini", "[sweep]\nl_values = 7, 7, 9\n")
        out = tmp_path / "run"
        assert main(["sweep-l", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error (config): l_values must be strictly ascending at "
            "L=7.0 nm\n")
        assert not out.exists()

    def test_distances_printed_alike_exit_2(self, tmp_path, capsys):
        # gap_vs_L.csv prints L to six decimals: two rows 7.000000 could
        # not be fitted by fit-powerlaw
        cfg = write(tmp_path, "cfg.ini",
                    "[sweep]\nl_values = 5, 7, 7.0000001, 9\n")
        out = tmp_path / "run"
        assert main(["sweep-l", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error (config): l_values 7.0 and 7.0000001 nm both print as "
            "7.000000\n")
        assert not out.exists()

    @pytest.mark.parametrize("b_values, message", [
        ("0, 8, 8.0000001", "8.0 and 8.0000001 T both print as 8.000000"),
        ("8, 8.000000000000002",
         "8.0 and 8.000000000000002 T both print as 8.000000")])
    def test_fields_printed_alike_exit_2(self, tmp_path, capsys, b_values,
                                         message):
        # lines_vs_B.csv prints B to six decimals: two rows 8.000000 could
        # not be told apart
        cfg = write(tmp_path, "cfg.ini", f"[sweep]\nb_values = {b_values}\n")
        out = tmp_path / "run"
        assert main(["sweep-b", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error (config): b_values {message}\n")
        assert not out.exists()

    def test_repeated_field_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "cfg.ini", "[sweep]\nb_values = 0, 8, 8\n")
        out = tmp_path / "run"
        assert main(["sweep-b", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error (config): b_values must be strictly ascending at "
            "B=8.0 T\n")
        assert not out.exists()


class TestCliCalibrate:
    def test_calibrate_round_trip(self, tmp_path, capsys):
        point = solve_point(default_device(50.0))
        targets = write(tmp_path, "targets.csv",
                        "quantity,value\n"
                        f"emission_low,{point.lines[0].energy}\n"
                        f"emission_high,{point.lines[1].energy}\n")
        out = tmp_path / "cal"
        assert main(["calibrate", targets, "--out", str(out)]) == 0
        rows = dict(line.split(",") for line in
                    (out / "calibration.csv").read_text().splitlines()[1:])
        assert float(rows["depth_e_dot1"]) == pytest.approx(239.0, abs=0.1)
        assert float(rows["depth_e_dot2"]) == pytest.approx(203.0, abs=0.1)
        assert float(rows["depth_h_dot1"]) == pytest.approx(119.5, abs=0.05)

    def test_device_section_sets_the_line_model(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.ini", "[device]\nbinding_energy = 24\n")
        targets = str(Path(__file__).parent / "golden"
                      / "calibrate_targets.csv")
        assert main(["calibrate", targets, "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        # one meV less binding asks for about one meV deeper dots
        assert capsys.readouterr().out.startswith(
            "depths: e=(240.006, 204.068) h=(120.003, 102.034) meV")

    @pytest.mark.parametrize("key", ["well_width_h", "binding_energy",
                                     "reference_offset"])
    def test_device_quantity_exits_2(self, tmp_path, capsys, key):
        # the device's own values come from --config [device]
        targets = write(tmp_path, "targets.csv",
                        f"emission_low,-138.8\nemission_high,-104.1\n"
                        f"{key},5\n")
        out = tmp_path / "cal"
        assert main(["calibrate", targets, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error (config): unknown target quantity {key!r}\n")
        assert not out.exists()

    def test_solver_padding_reaches_single_well_solves(self, tmp_path,
                                                       capsys, monkeypatch):
        paddings = []
        solve = fitting.single_well_ground

        def spy(depth, width, uncoupled_l, species, options):
            paddings.append(options.padding)
            return solve(depth, width, uncoupled_l, species, options)

        monkeypatch.setattr(fitting, "single_well_ground", spy)
        cfg = write(tmp_path, "run.ini", "[solver]\npadding = 30\n")
        targets = write(tmp_path, "targets.csv",
                        "emission_low,-138.85586529514225\n"
                        "emission_high,-104.0928318257862\n")
        assert main(["calibrate", targets, "--config", cfg,
                     "--out", str(tmp_path)]) == 0
        assert paddings and all(p == 30.0 for p in paddings)

    def test_uncoupled_l_moves_the_depths(self, tmp_path, capsys):
        lines = ("emission_low,-138.85586529514225\n"
                 "emission_high,-104.0928318257862\n")
        depths = []
        for name, extra in (("at50", ""), ("at5", "uncoupled_l,5\n")):
            targets = write(tmp_path, f"{name}.csv", lines + extra)
            out = tmp_path / name
            assert main(["calibrate", targets, "--out", str(out)]) == 0
            depths.append((out / "calibration.csv").read_text())
        assert depths[0] != depths[1]

    def test_every_target_field_is_a_quantity(self, tmp_path, capsys):
        target = fitting.CalibrationTarget(-138.85586529514225,
                                           -104.0928318257862)
        outs = []
        for name, rows in (("all", vars(target).items()),
                           ("lines", list(vars(target).items())[:2])):
            targets = write(tmp_path, f"{name}.csv",
                            "".join(f"{k},{v!r}\n" for k, v in rows))
            out = tmp_path / name
            assert main(["calibrate", targets, "--out", str(out)]) == 0
            outs.append((out / "calibration.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("row", ["emission_low,nan", "uncoupled_l,nan",
                                     "depth_ratio,inf"])
    def test_non_finite_target_exits_2(self, tmp_path, capsys, row):
        # the row sets its quantity once, in place of a finite line target
        key, value = row.split(",")
        rows = {"emission_low": "-138.8", "emission_high": "-104.1",
                key: value}
        targets = write(tmp_path, "targets.csv",
                        "".join(f"{k},{v}\n" for k, v in rows.items()))
        assert main(["calibrate", targets, "--out", str(tmp_path)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_repeated_target_exits_2(self, tmp_path, capsys):
        targets = write(tmp_path, "targets.csv",
                        "emission_low,-138.8\nemission_high,-104.1\n"
                        "emission_low,-139.0\n")
        out = tmp_path / "cal"
        assert main(["calibrate", targets, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error (config): target quantity 'emission_low' is repeated\n")
        assert not out.exists()

    def test_targets_given_a_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "cal"
        assert main(["calibrate", str(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error (config): ")
        assert not out.exists()

    def test_unreachable_target_exits_4(self, tmp_path, capsys):
        targets = write(tmp_path, "targets.csv",
                        "emission_low,-60.0\nemission_high,100.0\n")
        assert main(["calibrate", targets, "--out", str(tmp_path)]) == 4

    @pytest.mark.parametrize("row", ["value,3", "quantity,3",
                                     "quantity,value"])
    def test_header_named_row_exits_2(self, tmp_path, capsys, row):
        # only a first row that is exactly the header is skipped
        targets = write(tmp_path, "targets.csv",
                        "quantity,value\nemission_low,-138.8\n"
                        f"emission_high,-104.1\n{row}\n")
        out = tmp_path / "cal"
        assert main(["calibrate", targets, "--out", str(out)]) == 2
        key = row.split(",")[0]
        assert capsys.readouterr().err == (
            f"error (config): unknown target quantity {key!r}\n")
        assert not out.exists()

    def test_malformed_targets_exit_2(self, tmp_path, capsys):
        targets = write(tmp_path, "targets.csv", "emission_low\n")
        assert main(["calibrate", targets, "--out", str(tmp_path)]) == 2
        targets = write(tmp_path, "targets2.csv", "unknown_quantity,3\n")
        assert main(["calibrate", targets, "--out", str(tmp_path)]) == 2


class TestCliFitPowerlaw:
    def test_fit_from_file(self, tmp_path, capsys):
        rows = ["L_nm,gap_meV"]
        for l in (3.0, 7.0, 9.5):
            rows.append(f"{l},{33.0e3 / (l + 4.88) ** 3 + 27.0}")
        points = write(tmp_path, "points.csv", "\n".join(rows) + "\n")
        out = tmp_path / "fit"
        assert main(["fit-powerlaw", points, "--out", str(out)]) == 0
        report = dict(line.split(",") for line in
                      (out / "powerlaw.csv").read_text().splitlines()[1:])
        assert float(report["amplitude_A_meV_nm3"]) == pytest.approx(
            33.0e3, rel=1e-3)
        assert float(report["offset_delta_nm"]) == pytest.approx(
            4.88, rel=1e-3)
        assert "residual_rms_meV" in report

    @pytest.mark.parametrize("row", ["L_nm,40", "L_nm,gap_meV"])
    def test_header_named_row_exits_2(self, tmp_path, capsys, row):
        # only a first row that is exactly the header is skipped
        points = write(tmp_path, "points.csv",
                       f"L_nm,gap_meV\n3,50\n5,40\n{row}\n7,30\n9,28\n")
        out = tmp_path / "fit"
        assert main(["fit-powerlaw", points, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error (config): points file row ({row.replace(',', ', ')}) "
            "is not numeric\n")
        assert not out.exists()

    def test_duplicate_distances_exit_4(self, tmp_path, capsys):
        points = write(tmp_path, "points.csv", "3,50\n3,60\n7,40\n")
        assert main(["fit-powerlaw", points, "--out", str(tmp_path)]) == 4

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["fit-powerlaw", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 2

    def test_points_given_a_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "fit"
        assert main(["fit-powerlaw", str(tmp_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error (config): ")
        assert not out.exists()

    @pytest.mark.parametrize("row, where", [
        ("5,nan", "L=5.0, gap=nan"), ("5,inf", "L=5.0, gap=inf"),
        ("nan,40", "L=nan, gap=40.0")], ids=["nan_gap", "inf_gap", "nan_l"])
    def test_non_finite_point_exits_2(self, tmp_path, capsys, row, where):
        points = write(tmp_path, "points.csv", f"3,50\n{row}\n7,30\n9,28\n")
        out = tmp_path / "fit"
        assert main(["fit-powerlaw", points, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error (config): ") and where in err
        assert not out.exists()


@pytest.mark.parametrize("error, module, code", [
    (errors.DqdError, "dqdsim", 3),
    (errors.ConfigError, "config", 2),
    (errors.NoBoundStateError, "vertical", 3),
    (errors.NotHermitianError, "molecular", 3),
    (errors.EigenResidualError, "molecular", 3),
    (errors.MissingLabelError, "spectroscopy", 3),
    (errors.OutOfRangeError, "spectroscopy", 3),
    (errors.NoConvergenceError, "fitting", 4),
    (errors.SingularFitError, "fitting", 4),
    (errors.UnboundDotError, "fitting", 4),
])
def test_error_exit_code_and_prefix(error, module, code, tmp_path, capsys,
                                    monkeypatch):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(spectroscopy, "solve_point", fail)
    assert main(["solve", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err == f"error ({module}): injected\n"


def test_svg_writer_standalone(tmp_path):
    from dqdsim.svgplot import write_line_plot

    path = tmp_path / "plot.svg"
    write_line_plot(path, [("one", [0, 1, 2], [1.0, 4.0, 9.0]),
                           ("two", [0, 1, 2], [2.0, 3.0, 5.0])],
                    title="t", xlabel="x", ylabel="y")
    root = ET.parse(path).getroot()
    polylines = [el for el in root.iter()
                 if el.tag.endswith("polyline")]
    assert len(polylines) == 2
    with pytest.raises(ValueError):
        write_line_plot(tmp_path / "empty.svg", [])


def test_ticks_are_bounded(tmp_path):
    from dqdsim.svgplot import _ticks, write_line_plot

    assert _ticks(0.0, 8.0) == [0.0, 2.0, 4.0, 6.0, 8.0]
    assert _ticks(2.5, 15.0) == [2.5, 5.0, 7.5, 10.0, 12.5, 15.0]
    assert _ticks(3.0, 3.0) == [3.0]
    # one ulp: a step below float resolution would never move the tick
    assert _ticks(7.0, math.nextafter(7.0, 8.0)) == [7.0]
    # ... so a plot whose axes are one ulp wide is written and returns
    ulp = [8.0, math.nextafter(8.0, 9.0)]
    write_line_plot(tmp_path / "ulp.svg", [("line", ulp, ulp)])
    assert ET.parse(tmp_path / "ulp.svg").getroot().tag.endswith("svg")
