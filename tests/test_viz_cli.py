"""Tests for visualization helpers and the command-line interface."""

import os

import numpy as np
import pytest

from repro.viz import ascii_density_map, placement_svg, write_placement_svg
from repro.viz.svg import _heat_color


class TestSvg:
    def test_contains_all_cells(self, small_db):
        svg = placement_svg(small_db)
        rects = svg.count("<rect")
        circles = svg.count("<circle")
        # background + die outline + cells; pads are circles
        assert circles == int(small_db.terminal.sum())
        assert rects >= small_db.num_cells - circles

    def test_valid_xml_structure(self, small_db):
        import xml.etree.ElementTree as ET

        ET.fromstring(placement_svg(small_db))

    def test_heat_overlay(self, small_db):
        heat = np.zeros((8, 8))
        heat[3, 3] = 1.0
        svg = placement_svg(small_db, heat=heat)
        assert "rgb(" in svg

    def test_heat_colors(self):
        assert _heat_color(0.0) == "rgb(255,255,255)"
        assert _heat_color(1.0) == "rgb(255,0,0)"
        assert _heat_color(0.5) == "rgb(255,255,0)"

    def test_write_to_file(self, small_db, tmp_path):
        path = write_placement_svg(small_db, str(tmp_path / "p.svg"))
        assert os.path.exists(path)
        with open(path) as handle:
            assert handle.read().startswith("<svg")

    def test_position_override(self, small_db):
        x, y = small_db.positions()
        x += 1.0
        svg_moved = placement_svg(small_db, x, y)
        assert svg_moved != placement_svg(small_db)

    def test_movable_macros_styled_differently(self):
        from repro.benchgen import CircuitSpec, generate

        db = generate(CircuitSpec(
            name="m", num_cells=50, num_macros=2,
            macro_area_fraction=0.1, movable_macros=True, seed=1,
        ))
        assert "#c0504d" in placement_svg(db)


class TestAsciiMap:
    def test_peak_is_darkest(self):
        values = np.zeros((16, 16))
        values[4, 4] = 10.0
        art = ascii_density_map(values, max_cols=16)
        assert "@" in art

    def test_shape(self):
        art = ascii_density_map(np.ones((32, 16)), max_cols=32)
        lines = art.splitlines()
        assert len(lines) == 16
        assert len(lines[0]) == 32

    def test_downsampling(self):
        art = ascii_density_map(np.ones((64, 64)), max_cols=16)
        assert len(art.splitlines()[0]) <= 32

    def test_orientation_top_is_high_y(self):
        values = np.zeros((8, 8))
        values[:, 7] = 5.0  # high y
        art = ascii_density_map(values, max_cols=8)
        lines = art.splitlines()
        assert "@" in lines[0]
        assert "@" not in lines[-1]

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            ascii_density_map(np.ones(8))

    def test_all_zero_map(self):
        art = ascii_density_map(np.zeros((8, 8)), max_cols=8)
        assert set(art.replace("\n", "")) == {" "}


class TestCli:
    def run_cli(self, *argv) -> int:
        from repro.cli import main

        return main(list(argv))

    def test_generate_writes_bookshelf(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = self.run_cli("generate", "clidemo", "--cells", "200",
                            "--output", str(out))
        assert code == 0
        assert (out / "clidemo.aux").exists()

    def test_place_and_report_roundtrip(self, tmp_path, capsys):
        gen_dir = tmp_path / "gen"
        self.run_cli("generate", "c2", "--cells", "200", "--output",
                     str(gen_dir), "--seed", "3")
        out_dir = tmp_path / "out"
        svg = tmp_path / "plot.svg"
        code = self.run_cli("place", str(gen_dir / "c2.aux"),
                            "--output", str(out_dir), "--svg", str(svg),
                            "--no-dp")
        assert code == 0
        assert (out_dir / "c2.aux").exists()
        assert svg.exists()
        captured = capsys.readouterr()
        assert "HPWL" in captured.out
        assert "legal    : True" in captured.out

        code = self.run_cli("report", str(out_dir / "c2.aux"),
                            "--density-map")
        assert code == 0
        assert "utilization" in capsys.readouterr().out

    def test_route_command(self, tmp_path, capsys):
        gen_dir = tmp_path / "gen"
        self.run_cli("generate", "c3", "--cells", "200", "--output",
                     str(gen_dir), "--seed", "5")
        code = self.run_cli("route", str(gen_dir / "c3.aux"),
                            "--tiles", "8")
        assert code == 0
        out = capsys.readouterr().out
        assert "RC" in out
        assert "calibrated capacity" in out

    def test_place_suite_design(self, capsys):
        code = self.run_cli("place", "tiny1", "--no-dp", "--scale", "400")
        assert code == 0
        assert "HPWL" in capsys.readouterr().out

    def test_place_profile_table(self, capsys):
        code = self.run_cli("place", "tiny1", "--scale", "1", "--profile")
        assert code == 0
        out = capsys.readouterr().out
        table = out[out.index("== per-op breakdown"):out.index("HPWL")]
        rows = {line.split()[0]: line.split() for line in
                table.splitlines()[2:] if line[:1].isalpha()}
        for op in ("wl.forward", "density.solve", "dp.global_swap",
                   "stage.gp", "lg.tetris"):
            assert op in rows, op
        assert "closure split: " in table
        # every second is listed once: the self column adds up to the
        # wall clock of the outermost (stage / check) spans
        total = float(rows["total"][-1])
        roots = sum(float(row[2]) for op, row in rows.items()
                    if op.startswith(("stage.", "check.")))
        assert total == pytest.approx(roots, abs=1e-3)  # 4-decimal rows

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            self.run_cli("frobnicate")
