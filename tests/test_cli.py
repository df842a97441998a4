"""End-to-end tests for the command-line interface."""

import json
import math

import pytest

from netbounds.cli import main, parse_grid


def write_network(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def single_link_doc(snr=3.0):
    return {
        "nodes": ["a", "b"],
        "links": [{"from": "a", "to": "b", "kind": "awgn", "snr": snr}],
        "demands": [{"kind": "unicast", "source": "a", "sinks": ["b"]}],
    }


def relay_doc():
    return {
        "nodes": ["S", "R", "D"],
        "links": [
            {"from": "S", "to": "D", "kind": "awgn", "snr": 1.0},
            {"from": "S", "to": "R", "kind": "awgn", "snr": 10.0},
            {"from": "R", "to": "D", "kind": "awgn", "snr": 10.0},
        ],
        "demands": [{"kind": "unicast", "source": "S", "sinks": ["D"]}],
    }


def read_csv_rows(text):
    """Split CSV text into ('# ...' header lines, column row, data rows)."""
    lines = text.strip().split("\n")
    header = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    columns = body[0].split(",")
    rows = [line.split(",") for line in body[1:]]
    return header, columns, rows


class TestParseGrid:
    def test_inclusive_endpoint_despite_rounding(self):
        grid = parse_grid("0:1:0.1")
        assert len(grid) == 11
        assert abs(grid[0]) < 1e-12
        assert abs(grid[-1] - 1.0) < 1e-9

    def test_degenerate_single_point(self):
        assert parse_grid("5:5:1") == (5.0,)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="start:stop:step"):
            parse_grid("1:2")

    def test_rejects_non_numbers(self):
        with pytest.raises(ValueError, match="three numbers"):
            parse_grid("a:b:c")

    def test_rejects_bad_step_and_order(self):
        with pytest.raises(ValueError, match="step"):
            parse_grid("0:1:0")
        with pytest.raises(ValueError, match="below start"):
            parse_grid("3:1:1")


class TestBounds:
    def test_single_link_bounds_meet_at_capacity(self, tmp_path, capsys):
        path = write_network(tmp_path / "net.json", single_link_doc(snr=3.0))
        assert main(["bounds", path]) == 0
        out = capsys.readouterr().out
        assert "outer 1.000000000" in out
        assert "inner 1.000000000" in out
        assert "gap   0.000000000" in out

    def test_relay_inner_stays_below_outer(self, tmp_path, capsys):
        path = write_network(tmp_path / "relay.json", relay_doc())
        assert main(["bounds", path]) == 0
        lines = capsys.readouterr().out.split("\n")
        outer = next(float(l.split()[1]) for l in lines if l.startswith("  outer"))
        inner = next(float(l.split()[1]) for l in lines if l.startswith("  inner"))
        assert inner <= outer + 1e-9

    def test_csv_output_is_byte_deterministic(self, tmp_path, capsys):
        path = write_network(tmp_path / "relay.json", relay_doc())
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["bounds", path, "--out", str(out_a)]) == 0
        assert main(["bounds", path, "--out", str(out_b)]) == 0
        capsys.readouterr()
        text_a = out_a.read_text(encoding="utf-8")
        assert text_a.replace(str(out_a), "X") == out_b.read_text(
            encoding="utf-8"
        ).replace(str(out_b), "X")
        header, _, rows = read_csv_rows(text_a)
        assert header[0].startswith("# netbounds ")
        assert header[1].startswith("# invocation: netbounds bounds")
        assert len(rows) == 1

    def test_malformed_json_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"nodes": [', encoding="utf-8")
        assert main(["bounds", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "line" in err

    def test_missing_file_is_an_input_error(self, tmp_path, capsys):
        assert main(["bounds", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_network_without_demands_is_an_input_error(self, tmp_path, capsys):
        doc = single_link_doc()
        del doc["demands"]
        path = write_network(tmp_path / "net.json", doc)
        assert main(["bounds", path]) == 2
        assert "no demands" in capsys.readouterr().err

    def test_bad_alpha_grid_is_an_input_error(self, tmp_path, capsys):
        path = write_network(tmp_path / "net.json", single_link_doc())
        assert main(["bounds", path, "--alpha-grid", "0:2:0.5"]) == 2
        assert "outside" in capsys.readouterr().err


class TestDecoupleAndValidate:
    def test_decouple_reports_coupled_components(self, tmp_path, capsys):
        path = write_network(tmp_path / "relay.json", relay_doc())
        assert main(["decouple", path]) == 0
        out = capsys.readouterr().out
        assert "2 components" in out
        assert "coupled noise partition" in out
        assert "shared" in out
        assert "effective_snr=" in out

    def test_decouple_reports_p2p_capacity(self, tmp_path, capsys):
        path = write_network(tmp_path / "net.json", single_link_doc(snr=3.0))
        assert main(["decouple", path]) == 0
        out = capsys.readouterr().out
        assert "point-to-point a -> b" in out
        assert "capacity=1" in out

    def test_validate_reports_ok(self, tmp_path, capsys):
        path = write_network(tmp_path / "relay.json", relay_doc())
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "links: 3 (awgn 3, qsc 0, bsc 0)" in out

    def test_validate_rejects_qsc_crossover_naming_the_link(self, tmp_path, capsys):
        doc = single_link_doc()
        doc["links"] = [{"from": "a", "to": "b", "kind": "qsc", "q": 2, "xi": 0.9}]
        path = write_network(tmp_path / "net.json", doc)
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: links[0]: link 'a'->'b': xi must lie in [0, 0.5]")


class TestReproRelay:
    def test_weak_relay_rows_pin_direct_link_capacity(self, tmp_path, capsys):
        out = tmp_path / "relay.csv"
        code = main(["repro", "relay", "--gamma-sr-db=-10:-8:1", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        header, columns, rows = read_csv_rows(out.read_text(encoding="utf-8"))
        assert columns[0] == "gamma_sr_db"
        assert len(rows) == 3
        lower = columns.index("eq_lower")
        upper = columns.index("eq_upper")
        for row in rows:
            # gamma_sd = 0 dB, so switching the relay off achieves exactly 0.5.
            assert row[lower] == "0.500000000"
            assert float(row[lower]) <= float(row[upper]) + 1e-9

    def test_stdout_and_file_output_agree(self, tmp_path, capsys):
        argv = ["repro", "relay", "--gamma-sr-db", "0:0:1"]
        assert main(argv) == 0
        stdout_text = capsys.readouterr().out
        out = tmp_path / "relay.csv"
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        file_text = out.read_text(encoding="utf-8")
        # Only the echoed invocation may differ between the two runs.
        strip = lambda text: [
            line
            for line in text.strip().split("\n")
            if not line.startswith("# invocation")
        ]
        assert strip(stdout_text) == strip(file_text)


class TestReproLayered:
    def test_small_network_matches_closed_forms(self, capsys):
        assert main(["repro", "layered", "--pairs", "2", "--gamma-db", "0"]) == 0
        header, columns, rows = read_csv_rows(capsys.readouterr().out)
        assert len(rows) == 11
        outer = columns.index("outer_sym_flow")
        cap = columns.index("capacity_sym")
        inner = columns.index("inner_sym_flow")
        closed = columns.index("inner_sym_closed")
        regime = columns.index("regime")
        for row in rows:
            assert abs(float(row[outer]) - float(row[cap])) < 1e-6
            assert abs(float(row[inner]) - float(row[closed])) < 1e-6
            assert row[regime] == "capacity"

    def test_rejects_single_pair(self, capsys):
        assert main(["repro", "layered", "--pairs", "1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestReproMulticast:
    def test_small_sweep_emits_note_and_c12(self, capsys):
        code = main(["repro", "multicast", "--receivers", "2", "--p-db", "0:1:1"])
        assert code == 0
        header, columns, rows = read_csv_rows(capsys.readouterr().out)
        assert any("note:" in line for line in header)
        assert len(rows) == 2
        c12 = columns.index("c12")
        for row in rows:
            assert abs(float(row[c12]) - 2.250269) < 1e-5
        lower = columns.index("eq_lower_sum")
        upper = columns.index("eq_upper_sum")
        for row in rows:
            assert float(row[lower]) <= float(row[upper]) + 1e-9

    def test_note_is_tied_to_default_collaboration_link(self, capsys):
        code = main(
            [
                "repro",
                "multicast",
                "--receivers",
                "2",
                "--p-db",
                "0:0:1",
                "--q",
                "4",
            ]
        )
        assert code == 0
        header, _, _ = read_csv_rows(capsys.readouterr().out)
        assert not any("note:" in line for line in header)


class TestEntryPoint:
    def test_version_exits_cleanly(self, capsys):
        assert main(["--version"]) == 0
        assert "netbounds" in capsys.readouterr().out

    def test_unknown_command_is_an_input_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_internal_failures_map_to_exit_three(self, monkeypatch, capsys):
        import netbounds.cli as cli

        def boom(*args, **kwargs):
            raise RuntimeError("solver went sideways")

        monkeypatch.setattr(cli, "relay_experiment", boom)
        assert main(["repro", "relay", "--gamma-sr-db", "0:0:1"]) == 3
        assert "internal error: solver went sideways" in capsys.readouterr().err
