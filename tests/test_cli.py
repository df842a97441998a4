"""End-to-end tests for the command-line interface."""

import ast
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbounds import assemble, cli, experiments, flows, pipeline
from netbounds.assemble import LowerStructure, UpperStructure
from netbounds.cli import main, parse_grid
from netbounds.decouple import decompose
from netbounds.flows import unicast_inner
from netbounds.info import db_to_linear
from netbounds.netmodel import Demand

DATA = Path(__file__).resolve().parent / "data"


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

    @pytest.mark.parametrize("text", ["nan:1:1", "0:inf:1", "-inf:0:1", "0:1:nan"])
    def test_rejects_values_that_are_not_finite(self, text):
        with pytest.raises(ValueError, match="finite"):
            parse_grid(text)

    def test_size_limit_holds_at_the_cap(self):
        assert len(parse_grid(f"1:{cli._MAX_SWEEP_POINTS}:1")) == cli._MAX_SWEEP_POINTS

    def test_rejects_a_sweep_over_the_cap_before_building_it(self):
        # One point over the cap: the refused sweep would take about 0.3 MB,
        # so a peak far below that shows nothing was built first.
        text = f"0:{cli._MAX_SWEEP_POINTS}:1"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(repr(text))):
                parse_grid(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20_000

    def test_cli_refuses_an_oversized_alpha_sweep(self, tmp_path, capsys):
        path = write_network(tmp_path / "net.json", single_link_doc())
        assert main(["bounds", path, "--alpha-grid", "0:1:0.00009"]) == 2
        assert "'0:1:0.00009' would hold more than" in capsys.readouterr().err


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

    def test_non_numeric_link_field_is_an_input_error(self, tmp_path, capsys):
        path = write_network(tmp_path / "net.json", single_link_doc(snr=[1]))
        assert main(["bounds", path]) == 2
        assert "error: links[0].snr: expected a number, got [1]" in capsys.readouterr().err

    def test_node_id_that_is_not_a_string_is_an_input_error(self, tmp_path, capsys):
        doc = single_link_doc()
        doc["links"][0]["from"] = None
        path = write_network(tmp_path / "net.json", doc)
        assert main(["bounds", path]) == 2
        err = capsys.readouterr().err
        assert "error: links[0].from: expected a node id string, got None" in err

    def test_demand_kind_that_is_not_a_string_is_an_input_error(self, tmp_path, capsys):
        doc = single_link_doc()
        doc["demands"][0]["kind"] = None
        path = write_network(tmp_path / "net.json", doc)
        assert main(["bounds", path]) == 2
        assert "error: demands[0].kind: unknown kind None" in capsys.readouterr().err

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


    def test_alpha_next_to_one_gives_finite_bounds(self, tmp_path, capsys):
        # A noise share of the strong input used to cancel to 0.0 here.
        doc = {
            "nodes": ["a", "b", "d"],
            "links": [
                {"from": "a", "to": "d", "kind": "awgn", "snr": 0.836},
                {"from": "b", "to": "d", "kind": "awgn", "snr": 839.0},
            ],
            "demands": [
                {"kind": "unicast", "source": "a", "sinks": ["d"]},
                {"kind": "unicast", "source": "b", "sinks": ["d"]},
            ],
        }
        path = write_network(tmp_path / "mac.json", doc)
        grid = "0.99999999999999:0.99999999999999:0.1"
        assert main(["bounds", path, "--alpha-grid", grid]) == 0
        out = capsys.readouterr().out
        bounds = re.findall(r"^  (?:outer|inner) +(\S+)", out, flags=re.MULTILINE)
        assert len(bounds) == 4
        assert all(math.isfinite(float(value)) for value in bounds)

    def test_70_db_multi_access_input_gets_bounds(self, tmp_path, capsys):
        # mac_upper's bisection used to stall here and exit 3.
        doc = {
            "nodes": ["a", "b", "d"],
            "links": [
                {"from": "a", "to": "d", "kind": "awgn", "snr_db": 70.0},
                {"from": "b", "to": "d", "kind": "awgn", "snr_db": 0.0},
            ],
            "demands": [
                {"kind": "unicast", "source": "a", "sinks": ["d"]},
                {"kind": "unicast", "source": "b", "sinks": ["d"]},
            ],
        }
        path = write_network(tmp_path / "mac70.json", doc)
        assert main(["bounds", path]) == 0
        out = capsys.readouterr().out
        outer = [float(v) for v in re.findall(r"^  outer (\S+)", out, flags=re.MULTILINE)]
        inner = [float(v) for v in re.findall(r"^  inner (\S+)", out, flags=re.MULTILINE)]
        assert len(outer) == len(inner) == 2
        assert all(i <= o + 1e-9 for o, i in zip(outer, inner))

    def test_two_equal_110_db_links_into_one_receiver_get_bounds(self, tmp_path, capsys):
        # Tied SNRs give mac_upper's bisection a degenerate bracket, whose
        # residual check used to cancel above about 80 dB and exit 3.
        doc = {
            "nodes": ["a", "b", "d"],
            "links": [
                {"from": "a", "to": "d", "kind": "awgn", "snr_db": 110.0},
                {"from": "b", "to": "d", "kind": "awgn", "snr_db": 110.0},
            ],
            "demands": [
                {"kind": "unicast", "source": "a", "sinks": ["d"]},
                {"kind": "unicast", "source": "b", "sinks": ["d"]},
            ],
        }
        path = write_network(tmp_path / "mac110.json", doc)
        assert main(["bounds", path]) == 0
        out = capsys.readouterr().out
        outer = [float(v) for v in re.findall(r"^  outer (\S+)", out, flags=re.MULTILINE)]
        inner = [float(v) for v in re.findall(r"^  inner (\S+)", out, flags=re.MULTILINE)]
        assert len(outer) == len(inner) == 2
        assert all(0.0 < i <= o + 1e-9 and math.isfinite(o) for o, i in zip(outer, inner))

    def test_rates_over_many_orders_of_magnitude_pass_the_witness_check(
        self, tmp_path, capsys
    ):
        # At HiGHS's default feasibility tolerance (1e-7) a routing witness
        # drew about 1e-9 from a pipe it did not use, past the 1e-9 witness
        # check, and this file exited 3. (It listed N0 -> {N1, N2} twice,
        # which the parser now refuses; with N1 -> N0 as its third demand it
        # still exits 3 at that tolerance, on the same kind of draw.)
        links = [
            ("N0", "N1", 8.51405769897751),
            ("N0", "N2", -46.03174702731056),
            ("N1", "N2", 35.67234823605378),
            ("N1", "N0", 46.276104501816036),
        ]
        doc = {
            "nodes": ["N0", "N1", "N2"],
            "links": [
                {"from": u, "to": v, "kind": "awgn", "snr_db": snr_db} for u, v, snr_db in links
            ],
            "demands": [
                {"kind": "multicast", "source": "N1", "sinks": ["N0", "N2"]},
                {"kind": "multicast", "source": "N0", "sinks": ["N2", "N1"]},
                {"kind": "unicast", "source": "N1", "sinks": ["N0"]},
            ],
        }
        path = write_network(tmp_path / "wide.json", doc)
        assert main(["bounds", path]) == 0, capsys.readouterr().err
        out = capsys.readouterr().out
        outer = [float(v) for v in re.findall(r"^  outer (\S+)", out, flags=re.MULTILINE)]
        inner = [float(v) for v in re.findall(r"^  inner (\S+)", out, flags=re.MULTILINE)]
        assert len(outer) == len(inner) == 3
        assert all(i <= o + 1e-9 for o, i in zip(outer, inner))

    def test_demand_on_a_node_without_links_is_an_input_error(self, tmp_path, capsys):
        doc = single_link_doc()
        doc["nodes"].append("c")
        doc["demands"].append({"kind": "unicast", "source": "a", "sinks": ["c"]})
        path = write_network(tmp_path / "net.json", doc)
        assert main(["bounds", path]) == 2
        assert "error: demands[1]: node 'c' has no link" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", ["lower_bounds_2x3xunicast-0.json", "lower_bounds_3x2xmulticast-1.json"]
    )
    def test_csv_matches_golden(self, name, tmp_path, monkeypatch, capsys):
        # Relative names keep the checkout's path out of the CSV's header.
        (tmp_path / name).write_bytes((DATA / name).read_bytes())
        monkeypatch.chdir(tmp_path)
        assert main(["bounds", name, "--beta-step", "0.25", "--out", "out.csv"]) == 0
        capsys.readouterr()
        golden = DATA / name.replace("lower_bounds_", "bounds_").replace(".json", ".csv")
        assert (tmp_path / "out.csv").read_bytes() == golden.read_bytes()

    def test_oversized_beta_grid_is_refused_before_any_flow(self, monkeypatch, capsys):
        flowed = []

        def refused(name):
            def flow(*args, **kwargs):
                flowed.append(name)
                raise AssertionError(f"{name} ran")

            return flow

        for name in ("least_outer", "best_inner"):
            monkeypatch.setattr(pipeline, name, refused(name))
        for name in ("max_flow", "multicast_outer", "unicast_inner", "_route"):
            monkeypatch.setattr(flows, name, refused(name))
        path = DATA / "lower_bounds_2x3xunicast-0.json"
        assert main(["bounds", str(path), "--beta-step", "0.01"]) == 2
        assert "share combinations (cap 4096)" in capsys.readouterr().err
        assert flowed == []

    def test_beta_cap_is_checked_before_any_grid_is_built(
        self, tmp_path, monkeypatch, capsys
    ):
        # One 3-receiver broadcast side at step 1e-5 would need about 5e9
        # splits; counting them must refuse the sweep without making one.
        def refused(parts, steps):
            raise AssertionError(f"simplex_grid({parts}, {steps}) was built")

        monkeypatch.setattr(pipeline, "simplex_grid", refused)
        doc = {
            "nodes": ["S", "A", "B", "C"],
            "links": [
                {"from": "S", "to": rx, "kind": "awgn", "snr": snr}
                for rx, snr in (("A", 1.0), ("B", 2.0), ("C", 4.0))
            ],
            "demands": [{"kind": "unicast", "source": "S", "sinks": ["A"]}],
        }
        path = write_network(tmp_path / "bc3.json", doc)
        assert main(["bounds", path, "--beta-step", "0.00001"]) == 2
        assert "5000150001 share combinations (cap 4096)" in capsys.readouterr().err

    @pytest.mark.parametrize("structure", [UpperStructure, LowerStructure])
    def test_every_run_is_validated(self, monkeypatch, capsys, structure):
        # A NaN rate on one arc of the last run of either sweep must stop the
        # sweep with the validator's message, not reach a flow. Each sweep is
        # one batch.
        rate_batch = structure.rate_batch

        def poisoned(self, *args):
            batch = rate_batch(self, *args)
            batch.rates[-1, 0] = math.nan
            return batch

        monkeypatch.setattr(structure, "rate_batch", poisoned)
        path = DATA / "lower_bounds_2x3xunicast-0.json"
        assert main(["bounds", str(path), "--beta-step", "0.25"]) == 3
        err = capsys.readouterr().err
        assert "network failed validation: pipe[0]" in err
        assert "rate must be >= 0, got nan" in err


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


    def test_one_parser_serves_every_call(self, capsys):
        # The parser is built once per process; a call must give what it gives
        # in a fresh process, whichever command ran before it.
        path = str(DATA / "lower_bounds_3x2xmulticast-1.json")
        commands = {"bounds": ["bounds", path, "--beta-step", "0.5"], "decouple": ["decouple", path]}

        def run(name):
            code = main(commands[name])
            return code, capsys.readouterr().out

        fresh = {}
        for name in commands:
            cli.build_parser.cache_clear()
            fresh[name] = run(name)
        assert all(code == 0 for code, _ in fresh.values())
        for order in (("bounds", "decouple"), ("decouple", "bounds")):
            cli.build_parser.cache_clear()
            assert [run(name) for name in order] == [fresh[name] for name in order]
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("command", ["validate", "bounds"])
    def test_rejects_zero_snr_in_multi_access_naming_the_link(
        self, tmp_path, capsys, command
    ):
        doc = relay_doc()
        doc["links"][0] = {"from": "S", "to": "D", "kind": "awgn", "snr": 0}
        path = write_network(tmp_path / "relay.json", doc)
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: links[0]: link 'S'->'D': snr must be positive and finite, got 0.0"
        )

    @pytest.mark.parametrize(
        "links, sinks",
        [
            # A second A->D link used to drop out of the MAC's inner rates.
            ([("A", "D", 2.0), ("A", "D", 3.0), ("B", "D", 2.0)], {"A": "D", "B": "D"}),
            # With a broadcast side, the BC permutation check failed unnamed.
            ([("A", "D", 2.0), ("A", "D", 3.0), ("A", "E", 2.0)], {"A": "D"}),
        ],
        ids=["mac", "mac-and-bc"],
    )
    @pytest.mark.parametrize("command", ["validate", "bounds"])
    def test_rejects_parallel_links_naming_both(
        self, tmp_path, capsys, command, links, sinks
    ):
        doc = {
            "nodes": ["A", "B", "D", "E"],
            "links": [
                {"from": src, "to": dst, "kind": "awgn", "snr": snr} for src, dst, snr in links
            ],
            "demands": [
                {"kind": "unicast", "source": src, "sinks": [dst]} for src, dst in sinks.items()
            ],
        }
        path = write_network(tmp_path / "net.json", doc)
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: links[1]: link 'A'->'D' repeats links[0]; parallel")


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


def count_constructions(monkeypatch, structure=LowerStructure):
    """Record every ``structure`` built from here on."""
    built = []
    init = structure.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(structure, "__init__", counting)
    return built


class TestLowerStructuresPerSearch:
    # Construction counts do not depend on machine speed, so they guard the
    # searches' reuse of one lower structure per (targets, decode orders,
    # layer counts) where a timer cannot.
    def test_relay_point_builds_at_most_six(self, monkeypatch):
        built = count_constructions(monkeypatch)
        experiments.relay_experiment(0.0, 10.0, (5.0,))
        assert 0 < len(built) <= 6

    def test_relay_point_rates_arcs_and_builds_no_network(self, monkeypatch):
        rated = []
        arcs, rate_batch = LowerStructure.arcs, LowerStructure.rate_batch

        def counting_arcs(self, bc_betas):
            rated.append(bc_betas)
            return arcs(self, bc_betas)

        def counting_batch(self, bc_betas):
            batch = rate_batch(self, bc_betas)
            rated.extend([bc_betas] * len(batch.rates))  # one per split
            return batch

        monkeypatch.setattr(LowerStructure, "arcs", counting_arcs)
        monkeypatch.setattr(LowerStructure, "rate_batch", counting_batch)
        components = decompose(experiments.relay_network(1.0, db_to_linear(5.0), 10.0))
        assert experiments.relay_eq_lower(components) > 0.0
        assert len(rated) == 160  # the search's candidate count at this point

    def test_bounds_builds_one_per_file(self, monkeypatch, capsys):
        built = count_constructions(monkeypatch)
        uppers = count_constructions(monkeypatch, UpperStructure)
        path = DATA / "lower_bounds_2x3xunicast-0.json"
        assert main(["bounds", str(path), "--beta-step", "0.25"]) == 0
        assert "11 outer (alpha sweep 0:1:0.1), 225 inner" in capsys.readouterr().out
        assert len(built) == 1
        assert len(uppers) == 1

    def test_layered_blend_rates_one_structure_per_schedule(self, monkeypatch):
        # The blend time-shares the schedules' arcs.
        built = count_constructions(monkeypatch)
        result = experiments.layered_experiment(4, 1.0)
        assert len(built) == 4
        assert abs(result["inner_sym_flow"] - result["inner_sym_closed"]) < 1e-6

    def test_multicast_point_builds_one_per_split_and_order(self, monkeypatch):
        # 2 common-layer orders, then 9 splits x 3 decode orders, each rated
        # at both private shares.
        built = count_constructions(monkeypatch)
        power = db_to_linear(13.0)
        net = experiments.multicast_network(10, power, power * db_to_linear(-3.0), 8, 0.1)
        experiments.multicast_eq_lower(net, decompose(net))
        assert len(built) == 29

    def test_multicast_point_builds_what_one_component_fixes_once(self, monkeypatch):
        # Its 30 structures (1 upper, 29 lower) share one frame: each of the
        # 10 MACs gets one side, with one SIC table, per decode order it is
        # rated in (2), where one per MAC per lower structure made 290, and
        # the one point-to-point link, the q-ary S1 -> S2 link, one capacity.
        tables, capacities = [], []
        sic_table, link_capacity = assemble._sic_table, assemble.link_capacity

        def counting_table(rx, links, order):
            tables.append((rx, order))
            return sic_table(rx, links, order)

        def counting_capacity(link):
            capacities.append(link)
            return link_capacity(link)

        monkeypatch.setattr(assemble, "_sic_table", counting_table)
        monkeypatch.setattr(assemble, "link_capacity", counting_capacity)
        built = count_constructions(monkeypatch)
        experiments.multicast_experiment(10, (13.0,), -3.0, 8, 0.1)
        assert len(built) == 29
        assert len(tables) == len(set(tables)) == 20
        assert {order for _rx, order in tables} == {("S1", "S2"), ("S2", "S1")}
        assert [(link.src, link.dst, link.kind) for link in capacities] == [("S1", "S2", "qsc")]

    def test_multicast_point_builds_each_side_once(self, monkeypatch):
        # Its 29 lower structures share one frame: each BC gets one side per
        # (layer count, targets) it is built with (the common layer and 9
        # splits), each of the 10 MACs one per decode order (2). One side per
        # BC and MAC per structure made 58 and 290.
        built = count_constructions(monkeypatch)
        bc_sides = count_constructions(monkeypatch, assemble._BcSide)
        mac_sides = count_constructions(monkeypatch, assemble._MacSide)
        experiments.multicast_experiment(10, (13.0,), -3.0, 8, 0.1)
        assert (len(built), len(bc_sides), len(mac_sides)) == (29, 20, 20)


class TestSharedFrame:
    # A structure built on a frame that other structures filled rates, bit
    # for bit, as one built after every cache is emptied.
    @staticmethod
    def rated(structure, splits):
        """Every split's `arcs` and the batch of all, in exact text."""
        batch = structure.rate_batch(
            {key: [split[key] for split in splits] for key in splits[0]}
        )
        return (
            [repr(structure.arcs(split)) for split in splits],
            repr((batch.slots, batch.groups)),
            batch.rates.tobytes(),
            batch.group.tobytes(),
        )

    @staticmethod
    def multicast_splits(structure):
        keys = (("bc", "S1"), ("bc", "S2"))
        if structure.params.bc_betas:
            return [{key: (1 - share, share) for key in keys} for share in (0.125, 0.25)]
        ten = tuple(0.1 * (k + 1) / 5.5 for k in range(10))  # sums to 1 within 1e-9
        return [{}, {keys[0]: ten, keys[1]: ten[::-1]}]

    @staticmethod
    def relay_splits(structure):
        if len(structure.params.bc_betas[("bc", "S")]) == 1:
            return [{("bc", "S"): (1.0,)}]
        return [{("bc", "S"): (1 - share, share)} for share in (0.0, 0.3, 0.75)]

    def assert_warm_equals_cold(self, structures, splits_of):
        warm = [self.rated(structure, splits_of(structure)) for structure in structures]
        for structure, expected in zip(structures, warm):
            assemble._clear_caches()
            cold = LowerStructure(structure.components, structure.params)
            assert self.rated(cold, splits_of(structure)) == expected

    def test_multicast_point(self, monkeypatch):
        built = count_constructions(monkeypatch)
        experiments.multicast_experiment(10, (13.0,), -3.0, 8, 0.1)
        splits_of = self.multicast_splits

        # Pairs differing only in decode order share their BC sides and not
        # their MAC sides; pairs differing only in targets the reverse.
        s2_first, s1_first, _aligned, next_split = built[2:6]
        assert s2_first.params.bc_decode_targets == s1_first.params.bc_decode_targets
        assert s2_first.params.mac_order == next_split.params.mac_order
        assert s2_first._bcs == s1_first._bcs and s2_first._macs != s1_first._macs
        assert s2_first._macs == next_split._macs and s2_first._bcs != next_split._bcs
        for a, b in ((s2_first, s1_first), (s2_first, next_split)):
            split = splits_of(a)[0]
            assert a.arcs(split) != b.arcs(split)
        self.assert_warm_equals_cold(built, splits_of)

    def test_relay_point(self, monkeypatch):
        built = count_constructions(monkeypatch)
        experiments.relay_experiment(0.0, 10.0, (5.0,))
        assert len(built) == 6
        self.assert_warm_equals_cold(built, self.relay_splits)

    @pytest.mark.parametrize("workload", ["relay", "multicast"])
    def test_evicted_frame_rebuilds_bit_for_bit(self, monkeypatch, workload):
        # Structures built again on their live components, after 4 newer
        # component tuples pushed their frame out, rate as the warm ones.
        built = count_constructions(monkeypatch)
        if workload == "relay":
            experiments.relay_experiment(0.0, 10.0, (5.0,))
            splits_of = self.relay_splits
        else:
            experiments.multicast_experiment(10, (13.0,), -3.0, 8, 0.1)
            splits_of = self.multicast_splits
        structures = list(built)
        warm = [self.rated(structure, splits_of(structure)) for structure in structures]
        net = experiments.relay_network(1.0, 10.0, 10.0)
        for _ in range(4):
            LowerStructure(decompose(net))
        misses = assemble._frame.cache_info().misses
        rebuilt = [LowerStructure(old.components, old.params) for old in structures]
        assert assemble._frame.cache_info().misses == misses + 1
        for old, new, expected in zip(structures, rebuilt, warm):
            assert not {id(side) for side in new._bcs + new._macs} & {
                id(side) for side in old._bcs + old._macs
            }
            assert self.rated(new, splits_of(old)) == expected


RELAY_ORDERS = (("R", "S"), ("S", "R"))


def relay_structures(components, share):
    """Every structure the relay search rates, with its betas at ``share``."""
    single = {(("bc", "S"), 0): ("D",)}
    structures = [
        (experiments._relay_structure(components, 1, single, order), (1.0,))
        for order in RELAY_ORDERS
    ]
    for family in ("strong", "direct"):
        targets = experiments._relay_targets(family)
        structures += [
            (experiments._relay_structure(components, 2, targets, order), (1 - share, share))
            for order in RELAY_ORDERS
        ]
    return structures


@given(
    gamma_sr_db=st.floats(min_value=-10.0, max_value=30.0),
    share=st.one_of(
        st.sampled_from((0.0, 1.0)),
        st.integers(min_value=0, max_value=4096).map(lambda k: k / 4096),  # the search's grid
        st.floats(min_value=0.0, max_value=1.0),
    ),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_relay_cut_rate_is_the_max_flow(gamma_sr_db, share):
    components = decompose(experiments.relay_network(1.0, db_to_linear(gamma_sr_db), 10.0))
    demand = experiments._relay_demand()
    for structure, betas in relay_structures(components, share):
        arcs = structure.arcs({("bc", "S"): betas})
        flow = unicast_inner(structure.node_ids, arcs, demand).rate
        batch = structure.rate_batch({("bc", "S"): [betas]})
        (cut,) = flows.demand_cut(batch.slots, batch.rates, demand)
        others = [(1.0,)] if len(betas) == 1 else [(0.5, 0.5), (1.0, 0.0)]
        batch = structure.rate_batch({("bc", "S"): [*others, betas]})
        # Whatever the batch holds besides.
        assert flows.demand_cut(batch.slots, batch.rates, demand)[-1] == cut
        if all(rate == 0.0 or rate > flows._EK_TOL for _, _, rate, _ in arcs):
            assert cut == flow
        else:
            # The max flow leaves paths of at most its residual tolerance
            # unused (share 1e-12 at 0 dB: cut 0.5, flow 0.4999999999992786).
            assert flow <= cut <= flow + 1e-9


class TestOuterAndCertifiedFlowsPerSearch:
    # Like the construction counts above, these do not depend on machine speed.
    def test_relay_lower_certifies_only_its_winner(self, monkeypatch):
        flowed = []

        def counting(node_ids, arcs, demand):
            flowed.append(demand)
            return flows.unicast_inner(node_ids, arcs, demand)

        cut_rates, rated = experiments.demand_cut, []

        def recording(slots, rates, demand):
            cuts = cut_rates(slots, rates, demand)
            rated.extend(cuts.tolist())
            return cuts

        monkeypatch.setattr(experiments, "unicast_inner", counting)
        monkeypatch.setattr(experiments, "demand_cut", recording)
        rows = experiments.relay_experiment(0.0, 10.0, (-10.0, 5.0, 20.0))
        assert len(flowed) == len(rows)  # one min cut per point, for its winner
        # Each reported rate is, bit for bit, a cut rate its search computed.
        assert all(row["eq_lower"] > 0.0 and row["eq_lower"] in rated for row in rows)

    def test_relay_lower_keeps_the_earliest_of_tied_candidates(self, monkeypatch):
        # Each batch of splits rates 1.0 above the batch before, so the last
        # batch holds the winner; within a batch the rates rise by less than
        # _IMPROVE_TOL in all, so only its first row in scan order may win.
        batches, certified = [], []
        rate_batch = LowerStructure.rate_batch

        def recording(self, splits):
            batches.append(rate_batch(self, splits))
            return batches[-1]

        def tied(slots, rates, demand):  # the cut of the last batch rated
            step = 0.5 * experiments._IMPROVE_TOL / len(rates)
            return len(batches) + step * np.arange(len(rates))

        def certify(node_ids, arcs, demand):
            certified.append(arcs)
            return flows.FlowResult(demand=demand, rate=float(len(batches)), witness={})

        monkeypatch.setattr(LowerStructure, "rate_batch", recording)
        monkeypatch.setattr(experiments, "demand_cut", tied)
        monkeypatch.setattr(experiments, "unicast_inner", certify)
        components = decompose(experiments.relay_network(1.0, db_to_linear(5.0), 10.0))
        assert experiments.relay_eq_lower(components) == len(batches)
        last = batches[-1]
        assert len(last.rates) > 1
        assert last.arcs(0) != last.arcs(len(last.rates) - 1)
        assert certified == [last.arcs(0)]

    def test_outer_searches_rate_each_mac_once_and_certify_one_flow(self, monkeypatch):
        # One entry per flow call and per (MAC, alpha) pair that `mac_upper`
        # computes; `batches` holds each `mac_upper` call's pair count.
        calls, batches = [], []

        def counted(module, name):
            call = getattr(module, name)

            def counting(*args):
                calls.append(name)
                return call(*args)

            monkeypatch.setattr(module, name, counting)

        mac_upper = assemble.mac_upper

        def counting_pairs(pairs):
            pairs = tuple(pairs)
            calls.extend(["mac_upper"] * len(pairs))
            batches.append(len(pairs))
            return mac_upper(pairs)

        monkeypatch.setattr(assemble, "mac_upper", counting_pairs)
        counted(flows, "max_flow")
        counted(flows, "multicast_outer")
        components = decompose(experiments.relay_network(1.0, db_to_linear(5.0), 10.0))
        experiments.relay_eq_upper(components)
        # One MAC at 11 alphas, shared by both receiver orders.
        assert sorted(calls) == ["mac_upper"] * 11 + ["max_flow"]
        assert batches == [11]
        calls.clear()
        batches.clear()
        power = db_to_linear(13.0)
        net = experiments.multicast_network(10, power, power * db_to_linear(-3.0), 8, 0.1)
        experiments.multicast_eq_upper(decompose(net), sorted(net.demands[0].sinks))
        assert sorted(calls) == ["mac_upper"] * 110 + ["multicast_outer"]
        assert batches == [110]

    def test_relay_sweep_computes_each_mac_rate_once(self, monkeypatch):
        # Every point of a relay sweep has the one MAC at D, with gamma_sd and
        # gamma_rd fixed, so 41 points compute 11 (MAC, alpha) pairs in all.
        calls = []
        mac_upper = assemble.mac_upper

        def counting(pairs):
            pairs = tuple(pairs)
            calls.extend(pairs)
            return mac_upper(pairs)

        monkeypatch.setattr(assemble, "mac_upper", counting)
        rows = experiments.relay_experiment(0.0, 10.0, [float(g) for g in range(-10, 31)])
        assert len(rows) == 41
        assert len(calls) == len(set(calls)) == len(experiments.ALPHA_GRID)

    def test_relay_outer_scans_alpha_by_alpha_and_keeps_the_earliest_tie(self, monkeypatch):
        # The first structure's cuts are (2, 1) at the two alphas and the
        # second's (1, 2): alpha by alpha, (alpha 0, second) comes first.
        cuts, certified = [[2.0, 1.0], [1.0, 2.0]], []

        def scripted(slots, rates, demand):
            return np.array(cuts.pop(0))

        def certify(node_ids, arcs, demand):
            certified.append(arcs)
            return flows.FlowResult(demand=demand, rate=1.0, witness={})

        monkeypatch.setattr(flows, "min_cut", scripted)
        monkeypatch.setattr(flows, "max_flow", certify)
        components = decompose(experiments.relay_network(1.0, db_to_linear(5.0), 10.0))
        assert experiments.relay_eq_upper(components, (0.3, 0.6)) == 1.0
        second = UpperStructure(components, {("bc", "S"): ("R", "D")})
        assert certified == [second.arcs(0.3)]

    def test_outer_searches_keep_their_structures(self, monkeypatch):
        structures = count_constructions(monkeypatch, UpperStructure)
        experiments.relay_eq_upper(decompose(experiments.relay_network(1.0, db_to_linear(5.0), 10.0)))
        assert len(structures) == 2  # one per receiver order of the broadcast side
        power = db_to_linear(13.0)
        net = experiments.multicast_network(10, power, power * db_to_linear(-3.0), 8, 0.1)
        experiments.multicast_eq_upper(decompose(net), sorted(net.demands[0].sinks))
        assert len(structures) == 3


def reference_relay_upper(components, alphas):
    """The relay outer search as a loop: the least certified max flow over
    every alpha and both receiver orders."""
    demand = experiments._relay_demand()
    structures = [
        UpperStructure(components, {("bc", "S"): perm}) for perm in (("D", "R"), ("R", "D"))
    ]
    best = math.inf
    for alpha in alphas:
        for structure in structures:
            best = min(best, flows.max_flow(structure.node_ids, structure.arcs(alpha), demand).rate)
    return best


def reference_multicast_upper(components, sinks, alphas):
    """The multicast outer search as a loop: the least `multicast_outer` over
    every alpha, from a merged source."""
    structure = UpperStructure(components)
    node_ids = (*structure.node_ids, "JOINT_SRC")
    feeds = [("JOINT_SRC", (source,), math.inf, "joint source") for source in ("S1", "S2")]
    demand = Demand(kind="multicast", source="JOINT_SRC", sinks=frozenset(sinks))
    best = math.inf
    for alpha in alphas:
        arcs = structure.arcs(alpha) + feeds
        best = min(best, flows.multicast_outer(node_ids, arcs, demand).rate)
    return best


OUTER_ALPHA_GRIDS = (experiments.ALPHA_GRID, (0.0, 1.0), (0.35,))


@pytest.mark.parametrize("alphas", OUTER_ALPHA_GRIDS)
def test_relay_outer_search_is_the_flow_loop(alphas):
    # On the repro grid, bit for bit.
    want, got = [], []
    for gamma_sr_db in parse_grid("-10:30:1"):
        components = decompose(experiments.relay_network(1.0, db_to_linear(gamma_sr_db), 10.0))
        want.append(reference_relay_upper(components, alphas))
        got.append(experiments.relay_eq_upper(components, alphas))
    assert [repr(rate) for rate in got] == [repr(rate) for rate in want]


@pytest.mark.parametrize("alphas", OUTER_ALPHA_GRIDS)
@pytest.mark.parametrize("receivers, p_db", [(10, "-5:25:1"), (4, "-5:25:15")])
def test_multicast_outer_search_is_the_flow_loop(alphas, receivers, p_db):
    # On the repro grids, bit for bit.
    want, got = [], []
    for power in map(db_to_linear, parse_grid(p_db)):
        net = experiments.multicast_network(receivers, power, power * db_to_linear(-3.0), 8, 0.1)
        components, sinks = decompose(net), sorted(net.demands[0].sinks)
        want.append(reference_multicast_upper(components, sinks, alphas))
        got.append(experiments.multicast_eq_upper(components, sinks, alphas))
    assert [repr(rate) for rate in got] == [repr(rate) for rate in want]


class TestMulticastCutPruning:
    @staticmethod
    def run_point(receivers, p_db, delta_ratio_db):
        power = db_to_linear(p_db)
        net = experiments.multicast_network(
            receivers, power, power * db_to_linear(delta_ratio_db), 8, 0.1
        )
        return experiments.multicast_eq_lower(net, decompose(net))

    def test_pruned_search_equals_exhaustive(self, monkeypatch):
        points = [
            (receivers, p_db, delta_ratio_db)
            for receivers in (2, 4, 10)
            for p_db in (-5.0, 7.0, 25.0)
            for delta_ratio_db in (-10.0, -3.0)
        ]
        pruned = [self.run_point(*point) for point in points]
        cuts = []

        def no_cut(arcs, demands):
            cuts.append(arcs)
            return math.inf

        monkeypatch.setattr(flows, "sum_rate_cut", no_cut)
        exhaustive = [self.run_point(*point) for point in points]
        assert cuts  # the search read its cuts through the patched name
        assert pruned == exhaustive

    def test_bench_point_solves_one_lp(self, monkeypatch):
        # LP and rating counts do not depend on machine speed, so they guard
        # the pruning where a timer cannot.
        solves, rated = [], []
        solve, arcs = flows._solve_lp, LowerStructure.arcs

        def counting_solve(lp, upper):
            solves.append(lp)
            return solve(lp, upper)

        def counting_arcs(self, bc_betas):
            rated.append(bc_betas)
            return arcs(self, bc_betas)

        monkeypatch.setattr(flows, "_solve_lp", counting_solve)
        monkeypatch.setattr(LowerStructure, "arcs", counting_arcs)
        assert self.run_point(10, 13.0, -3.0) > 0.0
        assert len(solves) == 1
        assert len(rated) == 56


def test_cli_imports_no_model_or_flow_module():
    # The CLI parses, calls the library and prints: the channel models, the
    # flow layer and the relay benchmarks are reached through the library.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:  # relative to netbounds, where cli.py sits
                base = "netbounds" + (f".{node.module}" if node.module else "")
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    forbidden = {f"netbounds.{name}" for name in ("flows", "mac", "bc", "benchmarks")}
    assert imported.isdisjoint(forbidden), sorted(imported & forbidden)


def test_only_flows_names_the_cut_margin_or_the_routing_rounds():
    # `flows.best_inner` is the one inner search: no other module skips a
    # candidate by _CUT_MARGIN or routes a run by flows' `_route`.
    package = Path(cli.__file__).parent
    named = []
    for path in sorted(package.glob("*.py")):
        if path.name == "flows.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in ("_CUT_MARGIN", "_route"):
                named.append(f"{path.name}:{node.lineno}: {name}")
    assert named == []


def test_pinned_sums_take_no_builtin_sum():
    # From Python 3.12 on builtin `sum` compensates float sums but not array
    # sums, so the MAC and lower models sum through `info.ltr_sum`, and their
    # float and batch forms stay alike bit for bit.
    package = Path(cli.__file__).parent
    named = []
    for name in ("assemble.py", "mac.py"):
        for node in ast.walk(ast.parse((package / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and node.id == "sum":
                named.append(f"{name}:{node.lineno}")
    assert named == []


def test_no_module_imports_scipy_at_import_time():
    # SciPy's optimize package takes most of a fresh process's start-up, so it
    # loads at the first routing LP (flows._highs), not when a module loads.
    package = Path(cli.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        statements = list(ast.parse(path.read_text(encoding="utf-8")).body)
        while statements:
            node = statements.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # a function body runs only when called
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                statements.extend(ast.iter_child_nodes(node))
                continue
            found += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def test_scipy_loads_only_when_a_routing_lp_is_solved(tmp_path):
    # Run in a fresh interpreter: this one has SciPy loaded by other tests.
    name = "lower_bounds_2x3xunicast-0.json"
    (tmp_path / name).write_bytes((DATA / name).read_bytes())
    script = textwrap.dedent(
        f"""
        import contextlib
        import io
        import sys

        def loaded():
            return [m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules]

        def any_scipy():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        import netbounds.cli
        print(loaded())
        from netbounds import cli, experiments
        from netbounds.decouple import decompose
        from netbounds.netmodel import parse_network

        with open({name!r}, encoding="utf-8") as handle:
            components = decompose(parse_network(handle.read()))
        assert all(c.coupled for c in components), components
        print(any_scipy())
        experiments.relay_experiment(0.0, 10.0, [5.0])
        print(any_scipy())
        argv = ["bounds", {name!r}, "--beta-step", "0.25", "--out", "out.csv"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        print(loaded())
        """
    )
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert run.returncode == 0, run.stderr
    # Parsing and decomposing a coupled group (the `partition` bench path) and
    # a relay point load no SciPy module at all.
    assert run.stdout.splitlines() == [
        "[]",
        "[]",
        "[]",
        "['scipy.optimize', 'scipy.sparse']",
    ]
    golden = DATA / name.replace("lower_bounds_", "bounds_").replace(".json", ".csv")
    assert (tmp_path / "out.csv").read_bytes() == golden.read_bytes()
