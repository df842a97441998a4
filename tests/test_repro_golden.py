"""The repro sweeps, byte-compared with pinned outputs under tests/data.

The files hold the CSV that each invocation prints. `--out` writes the same
bytes, except that the invocation line names the option. Regenerate a file
(for example `netbounds repro relay > tests/data/repro_relay.csv`) only when
a change is meant to move a printed digit.

tests/data/relay_dense.json pins the relay sweep's two equivalence bounds at
every 0.25 dB of -10..30 dB, as `repr` of each float, so a change that moves
the last bit of a rate anywhere between the default grid's points fails too.
"""

import json
import shlex
from pathlib import Path

import pytest

from netbounds.cli import main, relay_experiment

DATA = Path(__file__).resolve().parent / "data"

CASES = {
    "repro_relay.csv": ["repro", "relay"],
    # gamma 0 dB sits in the capacity regime, 20 dB in the multi-access one;
    # both inner bounds come from blend_inner.
    "repro_layered.csv": ["repro", "layered"],
    "repro_layered_20db.csv": ["repro", "layered", "--gamma-db", "20"],
    "repro_multicast.csv": (
        ["repro", "multicast", "--receivers", "4", "--p-db=-5:25:15"]
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_csv_match_golden(name, tmp_path, monkeypatch, capsys):
    argv = CASES[name]
    golden = (DATA / name).read_bytes()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden

    monkeypatch.chdir(tmp_path)
    line = f"# invocation: netbounds {shlex.join(argv)}\n".encode("utf-8")
    assert line in golden
    with_out = f"# invocation: netbounds {shlex.join([*argv, '--out', 'out.csv'])}\n"
    assert main([*argv, "--out", "out.csv"]) == 0
    assert capsys.readouterr().out == "wrote out.csv\n"
    expected = golden.replace(line, with_out.encode("utf-8"))
    assert (tmp_path / "out.csv").read_bytes() == expected


def test_dense_relay_sweep_matches_golden():
    doc = json.loads((DATA / "relay_dense.json").read_text(encoding="utf-8"))
    grid = [float(row[0]) for row in doc["rows"]]
    assert len(grid) == 161
    rows = relay_experiment(doc["gamma_sd_db"], doc["gamma_rd_db"], grid)
    got = [[repr(row[name]) for name in doc["columns"]] for row in rows]
    assert got == doc["rows"]
