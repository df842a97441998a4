"""Every lower network of a fixed set of inputs, pinned by one SHA-256.

The inputs are the candidates that the searches rate: the relay search at
three source-relay SNRs, the multicast search at one power, the full beta
grid of `bounds` on two files under tests/data, and the decode-order runs of
the layered experiment at 0 and 20 dB. Each is rebuilt with `build_lower` and
hashed over its nodes (each with the kind that network objects once carried:
"auxiliary" for an id of no component, else "terminal"), its arcs, `repr` of
every rate as a float and every arc's `describe` text. The digest in
tests/data/lower_networks.json was recorded while `build_lower` still rebuilt
every network from scratch for each beta and built pipe objects, so it shows
that building a structure once and re-rating it, and keeping only arcs,
changes no network. Inputs are recorded where a search rates a candidate,
`LowerStructure.arcs`; a search that rates many splits at once goes through
`LowerStructure.rate_batch`, where each of its splits is recorded.
Re-record it (the failure message prints the new value) only when a change
is meant to move a lower network.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

from netbounds import cli
from netbounds.assemble import LowerStructure, build_lower, describe
from netbounds.decouple import decompose
from netbounds.info import db_to_linear

DATA = Path(__file__).resolve().parent / "data"
BOUNDS_FILES = ("lower_bounds_2x3xunicast-0.json", "lower_bounds_3x2xmulticast-1.json")


def _relay():
    gamma_sd, gamma_rd = db_to_linear(0.0), db_to_linear(10.0)
    for gamma_sr_db in (-10.0, 5.0, 20.0):
        net = cli.relay_network(gamma_sd, db_to_linear(gamma_sr_db), gamma_rd)
        cli.relay_eq_lower(decompose(net))


def _multicast():
    power = db_to_linear(13.0)
    net = cli.multicast_network(10, power, power * db_to_linear(-3.0), 8, 0.1)
    cli.multicast_eq_lower(net, decompose(net))


def _bounds():
    for name in BOUNDS_FILES:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["bounds", str(DATA / name), "--beta-step", "0.25"]) == 0


def _layered():
    for gamma_db in (0.0, 20.0):
        cli.layered_experiment(4, db_to_linear(gamma_db))


SECTIONS = {"relay": _relay, "multicast": _multicast, "bounds": _bounds, "layered": _layered}


def _update(digest, components, node_ids, arcs) -> None:
    terminals = {name for comp in components for name in (*comp.inputs, *comp.outputs)}
    nodes = tuple((i, "terminal" if i in terminals else "auxiliary") for i in node_ids)
    pipes = tuple((a[0], a[1], repr(float(a[2])), describe(a)) for a in arcs)
    digest.update(repr((nodes, pipes)).encode("utf-8"))


def test_lower_networks_match_recorded_digest(monkeypatch):
    inputs = []
    rate, rate_batch = LowerStructure.arcs, LowerStructure.rate_batch

    def recording(self, bc_betas):
        params = dataclasses.replace(self.params, bc_betas=bc_betas)
        inputs.append((self.components, params))
        return rate(self, bc_betas)

    def recording_batch(self, bc_betas):
        batch = rate_batch(self, bc_betas)
        for row in range(len(batch.rates)):
            split = {key: rows[row] for key, rows in bc_betas.items()}
            inputs.append((self.components, dataclasses.replace(self.params, bc_betas=split)))
        return batch

    monkeypatch.setattr(LowerStructure, "arcs", recording)
    monkeypatch.setattr(LowerStructure, "rate_batch", recording_batch)
    counts = {}
    for name, run in SECTIONS.items():
        start = len(inputs)
        run()
        counts[name] = len(inputs) - start
    monkeypatch.undo()

    digest = hashlib.sha256()
    for components, params in inputs:
        _update(digest, components, *build_lower(components, params))
    want = json.loads((DATA / "lower_networks.json").read_text(encoding="utf-8"))
    assert counts == want["networks"]
    assert digest.hexdigest() == want["sha256"], digest.hexdigest()
