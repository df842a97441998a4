"""`LowerStructure.rate_batch` against `LowerStructure.arcs`, split by split.

The batch runs the formulas of `arcs` once per decode-order group over arrays
that hold every split's betas, so each of its rows must be `arcs` of that
split bit for bit: the same arcs left out, the `repr` of every rate and every
label. Invalid splits must raise the same ValueError text in both forms.
"""

import builtins
import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbounds import assemble, experiments
from netbounds.assemble import LowerParams, LowerStructure
from netbounds.bc import simplex_grid
from netbounds.decouple import decompose
from netbounds.info import db_to_linear
from netbounds.netmodel import parse_network

DATA = Path(__file__).resolve().parent / "data"
KEY = ("bc", "S")
RELAY_ORDERS = (("R", "S"), ("S", "R"))

SHARES = st.one_of(
    st.sampled_from((0.0, 1.0, 1e-12)),
    st.integers(min_value=0, max_value=4096).map(lambda k: k / 4096),  # the search's grid
    st.floats(min_value=0.0, max_value=1.0),
)


def relay_components(gamma_sr_db):
    return decompose(experiments.relay_network(1.0, db_to_linear(gamma_sr_db), 10.0))


def relay_structures(components):
    """The six structures the relay search rates, with their layer counts."""
    single = {(KEY, 0): ("D",)}
    structures = [(experiments._relay_structure(components, 1, single, o), 1) for o in RELAY_ORDERS]
    for family in ("strong", "direct"):
        targets = experiments._relay_targets(family)
        structures += [
            (experiments._relay_structure(components, 2, targets, o), 2) for o in RELAY_ORDERS
        ]
    return structures


def multicast_structure(receivers=4, split=2):
    """A split structure of the multicast search, its decode orders aligned."""
    power = db_to_linear(13.0)
    net = experiments.multicast_network(receivers, power, power * db_to_linear(-3.0), 8, 0.1)
    sinks = sorted(net.demands[0].sinks)
    key1, key2 = ("bc", "S1"), ("bc", "S2")
    targets = {
        (key1, 0): tuple(sinks),
        (key1, 1): tuple(sinks[:split]),
        (key2, 0): tuple(sinks),
        (key2, 1): tuple(sinks[split:]),
    }
    aligned = {
        ("mac", sink): (("S2", "S1") if index < split else ("S1", "S2"))
        for index, sink in enumerate(sinks)
    }
    params = LowerParams(
        bc_betas={key1: (1.0, 0.0), key2: (1.0, 0.0)},
        mac_order=aligned,
        bc_decode_targets=targets,
    )
    return LowerStructure(decompose(net), params), key1, key2


def assert_rows_are_arcs(structure, splits):
    """Every row of the batch of ``splits`` (BC key -> n splits) is `arcs`
    of that split: arcs and labels by `repr`, the rate array likewise, in
    whatever order its decode orders put the SIC arcs. Returns the batch."""
    batch = structure.rate_batch(splits)
    n = len(next(iter(splits.values()), [None]))
    assert batch.rates.shape == (n, len(batch.slots))
    for row in range(n):
        want = structure.arcs({key: rows[row] for key, rows in splits.items()})
        assert [repr(arc) for arc in batch.arcs(row)] == [repr(arc) for arc in want]
        rated = [
            (slot, repr(rate))
            for slot, rate in zip(batch.slots, batch.rates[row].tolist())
            if rate != 0.0
        ]
        assert sorted(rated) == sorted(((t, h), repr(r)) for t, h, r, _ in want if r != 0.0)
    return batch


@given(
    gamma_sr_db=st.floats(min_value=-10.0, max_value=30.0),
    shares=st.lists(SHARES, min_size=1, max_size=9),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_relay_batch_rows_are_the_float_arcs(gamma_sr_db, shares):
    for structure, layers in relay_structures(relay_components(gamma_sr_db)):
        if layers == 1:
            rows = [(1.0,)] * len(shares)
        else:
            rows = [(1.0 - share, share) for share in shares]
        assert_rows_are_arcs(structure, {KEY: rows})


MULTICAST = multicast_structure()


@given(shares=st.lists(st.tuples(SHARES, SHARES), min_size=1, max_size=9))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_multicast_batch_rows_are_the_float_arcs(shares):
    structure, key1, key2 = MULTICAST
    splits = {
        key1: [(1.0 - first, first) for first, _ in shares],
        key2: [(1.0 - second, second) for _, second in shares],
    }
    assert_rows_are_arcs(structure, splits)
    # A key left out is the default split, at every row, in both forms.
    assert_rows_are_arcs(structure, {key1: splits[key1]})


def test_edge_shares_of_every_structure():
    shares = [0.0, 1.0, 1e-12, 1 - 1e-12, 1 / 4096, 0.5, 4095 / 4096]
    for structure, layers in relay_structures(relay_components(0.0)):
        rows = [(1.0,)] * len(shares) if layers == 1 else [(1 - s, s) for s in shares]
        assert_rows_are_arcs(structure, {KEY: rows})
    structure, key1, key2 = MULTICAST
    rows = [(1 - s, s) for s in shares]
    assert_rows_are_arcs(structure, {key1: rows, key2: rows[::-1]})


INVALID = [
    (math.nan, 1.0),
    (math.inf, 0.0),
    (-0.25, 1.25),
    (0.5, 0.6),
    (1.0,),
    (0.5, 0.25, 0.25),
]


@pytest.mark.parametrize("bad", INVALID, ids=repr)
def test_invalid_split_raises_the_float_forms_error(bad):
    structure = relay_structures(relay_components(5.0))[2][0]
    with pytest.raises(ValueError) as single:
        structure.arcs({KEY: bad})
    for rows in ([(0.5, 0.5), bad], [(0.5, 0.5), bad, (math.nan, 1.0)]):
        with pytest.raises(ValueError) as batched:
            structure.rate_batch({KEY: rows})
        assert str(batched.value) == str(single.value)  # the first bad split's


def test_unknown_key_raises_the_float_forms_error():
    structure = relay_structures(relay_components(5.0))[2][0]
    unknown = ("bc", "X")
    with pytest.raises(ValueError) as single:
        structure.arcs({unknown: (1.0,)})
    with pytest.raises(ValueError) as batched:
        structure.rate_batch({unknown: [(1.0,), (1.0,)]})
    assert str(batched.value) == str(single.value)


def test_entries_of_different_lengths_raise():
    structure, key1, key2 = MULTICAST
    with pytest.raises(ValueError, match="same number of splits"):
        structure.rate_batch({key1: [(0.5, 0.5)] * 2, key2: [(0.5, 0.5)] * 3})
    with pytest.raises(ValueError, match="same number of splits"):
        structure.rate_batch({key1: []})


def awgn_network(links):
    """A network of AWGN links ``(src, dst, snr)`` and no demands."""
    doc = {
        "nodes": sorted({end for src, dst, _ in links for end in (src, dst)}),
        "links": [{"from": s, "to": d, "kind": "awgn", "snr": snr} for s, d, snr in links],
    }
    return parse_network(json.dumps(doc))


def compensated_sum(values, start=0):
    """Builtin `sum` as Python 3.12 runs it: Neumaier-compensated over floats,
    plain over anything else (the batch form's arrays)."""
    values = list(values)
    if not all(isinstance(value, float) for value in values):
        return builtins.sum(values, start)
    total = compensation = 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation


# Two broadcast sides of four receivers each and a third sender at D2.
TWO_SIDES = [
    *(("S1", f"D{k}", snr) for k, snr in enumerate((9.0, 19.0, 9.0, 7.0))),
    *(("S2", f"D{k}", snr) for k, snr in enumerate((40.0, 17.0, 35.0, 39.0))),
    ("S3", "D2", 7.0),
]


def test_batch_rows_are_the_float_arcs_under_a_compensated_sum(monkeypatch):
    # The forms agree bit for bit only if neither sums through builtin `sum`:
    # compensated in `arcs` but not over the batch's arrays, sums of three
    # betas such as (0.2, 0.7, 0.1) differ in the last bit.
    monkeypatch.setattr(assemble, "sum", compensated_sum, raising=False)
    components = decompose(awgn_network(TWO_SIDES))
    structure = LowerStructure(components)
    grid = list(simplex_grid(4, 10))
    for varied in (("bc", "S1"), ("bc", "S2")):
        # The other side puts all of its power on its last layer.
        splits = {key: [grid[0]] * len(grid) for key in (("bc", "S1"), ("bc", "S2"))}
        splits[varied] = grid
        assert_rows_are_arcs(structure, splits)


# A broadcasts to D and E; B sends to D alone, at A's SNR at D. Where A leaves
# no residual at D, D's two inputs tie in decodable power and node ids order
# them, A first; elsewhere B is decoded first.
TIED = [("A", "D", 2.0), ("A", "E", 8.0), ("B", "D", 2.0)]


@pytest.mark.parametrize(
    "name", ["lower_bounds_2x3xunicast-0", "lower_bounds_3x2xmulticast-1", "tied"]
)
def test_default_decode_orders_follow_each_split(name):
    # Without an explicit order, each split's order depends on its residuals,
    # so the batch rates each group of splits that share their orders apart.
    if name == "tied":
        net = awgn_network(TIED)
    else:
        net = parse_network((DATA / f"{name}.json").read_text(encoding="utf-8"))
    components = decompose(net)
    sides = [comp for comp in components if comp.kind == "bc"]
    combos = list(itertools.product(*(simplex_grid(len(comp.links), 4) for comp in sides)))
    splits = {comp.key: [combo[k] for combo in combos] for k, comp in enumerate(sides)}
    batch = assert_rows_are_arcs(LowerStructure(components), splits)
    assert len(batch.groups) > 1
    if name == "tied":
        # The last split, (1, 0), leaves A no residual at D; the others do not.
        orders = [arc[3][1] for row in (0, 4) for arc in batch.arcs(row) if arc[3][0] == "mac"]
        assert orders == [("B", "A"), ("A", "B")]
