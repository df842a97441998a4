"""A fixed-seed fuzz of `netbounds bounds` over files the parser accepts.

Every generated file has 3-5 nodes and 2-8 directed links: 80% AWGN with an
SNR drawn from -100..100 dB, the rest BSC (eps 0, 1/2 or a uniform draw) or
QSC (xi 0, (q-1)/q or a uniform draw), and 1-3 unicast or multicast demands,
some on a node without a link. A file must either get its bounds (exit 0,
inner <= outer for every demand) or be refused as an input error that names
the field at fault (exit 2, naming `links[i]` or `demands[i]`). An internal
error (exit 3) or an input error that names no field fails the test.
"""

import json
import random
import re

from netbounds.cli import main

FILES = 150
SEED = 20261019


def random_document(rng: random.Random) -> dict:
    names = [f"N{k}" for k in range(rng.randint(3, 5))]
    pairs = [(u, v) for u in names for v in names if u != v]
    links = []
    for u, v in rng.sample(pairs, min(rng.randint(2, 8), len(pairs))):
        link = {"from": u, "to": v}
        draw = rng.random()
        if draw < 0.8:
            link.update(kind="awgn", snr_db=rng.uniform(-100.0, 100.0))
        elif draw < 0.9:
            link.update(kind="bsc", eps=rng.choice([0.0, 0.5, rng.uniform(0.0, 0.5)]))
        else:
            q = rng.randint(2, 8)
            edge = (q - 1) / q
            link.update(kind="qsc", q=q, xi=rng.choice([0.0, edge, rng.uniform(0.0, edge)]))
        links.append(link)
    demands = []
    for _ in range(rng.randint(1, 3)):
        source = rng.choice(names)
        others = [name for name in names if name != source]
        sinks = rng.sample(others, rng.randint(1, len(others)))
        kind = "multicast" if len(sinks) > 1 or rng.random() < 0.3 else "unicast"
        demands.append({"kind": kind, "source": source, "sinks": sinks})
    return {"nodes": names, "links": links, "demands": demands}


def test_every_accepted_file_gets_bounds_or_a_named_input_error(tmp_path, capsys):
    rng = random.Random(SEED)
    codes = {0: 0, 2: 0}
    for index in range(FILES):
        path = tmp_path / f"fuzz-{index}.json"
        path.write_text(json.dumps(random_document(rng)), encoding="utf-8")
        code = main(["bounds", str(path), "--beta-step", "0.5"])
        out, err = capsys.readouterr()
        assert code in (0, 2), f"{path.name}: exit {code}: {err.strip()}"
        codes[code] += 1
        if code == 2:
            assert re.search(r"(links|demands)\[\d+\]", err), f"{path.name}: {err.strip()}"
            continue
        outer = [float(v) for v in re.findall(r"^  outer (\S+)", out, re.MULTILINE)]
        inner = [float(v) for v in re.findall(r"^  inner (\S+)", out, re.MULTILINE)]
        assert outer and len(outer) == len(inner), f"{path.name}: {out}"
        for up, low in zip(outer, inner):
            assert low <= up + 1e-6, f"{path.name}: inner {low} above outer {up}"
    # Both outcomes occur, so the generator reaches the models and the parser.
    assert codes[0] > FILES // 3 and codes[2] > 0, codes
