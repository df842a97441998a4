"""Command-line front end for the bounding-network toolkit.

Subcommands:
    bounds     Parse a network file, run `pipeline.bound` on it, and print
               the best outer and inner rate bound per demand.
    decouple   Parse a network file and print its decoupled channel
               components, including shared noise partitions.
    validate   Parse a network file and dry-run both bounding constructions,
               reporting any structural problems.
    repro      Deterministic experiment sweeps (relay, layered, multicast)
               of `netbounds.experiments`, emitted as CSV tables.

Each subcommand parses its arguments, calls the library and prints.

SNR parameters cross this boundary in dB and are converted to linear scale
here; library code works in linear scale throughout. Every CSV starts with a
'#'-prefixed comment block carrying the tool version and the exact
invocation, rows appear in sweep order, and no timestamps or machine state
are recorded, so identical invocations produce byte-identical output.

Exit codes: 0 on success, 2 on input problems (unreadable or malformed
files, bad parameter syntax), 3 on internal problems (solver failures,
violated numerical checks).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import shlex
import sys
from pathlib import Path

from . import __version__
from .assemble import build_lower, build_upper, link_capacity
from .decouple import decompose
from .experiments import layered_experiment, multicast_experiment, relay_experiment
from .info import db_to_linear
from .netmodel import (
    NetworkFormatError,
    NoisyLink,
    NoisyNetwork,
    parse_network,
    validate_bounding_network,
)
from .pipeline import bound

_MAX_SWEEP_POINTS = 10_000

C12_NOTE = (
    "the q=8, xi=0.1 collaboration link has capacity "
    "log2(8) - H(0.1) - 0.1*log2(7) = 2.250269 bits per use; a previously "
    "circulated figure of 2.85 bits for the same link does not follow from "
    "this formula under any logarithm base, so the formula value is used"
)


def _fmt(value: float) -> str:
    """Fixed-precision cell formatting so output is byte-stable."""
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.9f}"


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse a start:stop:step sweep into an inclusive tuple of floats.

    The stop value is included whenever it sits within 1e-9 of a grid point,
    so "0:1:0.1" yields eleven values despite binary rounding. A sweep of
    more than _MAX_SWEEP_POINTS values is refused before any is made.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep must look like start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(part) for part in parts)
    except ValueError:
        raise ValueError(f"sweep must hold three numbers, got {text!r}") from None
    if not all(math.isfinite(value) for value in (start, stop, step)):
        raise ValueError(f"sweep values must be finite, got {text!r}")
    if step <= 0:
        raise ValueError(f"sweep step must be positive, got {step:g}")
    if stop < start:
        raise ValueError(f"sweep stop {stop:g} lies below start {start:g}")
    steps = (stop - start) / step + 1e-9
    if not steps < _MAX_SWEEP_POINTS:
        raise ValueError(
            f"sweep {text!r} would hold more than {_MAX_SWEEP_POINTS} points; "
            "widen the step"
        )
    count = int(math.floor(steps)) + 1
    return tuple(start + k * step for k in range(count))


def _load_network(path: str) -> NoisyNetwork:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise NetworkFormatError(f"cannot read {path}: {exc}") from None
    return parse_network(text)


def _emit_csv(args, extra_header, columns, rows) -> None:
    header = [
        f"netbounds {__version__}",
        f"invocation: netbounds {args.invocation}".rstrip(),
        *extra_header,
    ]
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else None
    with out or contextlib.nullcontext(sys.stdout) as stream:
        stream.writelines(f"# {line}\n" for line in header)
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    if out:
        print(f"wrote {args.out}")


def _link_detail(link: NoisyLink) -> str:
    if link.kind == "awgn":
        return f"awgn snr={link.snr:g}"
    if link.kind == "qsc":
        return f"qsc q={link.q} xi={link.xi:g}"
    return f"bsc eps={link.eps:g}"


# ---------------------------------------------------------------------------
# bounds


def _component_counts(components) -> dict[str, int]:
    counts = {"bc": 0, "mac": 0, "p2p": 0}
    for comp in components:
        counts[comp.kind] += 1
    return counts


def cmd_bounds(args) -> int:
    net = _load_network(args.file)
    if not net.demands:
        raise NetworkFormatError(f"{args.file}: no demands; nothing to bound")
    report = bound(net, parse_grid(args.alpha_grid), args.beta_step)
    counts = _component_counts(report.components)
    lines = [
        f"netbounds {__version__}",
        f"file: {args.file}",
        (
            f"network: {len(net.nodes)} nodes, {len(net.links)} links, "
            f"{len(net.demands)} demands"
        ),
        (
            f"components: {counts['bc']} broadcast, {counts['mac']} multi-access, "
            f"{counts['p2p']} point-to-point"
        ),
        (
            f"runs: {report.outer_runs} outer (alpha sweep {args.alpha_grid}), "
            f"{report.inner_runs} inner (beta step {args.beta_step:g})"
        ),
    ]
    rows = []
    for demand in net.demands:
        outer_rate, outer_label = report.outer[demand]
        inner_rate, inner_label = report.inner[demand]
        sinks = ";".join(demand.sink_list)
        gap = outer_rate - inner_rate
        lines.append("")
        lines.append(f"demand {demand.source} -> {sinks} ({demand.kind})")
        lines.append(f"  outer {_fmt(outer_rate)}  via {outer_label}")
        lines.append(f"  inner {_fmt(inner_rate)}  via {inner_label}")
        lines.append(f"  gap   {_fmt(gap)}")
        row = [demand.source, sinks, demand.kind, _fmt(outer_rate), outer_label]
        rows.append(row + [_fmt(inner_rate), inner_label, _fmt(gap)])
    print("\n".join(lines))
    if args.out:
        columns = "source,sinks,kind,outer_rate,outer_label,inner_rate,inner_label,gap"
        _emit_csv(args, [f"file: {args.file}"], columns.split(","), rows)
    violations = report.sandwich_violations()
    if violations:
        for violation in violations:
            print(f"internal error: {violation}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# decouple / validate


def cmd_decouple(args) -> int:
    net = _load_network(args.file)
    components = decompose(net)
    print(f"{len(components)} components")
    for index, comp in enumerate(components, start=1):
        tag = ", coupled noise partition" if comp.coupled else ""
        if comp.kind == "p2p":
            link = comp.links[0]
            head = f"point-to-point {link.src} -> {link.dst}"
        elif comp.kind == "bc":
            receivers = ", ".join(link.dst for link in comp.links)
            head = f"broadcast {comp.inputs[0]} -> {receivers}"
        else:
            senders = ", ".join(link.src for link in comp.links)
            head = f"multi-access {senders} -> {comp.outputs[0]}"
        print(f"component {index}: {head}{tag}")
        for link in comp.links:
            extras = []
            if comp.kind == "p2p":
                extras.append(f"capacity={link_capacity(link):.6g}")
            elif link in comp.effective_snrs:
                extras.append(f"effective_snr={comp.effective_snrs[link]:.6g}")
            if link in comp.alpha_shares:
                extras.append(f"noise_share={comp.alpha_shares[link]:.6g}")
            if link in comp.shared_links:
                extras.append("shared")
            suffix = "  " + " ".join(extras) if extras else ""
            print(f"  {link.src} -> {link.dst}: {_link_detail(link)}{suffix}")
    return 0


def cmd_validate(args) -> int:
    net = _load_network(args.file)
    components = decompose(net)
    upper_ids, upper = build_upper(components)
    lower_ids, lower = build_lower(components)
    problems = validate_bounding_network(upper_ids, upper, "upper")
    problems += validate_bounding_network(lower_ids, lower, "lower")
    links = {"awgn": 0, "qsc": 0, "bsc": 0}
    for link in net.links:
        links[link.kind] += 1
    counts = _component_counts(components)
    print(f"nodes: {len(net.nodes)}")
    print(
        f"links: {len(net.links)} "
        f"(awgn {links['awgn']}, qsc {links['qsc']}, bsc {links['bsc']})"
    )
    print(f"demands: {len(net.demands)}")
    print(
        f"components: {len(components)} (broadcast {counts['bc']}, "
        f"multi-access {counts['mac']}, point-to-point {counts['p2p']})"
    )
    print(f"upper network: {len(upper)} pipes; lower network: {len(lower)} pipes")
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 3
    print("ok")
    return 0


# ---------------------------------------------------------------------------
# repro

# Columns of each repro table. A cell is the row's value or, for an echoed
# option, the option's value; swept and echoed parameters print as %g, counts
# and the regime as text, and rates at fixed precision.
_REPRO_COLUMNS = {
    "relay": "gamma_sr_db eq_upper eq_lower cutset df cf gamma_sd_db gamma_rd_db",
    "layered": (
        "pairs gamma_db alpha link_rate bc_sum_rate mac_input_rate mac_sum_rate "
        "sic_sum_rate outer_sym_flow capacity_sym inner_sym_flow inner_sym_closed regime"
    ),
    "multicast": "p_db eq_upper_sum eq_lower_sum coop mac c12 receivers delta_ratio_db q xi",
}
_CELL = {
    **dict.fromkeys(("pairs", "receivers", "q", "regime"), str),
    **dict.fromkeys(
        "gamma_sr_db gamma_sd_db gamma_rd_db gamma_db alpha p_db delta_ratio_db xi".split(),
        "{:g}".format,
    ),
}


def _emit_repro(args, header, rows) -> int:
    """Write `rows` as the CSV table of `args.experiment` under `header`."""
    columns = _REPRO_COLUMNS[args.experiment].split()

    def cell(row, name):
        value = row[name] if name in row else getattr(args, name)
        return _CELL.get(name, _fmt)(value)

    _emit_csv(args, header, columns, [[cell(row, name) for name in columns] for row in rows])
    return 0


def cmd_repro_relay(args) -> int:
    rows = relay_experiment(args.gamma_sd_db, args.gamma_rd_db, parse_grid(args.gamma_sr_db))
    return _emit_repro(args, ["experiment: three-node relay bounds sweep"], rows)


def cmd_repro_layered(args) -> int:
    result = layered_experiment(args.pairs, db_to_linear(args.gamma_db))
    rows = [{**result, **row} for row in result["rows"]]
    return _emit_repro(args, ["experiment: layered line network symmetric rate"], rows)


def cmd_repro_multicast(args) -> int:
    grid = parse_grid(args.p_db)
    rows = multicast_experiment(args.receivers, grid, args.delta_ratio_db, args.q, args.xi)
    header = ["experiment: two-source multicast sum-rate bounds"]
    if args.q == 8 and abs(args.xi - 0.1) < 1e-12:
        header.append(f"note: {C12_NOTE}")
    return _emit_repro(args, header, rows)


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache  # built at the first call, then shared: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netbounds",
        description=(
            "Replace the noisy links of a memoryless network with noiseless "
            "bit pipes and bound the achievable rates by flow computations."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"netbounds {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    bounds = sub.add_parser(
        "bounds", help="outer and inner rate bounds for a network file"
    )
    bounds.add_argument("file", help="network description in JSON")
    bounds.add_argument(
        "--alpha-grid",
        default="0:1:0.1",
        metavar="A:B:S",
        help="noise-split sweep for multi-access sides (default 0:1:0.1)",
    )
    bounds.add_argument(
        "--beta-step",
        type=float,
        default=0.125,
        metavar="S",
        help="power-share grid step for broadcast sides (default 0.125)",
    )
    bounds.add_argument("--out", metavar="PATH", help="also write a CSV summary here")
    bounds.set_defaults(func=cmd_bounds)

    dec = sub.add_parser(
        "decouple", help="show the decoupled channel components of a network file"
    )
    dec.add_argument("file", help="network description in JSON")
    dec.set_defaults(func=cmd_decouple)

    val = sub.add_parser(
        "validate", help="parse a network file and dry-run both bounding constructions"
    )
    val.add_argument("file", help="network description in JSON")
    val.set_defaults(func=cmd_validate)

    repro = sub.add_parser("repro", help="deterministic experiment sweeps emitting CSV")
    repro_sub = repro.add_subparsers(dest="experiment", required=True, metavar="experiment")

    relay = repro_sub.add_parser(
        "relay", help="three-node relay bounds against classical benchmarks"
    )
    relay.add_argument(
        "--gamma-sd-db",
        type=float,
        default=0.0,
        help="source-destination SNR in dB (default 0)",
    )
    relay.add_argument(
        "--gamma-rd-db",
        type=float,
        default=10.0,
        help="relay-destination SNR in dB (default 10)",
    )
    relay.add_argument(
        "--gamma-sr-db",
        default="-10:30:1",
        metavar="A:B:S",
        help="source-relay SNR sweep in dB (default -10:30:1)",
    )
    relay.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    relay.set_defaults(func=cmd_repro_relay)

    layered = repro_sub.add_parser(
        "layered", help="layered line network symmetric rate against closed forms"
    )
    layered.add_argument(
        "--pairs", type=int, default=4, help="number of source/sink pairs (default 4)"
    )
    layered.add_argument(
        "--gamma-db", type=float, default=0.0, help="per-link SNR in dB (default 0)"
    )
    layered.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    layered.set_defaults(func=cmd_repro_layered)

    multicast = repro_sub.add_parser(
        "multicast", help="two-source multicast sum-rate bounds over a power sweep"
    )
    multicast.add_argument(
        "--receivers", type=int, default=10, help="number of receivers (default 10)"
    )
    multicast.add_argument(
        "--p-db",
        default="-5:25:1",
        metavar="A:B:S",
        help="power sweep in dB (default -5:25:1)",
    )
    multicast.add_argument(
        "--delta-ratio-db",
        type=float,
        default=-3.0,
        help="power spread relative to P in dB (default -3)",
    )
    multicast.add_argument(
        "--q", type=int, default=8, help="collaboration link alphabet size (default 8)"
    )
    multicast.add_argument(
        "--xi",
        type=float,
        default=0.1,
        help="collaboration link symbol error rate (default 0.1)",
    )
    multicast.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    multicast.set_defaults(func=cmd_repro_multicast)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else 2
    args.invocation = shlex.join(argv)
    try:
        return args.func(args)
    except (NetworkFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
