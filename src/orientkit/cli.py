"""Command-line surface: parse, aut, theta, orient, contract, families, verify.

Exit codes: 0 success, 1 usage or input errors, 2 violations found by
``verify`` (or a failed family check).
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import perms
from .automorphisms import as_automorphism, enumerate_automorphisms, induced_actions
from .corpus import CorpusSpec, ReportWriteError, report_chunks, sweep_theorem, write_report
from .families import Family, eq1_check, family_instances, verify_family
from .graphs import Graph, GraphError, format_graph, orbit_contraction, parse_graph
from .limits import (MAX_DIGITS, CapSettingError, SizeLimitExceeded, check_orbit_vertices, excerpt,
                     parse_int)
from .orientation import (
    ThetaHom,
    or_orbits_bruteforce,
    orientability,
    random_arrows,
    theta_k,
    theta_parity,
    theta_s,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _count(text: str) -> int:
    """argparse type for a count: an integer >= 0, read by ``limits.parse_int``."""
    try:
        value = parse_int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0 of at most {MAX_DIGITS} ASCII digits, got {excerpt(text)}")
    return value


def _reading(parse):
    """argparse type reporting ``parse``'s own message, whose echo of the
    argument is cut short, instead of argparse's echo of all of it."""
    def read(text: str):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return read


def _read_graphs(path: str) -> list[Graph]:
    """One graph per file or per non-empty line."""
    with open(path, "r", encoding="ascii") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as err:
            raise GraphError(f"{path} is not ASCII text: {err.reason} at byte {err.start}") from None
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise GraphError(f"no graph found in {path}")
    return [parse_graph(line) for line in lines]


def _fmt_sign(x: int) -> str:
    return f"{x:+d}"


def _cmd_parse(args) -> int:
    for g in _read_graphs(args.file):
        print(format_graph(g))
    return 0


def _cmd_aut(args) -> int:
    for g in _read_graphs(args.file):
        auts = enumerate_automorphisms(g)
        print(f"graph: {format_graph(g)}")
        print(f"|Aut| = {len(auts)}")
        for a in auts:
            acts = induced_actions(g, a)
            halves, edges, vertices = (",".join(map(str, perms.cycle_lengths(p)))
                                       for p in (a.perm, acts.edge_perm, acts.vertex_perm))
            print(f"  {perms.format_perm(a.perm)}  halfedge_cycles={halves}"
                  f" edge_cycles={edges} vertex_cycles={vertices}")
    return 0


def _cmd_theta(args) -> int:
    import json

    for g in _read_graphs(args.file):
        rows = [(a, theta_k(g, a), theta_s(g, a), theta_parity(g, a))
                for a in enumerate_automorphisms(g)]
        if args.format == "json":
            payload = {"graph": format_graph(g),
                       "rows": [{"perm": list(a.perm), "theta_k": tk, "theta_s": ts,
                                 "theta_parity": tp, "agree": tk == ts} for a, tk, ts, tp in rows]}
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            width = max(6, 2 * g.half_edge_count + 2)
            print(f"graph: {format_graph(g)}")
            print(f"{'perm':<{width}} theta_k theta_s parity agree")
            for a, tk, ts, tp in rows:
                print(f"{perms.format_perm(a.perm):<{width}} {_fmt_sign(tk):>7} {_fmt_sign(ts):>7}"
                      f" {_fmt_sign(tp):>6} {'yes' if tk == ts else 'NO'}")
        if args.arrangements:
            rng = random.Random(args.seed)
            stable = all(theta_s(g, a, random_arrows(g, rng)) == ts
                         for a, _, ts, _ in rows for _ in range(args.arrangements))
            print(f"arrangement_invariance={'ok' if stable else 'VIOLATED'}"
                  f" ({args.arrangements} samples)")
    return 0


def _cmd_orient(args) -> int:
    theta = ThetaHom(args.theta)
    graphs = _read_graphs(args.file)
    if args.bruteforce:  # refuse an oversized graph before the first verdict
        check_orbit_vertices(max(len(g.vertices) for g in graphs))
    for g in graphs:
        report = orientability(g, theta)
        line = f"theta={theta.name} verdict={report.verdict.name}"
        if report.witness is not None:
            line += f" witness={perms.format_perm(report.witness.perm)}"
        print(line)
        if args.bruteforce:
            # The oracle takes the verdict's automorphisms and theta values, so Aut(g)
            # is listed once; it raises RuntimeError unless they pass its group guards.
            values = dict(report.per_automorphism_theta)
            count, z2_free, _ = or_orbits_bruteforce(g, lambda g, a: values[a], list(values))
            print(f"orbits={count} z2_free={'true' if z2_free else 'false'}")
    return 0


def _cmd_contract(args) -> int:
    for g in _read_graphs(args.file):
        phi = perms.identity(g.half_edge_count) if args.phi is None else args.phi
        result = orbit_contraction(g, phi, args.edge)
        print(format_graph(result.graph))
        if args.phi is not None:
            print(f"induced: {perms.format_perm(result.induced)}")
    return 0


def _cmd_families(args) -> int:
    wanted = tuple(Family) if args.family is None else (Family(args.family),)
    failures = 0
    for inst in family_instances(args.max_n, wanted):
        p = inst.params
        print(f"family={p.family.value} n={p.n} c={p.c} m={p.m}")
        print(f"  graph: {format_graph(inst.graph)}")
        print(f"  psi:   {perms.format_perm(inst.psi.perm)}")
        problems = verify_family(inst)
        if problems:
            failures += len(problems)
            for problem in problems:
                print(f"  check FAILED: {problem}")
        else:
            print("  checks: ok")
        powers = [as_automorphism(inst.graph, perms.power(inst.psi.perm, k))
                  for k in range(1, 2**p.n + 1)]
        total = 0
        equal = 0
        for e in range(len(inst.graph.edges)):
            for phi in powers:
                total += 1
                equal += eq1_check(inst.graph, phi, e).equal
        print(f"  contraction identity: {equal}/{total} equal")
        if equal != total:
            failures += total - equal
    return 2 if failures else 0


def _cmd_verify(args) -> int:
    spec = CorpusSpec(
        max_edges=args.max_edges,
        allow_loops=args.allow_loops,
        connected_only=args.connected_only,
    )
    report = sweep_theorem(spec)
    if args.out:
        write_report(report, args.out, args.format)
        print(f"report written to {args.out}")
    else:
        sys.stdout.writelines(report_chunks(report, args.format))
    print(" ".join(f"{key}={count}" for key, count in report.totals.items()), file=sys.stderr)
    return 2 if report.violations else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every call."""
    parser = _Parser(prog="orientkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="normalize and reprint a graph file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("aut", help="automorphism group with induced cycle data")
    p.add_argument("file")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("theta", help="theta table per automorphism")
    p.add_argument("file")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--arrangements", type=_count, default=0,
                   help="also recheck theta_s under N random arrow arrangements")
    p.add_argument("--seed", type=_reading(parse_int), default=0)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("orient", help="orientability verdict")
    p.add_argument("file")
    p.add_argument("--theta", choices=sorted(t.value for t in ThetaHom), default="k")
    p.add_argument("--bruteforce", action="store_true",
                   help="also run the enumeration-pair orbit oracle")
    p.set_defaults(func=_cmd_orient)

    p = sub.add_parser("contract", help="contract an edge or a whole orbit")
    p.add_argument("file")
    p.add_argument("--edge", type=_reading(parse_int), required=True)
    p.add_argument("--phi", type=_reading(perms.parse_perm),
                   help="automorphism image list, e.g. [1,0]; contracts the orbit")
    p.set_defaults(func=_cmd_contract)

    p = sub.add_parser("families", help="build classified instances and check them")
    p.add_argument("--max-n", type=_count, default=3)
    p.add_argument("--family", choices=[f.value for f in Family])
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("verify", help="exhaustive theta-agreement sweep")
    p.add_argument("--max-edges", type=_count, default=3)
    p.add_argument("--allow-loops", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--connected-only", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (GraphError, SizeLimitExceeded, ReportWriteError, CapSettingError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(cli_main())
