"""Command-line front end.

Exit codes: 0 clean (no counterexample / pattern absent / property holds),
1 counterexample found or property violated, 2 usage or parse error.
Graph arguments accept a literal graph6 record, @path (first record of a
file), or - (first record on stdin).  Output on stdout is deterministic;
timing goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import degseq, graphs, heuristics, independence, patterns, verify

DEFAULT_ENUM_CAP = 7
ENV_MAX_N = "RESLAB_MAX_N"


def _read_graph_arg(text: str) -> graphs.Graph:
    if text == "-":
        return _first_record(sys.stdin)
    if text.startswith("@"):
        with open(text[1:], "r", encoding="ascii") as fh:
            return _first_record(fh)
    return graphs.from_graph6(text)


def _first_record(lines) -> graphs.Graph:
    for line in lines:
        if line.strip():
            return graphs.from_graph6(line.strip())
    raise graphs.Graph6Error("empty record", 0)


def _fmt_set(vertices) -> str:
    return "{" + ",".join(str(v) for v in sorted(vertices)) + "}"


def _cmd_residue(args) -> int:
    if args.degseq is not None:
        seq = degseq.parse_degree_sequence(args.degseq)
        print(f"R = {degseq.residue_seq(seq)}")
    else:
        g = _read_graph_arg(args.graph)
        print(f"R = {degseq.residue(g)}")
    return 0


def _cmd_hh_trace(args) -> int:
    seq = degseq.parse_degree_sequence(args.degseq)
    try:
        trace = degseq.hh_trace(seq)
    except degseq.NonGraphicError as exc:
        # replay the successful prefix so the failing step is visible
        cur = seq
        for k in range(exc.step):
            print(" ".join(str(d) for d in cur) or "(empty)")
            cur = degseq.hh_step(cur, k)
        print(" ".join(str(d) for d in cur) or "(empty)")
        print(f"not graphic: {exc}")
        return 1
    for step in trace.steps:
        print(" ".join(str(d) for d in step) or "(empty)")
    print(f"graphic; terminal zeros = {trace.terminal_zero_count}")
    return 0


def _cmd_maxine(args) -> int:
    g = _read_graph_arg(args.graph)
    if args.all:
        summary = heuristics.maxine_all(g)
        sizes = ",".join(str(s) for s in sorted(summary.achievable_sizes))
        print(f"achievable M: {{{sizes}}}")
        print(f"min M = {summary.min_size}")
        print(f"max M = {summary.max_size}")
    else:
        outcome = heuristics.maxine_run(g, policy=args.policy, seed=args.seed)
        print("deletions: " + (" ".join(str(v) for v in outcome.deletions) or "(none)"))
        print(f"survivors: {_fmt_set(outcome.survivors)}")
        print(f"M = {outcome.size}")
    return 0


def _cmd_alpha(args) -> int:
    g = _read_graph_arg(args.graph)
    if args.enumerate:
        report = independence.all_mis(g)
        print(f"alpha = {report.alpha}")
        for s in report.sets:
            print(_fmt_set(s))
    else:
        print(f"alpha = {independence.alpha(g)}")
    return 0


def _cmd_mdi(args) -> int:
    g = _read_graph_arg(args.graph)
    report = independence.all_mis(g)
    mdi = independence.mdi_vertices(g)
    print(f"alpha = {report.alpha}")
    print(f"maximum independent sets: {len(report.sets)}")
    print(f"mdi vertices: {_fmt_set(mdi)}")
    return 0


def _parse_pattern_tokens(tokens: str, host_n: int):
    """Expand the --patterns list into (label, graph-or-star) pairs."""
    names = [t for t in (t.strip() for t in tokens.split(",")) if t]
    if not names:
        raise ValueError(
            f"--patterns {tokens!r} names no pattern; "
            "expected a comma list of c4, p5, p5star, f or f:MAXN"
        )
    out = []
    for token in names:
        if token == "c4":
            out.append(("c4", patterns.cycle(4)))
        elif token == "p5":
            out.append(("p5", patterns.path(5)))
        elif token == "p5star":
            out.append(("p5star", None))
        elif token == "f" or token.startswith("f:"):
            cap = host_n
            if token.startswith("f:"):
                try:
                    cap = int(token[2:])
                except ValueError:
                    cap = -1  # reported below, with the negative caps
                if cap < 0:
                    raise ValueError(
                        f"bad pattern token {token!r}: expected f:MAXN, "
                        "MAXN a non-negative integer"
                    )
            if cap >= 6:
                for m in patterns.f_catalog(min(cap, max(host_n, 6))):
                    if m.graph.n <= host_n:
                        out.append((f"f[{m.label}]", m.graph))
        else:
            raise ValueError(f"unknown pattern token {token!r}")
    return out


def _cmd_detect(args) -> int:
    g = _read_graph_arg(args.graph)
    try:
        wanted = _parse_pattern_tokens(args.patterns, g.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    found_any = False
    for label, pattern in wanted:
        if pattern is None:
            hit = patterns.has_p5_star(g)
            print(f"{label}: {'present' if hit else 'absent'}")
        else:
            emb = patterns.find_induced(g, pattern)
            hit = emb is not None
            where = " at " + ",".join(str(v) for v in emb.mapping) if hit else ""
            print(f"{label}: {'present' + where if hit else 'absent'}")
        found_any = found_any or hit
    return 1 if found_any else 0


def _cmd_gen_f(args) -> int:
    try:
        member = patterns.gen_f_member(args.case, args.n, args.variant)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not member.mdi_verified and not args.raw:
        print(
            f"error: {member.label} fails its own MDI check; "
            "pass --raw for the unfiltered catalog member",
            file=sys.stderr,
        )
        return 1
    print(member.serialize())
    print(f"mdi_verified: {'true' if member.mdi_verified else 'false'}")
    return 0


def _enum_cap() -> int:
    raw = os.environ.get(ENV_MAX_N)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_MAX_N} must be an integer, got {raw!r}")
    return cap


def _cmd_verify(args) -> int:
    try:
        check = verify.CheckId(args.check)
    except ValueError:
        print(f"error: unknown check {args.check!r}", file=sys.stderr)
        print(
            "known checks: " + " ".join(c.value for c in verify.CheckId),
            file=sys.stderr,
        )
        return 2
    if args.enum_n is not None:
        try:
            cap = _enum_cap()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cap = min(cap, graphs.ENUM_CAP)
        if args.enum_n < 1:
            print(
                f"error: --enum-n {args.enum_n} is out of range; "
                f"scan sizes run from 1 to {cap}",
                file=sys.stderr,
            )
            return 2
        if args.enum_n > cap:
            print(
                f"error: --enum-n {args.enum_n} exceeds cap {cap} "
                f"(raise {ENV_MAX_N} up to {graphs.ENUM_CAP})",
                file=sys.stderr,
            )
            return 2
        if args.enum_n >= 8:
            print(
                f"warning: n={args.enum_n} scans {1 << (args.enum_n * (args.enum_n - 1) // 2)} graphs; expect a long run",
                file=sys.stderr,
            )
        source = verify.EnumerationSource(args.enum_n)
    else:
        if not os.path.exists(args.corpus):
            print(f"error: no such corpus file: {args.corpus}", file=sys.stderr)
            return 2
        if not os.path.isfile(args.corpus):
            # a scan counts the records, then seeks back to read them
            print(f"error: corpus must be a regular file: {args.corpus}", file=sys.stderr)
            return 2
        source = verify.CorpusSource(args.corpus)
    if args.stop_after is not None:
        found = verify.hunt(source, check, args.stop_after)
        for g6 in found:
            print(g6)
        print(f"found {len(found)} counterexample(s)")
        return 1 if found else 0
    reports = verify.run_suite(source, [check], shards=args.shards)
    report = reports[0]
    print(f"check:           {report.check.value}")
    print(f"source:          {report.source}")
    print(f"scanned:         {report.scanned}")
    print(f"applicable:      {report.applicable}")
    print(f"counterexamples: {len(report.counterexamples)}")
    print(f"skipped_records: {report.skipped_records}")
    for g6 in report.counterexamples:
        print(f"  {g6}")
    print(f"elapsed: {report.elapsed_ms} ms", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="ascii") as fh:
            fh.write(report.to_json())
    return 1 if report.counterexamples else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reslab",
        description="Degree-sequence residue, the Maxine heuristic, and "
        "exhaustive verification of their relationship to independence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("residue", help="Havel-Hakimi residue of a graph or sequence")
    p.add_argument("graph", nargs="?", help="graph6 record, @file, or -")
    p.add_argument("--degseq", help="degree sequence, e.g. '3,2,2,1' (auto-sorted)")
    p.set_defaults(func=_cmd_residue)

    p = sub.add_parser("hh-trace", help="print every Havel-Hakimi elimination step")
    p.add_argument("--degseq", required=True)
    p.set_defaults(func=_cmd_hh_trace)

    p = sub.add_parser("maxine", help="run the max-degree deletion heuristic")
    p.add_argument("graph", help="graph6 record, @file, or -")
    p.add_argument("--all", action="store_true", help="every tie-break outcome")
    p.add_argument("--policy", choices=("low", "high", "random"), default="low")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_maxine)

    p = sub.add_parser("alpha", help="independence number")
    p.add_argument("graph", help="graph6 record, @file, or -")
    p.add_argument(
        "--enumerate", action="store_true", help="list every maximum independent set"
    )
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("mdi", help="max-degree vertices in every maximum independent set")
    p.add_argument("graph", help="graph6 record, @file, or -")
    p.set_defaults(func=_cmd_mdi)

    p = sub.add_parser("detect", help="look for induced patterns")
    p.add_argument("graph", help="graph6 record, @file, or -")
    p.add_argument(
        "--patterns",
        required=True,
        help="comma list of c4, p5, p5star, f or f:MAXN",
    )
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("gen-f", help="emit one structure-catalog member")
    p.add_argument("--case", required=True, choices=("A", "B", "C"))
    p.add_argument("--n", required=True, type=int, help="core size (>= 3)")
    p.add_argument("--variant", choices=("same", "opposite"))
    p.add_argument(
        "--raw", action="store_true", help="emit members that fail the MDI filter"
    )
    p.set_defaults(func=_cmd_gen_f)

    p = sub.add_parser(
        "verify",
        help="scan an enumeration or corpus with one check",
        epilog="check ids:\n"
        + "\n".join(f"  {c.value}: {d}" for c, d in verify.CHECK_DESCRIPTIONS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--check", required=True, help="check id (listed below)")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--enum-n", type=int, help="scan all labeled graphs on N vertices")
    grp.add_argument("--corpus", help="graph6 file, one record per line")
    p.add_argument("--shards", type=int, default=None, help="parallel chunks")
    p.add_argument("--json", help="also write the report to this file")
    p.add_argument(
        "--stop-after", type=int, help="hunt mode: stop after this many failures"
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "residue" and (args.graph is None) == (args.degseq is None):
        print("error: residue needs a graph argument or --degseq", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (graphs.Graph6Error, degseq.NonGraphicError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
