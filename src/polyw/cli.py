"""Command-line surface over the library.

Exit codes are stable: 0 affirmative, 1 negative with evidence,
2 inconclusive / exhausted / not-applicable, 3 usage or parse error.
Every command runs on the standard library alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from . import covers, cyclecover, search, stats, whitehead
from .complexes import PolygonalityCertificate, proper_power_certificate
from .constructors import (
    ConstructionError,
    NotApplicableError,
    construct_from_tn,
    construct_height_one,
    construct_isolated_b,
    nonpolygonality_follower_obstruction,
)
from .invariants import ResourceCapExceeded, has_no_isolated_generators, rho, tn_membership
from .words import MAX_WORD_LENGTH, CyclicWord, cyclic_word, is_proper_power

EXIT_YES = 0
EXIT_NO = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
# a certificate within the slot bound takes about 20 bytes of JSON per slot
MAX_CERTIFICATE_BYTES = 32 * MAX_WORD_LENGTH


@dataclass
class Verdict:
    status: str  # polygonal | not-polygonal | inconclusive | not-applicable
    payload: Optional[dict] = None

    EXIT = {
        "polygonal": EXIT_YES,
        "not-polygonal": EXIT_NO,
        "inconclusive": EXIT_INCONCLUSIVE,
        "not-applicable": EXIT_INCONCLUSIVE,
    }

    @property
    def exit_code(self):
        return self.EXIT[self.status]


def _parse(args):
    try:
        return cyclic_word(args.word, args.rank)
    except ValueError as err:  # bad syntax or rank, or the empty word
        print("parse error: %s" % err, file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _bounds(args, w):
    try:
        bounds = search.SearchBounds(
            max_disks=args.max_disks,
            max_edges=args.max_edges,
            max_power=args.powers,
            time_budget=args.time_budget,
        )
        bounds.edge_limit(len(w))
    except ValueError as err:
        print("bad search bounds: %s" % err, file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return bounds


def _write(text, out):
    """Print the text, or write it to the file ``out``; a file that cannot
    be written is a usage error.  A reader that closes stdout early gets
    what it read, and the exit code stays the verdict's."""
    if not out:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # send the rest, and the flush at exit, to /dev/null
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    except OSError as err:
        print("error: %s" % err, file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(data, out):
    _write(json.dumps(data), out)


def _construct_tn(w):
    """The T_n construction on a cycle certificate of rho(w); its hypothesis
    (no isolated generator) is tested before rho is computed."""
    if not has_no_isolated_generators(w):
        raise NotApplicableError("word has an isolated generator")
    cert = tn_membership(rho(w))
    if cert is None:
        raise NotApplicableError("junction invariant is not in the cycle monoid")
    return construct_from_tn(w, cert)


# The constructor rungs by strategy name.  Each constructor tests its own
# hypothesis and raises NotApplicableError outside it.  The lambdas look the
# constructors up when they run, so a patched module attribute is seen.
RUNGS = {
    "tn": _construct_tn,
    "isolated-b": lambda w: construct_isolated_b(w),
    "height-one": lambda w: construct_height_one(w),
}
AUTO_RUNGS = ("tn", "isolated-b", "height-one")


def _rung_verdict(strategy, w):
    """One constructor rung as a verdict: a certificate, not-applicable
    outside its hypothesis, or inconclusive past a resource cap or when
    the construction fails its own certification."""
    try:
        cert = RUNGS[strategy](w)
    except NotApplicableError as err:
        return Verdict("not-applicable", {"reason": str(err)})
    except (ResourceCapExceeded, ConstructionError) as err:
        return Verdict("inconclusive", {"reason": str(err)})
    return Verdict("polygonal", cert.to_json_dict())


def _search_verdict(w, bounds):
    """The search outcome as a verdict: a certificate, or inconclusive."""
    outcome = search.decide_polygonal(w, bounds)
    if isinstance(outcome, search.Found):
        return Verdict("polygonal", outcome.certificate.to_json_dict())
    if isinstance(outcome, search.ExhaustedWithin):
        return Verdict("inconclusive", {"search": "exhausted", "nodes": outcome.nodes})
    return Verdict("inconclusive", {"search": "timed-out", "nodes": outcome.nodes})


def check_polygonal(w: CyclicWord, strategy="auto", bounds=None) -> Verdict:
    """Decide/certify polygonality; the library-level pipeline behind
    ``polyw check``.

    ``auto`` walks the constructor rungs in ``AUTO_RUNGS`` order: a word
    outside a rung's hypothesis moves on to the next one, and the first
    rung that certifies or hits a cap gives the verdict.  After the rungs
    come the cycle-cover LP and the bounded search.
    """
    bounds = bounds or search.SearchBounds()
    if strategy == "search":
        return _search_verdict(w, bounds)
    if strategy != "auto":
        return _rung_verdict(strategy, w)
    if is_proper_power(w):
        return Verdict("polygonal", proper_power_certificate(w).to_json_dict())
    evidence = nonpolygonality_follower_obstruction(w)
    if evidence is not None:
        return Verdict("not-polygonal", {
            "evidence": "follower-obstruction",
            "generator": "ab"[evidence.generator - 1],
            "kind": evidence.kind,
            "inverted": sorted("ab"[g - 1] for g in evidence.inversions),
        })
    for rung in AUTO_RUNGS:
        verdict = _rung_verdict(rung, w)
        if verdict.status != "not-applicable":
            return verdict
    dual = cyclecover.lp_dual(w)
    if dual is not None:
        return Verdict("not-polygonal", {"evidence": "cycle-cover-lp", "dual": dual})
    return _search_verdict(w, bounds)


def cmd_check(args):
    w = _parse(args)
    verdict = check_polygonal(w, args.strategy, _bounds(args, w))
    _emit({"word": str(w), "status": verdict.status, "result": verdict.payload},
          args.out)
    return verdict.exit_code


def _inconclusive(w, err, out):
    """Report the resource cap a command hit on w."""
    _emit({"word": str(w), "status": "inconclusive", "reason": str(err)}, out)
    return EXIT_INCONCLUSIVE


def cmd_rho(args):
    w = _parse(args)
    element = rho(w)
    try:
        cert = tn_membership(element)
    except ResourceCapExceeded as err:
        return _inconclusive(w, err, args.out)
    data = {
        "word": str(w),
        "rho": ["(%d,%d)" % p for p in element.pairs],
        "member": cert is not None,
    }
    if cert is not None:
        data["tn_certificate"] = {"cycles": [list(c) for c in cert.cycles]}
    _emit(data, args.out)
    return EXIT_YES if cert is not None else EXIT_NO


def cmd_minimize(args):
    w = _parse(args)
    try:
        trace = whitehead.minimize(w)
    except ResourceCapExceeded as err:
        return _inconclusive(w, err, args.out)
    _emit(
        {
            "start": str(trace.start),
            "final": str(trace.final),
            "length": len(trace.final),
            "moves": [str(m) for m, _w in trace.steps],
            "words": [str(x) for _m, x in trace.steps],
        },
        args.out,
    )
    return EXIT_YES


def cmd_diskbusting(args):
    w = _parse(args)
    try:
        witness = whitehead.free_factor_witness(w)
    except ResourceCapExceeded as err:
        return _inconclusive(w, err, args.out)
    data = {"word": str(w), "diskbusting": w.rank > 1 and witness is None}
    if witness is not None:
        # the moves take w to a word in the factor of the generators it keeps
        data["evidence"] = {"moves": [str(m) for m, _w in witness.steps],
                            "final": str(witness.final)}
    _emit(data, args.out)
    return EXIT_YES if data["diskbusting"] else EXIT_NO


def _load_certificate(path):
    try:
        with open(path, "rb") as fh:
            text = fh.read(MAX_CERTIFICATE_BYTES + 1)
        if len(text) > MAX_CERTIFICATE_BYTES:
            raise ValueError("the file is longer than %d bytes" % MAX_CERTIFICATE_BYTES)
        data = json.loads(text)
        if "status" in data and "result" in data:  # `check` output wrapper
            data = data["result"]
        return PolygonalityCertificate.from_json_dict(data)
    except (OSError, ValueError, KeyError, TypeError) as err:
        print("cannot load certificate: %s" % err, file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_cover(args):
    cert = _load_certificate(args.certificate)
    try:
        report = covers.double_surface_report(cert)
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    _emit(report.to_json_dict(), args.out)
    return EXIT_YES


def cmd_stats(args):
    try:
        report = stats.run_trials(args.length, args.samples, args.seed)
    except ValueError as err:
        print("bad stats arguments: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    if args.format == "csv":
        _write(report.csv_header() + "\n" + report.to_csv_row(), args.out)
    else:
        _emit(report.to_json_dict(), args.out)
    return EXIT_YES


def cmd_render(args):
    cert = _load_certificate(args.certificate)
    if cert.declarative is not None:
        print("declarative certificate has no surface to render", file=sys.stderr)
        return EXIT_USAGE
    try:
        S = cert.complex()
        if args.cover:
            text = covers.stallings_complete(covers.graph_of_complex(S)).to_dot()
        else:
            text = S.to_dot()
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    _write(text, args.out)
    return EXIT_YES


def _add_word_arg(p):
    p.add_argument("word", help="word text, e.g. 'a (a^2)^b' or 'aabaB'")
    p.add_argument("--rank", type=int, default=None, help="ambient rank (default: inferred)")


def _add_search_args(p):
    p.add_argument("--max-disks", type=int, default=2)
    p.add_argument("--max-edges", type=int, default=0, help="cap on total boundary edges")
    p.add_argument("--powers", type=int, default=2, help="max disk power")
    p.add_argument("--time-budget", type=float, default=None,
                   help="search deadline in seconds (default: none, no deadline)")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility and ignored: the search runs in one process",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polyw",
        description="decide, certify and construct polygonality of words in free groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide polygonality")
    _add_word_arg(p)
    p.add_argument(
        "--strategy",
        choices=["auto", "tn", "isolated-b", "height-one", "search"],
        default="auto",
    )
    _add_search_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("rho", help="junction invariant and cycle-monoid membership")
    _add_word_arg(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("minimize", help="Whitehead minimization trace")
    _add_word_arg(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("diskbusting", help="proper-free-factor test")
    _add_word_arg(p)
    p.add_argument(
        "--orbit-cap", type=int, default=None,
        help="accepted for compatibility and ignored: the test enumerates no orbit",
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_diskbusting)

    p = sub.add_parser("cover", help="degree / doubled-surface report of a certificate")
    p.add_argument("certificate", help="certificate JSON path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("stats", help="random height-one word trials")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("render", help="DOT export of a certificate's 1-skeleton")
    p.add_argument("certificate")
    p.add_argument("--cover", action="store_true", help="render the completed cover instead")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors; remap to the stable code
        if err.code not in (0, None):
            raise SystemExit(EXIT_USAGE)
        raise
    raise SystemExit(args.func(args))


if __name__ == "__main__":
    main()
