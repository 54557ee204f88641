"""Command-line surface over the library.

Exit codes are stable: 0 affirmative, 1 negative with evidence,
2 inconclusive / exhausted / not-applicable, 3 usage or parse error.
Every command runs on the standard library alone.

``check`` walks one ladder, in order: proper power, T_n cycle gluing,
isolated b, simple height one, the cycle-cover LP, the bounded search.
``_verdict`` maps every rung's outcome: a certificate to polygonal, negative
evidence to not-polygonal, a word outside the hypothesis to not-applicable,
a cap or a failed construction to inconclusive with the reason, and an
exhausted or timed-out search to inconclusive with its node count.
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
    nonpolygonality_follower_obstruction,  # noqa: F401 (no rung; bench/tracing.py patches it)
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


def _usage(prefix, err):
    """Report a usage error and exit 3."""
    print("%s: %s" % (prefix, err), file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _write(output, out):
    """Print the output (a dict as JSON, a str as it is), or write it to the
    file ``out``; a file that cannot be written is a usage error.  A reader
    that closes stdout early gets what it read, and the exit code stays the
    verdict's."""
    text = output if isinstance(output, str) else json.dumps(output)
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
        _usage("error", err)


def _proper_power(w, _bounds):
    if not is_proper_power(w):
        raise NotApplicableError("word is not a proper power")
    return proper_power_certificate(w)


def _tn(w, _bounds):
    """T_n cycle gluing; no isolated generator is tested before rho."""
    if not has_no_isolated_generators(w):
        raise NotApplicableError("word has an isolated generator")
    cert = tn_membership(rho(w))
    if cert is None:
        raise NotApplicableError("junction invariant is not in the cycle monoid")
    return construct_from_tn(w, cert)


def _cycle_cover(w, _bounds):
    dual = cyclecover.lp_dual(w)
    if dual is None:
        raise NotApplicableError("no cycle-cover dual verifies")
    return {"evidence": "cycle-cover-lp", "dual": dual}


# The ladder in ``auto`` order; ``--strategy`` runs one rung by name.  The
# lambdas look the constructors up when run, so patched attributes are seen.
LADDER = (
    ("proper-power", _proper_power),
    ("tn", _tn),
    ("isolated-b", lambda w, _bounds: construct_isolated_b(w)),
    ("height-one", lambda w, _bounds: construct_height_one(w)),
    ("cycle-cover-lp", _cycle_cover),
    ("search", lambda w, bounds: search.decide_polygonal(w, bounds)),
)
STRATEGIES = ("auto", "tn", "isolated-b", "height-one", "search")


def _verdict(rung, w, bounds):
    """The one mapping from a rung's outcome to a verdict."""
    try:
        outcome = rung(w, bounds)
    except NotApplicableError as err:
        return Verdict("not-applicable", {"reason": str(err)})
    except (ResourceCapExceeded, ConstructionError) as err:
        return Verdict("inconclusive", {"reason": str(err)})
    if isinstance(outcome, search.Found):
        outcome = outcome.certificate
    if isinstance(outcome, PolygonalityCertificate):
        return Verdict("polygonal", outcome.to_json_dict())
    if isinstance(outcome, search.ExhaustedWithin):
        return Verdict("inconclusive", {"search": "exhausted", "nodes": outcome.nodes})
    if isinstance(outcome, search.TimedOut):
        return Verdict("inconclusive", {"search": "timed-out", "nodes": outcome.nodes})
    return Verdict("not-polygonal", outcome)


def check_polygonal(w: CyclicWord, strategy="auto", bounds=None) -> Verdict:
    """Decide/certify polygonality, as ``polyw check`` does.  ``auto`` stops
    at the first rung of ``LADDER`` that is not "not-applicable" (the
    search, last, never is); any other strategy runs its one rung."""
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r" % strategy)
    bounds = bounds or search.SearchBounds()
    for name, rung in LADDER:
        if strategy in ("auto", name):
            verdict = _verdict(rung, w, bounds)
            if verdict.status != "not-applicable":
                break
    return verdict


# Each handler returns (output, exit code); ``main`` parses the word of a
# command that takes one and reports the resource cap it hits.


def cmd_check(args, w):
    try:
        bounds = search.SearchBounds(max_disks=args.max_disks, max_edges=args.max_edges,
                                     max_power=args.powers, time_budget=args.time_budget)
        bounds.edge_limit(len(w))
    except ValueError as err:
        _usage("bad search bounds", err)
    verdict = check_polygonal(w, args.strategy, bounds)
    return {"word": str(w), "status": verdict.status, "result": verdict.payload}, verdict.exit_code


def cmd_rho(args, w):
    element = rho(w)
    cert = tn_membership(element)
    data = {
        "word": str(w),
        "rho": ["(%d,%d)" % p for p in element.pairs],
        "member": cert is not None,
    }
    if cert is not None:
        data["tn_certificate"] = {"cycles": [list(c) for c in cert.cycles]}
    return data, EXIT_YES if cert is not None else EXIT_NO


def cmd_minimize(args, w):
    trace = whitehead.minimize(w)
    return {
        "start": str(trace.start),
        "final": str(trace.final),
        "length": len(trace.final),
        "moves": [str(m) for m, _w in trace.steps],
        "words": [str(x) for _m, x in trace.steps],
    }, EXIT_YES


def cmd_diskbusting(args, w):
    witness = whitehead.free_factor_witness(w)
    data = {"word": str(w), "diskbusting": w.rank > 1 and witness is None}
    if witness is not None:
        # the moves take w to a word in the factor of the generators it keeps
        data["evidence"] = {"moves": [str(m) for m, _w in witness.steps],
                            "final": str(witness.final)}
    return data, EXIT_YES if data["diskbusting"] else EXIT_NO


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
    except KeyError as err:
        _usage("cannot load certificate",
               "the file holds no polygonal certificate (no field %s)" % err)
    except (OSError, ValueError, TypeError, RecursionError) as err:
        _usage("cannot load certificate", err)


def cmd_cover(args):
    cert = _load_certificate(args.certificate)
    try:
        report = covers.double_surface_report(cert)
    except ValueError as err:
        _usage("error", err)
    return report.to_json_dict(), EXIT_YES


def cmd_stats(args):
    try:
        report = stats.run_trials(args.length, args.samples, args.seed)
    except ValueError as err:
        _usage("bad stats arguments", err)
    if args.format == "csv":
        return report.csv_header() + "\n" + report.to_csv_row(), EXIT_YES
    return report.to_json_dict(), EXIT_YES


def cmd_render(args):
    cert = _load_certificate(args.certificate)
    try:
        S = cert.complex()
        graph = covers.stallings_complete(covers.graph_of_complex(S)) if args.cover else S
        return graph.to_dot(), EXIT_YES
    except ValueError as err:
        _usage("error", err)


def _add_word_arg(p):
    p.add_argument("word", help="word text, e.g. 'a (a^2)^b' or 'aabaB'")
    p.add_argument("--rank", type=int, default=None, help="ambient rank (default: inferred)")


def _check_args(p):
    _add_word_arg(p)
    p.add_argument("--strategy", choices=STRATEGIES, default="auto")
    p.add_argument("--max-disks", type=int, default=2)
    p.add_argument("--max-edges", type=int, default=0, help="cap on total boundary edges")
    p.add_argument("--powers", type=int, default=2, help="max disk power")
    p.add_argument("--time-budget", type=float, default=None,
                   help="search deadline in seconds (default: none, no deadline)")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility and ignored: the search runs in one process",
    )


def _diskbusting_args(p):
    _add_word_arg(p)
    p.add_argument("--orbit-cap", type=int, default=None,
                   help="accepted for compatibility and ignored: the test enumerates no orbit")


def _cover_args(p):
    p.add_argument("certificate", help="certificate JSON path")


def _stats_args(p):
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def _render_args(p):
    p.add_argument("certificate")
    p.add_argument("--cover", action="store_true", help="render the completed cover instead")


# The one declaration of each command: (name, help, argument adder, handler).
COMMANDS = (
    ("check", "decide polygonality", _check_args, cmd_check),
    ("rho", "junction invariant and cycle-monoid membership", _add_word_arg, cmd_rho),
    ("minimize", "Whitehead minimization trace", _add_word_arg, cmd_minimize),
    ("diskbusting", "proper-free-factor test", _diskbusting_args, cmd_diskbusting),
    ("cover", "degree / doubled-surface report of a certificate", _cover_args, cmd_cover),
    ("stats", "random height-one word trials", _stats_args, cmd_stats),
    ("render", "DOT export of a certificate's 1-skeleton", _render_args, cmd_render),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polyw",
        description="decide, certify and construct polygonality of words in free groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, add_args, handler in COMMANDS:
        p = sub.add_parser(name, help=summary)
        add_args(p)
        p.add_argument("--out", default=None)
        p.set_defaults(func=handler)
    return parser


def main(argv=None):
    """The one place where a command's outcome becomes its output and exit
    code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors; remap to the stable code
        if err.code not in (0, None):
            raise SystemExit(EXIT_USAGE)
        raise
    if "word" not in args:
        output, code = args.func(args)
    else:
        try:
            w = cyclic_word(args.word, args.rank)
        except ValueError as err:  # bad syntax or rank, or the empty word
            _usage("parse error", err)
        try:
            output, code = args.func(args, w)
        except ResourceCapExceeded as err:
            output = {"word": str(w), "status": "inconclusive", "reason": str(err)}
            code = EXIT_INCONCLUSIVE
    _write(output, args.out)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
