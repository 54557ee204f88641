"""Benchmark of the `polyw` command line over four seeded workloads.

Usage, from the root of the repository:

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Every operation is one `polyw` command (`check`, `diskbusting` or
`stats`) run in this process through ``polyw.cli.main(argv)``, single
process (`--jobs 1`), with stdout and the exit code captured.  A run
repeats whole passes over the workload's seeded operations while another
pass still fits in ``--seconds`` (at least one pass), so every run holds
the same mix of inputs.  Outputs are checked after the timed region.

Times in the result line are scaled to a nominal host speed: the host's
speed drifts by a fifth or more within seconds, so a fixed probe
(``speed.py``) is timed between operations and during them, and each
operation's time is divided by the median probe around and during it.
Unscaled times are printed in the notes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
operation twice, untraced and with spans recorded around each layer (see
``tracing.py``), checks that every verdict and exit code matches, writes
the spans under ``bench/out/`` and prints the per-layer metrics with the
tracing overhead.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 5
# No op starts later than this into the passes, so a run ends in bounded
# time even when the program gets much slower.
HARD_STOP_S = 120


# --- running ops --------------------------------------------------------------


@dataclass
class Result:
    op: corpus.Op
    seconds: float
    code: Optional[int]
    stdout: str
    error: Optional[str] = None  # exception raised out of cli.main
    failure: Optional[str] = None  # why the op counts as failed
    wrong: bool = False  # the failure is an incorrect output
    probes: list = field(default_factory=list)  # host-speed probe seconds around and during

    @property
    def data(self):
        return json.loads(self.stdout)

    @property
    def scaled(self):
        """Seconds at the nominal host speed.  A search that ran out of its
        time budget took the budget whatever the host's speed, so its time
        is not scaled."""
        try:
            if not self.probes or self.outcome() == "timed-out":
                return self.seconds
        except (ValueError, KeyError, TypeError):
            pass
        return self.seconds * speed.NOMINAL_S / statistics.median(self.probes)

    def outcome(self):
        """Short label of what the op ended with, for verdict mixes."""
        if self.error is not None:
            return "raised"
        data = self.data
        if self.op.kind == "check":
            result = data.get("result") or {}
            if data["status"] == "inconclusive":
                return result.get("search", "inconclusive")
            return data["status"]
        if self.op.kind == "diskbusting":
            return "inconclusive" if "diskbusting" not in data else str(data["diskbusting"])
        return "report"

    @property
    def resolved(self):
        return self.failure is None and self.outcome() in (
            "polygonal", "not-polygonal", "True", "False", "report")


def load_cli():
    """Import ``polyw.cli`` from this checkout's ``src/``, never elsewhere."""
    package = ROOT / "src" / "polyw"
    if not (package / "cli.py").is_file():
        sys.exit("bench: no polyw sources at %s" % package)
    sys.path.insert(0, str(ROOT / "src"))
    from polyw import cli

    if Path(cli.__file__).resolve().parent != package:
        sys.exit("bench: imported polyw from %s, not %s" % (cli.__file__, package))
    return cli


def run_op(cli, op, sampled=False):
    """Run one op; ``sampled`` probes the host's speed while it runs, and
    the probes' own time is left out of the op's."""
    out = io.StringIO()
    code = error = None
    sampler = speed.Sampler() if sampled else nullcontext()
    with sampler:
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash of the program is a measured failure
                error = "%s: %s" % (type(exc).__name__, str(exc)[:120])
        seconds = perf_counter() - start
    if not sampled:
        return Result(op, seconds, code, out.getvalue(), error)
    return Result(op, seconds - sampler.spent, code, out.getvalue(), error,
                  probes=sampler.samples)


def run_passes(cli, make_ops, seed, seconds):
    """Whole passes while the longest pass so far still fits; a list of
    result lists, one per pass.  The host-speed probes run before each op,
    after the last, and during each; an op keeps the probes taken during
    it and next to it."""
    passes = []
    start = perf_counter()
    longest = 0.0
    while not passes or perf_counter() - start + longest <= seconds:
        t0 = perf_counter()
        results, between = [], []
        for op in make_ops(seed, len(passes)):
            if perf_counter() > start + HARD_STOP_S:
                break
            between.append(speed.probes())
            results.append(run_op(cli, op, sampled=True))
        between.append(speed.probes())
        for k, r in enumerate(results):
            r.probes = between[k] + r.probes + between[k + 1]
        passes.append(results)
        longest = max(longest, perf_counter() - t0)
    return passes


def measure_setup():
    """Median time for a fresh interpreter to import the CLI and build its
    parser: what every `polyw` invocation pays before any work.  One
    unmeasured import first writes the bytecode caches.

    Not scaled by the host-speed probe: the import is mostly loading
    numpy's shared libraries, whose time does not follow the probe's.
    """
    code = (
        "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
        "import polyw.cli; polyw.cli.build_parser(); print(time.perf_counter() - t)"
    )
    times = []
    for k in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        if k:
            times.append(float(proc.stdout))
    return statistics.median(times)


# --- output checks -------------------------------------------------------------


EXIT_OF = {"polygonal": 0, "not-polygonal": 1, "inconclusive": 2}
# A failure, but not a wrong output: a negative verdict that shows nothing.
NO_EVIDENCE = "exit 1 without evidence"


def check_result(res, polyw):
    """Set ``res.failure`` (and ``res.wrong``) when the op failed."""
    if res.error is not None:
        res.failure = "raised " + res.error
        return
    try:
        data = res.data
        problem = CHECKS[res.op.kind](res, data, polyw)
    except (ValueError, KeyError, TypeError) as exc:
        problem = "unreadable output: %s: %s" % (type(exc).__name__, exc)
    if problem == NO_EVIDENCE:
        res.failure = problem
    elif problem is not None:
        res.failure, res.wrong = problem, True


def _check_check(res, data, polyw):
    status = data["status"]
    if EXIT_OF.get(status) != res.code:
        return "status %s with exit %s" % (status, res.code)
    if res.code == 1 and not (data["result"] or {}).get("evidence"):
        return NO_EVIDENCE
    if res.op.expect is not None and status != res.op.expect:
        return "paper example gave %s, expected %s" % (status, res.op.expect)
    if status == "polygonal":
        cert = polyw.complexes.PolygonalityCertificate.from_json_dict(data["result"])
        if not (cert.polygonal and cert.verify()):
            return "certificate does not verify"
        if cert.word != polyw.words.cyclic_word(res.op.argv[1]):
            return "certificate is for %s" % cert.word
    return None


def _check_diskbusting(res, data, polyw):
    answer = data.get("diskbusting")
    if res.code != {True: 0, False: 1, None: 2}[answer]:
        return "diskbusting %s with exit %s" % (answer, res.code)
    w = polyw.words.cyclic_word(res.op.argv[1])
    if answer is False and polyw.whitehead.cut_vertex_prescreen(w):
        return "cut-vertex prescreen holds but diskbusting is false"
    return None


def _check_stats(res, data, polyw):
    if res.code != 0:
        return "stats exit %s" % res.code
    fracs = [data[k] for k in ("p_condition", "p_fail_q", "p_fail_p")]
    if not all(0.0 <= f <= 1.0 for f in fracs):
        return "fraction outside [0, 1]: %s" % fracs
    if (data["N"], data["samples"]) != (corpus.STATS_LENGTH, corpus.STATS_SAMPLES):
        return "report for N=%s samples=%s" % (data["N"], data["samples"])
    return None


CHECKS = {"check": _check_check, "diskbusting": _check_diskbusting, "stats": _check_stats}


# --- metrics -------------------------------------------------------------------


def tail(values, passes=1):
    """(percentile, value): the highest sample with at least ten per pass
    beyond it, so that the percentile is the same whatever the number of
    passes in a run.

    With no such sample the maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = 10 * passes
    if n <= beyond:
        return 100.0, ordered[-1]
    k = n - beyond - 1
    return 100.0 * (k + 1) / n, ordered[k]


def fraction(results, predicate):
    return sum(1 for r in results if predicate(r)) / len(results)


def metric(value, unit):
    return {"value": value, "unit": unit}


def latency_stats(passes, select=lambda r: True):
    """Median and tail of the selected ops' latencies (ms at the nominal
    host speed), pooled over every pass, as (p50, (percentile, tail),
    ops per pass)."""
    latencies = [r.scaled * 1e3 for results in passes for r in results if select(r)]
    return (statistics.median(latencies), tail(latencies, len(passes)),
            len(latencies) / len(passes))


def is_diskbusting(result):
    return result.op.kind == "diskbusting"


def end_to_end(passes, rss_mb, setup_s):
    ops = [r for results in passes for r in results]
    p50_ms, (pct, tail_ms), per_pass = latency_stats(passes)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "verdict_p50_ms": metric(p50_ms, "ms"),
        "verdict_tail_ms": metric(tail_ms, "ms"),
        "verdicts_per_s": metric(len(ops) / sum(r.scaled for r in ops), "1/s"),
        "resolved_frac": metric(fraction(ops, lambda r: r.resolved), "frac"),
        "ok_frac": metric(fraction(ops, lambda r: r.failure is None), "frac"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    notes = ["verdict_tail_ms: p%.1f of %d ops over %d passes of %g" % (
                 pct, len(ops), len(passes), per_pass),
             "per pass (p50 ms, tail ms, ops/s): %s" % [
                 (round(a, 2), round(b[1], 2), round(len(ps) / sum(r.scaled for r in ps), 3))
                 for ps in passes if ps for a, b, _n in [latency_stats([ps])]],
             "failed_frac %.4f" % (1 - metrics["ok_frac"]["value"]),
             "unscaled: p50 %.2f ms, %.3f ops/s; probe median %.3f ms (nominal %.3f)" % (
                 statistics.median(r.seconds for r in ops) * 1e3,
                 len(ops) / sum(r.seconds for r in ops),
                 statistics.median([p for r in ops for p in r.probes] or [0.0]) * 1e3,
                 speed.NOMINAL_S * 1e3)]
    return metrics, notes


def tools_figures(passes):
    """The `diskbusting` latency and `stats` throughput of the `tools`
    workload, printed beside its metrics (they apply to no other workload,
    so they are not in the result line)."""
    stats = [r for results in passes for r in results if r.op.kind == "stats"]
    p50_ms, (pct, tail_ms), per_pass = latency_stats(passes, is_diskbusting)
    return {
        "diskbusting_p50_ms": metric(p50_ms, "ms"),
        "diskbusting_tail_ms": metric(tail_ms, "ms"),
        "mc_samples_per_s": metric(
            corpus.STATS_SAMPLES * len(stats) / sum(r.scaled for r in stats), "1/s"),
    }, "diskbusting_tail_ms: p%.1f of %d ops per pass" % (pct, per_pass)


def verdict_mix(results):
    """Outcome counts per generator family, for the summary."""
    mix = {}
    for r in results:
        key = r.outcome() if r.failure is None else "failed"
        mix.setdefault(r.op.family, {}).setdefault(key, 0)
        mix[r.op.family][key] += 1
    return {family: mix[family] for family in sorted(mix)}


def per_layer(tracer, n_ops, overhead_pct):
    per_op = 1e3 / n_ops
    self_s = tracer.self_times()
    layer_ms = {
        "words.parse_ms": "words.parse",
        "invariants.rho_ms": "invariants.rho",
        "invariants.tn_membership_ms": "invariants.tn_membership",
        "invariants.u_membership_ms": "invariants.u_membership",
        "constructors.follower_ms": "constructors.follower",
        "constructors.from_tn_ms": "constructors.from_tn",
        "constructors.isolated_b_ms": "constructors.isolated_b",
        "constructors.height_one_ms": "constructors.height_one",
        "complexes.build_complex_ms": "complexes.build_complex",
        "complexes.certify_ms": "complexes.certify",
        "complexes.boundary_lambda_ms": "complexes.boundary_lambda",
        "search.decide_ms": "search.decide",
        "whitehead.minimize_ms": "whitehead.minimize",
        "whitehead.orbit_ms": "whitehead.orbit",
        "stats.stats_of_bits_ms": "stats.stats_of_bits",
    }
    out = {key: metric(self_s.get(name, 0.0) * per_op, "ms/op") for key, name in layer_ms.items()}
    counts, sizes, samples = tracer.counts, tracer.sizes, tracer.samples
    decided = counts["search.found"] + counts["search.exhausted"] + counts["search.timed_out"]
    exhausted_s = sum(samples["search.exhausted_seconds"])
    overshoot = samples["search.overshoot"]
    orbits = samples["whitehead.orbit_size"]
    out.update({
        "invariants.cap_exceeded": metric(counts["invariants.cap_exceeded"], "count"),
        "invariants.tn_pairs": metric(sizes["invariants.tn_pairs"], "count"),
        "invariants.u_terms": metric(sizes["invariants.u_terms"], "count"),
        "constructors.cert_slots": metric(sizes["constructors.cert_slots"], "count"),
        "search.nodes": metric(counts["search.nodes"], "count"),
        "search.nodes_per_s": metric(
            sum(samples["search.exhausted_nodes"]) / exhausted_s if exhausted_s else 0.0, "1/s"),
        "search.configs_done": metric(counts["search.configs_done"], "count"),
        "search.found": metric(counts["search.found"], "count"),
        "search.exhausted": metric(counts["search.exhausted"], "count"),
        "search.timed_out": metric(counts["search.timed_out"], "count"),
        "search.yield": metric(counts["search.found"] / decided if decided else 0.0, "frac"),
        "search.budget_overshoot_ms": metric(
            1e3 * statistics.mean(overshoot) if overshoot else 0.0, "ms"),
        "whitehead.orbit_size": metric(statistics.mean(orbits) if orbits else 0.0, "count"),
        "whitehead.prescreen_fires": metric(counts["whitehead.prescreen_fires"], "count"),
        "trace.overhead_pct": metric(overhead_pct, "%"),
        "trace.ops": metric(n_ops, "count"),
    })
    return out


def verdict_key(res):
    return res.code, res.outcome() if res.failure is None else res.failure


# --- the two kinds of run --------------------------------------------------------


def untraced_run(cli, polyw, workload, seed, seconds):
    setup_s = measure_setup()
    passes = run_passes(cli, corpus.WORKLOADS[workload], seed, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results = [r for results in passes for r in results]
    for r in results:
        check_result(r, polyw)
    metrics, notes = end_to_end(passes, rss_mb, setup_s)
    figures = {}
    if workload == "tools":
        figures, note = tools_figures(passes)
        notes.append(note)
    summary = {"workload": workload, "seed": seed, "passes": len(passes),
               "ops": len(results), "notes": notes, "mix": verdict_mix(results),
               "failures": sorted({"%s: %s" % (r.op.family, r.failure)
                                   for r in results if r.failure})}
    return results, metrics, summary, figures


def traced_run(cli, polyw, workload, seed, seconds):
    """Each op twice, untraced and traced, alternating which goes first so
    that neither side gains from running second, until ``seconds`` pass."""
    ops = (op for k in itertools.count() for op in corpus.WORKLOADS[workload](seed, k))
    tracer = tracing.Tracer()
    sites = tracing.polyw_sites()
    plain, traced = [], []
    start = perf_counter()
    for k, op in enumerate(ops):
        if k and perf_counter() - start >= seconds:
            break
        for traced_now in ((False, True) if k % 2 == 0 else (True, False)):
            if not traced_now:
                plain.append(run_op(cli, op))
                continue
            tracer.op = k
            tracer.install(sites)
            try:
                with tracer.span("op." + op.kind):
                    traced.append(run_op(cli, op))
            finally:
                tracer.uninstall()
    for r in plain + traced:
        check_result(r, polyw)
    flips = 0
    same = []
    for a, b in zip(plain, traced):
        key_a, key_b = verdict_key(a), verdict_key(b)
        if key_a == key_b:
            same.append((a, b))
        elif "timed-out" in (key_a[1], key_b[1]):
            flips += 1  # a search near its time budget may end either way
        else:
            b.failure, b.wrong = "traced verdict %s != untraced %s" % (key_b, key_a), True
    base = sum(a.seconds for a, _ in same)
    overhead = 100.0 * (sum(b.seconds for _, b in same) - base) / base
    for r in traced:
        if r.op.kind == "diskbusting":
            w = polyw.words.cyclic_word(r.op.argv[1])
            tracer.counts["whitehead.prescreen_fires"] += bool(
                polyw.whitehead.cut_vertex_prescreen(w))
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("trace-%s-%d.jsonl" % (workload, seed))
    tracer.write(path, {"workload": workload, "seed": seed,
                        "ops": [list(r.op.argv) for r in plain]})
    summary = {"workload": workload, "seed": seed, "ops": len(traced),
               "budget_flips": flips, "spans": len(tracer.spans),
               "spans_file": str(path.relative_to(ROOT)),
               "failures": sorted({"%s: %s" % (r.op.family, r.failure)
                                   for r in plain + traced if r.failure})}
    return plain + traced, per_layer(tracer, len(traced), overhead), summary, {}


def result_line(results, metrics):
    """The benchmark's last line: a wrong output makes the run incorrect;
    any failure (raised, exit 1 without evidence, wrong output) counts."""
    return {
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": sum(1 for r in results if r.failure),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = load_cli()
    import polyw.complexes
    import polyw.whitehead
    import polyw.words

    run = traced_run if args.trace else untraced_run
    results, metrics, summary, figures = run(cli, polyw, args.workload, args.seed, args.seconds)
    print(json.dumps(summary, indent=1))
    for name, m in {**metrics, **figures}.items():
        print("%-30s %14.4f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result_line(results, metrics)))


if __name__ == "__main__":
    main()
