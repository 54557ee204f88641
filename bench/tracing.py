"""In-memory spans around the program's layers, recorded from outside it.

The tracer replaces a module attribute with a wrapper that records a span
(name, start, end, parent, op id) around each call and restores the
original afterwards.  Attributes are patched where the caller looks them
up: ``polyw.cli`` imports ``rho`` by name, so ``polyw.cli.rho`` is patched,
while ``polyw.whitehead.is_diskbusting`` calls its own module's
``minimize``.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        # one list per span: [name, start, end, parent index, op id, error]
        self.spans = []
        self.stack = []
        self.op = None
        self.sizes = defaultdict(int)  # largest input or output seen, by name
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)  # per-call values, by name
        self._patched = []

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op, None])
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span, error=None):
        span[2] = perf_counter()
        span[5] = error
        self.stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        except BaseException as exc:
            self._close(span, type(exc).__name__)
            raise
        self._close(span)

    def wrap(self, name, fn, hook=None):
        """``fn`` inside a span; ``hook(tracer, span, args, result, error)``
        runs after the span closes, to record counts."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, type(exc).__name__)
                if hook is not None:
                    hook(self, span, args, None, exc)
                raise
            self._close(span)
            if hook is not None:
                hook(self, span, args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, sites):
        """Patch each (module, attribute, span name, hook) site."""
        for module, attr, name, hook in sites:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, hook))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self):
        """Seconds per span name, each span minus the time its children cover.

        Children run inside their parent and one after another, so the part
        of the parent they cover is the sum of their durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _err in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(float)
        for k, (name, start, end, _parent, _op, _err) in enumerate(self.spans):
            out[name] += end - start - child_time[k]
        return out

    def write(self, path, header):
        """Spans as JSON lines after one header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for k, (name, start, end, parent, op, err) in enumerate(self.spans):
                fh.write(json.dumps([k, name, start, end, parent, op, err]) + "\n")


# --- the sites ----------------------------------------------------------------


def _membership(key):
    def hook(tracer, _span, args, result, error):
        tracer.sizes[key] = max(tracer.sizes[key], len(args[0]))
        if error is not None and type(error).__name__ == "ResourceCapExceeded":
            tracer.counts["invariants.cap_exceeded"] += 1
    return hook


def _cert_slots(tracer, _span, _args, cert, error):
    if cert is not None and cert.declarative is None:
        slots = sum(abs(k) for k in cert.powers) * len(cert.word)
        key = "constructors.cert_slots"
        tracer.sizes[key] = max(tracer.sizes[key], slots)


def _decide(search):
    def hook(tracer, span, args, outcome, error):
        if error is not None:
            return
        seconds = span[2] - span[1]
        w, bounds = args[0], args[1]
        if isinstance(outcome, search.Found):
            tracer.counts["search.found"] += 1
        elif isinstance(outcome, search.ExhaustedWithin):
            tracer.counts["search.exhausted"] += 1
            tracer.counts["search.nodes"] += outcome.nodes
            tracer.counts["search.configs_done"] += len(search.power_configs(w, bounds))
            tracer.samples["search.exhausted_nodes"].append(outcome.nodes)
            tracer.samples["search.exhausted_seconds"].append(seconds)
        else:
            tracer.counts["search.timed_out"] += 1
            tracer.counts["search.nodes"] += outcome.nodes
            tracer.counts["search.configs_done"] += outcome.configs_done
            tracer.samples["search.overshoot"].append(seconds - bounds.time_budget)
    return hook


def _orbit(tracer, _span, _args, orbit, error):
    if error is None:
        tracer.samples["whitehead.orbit_size"].append(len(orbit))


def polyw_sites():
    """Every patched site of the ``polyw`` package, by layer."""
    from polyw import cli, complexes, constructors, search, stats, whitehead

    return [
        (cli, "cyclic_word", "words.parse", None),
        (cli, "rho", "invariants.rho", None),
        (constructors, "rho", "invariants.rho", None),
        (cli, "tn_membership", "invariants.tn_membership", _membership("invariants.tn_pairs")),
        (constructors, "u_membership", "invariants.u_membership",
         _membership("invariants.u_terms")),
        (cli, "nonpolygonality_follower_obstruction", "constructors.follower", None),
        (cli, "construct_from_tn", "constructors.from_tn", _cert_slots),
        (cli, "construct_isolated_b", "constructors.isolated_b", _cert_slots),
        (cli, "construct_height_one", "constructors.height_one", _cert_slots),
        # the height-one construction calls itself once on the swapped word
        (constructors, "construct_height_one", "constructors.height_one", None),
        (complexes, "build_complex", "complexes.build_complex", None),
        (constructors, "build_complex", "complexes.build_complex", None),
        (complexes, "certify", "complexes.certify", None),
        (constructors, "certify", "complexes.certify", None),
        (search, "certify", "complexes.certify", None),
        (constructors, "boundary_lambda", "complexes.boundary_lambda", None),
        (search, "decide_polygonal", "search.decide", _decide(search)),
        (whitehead, "minimize", "whitehead.minimize", None),
        (whitehead, "minimal_orbit", "whitehead.orbit", _orbit),
        (stats, "stats_of_bits", "stats.stats_of_bits", None),
    ]
