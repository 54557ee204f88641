"""Every site the benchmark's tracer patches (``bench/tracing.py``) still
names an attribute of its module.

The tracer looks each function up where its caller does, so a change that
drops such a name (an import the caller no longer needs, say) would break
``bench/run.py --trace 1`` without failing any other test.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402


def test_every_traced_site_resolves():
    sites = tracing.polyw_sites()
    assert sites
    missing = ["%s.%s" % (module.__name__, attr)
               for module, attr, _name, _hook in sites if not hasattr(module, attr)]
    assert missing == []
    assert all(callable(getattr(module, attr)) for module, attr, _n, _h in sites)


def test_tracer_installs_and_restores_every_site():
    sites = tracing.polyw_sites()
    originals = [getattr(module, attr) for module, attr, _name, _hook in sites]
    tracer = tracing.Tracer()
    tracer.install(sites)
    try:
        assert all(getattr(module, attr).__wrapped__ is original
                   for (module, attr, _n, _h), original in zip(sites, originals))
    finally:
        tracer.uninstall()
    assert [getattr(module, attr) for module, attr, _n, _h in sites] == originals
