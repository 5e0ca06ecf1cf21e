"""The end-to-end benchmark's per-layer tracer still fits the code.

``benchmarks/e2e/tracing.py`` patches the layers' entry points at class
level by name, reading each original from ``owner.__dict__[attr]``: a
method that is renamed, deleted or moved to a base class makes
``install()`` raise ``KeyError``.  One install / uninstall round proves
every patched name still resolves in its class and that every original
comes back as the identical object.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from benchmarks.e2e.tracing import Tracer  # noqa: E402


def test_install_resolves_every_name_and_uninstall_restores_it():
    tracer = Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
