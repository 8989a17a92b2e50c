"""The library names and keywords that the benchmark under ``perfbench/``
reads.  The benchmark patches functions by name and passes keywords the
library no longer needs, so deleting or renaming one of them breaks its
traced run (``--trace 1``) or its known-bad gate (``--known-bad``) without
failing any other test."""

import inspect
import sys
from pathlib import Path

import forcinglab
from forcinglab import projection
from forcinglab.config import DEFAULT_CAPS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer  # noqa: E402


def test_tracer_installs_and_uninstalls():
    original = forcinglab.generic.enumerate_generics
    tracer = Tracer()
    try:
        tracer.install()
        assert forcinglab.generic.enumerate_generics.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert forcinglab.generic.enumerate_generics is original


def test_worker_caps_field():
    assert DEFAULT_CAPS.hom_family_cap > 0


def test_worker_keywords():
    for fn in (projection.verify_theorem2, projection.verify_projection_lemmas,
               projection.factor_generic):
        assert "rank" in inspect.signature(fn).parameters, fn.__name__
    assert "pi_prime_override" in \
        inspect.signature(projection.verify_theorem2).parameters
