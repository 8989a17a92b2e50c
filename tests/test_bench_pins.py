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
from forcinglab.boolalg import certify_complete_hom
from forcinglab.cli import ExperimentConfig, generate_instances
from forcinglab.config import DEFAULT_CAPS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402
from algebra_oracle import fake_binary_witnesses  # noqa: E402
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


def test_selftest_binding():
    # perfbench/selftest.py asserts that the tracer patches this binding
    assert projection.evaluate is forcinglab.names.evaluate


def test_worker_caps_field():
    assert DEFAULT_CAPS.hom_family_cap > 0


def test_worker_keywords():
    for fn in (projection.verify_theorem2, projection.verify_projection_lemmas,
               projection.factor_generic):
        assert "rank" in inspect.signature(fn).parameters, fn.__name__
    assert "pi_prime_override" in \
        inspect.signature(projection.verify_theorem2).parameters


def test_worker_known_bad_unit_fails_item1():
    # the known-bad gate on an s2 slice: the worker picks a context, reads
    # its final level's pi_prime and swaps two entries; Theorem 2 must fail
    # item 1 only, and the element certificate the override runs through
    # must list only pairs that break the map
    config = ExperimentConfig(max_poset=3, max_stages=2, seed=1)
    units = [(spec, it, alpha, gi)
             for spec, it in generate_instances(config)
             for alpha, gi in worker.contexts(it)]
    iid, ctx, bad = worker.known_bad_unit(units, config.caps(), forcinglab)
    rep = projection.verify_theorem2(ctx, instance=iid, rank=worker.RANK,
                                     pi_prime_override=bad)
    assert iid == "it-0f2972c242"
    assert [(c.check, c.status) for c in rep.checks] == [
        ("item1-complete-hom", "fail"), ("item2-onto", "pass"),
        ("item3-atomic-transport", "pass")]
    level = ctx.final_level
    hom = certify_complete_hom(bad, level.source, level.algebra)
    assert {"product", "sum"} <= {kind for kind, *_ in hom.counterexamples}
    assert rep.checks[0].detail["violations"] == hom.violation_count
    assert fake_binary_witnesses(hom, bad) == []
