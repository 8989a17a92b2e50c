"""The known-bad registry: every pass/fail check kind of the acceptance run
(`run --suite all --max-poset 3 --max-stages 3`) names the tier-1 test that
feeds it a broken input and sees that kind fail.  A kind is a (suite,
check) pair with the check's stage, collapse and component indices folded.
A new check kind fails this file until its known-bad is written and listed
here."""

import ast
import functools
import re
from pathlib import Path

import pytest

from forcinglab.cli import ExperimentConfig, execute

TESTS = Path(__file__).resolve().parent

KNOWN_BAD = {
    ("cifs", "collapse-count-n-m"):
        "test_cli.py::TestDriverFailures::"
        "test_an_off_by_one_closed_form_fails_every_collapse_count",
    ("cifs", "lemma20-stage-k-component-c"):
        "test_projection.py::TestLemma20::"
        "test_a_corrupted_payload_fails_that_component_alone",
    ("cifs", "tables-differ-between-generics"):
        "test_iteration.py::TestCifs::"
        "test_hidden_debris_fails_the_dependence_probe",
    ("corollary15", "stage-k-canonical-form"):
        "test_projection.py::TestCorollary15::"
        "test_a_search_that_splits_isomorphs_fails_canonical_form",
    ("corollary15", "stage-k-generic-bridge"):
        "test_projection.py::TestCorollary15::"
        "test_dropped_quotient_generic_fails_its_bridge",
    ("corollary15", "stage-k-order-isomorphic"):
        "test_projection.py::TestCorollary15::"
        "test_a_changed_tail_leaves_the_natural_map_partial",
    ("lemma1", "stage-k-separative"):
        "test_iteration.py::TestStageOrder::"
        "test_stage_over_a_non_separative_product_fails_lemma1",
    ("projection-lemmas", "L3-principal-onto"):
        "test_projection.py::TestLemmaControls::test_constant_one_map_fails_l3",
    ("projection-lemmas", "L4-principal-to-principal"):
        "test_projection.py::TestLemmaControls::"
        "test_swapped_pi_entries_fail_l4_l5_l10_and_l12",
    ("projection-lemmas", "L5-disjointness"):
        "test_projection.py::TestLemmaControls::"
        "test_swapped_pi_entries_fail_l4_l5_l10_and_l12",
    ("projection-lemmas", "L6-complement"):
        "test_projection.py::TestSharedFacts::"
        "test_constant_one_fails_item1_and_l6_but_not_l7",
    ("projection-lemmas", "L7-products"):
        "test_projection.py::TestSharedFacts::"
        "test_complement_swap_fails_item1_and_l7_at_a_pair",
    ("projection-lemmas", "L8-onto"):
        "test_projection.py::TestTheorem2::test_non_onto_map_fails_item2_and_l8",
    ("projection-lemmas", "L9-atomic-transport"):
        "test_projection.py::TestTheorem2::"
        "test_swapped_maps_fail_item3_and_l9_at_real_pairs",
    ("projection-lemmas", "L10-monotone"):
        "test_projection.py::TestLemmaControls::"
        "test_alternating_atom_images_pin_the_first_four_l10_pairs",
    ("projection-lemmas", "L11-merge-below"):
        "test_projection.py::TestLemmaControls::test_an_emptied_row_fails_l11",
    ("projection-lemmas", "L12-forcing-transport"):
        "test_projection.py::TestLemmaControls::"
        "test_a_raised_projection_fails_l12_forward",
    ("projection-lemmas", "L13-equal-tails-regular"):
        "test_projection.py::TestLemmaControls::test_a_missing_top_entry_fails_l13",
    ("projection-lemmas", "L14-order-reflection"):
        "test_projection.py::TestLemmaControls::"
        "test_siblings_collapsing_every_class_fail_l14",
    ("theorem16", "item1-prefix-generic"):
        "test_projection.py::TestTheorem16::test_missing_prefix_generic_fails_item1",
    ("theorem16", "item2-quotient-generic"):
        "test_projection.py::TestTheorem16::test_non_filter_projection_fails_item2",
    ("theorem16", "item3-evaluation-identity"):
        "test_projection.py::TestTheorem16::"
        "test_wrong_element_image_fails_item3_at_its_rank1_witness",
    ("theorem2", "item1-complete-hom"):
        "test_projection.py::TestTheorem2::test_corrupted_map_hook_fails_item1",
    ("theorem2", "item2-onto"):
        "test_projection.py::TestTheorem2::test_non_onto_map_fails_item2_and_l8",
    ("theorem2", "item3-atomic-transport"):
        "test_projection.py::TestTheorem2::"
        "test_swapped_maps_fail_item3_and_l9_at_real_pairs",
}

FOLDS = [(re.compile(r"^stage-\d+-"), "stage-k-"),
         (re.compile(r"^collapse-count-\d+-\d+$"), "collapse-count-n-m"),
         (re.compile(r"^lemma20-stage\d+-component\d+$"),
          "lemma20-stage-k-component-c")]


def check_kind(check: str) -> str:
    for pattern, folded in FOLDS:
        check = pattern.sub(folded, check)
    return check


@functools.cache
def defined_tests(path: str) -> frozenset:
    """The ``[Class::]function`` names a test file in this directory
    defines, read from its syntax tree; empty for no such file."""
    file = TESTS / path
    if not file.is_file():
        return frozenset()
    names = set()
    for node in ast.parse(file.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{f.name}" for f in node.body
                         if isinstance(f, ast.FunctionDef))
    return frozenset(names)


def names_a_test(node_id: str) -> bool:
    path, _, name = node_id.partition("::")
    return name in defined_tests(path)


def registry_gaps(kinds: set, registry: dict) -> tuple[set, set, dict]:
    """The kinds with no entry, the entries for no kind of the run, and the
    entries whose test does not exist."""
    return (kinds - set(registry), set(registry) - kinds,
            {k: t for k, t in registry.items() if not names_a_test(t)})


@pytest.fixture(scope="module")
def acceptance_kinds() -> set:
    report, _ = execute(ExperimentConfig(max_poset=3, max_stages=3, seed=1))
    return {(c.suite, check_kind(c.check)) for c in report.checks
            if c.status != "skip"}


def test_every_check_kind_names_an_existing_known_bad(acceptance_kinds):
    assert len(acceptance_kinds) == 25
    assert registry_gaps(acceptance_kinds, KNOWN_BAD) == (set(), set(), {})


def test_a_dropped_or_dangling_entry_is_found(acceptance_kinds):
    for kind in sorted(KNOWN_BAD):
        dropped = {k: t for k, t in KNOWN_BAD.items() if k != kind}
        assert registry_gaps(acceptance_kinds, dropped) == ({kind}, set(), {})
    extra = ("cifs", "no-such-check")
    stale = {**KNOWN_BAD, extra: KNOWN_BAD["cifs", "collapse-count-n-m"]}
    assert registry_gaps(acceptance_kinds, stale) == (set(), {extra}, {})
    kind = ("theorem2", "item2-onto")
    for dangling in ("test_projection.py::TestTheorem2::test_no_such_test",
                     "test_projection.py::TestNoSuchClass::"
                     "test_non_onto_map_fails_item2_and_l8",
                     "test_no_such_file.py::test_x",
                     "test_projection.py::TestTheorem2"):
        bad = {**KNOWN_BAD, kind: dangling}
        assert registry_gaps(acceptance_kinds, bad) == (
            set(), set(), {kind: dangling})
