import dataclasses

import pytest

from forcinglab.config import DEFAULT_CAPS, CapExceeded
from forcinglab.formula import parse_formula
from forcinglab.generic import dense_subsets
from forcinglab.hfset import EMPTY
from forcinglab.iteration import (TAIL_ONE, TableProvider, build_iteration,
                                  cifs_toy_iteration)
from forcinglab.names import (Name, check_name, evaluate, name_text,
                              name_universe)
from forcinglab.poset import (_mask_bits, antichain_with_top, point_poset,
                              regularize)
from forcinglab.projection import (ProjectionError, factor_generic,
                                   make_context, verify_corollary15,
                                   verify_lemma20_analogue,
                                   verify_projection_lemmas, verify_theorem2,
                                   working_universe)

A2 = antichain_with_top(2)
A3 = antichain_with_top(3)
PT = point_poset()


@pytest.fixture(scope="module")
def worked():
    """The constant two-step antichain instance with G = the a-side generic."""
    it = build_iteration(TableProvider([{(): A2}, {(0,): A2, (1,): A2}]))
    ctx = make_context(it, 1, 0)
    return it, ctx


class TestMakeContext:
    def test_identity_at_the_final_stage(self, worked):
        it, _ = worked
        ctx = make_context(it, 2, 0)
        assert set(ctx.levels) == {2}
        assert ctx.levels[2].stage.poset.n == 1

    def test_first_level_quotient_is_the_step_poset(self, worked):
        it, ctx = worked
        qp = ctx.levels[2].stage.poset
        assert qp.n == 3
        assert qp.canonical_key() == A2.canonical_key()

    def test_pi_defined_exactly_on_prefix_in_G(self, worked):
        it, ctx = worked
        level = ctx.levels[2]
        for ci in range(it.stages[2].poset.n):
            assert (level.pi[ci] is not None) == ctx.in_G(2, ci)

    def test_top_valued_tail_projects_to_quotient_top(self, worked):
        it, ctx = worked
        s2 = it.stages[2]
        level = ctx.levels[2]
        top_q = A2.top
        # the condition whose tail sends G to the step top and the other
        # generic to an atom: its image is the quotient top
        cond = ((TAIL_ONE), ((0, top_q), (1, 0)))
        cond = (TAIL_ONE, ((0, top_q), (1, 0)))
        ci = s2.cond_index(cond)
        assert level.pi[ci] == level.stage.poset.top

    def test_pi_prime_values_are_regular_quotient_cuts(self, worked):
        # each value is the regularized pointwise image of the source cut
        it, ctx = worked
        level = ctx.levels[2]
        A = ctx.source_algebras[2]
        qp = level.stage.poset
        for x in A.elements:
            img = 0
            for p in _mask_bits(A.cut(x)):
                if level.pi[p] is not None:
                    img |= 1 << level.pi[p]
            assert level.algebra.cut(level.pi_prime[x]) == regularize(img, qp)

    def test_alpha_out_of_range(self, worked):
        it, _ = worked
        with pytest.raises(ProjectionError):
            make_context(it, 5, 0)

    def test_algebra_atom_bound_comes_from_caps(self, worked):
        # the stage-1 poset has two atoms
        it, _ = worked
        with pytest.raises(CapExceeded):
            make_context(it, 1, 0, DEFAULT_CAPS.with_(algebra_max_base=1))

    def test_cached_contexts_are_kept_apart_by_caps(self, worked):
        it, ctx = worked
        caps = DEFAULT_CAPS.with_(hom_family_cap=8)
        other = make_context(it, 1, 0, caps)
        assert other is not ctx and other.caps == caps
        assert make_context(it, 1, 0) is ctx

    def test_later_levels_mix_tails_over_their_own_algebra(self):
        # from level alpha+3 on, tails are read over a different source
        # algebra than at level alpha+2; the quotient tails must still be
        # the rebuilt shifted iteration
        it = build_iteration(TableProvider([
            {(): PT}, {(None,): PT}, {(None, None): A2},
            {(None, None, 0): A2, (None, None, 1): A2}]))
        assert [s.poset.n for s in it.stages] == [1, 1, 1, 3, 15]
        ctx = make_context(it, 1, 0)
        assert ctx.final_level.stage.poset.n == 15
        rep = verify_corollary15(ctx, instance="points-then-antichains")
        assert rep.ok and rep.counts()["pass"] >= 6, rep.failures[:1]


class TestTheorem2:
    def test_worked_instance_passes(self, worked):
        _, ctx = worked
        rep = verify_theorem2(ctx, instance="worked")
        assert rep.ok and rep.counts()["pass"] >= 3

    def test_degenerate_point_step_passes(self):
        it = build_iteration(TableProvider([{(): A2}, {(0,): PT, (1,): PT}]))
        ctx = make_context(it, 1, 0)
        rep = verify_theorem2(ctx, instance="degenerate")
        assert rep.ok

    def test_raw_images_already_regular_at_this_scale(self, worked):
        # at sweep sizes the pointwise image of a regular cut turns out to be
        # regular before the closure is applied, so skipping regularization
        # is not observable here; pin that finding down on the worked
        # instance so a future counterexample surfaces loudly
        it, ctx = worked
        level = ctx.levels[2]
        A = ctx.source_algebras[2]
        for x in A.elements:
            cut = A.cut(x)
            img = 0
            for p in range(it.stages[2].poset.n):
                if (cut >> p) & 1 and level.pi[p] is not None:
                    img |= 1 << level.pi[p]
            assert img == level.algebra.cut(level.pi_prime[x])

    def test_corrupted_map_hook_fails_item1(self, worked):
        # swap the images of zero and one: the override hook must surface
        # zero/one and complement violations in the item-1 report
        _, ctx = worked
        level = ctx.levels[2]
        B = level.algebra
        corrupted = dict(level.pi_prime)
        zero_key = next(c for c, v in corrupted.items() if v == B.zero)
        one_key = next(c for c, v in corrupted.items() if v == B.one)
        corrupted[zero_key], corrupted[one_key] = B.one, B.zero
        rep = verify_theorem2(ctx, instance="corrupt",
                              pi_prime_override=corrupted)
        item1 = [c for c in rep.checks if c.check == "item1-complete-hom"]
        assert item1 and all(c.status == "fail" for c in item1)

    def test_formula_transport_with_quantifier(self, worked):
        _, ctx = worked
        fs = [parse_formula("exists v (v in $0)"),
              parse_formula("!($0 in $1)")]
        rep = verify_theorem2(ctx, formulas=fs, instance="worked")
        assert rep.ok
        names = {c.check for c in rep.checks}
        assert "item3-formula-0" in names and "item3-formula-1" in names


class TestProjectionLemmas:
    def test_worked_instance_all_lemmas(self, worked):
        _, ctx = worked
        rep = verify_projection_lemmas(ctx, instance="worked")
        assert rep.ok
        checks = {c.check for c in rep.checks}
        for lemma in ("L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10",
                      "L11", "L12", "L13", "L14"):
            assert any(c.startswith(lemma + "-") for c in checks), lemma

    def test_l7_and_item1_ignore_the_hom_family_cap(self, worked):
        # the source algebra has 16 elements and 2^16 families exceed this
        # cap, but the certificate checks families of at most two elements
        _, ctx = worked
        capped = dataclasses.replace(ctx, caps=DEFAULT_CAPS.with_(hom_family_cap=8))
        lemmas = verify_projection_lemmas(capped, instance="capped").checks
        thm2 = verify_theorem2(capped, instance="capped").checks
        l7 = [c.status for c in lemmas if c.check == "L7-products"]
        item1 = [c.status for c in thm2 if c.check == "item1-complete-hom"]
        assert l7 == item1 == ["pass"]

    def test_trivial_iteration_equal_tail_cuts_are_everything(self):
        it = build_iteration(TableProvider([{(): A2}, {(0,): PT, (1,): PT}]))
        ctx = make_context(it, 1, 0)
        rep = verify_projection_lemmas(ctx, instance="trivial")
        assert rep.ok
        l13 = [c for c in rep.checks if c.check.startswith("L13")]
        assert l13 and all(c.status == "pass" for c in l13)

    def test_incompatible_tails_project_incompatibly(self, worked):
        it, ctx = worked
        level = ctx.levels[2]
        s2 = it.stages[2]
        qp = level.stage.poset
        # two tails over G hitting the two distinct step atoms
        ci = s2.cond_index((TAIL_ONE, ((0, 0), (1, 0)))) \
            if (TAIL_ONE, ((0, 0), (1, 0))) in s2._index else None
        ca = s2.cond_index((((0, 0),), ((0, 0),)))
        cb = s2.cond_index((((0, 0),), ((0, 1),)))
        assert not s2.poset.below[ca] & s2.poset.below[cb]
        ia, ib = level.pi[ca], level.pi[cb]
        assert not qp.below[ia] & qp.below[ib]


def _with_pi_prime(ctx, beta, pi_prime):
    """A fresh context whose level beta maps elements by pi_prime."""
    level = dataclasses.replace(ctx.levels[beta], pi_prime=pi_prime)
    return dataclasses.replace(ctx, levels={**ctx.levels, beta: level})


class TestSharedFacts:
    """Theorem 2 and the lemma suite cite one facts record per level."""

    @staticmethod
    def hom_statuses(ctx):
        checks = verify_theorem2(ctx, instance="control").checks + \
            verify_projection_lemmas(ctx, instance="control").checks
        return {c.check: c.status for c in checks if c.check in
                ("item1-complete-hom", "L6-complement", "L7-products")}

    def test_zero_one_swap_fails_item1_l6_and_l7(self, worked):
        _, ctx = worked
        level = ctx.levels[2]
        B = level.algebra
        swapped = dict(level.pi_prime)
        zero_key = next(c for c, v in swapped.items() if v == B.zero)
        one_key = next(c for c, v in swapped.items() if v == B.one)
        swapped[zero_key], swapped[one_key] = B.one, B.zero
        assert self.hom_statuses(_with_pi_prime(ctx, 2, swapped)) == {
            "item1-complete-hom": "fail", "L6-complement": "fail",
            "L7-products": "fail"}

    def test_constant_one_fails_item1_and_l6_but_not_l7(self, worked):
        # every product of ones is one, but the complement of one is zero
        _, ctx = worked
        B = ctx.levels[2].algebra
        constant = {x: B.one for x in ctx.source_algebras[2].elements}
        assert self.hom_statuses(_with_pi_prime(ctx, 2, constant)) == {
            "item1-complete-hom": "fail", "L6-complement": "fail",
            "L7-products": "pass"}

    def test_a_replaced_map_gets_its_own_name_images(self, worked):
        # the pi_second memo is per level: a copy with another pi_prime
        # must neither read nor fill the original's
        _, ctx = worked
        A, level = ctx.source_algebras[2], ctx.levels[2]
        B = level.algebra
        x = next(x for x in A.elements if level.pi_prime[x] not in (B.zero, B.one))
        nm = Name([(Name([], A), x)], A)
        assert ctx.pi_second(2, nm).entries[0][1] == level.pi_prime[x]
        constant = _with_pi_prime(ctx, 2, {y: B.one for y in A.elements})
        assert constant.pi_second(2, nm).entries[0][1] == B.one
        assert ctx.pi_second(2, nm).entries[0][1] == level.pi_prime[x]

    def test_replaced_caps_start_with_no_facts(self, worked):
        # the facts depend on the caps through the universes, so a copy of
        # the context under other caps must not see the cached ones
        _, ctx = worked

        def transport(c):
            return [r.detail["pairs"] for r in verify_theorem2(c).checks
                    if r.check == "item3-atomic-transport"]

        before = transport(ctx)
        small = dataclasses.replace(
            ctx, caps=DEFAULT_CAPS.with_(pair_universe_cap=4))
        assert transport(small) != before
        assert transport(ctx) == before


class TestTheorem16:
    def test_identity_factorization_at_the_final_stage(self, worked):
        it, _ = worked
        G, hmask, rep = factor_generic(it, 2, 0)
        assert rep.ok
        assert hmask == 1  # trivial quotient filter

    def test_all_final_generics_factor(self, worked):
        it, _ = worked
        for gi in range(len(it.stages[2].generics)):
            G, hmask, rep = factor_generic(it, 1, gi)
            assert rep.ok, rep.failures[0].detail

    def test_check_names_are_absolute(self, worked):
        it, ctx = worked
        A = ctx.source_algebras[2]
        level = ctx.levels[2]
        from forcinglab.hfset import hfset
        for x in (EMPTY, hfset(EMPTY), hfset(hfset(EMPTY))):
            nm = check_name(x, A)
            for gi, gen in enumerate(it.stages[2].generics):
                G, hmask, rep = factor_generic(it, 1, gi)
                ctx2 = make_context(it, 1, it.stages[1].generics.index(G))
                img = ctx2.pi_second(2, nm)
                assert evaluate(nm, gen.mask) == x
                assert evaluate(img, hmask) == x

    def test_corrupted_name_image_fails_item3_at_that_name(self):
        # a fresh iteration, so the module fixture's memo stays intact
        it = build_iteration(TableProvider([{(): A2}, {(0,): A2, (1,): A2}]))
        G, hmask, rep = factor_generic(it, 1, 0)
        assert rep.ok
        ctx = make_context(it, 1, it.stages[1].generics.index(G))
        A, level = ctx.source_algebras[2], ctx.final_level
        empty = Name([], level.algebra)
        # the last universe name whose image is not empty under hmask
        victim = [x for x in working_universe(A, 2).names
                  if evaluate(level._pi_second[x.uid], hmask) != EMPTY][-1]
        level._pi_second[victim.uid] = empty
        _, _, rep = factor_generic(it, 1, 0)
        item3 = [c for c in rep.checks if c.check == "item3-evaluation-identity"]
        assert [c.status for c in item3] == ["fail"]
        assert item3[0].detail["counterexample"] == name_text(victim, A)

    def test_quotient_filter_meets_every_dense_subset(self, worked):
        it, _ = worked
        for gi in range(len(it.stages[2].generics)):
            G, hmask, rep = factor_generic(it, 1, gi)
            ctx = make_context(it, 1, it.stages[1].generics.index(G))
            qp = ctx.final_level.stage.poset
            assert all(hmask & d for d in dense_subsets(qp))


class TestCorollary15:
    def test_constant_tail_provider(self, worked):
        _, ctx = worked
        rep = verify_corollary15(ctx, instance="worked")
        assert rep.ok

    def test_trivial_tail_provider(self):
        it = build_iteration(TableProvider([{(): A2}, {(0,): PT, (1,): PT}]))
        ctx = make_context(it, 1, 0)
        rep = verify_corollary15(ctx, instance="trivial")
        assert rep.ok

    def test_generic_dependent_table(self):
        # the stage-1 table reads the stage-0 generic: a-side sees an
        # antichain, b-side sees a point
        it = build_iteration(TableProvider([{(): A2}, {(0,): A3, (1,): PT}]))
        for gi in range(len(it.stages[1].generics)):
            ctx = make_context(it, 1, gi)
            rep = verify_corollary15(ctx, instance=f"dependent-{gi}")
            assert rep.ok, rep.failures[0].detail

    def test_three_stage_deep_quotients(self):
        it = build_iteration(TableProvider([
            {(): A2}, {(0,): A2}, {(0, 0): A2, (0, 1): PT, (1, None): A2}]))
        for alpha in (1, 2):
            for gi in range(len(it.stages[alpha].generics)):
                ctx = make_context(it, alpha, gi)
                rep = verify_corollary15(ctx, instance=f"deep-{alpha}-{gi}")
                assert rep.ok, (alpha, gi, rep.failures[:1])


class TestLemma20:
    def test_singleton_into_two(self):
        prov = cifs_toy_iteration([parse_formula("x = x")], [(1, 2)])
        it = build_iteration(prov)
        for gi in range(len(it.final.generics)):
            rep = verify_lemma20_analogue(it, gi)
            assert rep.ok
            assert any(c.detail == {"X": 1, "m": 2, "union_size": 1}
                       for c in rep.checks)

    def test_two_into_three(self):
        prov = cifs_toy_iteration([parse_formula("x = x")], [(2, 3)])
        it = build_iteration(prov, DEFAULT_CAPS.with_(max_stage_conditions=128))
        for gi in range(len(it.final.generics)):
            rep = verify_lemma20_analogue(it, gi)
            assert rep.ok
            assert any(c.detail == {"X": 2, "m": 3, "union_size": 2}
                       for c in rep.checks)

    def test_boundary_size_is_excluded(self):
        # |X| = m: atoms have size m-1, the union is not total, and the
        # precondition keeps such components out of the sweep
        prov = cifs_toy_iteration([parse_formula("x = x")], [(2, 2)])
        it = build_iteration(prov, DEFAULT_CAPS.with_(max_stage_conditions=128))
        info = prov.info[(0, ())]
        assert len(info.structure) == 2 and prov.ladder[0][1] == 2
        for atom_tuple in (info.element_tuples[a] for a in info.poset.atoms):
            assert len(info.payloads[0][atom_tuple[0]]) == 1  # m-1, not total
        for gi in range(len(it.final.generics)):
            rep = verify_lemma20_analogue(it, gi)
            assert not any(c.context.get("component") == 0 for c in rep.checks)

    def test_requires_toy_provider(self, worked):
        it, _ = worked
        with pytest.raises(ProjectionError):
            verify_lemma20_analogue(it, 0)


class TestRankBehaviour:
    def test_pi_second_never_raises_rank(self, worked):
        _, ctx = worked
        A = ctx.source_algebras[2]
        univ = name_universe(A, 1)
        for nm in univ.names:
            assert ctx.pi_second(2, nm).rank <= nm.rank
