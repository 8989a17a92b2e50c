import collections
import functools
import itertools
import random
import sys

import pytest

from forcinglab import iteration as iteration_module
from forcinglab import poset as poset_module
from forcinglab import projection
from forcinglab.boolalg import certify_complete_hom, ro_algebra
from forcinglab.cli import (ExperimentConfig, InstanceSpec, execute,
                            generate_instances, run_suite, run_unit)
from forcinglab.config import DEFAULT_CAPS, CapExceeded, lazy, replace
from forcinglab.formula import constants, parse_formula
from forcinglab.generic import dense_subsets
from forcinglab.hfset import EMPTY, HFSet
from forcinglab.iteration import (TAIL_ONE, CifsProvider, Iteration,
                                  ProviderError, Stage, TableProvider,
                                  build_iteration, extend_stage, root_stage,
                                  trim, verify_lemma20_analogue)
from forcinglab.names import (Name, NameUniverse, TruthSession, check_name,
                              evaluate, name_text,
                              name_universe, sampled_universe)
from forcinglab.poset import (Poset, _mask_bits, antichain_with_top,
                              chain_poset, point_poset, product_poset,
                              regularize,
                              separativity_witness)
from forcinglab.projection import (ProjectionError, _forced, _frown_levels,
                                   _lemma11, _lemma12, _lemma12_by_elements,
                                   _lemma13, _lemma14,
                                   _evaluation_identity_witness,
                                   _transport_witness,
                                   factor_generic, make_context,
                                   verify_corollary15,
                                   verify_projection_lemmas, verify_theorem2)
from forcinglab.report import SuiteReport

import algebra_oracle
import lemma_oracle
import tail_oracle
from generation_oracle import automorphisms_by_search, canonical_key_by_search
from order_oracle import (above_by_pairs, atoms_by_pairs, compat_by_pairs,
                          separativity_witness_by_pairs, stage_from_conditions)

A2 = antichain_with_top(2)
A3 = antichain_with_top(3)
PT = point_poset()


def _alpha_prefix(it, alpha: int, beta: int, ci: int) -> int:
    """Index in P_alpha of the alpha-prefix of a P_beta condition, by
    canonicalizing the prefix rather than reading parent rows."""
    cond = it.stages[beta].conditions[ci]
    return it.stages[alpha].cond_index(trim(cond[:alpha]))


def frown_level(ctx, beta):
    """The s-frown table and prefix groups that the lemma suite's pass
    hands level beta, the pass run to stage beta."""
    *_, last = _frown_levels(ctx.iteration.stages[ctx.alpha:beta + 1])
    return last


def _two_step_antichains():
    """The constant two-step antichain iteration, built afresh."""
    return build_iteration(TableProvider([{(): A2}, {(0,): A2, (1,): A2}]))


def _count_calls(monkeypatch, *functions) -> list:
    """Patch each function wherever a forcinglab module or class binds it,
    so that every call appends the function's qualified name to the list
    returned."""
    calls: list = []
    owners = [m for n, m in sorted(sys.modules.items())
              if n.split(".")[0] == "forcinglab"] + [TruthSession]
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn.__qualname__)
            return _fn(*args, **kwargs)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    monkeypatch.setattr(owner, attr, counted)
    return calls


def _record_rebuilds(monkeypatch) -> list:
    """Every iteration that Corollary 15 rebuilds, in call order."""
    rebuilt: list = []

    def recorded(*args, **kwargs):
        rebuilt.append(build_iteration(*args, **kwargs))
        return rebuilt[-1]

    monkeypatch.setattr(projection, "build_iteration", recorded)
    return rebuilt


@pytest.fixture(scope="module")
def worked():
    """The constant two-step antichain instance with G = the a-side generic."""
    it = _two_step_antichains()
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

    def test_pi_defined_exactly_on_prefix_in_G(self, default_sweep):
        # make_context places a new condition where its parent's image is
        # defined; this invariant, checked against canonicalized prefixes
        # at every level of every context, is what makes that the rule
        levels = 0
        for _, it in default_sweep:
            for alpha in range(1, len(it) + 1):
                for gi in range(len(it.stages[alpha].generics)):
                    ctx = make_context(it, alpha, gi)
                    for beta, level in ctx.levels.items():
                        for ci in range(it.stages[beta].poset.n):
                            in_G = _alpha_prefix(it, alpha, beta, ci) in ctx.G
                            assert (level.pi[ci] is not None) == in_G
                        levels += 1
        assert levels == 1384

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

    @staticmethod
    def one_step_two_atoms():
        return build_iteration(TableProvider([{(): antichain_with_top(2)}]))

    @pytest.mark.parametrize("gi", [-1, 2, 5])
    def test_generic_out_of_range(self, gi):
        # a negative index names no generic: it is not read from the end
        it = self.one_step_two_atoms()
        with pytest.raises(ProjectionError,
                           match=f"generic {gi} out of range 0..1"):
            make_context(it, 1, gi)
        assert not it.context_cache

    def test_factorization_indices_out_of_range(self):
        it = self.one_step_two_atoms()
        with pytest.raises(ProjectionError,
                           match="full generic 7 out of range 0..1"):
            factor_generic(it, 1, 7)
        with pytest.raises(ProjectionError, match="alpha 3 out of range 1..1"):
            factor_generic(it, 3, 0)
        assert not it.context_cache

    def test_a_tail_image_outside_the_step_poset_fails_the_build(
            self, monkeypatch):
        # only the alpha 1 context decodes tails (at level 3).  The decoder
        # is handed a copy of level 2 whose pi_prime sends every element to
        # one, so a tail valued a = 0b01 under one generic and b = 0b10
        # under the other decodes to 0b11, a fourth element of the
        # three-element step poset
        it = build_iteration(TableProvider([
            {(): PT}, {(None,): A2}, {(None, 0): A2, (None, 1): A2}]))
        decode = projection._tail_image

        def flooded(prev_level, *args):
            return decode(_flooded(prev_level), *args)

        monkeypatch.setattr(projection, "_tail_image", flooded)
        with pytest.raises(ProjectionError, match="tail image at level 3"):
            make_context(it, 1, 0)
        assert not it.context_cache
        spec = InstanceSpec("it-bad-tail", [])
        rep = run_suite("theorem2", spec, it, ExperimentConfig())
        assert [(c.check, c.context) for c in rep.failures] == [
            ("context-build", {"alpha": 1, "generic": 0})]
        assert rep.counts()["pass"] > 0

    def test_a_non_separative_stage_fails_the_build(self):
        # a stage over the product of A2 and a 3-chain, which no provider
        # hands out: its algebra would be quotiented, its atoms classes of
        # conditions where pi indexes the conditions themselves
        product, _ = product_poset([A2, chain_poset(3)])
        root = root_stage()
        stage = extend_stage(root, [product], DEFAULT_CAPS)
        it = Iteration([root, stage], TableProvider([{(): product}]),
                       DEFAULT_CAPS)
        assert ro_algebra(stage.poset).original is not None
        error = "stage 1 poset is not separative"
        with pytest.raises(ProjectionError, match=error):
            make_context(it, 1, 0)
        assert not it.context_cache
        context = {"alpha": 1, "generic": 0}
        rep = run_unit("theorem2", "it-quotiented", context,
                       lambda: make_context(it, 1, 0),
                       lambda ctx: verify_theorem2(ctx, instance="it-x"))
        assert [(c.check, c.status, c.instance, c.context, c.detail)
                for c in rep.checks] == [
            ("context-build", "fail", "it-quotiented", context,
             {"error": error})]

    # Planted refusals of make_context.  No provider's iteration reaches
    # them: by the factor property the quotient stage is the enumerated
    # child of the previous level's stage, pi places every pair in it and
    # is onto, each source atom lands on a quotient atom, generics match
    # atom for atom, and the iteration of separative steps is separative.
    # So each one plants a wrong tail decoder or a wrong stage builder,
    # and run_unit writes the refusal as a failed context build.

    @staticmethod
    def decoder(change):
        """A tail decoder that hands each decoded tail, with the source
        tail, to ``change``."""
        decode = projection._tail_image

        def planted(prev_level, prev_src, steps_q, qprefix, tail):
            return change(decode(prev_level, prev_src, steps_q, qprefix, tail),
                          tail)
        return "_tail_image", planted

    @staticmethod
    def builder(change):
        """A stage builder that hands each stage it returns to ``change``."""
        extend = projection.extend_stage
        return "extend_stage", lambda prev, steps, caps: change(
            extend(prev, steps, caps))

    @pytest.mark.parametrize("tables, plant, error", [
        # a tail over a generic the quotient prefix does not have
        ([{(): PT}, {(None,): A2}, {(None, 0): A2, (None, 1): A2}],
         lambda t: t.decoder(lambda qtail, tail: ((9, 0),)),
         "tail image at level 3 names no condition of the quotient stage"),
        # every tail decoded to 1: no new quotient condition is an image
        ([{(): PT}, {(None,): A2}, {(None, 0): A2, (None, 1): A2}],
         lambda t: t.decoder(lambda qtail, tail: TAIL_ONE),
         "quotient condition 3 at level 3 is no condition's image"),
        # the quotient stage drops its first generic, so the source atom
        # below it lands on no quotient generic's atom
        ([{(): PT}, {(None,): A2}],
         lambda t: t.builder(lambda stage: replace(
             stage, generics=stage.generics[1:])),
         "atom image is not a quotient atom at level 2"),
        # a tail over one generic valued 0 decoded as 1: the two source
        # atoms over an atom prefix meet in one quotient atom, which the
        # tails over two generics still reach
        ([{(): A2}, {(0,): A2, (1,): A2},
          {(0, 0): A2, (0, 1): A2, (1, 0): A2, (1, 1): A2}],
         lambda t: t.decoder(lambda qtail, tail: tuple(
             (g, e or 1) for g, e in qtail) if len(tail) == 1 else qtail),
         "two source generics project onto one quotient generic at level 3"),
        # the quotient stage lists its first generic twice
        ([{(): PT}, {(None,): A2}],
         lambda t: t.builder(lambda stage: replace(
             stage, generics=[*stage.generics, stage.generics[0]])),
         "quotient generic with no source generic at level 2"),
        # the quotient stage's order replaced by a 3-chain
        ([{(): PT}, {(None,): A2}],
         lambda t: t.builder(lambda stage: replace(
             stage, poset=chain_poset(3))),
         "quotient poset at level 2 is not separative"),
    ], ids=["no-condition", "not-onto", "atom-image", "two-generics",
            "generic-unmatched", "not-separative"])
    def test_a_planted_refusal_fails_the_context_build(
            self, monkeypatch, tables, plant, error):
        it = build_iteration(TableProvider(tables),
                             DEFAULT_CAPS.with_(max_stage_conditions=1 << 10))
        monkeypatch.setattr(projection, *plant(self))
        context = {"alpha": 1, "generic": 0}
        rep = run_unit("theorem2", "it-planted", context,
                       lambda: make_context(it, 1, 0),
                       lambda ctx: verify_theorem2(ctx, instance="it-x"))
        assert [(c.check, c.status, c.context, c.detail)
                for c in rep.checks] == [
            ("context-build", "fail", context, {"error": error})]
        assert not it.context_cache

    def test_each_tail_is_validated_once(self, default_sweep, monkeypatch):
        # _tail_image validates and canonicalizes each decoded tail, and
        # the first level's value comes from a canonical source tail, so
        # no build reaches the validation canonicalize_condition uses
        def refused(*args):
            raise AssertionError("_canonical_tail called")

        monkeypatch.setattr(iteration_module, "_canonical_tail", refused)
        built = 0
        for _, it in default_sweep:
            it = replace(it)
            for alpha in range(1, len(it) + 1):
                for gi in range(len(it.stages[alpha].generics)):
                    make_context(it, alpha, gi)
                    built += 1
        assert built == 776

    def test_an_undecodable_tail_image_fails_every_build(self, monkeypatch):
        # the decoder finds no step poset under any quotient generic: every
        # build that decodes a tail raises, and nothing of the failure is
        # kept for a later build
        it = build_iteration(TableProvider([
            {(): PT}, {(None,): A2}, {(None, 0): A2, (None, 1): A2}]))
        decode = projection._tail_image

        def stepless(prev_level, prev_stage, steps_q, qprefix, tail):
            return decode(prev_level, prev_stage, [None] * len(steps_q),
                          qprefix, tail)

        monkeypatch.setattr(projection, "_tail_image", stepless)
        for fresh in (it, it, replace(it)):
            with pytest.raises(ProjectionError, match="tail image at level 3"):
                make_context(fresh, 1, 0)
            assert not fresh.context_cache
        monkeypatch.undo()
        ctx = make_context(it, 1, 0)
        assert ctx.final_level.stage.poset.n == \
            make_context(replace(it), 1, 0).final_level.stage.poset.n
        assert verify_corollary15(ctx).ok

    def test_algebra_atom_bound_comes_from_caps(self, worked):
        # the stage-1 poset has two atoms: the context builds, and its
        # algebras refuse to list their elements
        it, _ = worked
        ctx = make_context(it, 1, 0, DEFAULT_CAPS.with_(algebra_max_base=1))
        assert {A.max_base for level in ctx.levels.values()
                for A in (level.source, level.algebra)} == {1}
        with pytest.raises(CapExceeded):
            ctx.levels[1].source.elements

    def test_cached_contexts_are_kept_apart_by_caps(self, worked):
        it, ctx = worked
        caps = DEFAULT_CAPS.with_(hom_family_cap=8)
        other = make_context(it, 1, 0, caps)
        assert other is not ctx and other.caps == caps
        assert make_context(it, 1, 0) is ctx

    def test_later_levels_mix_tails_over_their_own_algebra(self):
        # from level alpha+3 on, tails are decoded through another level's
        # pi_prime, over another source algebra, than at level alpha+2; the
        # quotient tails must still be the rebuilt shifted iteration
        it = build_iteration(TableProvider([
            {(): PT}, {(None,): PT}, {(None, None): A2},
            {(None, None, 0): A2, (None, None, 1): A2}]))
        assert [s.poset.n for s in it.stages] == [1, 1, 1, 3, 15]
        ctx = make_context(it, 1, 0)
        assert ctx.final_level.stage.poset.n == 15
        rep = verify_corollary15(ctx, instance="points-then-antichains")
        assert rep.ok and rep.counts()["pass"] >= 6, rep.failures[:1]


# hand-built iterations whose alpha 1 contexts have a level alpha+2 or later
LATER_LEVEL_TABLES = {
    "point-antichain-antichains": [
        {(): PT}, {(None,): A2}, {(None, 0): A2, (None, 1): A2}],
    "points-then-antichains": [
        {(): PT}, {(None,): PT}, {(None, None): A2},
        {(None, None, 0): A2, (None, None, 1): A2}],
    "antichains-and-a-point": [
        {(): A2}, {(0,): A2}, {(0, 0): A2, (0, 1): PT, (1, None): A2}],
}


def _flooded(level):
    """A copy of the level whose pi_prime sends every element to one."""
    copy = replace(level)
    copy.pi_prime = dict.fromkeys(level.pi_prime, level.algebra.one)
    return copy


def _decoder_and_oracle(ctx, beta: int, flood=False, stepless=False):
    """Per new P_beta condition whose prefix is in G, for beta >= alpha+2:
    the quotient tail of :func:`projection._tail_image` and that of the
    name route, the tail's literal name mapped through ``ctx.pi_second``
    and decoded under the quotient generics, None where either refuses.
    ``flood`` first sends every element to one under level beta-1's
    pi_prime; ``stepless`` drops every quotient step poset."""
    it = ctx.iteration
    src, prev_src = it.stages[beta], it.stages[beta - 1]
    level = ctx.levels[beta - 1]
    if flood:
        level = _flooded(level)
        ctx = replace(ctx, levels={**ctx.levels, beta - 1: level})
    steps_q = [None if stepless else src.steps[sg] for sg in level.combine]
    A = ctx.source_algebras[beta - 1]
    memo: dict = {}
    got, want = [], []
    for ci in range(prev_src.poset.n, src.poset.n):
        qprefix = level.pi[src.parent[ci]]
        if qprefix is None:
            continue
        tail = src.conditions[ci][beta - 1]
        got.append(projection._tail_image(level, prev_src, steps_q, qprefix,
                                          tail))
        image = ctx.pi_second(beta - 1,
                              tail_oracle.tail_as_name(prev_src, tail, A, memo))
        try:
            want.append(tail_oracle.tail_from_name(level.stage, steps_q,
                                                   qprefix, image))
        except ProviderError:
            want.append(None)
    return got, want


class TestTailImage:
    """From level alpha+2 on, make_context decodes each tail's pi_second
    image from the previous level's pi_prime; the name route is the oracle."""

    @staticmethod
    def later_contexts(iterations):
        # replaced copies: the oracle fills pi_second memos, which must not
        # reach the contexts cached on the shared sweep
        for it in iterations:
            it = replace(it)
            for alpha in range(1, len(it) - 1):
                for gi in range(len(it.stages[alpha].generics)):
                    yield make_context(it, alpha, gi)

    def agree(self, iterations):
        levels = refused = 0
        for ctx in self.later_contexts(iterations):
            for beta in range(ctx.alpha + 2, len(ctx.iteration) + 1):
                got, want = _decoder_and_oracle(ctx, beta)
                assert got == want and None not in got
                got, want = _decoder_and_oracle(ctx, beta, flood=True)
                assert got == want
                refused += got.count(None)
                got, want = _decoder_and_oracle(ctx, beta, stepless=True)
                assert got == want == [None] * len(got)
                levels += 1
        return levels, refused

    def test_the_decoder_agrees_with_the_name_route_on_the_sweep(
            self, default_sweep):
        levels, refused = self.agree(it for _, it in default_sweep)
        assert levels == 174 and refused > 0

    def test_the_decoder_agrees_with_the_name_route_on_hand_built_iterations(self):
        levels, refused = self.agree(
            build_iteration(TableProvider(tables))
            for tables in LATER_LEVEL_TABLES.values())
        assert levels == 6 and refused > 0

    def test_pi_prime_keeps_one_on_every_level(self, default_sweep):
        levels = 0
        for _, it in default_sweep:
            for alpha in range(1, len(it) + 1):
                for gi in range(len(it.stages[alpha].generics)):
                    ctx = make_context(it, alpha, gi)
                    for beta, level in ctx.levels.items():
                        A = ctx.source_algebras[beta]
                        assert level.pi_prime[A.one] == level.algebra.one
                        levels += 1
        assert levels == 1384


class TestContextOwnership:
    """Each context builds its own source algebras, so names and their
    pi_second images stay in one context; the order tables under the
    algebras are shared through the memo in poset.py."""

    @staticmethod
    def all_contexts(it, caps=None):
        return [make_context(it, alpha, g, caps)
                for alpha in range(1, len(it) + 1)
                for g in range(len(it.stages[alpha].generics))]

    def test_each_context_owns_its_stage_algebras(self):
        it = build_iteration(TableProvider([
            {(): A2}, {(0,): A2}, {(0, 0): A2, (0, 1): PT, (1, None): A2}]))
        ctxs = self.all_contexts(it)
        seen: dict[int, list] = {}
        for ctx in ctxs:
            for beta, A in ctx.source_algebras.items():
                seen.setdefault(beta, []).append(A)
        assert sorted(seen) == [1, 2, 3]
        for algebras in seen.values():
            assert len({id(A) for A in algebras}) == len(algebras) > 1
            # one relation matrix per stage: its cuts and their listing
            # are memoized once
            assert len({id(A.elements) for A in algebras}) == 1
            assert len({id(A.base.cuts) for A in algebras}) == 1

    def test_no_name_passes_between_contexts(self):
        it = build_iteration(TableProvider([
            {(): A2}, {(0,): A2}, {(0, 0): A2, (0, 1): PT, (1, None): A2}]))
        ctxs = self.all_contexts(it)
        for ctx in ctxs:
            assert verify_theorem2(ctx).ok
            # a passing build maps no name: map {(empty, x)} for every
            # source element x at every level
            for beta in range(ctx.alpha + 1, len(it) + 1):
                A = ctx.source_algebras[beta]
                for x in A.nonzero:
                    ctx.pi_second(beta, Name(((Name((), A), x),), A))
        owner: dict[int, int] = {}
        for k, ctx in enumerate(ctxs):
            tables = [A.name_table for A in ctx.source_algebras.values()]
            tables += [level.algebra.name_table for level in ctx.levels.values()]
            for table in tables:
                for name in table.values():
                    assert owner.setdefault(id(name), k) == k
        assert len(set(owner.values())) > 1

    def test_the_cache_holds_only_contexts(self):
        it = _two_step_antichains()
        wide = it.caps.with_(algebra_max_base=it.caps.algebra_max_base + 1)
        ctxs = self.all_contexts(it) + self.all_contexts(it, wide)
        # a refused build caches nothing
        with pytest.raises(CapExceeded):
            make_context(it, 1, 0, it.caps.with_(max_stage_conditions=1))
        assert len(it.context_cache) == len(ctxs) == 12
        for key, ctx in it.context_cache.items():
            assert key == (ctx.alpha, ctx.gen_index, ctx.caps)
        # other caps, other contexts with their own algebras
        assert ctxs[0].caps != ctxs[6].caps
        assert ctxs[0].source_algebras[2] is not ctxs[6].source_algebras[2]

    def test_factor_generic_neither_sweeps_nor_evaluates(self, monkeypatch):
        it = _two_step_antichains()
        N = len(it)
        calls = _count_calls(monkeypatch, name_universe, sampled_universe,
                             evaluate)
        factored = 0
        for alpha in range(1, N + 1):
            for gi in range(len(it.stages[N].generics)):
                assert factor_generic(it, alpha, gi)[2].ok
                factored += 1
        assert factored == 8 and calls == []

    def test_a_replaced_iteration_starts_with_an_empty_cache(self):
        it = _two_step_antichains()
        ctx = make_context(it, 1, 0)
        copy = replace(it, stages=list(it.stages))
        assert copy.context_cache == {} and it.context_cache
        other = make_context(copy, 1, 0)
        assert other is not ctx and other.iteration is copy
        assert make_context(it, 1, 0) is ctx


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

    def test_the_override_replaces_the_final_level_map_only(self, default_sweep):
        # the override is a map on the final level's source elements: the
        # level's own map reproduces the run, and swapping the images of
        # zero and one fails item 1 at the final level alone
        ctxs = [make_context(it, 1, gi) for _, it in default_sweep
                if len(it) == 3 for gi in range(len(it.stages[1].generics))][:3]
        assert len(ctxs) == 3
        for ctx in ctxs:
            N, level = len(ctx.iteration), ctx.final_level
            assert len(ctx.levels) == 3
            plain = [c.to_json() for c in verify_theorem2(ctx).checks]
            same = verify_theorem2(ctx, pi_prime_override=dict(level.pi_prime))
            assert [c.to_json() for c in same.checks] == plain
            A = level.source
            swapped = {**level.pi_prime, A.zero: level.pi_prime[A.one],
                       A.one: level.pi_prime[A.zero]}
            bad = verify_theorem2(ctx, pi_prime_override=swapped)
            assert [(c.check, c.context["beta"]) for c in bad.failures] == [
                ("item1-complete-hom", N)]

    @staticmethod
    def records(ctx):
        """Theorem 2 and lemma records by check, for one-level contexts."""
        checks = verify_theorem2(ctx, instance="control").checks + \
            verify_projection_lemmas(ctx, instance="control").checks
        return {c.check: c for c in checks}

    @classmethod
    def statuses(cls, ctx):
        return {k: c.status for k, c in cls.records(ctx).items()}

    @staticmethod
    def stale_image(ctx, beta):
        """The first source name whose memoized level-beta pi_second image
        is not the structural recursion on its entries, or None.  Children
        are interned before their parents, so walking the algebra's name
        table in insertion order reports the first stale image, not a
        parent that merely carries it."""
        level = ctx.levels[beta]
        A, B = ctx.source_algebras[beta], level.algebra
        for x in A.name_table.values():
            got = level._pi_second.get(x.uid)
            if got is not None and got is not Name(
                    ((ctx.pi_second(beta, sub), level.pi_prime[e])
                     for sub, e in x.entries), B):
                return x
        return None

    def test_the_pi_second_memo_is_the_recursion(self, worked):
        # the element certificates of items 2 and 3 and of Theorem 16 reach
        # every name through this recursion; map the rank-2 universe of
        # every level of every context and audit each memo entry
        it = _two_step_antichains()
        ctxs = [worked[1]] + TestContextOwnership.all_contexts(it)
        audited = 0
        for ctx in ctxs:
            for beta in range(ctx.alpha + 1, len(ctx.iteration) + 1):
                universe = sampled_universe(ctx.source_algebras[beta], 2).names
                for x in universe:
                    ctx.pi_second(beta, x)
                assert len(ctx.levels[beta]._pi_second) >= len(universe)
                assert self.stale_image(ctx, beta) is None
                audited += 1
        assert audited == 3

    def test_the_memo_audit_finds_a_planted_image(self):
        # a replaced level has its own memo, so the context cache stays intact
        ctx = make_context(_two_step_antichains(), 1, 0)
        level = replace(ctx.levels[2])
        copy = replace(ctx, levels={**ctx.levels, 2: level})
        A = ctx.source_algebras[2]
        victim = Name([(Name([], A), A.one)], A)
        parent = Name([(victim, A.one)], A)
        copy.pi_second(2, parent)
        assert self.stale_image(copy, 2) is None
        level._pi_second[victim.uid] = Name([], level.algebra)
        assert self.stale_image(copy, 2) is victim

    @staticmethod
    def breaks_transport(bad, pi_prime, item3, by_text, src) -> bool:
        """Whether the final level's item 3 pair, found by its text in a
        rank-2 source universe (``by_text``, ``src`` its session), has a
        source value whose pi_prime differs from its images' value."""
        shape, xt, yt = item3.detail["counterexample"]
        x, y = by_text[xt], by_text[yt]
        px, py = bad.pi_second(2, x), bad.pi_second(2, y)
        tgt = TruthSession(NameUniverse(bad.levels[2].algebra, 2, (px, py),
                                        exhaustive=False))
        value = {"in": "member_value", "=": "equal_value"}[shape]
        sv = getattr(src, value)(x, y)
        return pi_prime[sv] != getattr(tgt, value)(px, py)

    def test_swapped_maps_fail_item3_and_l9_at_real_pairs(self, worked):
        # every swap of two distinct pi_prime values; each reported pair
        # breaks transport
        _, ctx = worked
        A, level = ctx.source_algebras[2], ctx.levels[2]
        universe = sampled_universe(A, 2)
        by_text = {name_text(n, A): n for n in universe.names}
        src = TruthSession(universe)
        kinds = set()
        for a, b in itertools.combinations(A.elements, 2):
            if level.pi_prime[a] == level.pi_prime[b]:
                continue
            swapped = {**level.pi_prime,
                       a: level.pi_prime[b], b: level.pi_prime[a]}
            bad = _with_pi_prime(ctx, 2, swapped)
            got = {c.check: c for c in verify_theorem2(bad).checks}
            item1, item3 = got["item1-complete-hom"], got["item3-atomic-transport"]
            assert item3.status == "fail"
            kinds.add(item1.detail["counterexamples"][0][0])
            assert algebra_oracle.fake_binary_witnesses(
                bad.levels[2].hom, swapped) == []
            assert self.breaks_transport(bad, swapped, item3, by_text, src), (a, b)
        assert kinds >= {"zero", "one", "complement", "product"}
        # L9 cites the same certificate
        l9 = self.records(bad)["L9-atomic-transport"]
        assert l9.status == "fail" and l9.detail == item3.detail

    def test_a_majority_map_fails_item3_at_a_sum_pair(self):
        # the majority of three source atoms, the first ignored, keeps zero,
        # one and every complement, and is no homomorphism.  On this order
        # the element listing reaches a failing sum split before any
        # failing product split, so the witness comes from the sum; no
        # swap of the worked instance's map does that
        P = Poset([1, 2, 4, 13, 19, 32, 127], 6, list("abcdefg"))
        ctx = make_context(build_iteration(TableProvider(
            [{(): PT}, {(None,): P}])), 1, 0)
        A, B = ctx.source_algebras[2], ctx.levels[2].algebra
        voters = sum(1 << a for a in A.base.atoms[1:])
        majority = {x: B.one if (x & voters).bit_count() >= 2 else B.zero
                    for x in A.elements}
        bad = _with_pi_prime(ctx, 2, majority)
        got = {c.check: c for c in verify_theorem2(bad).checks}
        item1, item3 = got["item1-complete-hom"], got["item3-atomic-transport"]
        assert [c[0] for c in item1.detail["counterexamples"][:1]] == ["sum"]
        assert algebra_oracle.fake_binary_witnesses(
            bad.levels[2].hom, majority) == []
        universe = sampled_universe(A, 2)
        by_text = {name_text(n, A): n for n in universe.names}
        assert item3.status == "fail"
        assert self.breaks_transport(bad, majority, item3, by_text,
                                     TruthSession(universe))
        # L9 cites the same certificate
        l9 = self.records(bad)["L9-atomic-transport"]
        assert l9.status == "fail" and l9.detail == item3.detail

    def test_non_onto_map_fails_item2_and_l8(self):
        # every element goes to one, so no quotient name with another
        # element has a preimage; the report names a rank-1 one
        ctx = make_context(_two_step_antichains(), 1, 0)
        A, B = ctx.source_algebras[2], ctx.levels[2].algebra
        constant = {x: B.one for x in A.elements}
        bad = _with_pi_prime(ctx, 2, constant)
        got = self.records(bad)
        item2, l8 = got["item2-onto"], got["L8-onto"]
        assert item2.status == l8.status == "fail"
        assert item2.detail == l8.detail
        by_text = {name_text(Name([(Name([], B), c)], B), B): c for c in B.nonzero}
        c = by_text[item2.detail["counterexample"]]
        assert c not in set(constant.values())
        # and no source name of rank <= 2 reaches {(empty, c)}
        target = Name([(Name([], B), c)], B)
        assert all(bad.pi_second(2, x) is not target
                   for x in sampled_universe(A, 2).names)

    def test_formula_transport_with_quantifier(self, worked):
        # a test-side sweep: quantified formulas over a 48-name source
        # universe and its pi_second image
        _, ctx = worked
        A, level = ctx.source_algebras[2], ctx.levels[2]
        universe = sampled_universe(A, 2, cap=48)
        assert len(universe) == 48
        images = {ctx.pi_second(2, n) for n in universe.names}
        target = NameUniverse(level.algebra, 2,
                              tuple(sorted(images, key=lambda n: n.key)),
                              exhaustive=False)
        src, tgt = TruthSession(universe), TruthSession(target)
        checked = 0
        for f in (parse_formula("exists v (v in $0)"),
                  parse_formula("!($0 in $1)")):
            for combo in itertools.product(universe.names,
                                           repeat=len(constants(f))):
                sv = src.with_constants(combo).value(f)
                tv = tgt.with_constants(
                    [ctx.pi_second(2, n) for n in combo]).value(f)
                assert level.pi_prime[sv] == tv, (f, combo)
                checked += 1
        assert checked == 48 + 48 ** 2

    def test_neither_suite_sweeps_or_computes_truth_values(self, monkeypatch):
        ctx = make_context(_two_step_antichains(), 1, 0)
        calls = _count_calls(monkeypatch, name_universe, sampled_universe,
                             TruthSession.member_value,
                             TruthSession.equal_value)
        assert verify_theorem2(ctx).ok
        assert verify_projection_lemmas(ctx).ok
        assert calls == []


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
        # cap, but the certificate checks families of at most two elements;
        # the levels are copied, so that their facts are computed under it
        _, ctx = worked
        capped = replace(
            ctx, caps=DEFAULT_CAPS.with_(hom_family_cap=8),
            levels={b: replace(lvl) for b, lvl in ctx.levels.items()})
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


class TestLemmaControls:
    """Negative controls for L3 and L10-L14: corrupted inputs must fail
    them."""

    @staticmethod
    def inputs(ctx, beta):
        it = ctx.iteration
        siblings = [make_context(it, ctx.alpha, g).levels[beta]
                    for g in range(len(it.stages[ctx.alpha].generics))]
        return frown_level(ctx, beta)[0], siblings

    @staticmethod
    def with_pi(ctx, beta, pi):
        # the original's record is filled first: the copy must derive its
        # own, but keeps the original's pi_prime
        level = ctx.levels[beta]
        assert level.rows and level.hom and level.onto and level.transport
        copy = replace(level, pi=pi)
        copy.pi_prime = level.pi_prime
        return replace(ctx, levels={**ctx.levels, beta: copy})

    @staticmethod
    def l5_l10(ctx, beta):
        """The L5 and L10 records at level beta, checked against the
        pairwise oracles."""
        rep = SuiteReport()
        projection._lemmas_at_level(ctx, beta, *frown_level(ctx, beta), rep,
                                    "control")
        got = {c.check: (c.status == "pass", c.detail) for c in rep.checks}
        src, level = ctx.iteration.stages[beta], ctx.levels[beta]
        l5, l10 = got["L5-disjointness"], got["L10-monotone"]
        assert l5 == lemma_oracle.lemma5(src, level)
        assert l10 == lemma_oracle.lemma10(src, level)
        return l5, l10

    def test_swapped_pi_entries_fail_l4_l5_l10_and_l12(self, worked):
        _, ctx = worked
        level = ctx.levels[2]
        ci, cj = 0, next(c for c, q in enumerate(level.pi)
                         if q is not None and q != level.pi[0])
        pi = list(level.pi)
        pi[ci], pi[cj] = pi[cj], pi[ci]
        swapped = self.with_pi(ctx, 2, pi)
        failed = {c.check.split("-")[0] for c in
                  verify_projection_lemmas(swapped, instance="control").failures}
        assert failed == {"L4", "L5", "L10", "L12"}
        (ok5, _), (ok10, _) = self.l5_l10(swapped, 2)
        assert not ok5 and not ok10

    def test_alternating_atom_images_pin_the_first_four_l10_pairs(self, worked):
        # the defined conditions sent to the two quotient atoms in turn:
        # every comparable pair across the two images breaks monotonicity,
        # far more than the four pairs a record lists
        _, ctx = worked
        level = ctx.levels[2]
        atoms = level.stage.poset.atoms
        defined = [c for c, q in enumerate(level.pi) if q is not None]
        pi = list(level.pi)
        for k, c in enumerate(defined):
            pi[c] = atoms[k % 2]
        (ok5, _), (ok10, detail10) = self.l5_l10(self.with_pi(ctx, 2, pi), 2)
        assert not ok5 and not ok10
        assert detail10["count"] > 4 and len(detail10["violations"]) == 4
        assert len(set(detail10["violations"])) == 4

    def test_constant_one_map_fails_l3(self, worked):
        # every principal cut maps to one, the cut of no quotient condition
        # below the top
        _, ctx = worked
        B = ctx.levels[2].algebra
        constant = _with_pi_prime(
            ctx, 2, {x: B.one for x in ctx.source_algebras[2].elements})
        l3 = [c for c in verify_projection_lemmas(constant).checks
              if c.check == "L3-principal-onto"]
        assert [c.status for c in l3] == ["fail"]
        assert len(l3[0].detail["missing"]) == ctx.levels[2].stage.poset.n - 1

    @staticmethod
    def l11(ctx, table, siblings):
        """L11 on a possibly corrupted table, checked against the oracle."""
        got = _lemma11(ctx, 2, table, lemma_oracle.prefix_groups(table),
                       siblings)
        assert got == lemma_oracle.lemma11(ctx, 2, table, siblings)
        return got

    @staticmethod
    def l13(ctx, table):
        got = _lemma13(ctx.iteration.stages[ctx.alpha].poset, table,
                       lemma_oracle.prefix_groups(table))
        assert got == lemma_oracle.lemma13(ctx, table)
        return got

    @staticmethod
    def l14(ctx, table, siblings):
        stages = ctx.iteration.stages
        got = _lemma14(stages[ctx.alpha], stages[2], table,
                       lemma_oracle.prefix_groups(table), siblings)
        assert got == lemma_oracle.lemma14(ctx, 2, table, siblings)
        return got

    def test_the_real_table_passes_l11_l13_and_l14(self, worked):
        # the helpers regroup the table, here into the pass's own groups
        _, ctx = worked
        table, siblings = self.inputs(ctx, 2)
        assert frown_level(ctx, 2)[1] == lemma_oracle.prefix_groups(table)
        assert self.l11(ctx, table, siblings)[0]
        assert self.l13(ctx, table)[0]
        assert self.l14(ctx, table, siblings)[0]

    def test_an_emptied_row_fails_l11(self, worked):
        # the top condition's prefix lies in G and it is forced equal to
        # itself, so some s must glue it to itself
        it, ctx = worked
        table, siblings = self.inputs(ctx, 2)
        top = it.stages[2].poset.top
        table[top] = (table[top][0], {})
        ok, detail = self.l11(ctx, table, siblings)
        assert not ok and detail["pair"] == ("<>", "<>")

    def test_corrupted_rows_fail_l12_through_the_adjoint(self, worked):
        # pi_prime is a homomorphism, so L12 takes one test per direction
        # and condition; with no s-frown of the top condition left, no s
        # restores forcing below its b*
        it, ctx = worked
        assert ctx.levels[2].hom.ok
        table, _ = self.inputs(ctx, 2)
        assert _lemma12(ctx, 2, table, True) == (
            True, {"checks": sum(q is not None for q in ctx.levels[2].pi)})
        top = it.stages[2].poset.top
        row = table[top][1]
        for corrupted in ({}, dict.fromkeys(row, top)):
            # the second row sends every s to the top, whose principal
            # element is one: it lies below no b* short of one, and here
            # b* misses the atoms outside G
            table[top] = (table[top][0], corrupted)
            ok, detail = _lemma12(ctx, 2, table, True)
            assert not ok and detail == {"direction": "backward",
                                         "condition": "<>"}
            assert not _lemma12_by_elements(ctx, 2, table)[0]

    def test_a_raised_projection_fails_l12_forward(self, worked):
        # sending a condition below the top to the quotient top keeps
        # pi_prime a homomorphism, but its principal element no longer
        # forces what its image forces
        it, ctx = worked
        level = ctx.levels[2]
        ci = next(c for c, q in enumerate(level.pi)
                  if q is not None and q != level.stage.poset.top)
        pi = list(level.pi)
        pi[ci] = level.stage.poset.top
        copy = replace(level, pi=pi)
        copy.pi_prime = level.pi_prime
        raised = replace(ctx, levels={**ctx.levels, 2: copy})
        table, _ = self.inputs(ctx, 2)
        ok, detail = _lemma12(raised, 2, table, True)
        assert not ok and detail == {"direction": "forward",
                                     "condition": it.stages[2].poset.labels[ci]}
        assert not _lemma12_by_elements(raised, 2, table)[0]

    def test_a_missing_top_entry_fails_l13(self, worked):
        # U_{top,top} loses the top of P_alpha, which no regular cut does
        it, ctx = worked
        table, _ = self.inputs(ctx, 2)
        top, atop = it.stages[2].poset.top, it.stages[1].poset.top
        table[top] = (table[top][0], {**table[top][1], atop: None})
        ok, detail = self.l13(ctx, table)
        assert not ok and detail["pair"] == (top, top)

    def test_a_dropped_atom_entry_under_a_kept_class_fails_l13(self, worked):
        # condition 3 loses its s-frown at the atom 1 of P_alpha while its
        # class at the top 0 stays: U_{3,3} = {0, 2} is not downward closed
        it, ctx = worked
        table, _ = self.inputs(ctx, 2)
        aposet = it.stages[1].poset
        assert aposet.atoms == (1, 2) and table[3][0] == aposet.top == 0
        table[3] = (0, {**table[3][1], 1: None})
        ok, detail = self.l13(ctx, table)
        assert not ok and detail == {"pair": (3, 3), "cut": "0x5"}
        assert not aposet.is_downward_closed(0x5)

    def test_an_off_diagonal_failure_reports_the_lowest_p2(self, worked):
        # conditions 3 and 7 claim the top condition 0 as their 0-frown, so
        # U_{0,3} and U_{0,7} are {0}, above atoms they miss; U_{0,0} stays
        # regular, and of the two failing p2 the lower, 3, is reported
        it, ctx = worked
        table, _ = self.inputs(ctx, 2)
        for ci in (3, 7):
            assert table[ci][0] == 0
            table[ci] = (0, {**table[ci][1], 0: 0})
        ok, detail = self.l13(ctx, table)
        assert not ok and detail == {"pair": (0, 3), "cut": "0x1"}

    @staticmethod
    def collapsed(siblings):
        """Siblings projecting every condition to one class, so that every
        premise of L11 and L14 holds."""
        # the originals' rows are built first: the copies must derive their own
        assert all(lvl.rows for lvl in siblings)
        return [replace(lvl, pi=[0] * len(lvl.pi))
                for lvl in siblings]

    def test_siblings_collapsing_every_class_fail_l11(self, worked):
        # distinct conditions with no common s-frown now count as forced
        # equal; on real siblings no two distinct conditions are
        _, ctx = worked
        table, siblings = self.inputs(ctx, 2)
        ok, detail = self.l11(ctx, table, self.collapsed(siblings))
        assert not ok and detail["pair"] == ("<>", "<1;{0:0,1:0}>")

    def test_siblings_collapsing_every_class_fail_l14(self, worked):
        # every premise holds, so incomparable conditions break the order
        _, ctx = worked
        table, siblings = self.inputs(ctx, 2)
        ok, detail = self.l14(ctx, table, self.collapsed(siblings))
        assert not ok and "r" in detail

    def test_the_lemma_suite_never_canonicalizes(self, monkeypatch):
        # the s-frown table is read off the parent rows; every forcinglab
        # binding of canonicalize_condition raises
        original = iteration_module.canonicalize_condition

        def refused(*args):
            raise AssertionError("canonicalize_condition called")

        for name, module in sorted(sys.modules.items()):
            if name.split(".")[0] == "forcinglab" and \
                    vars(module).get("canonicalize_condition") is original:
                monkeypatch.setattr(module, "canonicalize_condition", refused)
        it = build_iteration(TableProvider([
            {(): A2}, {(0,): A2}, {(0, 0): A2, (0, 1): PT, (1, None): A2}]))
        for alpha in (1, 2):
            for gi in range(len(it.stages[alpha].generics)):
                ctx = make_context(it, alpha, gi)
                assert verify_projection_lemmas(ctx, instance="never").ok


class TestLemmaOracle:
    """L5, L10 and L11-L14 read per-level relations and the s-frown table
    comes from parent rows; the oracles that canonicalize and compare pair
    by pair must give the same table, the same statuses everywhere and,
    except L12's redefined ``checks`` count, the same details."""

    LEMMAS = ("L5-disjointness", "L10-monotone",
              "L11-merge-below", "L12-forcing-transport",
              "L13-equal-tails-regular", "L14-order-reflection")

    @staticmethod
    def levels(sweep):
        """(context, beta) for every quotient level of every context."""
        for _, it in sweep:
            for alpha in range(1, len(it)):
                for gi in range(len(it.stages[alpha].generics)):
                    ctx = make_context(it, alpha, gi)
                    for beta in range(alpha + 1, len(it) + 1):
                        yield ctx, beta

    @staticmethod
    def frown_levels(sweep):
        """(context, beta, table, groups) for every quotient level, the
        table and groups from one pass per context, as the suite runs it."""
        for ctx, beta in TestLemmaOracle.levels(sweep):
            if beta == ctx.alpha + 1:
                frowns = _frown_levels(ctx.iteration.stages[ctx.alpha:])
            yield (ctx, beta, *next(frowns))

    @staticmethod
    def oracle(ctx, beta, table) -> list:
        it = ctx.iteration
        assert table == lemma_oracle.frown_table(ctx, beta)
        siblings = [make_context(it, ctx.alpha, g).levels[beta]
                    for g in range(len(it.stages[ctx.alpha].generics))]
        src, level = it.stages[beta], ctx.levels[beta]
        return [lemma_oracle.lemma5(src, level),
                lemma_oracle.lemma10(src, level),
                lemma_oracle.lemma11(ctx, beta, table, siblings),
                _lemma12_by_elements(ctx, beta, table),
                lemma_oracle.lemma13(ctx, table),
                lemma_oracle.lemma14(ctx, beta, table, siblings)]

    # hand-built iterations, the last one partial: its provider names a
    # third stage that the condition cap refuses
    HAND_BUILT = {
        "two-step-antichains": [{(): A2}, {(0,): A2, (1,): A2}],
        "trivial-tails": [{(): A2}, {(0,): PT, (1,): PT}],
        "generic-dependent": [{(): A2}, {(0,): A3, (1,): PT}],
        "three-stages": [{(): A2}, {(0,): A2},
                         {(0, 0): A2, (0, 1): PT, (1, None): A2}],
        "partial": [{(): A2}, {(0,): A2, (1,): A2},
                    {p: A2 for p in [(0, 0), (0, 1), (1, 0), (1, 1)]}],
    }

    @pytest.mark.parametrize("name", HAND_BUILT)
    def test_frown_table_is_the_canonicalizing_oracle(self, name):
        it = build_iteration(TableProvider(self.HAND_BUILT[name]),
                             allow_partial=True)
        assert it.partial == (name == "partial")
        compared = 0
        for ctx, beta, table, groups in self.frown_levels([(None, it)]):
            assert table == lemma_oracle.frown_table(ctx, beta), (name, beta)
            assert groups == lemma_oracle.prefix_groups(table), (name, beta)
            # the previous level's rows, extended by stage beta's
            if beta > ctx.alpha + 1:
                assert table[:len(previous)] == previous, (name, beta)
            assert len(table) == it.stages[beta].poset.n
            previous = list(table)
            assert [list(row) for _, row in table] == \
                [sorted(row) for _, row in table]
            compared += 1
        assert compared > 0

    def test_l11s_premise_is_the_diagonal_on_every_level(self, default_sweep):
        # for every p whose prefix r is in G, the AND of the siblings'
        # equal rows through r, within r's group, is {p}: two distinct
        # conditions with prefix r first differ at a tail over one prefix
        # s, at a generic h through s, and the sibling of h's restriction
        # to P_alpha projects them apart (the argument in _lemma11)
        checked = 0
        for ctx, beta, table, groups in self.frown_levels(default_sweep):
            it = ctx.iteration
            astage = it.stages[ctx.alpha]
            siblings = [make_context(it, ctx.alpha, g).levels[beta]
                        for g in range(len(astage.generics))]
            forced_equal = _forced(astage, [lvl.rows[0] for lvl in siblings],
                                   len(table))
            for p, (r, _) in enumerate(table):
                if ctx.G.mask >> r & 1:
                    premise = forced_equal(r, p) & groups[r][0]
                    assert premise == 1 << p, (it.provider.tables, ctx.alpha,
                                               ctx.gen_index, beta, p)
                    checked += 1
        assert checked == 4910

    def test_every_level_of_the_acceptance_sweep(self, default_sweep):
        compared = 0
        for ctx, beta, table, groups in self.frown_levels(default_sweep):
            rep = SuiteReport()
            # the pass's table and groups at level beta, as the suite hands
            # them to the level
            assert groups == lemma_oracle.prefix_groups(table)
            projection._lemmas_at_level(ctx, beta, table, groups, rep, "oracle")
            got = [(c.check, c.status == "pass", c.detail)
                   for c in rep.checks if c.check in self.LEMMAS]
            want = [(check, ok, detail) for check, (ok, detail)
                    in zip(self.LEMMAS, self.oracle(ctx, beta, table))]
            where = (ctx.iteration.provider.tables, ctx.alpha, ctx.gen_index, beta)
            assert [g[:2] for g in got] == [w[:2] for w in want], where
            assert [g for g in got if g[0] != "L12-forcing-transport"] == \
                [w for w in want if w[0] != "L12-forcing-transport"], where
            compared += 1
        assert compared > 500


class TestHomCertificateOracle:
    """The certificate's splits, each element at its lowest atom and at its
    lowest missing atom, against the pair sweep: equal flags and family
    counts, and every product or sum witness a real violation."""

    def test_every_level_and_every_small_perturbation(self, default_sweep):
        # each single-entry change of pi_prime on the levels whose source
        # algebra has at most 16 elements
        levels = perturbed = 0
        verdicts = set()
        for ctx, beta in TestLemmaOracle.levels(default_sweep):
            A, level = ctx.source_algebras[beta], ctx.levels[beta]
            B, h = level.algebra, level.pi_prime
            maps = [h]
            if len(A) <= 16:
                maps += [{**h, x: v} for x in A.elements for v in B.elements
                         if v != h[x]]
            for m in maps:
                cert = certify_complete_hom(m, A, B)
                pairs = algebra_oracle.certify_by_pairs(m, A, B)
                where = (ctx.iteration.provider.tables, ctx.alpha,
                         ctx.gen_index, beta, m)
                assert algebra_oracle.flags(cert) == \
                    algebra_oracle.flags(pairs), where
                assert cert.families_checked == pairs.families_checked
                assert algebra_oracle.fake_binary_witnesses(cert, m) == [], where
                verdicts.add(algebra_oracle.flags(cert))
                perturbed += m is not h
            levels += 1
        assert levels == 608 and perturbed > 1000
        # the real maps pass and the perturbations fail each flag
        assert (True,) * 4 in verdicts
        for i in range(4):
            assert any(not v[i] for v in verdicts)


class TestAtomCriterion:
    """pi's atom images decide Theorem 2 items 1 and 2
    (``QuotientLevel._atom_images``); the element certificate, pi_prime's
    values and the criterion's three conditions read off their definitions
    are the oracles."""

    def test_every_level_and_seeded_pi_perturbations(self, default_sweep):
        # each level as built, and six copies with one pi entry moved to
        # another quotient condition or to undefined
        rng = random.Random(1)
        tally = collections.Counter()
        for ctx, beta in TestLemmaOracle.levels(default_sweep):
            level = ctx.levels[beta]
            assert level.source.original is level.algebra.original is None
            choices = [None, *range(level.stage.poset.n)]
            copies = [level]
            for _ in range(6):
                pi = list(level.pi)
                p = rng.randrange(len(pi))
                pi[p] = rng.choice([v for v in choices if v != pi[p]])
                copies.append(replace(level, pi=pi))
            for m in copies:
                A, B = m.source, m.algebra
                cert = certify_complete_hom(m.pi_prime, A, B)
                onto = set(B.nonzero) <= set(m.pi_prime.values())
                decided = m._atom_images is not None
                where = (ctx.iteration.provider.tables, ctx.alpha,
                         ctx.gen_index, beta, m.pi)
                assert decided == cert.ok == all(
                    algebra_oracle.atom_conditions(m)), where
                assert (m.hom.ok, m.hom.families_checked) == \
                    (cert.ok, cert.families_checked), where
                assert (m.onto["counterexample"] is None) == onto, where
                if decided:
                    assert onto == all(not b & (b - 1)
                                       for b in m._atom_images), where
                tally[m is level, cert.ok, onto] += 1
        assert tally[True, True, True] == 608
        assert sum(tally.values()) == 7 * 608
        # one-entry changes reach every verdict but a homomorphism that is
        # not onto, which test_an_atom_image_of_two_bits_fails_onto builds
        assert min(tally[False, ok, onto] for ok, onto in
                   ((True, True), (False, True), (False, False))) > 500

    @staticmethod
    def statuses(ctx, pi):
        """The criterion's three conditions and the item 1-2 and L6-L8
        statuses of the worked level 2 with pi replaced."""
        copy = replace(ctx.levels[2], pi=pi)
        bad = replace(ctx, levels={**ctx.levels, 2: copy})
        checks = verify_theorem2(bad, instance="control").checks + \
            verify_projection_lemmas(bad, instance="control").checks
        return algebra_oracle.atom_conditions(copy), {
            c.check: c.status for c in checks if c.check in (
                "item1-complete-hom", "item2-onto", "L6-complement",
                "L7-products", "L8-onto")}

    NOT_HOM = {"item1-complete-hom": "fail", "item2-onto": "pass",
               "L6-complement": "fail", "L7-products": "fail",
               "L8-onto": "pass"}

    def test_an_image_off_its_atoms_images_fails_condition_1(self, worked):
        # <1;{0:0,1:0}> lies above the atoms <{0:0};{0:0}>, whose image is
        # quotient atom 1, and <{0:1};{1:0}>, off G; sent to quotient atom
        # 2 it leaves the join of their images
        it, ctx = worked
        pi = list(ctx.levels[2].pi)
        pi[it.stages[2].poset.labels.index("<1;{0:0,1:0}>")] = 2
        assert self.statuses(ctx, pi) == ((False, True, True), self.NOT_HOM)

    def test_two_atoms_on_one_quotient_atom_fail_condition_2(self, worked):
        # <{0:1};{1:0}>, off G, joins <{0:0};{0:0}> on quotient atom 1
        it, ctx = worked
        pi = list(ctx.levels[2].pi)
        pi[it.stages[2].poset.labels.index("<{0:1};{1:0}>")] = 1
        assert self.statuses(ctx, pi) == ((True, False, True), self.NOT_HOM)

    def test_an_uncovered_quotient_atom_fails_condition_3(self, worked):
        # only the conditions above <{0:0};{0:0}> are defined, all on
        # quotient atom 1: the atom images are disjoint and every image
        # lies in them, but quotient atom 2 is missed, so pi_prime(one)
        # is not one, and item 2 fails with it
        it, ctx = worked
        poset = it.stages[2].poset
        a = poset.labels.index("<{0:0};{0:0}>")
        pi = [1 if v is not None and poset.above[a] >> p & 1 else None
              for p, v in enumerate(ctx.levels[2].pi)]
        assert self.statuses(ctx, pi) == ((True, True, False), {
            "item1-complete-hom": "fail", "item2-onto": "fail",
            "L6-complement": "fail", "L7-products": "fail",
            "L8-onto": "fail"})

    def test_an_atom_image_of_two_bits_fails_onto(self, worked):
        # the conditions above <{0:0};{0:0}> go to the quotient top, the
        # rest are undefined: pi_prime is the homomorphism onto {0, one}
        # that asks whether that atom is in x, so it misses quotient atom 1
        it, ctx = worked
        poset = it.stages[2].poset
        a = poset.labels.index("<{0:0};{0:0}>")
        top = ctx.levels[2].stage.poset.top
        pi = [top if v is not None and poset.above[a] >> p & 1 else None
              for p, v in enumerate(ctx.levels[2].pi)]
        assert self.statuses(ctx, pi) == ((True, True, True), {
            "item1-complete-hom": "pass", "item2-onto": "fail",
            "L6-complement": "pass", "L7-products": "pass",
            "L8-onto": "fail"})
        copy = replace(ctx.levels[2], pi=pi)
        assert copy._atom_images == [copy.algebra.one, 0, 0, 0]
        assert copy.onto["counterexample"] == "{({},0x2)}"

    def test_the_onto_witness_is_the_first_unattained_element(
            self, default_sweep):
        # every level as built, and the homomorphisms onto {0, one} planted
        # on it: the atom images decide each, and onto names the element
        # that the listing of pi_prime's values finds first
        tally = collections.Counter()
        for ctx, beta in TestLemmaOracle.levels(default_sweep):
            level = ctx.levels[beta]
            for m in [level, *algebra_oracle.planted_homs(level)]:
                B = m.algebra
                c = algebra_oracle.first_unattained(m)
                assert m._atom_images is not None
                assert m.onto == {
                    "quotient_elements": len(B), "counterexample": None
                    if c is None else name_text(Name([(Name([], B), c)], B), B)}
                tally[m is level, c is None] += 1
        assert tally == {(True, True): 608, (False, True): 990,
                         (False, False): 1110}


def _with_pi_prime(ctx, beta, pi_prime):
    """A fresh context whose level beta maps elements by pi_prime.  The
    original level's record is filled first, so the copy must derive its
    own."""
    level = ctx.levels[beta]
    assert level.rows and level.hom and level.onto and level.transport
    copy = replace(level)
    copy.pi_prime = pi_prime
    return replace(ctx, levels={**ctx.levels, beta: copy})


class TestSharedFacts:
    """Theorem 2 and the lemma suite cite one facts record per level."""

    @staticmethod
    def hom_statuses(ctx):
        # a failed certificate's pair witnesses are real violations, and
        # its first violation gives a transport pair of rank at most 2
        A, hom = ctx.source_algebras[2], ctx.levels[2].hom
        assert algebra_oracle.fake_binary_witnesses(
            hom, ctx.levels[2].pi_prime) == []
        if not hom.ok:
            _, x, y = _transport_witness(hom, A)
            assert x.rank <= 2 and y.rank <= 2
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

    def test_complement_swap_fails_item1_and_l7_at_a_pair(self, worked):
        # swapping the images of x and -x keeps zero, one and complement,
        # so the first violation is a binary meet
        _, ctx = worked
        A, level = ctx.source_algebras[2], ctx.levels[2]
        B, h = level.algebra, level.pi_prime
        x = next(x for x in A.elements if h[x] not in (B.zero, B.one))
        swapped = {**h, x: h[A.complement(x)], A.complement(x): h[x]}
        bad = _with_pi_prime(ctx, 2, swapped)
        assert self.hom_statuses(bad) == {
            "item1-complete-hom": "fail", "L6-complement": "pass",
            "L7-products": "fail"}
        kind, family, _, _ = bad.levels[2].hom.counterexamples[0]
        assert kind == "product" and len(family) == 2

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


class TestLevelRecord:
    """Each quotient level holds one record of pi, built once."""

    def test_rows_are_their_pairwise_definitions(self, default_sweep):
        for ctx, beta in TestLemmaOracle.levels(default_sweep):
            level = ctx.levels[beta]
            pi, leq = level.pi, level.stage.poset.leq
            compat = level.stage.poset.compat
            n = len(pi)

            def row(holds):
                return [sum(1 << q for q in range(n) if holds(pi[p], pi[q]))
                        for p in range(n)]

            assert level.rows == (
                row(lambda u, v: u == v),
                row(lambda u, v: None not in (u, v) and leq(u, v)),
                row(lambda u, v: None not in (u, v) and compat[u] >> v & 1))
            assert level.preimages == {
                v: sum(1 << p for p in range(n) if pi[p] == v) for v in set(pi)}

    @staticmethod
    def derivations(monkeypatch, name: str) -> list:
        """The levels that derive QuotientLevel's lazy attribute ``name``
        from now on, one entry per derivation."""
        derived = []
        derive = getattr(projection.QuotientLevel, name).func

        def counted(level):
            derived.append(level)
            return derive(level)

        prop = lazy(counted)
        prop.__set_name__(projection.QuotientLevel, name)
        monkeypatch.setattr(projection.QuotientLevel, name, prop)
        return derived

    def test_one_run_builds_image_rows_once_per_quotient_level(
            self, monkeypatch):
        # one execute of the acceptance sweep: L5 and L10 read a level's
        # rows, and L11 and L14 read every sibling level's
        built = self.derivations(monkeypatch, "rows")
        execute(ExperimentConfig(suite="all", max_poset=3, max_stages=3, seed=1))
        assert len(built) == len({id(level) for level in built}) == 608

    def test_the_read_map_is_the_full_column_table(self, default_sweep):
        # on every quotient level of the sweep, the map read per element
        # lists every source element when iterated and equals the eager
        # column table
        levels = 0
        for ctx, beta in TestLemmaOracle.levels(default_sweep):
            level = ctx.levels[beta]
            A, table = level.source, algebra_oracle.column_table(level)
            assert sorted(level.pi_prime) == sorted(A.elements)
            assert len(level.pi_prime) == len(A) == 1 << len(A.base.atoms)
            assert dict(level.pi_prime) == table
            assert level.pi_prime == table
            levels += 1
        assert levels == 608

    def test_one_run_derives_each_read_map_once(self, monkeypatch):
        # one execute of the acceptance sweep: the map of each of the 608
        # quotient levels of the sweep, read per element; Theorem 16
        # decides on atom images and reads no root map and no map of the
        # cifs factorization, and no map is listed in full
        derived = self.derivations(monkeypatch, "pi_prime")
        listed = []
        listing = projection._ColumnMap.__iter__
        monkeypatch.setattr(projection._ColumnMap, "__iter__",
                            lambda m: listed.append(m) or listing(m))
        execute(ExperimentConfig(suite="all", max_poset=3, max_stages=3, seed=1))
        roots = [level for level in derived if level.stage is root_stage()]
        assert len(derived) == len({id(level) for level in derived}) == 608
        assert roots == [] and listed == []

    def test_the_root_map_is_the_image_of_G(self, default_sweep):
        # the column formula at the root: an element goes to the root
        # poset's one atom, the quotient's one, exactly when it meets G
        one = root_stage().poset.atom_mask
        assert one == 1
        contexts = 0
        for _, it in default_sweep:
            it = replace(it)
            for alpha in range(1, len(it) + 1):
                for gi in range(len(it.stages[alpha].generics)):
                    ctx = make_context(it, alpha, gi)
                    root = ctx.levels[alpha]
                    assert "algebra" not in vars(root)
                    assert root.pi_prime == {
                        x: one if x & ctx.G.mask else 0
                        for x in root.source.elements}
                    contexts += 1
        assert contexts == 776

    def test_a_run_builds_no_algebra_over_the_root_poset(self, monkeypatch):
        # one execute of the acceptance sweep: the root level holds no
        # quotient algebra, which no check reads
        bases = []
        init = projection.BoolAlgebra.__init__

        def counted(self, base, *args, **kwargs):
            bases.append(base)
            init(self, base, *args, **kwargs)

        monkeypatch.setattr(projection.BoolAlgebra, "__init__", counted)
        execute(ExperimentConfig(suite="all", max_poset=3, max_stages=3, seed=1))
        root = root_stage().poset
        assert len(bases) > 0
        assert [b for b in bases if b is root] == []

    def test_theorem16_at_the_final_stage_reads_the_root_level(
            self, default_sweep):
        # at alpha = N the root level is the context's final level: its
        # source is P_N's algebra, and Theorem 16 reads its preimages from
        # the root's pi, G to the root condition
        contexts = 0
        for _, it in default_sweep:
            N = len(it)
            for gi in range(len(it.stages[N].generics)):
                ctx = make_context(it, N, gi)
                level = ctx.final_level
                assert ctx.levels == {N: level}
                assert level.stage is root_stage()
                assert level.source.base is it.stages[N].poset
                assert level.preimages.get(0) == ctx.G.mask
                _, _, rep = factor_generic(it, N, gi)
                item3 = rep.checks[-1]
                assert item3.check == "item3-evaluation-identity"
                assert item3.detail["nonzero_elements"] == \
                    (1 << len(it.stages[N].poset.atoms)) - 1
                contexts += 1
        assert contexts == 342

    def test_no_context_suite_derives_a_root_map(self, default_sweep):
        # Theorem 2, the lemma suite and Corollary 15 read levels beta >
        # alpha only; below the final stage nothing reads the root's map
        contexts = 0
        for _, it in default_sweep:
            it = replace(it)
            for alpha in range(1, len(it)):
                for gi in range(len(it.stages[alpha].generics)):
                    ctx = make_context(it, alpha, gi)
                    assert verify_theorem2(ctx).ok
                    assert verify_projection_lemmas(ctx).ok
                    assert verify_corollary15(ctx).ok
                    assert "pi_prime" not in vars(ctx.levels[alpha])
                    contexts += 1
        assert contexts == 434

    @staticmethod
    def certificates(monkeypatch) -> list:
        """(caller, map) for every element certificate of a level from now
        on."""
        certified = []

        def counted(pi_prime, A, B):
            certified.append((sys._getframe(1).f_code.co_name, pi_prime))
            return certify(pi_prime, A, B)

        certify = projection.certify_complete_hom
        monkeypatch.setattr(projection, "certify_complete_hom", counted)
        return certified

    def test_one_run_certifies_each_quotient_level_once(self, monkeypatch):
        # one execute of the acceptance sweep: Theorem 2 and L6-L9 read a
        # level's homomorphism fact, decided on the first read of
        # QuotientLevel.hom from pi's atom images; every level passes, so
        # none runs the element certificate
        decided = self.derivations(monkeypatch, "hom")
        certified = self.certificates(monkeypatch)
        execute(ExperimentConfig(suite="all", max_poset=3, max_stages=3, seed=1))
        assert len(decided) == len({id(level) for level in decided}) == 608
        assert certified == []

    def test_a_planted_map_is_certified_on_elements_once(self, worked,
                                                         monkeypatch):
        # the copy's map is the formula's table, but planted: Theorem 2 and
        # the lemma suite read its element certificate, made once
        _, ctx = worked
        planted = _with_pi_prime(ctx, 2, dict(ctx.levels[2].pi_prime))
        certified = self.certificates(monkeypatch)
        assert verify_theorem2(planted).ok
        assert verify_projection_lemmas(planted).ok
        assert certified == [("hom", planted.levels[2].pi_prime)]
        assert certified[0][1] is planted.levels[2].pi_prime


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
        for x in (EMPTY, HFSet([EMPTY]), HFSet([HFSet([EMPTY])])):
            nm = check_name(x, A)
            for gi, gen in enumerate(it.stages[2].generics):
                G, hmask, rep = factor_generic(it, 1, gi)
                ctx2 = make_context(it, 1, it.stages[1].generics.index(G))
                img = ctx2.pi_second(2, nm)
                assert evaluate(nm, gen.mask) == x
                assert evaluate(img, hmask) == x

    def test_wrong_element_image_fails_item3_at_its_rank1_witness(self):
        it = _two_step_antichains()
        G, hmask, rep = factor_generic(it, 1, 0)
        assert self.statuses(rep)["item3-evaluation-identity"] == "pass"
        ctx = make_context(it, 1, it.stages[1].generics.index(G))
        A, level = ctx.source_algebras[2], ctx.final_level
        poset, gmask = A.base, it.stages[2].generics[0].mask
        # pi planted on a copy: the lowest non-atom condition p outside
        # G_full takes the top's image.  Every atom still agrees with G, so
        # the witness is A(p), the atoms below p
        p = next(p for p in range(poset.n) if not gmask >> p & 1
                 and level.pi[p] is not None and p not in poset.atoms)
        pi = list(level.pi)
        pi[p] = level.pi[poset.top]
        planted = replace(level, pi=pi)
        ctx.levels[2] = planted
        _, hmask2, rep = factor_generic(it, 1, 0)
        assert hmask2 == hmask
        assert self.statuses(rep) == {
            "item1-prefix-generic": "pass", "item2-quotient-generic": "pass",
            "item3-evaluation-identity": "fail"}
        b = poset.atoms_below(p)
        assert b & (b - 1)
        witness = Name([(Name([], A), b)], A)
        assert [c.detail["counterexample"] for c in rep.checks
                if c.check == "item3-evaluation-identity"] == \
            [name_text(witness, A)]
        # the witness is a real one: the identity fails on it
        assert b in algebra_oracle.identity_failures(
            algebra_oracle.column_table(planted), A, gmask, hmask)
        assert evaluate(witness, gmask) != \
            evaluate(ctx.pi_second(2, witness), hmask)

    @staticmethod
    def statuses(rep):
        return {c.check: c.status for c in rep.checks}

    def test_missing_prefix_generic_fails_item1(self):
        it = _two_step_antichains()
        G, _, rep = factor_generic(it, 1, 0)
        assert self.statuses(rep)["item1-prefix-generic"] == "pass"
        stages = list(it.stages)
        stages[1] = replace(
            stages[1], generics=[g for g in stages[1].generics if g is not G])
        copy = replace(it, stages=stages)
        G2, hmask, rep = factor_generic(copy, 1, 0)
        assert (G2, hmask) == (None, -1)
        assert self.statuses(rep) == {"item1-prefix-generic": "fail"}

    def test_non_filter_projection_fails_item2(self):
        it = _two_step_antichains()
        G, _, rep = factor_generic(it, 1, 0)
        assert self.statuses(rep)["item2-quotient-generic"] == "pass"
        ctx = make_context(it, 1, it.stages[1].generics.index(G))
        level = ctx.final_level
        # every projected condition lands on one atom, so the projected set
        # misses the quotient top and is no filter
        atom = level.stage.poset.atoms[0]
        ctx.levels[len(it)] = replace(
            level, pi=[None if c is None else atom for c in level.pi])
        _, hmask, rep = factor_generic(it, 1, 0)
        assert hmask == 1 << atom
        assert self.statuses(rep)["item2-quotient-generic"] == "fail"
        assert [c.detail["filter"] for c in rep.checks
                if c.check == "item2-quotient-generic"] == [False]

    def test_projection_missing_every_atom_fails_item2(self):
        it = _two_step_antichains()
        G, _, rep = factor_generic(it, 1, 0)
        ctx = make_context(it, 1, it.stages[1].generics.index(G))
        level = ctx.final_level
        # every projected condition lands on the quotient top: {top} is a
        # filter, but it misses the dense atom set
        top = level.stage.poset.top
        ctx.levels[len(it)] = replace(
            level, pi=[None if c is None else top for c in level.pi])
        _, hmask, rep = factor_generic(it, 1, 0)
        assert hmask == 1 << top
        assert [c.detail for c in rep.checks
                if c.check == "item2-quotient-generic"] == [
            {"filter": True, "meets_all_dense": False}]
        assert self.statuses(rep)["item2-quotient-generic"] == "fail"

    def test_quotient_filter_meets_every_dense_subset(self, worked):
        it, _ = worked
        for gi in range(len(it.stages[2].generics)):
            G, hmask, rep = factor_generic(it, 1, gi)
            ctx = make_context(it, 1, it.stages[1].generics.index(G))
            qp = ctx.final_level.stage.poset
            assert all(hmask & d for d in dense_subsets(qp))

    def test_item3_on_atoms_agrees_with_the_element_walk(self, default_sweep):
        # every final level of the sweep, under every final-stage generic
        # and every quotient generic as G and H: the route on pi finds a
        # failing element exactly when some nonzero element fails, and its
        # witness is one of them
        ctxs = list(self.contexts(default_sweep))
        assert all(ctx.final_level._atom_images is not None for ctx in ctxs)
        assert self.identity_agreement(ctxs) == (4058, 3036, 0)

    def test_item3_on_a_wrong_pi_agrees_with_the_element_walk(
            self, default_sweep):
        # the same below the final stage, on a copy of each final level
        # whose pi has two entries of different images swapped (a level
        # whose pi has one image has no such pair)
        rng = random.Random(16)
        wrong = []
        for ctx in self.contexts(default_sweep):
            if ctx.alpha == len(ctx.iteration):
                continue
            level = ctx.final_level
            pi = list(level.pi)
            pairs = [(i, j) for i, j in itertools.combinations(range(len(pi)), 2)
                     if pi[i] != pi[j]]
            if not pairs:
                continue
            i, j = rng.choice(pairs)
            pi[i], pi[j] = pi[j], pi[i]
            wrong.append(replace(ctx, levels={**ctx.levels, len(ctx.iteration):
                                              replace(level, pi=pi)}))
        assert self.identity_agreement(wrong) == (2684, 2465, 210)

    @staticmethod
    def contexts(sweep):
        for _, it in sweep:
            for alpha in range(1, len(it) + 1):
                for gi in range(len(it.stages[alpha].generics)):
                    yield make_context(it, alpha, gi)

    @staticmethod
    def identity_agreement(ctxs) -> tuple[int, int, int]:
        """(checked, failing, by a set) (G_full, H) pairs of each
        context's final level, each failing one asserted to be witnessed by
        an element the element walk finds failing; the last counts the
        witnesses of more than one atom."""
        checked = failing = sets = 0
        for ctx in ctxs:
            level = ctx.final_level
            table = algebra_oracle.column_table(level)
            for G_full in ctx.iteration.final.generics:
                for H in level.stage.generics:
                    want = algebra_oracle.identity_failures(
                        table, level.source, G_full.mask, H.mask)
                    got = _evaluation_identity_witness(ctx, G_full.mask, H.mask)
                    assert (got is None) == (not want)
                    if got is not None:
                        assert got in want
                        failing += 1
                        sets += bool(got & (got - 1))
                    checked += 1
        return checked, failing, sets

    def test_one_disagreeing_atom_fails_item3_with_its_singleton(self):
        # pi planted on a copy of the final level: the top goes to the
        # quotient atom of a source atom a outside G_full.  The atom images
        # still decide the level, H gains a's image, and a is the one atom
        # that disagrees; every such (G_full, a) is tried
        it = _two_step_antichains()
        ctx = make_context(it, 1, 0)
        N, level = len(it), ctx.final_level
        A, top = level.source, it.stages[N].poset.top
        tried = set()
        for full, G_full in enumerate(it.stages[N].generics):
            if G_full.mask & it.stages[1].poset.full_mask != ctx.G.mask:
                continue
            for a in A.base.atoms:
                if level.pi[a] is None or G_full.mask >> a & 1:
                    continue
                pi = list(level.pi)
                pi[top] = pi[a]
                planted = replace(level, pi=pi)
                assert planted._atom_images == level._atom_images
                it.context_cache[1, 0, it.caps] = replace(
                    ctx, levels={**ctx.levels, N: planted})
                _, hmask, rep = factor_generic(it, 1, full)
                failures = algebra_oracle.identity_failures(
                    algebra_oracle.column_table(planted), A, G_full.mask, hmask)
                assert [b for b in failures if not b & (b - 1)] == [1 << a]
                assert [(c.status, c.detail) for c in rep.checks
                        if c.check == "item3-evaluation-identity"] == [
                    ("fail", {"nonzero_elements": len(A) - 1,
                              "counterexample": name_text(
                                  Name(((Name((), A), 1 << a),), A), A)})]
                tried.add(a)
        assert tried == {a for a in A.base.atoms if level.pi[a] is not None}


class TestCorollary15:
    @staticmethod
    def failed(ctx, beta, **changes):
        """The failing records of a copy of ctx whose level beta has the
        given fields replaced."""
        level = replace(ctx.levels[beta], **changes)
        bad = replace(ctx, levels={**ctx.levels, beta: level})
        return {c.check for c in verify_corollary15(bad).failures}

    def test_a_reordered_quotient_stage_passes_through_the_cone_check(self):
        # the pairwise oracle builds the quotient stage with its first two
        # new conditions swapped, and combine follows the generics' atoms:
        # the natural map is a bijection other than the identity, and the
        # rebuilt and the quotient posets differ in their rows, so the cone
        # check must carry each cone through the map
        tree = Poset([0b11111, 0b11010, 0b00100, 0b01000, 0b10000], 0)
        it = build_iteration(TableProvider([{(): A2},
                                            {(0,): tree, (1,): tree}]))
        ctx = make_context(it, 1, 0)
        level = ctx.levels[2]
        stage, prev = level.stage, ctx.levels[1].stage
        k = prev.poset.n
        conds = stage.conditions
        assert len(conds) - k == 4
        swapped = stage_from_conditions(prev, stage.steps, [
            *conds[:k], conds[k + 1], conds[k], *conds[k + 2:]])
        assert swapped.poset.below != stage.poset.below
        # the condition at each index of the swapped stage, in the shared one
        where = {cond: i for i, cond in enumerate(stage.conditions)}
        gen_of_atom = {g.atom: h for h, g in enumerate(stage.generics)}
        combine = [level.combine[gen_of_atom[where[
            swapped.conditions[g.atom]]]] for g in swapped.generics]
        planted = replace(level, stage=swapped, combine=combine)
        rep = verify_corollary15(
            replace(ctx, levels={**ctx.levels, 2: planted}))
        assert rep.ok and {c.check for c in rep.checks} == {
            "stage-1-generic-bridge", "stage-1-order-isomorphic",
            "stage-1-canonical-form"}
        assert verify_corollary15(ctx).ok

    def test_transposed_quotient_conditions_fail_order_isomorphism(self, worked):
        _, ctx = worked
        stage = ctx.levels[2].stage
        conds = list(stage.conditions)
        top, atom = stage.poset.top, stage.poset.atoms[0]
        conds[top], conds[atom] = conds[atom], conds[top]
        transposed = replace(stage, conditions=tuple(conds))
        assert self.failed(ctx, 2, stage=transposed) == {
            "stage-1-order-isomorphic"}
        assert verify_corollary15(ctx).ok

    def test_a_reordered_quotient_stage_fails_with_a_total_map(self, worked):
        # the quotient stage keeps its conditions and generics, so the
        # natural map is still a bijection, but one atom now lies below the
        # other: the map carries that atom's lower cone off its image's
        _, ctx = worked
        stage = ctx.levels[2].stage
        low, high = stage.poset.atoms
        below = list(stage.poset.below)
        below[high] |= 1 << low
        reordered = replace(stage, poset=Poset(below, stage.poset.top,
                                               list(stage.poset.labels)))
        level = replace(ctx.levels[2], stage=reordered)
        rep = verify_corollary15(replace(ctx, levels={**ctx.levels, 2: level}))
        assert [(r.check, r.status, r.detail) for r in rep.failures] == [
            ("stage-1-order-isomorphic", "fail",
             {"rebuilt": 3, "quotient": 3, "natural_map_total": True})]
        assert verify_corollary15(ctx).ok

    @pytest.mark.parametrize("tables", [
        [{(): A2}, {(0,): A2, (1,): A2}],
        [{(): A2}, {(0,): A2}, {(0, 0): A2, (0, 1): PT, (1, None): A2}]],
        ids=["two-stage", "three-stage"])
    def test_a_changed_tail_leaves_the_natural_map_partial(self, tables):
        # one new condition of the final quotient stage gets another valid
        # tail value: the rebuilt condition that mapped to it has no
        # counterpart left
        ctx = make_context(build_iteration(TableProvider(tables)), 1, 0)
        beta = len(ctx.iteration)
        stage = ctx.levels[beta].stage
        ci = stage.poset.n - 1
        conds = list(stage.conditions)
        (g, e), *rest = conds[ci][-1]
        q = stage.steps[g]
        other = next(v for v in range(q.n) if v not in (e, q.top))
        conds[ci] = conds[ci][:-1] + (((g, other), *rest),)
        changed = replace(stage, conditions=tuple(conds))
        level = replace(ctx.levels[beta], stage=changed)
        bad = replace(ctx, levels={**ctx.levels, beta: level})
        k = f"stage-{beta - 1}-order-isomorphic"

        def record(c):
            rep = verify_corollary15(c)
            return [(r.status, r.detail["natural_map_total"])
                    for r in rep.checks if r.check == k], \
                {r.check for r in rep.failures}

        assert record(bad) == ([("fail", False)], {k})
        assert record(ctx) == ([("pass", True)], set())

    def test_a_search_that_splits_isomorphs_fails_canonical_form(
            self, worked, monkeypatch):
        # the record cross-checks the canonical search against the verified
        # isomorphism: a key that tells isomorphic posets apart breaks it
        # the level's stage is the one the rebuild returns, so the level
        # gets a copy whose poset is another object with the same rows
        _, ctx = worked
        stage = ctx.levels[2].stage
        assert stage is ctx.iteration.stages[1]
        copy = replace(stage, poset=replace(stage.poset))
        level = replace(ctx.levels[2], stage=copy)
        planted = replace(ctx, levels={**ctx.levels, 2: level})
        key = Poset.canonical_key
        monkeypatch.setattr(Poset, "canonical_key",
                            lambda self: (key(self), id(self)))
        assert {c.check for c in verify_corollary15(planted).failures} == {
            "stage-1-canonical-form"}

    def test_permuted_combine_fails_the_next_stage(self):
        # the quotient generics of level alpha+1 are bridged to the wrong
        # source generics, so the rebuilt stage-1 generics miss their atoms
        # and the rebuilt stage-2 tails land elsewhere
        it = build_iteration(TableProvider([
            {(): A2}, {(0,): A2}, {(0, 0): A2, (0, 1): PT, (1, None): A2}]))
        ctx = make_context(it, 1, 0)
        combine = ctx.levels[2].combine
        assert len(combine) == 2
        assert self.failed(ctx, 2, combine=combine[::-1]) == {
            "stage-1-order-isomorphic", "stage-2-order-isomorphic"}
        assert verify_corollary15(ctx).ok

    def test_permuted_combine_at_the_final_level_fails(self):
        # no later stage is remapped through the last bridge, so only the
        # atom-for-atom check of the order isomorphism can see this
        it = build_iteration(TableProvider([
            {(): A2}, {(0,): A2}, {(0, 0): A2, (0, 1): PT, (1, None): A2}]))
        ctx = make_context(it, 1, 0)
        combine = ctx.levels[3].combine
        assert len(combine) > 1
        assert self.failed(ctx, 3, combine=combine[::-1]) == {
            "stage-2-order-isomorphic"}
        assert verify_corollary15(ctx).ok

    def test_dropped_quotient_generic_fails_its_bridge(self):
        # the rebuilt generic that should reach the dropped quotient generic
        # finds none, at the level it was dropped from
        it = build_iteration(TableProvider([
            {(): A2}, {(0,): A2}, {(0, 0): A2, (0, 1): PT, (1, None): A2}]))
        ctx = make_context(it, 1, 0)
        for beta in (2, 3):
            combine = ctx.levels[beta].combine
            assert self.failed(ctx, beta, combine=combine[:-1]) == {
                f"stage-{beta - 1}-generic-bridge"}
        assert verify_corollary15(ctx).ok

    def test_a_repeated_source_generic_fails_its_bridge(self):
        # two quotient generics combined from one source generic: that
        # source generic's rebuilt generic has two candidates.  With one
        # more entry every source generic is still reached, so only the
        # count of candidates fails the bridge
        it = build_iteration(TableProvider([
            {(): A2}, {(0,): A2}, {(0, 0): A2, (0, 1): PT, (1, None): A2}]))
        ctx = make_context(it, 1, 0)
        combine = ctx.levels[2].combine
        assert len(combine) == 2
        for repeated in ([combine[0]] * 2, combine + combine[:1]):
            assert self.failed(ctx, 2, combine=repeated) == {
                "stage-1-generic-bridge"}
        assert verify_corollary15(ctx).ok

    def test_a_stage_cap_below_the_rebuild_is_raised_for_it(self, monkeypatch):
        # the rebuild needs N - alpha stages; a context built under a lower
        # max_stages rebuilds under caps raised to that count, and a context
        # whose caps allow it rebuilds under its own caps object
        rebuilt = _record_rebuilds(monkeypatch)
        it = build_iteration(TableProvider([
            {(): A2}, {(0,): A2}, {(0, 0): A2, (0, 1): PT, (1, None): A2}]))
        low = DEFAULT_CAPS.with_(max_stages=1)
        for gi in range(len(it.stages[1].generics)):
            ctx = make_context(it, 1, gi)
            want = verify_corollary15(ctx, instance="caps")
            assert rebuilt[-1].caps is ctx.caps
            got = verify_corollary15(make_context(it, 1, gi, low),
                                     instance="caps")
            assert rebuilt[-1].caps == low.with_(max_stages=2)
            assert list(got.to_jsonl()) == list(want.to_jsonl())
            assert want.ok and want.counts()["pass"] >= 4

    @staticmethod
    def swapped_atoms(stage):
        conds = list(stage.conditions)
        conds[1], conds[2] = conds[2], conds[1]
        return replace(stage, conditions=tuple(conds))

    @pytest.mark.parametrize("plant, check", [
        (lambda right: extend_stage(root_stage(), [antichain_with_top(3)],
                                    DEFAULT_CAPS), "stage-1-generic-bridge"),
        (swapped_atoms, "stage-1-order-isomorphic")],
        ids=["other-steps", "swapped-atoms"])
    def test_a_wrong_child_in_a_parents_map_fails_the_rebuild(
            self, plant, check):
        # the rebuild asks the root for its child over the step poset q;
        # a child planted there under q's key is compared with the quotient
        # like any rebuilt stage
        q = antichain_with_top(2)
        it = build_iteration(TableProvider([{(): q}, {(0,): q, (1,): q}]))
        ctx = make_context(it, 1, 0)
        root = root_stage()
        key = (id(q),)
        right = root._children[key]
        assert right is it.stages[1]
        wrong = plant(right)    # held here, as the map holds it weakly
        root._children[key] = wrong
        try:
            failed = {c.check for c in verify_corollary15(ctx).failures}
        finally:
            root._children[key] = right
        assert failed == {check}
        assert verify_corollary15(ctx).ok

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

    def test_a_partial_instance_rebuilds_only_the_compared_stages(
            self, default_sweep, monkeypatch):
        # a partial instance's provider has one more stage, the capped one;
        # the rebuild stops at the last quotient level, N - alpha
        rebuilt = _record_rebuilds(monkeypatch)
        partial = [it for spec, it in default_sweep if spec.partial]
        assert len(partial) == 1
        for it in partial:
            N = len(it)
            assert it.provider.stage_count == N + 1
            for alpha in range(1, N + 1):
                for gi in range(len(it.stages[alpha].generics)):
                    rebuilt.clear()
                    assert verify_corollary15(make_context(it, alpha, gi)).ok
                    assert [len(r) for r in rebuilt] == [N - alpha]

    def test_three_stage_deep_quotients(self):
        it = build_iteration(TableProvider([
            {(): A2}, {(0,): A2}, {(0, 0): A2, (0, 1): PT, (1, None): A2}]))
        for alpha in (1, 2):
            for gi in range(len(it.stages[alpha].generics)):
                ctx = make_context(it, alpha, gi)
                rep = verify_corollary15(ctx, instance=f"deep-{alpha}-{gi}")
                assert rep.ok, (alpha, gi, rep.failures[:1])


class TestSweepOrderOracles:
    """The memoized canonical search and the stages' parent rows against
    their cache-free forms on every context of the acceptance sweep."""

    @staticmethod
    def contexts(sweep):
        """(iteration, context) for every context below the final stage."""
        for _, it in sweep:
            for alpha in range(1, len(it)):
                for gi in range(len(it.stages[alpha].generics)):
                    yield it, make_context(it, alpha, gi)

    def test_canonical_search_on_quotient_and_rebuilt_stages(
            self, default_sweep, monkeypatch):
        rebuilt = _record_rebuilds(monkeypatch)
        posets = []
        for it, ctx in self.contexts(default_sweep):
            assert verify_corollary15(ctx).ok
            posets += [ctx.levels[beta].stage.poset
                       for beta in range(ctx.alpha + 1, len(it) + 1)]
        posets += [stage.poset for r in rebuilt for stage in r.stages[1:]]
        oracle = {}
        for p in posets:
            if p.n > 8:
                continue
            if p.below not in oracle:
                oracle[p.below] = (canonical_key_by_search(p),
                                   set(automorphisms_by_search(p)))
            key, automorphisms = oracle[p.below]
            assert p.canonical_key() == key
            assert set(p.automorphisms()) == automorphisms
        assert (len(posets), len(oracle)) == (1216, 4)

    def test_memo_hits_equal_a_fresh_computation(self, default_sweep):
        # a second construction on a stage's or a quotient's rows is a memo
        # hit; its facts, and those of the original, are computed afresh
        # from the rows by the oracles
        posets = [stage.poset for _, it in default_sweep for stage in it.stages]
        for it, ctx in self.contexts(default_sweep):
            posets += [ctx.levels[beta].stage.poset
                       for beta in range(ctx.alpha + 1, len(it) + 1)]
        fresh = {}
        for p in posets:
            first = Poset(p.below, p.top)
            hit = Poset(p.below, p.top)
            assert hit._order is first._order
            if p.below not in fresh:
                fresh[p.below] = (
                    above_by_pairs(p), atoms_by_pairs(p), compat_by_pairs(p),
                    separativity_witness_by_pairs(p),
                    algebra_oracle.cut_table_by_elements(p))
            above, atoms, compat, witness, table = fresh[p.below]
            for q in (p, hit):
                assert (q.above, q.atoms, q.compat) == (above, atoms, compat)
                assert separativity_witness(q) == witness
                A = ro_algebra(q)
                assert ({x: A.cut(x) for x in A.elements},
                        A.elements) == table
        assert (len(posets), len(fresh)) == (1007, 41)

    @classmethod
    def stage_pairs(cls, sweep) -> list:
        """(previous stage, stage) for every generated stage of the sweep.
        Every quotient stage is one of them, with its previous level's
        stage as its parent: make_context gets each from extend_stage,
        which returns the child generation built (TestSharedQuotientStages
        checks that the oracle's stage of the placed pairs equals it)."""
        pairs = {}
        for _, it in sweep:
            for prev, stage in zip(it.stages, it.stages[1:]):
                pairs[id(stage)] = (prev, stage)
        assert len(pairs) == 114
        levels = 0
        for it, ctx in cls.contexts(sweep):
            for beta in range(ctx.alpha + 1, len(it) + 1):
                stage = ctx.levels[beta].stage
                prev, generated = pairs[id(stage)]
                assert generated is stage
                assert prev is ctx.levels[beta - 1].stage
                levels += 1
        assert levels == 608
        return list(pairs.values())

    def test_parent_rows_index_the_canonical_prefix(self, default_sweep):
        for prev, stage in self.stage_pairs(default_sweep):
            k = stage.index
            assert len(stage.parent) == len(stage.conditions)
            for ci, cond in enumerate(stage.conditions):
                assert stage.parent[ci] == prev.cond_index(trim(cond[:k - 1]))

    def test_extension_finds_each_condition_by_prefix_and_tail(
            self, default_sweep):
        # an old condition i is (i, 1), a new one (parent, last coordinate),
        # and a pair of a prefix and a tail of the stage that no condition
        # has is None, as the whole-condition index says
        for prev, stage in self.stage_pairs(default_sweep):
            k, old = stage.index, prev.poset.n
            for i in range(old):
                assert stage.extension(i, TAIL_ONE) == i
            tails = {c[k - 1] for c in stage.conditions[old:]}
            for ci in range(old, stage.poset.n):
                assert stage.extension(stage.parent[ci],
                                       stage.conditions[ci][k - 1]) == ci
            for p, cond in enumerate(prev.conditions):
                base = cond + (TAIL_ONE,) * (k - 1 - len(cond))
                for tail in tails:
                    assert stage.extension(p, tail) == \
                        stage._index.get(base + (tail,))


class TestSharedQuotientStages:
    """Each quotient stage of the s3 sweep is a stage generation built:
    ``make_context`` asks ``extend_stage`` for the previous level's child
    under the combined generics' step posets and places each (prefix,
    tail) pair in it.  The pairs are the child's new conditions in order,
    and a pi that misses one of them is refused."""

    @staticmethod
    def quotient_builds(sweep, monkeypatch) -> list:
        """(prev, steps, pairs, stage) for every quotient stage the
        contexts below each final stage ask extend_stage for, with the
        (prefix, tail) pairs placed in it in the order placed, each context
        built afresh on a copy of its iteration."""
        calls = []
        extension = Stage.extension

        def recorded(prev, steps, caps):
            calls.append((prev, steps, [], extend_stage(prev, steps, caps)))
            return calls[-1][-1]

        def placed(stage, prefix, tail):
            if calls and stage is calls[-1][-1]:
                calls[-1][2].append((prefix, tail))
            return extension(stage, prefix, tail)

        monkeypatch.setattr(projection, "extend_stage", recorded)
        monkeypatch.setattr(Stage, "extension", placed)
        for _, it in sweep:
            copy = replace(it, stages=list(it.stages))
            for alpha in range(1, len(it)):
                for gi in range(len(it.stages[alpha].generics)):
                    make_context(copy, alpha, gi)
        return calls

    @staticmethod
    def fields_of(stage) -> tuple:
        """Every field of a stage: the steps by identity, the poset by its
        rows and top (its labels are read off the conditions, and reading
        them here would build them on the sweep's shared stages), the
        generics by mask and atom."""
        return (stage.index, stage.conditions, stage.poset.below,
                stage.poset.top, [(g.mask, g.atom) for g in stage.generics],
                stage.paths, stage.gen_masks, [id(q) for q in stage.steps],
                stage.parent)

    def test_make_context_builds_no_stage_on_the_sweep(
            self, default_sweep, monkeypatch):
        generated = {id(stage) for _, it in default_sweep
                     for stage in it.stages}
        built = []
        stage = iteration_module.Stage

        def counted_stage(*args):
            built.append(args)
            return stage(*args)

        monkeypatch.setattr(iteration_module, "Stage", counted_stage)
        calls = self.quotient_builds(default_sweep, monkeypatch)
        assert len(calls) == 608 and built == []
        assert all(id(got) in generated for *_, got in calls)

    def test_a_forced_build_equals_the_shared_stage(
            self, default_sweep, monkeypatch):
        # the placed pairs, first placements in order, are the shared
        # stage's new conditions in order, and the stage the pairwise
        # oracle builds from them equals the shared stage in every field
        calls = self.quotient_builds(default_sweep, monkeypatch)
        assert len(calls) == 608
        shared = {}
        for prev, steps, pairs, stage in calls:
            k, n = prev.poset.n, prev.index
            new = [(p, t) for p, t in dict.fromkeys(pairs) if t is not TAIL_ONE]
            assert new == [(stage.parent[ci], stage.conditions[ci][n])
                           for ci in range(k, stage.poset.n)]
            conds = [prev.conditions[p] + (TAIL_ONE,) * (
                n - len(prev.conditions[p])) + (t,) for p, t in new]
            shared[id(stage)] = (prev, steps, conds, stage)
        assert len(shared) == 15
        for prev, steps, conds, stage in shared.values():
            fresh = stage_from_conditions(prev, steps,
                                          [*prev.conditions, *conds])
            assert self.fields_of(fresh) == self.fields_of(stage)

    def test_dropped_pairs_refused_and_swapped_pairs_placed(
            self, default_sweep, monkeypatch):
        # at each level that decodes tails off pi_prime, a decoder that
        # sends the first new condition's pair to its prefix leaves that
        # condition no image, which make_context refuses; one that swaps
        # two tails under that prefix still places every pair, and pi
        # carries the two conditions' preimages across
        decode = projection._tail_image
        plant = {}

        def planted(prev_level, prev_src, steps_q, qprefix, tail):
            qtail = decode(prev_level, prev_src, steps_q, qprefix, tail)
            if (prev_level.beta + 1, qprefix) == plant.get("at"):
                return plant["tails"].get(qtail, qtail)
            return qtail

        def fresh(it, alpha, gi):
            return make_context(replace(it, stages=list(it.stages)), alpha, gi)

        monkeypatch.setattr(projection, "_tail_image", planted)
        dropped = swapped = 0
        for _, it in default_sweep:
            for alpha in range(1, len(it) - 1):
                for gi in range(len(it.stages[alpha].generics)):
                    plant.clear()
                    ctx = fresh(it, alpha, gi)
                    for beta in range(alpha + 2, len(it) + 1):
                        level = ctx.levels[beta]
                        stage = level.stage
                        k = ctx.levels[beta - 1].stage.poset.n
                        if stage.poset.n == k:
                            continue
                        p = stage.parent[k]
                        tail_of = {ci: stage.conditions[ci][beta - alpha - 1]
                                   for ci in range(k, stage.poset.n)
                                   if stage.parent[ci] == p}
                        plant.update(at=(beta, p),
                                     tails={tail_of[k]: TAIL_ONE})
                        with pytest.raises(ProjectionError, match=(
                                f"quotient condition {k} at level {beta} is "
                                "no condition's image")):
                            fresh(it, alpha, gi)
                        dropped += 1
                        a, b = list(tail_of)[:2]
                        plant["tails"] = {tail_of[a]: tail_of[b],
                                          tail_of[b]: tail_of[a]}
                        flip = {a: b, b: a}
                        assert fresh(it, alpha, gi).levels[beta].pi == [
                            flip.get(i, i) for i in level.pi]
                        swapped += 1
                    plant.clear()
        # every such level is a final one, with two new conditions or more
        # under its first one's prefix
        assert dropped == swapped == 69


class TestLemma13Cuts:
    def test_the_computed_cut_is_the_cut_table(self, default_sweep):
        # pi_prime's columns and the algebras' cuts read P_beta's memoized
        # cuts (L13 decides regularity on the s-frown classes instead): on
        # every atom set of every stage poset the memo equals the cut read
        # off element by element
        orders = {stage.poset.below: stage.poset
                  for _, it in default_sweep for stage in it.stages}
        sets = 0
        for poset in orders.values():
            table = algebra_oracle.cut_table_by_elements(poset)[0]
            assert {x: poset.cuts[x] for x in table} == table
            sets += len(table)
        assert (len(orders), sets) == (41, 1206)


class TestOrderFactsOncePerMatrix:
    def test_rows_and_algebra_tables_built_once_per_relation_matrix(
            self, monkeypatch):
        # a fresh memo and a fresh root stage, then the whole acceptance
        # sweep: generation, every context and every Corollary 15 rebuild
        monkeypatch.setattr(poset_module, "_orders", {})
        fresh_root = functools.cache(root_stage.__wrapped__)
        monkeypatch.setattr(iteration_module, "root_stage", fresh_root)
        monkeypatch.setattr(projection, "root_stage", fresh_root)
        rows, algebras = [], []

        class Counted(poset_module._Order):
            __slots__ = ()

            def __init__(self, below):
                rows.append(below)
                super().__init__(below)

        def counted_algebra(poset, max_base=None):
            algebras.append(ro_algebra(poset, max_base))
            return algebras[-1]

        monkeypatch.setattr(poset_module, "_Order", Counted)
        monkeypatch.setattr(projection, "ro_algebra", counted_algebra)
        sweep = generate_instances(ExperimentConfig(max_poset=3, max_stages=3, seed=1))
        for _, it in sweep:
            for alpha in range(1, len(it) + 1):
                for gi in range(len(it.stages[alpha].generics)):
                    assert verify_corollary15(make_context(it, alpha, gi)).ok
        assert len(rows) == len(set(rows)) <= poset_module._ORDERS_KEPT
        # the passing sweep lists no algebra's elements; listing them all
        # afterwards builds one listing per relation matrix
        assert all(A.base._order.ascending is None for A in algebras)
        for A in algebras:
            assert len(A.elements) == len(A)
        orders = {A.base.below for A in algebras}
        assert len({id(A.elements) for A in algebras}) == len(orders) == 41
        # every context builds its own algebras: one per source stage and
        # one per quotient level above the root, on the 41 memoized tables
        assert len(algebras) == 1992

    def test_one_root_stage_per_process(self):
        it = _two_step_antichains()
        assert it.stages[0] is root_stage()
        assert make_context(it, 1, 0).levels[1].stage is root_stage()


class TestLemma20:
    def test_singleton_into_two(self):
        prov = CifsProvider([parse_formula("x = x")], [(1, 2)])
        it = build_iteration(prov)
        for gi in range(len(it.final.generics)):
            rep = verify_lemma20_analogue(it, gi)
            assert rep.ok
            assert any(c.detail == {"X": 1, "m": 2, "union_size": 1}
                       for c in rep.checks)

    def test_two_into_three(self):
        prov = CifsProvider([parse_formula("x = x")], [(2, 3)])
        it = build_iteration(prov, DEFAULT_CAPS.with_(max_stage_conditions=128))
        for gi in range(len(it.final.generics)):
            rep = verify_lemma20_analogue(it, gi)
            assert rep.ok
            assert any(c.detail == {"X": 2, "m": 3, "union_size": 2}
                       for c in rep.checks)

    def test_boundary_size_is_excluded(self):
        # |X| = m: atoms have size m-1, the union is not total, and the
        # precondition keeps such components out of the sweep
        prov = CifsProvider([parse_formula("x = x")], [(2, 2)])
        it = build_iteration(prov, DEFAULT_CAPS.with_(max_stage_conditions=128))
        info = prov.info[(0, ())]
        assert len(info.structure) == 2 and prov.ladder[0][1] == 2
        for atom_tuple in (info.element_tuples[a] for a in info.poset.atoms):
            assert len(info.payloads[0][atom_tuple[0]]) == 1  # m-1, not total
        for gi in range(len(it.final.generics)):
            rep = verify_lemma20_analogue(it, gi)
            assert not any(c.context.get("component") == 0 for c in rep.checks)

    @pytest.mark.parametrize("corrupt", [
        lambda payload: frozenset((x, 0) for x, _ in payload),
        lambda payload: frozenset(itertools.islice(payload, 1))],
        ids=["not-injective", "not-total"])
    def test_a_corrupted_payload_fails_that_component_alone(self, corrupt):
        # the payload that one final generic selects is no longer a total
        # injection; every other generic's union stays one
        prov = CifsProvider([parse_formula("x = x")], [(2, 3)])
        it = build_iteration(prov, DEFAULT_CAPS.with_(max_stage_conditions=128))
        info, victim = prov.info[(0, ())], 2
        cond = info.element_tuples[it.final.paths[victim][0]][0]
        info.payloads[0][cond] = corrupt(info.payloads[0][cond])
        failed = [(gi, c.check) for gi in range(len(it.final.generics))
                  for c in verify_lemma20_analogue(it, gi).failures]
        assert failed == [(victim, "lemma20-stage0-component0")]

    def test_requires_toy_provider(self, worked):
        it, _ = worked
        with pytest.raises(ProviderError):
            verify_lemma20_analogue(it, 0)


class TestRankBehaviour:
    def test_pi_second_never_raises_rank(self, worked):
        _, ctx = worked
        A = ctx.source_algebras[2]
        univ = name_universe(A, 1)
        for nm in univ.names:
            assert ctx.pi_second(2, nm).rank <= nm.rank
