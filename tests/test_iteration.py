import gc
import itertools
import pickle
import tracemalloc
import types
import weakref

import pytest

from forcinglab import cli, iteration
from forcinglab.boolalg import ro_algebra
from forcinglab.cli import ExperimentConfig, generate_instances
from forcinglab.config import DEFAULT_CAPS, CapExceeded
from forcinglab.formula import parse_formula
from forcinglab.hfset import EMPTY, HFSet, element_code
from forcinglab.iteration import (TAIL_ONE, CifsProvider, CollapseSpec,
                                  Iteration, ProviderError, TableProvider,
                                  build_iteration,
                                  canonicalize_condition,
                                  cifs_dependence_probe,
                                  check_lemma1, collapse_poset, extend_stage, root_stage,
                                  trim)
from forcinglab.hfset import kpair
from forcinglab.names import (Name, NameUniverse, TruthSession, check_name,
                              evaluate, mix_name, pair_name)
from forcinglab.poset import (Poset, antichain_with_top, chain_poset,
                              is_separative, point_poset, product_poset)
from forcinglab.projection import make_context

import generation_oracle
from tail_oracle import element_name, tail_from_name
from order_oracle import (product_by_pairs, separativity_witness_by_pairs,
                          stage_order_by_pairs, stage_paths_and_parents)

A2 = antichain_with_top(2)
PT = point_poset()


def two_stage_constant():
    return build_iteration(TableProvider([{(): A2}, {(0,): A2, (1,): A2}]))


def stage_facts(stage) -> tuple:
    """Everything a built stage records, for comparing two stages."""
    return (stage.conditions, list(stage.poset.below),
            [(g.mask, g.atom) for g in stage.generics],
            list(stage.paths), stage.gen_masks, stage.steps)


# -- collapse posets ----------------------------------------------------------


def brute_force_injection_count(n: int, m: int) -> int:
    """Oracle written against the raw definition: count the partial maps
    {0..n-1} -> {0..m-1} that are injective and of size < m, by enumerating
    every partial map outright."""
    count = 0
    for dom_bits in range(1 << n):
        dom = [i for i in range(n) if (dom_bits >> i) & 1]
        if len(dom) >= m:
            continue
        for values in itertools.product(range(m), repeat=len(dom)):
            if len(set(values)) == len(values):
                count += 1
    return count


class TestCollapse:
    def test_two_into_two_gives_five(self):
        poset, _ = collapse_poset(CollapseSpec((0, 1), 2))
        assert poset.n == 5

    def test_one_into_one_is_trivial(self):
        poset, conds = collapse_poset(CollapseSpec((0,), 1))
        assert poset.n == 1 and conds == [frozenset()]

    def test_two_into_three_gives_thirteen(self):
        poset, _ = collapse_poset(CollapseSpec((0, 1), 3))
        assert poset.n == 13

    def test_counts_match_brute_force(self):
        for n in range(0, 4):
            for m in range(1, 5):
                poset, _ = collapse_poset(CollapseSpec(tuple(range(n)), m))
                assert poset.n == brute_force_injection_count(n, m)

    def test_always_separative_with_empty_map_on_top(self):
        for n in range(0, 4):
            for m in range(1, 4):
                poset, conds = collapse_poset(CollapseSpec(tuple(range(n)), m))
                assert is_separative(poset)
                assert conds[poset.top] == frozenset()

    def test_a_target_below_one_is_refused(self):
        with pytest.raises(ValueError, match="^collapse target must be >= 1$"):
            collapse_poset(CollapseSpec((0, 1), 0))

    def test_order_is_reverse_inclusion(self):
        poset, conds = collapse_poset(CollapseSpec((0, 1), 3))
        for i, p in enumerate(conds):
            for j, q in enumerate(conds):
                assert poset.leq(i, j) == (q <= p)


# -- stage construction -------------------------------------------------------


class TestBuildIteration:
    def test_single_point_step(self):
        it = build_iteration(TableProvider([{(): PT}]))
        assert it.stages[1].poset.n == 1

    def test_two_stage_antichain_count(self):
        # frozen from the literal-name oracle below: 1 top, 2 short
        # conditions, 4 one-generic tails, 8 two-generic tails
        it = two_stage_constant()
        assert it.stages[2].poset.n == 15
        assert len(it.stages[2].poset.atoms) == 4

    def test_undefined_step_keeps_the_stage(self):
        it = build_iteration(TableProvider([{(): A2}, {}]))
        assert it.stages[2].conditions == it.stages[1].conditions

    def test_stage_posets_contain_earlier_stages(self):
        it = two_stage_constant()
        assert set(it.stages[1].conditions) <= set(it.stages[2].conditions)

    def test_non_separative_step_rejected(self):
        with pytest.raises(ProviderError):
            build_iteration(TableProvider([{(): chain_poset(2)}]))

    def test_stage_cap(self):
        tables = [{(): A2}, {(0,): A2, (1,): A2},
                  {p: A2 for p in [(0, 0), (0, 1), (1, 0), (1, 1)]}]
        with pytest.raises(CapExceeded):
            build_iteration(TableProvider(tables))
        it = build_iteration(TableProvider(tables), allow_partial=True)
        assert it.partial and len(it) == 2

    def test_capped_stage_places_no_tail(self, monkeypatch):
        # the size of an enumerated stage follows from the step sizes, so a
        # stage over the cap raises before any tail map is enumerated
        s2 = two_stage_constant().final
        steps = [A2] * len(s2.generics)
        size = extend_stage(s2, steps, DEFAULT_CAPS.with_(
            max_stage_conditions=1 << 12)).poset.n
        enumerated = []

        def product(*ranges):
            enumerated.append(ranges)
            return itertools.product(*ranges)

        monkeypatch.setattr(iteration, "itertools",
                            types.SimpleNamespace(product=product))
        with pytest.raises(CapExceeded):
            extend_stage(s2, steps, DEFAULT_CAPS.with_(
                max_stage_conditions=size - 1))
        assert enumerated == []
        at_cap = extend_stage(s2, steps, DEFAULT_CAPS.with_(
            max_stage_conditions=size))
        assert at_cap.poset.n == size and enumerated

    def test_stage_poset_pickles_before_its_labels_are_read(self):
        poset = two_stage_constant().final.poset
        copy = pickle.loads(pickle.dumps(poset))
        assert (copy.below, copy.labels) == (poset.below, poset.labels)
        assert "<1;{0:0,1:0}>" in copy.labels

    def test_extending_a_stage_leaves_it_unchanged(self):
        # instance generation extends one stage under many tables, so an
        # extension must not write into the stage it extends
        s1 = build_iteration(TableProvider([{(): A2}])).final
        before = stage_facts(s1)
        first = extend_stage(s1, [A2, A2], DEFAULT_CAPS)
        first_facts = stage_facts(first)
        second = extend_stage(s1, [PT, antichain_with_top(3)], DEFAULT_CAPS)
        assert stage_facts(s1) == before and s1.steps == (A2,)
        assert stage_facts(first) == first_facts and first.steps == (A2, A2)
        assert stage_facts(first) == stage_facts(two_stage_constant().stages[2])
        assert second.steps[0] is PT and second.poset.n != first.poset.n

    def test_prefix_monotonicity(self):
        it = two_stage_constant()
        s1, s2 = it.stages[1], it.stages[2]
        for i, ci in enumerate(s2.conditions):
            for j, cj in enumerate(s2.conditions):
                if s2.poset.leq(i, j):
                    pi = s1.cond_index(trim(ci[:1]))
                    pj = s1.cond_index(trim(cj[:1]))
                    assert s1.poset.leq(pi, pj)

    def test_all_stage_posets_are_posets(self):
        # antisymmetry of the canonical order is exactly the mutual-order
        # quotient working; Poset's constructor enforces it
        it = two_stage_constant()
        for stage in it.stages:
            assert stage.poset.n == len(stage.conditions)


class TestStageOrder:
    """extend_stage's row-built order, and what it records besides, against
    the pairwise oracle."""

    @staticmethod
    def assert_oracle_order(prev, stage):
        # prev's conditions keep their indices: factor_generic's prefix
        # mask, the s-frown table and make_context all read them there
        assert stage.conditions[:prev.poset.n] == prev.conditions
        below, gen_masks = stage_order_by_pairs(prev, stage)
        assert (list(stage.poset.below), stage.gen_masks) == (below, gen_masks), \
            stage.conditions
        paths, parents = stage_paths_and_parents(prev, stage)
        assert (list(stage.paths), list(stage.parent)) == (paths, parents), \
            stage.conditions
        assert all(stage.cond_index(c) == i
                   for i, c in enumerate(stage.conditions))
        assert stage.poset.top == stage.cond_index(())

    @pytest.mark.parametrize("bounds", [(3, 3), (4, 2)])
    def test_sweep_stages_equal_the_pairwise_oracle(self, monkeypatch, bounds):
        # every stage generation builds, and every stage the exhaustive
        # generator builds, kept by an instance or not
        built = []

        def recording(prev, steps, caps):
            stage = extend_stage(prev, steps, caps)
            built.append((prev, stage))
            return stage

        monkeypatch.setattr(cli, "extend_stage", recording)
        monkeypatch.setattr(generation_oracle, "extend_stage", recording)
        config = ExperimentConfig(max_poset=bounds[0], max_stages=bounds[1])
        instances = generate_instances(config)
        kept = {id(s) for _, it in instances for s in it.stages[1:]}
        assert {id(stage) for _, stage in built} == kept
        generation_oracle.generate_instances_exhaustive(config)
        assert (len(built), len(kept)) == {(3, 3): (114 + 264, 114),
                                           (4, 2): (41 + 91, 41)}[bounds]
        for prev, stage in built:
            self.assert_oracle_order(prev, stage)

    def test_quotient_stages_equal_the_pairwise_oracle(self, default_sweep):
        # make_context asks extend_stage for these, each the child of the
        # previous level's stage under the combined generics' step posets
        checked = 0
        for _, it in default_sweep:
            for alpha in range(1, len(it) + 1):
                for gi in range(len(it.stages[alpha].generics)):
                    levels = make_context(it, alpha, gi).levels
                    for beta in range(alpha + 1, len(it) + 1):
                        self.assert_oracle_order(levels[beta - 1].stage,
                                                 levels[beta].stage)
                        checked += 1
        assert checked == 608

    def test_stage_over_a_non_separative_product_fails_lemma1(self):
        product, _ = product_poset([A2, chain_poset(3)])
        root = root_stage()
        stage = extend_stage(root, [product], DEFAULT_CAPS)
        self.assert_oracle_order(root, stage)
        it = Iteration([root, stage], TableProvider([{(): product}]), DEFAULT_CAPS)
        rep = check_lemma1(it)
        assert not rep.ok
        witness = separativity_witness_by_pairs(stage.poset)
        assert rep.failures[0].detail["witness"] == tuple(
            stage.poset.labels[p] for p in witness)


class TestCanonicalization:
    def setup_method(self):
        self.it = two_stage_constant()
        self.s1 = self.it.stages[1]

    def test_trailing_ones_trim(self):
        cond = canonicalize_condition(
            (((0, 0),), TAIL_ONE), self.it, 2)
        assert cond == (((0, 0),),)

    def test_top_valued_tail_becomes_one(self):
        top = A2.top
        cond = canonicalize_condition(
            (((0, 0),), ((0, top),)), self.it, 2)
        assert cond == (((0, 0),),)

    def test_tail_restricted_to_prefix_generics(self):
        # a tail defined on both generics, attached below the atom that only
        # generic 0 contains, keeps only the generic-0 value
        cond = canonicalize_condition(
            (((0, 0),), ((0, 1), (1, 0))), self.it, 2)
        assert cond == (((0, 0),), ((0, 1),))

    @pytest.mark.parametrize("table,raw,message", [
        ({(0,): A2, (1,): A2}, (TAIL_ONE,) * 3,
         "condition has 3 coordinates at stage 2"),
        ({(0,): A2}, (TAIL_ONE, ((0, 0), (1, 0))),
         "stage 1 has no step poset under generic 1"),
        ({(0,): A2, (1,): A2}, (TAIL_ONE, ((0, 0),)),
         "tail map missing generic 1"),
        ({(0,): A2, (1,): A2}, (TAIL_ONE, ((0, 0), (1, 3))),
         "tail value 3 outside step poset under generic 1"),
    ], ids=["too-long", "no-step-poset", "missing-generic", "off-the-poset"])
    def test_a_raw_condition_off_the_stage_is_refused(self, table, raw,
                                                       message):
        it = build_iteration(TableProvider([{(): A2}, table]))
        with pytest.raises(ValueError, match=message):
            canonicalize_condition(raw, it, 2)

    def test_names_with_equal_evaluations_share_a_condition(self):
        A = ro_algebra(self.s1.poset, max_base=self.s1.poset.n)
        gens = self.s1.generics
        atom_a = self.s1.cond_index((((0, 0),),))
        mixed = mix_name([(gens[g].atom, element_name(0, A))
                          for g in self.s1.gens_of(atom_a)], A)
        plain = element_name(0, A)
        steps = self.it.stages[2].steps
        t1 = tail_from_name(self.s1, steps, atom_a, mixed)
        t2 = tail_from_name(self.s1, steps, atom_a, plain)
        assert t1 == t2 == ((0, 0),)

    def test_an_all_top_name_is_tail_one(self):
        # the name route returns canonical tails: a name denoting the top
        # under every generic containing the prefix is the tail 1
        A = ro_algebra(self.s1.poset, max_base=self.s1.poset.n)
        steps = self.it.stages[2].steps
        top = element_name(A2.top, A)
        for prefix in range(self.s1.poset.n):
            assert tail_from_name(self.s1, steps, prefix, top) is TAIL_ONE
        mixed = mix_name([(self.s1.generics[0].atom, element_name(1, A)),
                          (self.s1.generics[1].atom, top)], A)
        assert tail_from_name(self.s1, steps, self.s1.poset.top, mixed) == \
            ((0, 1), (1, A2.top))


class TestStageMemo:
    """An enumerated stage is built once while it lives: extend_stage
    returns the stage it built from the same parent and step posets."""

    def test_the_same_parent_and_steps_give_the_same_stage(self):
        s1 = build_iteration(TableProvider([{(): A2}])).final
        first = extend_stage(s1, [A2, PT], DEFAULT_CAPS)
        assert extend_stage(s1, [A2, PT], DEFAULT_CAPS) is first
        # the step posets are told apart by identity, not by order
        other = extend_stage(s1, [A2, point_poset()], DEFAULT_CAPS)
        assert other is not first and stage_facts(other)[:-1] == \
            stage_facts(first)[:-1]

    def test_a_hit_under_a_lower_cap_raises_and_enumerates_nothing(
            self, monkeypatch):
        s2 = two_stage_constant().final
        steps = [A2] * len(s2.generics)
        built = extend_stage(s2, steps, DEFAULT_CAPS.with_(
            max_stage_conditions=1 << 12))
        enumerated = []

        def product(*ranges):
            enumerated.append(ranges)
            return itertools.product(*ranges)

        monkeypatch.setattr(iteration, "itertools",
                            types.SimpleNamespace(product=product))
        with pytest.raises(CapExceeded):
            extend_stage(s2, steps, DEFAULT_CAPS.with_(
                max_stage_conditions=built.poset.n - 1))
        assert extend_stage(s2, steps, DEFAULT_CAPS.with_(
            max_stage_conditions=built.poset.n)) is built
        assert enumerated == []

    def test_the_memo_keeps_no_stage_alive(self):
        # fresh step posets, so that no other object holds these stages
        q = antichain_with_top(2)
        tables = [{(): q}, {(0,): q, (1,): PT}]
        it = build_iteration(TableProvider(tables))
        twin = build_iteration(TableProvider(tables))
        assert all(a is b for a, b in zip(twin.stages, it.stages))
        refs = [weakref.ref(stage) for stage in it.stages[1:]]
        del it, twin
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_extended_stages_pickle(self):
        # the root and stage 1 hold children, stage 2 none
        it = two_stage_constant()
        for stage in it.stages:
            copy = pickle.loads(pickle.dumps(stage))
            assert stage_facts(copy)[:-1] == stage_facts(stage)[:-1]
            assert [(q.below, q.top) for q in copy.steps] == \
                [(q.below, q.top) for q in stage.steps]
        # a copy starts with no children and builds its own
        s1 = pickle.loads(pickle.dumps(it.stages[1]))
        again = extend_stage(s1, [A2, A2], DEFAULT_CAPS)
        assert again is not it.stages[2]
        assert stage_facts(again) == stage_facts(it.stages[2])


# -- the literal name-based representation, used as the order oracle ----------


def literal_second_stage(it: Iteration):
    """Rebuild stage 2 from literal names: tails are names over r.o.(P_1),
    validity is the forced membership in the step-poset name, order is the
    forced pair-membership in the order-relation name, and conditions are
    identified when they evaluate identically under every generic containing
    the prefix.  Returns (classes, leq) with classes as frozen descriptors."""
    s1 = it.stages[1]
    steps = it.stages[2].steps      # the step posets named over stage 1
    A = ro_algebra(s1.poset, max_base=s1.poset.n)
    gens = s1.generics
    sess = TruthSession(NameUniverse(A, 0, (Name((), A),)))

    def branch(g, hf):
        return (gens[g].atom, check_name(hf, A))

    # the step-poset name and its order-relation name, mixed over generics
    qdot_branches, rdot_branches = [], []
    for g, q in enumerate(steps):
        if q is None:
            continue
        elems = HFSet(element_code(e) for e in range(q.n))
        order = HFSet(kpair(element_code(e1), element_code(e2))
                      for e1 in range(q.n) for e2 in range(q.n)
                      if q.leq(e1, e2))
        qdot_branches.append(branch(g, elems))
        rdot_branches.append(branch(g, order))
    qdot = mix_name(qdot_branches, A)
    rdot = mix_name(rdot_branches, A)

    def forced_below(prefix_idx, value):
        return not s1.poset.principal_cut(prefix_idx) & ~A.cut(value)

    # candidate tails: every mixed assignment plus shapes that should merge
    candidates = []
    for ci in range(s1.poset.n):
        gens_ci = list(s1.gens_of(ci))
        candidates.append((ci, TAIL_ONE))
        if any(steps[g] is None for g in gens_ci):
            continue
        for combo in itertools.product(*[range(steps[g].n) for g in gens_ci]):
            nm = mix_name([(gens[g].atom, element_name(e, A))
                           for g, e in zip(gens_ci, combo)], A)
            candidates.append((ci, nm))
            if len(set(combo)) == 1:
                candidates.append((ci, element_name(combo[0], A)))

    # validity: prefix forces membership in the step-poset name
    valid = []
    for ci, nm in candidates:
        if nm is TAIL_ONE:
            valid.append((ci, nm))
            continue
        if forced_below(ci, sess.member_value(nm, qdot)):
            valid.append((ci, nm))

    def evaluation_class(ci, nm):
        if nm is TAIL_ONE:
            return (ci, TAIL_ONE)
        vec = []
        for g in s1.gens_of(ci):
            hf = evaluate(nm, gens[g].mask)
            vec.append((g, hf.code))
        q_tops = all(evaluate(nm, gens[g].mask) == element_code(steps[g].top)
                     for g in s1.gens_of(ci))
        if q_tops:
            return (ci, TAIL_ONE)
        return (ci, tuple(vec))

    def leq_pair(a, b):
        (ci, ni), (cj, nj) = a, b
        if not s1.poset.leq(ci, cj):
            return False
        if nj is TAIL_ONE:
            return True
        if ni is TAIL_ONE:
            if any(steps[g] is None for g in s1.gens_of(ci)):
                return False
            ni_eff = mix_name([(gens[g].atom, element_name(steps[g].top, A))
                               for g in s1.gens_of(ci)], A)
        else:
            ni_eff = ni
        pair = pair_name(ni_eff, nj, A)
        return forced_below(ci, sess.member_value(pair, rdot))

    classes: dict = {}
    for ci, nm in valid:
        classes.setdefault(evaluation_class(ci, nm), []).append((ci, nm))
    keys = sorted(classes, key=str)
    # mutual order must agree with evaluation classes (the Remark-1 quotient)
    for ka, kb in itertools.product(keys, repeat=2):
        for a in classes[ka]:
            for b in classes[kb]:
                mutual = leq_pair(a, b) and leq_pair(b, a)
                assert mutual == (ka == kb), (a, b)
    leq = {}
    for ka, kb in itertools.product(keys, repeat=2):
        vals = {leq_pair(a, b) for a in classes[ka] for b in classes[kb]}
        assert len(vals) == 1, "order must be class-invariant"
        leq[(ka, kb)] = vals.pop()
    return keys, leq


PROVIDERS_FOR_ORACLE = [
    TableProvider([{(): A2}, {(0,): A2, (1,): A2}]),
    TableProvider([{(): A2}, {(0,): A2}]),
    TableProvider([{(): A2}, {(0,): A2, (1,): PT}]),
    TableProvider([{(): A2}, {(0,): antichain_with_top(3), (1,): A2}]),
    TableProvider([{(): antichain_with_top(3)},
                   {(0,): A2, (1,): PT, (2,): A2}]),
    TableProvider([{(): PT}, {(None,): A2}]),
]


@pytest.mark.parametrize("provider", PROVIDERS_FOR_ORACLE,
                         ids=lambda p: "prov" + str(PROVIDERS_FOR_ORACLE.index(p)))
def test_literal_representation_matches_function_representation(provider):
    caps = DEFAULT_CAPS.with_(max_stage_conditions=128)
    it = build_iteration(provider, caps)
    keys, leq = literal_second_stage(it)
    s2 = it.stages[2]
    assert len(keys) == s2.poset.n
    # the natural map: the literal class descriptor names the prefix and the
    # per-generic evaluation, which is exactly the function-form coordinate
    s1 = it.stages[1]
    numeral_code_to_element = {element_code(e).code: e for e in range(8)}

    def as_condition(key):
        ci, tail = key
        prefix = s1.conditions[ci]
        if tail is TAIL_ONE:
            return prefix
        coord = tuple((g, numeral_code_to_element[code]) for g, code in tail)
        return prefix + (TAIL_ONE,) * (1 - len(prefix)) + (coord,)
    mapping = {key: s2.cond_index(as_condition(key)) for key in keys}
    assert sorted(mapping.values()) == list(range(s2.poset.n))
    for ka, kb in itertools.product(keys, repeat=2):
        assert leq[(ka, kb)] == s2.poset.leq(mapping[ka], mapping[kb])


# -- lemma 1 -----------------------------------------------------------------


class TestLemma1:
    def test_all_stages_separative(self):
        it = two_stage_constant()
        assert check_lemma1(it).ok

    def test_trivial_steps(self):
        it = build_iteration(TableProvider([{(): PT}, {(None,): PT}]))
        assert check_lemma1(it).ok

    def test_corrupted_stage_is_detected_with_witness(self):
        it = two_stage_constant()
        broken = Iteration([it.stages[0]], it.provider, it.caps)

        class FakeStage:
            index = 1
            poset = chain_poset(3)
        broken.stages.append(FakeStage())
        rep = check_lemma1(broken)
        assert not rep.ok
        assert "witness" in rep.failures[0].detail


# -- toy rank-ladder iteration -------------------------------------------------


class TestCifs:
    def test_never_unique_witness_gives_trivial_component(self):
        prov = CifsProvider([parse_formula("x = x")], [(2, 2)])
        build_iteration(prov, DEFAULT_CAPS.with_(max_stage_conditions=64))
        info = prov.info[(0, ())]
        assert info.witnesses == [None]
        assert info.payloads[1] == [frozenset()]

    def test_empty_set_witness(self):
        prov = CifsProvider(
            [parse_formula("forall z (! (z in x))")], [(2, 2)])
        build_iteration(prov, DEFAULT_CAPS.with_(max_stage_conditions=64))
        info = prov.info[(0, ())]
        assert info.witnesses == [EMPTY]
        # collapsing the empty set is the one-point poset
        assert info.payloads[1] == [frozenset()]

    @staticmethod
    def debris_provider():
        """The cifs dependence probe's ladder, with its stage-0 step and
        both stage-1 steps built, and the stage-1 paths."""
        psi = parse_formula(
            "exists y (y in x) & forall y (y in x -> exists z (z in y & exists w (w in z)))")
        prov = CifsProvider([psi], [(1, 2), (6, 3)])
        it = build_iteration(prov, DEFAULT_CAPS.with_(max_stage_conditions=16),
                             allow_partial=True)
        s1 = it.stages[1]
        for path in s1.paths:
            prov.step(1, path)
        return prov, s1.paths

    @classmethod
    def debris_stage1_infos(cls):
        """The stage-1 step infos of the probe's ladder."""
        prov, paths = cls.debris_provider()
        return [prov.info[1, path] for path in paths]

    @staticmethod
    def components(info, m: int):
        """The collapse posets of a step, rebuilt from its structure and
        witnesses; their conditions must be the step's payloads."""
        specs = [CollapseSpec(info.structure, m)] + [
            CollapseSpec((), 1) if w is None
            else CollapseSpec(tuple(w.members), m) for w in info.witnesses]
        built = [collapse_poset(spec) for spec in specs]
        assert [conds for _, conds in built] == info.payloads
        return [poset for poset, _ in built]

    def test_tables_differ_between_generics_when_debris_visible(self):
        infos = self.debris_stage1_infos()
        assert len({tuple(h.code for h in i.structure) for i in infos}) > 1
        assert len({i.witnesses[0] for i in infos}) > 1

    def test_hidden_debris_fails_the_dependence_probe(self, monkeypatch):
        # with the generics' collapse functions kept out of the universe,
        # both stage-1 structures are the bare ground fragment
        monkeypatch.setattr(CifsProvider, "_generic_debris",
                            lambda self, path: [])
        rep = cifs_dependence_probe()
        assert [(c.check, c.status, c.detail) for c in rep.checks] == [
            ("tables-differ-between-generics", "fail",
             {"structure_sizes": [1, 1], "witness_is_generic_encoding": False})]

    def test_probe_products_need_no_pairwise_order(self, monkeypatch):
        # the probe's stage-1 rung collapses to m = 3
        components = [self.components(i, 3) for i in self.debris_stage1_infos()]
        want = [product_by_pairs(c) for c in components]
        assert sorted(p.n for p, _ in want) == [196, 304]
        # a pairwise loop over the product would call leq
        monkeypatch.setattr(Poset, "leq", None)
        assert cifs_dependence_probe().ok
        for comps, (w, w_tuples) in zip(components, want):
            got, tuples = product_poset(comps)
            assert tuples == w_tuples
            assert (got.below, got.top, got.labels) == (w.below, w.top, w.labels)

    @pytest.mark.parametrize("ladder", ["probe", "default"])
    def test_rung_structure_is_the_built_step_data(self, ladder):
        # the probe's ladder, through its two stage-1 steps, and the
        # default toy ladder as the cifs suite builds it
        if ladder == "probe":
            prov, _ = self.debris_provider()
        else:
            config = ExperimentConfig()
            prov = cli._cifs_provider(config)
            build_iteration(prov, config.caps())
        assert len(prov.info) > 2
        for (n, path), info in prov.info.items():
            assert prov._rung_structure(n, path) == \
                (info.structure, info.witnesses)

    def test_the_probe_builds_no_poset_above_three_elements(self, monkeypatch):
        sizes = []
        init = Poset.__init__

        def counted(self, below, *args, **kwargs):
            sizes.append(len(below))
            init(self, below, *args, **kwargs)
        monkeypatch.setattr(Poset, "__init__", counted)
        assert cifs_dependence_probe().ok
        assert sizes and max(sizes) == 3

    def test_capped_stage_is_not_built(self):
        # the debris ladder's stage 2 has tens of thousands of conditions;
        # the cap must stop their enumeration, not just discard the stage
        psi = parse_formula(
            "exists y (y in x) & forall y (y in x -> exists z (z in y & exists w (w in z)))")
        prov = CifsProvider([psi], [(1, 2), (6, 3)])
        tracemalloc.start()
        try:
            it = build_iteration(prov, DEFAULT_CAPS.with_(max_stage_conditions=16),
                                 allow_partial=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert it.partial and len(it) == 1
        assert peak < 2 << 20

    def test_formula_arity_enforced(self):
        with pytest.raises(Exception):
            CifsProvider([parse_formula("x in y")], [(1, 2)])

    def test_ladder_must_increase(self):
        with pytest.raises(ValueError):
            CifsProvider([parse_formula("x = x")], [(1, 2), (1, 2)])

    def test_full_pipeline_small_ladder(self):
        prov = CifsProvider(
            [parse_formula("forall z (! (z in x))"),
             parse_formula("exists z (z in x)")],
            [(1, 2), (1, 3)])
        it = build_iteration(prov, DEFAULT_CAPS.with_(max_stage_conditions=128))
        assert len(it) == 2
        assert check_lemma1(it).ok
