import dataclasses
import itertools

import pytest

from forcinglab.boolalg import AlgebraError, ro_algebra
from forcinglab.formula import parse_formula
from forcinglab.generic import enumerate_generics, forces
from forcinglab.hfset import (EMPTY, HFSet, encode_function, hfset, kpair,
                              kpair_value, numeral, numeral_value,
                              rank_segment, transitive_closure)
from forcinglab.iteration import TableProvider, build_iteration
from forcinglab.names import (Name, NameUniverse, TruthSession,
                              UniverseCapExceeded, check_name, decode_element,
                              element_name, empty_name, evaluate,
                              holds_in_extension, make_name, mix_name,
                              name_text, name_universe, pair_name,
                              sampled_universe, truth_value)
from forcinglab.poset import (all_posets_with_top, antichain_with_top,
                              is_separative, point_poset)
from forcinglab.projection import make_context, working_universe


class TestHFSet:
    def test_interning(self):
        assert hfset(EMPTY) is hfset(EMPTY)
        assert HFSet([EMPTY, EMPTY]) is hfset(EMPTY)

    def test_rank(self):
        assert EMPTY.rank == 0
        assert hfset(EMPTY).rank == 1
        assert numeral(3).rank == 3

    def test_numerals_roundtrip(self):
        for k in range(6):
            assert numeral_value(numeral(k)) == k
        assert numeral_value(hfset(hfset(EMPTY))) is None

    def test_kuratowski_pairs(self):
        a, b = numeral(1), numeral(2)
        assert kpair_value(kpair(a, b)) == (a, b)
        assert kpair_value(kpair(a, a)) == (a, a)
        assert kpair_value(numeral(3)) is None

    def test_rank_segments(self):
        assert [len(rank_segment(r)) for r in range(5)] == [0, 1, 2, 4, 16]

    def test_transitive_closure(self):
        f = encode_function([(EMPTY, numeral(1))])
        closure = transitive_closure([f])
        assert EMPTY in set(closure) and f in set(closure)


def _algebra_with_named_cuts():
    P = antichain_with_top(2)
    A = ro_algebra(P)
    ua = A.principal(P.labels.index("a"))
    ub = A.principal(P.labels.index("b"))
    return P, A, ua, ub


class TestCanonicalNames:
    def test_zero_cut_entries_dropped(self):
        _, A, ua, _ = _algebra_with_named_cuts()
        e = empty_name(A)
        assert make_name([(e, A.zero)], A) == empty_name(A)

    def test_duplicate_subnames_merge_by_join(self):
        _, A, ua, ub = _algebra_with_named_cuts()
        e = empty_name(A)
        merged = make_name([(e, ua), (e, ub)], A)
        assert merged == make_name([(e, A.one)], A)

    def test_text_writes_each_element_as_its_cut(self):
        P, A, ua, _ = _algebra_with_named_cuts()
        e = empty_name(A)
        nm = make_name([(make_name([(e, A.one)], A), ua)], A)
        assert A.cut(A.one) == (1 << P.n) - 1 != A.one
        assert name_text(nm, A) == \
            "{({({},%#x)},%#x)}" % (A.cut(A.one), A.cut(ua))

    def test_rank(self):
        _, A, ua, _ = _algebra_with_named_cuts()
        e = empty_name(A)
        y = make_name([(e, ua)], A)
        assert e.rank == 0 and y.rank == 1


class TestCheckName:
    def test_empty(self):
        _, A, _, _ = _algebra_with_named_cuts()
        assert check_name(EMPTY, A) == empty_name(A)

    def test_singleton(self):
        _, A, _, _ = _algebra_with_named_cuts()
        got = check_name(hfset(EMPTY), A)
        assert got == make_name([(empty_name(A), A.one)], A)

    def test_evaluates_back_to_the_set_for_every_generic(self):
        for poset in all_posets_with_top(4):
            A = ro_algebra(poset)
            generics = enumerate_generics(A.base)
            for x in rank_segment(3):
                nm = check_name(x, A)
                for g in generics:
                    assert evaluate(nm, g.mask) == x


class TestUniverses:
    def test_rank_zero_is_just_the_empty_name(self):
        _, A, _, _ = _algebra_with_named_cuts()
        assert len(name_universe(A, 0)) == 1

    def test_two_element_algebra_rank_one(self):
        A = ro_algebra(point_poset())
        assert len(name_universe(A, 1)) == 2

    def test_four_element_algebra_rank_one(self):
        _, A, _, _ = _algebra_with_named_cuts()
        assert len(name_universe(A, 1)) == 4

    def test_four_element_algebra_rank_two(self):
        _, A, _, _ = _algebra_with_named_cuts()
        assert len(name_universe(A, 2)) == 256

    def test_cap(self):
        _, A, _, _ = _algebra_with_named_cuts()
        with pytest.raises(UniverseCapExceeded):
            name_universe(A, 2, cap=100)

    def test_deterministic_order(self):
        _, A, _, _ = _algebra_with_named_cuts()
        u1 = name_universe(A, 2)
        u2 = name_universe(A, 2)
        assert u1.names == u2.names


class TestTruthValues:
    def setup_method(self):
        self.P, self.A, self.ua, self.ub = _algebra_with_named_cuts()
        self.univ = name_universe(self.A, 2)
        self.sess = TruthSession(self.univ)
        self.echk = check_name(EMPTY, self.A)
        self.y = make_name([(self.echk, self.ua)], self.A)

    def test_self_equality_is_one(self):
        for nm in name_universe(self.A, 1).names:
            assert self.sess.equal_value(nm, nm) == self.A.one

    def test_membership_example(self):
        assert self.sess.member_value(self.echk, self.y) == self.ua

    def test_equality_with_empty_example(self):
        assert self.sess.equal_value(self.y, self.echk) == self.ub

    def test_truth_value_rejects_open_formulas(self):
        from forcinglab.formula import FormulaError
        with pytest.raises(FormulaError):
            truth_value(parse_formula("x in $0"), self.univ)

    def test_equal_names_evaluate_equal_everywhere(self):
        univ = name_universe(self.A, 1)
        sess = TruthSession(univ)
        generics = enumerate_generics(self.P)
        for x in univ.names:
            for y in univ.names:
                if sess.equal_value(x, y) == self.A.one:
                    for g in generics:
                        assert evaluate(x, g.mask) == evaluate(y, g.mask)


class TestEvaluation:
    def setup_method(self):
        self.P, self.A, self.ua, _ = _algebra_with_named_cuts()
        self.gens = enumerate_generics(self.P)
        self.y = make_name([(check_name(EMPTY, self.A), self.ua)], self.A)

    def test_empty_name(self):
        for g in self.gens:
            assert evaluate(empty_name(self.A), g.mask) == EMPTY

    def test_cut_meets_filter(self):
        ga = next(g for g in self.gens if g.atom == self.P.labels.index("a"))
        gb = next(g for g in self.gens if g.atom == self.P.labels.index("b"))
        assert evaluate(self.y, ga.mask) == hfset(EMPTY)
        assert evaluate(self.y, gb.mask) == EMPTY

    def test_one_memo_serves_every_generic(self):
        memo: dict = {}
        for nm in name_universe(self.A, 2).names:
            for g in self.gens:
                assert evaluate(nm, g.mask, memo) == evaluate(nm, g.mask)


class TestForcing:
    def setup_method(self):
        self.P, self.A, self.ua, _ = _algebra_with_named_cuts()
        self.univ = name_universe(self.A, 1)
        self.a = self.P.labels.index("a")
        self.b = self.P.labels.index("b")
        self.y = make_name([(check_name(EMPTY, self.A), self.ua)], self.A)
        self.iy = self.univ.names.index(self.y)

    def test_top_forces_reflexivity(self):
        f = parse_formula("$0 = $0")
        assert forces(self.P.top, f, self.univ)

    def test_only_the_matching_atom_forces_membership(self):
        zero = self.univ.names.index(empty_name(self.A))
        f = parse_formula(f"${zero} in ${self.iy}")
        assert forces(self.a, f, self.univ)
        assert not forces(self.b, f, self.univ)
        assert not forces(self.P.top, f, self.univ)


class TestMixing:
    def test_mixing_hits_each_branch(self):
        P, A, _, _ = _algebra_with_named_cuts()
        gens = enumerate_generics(P)
        branches = [(gens[0].atom, check_name(numeral(2), A)),
                    (gens[1].atom, check_name(numeral(0), A))]
        mixed = mix_name(branches, A)
        assert evaluate(mixed, gens[0].mask) == numeral(2)
        assert evaluate(mixed, gens[1].mask) == numeral(0)

    def test_pair_name(self):
        P, A, _, _ = _algebra_with_named_cuts()
        gens = enumerate_generics(P)
        pn = pair_name(check_name(numeral(1), A), check_name(numeral(2), A), A)
        for g in gens:
            assert evaluate(pn, g.mask) == kpair(numeral(1), numeral(2))

    def test_element_names_decode(self):
        P, A, _, _ = _algebra_with_named_cuts()
        gens = enumerate_generics(P)
        for e in range(8):
            nm = element_name(e, A)
            for g in gens:
                assert decode_element(evaluate(nm, g.mask)) == e


class TestTruthLemmaSmall:
    """Brute-force truth lemma on a small slice; the acceptance suite runs
    the full criterion-2 sweep."""

    def test_quantifier_free_truth_lemma(self):
        shapes = [parse_formula(t) for t in
                  ("$0 in $1", "$0 = $1", "!($0 in $1)",
                   "($0 in $1) & ($1 = $1)", "($0 = $1) | ($1 in $0)")]
        for poset in all_posets_with_top(3):
            A = ro_algebra(poset)
            univ = name_universe(A, 1)
            generics = enumerate_generics(A.base)
            sess = TruthSession(univ)
            for x, y in itertools.product(univ.names, repeat=2):
                for shape in shapes:
                    s = sess.with_constants([x, y])
                    value = s.value(shape)
                    for g in generics:
                        lhs = any(not A.base.principal_cut(p) & ~A.cut(value)
                                  for p in range(A.base.n) if p in g)
                        rhs = holds_in_extension(shape, univ, g.mask,
                                                 constants=[x, y])
                        assert lhs == rhs

    def test_forcing_agrees_with_truth_in_every_extension(self):
        # p forces f  iff  f holds in the extension of every generic
        # containing p, swept over all conditions and atomic shapes
        shapes = [parse_formula(t) for t in ("$0 in $1", "$0 = $1",
                                             "!($0 = $1)")]
        for poset in all_posets_with_top(3):
            A = ro_algebra(poset)
            univ = name_universe(A, 1)
            generics = enumerate_generics(A.base)
            for x, y in itertools.product(univ.names, repeat=2):
                for shape in shapes:
                    sess = TruthSession(univ, [x, y])
                    value = sess.value(shape)
                    for p in range(A.base.n):
                        lhs = not A.base.principal_cut(p) & ~A.cut(value)
                        rhs = all(holds_in_extension(shape, univ, g.mask,
                                                     constants=[x, y])
                                  for g in generics if p in g)
                        assert lhs == rhs

    def test_existential_truth_lemma(self):
        f = parse_formula("exists v (v in $0)")
        for poset in all_posets_with_top(3):
            A = ro_algebra(poset)
            univ = name_universe(A, 1)
            generics = enumerate_generics(A.base)
            for x in univ.names:
                s = TruthSession(univ, [x])
                value = s.value(f)
                for g in generics:
                    lhs = bool(value & g.mask)
                    rhs = holds_in_extension(f, univ, g.mask, constants=[x])
                    assert lhs == rhs


def _reference_member(A, x, y):
    """||x in y|| straight from the clause, unmemoized, through A's ops."""
    return A.sum(A.meet(_reference_equal(A, t, x), v) for t, v in y.entries)


def _reference_equal(A, x, y):
    """||x = y|| straight from the clause, unmemoized, through A's ops."""
    left = A.product(A.join(A.complement(v), _reference_member(A, t, y))
                     for t, v in x.entries)
    right = A.product(A.join(A.complement(v), _reference_member(A, t, x))
                      for t, v in y.entries)
    return A.meet(left, right)


class TestInterning:
    """Names are hash-consed per algebra; memos key on their uids."""

    def test_rebuilt_universe_names_are_the_same_objects(self):
        _, A, _, _ = _algebra_with_named_cuts()
        first, again = name_universe(A, 2), name_universe(A, 2)
        assert all(x is y for x, y in zip(first.names, again.names))
        assert len({n.uid for n in first.names}) == len(first.names)

    def test_check_and_mixed_names_are_the_same_objects(self):
        P, A, _, _ = _algebra_with_named_cuts()
        gens = enumerate_generics(P)
        for x in rank_segment(3):
            assert check_name(x, A) is check_name(x, A, {})

        def mixed():
            return mix_name([(gens[0].atom, check_name(numeral(2), A)),
                             (gens[1].atom, element_name(1, A))], A)
        assert mixed() is mixed()
        assert make_name([(empty_name(A), A.one)], A) is check_name(hfset(EMPTY), A)

    def test_pi_second_images_are_the_same_objects(self):
        it = build_iteration(TableProvider([{(): antichain_with_top(2)},
                                            {(0,): antichain_with_top(2),
                                             (1,): antichain_with_top(2)}]))
        ctx = make_context(it, 1, 0)
        # a copy of the level starts with an empty pi_second memo, so it
        # builds every image again over the same quotient algebra
        fresh = dataclasses.replace(ctx.levels[2])
        copy = dataclasses.replace(ctx, levels={**ctx.levels, 2: fresh})
        names = working_universe(ctx.source_algebras[2], 2).names
        assert all(ctx.pi_second(2, n) is copy.pi_second(2, n) for n in names)

    def test_foreign_element_raises_on_first_and_repeat_builds(self):
        _, A, ua, _ = _algebra_with_named_cuts()
        e = empty_name(A)
        foreign = A.one + 1
        assert foreign not in A
        for _ in range(2):
            with pytest.raises(AlgebraError):
                Name([(e, foreign)], A)
        make_name([(e, ua)], A)
        with pytest.raises(AlgebraError):
            make_name([(e, ua), (e, foreign)], A)

    def test_names_over_two_algebras_of_one_poset_compare_by_key(self):
        P = antichain_with_top(2)
        A, B = ro_algebra(P), ro_algebra(P)
        over_a, over_b = name_universe(A, 2).names, name_universe(B, 2).names
        for x, y in zip(over_a, over_b):
            assert x is not y and x == y and hash(x) == hash(y)
        assert len(set(over_a) | set(over_b)) == len(over_a)
        # a sub-name from the other algebra is rebuilt in this one
        nm = Name([(over_b[5], A.one)], A)
        assert nm.entries[0][0] is over_a[5]
        assert nm is Name([(over_a[5], A.one)], A)

    def test_memoized_atomic_values_match_the_unmemoized_clauses(self):
        checked = 0
        for poset in all_posets_with_top(4):
            if not is_separative(poset):
                continue
            A = ro_algebra(poset)
            univ = sampled_universe(A, 2, cap=40)
            sess = TruthSession(univ)
            for x, y in itertools.product(univ.names, repeat=2):
                assert sess.member_value(x, y) == _reference_member(A, x, y)
                assert sess.equal_value(x, y) == _reference_equal(A, x, y)
                checked += 1
        assert checked > 0
