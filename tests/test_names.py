import itertools
import os
import resource
import subprocess
import sys

import pytest

import forcinglab
from forcinglab.boolalg import AlgebraError, ro_algebra
from forcinglab.config import replace
from forcinglab.formula import FormulaError, parse_formula
from forcinglab.generic import enumerate_generics, forces
from forcinglab.hfset import (EMPTY, HFSet, chain, element_code,
                              encode_function, kpair, kpair_value,
                              numeral, numeral_value, rank_segment,
                              transitive_closure)
from forcinglab.iteration import TableProvider, build_iteration
from forcinglab.names import (Name, NameUniverse, TruthSession,
                              UniverseCapExceeded, check_name, evaluate,
                              holds_in_extension, mix_name,
                              name_text, name_universe, pair_name,
                              sampled_universe, truth_value, universe_size)
from forcinglab.poset import (Poset, PosetError, all_posets_with_top,
                              antichain_with_top, chain_poset, is_separative,
                              point_poset)
from forcinglab.projection import make_context

import algebra_oracle
from tail_oracle import element_code_value, element_name


class TestHFSet:
    def test_interning(self):
        assert HFSet([EMPTY]) is HFSet([EMPTY])
        assert HFSet([EMPTY, EMPTY]) is HFSet([EMPTY])

    def test_rank(self):
        assert EMPTY.rank == 0
        assert HFSet([EMPTY]).rank == 1
        assert numeral(3).rank == 3

    def test_only_the_empty_set_is_false(self):
        # truth is the member count
        assert not EMPTY
        assert HFSet([EMPTY]) and len(numeral(3)) == 3

    def test_numerals_roundtrip(self):
        for k in range(6):
            assert numeral_value(numeral(k)) == k
        assert numeral_value(HFSet([HFSet([EMPTY])])) is None

    def test_element_codes_roundtrip(self):
        # a set is an element code when its members are distinct chains of
        # length below 6; the id sets bit i for the chain of length i
        chains = {chain(i): i for i in range(6)}

        def by_definition(x):
            if not all(m in chains for m in x.members):
                return None
            return sum(1 << chains[m] for m in x.members)

        for e in range(64):
            assert element_code(e) is element_code(e)
            assert element_code_value(element_code(e)) == e
        others = list(rank_segment(4)) + [numeral(k) for k in range(6)] + [
            HFSet([chain(5)]), kpair(EMPTY, chain(2)), HFSet([numeral(3)])]
        assert any(by_definition(x) is None for x in others)
        for x in others:
            assert element_code_value(x) == by_definition(x), x
        for e in (-1, 64):
            with pytest.raises(ValueError):
                element_code(e)

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
        e = Name((), A)
        assert Name([(e, A.zero)], A) == Name((), A)

    def test_duplicate_subnames_merge_by_join(self):
        _, A, ua, ub = _algebra_with_named_cuts()
        e = Name((), A)
        merged = Name([(e, ua), (e, ub)], A)
        assert merged == Name([(e, A.one)], A)

    def test_text_writes_each_element_as_its_cut(self):
        P, A, ua, _ = _algebra_with_named_cuts()
        e = Name((), A)
        nm = Name([(Name([(e, A.one)], A), ua)], A)
        assert A.cut(A.one) == (1 << P.n) - 1 != A.one
        assert name_text(nm, A) == \
            "{({({},%#x)},%#x)}" % (A.cut(A.one), A.cut(ua))

    def test_repr_writes_each_element_as_its_atom_set(self):
        _, A, ua, _ = _algebra_with_named_cuts()
        e = Name((), A)
        nm = Name([(Name([(e, A.one)], A), ua)], A)
        assert repr(e) == "{}"
        assert repr(nm) == "{({({},%#x)},%#x)}" % (A.one, ua)

    def test_rank(self):
        _, A, ua, _ = _algebra_with_named_cuts()
        e = Name((), A)
        y = Name([(e, ua)], A)
        assert e.rank == 0 and y.rank == 1

    def test_a_rank1_name_builds_over_the_algebra_cap(self, fresh_orders):
        # an entry is keyed by its element's cut, read from the order's
        # memo, so the rank-1 witness {(empty, b)} over a 13-atom algebra
        # lists none of the 2^13 elements; its text is Theorem 16's
        A = ro_algebra(antichain_with_top(13))
        b = 0b1011001110001
        nm = Name([(Name((), A), b)], A)
        assert A.base._order.ascending is None
        assert nm.key == (((), A.cut(b)),)
        assert name_text(nm, A) == f"{{({{}},{A.cut(b):#x})}}"

    def test_cut_keys_order_names_as_element_positions_did(
            self, default_sweep):
        # on every stage algebra of the acceptance sweep, sorting a sample
        # of names by their cut keys gives the same order as keys holding
        # each element's position in the ascending listing of the cuts
        orders = {stage.poset.below: stage.poset
                  for _, it in default_sweep for stage in it.stages}
        checked = 0
        for poset in orders.values():
            A = ro_algebra(poset)
            position = {x: i for i, x in enumerate(
                algebra_oracle.cut_table_by_elements(poset)[1])}

            def old_key(name):
                return tuple((old_key(sub), position[x])
                             for sub, x in name.entries)

            names = sampled_universe(A, 2, cap=300).names
            assert sorted(names, key=lambda n: n.key) == \
                sorted(names, key=old_key)
            checked += len(names)
        assert (len(orders), checked) == (41, 11960)


class TestCheckName:
    def test_empty(self):
        _, A, _, _ = _algebra_with_named_cuts()
        assert check_name(EMPTY, A) == Name((), A)

    def test_singleton(self):
        _, A, _, _ = _algebra_with_named_cuts()
        got = check_name(HFSet([EMPTY]), A)
        assert got == Name([(Name((), A), A.one)], A)

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

    def test_a_13_atom_universe_is_sized_without_listing(self, fresh_orders):
        # each entry is absent or one of the 2^13 - 1 nonzero elements
        A = ro_algebra(antichain_with_top(13))
        assert universe_size(A, 1, 4096) == 1 << 13
        with pytest.raises(UniverseCapExceeded, match="universe of rank 1 "
                           "has 8192 names, above the cap 4096"):
            name_universe(A, 1)
        assert A.base._order.ascending is None

    def test_a_tower_is_compared_with_the_cap_layer_by_layer(self):
        # 4 atoms: 16 elements, so rank 2 already has 16 ** 16 names and
        # rank 3 has 16 ** (16 ** 16), a number no machine can write; the
        # size stops at the first rank above the cap.  The call runs in a
        # child with a timeout and a 1 GB address-space limit, so that
        # computing the tower fails this test rather than stalling the
        # suite or filling the memory
        code = """
from forcinglab.boolalg import ro_algebra
from forcinglab.names import UniverseCapExceeded, name_universe, sampled_universe
from forcinglab.poset import antichain_with_top
A = ro_algebra(antichain_with_top(4))
u = sampled_universe(A, 3, cap=100)
print(len(u), u.exhaustive)
try:
    name_universe(A, 3, cap=100)
except UniverseCapExceeded as e:
    print(e)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.dirname(os.path.dirname(forcinglab.__file__)),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True, preexec_fn=lambda: resource.setrlimit(
                                  resource.RLIMIT_AS, (1 << 30, 1 << 30)))
        assert proc.stdout.splitlines() == [
            "100 False",
            "universe of rank 3 has more than 18446744073709551616 names, "
            "above the cap 100"]
        # where the size is computed, the message gives it
        with pytest.raises(UniverseCapExceeded, match="universe of rank 2 has "
                           "18446744073709551616 names, above the cap 100"):
            name_universe(ro_algebra(antichain_with_top(4)), 2, cap=100)

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
        self.y = Name([(self.echk, self.ua)], self.A)

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

    def test_value_refuses_a_term_it_cannot_read(self):
        past = len(self.univ)
        with pytest.raises(FormulaError, match=fr"constant \${past} outside "
                                               "the active universe"):
            self.sess.value(parse_formula(f"${past} in $0"))
        with pytest.raises(FormulaError,
                           match=r"constant \$1 outside the supplied tuple"):
            self.sess.with_constants([self.y]).value(parse_formula("$1 in $0"))
        with pytest.raises(FormulaError,
                           match="open formula: unbound variable 'x'"):
            self.sess.value(parse_formula("x in $0"))

    def test_value_refuses_a_non_formula(self):
        term = parse_formula("$0 in $0").left
        with pytest.raises(TypeError, match="^not a formula: "):
            self.sess.value(term)

    def test_implication_is_the_join_of_its_negated_premise(self):
        # a -> b against !a | b at every triple of a rank-1 universe, and
        # against the values of a and b themselves
        univ = name_universe(self.A, 1)
        sess = TruthSession(univ)
        A = self.A
        k = len(univ.names)
        checked = set()
        for i, j, m in itertools.product(range(k), repeat=3):
            a, b = f"${i} in ${j}", f"${j} = ${m}"
            implied = sess.value(parse_formula(f"{a} -> {b}"))
            assert implied == sess.value(parse_formula(f"!{a} | {b}")) == \
                A.join(A.complement(sess.value(parse_formula(a))),
                       sess.value(parse_formula(b)))
            checked.add(implied)
        assert len(checked) > 2

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
        self.y = Name([(check_name(EMPTY, self.A), self.ua)], self.A)

    def test_empty_name(self):
        for g in self.gens:
            assert evaluate(Name((), self.A), g.mask) == EMPTY

    def test_cut_meets_filter(self):
        ga = next(g for g in self.gens if g.atom == self.P.labels.index("a"))
        gb = next(g for g in self.gens if g.atom == self.P.labels.index("b"))
        assert evaluate(self.y, ga.mask) == HFSet([EMPTY])
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
        self.y = Name([(check_name(EMPTY, self.A), self.ua)], self.A)
        self.iy = self.univ.names.index(self.y)

    def test_top_forces_reflexivity(self):
        f = parse_formula("$0 = $0")
        assert forces(self.P.top, f, self.univ)

    def test_only_the_matching_atom_forces_membership(self):
        zero = self.univ.names.index(Name((), self.A))
        f = parse_formula(f"${zero} in ${self.iy}")
        assert forces(self.a, f, self.univ)
        assert not forces(self.b, f, self.univ)
        assert not forces(self.P.top, f, self.univ)

    def test_a_condition_outside_the_poset_is_refused(self):
        # a negative index would read the cone of the condition it wraps
        # to: -3 is element 0 of the three
        f = parse_formula("$0 in $1")
        univ = name_universe(ro_algebra(antichain_with_top(2)), 1)
        for p in (-3, -1, 3):
            with pytest.raises(PosetError, match=f"condition {p} is outside "
                               "the poset of 3 conditions"):
                forces(p, f, univ)

    def test_a_quotiented_poset_refuses_a_condition_outside_it(self):
        # conditions index the original poset, two of them, whose quotient
        # is the one-point poset
        P = chain_poset(2)
        univ = name_universe(ro_algebra(P), 1)
        assert univ.algebra.quotient_map == (0, 0)
        f = parse_formula("$0 = $0")
        assert all(forces(p, f, univ) for p in range(P.n))
        for p in (-1, -2, 2):
            with pytest.raises(PosetError, match=f"condition {p} is outside "
                               "the poset of 2 conditions"):
                forces(p, f, univ)


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
                assert element_code_value(evaluate(nm, g.mask)) == e


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
        assert Name([(Name((), A), A.one)], A) is check_name(HFSet([EMPTY]), A)

    def test_pi_second_images_are_the_same_objects(self):
        it = build_iteration(TableProvider([{(): antichain_with_top(2)},
                                            {(0,): antichain_with_top(2),
                                             (1,): antichain_with_top(2)}]))
        ctx = make_context(it, 1, 0)
        # a copy of the level starts with an empty pi_second memo, so it
        # builds every image again over the same quotient algebra
        fresh = replace(ctx.levels[2])
        copy = replace(ctx, levels={**ctx.levels, 2: fresh})
        names = sampled_universe(ctx.source_algebras[2], 2).names
        assert all(ctx.pi_second(2, n) is copy.pi_second(2, n) for n in names)

    def test_foreign_element_raises_on_first_and_repeat_builds(self):
        _, A, ua, _ = _algebra_with_named_cuts()
        e = Name((), A)
        foreign = A.one + 1
        assert foreign not in A
        for _ in range(2):
            with pytest.raises(AlgebraError):
                Name([(e, foreign)], A)
        Name([(e, ua)], A)
        with pytest.raises(AlgebraError):
            Name([(e, ua), (e, foreign)], A)

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

    def test_algebras_of_one_order_share_tables_not_names(self):
        P = antichain_with_top(2)
        A, B = ro_algebra(P), ro_algebra(Poset(list(P.below), P.top))
        # the cuts and their listing are one memo entry for the relation
        # matrix
        assert A.base.cuts is B.base.cuts and A.elements is B.elements
        assert A.name_tag is not B.name_tag
        e = Name((), A)
        nm = Name([(e, A.one)], A)
        assert nm.tag is A.name_tag and list(A.name_table.values()) == [e, nm]
        assert not B.name_table
        # a name over A is rebuilt in B, not interned there
        rebuilt = Name([(nm, B.one)], B)
        assert rebuilt.entries[0][0] is not nm and rebuilt.entries[0][0] == nm
        assert all(x.tag is B.name_tag for x in B.name_table.values())
        assert list(A.name_table.values()) == [e, nm]

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
