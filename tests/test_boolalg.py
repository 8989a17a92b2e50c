import collections
import itertools
import random

import pytest

from forcinglab.boolalg import (AlgebraError, BoolAlgebra,
                                boolean_law_violations,
                                certify_complete_hom, check_complete_hom,
                                dense_embedding_violations, ro_algebra)
from forcinglab.config import DEFAULT_CAPS, CapExceeded
from forcinglab.iteration import TableProvider, build_iteration
from forcinglab.poset import (all_separative_posets, antichain_with_top,
                              chain_poset, complement_cut, is_regular_cut,
                              point_poset, regularize)

from algebra_oracle import cut_of_atom_set, fake_binary_witnesses, flags


class TestRoAlgebra:
    def test_antichain_two_atoms_gives_four_cuts(self):
        A = ro_algebra(antichain_with_top(2))
        assert len(A) == 4
        a = A.principal(A.base.labels.index("a"))
        b = A.principal(A.base.labels.index("b"))
        assert set(A.elements) == {A.zero, a, b, A.one}

    def test_single_point_gives_two(self):
        assert len(ro_algebra(point_poset())) == 2

    def test_antichain_sizes_are_powers_of_two(self):
        for k in range(1, 5):
            assert len(ro_algebra(antichain_with_top(k))) == 2 ** k

    def test_non_separative_input_is_quotiented_and_reported(self):
        A = ro_algebra(chain_poset(3))
        assert A.original is not None
        assert A.quotient_map is not None
        assert A.base.n == 1 and len(A) == 2

    def test_size_cap(self):
        # the cap bounds the listing of the elements, not the algebra
        A = ro_algebra(antichain_with_top(4), max_base=3)
        assert len(A) == 16 and A.one in A
        with pytest.raises(CapExceeded, match="poset has 4 atoms, above "
                           "the algebra enumeration bound 3"):
            A.elements


    def test_a_13_atom_algebra_computes_on_its_atoms(self):
        # above the default cap of 12 atoms, everything but the listing of
        # the elements works on the atom mask
        P = antichain_with_top(13)
        A = ro_algebra(P)
        x = 0b1011001110001
        assert len(A) == 1 << 13
        assert x in A and A.one in A and 1 << P.top not in A
        assert A.cut(x) == cut_of_atom_set(x, P) == x
        assert A.cut(A.one) == P.full_mask
        with pytest.raises(AlgebraError):
            A.cut(1 << P.top)
        assert A.principal(P.top) == A.one and A.principal(4) == 1 << 4
        assert A.leq(A.principal(4), x) and not A.leq(A.principal(1), x)
        for listing in ("elements", "nonzero"):
            with pytest.raises(CapExceeded, match="poset has 13 atoms, above "
                               "the algebra enumeration bound 12"):
                getattr(A, listing)


class TestProductSum:
    def setup_method(self):
        self.A = ro_algebra(antichain_with_top(2))
        base = self.A.base
        self.ua = self.A.principal(base.labels.index("a"))
        self.ub = self.A.principal(base.labels.index("b"))

    def test_product_idempotent(self):
        assert self.A.product([self.ua, self.ua]) == self.ua

    def test_product_with_zero(self):
        assert self.A.product([self.A.zero, self.ua]) == self.A.zero

    def test_product_of_the_two_atoms_is_zero(self):
        assert self.A.product([self.ua, self.ub]) == self.A.zero

    def test_empty_product_is_one(self):
        assert self.A.product([]) == self.A.one

    def test_sum_of_the_two_atoms_is_one(self):
        assert self.A.sum([self.ua, self.ub]) == self.A.one

    def test_singleton_sum(self):
        assert self.A.sum([self.ua]) == self.ua

    def test_sum_of_zero(self):
        assert self.A.sum([self.A.zero]) == self.A.zero

    def test_foreign_cut_rejected(self):
        with pytest.raises(AlgebraError):
            self.A.sum([0b101010])

    def test_foreign_cut_rejected_by_product(self):
        with pytest.raises(AlgebraError, match="0x2a is not an element"):
            self.A.product([self.ua, 0b101010])

    def test_family_ops_agree_with_binary_folds(self):
        for p in all_separative_posets(5):
            A = ro_algebra(p)
            for fam in itertools.combinations(A.elements, 3):
                want_meet = A.meet(A.meet(fam[0], fam[1]), fam[2])
                want_join = A.join(A.join(fam[0], fam[1]), fam[2])
                assert A.product(fam) == want_meet
                assert A.sum(fam) == want_join


class LeftMeet(BoolAlgebra):
    def meet(self, a, b):
        return a


class LeftJoin(BoolAlgebra):
    def join(self, a, b):
        return a


class NandMeet(BoolAlgebra):
    def meet(self, a, b):
        return self.one ^ (a & b)


class NorJoin(BoolAlgebra):
    def join(self, a, b):
        return self.one ^ (a | b)


class ZeroComplement(BoolAlgebra):
    def complement(self, a):
        return 0


class TopPrincipal(BoolAlgebra):
    def principal(self, p):
        return self.one


# each algebra with one wrong operation, and the laws it breaks
BROKEN_LAWS = {
    LeftMeet: {"complement-meet", "meet-commutativity", "de-morgan-meet",
               "de-morgan-join"},
    LeftJoin: {"complement-join", "join-commutativity", "de-morgan-meet",
               "de-morgan-join"},
    NandMeet: {"complement-meet", "meet-associativity", "distributivity",
               "absorption-meet", "absorption-join", "de-morgan-meet",
               "de-morgan-join"},
    NorJoin: {"complement-join", "join-associativity", "distributivity",
              "absorption-meet", "absorption-join", "de-morgan-meet",
              "de-morgan-join"},
    ZeroComplement: {"double-complement", "complement-join"},
    TopPrincipal: set(),
}


class TestLawSuite:
    def test_all_small_separative_algebras_satisfy_the_laws(self):
        for p in all_separative_posets(5):
            A = ro_algebra(p)
            assert boolean_law_violations(A) == []
            assert dense_embedding_violations(A) == []

    @pytest.mark.parametrize("broken", BROKEN_LAWS, ids=lambda c: c.__name__)
    def test_a_wrong_operation_breaks_its_laws(self, broken):
        A = broken(antichain_with_top(2))
        assert {v[0] for v in boolean_law_violations(A)} == BROKEN_LAWS[broken]

    def test_every_law_has_a_known_bad(self):
        assert set().union(*BROKEN_LAWS.values()) == {
            "double-complement", "complement-meet", "complement-join",
            "meet-commutativity", "join-commutativity", "de-morgan-meet",
            "de-morgan-join", "absorption-meet", "absorption-join",
            "meet-associativity", "join-associativity", "distributivity"}

    def test_a_zero_complement_names_each_failing_element(self):
        A = ZeroComplement(antichain_with_top(2))
        assert boolean_law_violations(A) == [
            ("complement-join", 0), ("double-complement", 1),
            ("complement-join", 1), ("double-complement", 2),
            ("complement-join", 2), ("double-complement", 3)]

    def test_principals_at_the_top_are_not_dense(self):
        # only one lies above a principal element, so every other nonzero
        # element is flagged
        A = TopPrincipal(antichain_with_top(2))
        assert dense_embedding_violations(A) == [1, 2]
        assert dense_embedding_violations(ro_algebra(A.base)) == []


class TestCompleteHom:
    def setup_method(self):
        self.A = ro_algebra(antichain_with_top(2))

    def test_identity_is_a_complete_hom(self):
        rep = check_complete_hom({c: c for c in self.A.elements},
                                 self.A, self.A)
        assert rep.ok
        assert rep.counterexamples == []
        assert rep.families_checked == 16

    def test_constant_one_breaks_complement_at_zero(self):
        rep = check_complete_hom({c: self.A.one for c in self.A.elements},
                                 self.A, self.A)
        assert not rep.preserves_complement
        kinds = {c[0] for c in rep.counterexamples}
        assert "complement" in kinds
        complement_hits = [c for c in rep.counterexamples if c[0] == "complement"]
        assert any(c[1] == (self.A.zero,) for c in complement_hits)

    def test_flags_imply_empty_lists(self):
        rep = check_complete_hom({c: c for c in self.A.elements},
                                 self.A, self.A)
        assert rep.preserves_all_products and rep.preserves_all_sums
        assert rep.violation_count == 0

    def test_family_cap(self):
        big = ro_algebra(antichain_with_top(4), max_base=12)
        with pytest.raises(CapExceeded):
            check_complete_hom({c: c for c in big.elements}, big, big,
                               family_cap=8)

    def test_foreign_image_rejected(self):
        with pytest.raises(AlgebraError, match="of the target algebra"):
            check_complete_hom({x: 1 << 10 for x in self.A.elements},
                               self.A, self.A)

    def test_atom_collapse_breaks_sums(self):
        # send both atoms to the same atom: the sum of the two atoms lands
        # strictly below one
        base = self.A.base
        ua = self.A.principal(base.labels.index("a"))
        ub = self.A.principal(base.labels.index("b"))
        h = {self.A.zero: self.A.zero, ua: ua, ub: ua, self.A.one: self.A.one}
        rep = check_complete_hom(h, self.A, self.A)
        assert not rep.ok
        assert not rep.preserves_all_sums or not rep.preserves_complement


class TestCertificate:
    """Oracle: the cap-free certificate against the subfamily fold."""

    def test_agrees_with_the_fold_on_every_small_map(self):
        # every map h: A -> B, A with at most 2 atoms and B with at most 3
        algebras = [ro_algebra(p) for p in all_separative_posets(5)]
        verdicts = set()
        for A in (a for a in algebras if len(a.base.atoms) <= 2):
            for B in (b for b in algebras if len(b.base.atoms) <= 3):
                for images in itertools.product(B.elements, repeat=len(A)):
                    h = dict(zip(A.elements, images))
                    fold = check_complete_hom(h, A, B)
                    cert = certify_complete_hom(h, A, B)
                    got = [(r.ok, *flags(r)) for r in (fold, cert)]
                    assert got[0] == got[1], (A.base, B.base, h)
                    assert fake_binary_witnesses(cert, h) == [], h
                    verdicts.add(got[0])
        # the sweep holds homomorphisms and maps failing each way
        assert len(verdicts) >= 4
        assert any(v[0] for v in verdicts) and any(not v[2] for v in verdicts)
        assert any(v[2] and not v[3] for v in verdicts)

    def test_agrees_with_the_fold_on_seeded_three_atom_maps(self):
        # 2,000 maps from 3-atom sources into algebras of at most 3 atoms:
        # the odd ones at random, the even ones a homomorphism (each target
        # atom placed in one source atom's image) with one entry changed
        algebras = [ro_algebra(p) for p in all_separative_posets(5)]
        sources = [a for a in algebras if len(a.base.atoms) == 3]
        targets = [b for b in algebras if len(b.base.atoms) <= 3]
        rng = random.Random(31)
        verdicts = collections.Counter()
        for i in range(2000):
            A, B = rng.choice(sources), rng.choice(targets)
            if i % 2:
                h = {x: rng.choice(B.elements) for x in A.elements}
            else:
                owner = {b: rng.choice(A.base.atoms) for b in B.base.atoms}
                h = {x: sum(1 << b for b, a in owner.items() if x >> a & 1)
                     for x in A.elements}
                assert certify_complete_hom(h, A, B).ok, h
                x = rng.choice(A.elements)
                h[x] = rng.choice([v for v in B.elements if v != h[x]])
            fold = check_complete_hom(h, A, B)
            cert = certify_complete_hom(h, A, B)
            assert (cert.ok, *flags(cert)) == (fold.ok, *flags(fold)), \
                (A.base, B.base, h)
            assert fake_binary_witnesses(cert, h) == [], (A.base, B.base, h)
            verdicts[i % 2, flags(cert)] += 1
        assert sum(verdicts.values()) == 2000
        # a one-entry change breaks a homomorphism, each flag somewhere
        assert not any(v == (True,) * 4 for half, v in verdicts if half == 0)
        for i in range(4):
            assert any(not v[i] for half, v in verdicts if half == 0)

    def test_no_cap(self):
        # 64 elements: the fold would need 2^64 families
        big = ro_algebra(antichain_with_top(6))
        rep = certify_complete_hom({x: x for x in big.elements}, big, big)
        assert rep.ok and rep.families_checked == 1 + 64 * 63 // 2

    def test_constant_one_keeps_products_but_not_complement(self):
        A = ro_algebra(antichain_with_top(2))
        rep = certify_complete_hom({x: A.one for x in A.elements}, A, A)
        assert rep.preserves_all_products and not rep.preserves_complement
        assert not rep.ok
        assert ("complement", (A.zero,), A.zero, A.one) in rep.counterexamples

    def test_atom_collapse_fails_sums_at_a_partial_join_and_an_atom(self):
        # both atoms go to a: one splits at its lowest atom a into b and a,
        # whose images join to a, not to one; zero splits at its lowest
        # missing atom a into a and the coatom b, whose images meet in a
        A = ro_algebra(antichain_with_top(2))
        ua = A.principal(A.base.labels.index("a"))
        ub = A.principal(A.base.labels.index("b"))
        assert ua < ub and A.one == ua | ub
        h = {A.zero: A.zero, ua: ua, ub: ua, A.one: A.one}
        rep = certify_complete_hom(h, A, A)
        assert not rep.preserves_all_sums and not rep.preserves_all_products
        assert rep.counterexamples == [
            ("complement", (ua,), ub, ua), ("complement", (ub,), ub, ua),
            ("product", (ua, ub), ua, A.zero), ("sum", (ub, ua), ua, A.one)]
        assert rep.violation_count == 4
        assert fake_binary_witnesses(rep, h) == []

    def test_violations_count_failing_elements_per_kind(self):
        # the zero-one swap on two atoms keeps complement and every atom;
        # every element but one fails its meet split and every element but
        # zero its join split, one violation per failing split
        A = ro_algebra(antichain_with_top(2))
        ua = A.principal(A.base.labels.index("a"))
        ub = A.principal(A.base.labels.index("b"))
        h = {x: x for x in A.elements}
        h[A.zero], h[A.one] = A.one, A.zero
        rep = certify_complete_hom(h, A, A)
        assert rep.preserves_complement
        assert rep.counterexamples == [
            ("zero", (A.zero,), A.zero, A.one),
            ("one", (A.one,), A.one, A.zero),
            ("product", (ua, ub), A.zero, A.one),
            ("product", (A.one, ua), A.zero, ua),
            ("sum", (A.zero, ua), A.one, ua),
            ("product", (A.one, ub), A.zero, ub),
            ("sum", (A.zero, ub), A.one, ub),
            ("sum", (ub, ua), A.one, A.zero)]
        assert rep.violation_count == 8
        assert fake_binary_witnesses(rep, h) == []

    def test_foreign_image_rejected(self):
        A = ro_algebra(antichain_with_top(2))
        with pytest.raises(AlgebraError):
            certify_complete_hom({x: 1 << 10 for x in A.elements}, A, A)


class TestAtomSetRepresentation:
    """Oracle: the atom-set elements against the cut calculus of poset.py."""

    @staticmethod
    def algebras():
        for p in all_separative_posets(5):
            yield ro_algebra(p)
        A2 = antichain_with_top(2)
        worked = build_iteration(TableProvider([{(): A2}, {(0,): A2, (1,): A2}]))
        for stage in worked.stages:
            yield ro_algebra(stage.poset)

    def test_cut_is_an_ascending_bijection_onto_the_regular_cuts(self):
        for A in self.algebras():
            cuts = [A.cut(x) for x in A.elements]
            regular = [u for u in range(1 << A.base.n) if is_regular_cut(u, A.base)]
            assert cuts == regular

    def test_cut_commutes_with_the_operations(self):
        for A in self.algebras():
            base = A.base
            for p in range(base.n):
                assert A.cut(A.principal(p)) == base.principal_cut(p)
            for x in A.elements:
                assert A.cut(A.complement(x)) == complement_cut(A.cut(x), base)
                for y in A.elements:
                    assert A.cut(A.meet(x, y)) == A.cut(x) & A.cut(y)
                    assert A.cut(A.join(x, y)) == regularize(A.cut(x) | A.cut(y), base)

    def test_cuts_are_the_atom_set_oracle(self, default_sweep):
        # the computed cuts and the oracle's, read element by element, on
        # the small algebras and on every stage algebra of the acceptance
        # sweep
        stages = (ro_algebra(it.stages[beta].poset,
                             max_base=DEFAULT_CAPS.algebra_max_base)
                  for _, it in default_sweep for beta in range(len(it) + 1))
        checked = 0
        for A in itertools.chain(self.algebras(), stages):
            for x in A.elements:
                assert A.cut(x) == cut_of_atom_set(x, A.base)
            checked += 1
        assert checked > 300
