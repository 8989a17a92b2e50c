import pytest
from hypothesis import given, settings, strategies as st

from forcinglab.poset import (CanonicalFormError, Poset, PosetError,
                              all_posets_with_top, all_separative_posets,
                              antichain_with_top,
                              chain_poset, complement_cut, diamond_poset,
                              is_dense_below, is_regular_cut, is_separative,
                              point_poset, product_poset, regularize,
                              separative_quotient, separativity_witness,
                              validate_poset, _mask_bits)

from forcinglab import poset as poset_module

from generation_oracle import automorphisms_by_search, canonical_key_by_search
from order_oracle import (compat_by_pairs, product_by_pairs,
                          separativity_witness_by_pairs)


def relabel(poset, perm):
    """Copy of poset with element p renamed perm[p]."""
    below = [0] * poset.n
    labels = [""] * poset.n
    for p in range(poset.n):
        for q in _mask_bits(poset.below[p]):
            below[perm[p]] |= 1 << perm[q]
        labels[perm[p]] = poset.labels[p]
    return Poset(below, perm[poset.top], labels)


def naive_separative(poset):
    """Straight transcription of the definition, independent of the bitmask
    implementation: p not<= q implies some r <= p is incompatible with q."""
    n = poset.n
    leq = [[poset.leq(p, q) for q in range(n)] for p in range(n)]

    def compat(x, y):
        return any(leq[r][x] and leq[r][y] for r in range(n))

    for p in range(n):
        for q in range(n):
            if leq[p][q]:
                continue
            if not any(leq[r][p] and not compat(r, q) for r in range(n)):
                return False
    return True


class TestValidatePoset:
    def test_two_atoms_under_top(self):
        p = validate_poset(["1", "a", "b"], [("a", "1"), ("b", "1")], "1")
        assert p.n == 3
        a, b = p.labels.index("a"), p.labels.index("b")
        assert p.incompatible(a, b)

    def test_cycle_is_rejected(self):
        with pytest.raises(PosetError, match="cycle"):
            validate_poset(["1", "a"], [("a", "1"), ("1", "a")], "1")

    def test_diamond(self):
        p = validate_poset(["1", "a", "b", "c"],
                           [("c", "a"), ("c", "b"), ("a", "1"), ("b", "1")], "1")
        c, one = p.labels.index("c"), p.labels.index("1")
        assert p.leq(c, one)  # transitive closure filled in

    def test_top_must_dominate(self):
        with pytest.raises(PosetError, match="top"):
            validate_poset(["1", "a", "b"], [("a", "1")], "1")

    def test_dangling_id(self):
        with pytest.raises(PosetError, match="dangling"):
            validate_poset(["1", "a"], [("z", "1")], "1")


class TestSeparativity:
    def test_antichain_is_separative(self):
        assert is_separative(antichain_with_top(2))

    def test_chain_is_not(self):
        assert not is_separative(chain_poset(2))

    def test_diamond_is_not(self):
        assert not is_separative(diamond_poset())

    def test_matches_naive_definition_exhaustively(self):
        for p in all_posets_with_top(5):
            assert is_separative(p) == naive_separative(p)

    def test_witness_is_the_first_failing_pair(self):
        for p in all_posets_with_top(5):
            pairs = [(x, y) for x in range(p.n) for y in range(p.n)
                     if not p.leq(x, y) and
                     all(not p.incompatible(r, y) for r in range(p.n) if p.leq(r, x))]
            assert separativity_witness(p) == (pairs[0] if pairs else None)

    def test_one_scan_per_poset(self, monkeypatch):
        p = chain_poset(3)
        witness = separativity_witness(p)
        monkeypatch.setattr(Poset, "leq", None)
        assert separativity_witness(p) == witness
        assert not is_separative(p)


class TestOrderKernels:
    """The bit-row kernels against their pairwise forms in order_oracle."""

    def test_compat_and_witness_equal_the_pairwise_oracle(self):
        posets = list(all_posets_with_top(6))
        assert len(posets) == 88
        for p in posets:
            assert p.compat == compat_by_pairs(p), p
            assert separativity_witness(p) == separativity_witness_by_pairs(p), p

    def test_product_equals_the_pairwise_oracle(self):
        posets = list(all_posets_with_top(4))
        for a in posets:
            for b in posets:
                got, tuples = product_poset([a, b])
                want, want_tuples = product_by_pairs([a, b])
                assert tuples == want_tuples
                assert (got.below, got.top, got.labels) == \
                    (want.below, want.top, want.labels), (a, b)

    def test_non_separative_component_gives_the_oracle_witness(self):
        components = [antichain_with_top(2), chain_poset(3)]
        got, _ = product_poset(components)
        want, _ = product_by_pairs(components)
        assert got.below == want.below
        witness = separativity_witness(got)
        assert witness is not None
        assert witness == separativity_witness_by_pairs(want)


class TestSeparativeQuotient:
    def test_separative_input_is_identity_up_to_relabeling(self):
        p = antichain_with_top(3)
        q, mapping = separative_quotient(p)
        assert q.n == p.n
        assert sorted(mapping) == list(range(p.n))

    def test_chain_collapses_to_a_point(self):
        q, mapping = separative_quotient(chain_poset(2))
        assert q.n == 1
        assert set(mapping) == {0}

    def test_diamond_collapses_to_a_point(self):
        q, mapping = separative_quotient(diamond_poset())
        assert q.n == 1

    def test_quotient_always_separative_and_order_preserving(self):
        for p in all_posets_with_top(6):
            q, mapping = separative_quotient(p)
            assert is_separative(q)
            assert mapping[p.top] == q.top
            for x in range(p.n):
                for y in range(p.n):
                    if p.leq(x, y):
                        assert q.leq(mapping[x], mapping[y])

    def test_classes_are_compatibility_classes(self):
        for p in all_posets_with_top(5):
            _, mapping = separative_quotient(p)
            for x in range(p.n):
                for y in range(p.n):
                    same = mapping[x] == mapping[y]
                    assert same == (p.compat[x] == p.compat[y])


@st.composite
def random_relation(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=8))
    return n, pairs


@given(random_relation())
@settings(max_examples=150, deadline=None)
def test_validate_then_quotient_is_separative(data):
    n, pairs = data
    labels = [str(i) for i in range(n)] + ["top"]
    all_pairs = [(str(a), str(b)) for a, b in pairs] + \
        [(str(i), "top") for i in range(n)]
    try:
        p = validate_poset(labels, all_pairs, "top")
    except PosetError:
        return  # cyclic draw
    q, _ = separative_quotient(p)
    assert is_separative(q)


class TestDenseBelow:
    def setup_method(self):
        self.p = antichain_with_top(2)
        self.a = self.p.labels.index("a")
        self.b = self.p.labels.index("b")

    def test_everything_is_dense_below_anything(self):
        assert is_dense_below(self.p.full_mask, self.p.top, self.p)

    def test_single_atom_not_dense_below_top(self):
        assert not is_dense_below(1 << self.a, self.p.top, self.p)

    def test_single_atom_dense_below_itself(self):
        assert is_dense_below(1 << self.a, self.a, self.p)

    def test_unknown_element_rejected(self):
        with pytest.raises(PosetError):
            is_dense_below(0, 99, self.p)


class TestCutCalculus:
    def setup_method(self):
        self.p = antichain_with_top(2)
        self.a = 1 << self.p.labels.index("a")
        self.b = 1 << self.p.labels.index("b")

    def test_complement_of_empty_is_everything(self):
        assert complement_cut(0, self.p) == self.p.full_mask

    def test_complement_of_atom_is_other_atom(self):
        assert complement_cut(self.a, self.p) == self.b

    def test_complement_of_everything_is_empty(self):
        assert complement_cut(self.p.full_mask, self.p) == 0

    def test_regularize_adds_top_above_both_atoms(self):
        assert regularize(self.a | self.b, self.p) == self.p.full_mask

    def test_regularize_of_empty(self):
        assert regularize(0, self.p) == 0

    def test_regularize_idempotent_everywhere(self):
        for p in all_posets_with_top(5):
            for mask in range(1 << p.n):
                if p.is_downward_closed(mask):
                    once = regularize(mask, p)
                    assert regularize(once, p) == once

    def test_double_complement_contains_cut_with_equality_iff_regular(self):
        for p in all_posets_with_top(5):
            for mask in range(1 << p.n):
                if not p.is_downward_closed(mask):
                    continue
                closed = complement_cut(complement_cut(mask, p), p)
                assert closed | mask == closed
                assert (closed == mask) == is_regular_cut(mask, p)

    def test_regularized_atoms_are_the_atoms_below_some_point(self):
        # an atom meets u's closure iff it lies below a point of u: the
        # identity that reads pi_prime off atom rows
        for p in all_separative_posets(5):
            for u in range(1 << p.n):
                below = 0
                for q in _mask_bits(u):
                    below |= p.atoms_below(q)
                assert regularize(u, p) & p.atom_mask == below

    def test_principal_cuts_regular_in_separative_posets(self):
        for p in all_separative_posets(6):
            for x in range(p.n):
                assert is_regular_cut(p.principal_cut(x), p)


class TestGeneration:
    def test_counts_with_top(self):
        counts = {}
        for p in all_posets_with_top(5):
            counts[p.n] = counts.get(p.n, 0) + 1
        assert counts == {1: 1, 2: 1, 3: 2, 4: 5, 5: 16}

    def test_separative_count_up_to_five(self):
        assert sum(1 for _ in all_separative_posets(5)) == 5

    def test_no_isomorphic_duplicates(self):
        seen = set()
        for p in all_posets_with_top(5):
            key = p.canonical_key()
            assert key not in seen
            seen.add(key)

    def test_automorphisms_of_antichain(self):
        # the two atoms can swap, the top is fixed
        assert len(antichain_with_top(2).automorphisms()) == 2
        assert len(antichain_with_top(3).automorphisms()) == 6

    def test_automorphisms_equal_the_search_oracle(self):
        posets = list(all_posets_with_top(6))
        assert len(posets) == 88
        for p in posets:
            got = p.automorphisms()
            assert len(set(got)) == len(got)
            assert set(got) == set(automorphisms_by_search(p)), p

    def test_canonical_key_equals_the_cache_free_search(self):
        for p in all_posets_with_top(6):
            assert p.canonical_key() == canonical_key_by_search(p), p
            # another poset with the same rows reads the same search
            twin = Poset(p.below, p.top)
            assert twin.canonical_key() == p.canonical_key()
            assert twin.automorphisms() is p.automorphisms()

    def test_search_memo_drops_its_oldest_entry(self, monkeypatch):
        # the search lives in the order memo; a dropped order's search
        # stays with the posets built on it
        monkeypatch.setattr(poset_module, "_ORDERS_KEPT", 2)
        monkeypatch.setattr(poset_module, "_orders", {})
        posets = [antichain_with_top(2), chain_poset(3), diamond_poset()]
        keys = [p.canonical_key() for p in posets]
        assert list(poset_module._orders) == [p.below for p in posets[1:]]
        monkeypatch.setattr(Poset, "_canonical_search", None)
        assert [p.canonical_key() for p in posets] == keys

    def test_search_is_capped(self):
        with pytest.raises(CanonicalFormError):
            antichain_with_top(9).automorphisms()
        with pytest.raises(CanonicalFormError):
            antichain_with_top(poset_module.PERM_MAX).canonical_key()

    def test_relabel_preserves_canonical_key(self):
        p = diamond_poset()
        q = relabel(p, [2, 0, 3, 1])
        assert q.canonical_key() == p.canonical_key()


def test_point_poset_basics():
    p = point_poset()
    assert p.top == 0 and p.atoms == (0,)
    assert is_separative(p)


def test_mask_bits_roundtrip():
    assert list(_mask_bits(0b10110)) == [1, 2, 4]


class TestOrderMemo:
    """The one memo of order facts, keyed by the relation rows."""

    def test_posets_with_one_order_share_its_facts_not_their_labels(self):
        for p in all_posets_with_top(5):
            twin = Poset(list(p.below), p.top, [f"t{q}" for q in range(p.n)])
            assert twin._order is p._order
            assert (twin.below, twin.above, twin.compat, twin.atoms) == \
                (p.below, p.above, p.compat, p.atoms)
            assert twin.labels != p.labels
            assert separativity_witness(twin) == separativity_witness(p)

    def test_an_invalid_relation_raises_on_every_construction(self):
        cycle = (0b11, 0b11)
        for _ in range(2):
            with pytest.raises(PosetError, match="cycle detected between 0 and 1"):
                Poset(cycle, 1)
        assert cycle not in poset_module._orders
        # valid rows are memoized, and a wrong top still raises each time
        for _ in range(2):
            with pytest.raises(PosetError, match="top 0 is not above every element"):
                Poset((0b01, 0b11), 0)
        assert (0b01, 0b11) in poset_module._orders
        assert Poset((0b01, 0b11), 1).top == 1

    def test_filling_the_memo_drops_the_oldest_and_keeps_the_bound(
            self, monkeypatch):
        monkeypatch.setattr(poset_module, "_ORDERS_KEPT", 4)
        monkeypatch.setattr(poset_module, "_orders", {})
        posets = list(all_posets_with_top(5))
        assert len(posets) > 8
        for i, p in enumerate(posets):
            Poset(p.below, p.top)
            assert len(poset_module._orders) == min(i + 1, 4)
        assert list(poset_module._orders) == [p.below for p in posets[-4:]]
        # a dropped order is validated afresh on its next construction
        again = Poset(posets[0].below, posets[0].top)
        assert again._order is not posets[0]._order
        assert list(poset_module._orders) == \
            [p.below for p in posets[-3:]] + [posets[0].below]

    def test_a_pickled_poset_returns_to_the_memo(self):
        import pickle

        p = diamond_poset()
        copy = pickle.loads(pickle.dumps(p))
        assert copy._order is p._order and copy.labels == p.labels
