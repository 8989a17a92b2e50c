from forcinglab.boolalg import ro_algebra
from forcinglab.generic import dense_subsets, enumerate_generics, is_filter
from forcinglab.poset import (all_posets_with_top, antichain_with_top,
                              chain_poset, complement_cut, is_dense_below,
                              point_poset)
from forcinglab.projection import make_context


def filters_meeting_all_dense(poset):
    """The generic filters by brute force: every filter mask that meets
    every dense subset, sorted.  The oracle for :func:`enumerate_generics`."""
    dense = list(dense_subsets(poset))
    return sorted(mask for mask in range(1, 1 << poset.n)
                  if is_filter(mask, poset) and all(mask & d for d in dense))


def atom_generics(poset):
    return sorted(g.mask for g in enumerate_generics(poset))


class TestFilters:
    def test_upward_closure_of_atom_is_a_filter(self):
        p = antichain_with_top(2)
        a = p.labels.index("a")
        assert is_filter(p.above[a], p)

    def test_must_contain_top(self):
        p = antichain_with_top(2)
        a = p.labels.index("a")
        assert not is_filter(1 << a, p)

    def test_undirected_set_rejected(self):
        p = antichain_with_top(2)
        # contains both incompatible atoms
        assert not is_filter(p.full_mask, p)


class TestEnumerateGenerics:
    def test_antichain_two(self):
        gens = enumerate_generics(antichain_with_top(2))
        assert len(gens) == 2
        assert {g.atom for g in gens} == {0, 1}

    def test_single_point(self):
        gens = enumerate_generics(point_poset())
        assert len(gens) == 1
        assert gens[0].mask == 1

    def test_antichain_three(self):
        assert len(enumerate_generics(antichain_with_top(3))) == 3

    def test_chain(self):
        gens = enumerate_generics(chain_poset(3))
        assert len(gens) == 1
        assert gens[0].mask == chain_poset(3).full_mask

    def test_certificates_on_small_posets(self):
        # the atom witnesses that the generic meets every dense subset
        for p in all_posets_with_top(5):
            for g in enumerate_generics(p):
                assert g.atom in g
                for dense_mask in dense_subsets(p):
                    assert (dense_mask >> g.atom) & 1

    def test_cross_check_runs_on_all_small_posets(self):
        for p in all_posets_with_top(6):
            assert atom_generics(p) == filters_meeting_all_dense(p), p

    def test_cross_check_runs_on_the_sweep_stages(self, default_sweep):
        # every source and quotient stage poset of the acceptance sweep that
        # the brute force can afford; generics depend on the order alone, so
        # posets are deduplicated by it
        posets = {}
        for _, it in default_sweep:
            for stage in it.stages:
                posets[stage.poset.below] = stage.poset
            for alpha in range(1, len(it) + 1):
                for gi in range(len(it.stages[alpha].generics)):
                    for level in make_context(it, alpha, gi).levels.values():
                        posets[level.stage.poset.below] = level.stage.poset
        small = [p for p in posets.values() if p.n <= 10]
        assert len(small) > 10
        for p in small:
            assert atom_generics(p) == filters_meeting_all_dense(p), p

    def test_oracle_catches_a_dropped_atom(self):
        p = antichain_with_top(3)
        dropped = [g.mask for g in enumerate_generics(p)][1:]
        assert sorted(dropped) != filters_meeting_all_dense(p)


class TestDenseSubsets:
    def test_whole_poset_always_dense(self):
        for p in all_posets_with_top(4):
            assert is_dense_below(p.full_mask, p.top, p)
            assert p.full_mask in set(dense_subsets(p))

    def test_antichain_examples(self):
        p = antichain_with_top(2)
        a, b = p.labels.index("a"), p.labels.index("b")
        assert is_dense_below((1 << a) | (1 << b), p.top, p)
        assert not is_dense_below(1 << a, p.top, p)

    def test_single_point(self):
        assert list(dense_subsets(point_poset())) == [1]

    def test_stream_matches_brute_force(self):
        for p in all_posets_with_top(5):
            brute = {m for m in range(1 << p.n) if is_dense_below(m, p.top, p)}
            assert set(dense_subsets(p)) == brute


class TestUltrafilterProperty:
    def test_exactly_one_of_cut_and_complement_meets_each_generic(self):
        for p in all_posets_with_top(5):
            A = ro_algebra(p)
            for g in enumerate_generics(A.base):
                for x in A.elements:
                    hits = bool(A.cut(x) & g.mask) + bool(
                        complement_cut(A.cut(x), A.base) & g.mask)
                    assert hits == 1
