import pytest

from forcinglab.boolalg import ro_algebra
from forcinglab.generic import (Filter, dense_subsets, enumerate_generics,
                                is_dense, is_filter)
from forcinglab.poset import (all_posets_with_top, antichain_with_top,
                              chain_poset, complement_cut, point_poset)


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
        with pytest.raises(ValueError):
            Filter(p, p.full_mask)  # contains both incompatible atoms


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
        # enumerate_generics raises internally if the two characterizations
        # split; sweeping it over the catalog is the cross-check
        for p in all_posets_with_top(6):
            enumerate_generics(p)


class TestDenseSubsets:
    def test_whole_poset_always_dense(self):
        for p in all_posets_with_top(4):
            assert is_dense(p.full_mask, p)
            assert p.full_mask in set(dense_subsets(p))

    def test_antichain_examples(self):
        p = antichain_with_top(2)
        a, b = p.labels.index("a"), p.labels.index("b")
        assert is_dense((1 << a) | (1 << b), p)
        assert not is_dense(1 << a, p)

    def test_single_point(self):
        assert list(dense_subsets(point_poset())) == [1]

    def test_stream_matches_brute_force(self):
        for p in all_posets_with_top(5):
            brute = {m for m in range(1 << p.n) if is_dense(m, p)}
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
