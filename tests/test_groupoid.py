import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (Bisection, LocalBisection, PairGroupoid, all_bisections,
                     all_local_bisections, compose_bisections,
                     is_local_bisection)

from ncg import InputError


class TestArrows:
    def test_composition(self):
        g = PairGroupoid(3)
        assert g.compose_arrows((1, 2), (2, 3)) == (1, 3)

    def test_non_composable_is_signalled(self):
        g = PairGroupoid(3)
        assert g.compose_arrows((1, 2), (3, 1)) is None

    def test_inverse_axiom(self):
        for p in (1, 2, 3, 4, 5):
            g = PairGroupoid(p)
            for i in g.objects():
                for j in g.objects():
                    assert g.compose_arrows((i, j), (j, i)) == (i, i)
                    assert g.inverse((i, j)) == (j, i)

    def test_units(self):
        for p in (1, 2, 3, 4, 5):
            g = PairGroupoid(p)
            for i, j in g.arrows():
                assert g.compose_arrows((i, i), (i, j)) == (i, j)
                assert g.compose_arrows((i, j), (j, j)) == (i, j)

    def test_associativity_exhaustive(self):
        # Whenever both sides are defined they agree; holds for p <= 5.
        for p in (2, 3, 4, 5):
            g = PairGroupoid(p)
            arrows = list(g.arrows())
            for a, b, c in itertools.product(arrows, repeat=3):
                ab = g.compose_arrows(a, b)
                bc = g.compose_arrows(b, c)
                lhs = g.compose_arrows(ab, c) if ab else None
                rhs = g.compose_arrows(a, bc) if bc else None
                if ab is not None and bc is not None:
                    assert lhs == rhs

    def test_out_of_range(self):
        with pytest.raises(InputError):
            PairGroupoid(2).compose_arrows((1, 3), (3, 1))

    def test_inverse_pair_composes_to_unit(self):
        assert PairGroupoid(2).compose_arrows((2, 1), (1, 2)) == (2, 2)


class TestBisections:
    def test_identity_neutral(self):
        x = Bisection((2, 3, 1))
        e = Bisection.identity(3)
        assert compose_bisections(e, x) == x
        assert compose_bisections(x, e) == x

    def test_transposition_squares_to_identity(self):
        t = Bisection.transposition(2, 1, 2)
        assert compose_bisections(t, t) == Bisection.identity(2)

    def test_group_of_order_six(self):
        # Exhaustive: products of the 6 bisections on 3 objects stay in
        # the set, with identity and inverses.
        group = set(all_bisections(3))
        assert len(group) == 6
        for x in group:
            assert compose_bisections(x, x.inverse()) == Bisection.identity(3)
            for y in group:
                assert compose_bisections(x, y) in group

    def test_not_a_permutation_rejected(self):
        with pytest.raises(InputError):
            Bisection((1, 1))

    @given(st.permutations(range(1, 5)), st.permutations(range(1, 5)),
           st.permutations(range(1, 5)))
    def test_composition_associative(self, a, b, c):
        x, y, z = Bisection(tuple(a)), Bisection(tuple(b)), Bisection(tuple(c))
        assert compose_bisections(compose_bisections(x, y), z) == \
            compose_bisections(x, compose_bisections(y, z))

    def test_json_encoding(self):
        assert Bisection((2, 1, 3)).to_json() == [2, 1, 3]


class TestLocalBisections:
    def test_single_pair(self):
        assert is_local_bisection({1: 2}, 3)

    def test_collision(self):
        assert not is_local_bisection({1: 2, 3: 2}, 3)

    def test_out_of_range_label(self):
        with pytest.raises(InputError):
            is_local_bisection({1: 4}, 3)

    def test_count_for_two_objects(self):
        # Partial injections on a 2-set: empty, 4 singletons, 2 bijections.
        assert sum(1 for _ in all_local_bisections(2)) == 7

    def test_inverse_semigroup_unique_generalized_inverse(self):
        for p in (1, 2, 3):
            elements = list(all_local_bisections(p))
            for x in elements:
                candidates = [
                    y for y in elements
                    if x.compose(y).compose(x) == x
                    and y.compose(x).compose(y) == y
                ]
                assert candidates == [x.inverse()]

    def test_composition_domain(self):
        x = LocalBisection.from_mapping({1: 2}, 3)
        y = LocalBisection.from_mapping({3: 1}, 3)
        assert x.compose(y).as_dict() == {3: 2}
        assert y.compose(x).as_dict() == {}

    @given(st.integers(1, 4), st.data())
    def test_injectivity_matches_value_set_size(self, p, data):
        mapping = data.draw(st.dictionaries(st.integers(1, p),
                                            st.integers(1, p), max_size=p))
        expected = len(set(mapping.values())) == len(mapping)
        assert is_local_bisection(mapping, p) == expected
