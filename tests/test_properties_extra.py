"""Additional property-based tests for the newer subsystems."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.campaign_detect import UnionFind, jaccard


class TestUnionFindProperties:
    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)),
                    max_size=40))
    def test_union_is_equivalence(self, pairs):
        uf = UnionFind(20)
        for a, b in pairs:
            uf.union(a, b)
        # Reflexive+symmetric+transitive: roots are stable.
        for a, b in pairs:
            assert uf.find(a) == uf.find(b)
        groups = uf.groups()
        assert sum(len(g) for g in groups.values()) == 20

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    max_size=20))
    def test_groups_partition(self, pairs):
        uf = UnionFind(10)
        for a, b in pairs:
            uf.union(a, b)
        seen = set()
        for members in uf.groups().values():
            assert seen.isdisjoint(members)
            seen.update(members)
        assert seen == set(range(10))


class TestJaccardProperties:
    sets = st.frozensets(st.text(alphabet="abcdef", min_size=1, max_size=3),
                         max_size=8)

    @given(sets, sets)
    def test_symmetric_and_bounded(self, a, b):
        assert jaccard(a, b) == jaccard(b, a)
        assert 0.0 <= jaccard(a, b) <= 1.0

    @given(sets)
    def test_identity(self, a):
        assert jaccard(a, a) == 1.0
