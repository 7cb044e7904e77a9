import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presh import lattice
from presh.errors import EnumerationBoundError, MalformedInputError
from presh.lattice import (
    Subset,
    _shortlex,
    check_adjunction_triple,
    close_family,
    extend_functor_f1,
    restriction_functor_r,
)
from presh.report import Violation

from util import (
    brute_force_covers,
    full_power_set,
    reference_adjunction_sweep,
    saturation_close,
)


def S(*names):
    return Subset(names)


class TestSubset:
    def test_canonical_order(self):
        assert Subset(["b", "a", "b"]).names == ("a", "b")

    def test_rejects_bad_names(self):
        with pytest.raises(MalformedInputError):
            Subset(["9bad"])
        with pytest.raises(MalformedInputError):
            Subset(["has space"])

    def test_set_operations(self):
        assert S("a", "b").intersection(S("b", "c")) == S("b")
        assert S("a").union(S("b")) == S("a", "b")
        assert S("a", "b").difference(S("b")) == S("a")

    def test_str(self):
        assert str(S("b", "a")) == "{a,b}"
        assert str(S()) == "{}"


class TestCloseFamily:
    def test_two_features_is_the_power_set(self):
        fam = close_family(S("a", "b"))
        assert fam.objects == {S(), S("a"), S("b"), S("a", "b")}

    def test_closure_step_members_present(self):
        fam = close_family(S("a", "b", "c"))
        assert S("b") in fam.objects  # the meet of {a,b} and {b,c}
        assert S("a", "b", "c") in fam.objects  # their join

    def test_matches_saturation_oracle(self):
        # seeds never add objects: saturating any of them gives the family
        rng = random.Random(4)
        universe = S("a", "b", "c", "d", "e")
        for _ in range(25):
            seeds = [
                Subset(rng.sample(universe.names, rng.randint(0, 5)))
                for _ in range(rng.randint(0, 4))
            ]
            assert close_family(universe).objects == saturation_close(universe, seeds)

    def test_idempotent(self):
        # saturating the family's own objects adds nothing
        fam = close_family(S("a", "b", "c"))
        assert saturation_close(fam.universe, fam.objects) == fam.objects

    def test_size_refusal(self):
        # a 13-feature family is built; walking its every object is refused
        big = Subset(f"f{i}" for i in range(13))
        fam = close_family(big)
        assert big in fam and fam.universe == big
        with pytest.raises(EnumerationBoundError) as err:
            fam.objects_sorted
        assert str(err.value) == (
            "family over 13 features refused (required 8192, bound 4096)"
        )

    def test_invariants_hold(self):
        universe = S("a", "b", "c")
        objs = close_family(universe).objects
        assert S() in objs and universe in objs
        assert all(S(n) in objs for n in universe)
        for u in objs:
            assert u.issubset(universe)
            for v in objs:
                assert u.intersection(v) in objs and u.union(v) in objs

    def test_objects_sorted_is_shortlex(self):
        for n in range(6):
            fam = close_family(Subset(f"f{i}" for i in range(n)))
            assert fam.objects_sorted == tuple(sorted(fam.objects, key=Subset.key))
            assert len(fam.objects_sorted) == 2**n

    def test_membership_is_containment(self):
        fam = close_family(S("a", "b"))
        assert S("a") in fam and S() in fam and S("a", "b") in fam
        assert S("z") not in fam and S("a", "z") not in fam
        assert "a" not in fam
        with pytest.raises(MalformedInputError):
            fam.require(S("a", "z"))


class TestGenerators:
    @pytest.mark.parametrize("n", range(6))
    def test_covers_match_brute_force_hasse_filter(self, n):
        fam = close_family(Subset(f"f{i}" for i in range(n)))
        assert list(fam.covers()) == brute_force_covers(fam.objects_sorted)

    @pytest.mark.parametrize("n", range(6))
    def test_inclusions_match_all_pairs_filter(self, n):
        fam = close_family(Subset(f"f{i}" for i in range(n)))
        objs = fam.objects_sorted
        expected = [(u, v) for v in objs for u in objs if u.issubset(v)]
        assert list(fam.inclusions()) == expected


class TestTrustedConstructor:
    """Subsets built internally from already validated names equal the ones
    the public, validating constructor builds."""

    @staticmethod
    def _same(got, want):
        assert got.names == want.names
        assert got == want
        assert hash(got) == hash(want)

    def test_matches_the_public_constructor(self):
        rng = random.Random(6)
        pool = ["a", "B", "c_1", "d-2", "_e", "f", "Zz", "g9"]
        for _ in range(300):
            left = Subset(rng.sample(pool, rng.randint(0, 5)))
            right = Subset(rng.sample(pool, rng.randint(0, 5)))
            self._same(left.union(right), Subset(left.names + right.names))
            self._same(left.intersection(right), Subset(n for n in left if n in right))
            self._same(left.difference(right), Subset(n for n in left if n not in right))
            fam = close_family(left)
            shortlex = [
                Subset(combo)
                for k in range(len(left) + 1)
                for combo in combinations(left.names, k)
            ]
            assert len(fam.objects_sorted) == len(shortlex)
            for got, want in zip(fam.objects_sorted, shortlex):
                self._same(got, want)
            covers = [
                (Subset(n for n in v if n != dropped), v)
                for v in shortlex
                for dropped in reversed(v.names)
            ]
            got_covers = list(fam.covers())
            assert len(got_covers) == len(covers)
            for (got_u, got_v), (want_u, want_v) in zip(got_covers, covers):
                self._same(got_u, want_u)
                self._same(got_v, want_v)


class TestFunctorTriple:
    def test_padding_instance(self):
        assert extend_functor_f1(S("a"), S("a"), S("a", "b")) == S("a", "b")

    def test_padding_top(self):
        assert extend_functor_f1(S("a", "c"), S("a", "c"), S("a", "b", "c")) == S(
            "a", "b", "c"
        )

    def test_padding_precondition(self):
        with pytest.raises(MalformedInputError):
            extend_functor_f1(S("a", "b"), S("a"), S("a", "b"))

    def test_padding_monotone_exhaustively(self):
        s2 = S("a", "b", "c", "d", "e")
        s1 = S("a", "b", "c")
        subs = sorted(full_power_set(s1), key=Subset.key)
        for u in subs:
            for v in subs:
                if u.issubset(v):
                    assert extend_functor_f1(u, s1, s2).issubset(
                        extend_functor_f1(v, s1, s2)
                    )

    def test_restriction_instance(self):
        assert restriction_functor_r(S("a", "b"), S("b", "c")) == S("b")

    def test_restriction_of_subset_is_identity(self):
        assert restriction_functor_r(S("b"), S("a", "b")) == S("b")

    def test_restriction_after_padding_is_identity(self):
        s2 = S("a", "b", "c", "d", "e")
        s1 = S("b", "d")
        for u in full_power_set(s1):
            assert restriction_functor_r(extend_functor_f1(u, s1, s2), s1) == u


class TestAdjunction:
    def test_small_pair_passes(self):
        assert check_adjunction_triple(S("a"), S("a", "b")).passed

    def test_equal_sets_trivial(self):
        assert check_adjunction_triple(S("a", "b"), S("a", "b")).passed

    def test_empty_inner(self):
        assert check_adjunction_triple(S(), S("a", "b", "c")).passed

    def test_requires_nesting(self):
        with pytest.raises(MalformedInputError):
            check_adjunction_triple(S("a", "z"), S("a", "b"))

    def test_refuses_above_bound(self):
        big = Subset(f"f{i}" for i in range(6))
        with pytest.raises(EnumerationBoundError):
            check_adjunction_triple(S("f0"), big)

    def test_matches_reference_sweep_on_every_nested_pair(self):
        pairs = 0
        for s2 in close_family(Subset(f"a{i}" for i in range(5))).objects_sorted:
            for s1 in close_family(s2).objects_sorted:
                assert check_adjunction_triple(s1, s2) == reference_adjunction_sweep(
                    s1, s2
                ), (s1, s2)
                pairs += 1
        assert pairs == 3**5

    def test_sweep_walks_both_power_sets_in_shortlex_order(self, monkeypatch):
        walks = []
        real = lattice._shortlex_masks

        def recording(bits):
            walks.append(real(bits))
            return walks[-1]

        monkeypatch.setattr(lattice, "_shortlex_masks", recording)
        for s2 in close_family(Subset(f"a{i}" for i in range(5))).objects_sorted:
            for s1 in close_family(s2).objects_sorted:
                walks.clear()
                check_adjunction_triple(s1, s2)
                outer, inner = [
                    [Subset(n for i, n in enumerate(s2.names) if m >> i & 1) for m in walk]
                    for walk in walks
                ]
                assert outer == list(_shortlex(s2.names)), (s1, s2)
                assert inner == list(_shortlex(s1.names)), (s1, s2)

    def test_a_forced_violation_names_u_and_v_in_sweep_order(self, monkeypatch):
        # U walks all of S2, not only S1: every U ⊄ S1 inside V breaks the left law
        s2, s1 = S("a", "b", "c"), S("b")
        real = lattice._shortlex_masks
        monkeypatch.setattr(lattice, "_shortlex_masks", lambda bits: real((1, 2, 4)))
        power_set = sorted(full_power_set(s2), key=Subset.key)
        expected = [
            Violation(
                "adjunction-left",
                f"U ⊆ V disagrees with U ⊆ V∩S1 at U={u}, V={v}",
                (u, v),
            )
            for u in power_set
            for v in power_set
            if u.issubset(v) and not u.issubset(v.intersection(s1))
        ]
        assert len(expected) == 15
        assert check_adjunction_triple(s1, s2).violations == tuple(expected)


class TestIsSubobject:
    """``Subset.issubset`` against set containment: the poset category has
    an arrow u -> v exactly when u ⊆ v."""

    def test_examples(self):
        assert S("a").issubset(S("a", "b"))
        assert not S("a", "b").issubset(S("a"))
        # equal, empty on either side, disjoint, and overlapping but not contained
        assert S("a", "b").issubset(S("a", "b"))
        assert S().issubset(S()) and S().issubset(S("a"))
        assert not S("a").issubset(S())
        assert not S("a", "b").issubset(S("c", "d"))
        assert not S("a", "c").issubset(S("a", "b"))

    @given(st.sets(st.sampled_from("abcde")), st.sets(st.sampled_from("abcde")))
    @settings(max_examples=60)
    def test_agrees_with_containment(self, left, right):
        assert Subset(left).issubset(Subset(right)) == (set(left) <= set(right))
