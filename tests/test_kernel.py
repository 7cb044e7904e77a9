import random
from itertools import product
from operator import itemgetter

from presh.kernel import enumerate_assignments


def random_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 5)
    sizes = [rng.randint(1, 4) for _ in range(n)]
    checks = [[] for _ in range(n)]
    for j in range(n):
        for _ in range(rng.randint(0, 2)):
            k = rng.randint(1, j + 1)
            positions = tuple(sorted(rng.sample(range(j + 1), k)))
            space = 1
            strides = []
            for p in reversed(positions):
                strides.append(space)
                space *= sizes[p]
            strides = tuple(reversed(strides))
            mask = bytes(rng.randint(0, 1) for _ in range(space))
            checks[j].append((positions, strides, mask))
    return sizes, checks


def reference(sizes, checks):
    """Full-product filter; no backtracking, no pruning."""
    flat = [c for step in checks for c in step]
    out = []
    for combo in product(*(range(s) for s in sizes)):
        ok = True
        for positions, strides, mask in flat:
            idx = sum(s * combo[p] for p, s in zip(positions, strides))
            if not mask[idx]:
                ok = False
                break
        if ok:
            out.append(combo)
    return out


def prefix_check(sizes, positions, strides, mask):
    """A mask check as a prefix-step check on its last position."""
    *rest, last = positions
    key = itemgetter(*rest) if rest else (lambda row: ())
    admitted = {}
    for combo in product(*(range(sizes[p]) for p in rest)):
        base = sum(s * v for s, v in zip(strides, combo))
        ok = tuple(v for v in range(sizes[last]) if mask[base + strides[-1] * v])
        admitted[combo[0] if len(rest) == 1 else combo] = ok
    return last, (key, admitted, ())


def extend_slot_by_slot(sizes, checks):
    by_last = [[] for _ in sizes]
    for step in checks:
        for positions, strides, mask in step:
            last, check = prefix_check(sizes, positions, strides, mask)
            by_last[last].append(check)
    rows = [()]
    for size, step in zip(sizes, by_last):
        rows = enumerate_assignments(rows, tuple(range(size)), step)
    return rows


class TestKernelContract:
    def test_matches_reference_filter(self):
        for seed in range(120):
            sizes, checks = random_instance(seed)
            assert extend_slot_by_slot(sizes, checks) == reference(sizes, checks), seed

    def test_emission_order_is_lexicographic(self):
        got = enumerate_assignments([(0,), (1,)], (0, 1, 2))
        assert got == [(i, j) for i in range(2) for j in range(3)]

    def test_values_keep_their_given_order(self):
        got = enumerate_assignments([("a0",), ("a1",)], ("b1", "b0"))
        assert got == [("a0", "b1"), ("a0", "b0"), ("a1", "b1"), ("a1", "b0")]

    def test_empty_prefix_object(self):
        assert enumerate_assignments([()], ("x", "y")) == [("x",), ("y",)]

    def test_no_prefix_rows_give_no_rows(self):
        assert enumerate_assignments([], ("x", "y")) == []

    def test_zero_width_fiber_kills_everything(self):
        assert enumerate_assignments([(0,), (1,)], ()) == []

    def test_checks_intersect_in_value_order(self):
        first = (itemgetter(0), {0: (2, 1), 1: ()}, ())
        second = (itemgetter(0), {0: (1,)}, (0, 1, 2))
        got = enumerate_assignments([(0,), (1,)], (2, 1, 0), [first, second])
        assert got == [(0, 1)]
