import random
from itertools import permutations

import pytest

from pivotgraph import (
    Graph,
    InputError,
    general_pm_parity,
    pivot,
    pm_multiset,
    pm_parity,
)
from helpers import (
    add_true_twin,
    all_loop_graphs,
    all_simple_graphs,
    enumerate_pairings,
    general_pm_bruteforce,
    pm_bruteforce,
    pm_multiset_bruteforce,
    pm_multiset_by_sim_rank,
    random_simple_graph,
)


def test_enumerate_pairings_counts():
    # (n-1)!! pairings of n positions
    for n, expected in [(0, 1), (2, 1), (4, 3), (6, 15), (8, 105)]:
        seen = list(enumerate_pairings(n))
        assert len(seen) == expected
        assert len(set(seen)) == expected
        for pairing in seen:
            flat = sorted(i for pair in pairing for i in pair)
            assert flat == list(range(n))
            assert all(i < j for i, j in pairing)


def test_enumerate_pairings_odd_raises():
    with pytest.raises(InputError):
        list(enumerate_pairings(3))
    with pytest.raises(InputError):
        list(enumerate_pairings(-2))


def test_pm_parity_frozen_values():
    # frozen from the pairing-walk oracle
    cases = [
        (Graph(), 1),
        (Graph(edges=[("a", "b")]), 1),
        (Graph(vertices="abc"), 0),
        (Graph(edges=[(0, 1), (1, 2), (2, 3), (0, 3)]), 0),  # 4-cycle: two matchings
        (Graph(edges=[(0, 1), (1, 2), (2, 3)]), 1),  # path: one matching
        (
            Graph(edges=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            1,
        ),  # K4: three matchings
    ]
    for g, expected in cases:
        assert pm_bruteforce(g) == expected
        assert pm_parity(g) == expected


def test_pm_parity_rejects_loops():
    with pytest.raises(InputError):
        pm_parity(Graph(loops=["a"]))


def test_pm_parity_matches_bruteforce_exhaustive():
    for n in (2, 4):
        for g in all_simple_graphs(n):
            assert pm_parity(g) == pm_bruteforce(g)


def test_pm_parity_matches_bruteforce_random():
    rng = random.Random(11)
    for _ in range(25):
        g = random_simple_graph(rng, rng.choice([6, 8]))
        assert pm_parity(g) == pm_bruteforce(g)


def test_pm_parity_equals_adjacency_determinant_small():
    rng = random.Random(12)
    for _ in range(50):
        g = random_simple_graph(rng, rng.randint(0, 8))
        assert g.adjacency_matrix().det() == pm_bruteforce(g)


def test_general_pm_frozen_values():
    cases = [
        (Graph(), 1),
        (Graph(loops=["a"]), 1),
        (Graph(vertices=["a"]), 0),
        # looped pair with an edge: two partitions, parity 0
        (Graph(edges=[("a", "b")], loops=["a", "b"]), 0),
        (Graph(edges=[("a", "b")], loops=["a"]), 1),
    ]
    for g, expected in cases:
        assert general_pm_bruteforce(g) == expected
        assert general_pm_parity(g) == expected


def test_general_pm_matches_bruteforce_exhaustive():
    for n in range(4):
        for g in all_loop_graphs(n):
            assert general_pm_parity(g) == general_pm_bruteforce(g)


def test_general_pm_agrees_with_pm_on_simple_graphs():
    for g in all_simple_graphs(4):
        assert general_pm_parity(g) == general_pm_bruteforce(g) == pm_bruteforce(g)


def test_pm_multiset_base_cases():
    g = Graph(edges=[("a", "b")], vertices=["c"])
    assert pm_multiset(g, []) == 1
    assert pm_multiset(g, ["a", "b"]) == g.sim("a", "b") == 1
    assert pm_multiset(g, ["a", "c"]) == 0
    assert pm_multiset(g, ["a", "a"]) == 1


def test_pm_multiset_validation():
    g = Graph(edges=[("a", "b")])
    with pytest.raises(InputError):
        pm_multiset(g, ["a"])
    with pytest.raises(InputError):
        pm_multiset(g, ["a", "x"])
    # no size cap: equal pairs cancel, leaving pm(a, b) = sim(a, b) = 1
    assert pm_multiset(g, ["a", "b"] * 8) == 1
    looped = Graph(loops=["a"])
    with pytest.raises(InputError, match="simple graphs"):
        pm_multiset(looped, ["a", "a"])
    assert pm_multiset(looped, []) == 1
    # an odd count fails first, then an unknown vertex, then the loop
    with pytest.raises(InputError, match="even number"):
        pm_multiset(looped, ["x"])
    with pytest.raises(InputError, match="unknown vertex: 'x'"):
        pm_multiset(looped, ["a", "x"])


def test_pm_multiset_matches_bruteforce_random():
    rng = random.Random(18)
    for _ in range(80):
        g = random_simple_graph(rng, 5)
        # more arguments than vertices forces repeats
        args = [rng.choice(g.vertices) for _ in range(rng.choice([0, 2, 4, 6, 8]))]
        assert pm_multiset(g, args) == pm_multiset_bruteforce(g, args)


def test_pm_multiset_matches_sim_matrix_up_to_70():
    rng = random.Random(21)
    for n in (1, 5, 9, 17, 33, 64, 70):
        g = random_simple_graph(rng, n, p=rng.random())
        for k in (2, 8, 10, 16, 40, 70):
            # a pool of fewer vertices than arguments forces repeats
            pool = rng.sample(g.vertices, min(n, rng.randint(1, k)))
            args = [rng.choice(pool) for _ in range(k)]
            assert pm_multiset(g, args) == pm_multiset_by_sim_rank(g, args), (n, args)
            if k <= 10:
                assert pm_multiset(g, args) == pm_multiset_bruteforce(g, args), (n, args)


def test_pm_multiset_permutation_invariant():
    rng = random.Random(13)
    g = random_simple_graph(rng, 5)
    args = [0, 1, 1, 3]
    reference = pm_multiset(g, args)
    for perm in permutations(args):
        assert pm_multiset(g, perm) == reference


def test_pm_multiset_on_distinct_vertices_is_matching_parity():
    rng = random.Random(14)
    for _ in range(30):
        g = random_simple_graph(rng, 6)
        assert pm_multiset(g, g.vertices) == pm_bruteforce(g)


def test_pm_multiset_equal_pair_cancellation():
    # a repeated pair drops out: pm(x, x, rest...) = pm(rest...)
    rng = random.Random(15)
    for _ in range(40):
        g = random_simple_graph(rng, 6)
        x = rng.choice(g.vertices)
        rest = [rng.choice(g.vertices) for _ in range(4)]
        assert pm_multiset(g, [x, x] + rest) == pm_multiset(g, rest)


def test_pm_multiset_twin_cancellation():
    rng = random.Random(16)
    for _ in range(40):
        g = random_simple_graph(rng, 5)
        v = rng.choice(g.vertices)
        g2 = add_true_twin(g, v, 99)
        args = [rng.choice(g.vertices) for _ in range(4)]
        assert pm_multiset(g2, args + [v, 99]) == pm_multiset(g2, args)


def test_pm_multiset_pivot_transfer():
    rng = random.Random(17)
    done = 0
    while done < 60:
        g = random_simple_graph(rng, 6)
        if not g.edges:
            continue
        u, v = rng.choice(g.edges)
        args = [rng.choice(g.vertices) for _ in range(rng.choice([0, 2, 4]))]
        assert pm_multiset(pivot(g, u, v), args) == pm_multiset(g, args + [u, v])
        done += 1
