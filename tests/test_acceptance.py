"""Acceptance suite: one test per criterion, one pass/fail line each.

Each criterion is a single test function so a verbose run reports exactly
one line per criterion.  Tests print their own timing; criteria with a
stated time budget assert it.
"""

import random
import time
from itertools import combinations, permutations

import pytest

from pivotgraph import (
    Graph,
    LocalComp,
    NotApplicableError,
    Pivot,
    apply,
    apply_support,
    check_commutation,
    count_applicable_supports,
    is_applicable,
    is_reduced,
    loop_complement,
    overlap_graph,
    pivot,
    pm_multiset,
    pm_parity,
    reduce_to_empty,
    support,
    synthesize_reduced,
)
from helpers import (
    add_true_twin,
    all_loop_graphs,
    all_simple_graphs,
    all_symmetric_matrices,
    apply_support_entrywise,
    general_pm_bruteforce,
    is_isomorphic_small,
    pm_bruteforce,
    random_applicable_sequence,
    random_loop_graph,
    random_simple_graph,
    vertex_subsets,
)


def _pass(num, label, started):
    elapsed = time.perf_counter() - started
    print(f"acceptance {num:02d} {label}: PASS ({elapsed:.1f}s)")
    return elapsed


def test_criterion_01_overlap_word_golden():
    t0 = time.perf_counter()
    g = overlap_graph("3 5 2 6 5 4 1 3 6 1 2 4")
    assert set(g.edges) == {
        ("1", "3"),
        ("1", "6"),
        ("2", "3"),
        ("2", "4"),
        ("2", "5"),
        ("3", "4"),
        ("3", "6"),
        ("4", "6"),
        ("5", "6"),
    }
    p = pivot(g, "2", "3")
    assert set(p.edges) == {
        ("1", "2"),
        ("1", "4"),
        ("1", "5"),
        ("1", "6"),
        ("2", "3"),
        ("2", "4"),
        ("2", "6"),
        ("3", "4"),
        ("3", "5"),
        ("4", "5"),
    }
    assert overlap_graph("3 6 1 2 6 5 4 1 3 5 2 4") == p
    assert _pass(1, "overlap word golden", t0) < 1.0


def test_criterion_02_determinant_equals_matching_parity():
    t0 = time.perf_counter()
    for g in all_simple_graphs(6):
        assert g.adjacency_matrix().det() == pm_bruteforce(g)
    for n in range(5):
        for g in all_loop_graphs(n):
            assert g.adjacency_matrix().det() == general_pm_bruteforce(g)
    assert _pass(2, "determinant equals matching parity", t0) < 60.0


def test_criterion_03_pivot_determinant_transfer():
    t0 = time.perf_counter()
    for n in range(6):
        for g in all_simple_graphs(n):
            A = g.adjacency_matrix()
            for u, v in g.edges:
                B = pivot(g, u, v).adjacency_matrix()
                for Y in vertex_subsets(g.vertices):
                    assert (
                        B.principal_submatrix(Y).det()
                        == A.principal_submatrix(Y ^ {u, v}).det()
                    )
    # loop-rule analogue: toggling at a looped vertex shifts the subset by it
    for n in range(5):
        for g in all_loop_graphs(n):
            A = g.adjacency_matrix()
            for u in sorted(g.loops):
                B = loop_complement(g, u).adjacency_matrix()
                for Y in vertex_subsets(g.vertices):
                    assert (
                        B.principal_submatrix(Y).det()
                        == A.principal_submatrix(Y ^ {u}).det()
                    )
    assert _pass(3, "pivot determinant transfer", t0) < 60.0


def _equal_support_trials(rng, make_graph, trials, max_len=8, attempts=80):
    performed = 0
    mixed_ops = 0
    while performed < trials:
        g = make_graph(rng, rng.randint(2, 10))
        first = random_applicable_sequence(rng, g, max_len)
        target = support(first)
        second = None
        for _ in range(attempts):
            cand = random_applicable_sequence(rng, g, max_len)
            if support(cand) == target:
                second = cand
                break
        if second is None:
            continue
        r1 = apply(g, first)
        assert r1 == apply(g, second)
        assert r1 == apply_support(g, target)
        mixed_ops += sum(isinstance(op, LocalComp) for op in first + second)
        performed += 1
    return mixed_ops


def test_criterion_04_support_determines_result():
    t0 = time.perf_counter()
    rng = random.Random(41)
    _equal_support_trials(rng, random_simple_graph, 1000)
    lc_count = _equal_support_trials(rng, random_loop_graph, 1000)
    assert lc_count > 0  # the loop-graph trials really mix both op kinds
    _pass(4, "support determines result", t0)


def test_criterion_05_reduced_synthesis():
    t0 = time.perf_counter()
    for n in range(6):
        for g in all_simple_graphs(n):
            A = g.adjacency_matrix()
            for S in vertex_subsets(g.vertices):
                if A.principal_submatrix(S).det() == 0:
                    with pytest.raises(NotApplicableError):
                        synthesize_reduced(g, S)
                    continue
                expected = apply_support_entrywise(g, S)
                seq = synthesize_reduced(g, S)
                assert is_reduced(seq)
                assert support(seq) == S
                assert is_applicable(g, seq)
                assert apply(g, seq) == expected
                for anchor in sorted(S):
                    aseq = synthesize_reduced(g, S, anchor=anchor)
                    assert anchor in aseq[0].touched
                    assert is_reduced(aseq)
                    assert support(aseq) == S
                    assert apply(g, aseq) == expected
    _pass(5, "reduced synthesis", t0)


def test_criterion_06_composition_and_involution():
    t0 = time.perf_counter()
    for n in range(6):
        for g in all_simple_graphs(n):
            single = {}
            for u, v in g.edges:
                single[(u, v)] = single[(v, u)] = pivot(g, u, v)
            for (u, v), h in single.items():
                # two pivots sharing exactly the vertex u compose to one
                for w in g.neighbors(u):
                    if w != v:
                        assert pivot(h, v, w) == single[(u, w)]
                assert pivot(h, u, v) == g
    _pass(6, "composition and involution", t0)


def test_criterion_07_pivot_commutation():
    t0 = time.perf_counter()
    c4 = Graph(edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    d4 = Graph(edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    graphs_with_pairs = 0
    for g in all_simple_graphs(4):
        disjoint = [
            (e1, e2)
            for e1, e2 in combinations(g.edges, 2)
            if not set(e1) & set(e2)
        ]
        if not disjoint:
            continue
        graphs_with_pairs += 1
        matchable = pm_parity(g) == 1
        obstruction_free = not (
            is_isomorphic_small(g, c4) or is_isomorphic_small(g, d4)
        )
        assert matchable == obstruction_free
        for (u, v), (w, z) in disjoint:
            both_orders = is_applicable(
                g, [Pivot(u, v), Pivot(w, z)]
            ) and is_applicable(g, [Pivot(w, z), Pivot(u, v)])
            assert both_orders == matchable
            assert check_commutation(g, u, v, w, z) == both_orders
            if both_orders:
                assert apply(g, [Pivot(u, v), Pivot(w, z)]) == apply(
                    g, [Pivot(w, z), Pivot(u, v)]
                )
    assert graphs_with_pairs == 37
    _pass(7, "pivot commutation", t0)


def _two_pivot_entry(G, u, v, w, z, x, y):
    total = G.sim(x, y)
    for (a, b), (c, d) in (
        ((u, v), (w, z)),
        ((u, w), (v, z)),
        ((u, z), (v, w)),
    ):
        if G.sim(a, b):
            total ^= (G.sim(x, c) & G.sim(y, d)) ^ (G.sim(x, d) & G.sim(y, c))
        if G.sim(c, d):
            total ^= (G.sim(x, a) & G.sim(y, b)) ^ (G.sim(x, b) & G.sim(y, a))
    return total


def test_criterion_08_matching_formulas():
    t0 = time.perf_counter()
    rng = random.Random(81)

    # matching-parity transfer across one pivot, repeats allowed in the args
    done = 0
    while done < 400:
        g = random_simple_graph(rng, rng.randint(2, 7))
        if not g.edges:
            continue
        u, v = rng.choice(g.edges)
        args = [rng.choice(g.vertices) for _ in range(rng.choice([0, 2, 4, 6]))]
        assert pm_multiset(pivot(g, u, v), args) == pm_multiset(g, args + [u, v])
        done += 1

    # a pair of equal or twin arguments cancels
    done = 0
    while done < 200:
        g = random_simple_graph(rng, rng.randint(1, 6))
        v = rng.choice(g.vertices)
        g2 = add_true_twin(g, v, 99)
        args = [rng.choice(g2.vertices) for _ in range(rng.choice([0, 2, 4]))]
        assert pm_multiset(g2, args + [v, 99]) == pm_multiset(g2, args)
        x = rng.choice(g2.vertices)
        assert pm_multiset(g2, args + [x, x]) == pm_multiset(g2, args)
        done += 1

    # closed form for the entries after two disjoint pivots
    done = 0
    while done < 300:
        g = random_simple_graph(rng, rng.randint(6, 7))
        if not g.edges:
            continue
        u, v = rng.choice(g.edges)
        h = pivot(g, u, v)
        second = [e for e in h.edges if not set(e) & {u, v}]
        if not second:
            continue
        w, z = rng.choice(second)
        hh = pivot(h, w, z)
        outside = [x for x in g.vertices if x not in {u, v, w, z}]
        for x, y in permutations(outside, 2):
            assert _two_pivot_entry(g, u, v, w, z, x, y) == hh.sim(x, y)
        done += 1
    _pass(8, "matching formulas", t0)


def test_criterion_09_applicable_support_counts():
    t0 = time.perf_counter()
    assert count_applicable_supports(Graph(range(4))) == 1
    assert count_applicable_supports(Graph(edges=[(0, 1)])) == 2
    assert count_applicable_supports(Graph(edges=[(0, 1), (0, 2), (1, 2)])) == 4
    for n in range(6):
        for g in all_simple_graphs(n):
            expected = sum(
                pm_bruteforce(g.induced_subgraph(S)) for S in vertex_subsets(g.vertices)
            )
            assert count_applicable_supports(g) == expected
    _pass(9, "applicable support counts", t0)


def test_criterion_10_full_reduction_with_deletions():
    t0 = time.perf_counter()
    for n in range(5):
        for g in all_loop_graphs(n):
            seq = reduce_to_empty(g)
            if g.adjacency_matrix().det() == 0:
                assert seq is None
                continue
            assert seq is not None
            assert is_reduced(seq)
            assert support(seq) == frozenset(g.vertices)
            h = g
            for op in seq:
                assert is_applicable(h, [op])
                h = apply(h, [op]).induced_subgraph(
                    set(h.vertices) - set(op.touched)
                )
            assert h == Graph()
    _pass(10, "full reduction with deletions", t0)


def test_criterion_11_kernel_witness():
    t0 = time.perf_counter()
    for n in range(6):
        for m in all_symmetric_matrices(n):
            witness = m.kernel_witness()
            if m.det() == 1:
                assert witness is None
                continue
            assert witness is not None
            assert len(witness) > 0
            for x in m.labels:
                assert sum(m.entry(x, y) for y in witness) % 2 == 0
    _pass(11, "kernel witness", t0)
