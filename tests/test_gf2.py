import random

import pytest
from hypothesis import assume, given, strategies as st

from pivotgraph import Gf2Matrix, Graph, InputError, NotApplicableError, gf2
from pivotgraph.sequences import apply_support, synthesize_reduced
from helpers import (
    all_loop_graphs,
    all_symmetric_matrices,
    asymmetry_by_pairs,
    det_bruteforce,
    ppt_by_block_inverse,
    random_loop_graph,
    rank_by_elimination,
    submatrix_entrywise,
)


def mat(labels, dense):
    return Gf2Matrix.from_dense(labels, dense)


K3 = mat("abc", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
K2 = mat("ab", [[0, 1], [1, 0]])
PATH3 = mat("abc", [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_construction_validation():
    with pytest.raises(InputError):
        Gf2Matrix("aa", [0, 0])
    with pytest.raises(InputError):
        Gf2Matrix("ab", [0])
    with pytest.raises(InputError):
        Gf2Matrix("ab", [4, 0])
    with pytest.raises(InputError):
        mat("ab", [[0, 1], [0, 0]])
    with pytest.raises(InputError):
        mat("ab", [[0, 2], [2, 0]])


@pytest.mark.parametrize(
    "labels, rows, message",
    [
        pytest.param([["a"]], [0], "label ['a'] is not hashable", id="unhashable-label"),
        pytest.param(["a"], ["x"], "row 'x' is not an integer", id="str-row"),
        # a float row used to be truncated to an int
        pytest.param(["a"], [1.7], "row 1.7 is not an integer", id="float-row"),
        pytest.param(["a"], [1.0], "row 1.0 is not an integer", id="whole-float-row"),
        # the first label equal to an earlier one, and the row with stray bits
        pytest.param("abcbca", [0] * 6, "duplicate label 'b'", id="duplicate-label"),
        pytest.param("abc", [0, 0, 8], "row of 'c' has bits outside the matrix order", id="stray-bit"),
    ],
)
def test_construction_admits_hashable_labels_and_int_rows(labels, rows, message):
    with pytest.raises(InputError) as err:
        Gf2Matrix(labels, rows)
    assert str(err.value) == message


@pytest.mark.parametrize("x", [1.0, "1"])
def test_from_dense_admits_int_entries(x):
    with pytest.raises(InputError) as err:
        Gf2Matrix.from_dense(["a"], [[x]])
    assert str(err.value) == f"entry {x!r} is not an integer"


def test_from_dense_names_the_entry_that_is_not_a_bit():
    with pytest.raises(InputError) as err:
        mat("ab", [[0, 2], [2, 0]])
    assert str(err.value) == "entries[0][1] is not a bit: 2"


@pytest.mark.parametrize(
    "entries, message",
    [
        ([[0, 1, 0], [1, 0]], "entries[0] has 3 entries, expected 2"),
        ([[0, 1], [1]], "entries[1] has 1 entries, expected 2"),
        ([[], []], "entries[0] has 0 entries, expected 2"),
    ],
)
def test_from_dense_refuses_ragged_rows(entries, message):
    # a long row used to be cut to the order and a short one padded with zeros
    with pytest.raises(InputError) as err:
        Gf2Matrix.from_dense(["a", "b"], entries)
    assert str(err.value) == message
    # the labels may be any iterable, read once
    assert Gf2Matrix.from_dense(iter("ab"), [[0, 1], [1, 0]]) == K2


def _flipped(rng, n, flips):
    """Random labels, and a random symmetric matrix with the entries ``flips`` toggled."""
    rows = list(random_loop_graph(rng, n).adjacency_matrix().rows)
    for i, j in flips:
        rows[i] ^= 1 << j
    return [f"v{x}" for x in rng.sample(range(1000), n)], rows


def test_asymmetry_message_matches_pair_loop():
    rng = random.Random(16)
    for n in range(2, 65):
        i, j = sorted(rng.sample(range(n), 2))
        several = [rng.sample(range(n), 2) for _ in range(rng.randint(2, 6))]
        # one flip above the diagonal, one below, and several anywhere
        for flips in ([(i, j)], [(j, i)], several):
            labels, rows = _flipped(rng, n, flips)
            expected = asymmetry_by_pairs(labels, rows)
            if expected is None:
                # the flips cancelled in pairs
                assert Gf2Matrix(labels, rows).rows == tuple(rows)
                continue
            with pytest.raises(InputError) as err:
                Gf2Matrix(labels, rows)
            assert str(err.value) == expected, (n, flips)


def test_bounds_message_comes_before_asymmetry():
    rng = random.Random(17)
    for n in (2, 9, 64):
        for stray in (1 << n, -1):
            labels, rows = _flipped(rng, n, [(0, n - 1)])
            assert asymmetry_by_pairs(labels, rows) is not None
            rows[-1] = stray
            with pytest.raises(InputError) as err:
                Gf2Matrix(labels, rows)
            assert str(err.value) == f"row of {labels[-1]!r} has bits outside the matrix order"


def test_construction_reads_bools_as_ints():
    assert Gf2Matrix("ab", [True, False]).rows == (1, 0)
    assert mat("ab", [[True, False], [False, False]]).rows == (1, 0)


def test_entry_and_labels():
    assert K3.labels == ("a", "b", "c")
    assert K3.entry("a", "b") == 1
    assert K3.entry("a", "a") == 0
    with pytest.raises(InputError):
        K3.entry("a", "x")


def test_det_empty_matrix_is_one():
    assert Gf2Matrix([], []).det() == 1


def test_det_frozen_values():
    # values frozen from the permutation-expansion oracle
    cases = [
        (Gf2Matrix(["a"], [0]), 0),
        (Gf2Matrix(["a"], [1]), 1),
        (K2, 1),
        (K3, 0),
        (PATH3, 0),
        (mat("abcd", [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]), 0),
        (mat("abcd", [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]), 1),
    ]
    for m, expected in cases:
        assert det_bruteforce(m) == expected
        assert m.det() == expected


def test_det_matches_bruteforce_exhaustive_small():
    for n in range(5):
        for m in all_symmetric_matrices(n):
            assert m.det() == det_bruteforce(m)


def test_det_matches_bruteforce_random():
    rng = random.Random(20240811)
    for _ in range(150):
        n = rng.randint(5, 7)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(0, 1)
        m = mat(range(n), rows)
        assert m.det() == det_bruteforce(m)


def test_principal_submatrix():
    sub = K3.principal_submatrix({"a", "c"})
    assert sub.labels == ("a", "c")
    assert sub.to_dense() == [[0, 1], [1, 0]]
    assert K3.principal_submatrix([]).order == 0
    assert K3.principal_submatrix("abc") == K3
    with pytest.raises(InputError):
        K3.principal_submatrix({"x"})


def test_principal_submatrix_matches_entries_up_to_70():
    rng = random.Random(18)
    for n in (0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 70):
        labels = [f"v{x}" for x in rng.sample(range(1000), n)]
        m = Gf2Matrix(labels, random_loop_graph(rng, n, p=rng.random()).adjacency_matrix().rows)
        most = [x for x in labels if rng.random() < 0.8]
        for keep in ([], labels, rng.sample(labels, n // 2), most):
            sub = m.principal_submatrix(keep)
            assert [list(sub.labels), sub.to_dense()] == list(submatrix_entrywise(m, keep))


def test_ppt_pair_block_shape():
    # pivoting on an edge pair keeps the pair block and swaps the two rows
    # against the rest, then corrects the remainder by the cross products
    m = mat("uvxy", [
        [0, 1, 1, 0],
        [1, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ])
    out = m.ppt({"u", "v"})
    assert out.entry("u", "v") == 1
    assert out.entry("u", "u") == 0 and out.entry("v", "v") == 0
    # row u picks up v's old off-block row and vice versa
    assert out.entry("u", "x") == 0 and out.entry("u", "y") == 1
    assert out.entry("v", "x") == 1 and out.entry("v", "y") == 0
    # remainder block gains chi_u chi_v^T + chi_v chi_u^T
    assert out.entry("x", "y") == 1


def test_ppt_single_loop_shape():
    m = mat("uxy", [
        [1, 1, 1],
        [1, 0, 0],
        [1, 0, 0],
    ])
    out = m.ppt({"u"})
    assert out.entry("u", "u") == 1
    assert out.entry("u", "x") == 1 and out.entry("u", "y") == 1
    # neighbors of u: complemented pairs and toggled diagonal
    assert out.entry("x", "y") == 1
    assert out.entry("x", "x") == 1 and out.entry("y", "y") == 1


def test_ppt_empty_set_is_identity():
    assert K3.ppt([]) == K3


SUPPORT_REFUSAL = "no applicable sequence has this support"


def assert_refuses_support(call, *args):
    """``call(*args)`` raises exactly NotApplicableError with the support message."""
    with pytest.raises(NotApplicableError) as err:
        call(*args)
    assert type(err.value) is NotApplicableError
    assert str(err.value) == SUPPORT_REFUSAL


def test_ppt_singular_raises():
    assert_refuses_support(K3.ppt, "abc")
    assert_refuses_support(PATH3.ppt, {"a", "c"})
    with pytest.raises(InputError):
        K3.ppt({"x"})


def test_ppt_raises_exactly_on_singular_pivot_sets_exhaustive():
    # the matrix ppt and both support calls refuse one fact in one way
    for G in all_loop_graphs(4):
        m = G.adjacency_matrix()
        for mask in range(1 << 4):
            S = [i for i in range(4) if (mask >> i) & 1]
            if det_bruteforce(m.principal_submatrix(S)):
                assert apply_support(G, S) == Graph.from_adjacency_matrix(m.ppt(S))
            else:
                assert_refuses_support(m.ppt, S)
                assert_refuses_support(apply_support, G, S)
                assert_refuses_support(synthesize_reduced, G, S)


@st.composite
def matrix_and_two_sets(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if draw(st.booleans()):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    subsets = st.frozensets(st.integers(0, n - 1))
    return Gf2Matrix(range(n), rows), draw(subsets), draw(subsets)


@given(matrix_and_two_sets())
def test_ppt_composition(case):
    # (A*X)*Y = A*(X xor Y) whenever both transforms on the left are defined
    m, X, Y = case
    assume(m.principal_submatrix(X).det() == 1)
    first = m.ppt(X)
    assume(first.principal_submatrix(Y).det() == 1)
    assert first.ppt(Y) == m.ppt(X ^ Y)


def _nullity(m):
    return m.order - rank_by_elimination(m)


@given(matrix_and_two_sets())
def test_ppt_involution_random(case):
    # (A*X)*X = A whenever det A[X] = 1
    m, X, _ = case
    assume(_nullity(m.principal_submatrix(X)) == 0)
    assert m.ppt(X).ppt(X) == m


@given(matrix_and_two_sets())
def test_ppt_nullity_invariance(case):
    # nullity(A[X]) = nullity((A*Y)[X xor Y]) whenever det A[Y] = 1 (Brijder
    # and Hoogeboom, LAA 2011); determinant transfer is its nullity-0 case
    m, X, Y = case
    assume(_nullity(m.principal_submatrix(Y)) == 0)
    assert _nullity(m.principal_submatrix(X)) == _nullity(m.ppt(Y).principal_submatrix(X ^ Y))


def test_ppt_output_symmetric_random():
    rng = random.Random(98)
    done = 0
    while done < 200:
        n = rng.randint(1, 10)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(0, 1)
        m = mat(range(n), rows)
        subset = [i for i in range(n) if rng.random() < 0.5]
        if m.principal_submatrix(subset).det() == 0:
            continue
        out = m.ppt(subset).to_dense()
        assert all(out[i][j] == out[j][i] for i in range(n) for j in range(n))
        done += 1


def test_ppt_determinant_transfer_exhaustive():
    # det(ppt(M, X)[Y]) = det(M[X xor Y]) for every Y once X pivots
    for n in range(1, 5):
        for m in all_symmetric_matrices(n):
            for xmask in range(1 << n):
                X = frozenset(i for i in range(n) if (xmask >> i) & 1)
                if m.principal_submatrix(X).det() == 0:
                    continue
                out = m.ppt(X)
                for ymask in range(1 << n):
                    Y = frozenset(i for i in range(n) if (ymask >> i) & 1)
                    assert out.principal_submatrix(Y).det() == m.principal_submatrix(X ^ Y).det()


def test_ppt_determinant_transfer_random_larger():
    rng = random.Random(1234)
    checked = 0
    while checked < 40:
        n = rng.randint(5, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(0, 1)
        m = mat(range(n), rows)
        X = frozenset(i for i in range(n) if rng.random() < 0.5)
        if m.principal_submatrix(X).det() == 0:
            continue
        out = m.ppt(X)
        for ymask in range(1 << n):
            Y = frozenset(i for i in range(n) if (ymask >> i) & 1)
            assert out.principal_submatrix(Y).det() == m.principal_submatrix(X ^ Y).det()
        checked += 1


def test_kernel_witness_nonsingular_is_none():
    assert K2.kernel_witness() is None
    assert Gf2Matrix([], []).kernel_witness() is None


def test_kernel_witness_frozen_examples():
    # K3 rows all sum to zero, and the walk finds the full set
    assert K3.kernel_witness() == frozenset("abc")
    # 4-cycle plus one chord: the two non-adjacent vertices form a witness
    chorded = mat("abcd", [
        [0, 1, 0, 1],
        [1, 0, 1, 1],
        [0, 1, 0, 1],
        [1, 1, 1, 0],
    ])
    w = chorded.kernel_witness()
    assert w == frozenset("ac")
    # star with centre d: pivoting a-d out leaves b and c, and row b of the
    # result gives {a, b}; Gauss-Jordan on tagged rows gave {b, c}
    star = mat("abcd", [
        [0, 0, 0, 1],
        [0, 0, 0, 1],
        [0, 0, 0, 1],
        [1, 1, 1, 0],
    ])
    w = star.kernel_witness()
    assert w == frozenset("ab")
    assert all(sum(star.entry(v, s) for s in w) % 2 == 0 for v in star.labels)


def test_kernel_witness_exhaustive_even_adjacency():
    for n in range(5):
        for m in all_symmetric_matrices(n):
            w = m.kernel_witness()
            if m.det() == 1:
                assert w is None
            else:
                assert w is not None and len(w) > 0
                for v in m.labels:
                    assert sum(m.entry(v, s) for s in w) % 2 == 0


@st.composite
def symmetric_matrices(draw, max_n=40):
    n = draw(st.integers(0, max_n))
    # dense, or sparse enough that larger kernels show up
    p = draw(st.sampled_from((0.5, 0.1)))
    rng = draw(st.randoms(use_true_random=False))
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Gf2Matrix(range(n), rows)


@given(symmetric_matrices())
def test_det_and_kernel_witness_match_elimination_rank(m):
    full = rank_by_elimination(m) == m.order
    assert m.det() == full
    w = m.kernel_witness()
    if full:
        assert w is None
    else:
        assert w
        for v in m.labels:
            assert sum(m.entry(v, s) for s in w) % 2 == 0


# values of gf2.BATCH_MIN that force each update mode of the pivot-out walk
DIRECT, BATCHED = 10**9, 0
MODES = [pytest.param(DIRECT, id="direct"), pytest.param(BATCHED, id="batched")]


def random_rows(rng, n, p, loop_p):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        if rng.random() < loop_p:
            rows[i] |= 1 << i
    return rows


def test_pivot_out_modes_take_the_same_blocks_and_rows(monkeypatch):
    # sparse rows give 2x2 blocks whose ends are 16 or more columns apart;
    # from k = 80 on, walks over 1-16 positions of 130-500 rows, as pivot,
    # lc, apply-support and anchored reduce send on large graphs
    rng = random.Random(2026)
    for k in range(104):
        few = k >= 80
        n = rng.randint(130, 500) if few else rng.randint(5, 60) if k % 4 else rng.randint(61, 300)
        # dense rows for the few-position walks, so that most take blocks
        p = 0.5 if few else rng.choice((0.5, 0.1, 0.02))
        rows = random_rows(rng, n, p, rng.choice((0.0, 0.3)))
        if few:
            live = gf2._mask(rng.sample(range(n), rng.randint(1, 16)))
        else:
            live = rng.getrandbits(n) if rng.random() < 0.5 else (1 << n) - 1
        first = rng.choice(list(gf2._ones(live))) if live and rng.random() < 0.5 else None
        results = []
        for mode in (DIRECT, BATCHED):
            monkeypatch.setattr(gf2, "BATCH_MIN", mode)
            results.append(gf2._pivot_out(rows, live, first))
        assert results[0] == results[1]


@pytest.mark.parametrize("mode", MODES)
def test_pivot_out_leaves_positions_over_exactly_when_singular(monkeypatch, mode):
    # ``first`` is a preference: the first block holds it when it has one
    # (a loop, or a loop-free neighbour in live), and a ``first`` with none
    # changes nothing, so whatever is left over certifies det A[live] = 0
    monkeypatch.setattr(gf2, "BATCH_MIN", mode)
    rng = random.Random(26)
    seen = set()
    for k in range(200):
        n = rng.randint(96, 160) if k % 4 == 0 else rng.randint(1, 40)
        rows = random_rows(rng, n, rng.choice((0.5, 0.1)), rng.choice((0.0, 0.3)))
        live = (1 << n) - 1 if k % 3 == 0 else rng.getrandbits(n)
        positions = [x for x in range(n) if live >> x & 1]
        m = Gf2Matrix(range(n), rows).principal_submatrix(positions)
        singular = rank_by_elimination(m) < len(positions)
        without = gf2._pivot_out(rows, live)
        assert bool(without[2]) == singular
        loop_free = [x for x in positions if not rows[x] >> x & 1]
        for first in positions if n <= 40 else rng.sample(positions, min(6, len(positions))):
            out = gf2._pivot_out(rows, live, first)
            _, blocks, left = out
            assert bool(left) == singular
            partners = [x for x in loop_free if rows[first] >> x & 1]
            if rows[first] >> first & 1:
                assert blocks[0] == (first,)
            elif partners:
                assert blocks[0] == tuple(sorted((first, partners[0])))
            else:
                assert first not in (blocks[0] if blocks else ())
                assert out == without
            seen.add((singular, bool(rows[first] >> first & 1 or partners)))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("mode", MODES)
def test_pivot_out_returns_the_ppt_and_leaves_its_input_unwritten(monkeypatch, mode):
    # the walk copies the rows it is given and returns A*T, with T the
    # positions taken, as a new tuple
    monkeypatch.setattr(gf2, "BATCH_MIN", mode)
    rng = random.Random(31)
    took = 0
    for k in range(40):
        n = rng.randint(1, 110)
        rows = random_rows(rng, n, rng.choice((0.5, 0.1)), rng.choice((0.0, 0.3)))
        before = list(rows)
        live = (1 << n) - 1 if k % 2 else rng.getrandbits(n)
        first = rng.choice(list(gf2._ones(live))) if live and k % 3 == 0 else None
        out, blocks, _ = gf2._pivot_out(rows, live, first)
        assert rows == before
        taken = [p for block in blocks for p in block]
        assert out == ppt_by_block_inverse(Gf2Matrix(range(n), rows), taken).rows
        took += bool(taken)
    assert took > 30


@pytest.mark.parametrize("mode", MODES)
def test_large_walks_match_independent_oracles(monkeypatch, mode):
    # orders above the default BATCH_MIN, checked in each mode against the
    # Gauss-Jordan rank, the block-inverse ppt and the witness's definition
    monkeypatch.setattr(gf2, "BATCH_MIN", mode)
    rng = random.Random(130)
    seen = set()
    for n, p, loop_p in [(130, 0.5, 0.3), (160, 0.1, 0.0), (197, 0.5, 0.0), (230, 0.05, 0.3), (300, 0.5, 0.3)]:
        m = Gf2Matrix(range(n), random_rows(rng, n, p, loop_p))
        full = rank_by_elimination(m) == n
        seen.add(full)
        assert m.det() == full
        w = m.kernel_witness()
        if full:
            assert w is None
        else:
            mask = gf2._mask(w)
            assert w and all((r & mask).bit_count() % 2 == 0 for r in m.rows)
        S = rng.sample(range(n), rng.randint(128, n))
        expected = ppt_by_block_inverse(m, S)
        seen.add(expected is None)
        if expected is None:
            assert_refuses_support(m.ppt, S)
        else:
            assert m.ppt(S) == expected
    assert seen == {True, False}


def test_synthesize_reduced_same_in_both_modes(monkeypatch):
    rng = random.Random(128)
    found = 0
    for n, loop_p in [(140, 0.3), (150, 0.0), (180, 0.5)]:
        G = random_loop_graph(rng, n, 0.5, loop_p)
        for S in (G.vertices, *(rng.sample(G.vertices, 130) for _ in range(3))):
            for anchor in (None, rng.choice(S)):
                outs = []
                for mode in (DIRECT, BATCHED):
                    monkeypatch.setattr(gf2, "BATCH_MIN", mode)
                    try:
                        outs.append(synthesize_reduced(G, S, anchor))
                    except NotApplicableError as err:
                        outs.append(str(err))
                assert outs[0] == outs[1]
                found += isinstance(outs[0], tuple)
    # sequences, not only refusals, were compared
    assert found >= 6


def test_walk_nonsingular_hands_leaf_each_ppt_once():
    # looped partners w of a loop-free v occur at 30 % and 60 % loops; the
    # rows handed to the leaf must be A*T, for every T of det 1 exactly once
    rng = random.Random(13)
    partners = 0
    for k in range(33):
        n, loop_p = k % 11, (0.0, 0.3, 0.6)[k // 11]
        rows = random_rows(rng, n, 0.5, loop_p)
        m = Gf2Matrix(range(n), rows)
        got = []
        count = gf2._walk_nonsingular(rows, (1 << n) - 1, got.append)
        expected = []
        for mask in range(1, 1 << n):
            T = list(gf2._ones(mask))
            ppt = ppt_by_block_inverse(m, T)
            if ppt is not None:
                expected.append(ppt.rows)
                # the walk's first block on T: {v, w} when v is loop-free
                v = T[0]
                w = min(gf2._ones(rows[v] & mask), default=v)
                partners += w != v and rows[w] >> w & 1
        assert sorted(got) == sorted(expected)
        assert count == len(expected) == gf2._walk_nonsingular(rows, (1 << n) - 1, None)
    assert partners
