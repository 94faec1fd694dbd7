import itertools
import math
import random
import sys
import tracemalloc

import pytest

from morphcomplexity import strmodel, structure
from morphcomplexity.corpus import EMPTY, ROOT, PairView, Paradigm
from morphcomplexity.structure import (
    Arborescence, WeightMatrix, compute_weights, max_arborescence, tree_score,
)

from conftest import train


def brute_force_best(W):
    """Exhaustive search over all single-root spanning arborescences.

    Enumerates every (root, parent vector) combination and keeps those whose
    parent map is acyclic, i.e. a spanning tree directed away from the root.
    """
    n = W.n
    best_score = -math.inf
    best = None
    for root in range(n):
        others = [i for i in range(n) if i != root]
        choices = [[j for j in range(n) if j != i] for i in others]
        for combo in itertools.product(*choices):
            parent = dict(zip(others, combo))
            ok = True
            for start in others:
                seen = set()
                node = start
                while node != root:
                    if node in seen:
                        ok = False
                        break
                    seen.add(node)
                    node = parent[node]
                if not ok:
                    break
            if not ok:
                continue
            tree = Arborescence(slots=list(W.slots), root=root, parent=parent)
            score = tree_score(tree, W)
            if score > best_score:
                best_score = score
                best = tree
    return best_score, best


def random_matrix(rng, n, lo=-5.0, hi=0.0):
    slots = ["S%d" % i for i in range(n)]
    edge = [[rng.uniform(lo, hi) if i != j else 0.0 for j in range(n)] for i in range(n)]
    root = [rng.uniform(lo, hi) for _ in range(n)]
    return WeightMatrix(slots=slots, edge=edge, root=root)


def tied_matrix(rng, n):
    """Small-integer weights, so many trees tie exactly."""
    slots = ["S%d" % i for i in range(n)]
    edge = [[float(rng.randint(-2, 0)) if i != j else 0.0 for j in range(n)] for i in range(n)]
    return WeightMatrix(slots=slots, edge=edge, root=[float(rng.randint(-2, 0)) for _ in range(n)])


def wide_matrix(rng, n):
    """Every root weight above every edge weight: without the single-root
    constraint the best tree would hang every slot from the root."""
    W = random_matrix(rng, n, lo=-100.0, hi=-50.0)
    return WeightMatrix(slots=W.slots, edge=W.edge, root=[rng.uniform(-10.0, 0.0) for _ in range(n)])


# ----------------------------------------------------------- weights

def test_compute_weights_mean(stub_scorer):
    slots = ["A", "B"]
    paradigms = [Paradigm("p1", {"A": "a1", "B": "b1"}),
                 Paradigm("p2", {"A": "a2", "B": "b2"})]
    scorer = stub_scorer({
        (EMPTY, ROOT, "A", "a1"): -1.0, (EMPTY, ROOT, "A", "a2"): -3.0,
        (EMPTY, ROOT, "B", "b1"): -2.0, (EMPTY, ROOT, "B", "b2"): -2.0,
        ("b1", "B", "A", "a1"): -1.0, ("b2", "B", "A", "a2"): -3.0,
        ("a1", "A", "B", "b1"): -0.5, ("a2", "A", "B", "b2"): -0.5,
    })
    W = compute_weights(scorer, paradigms, slots)
    assert W.root == [-2.0, -2.0]
    assert W.edge[0][1] == -2.0     # predict A from B: mean(-1, -3)
    assert W.edge[1][0] == -0.5


def test_compute_weights_perfect_model_gives_zero(stub_scorer):
    slots = ["A", "B", "C"]
    paradigms = [Paradigm("p", {"A": "x", "B": "y", "C": "z"})]
    scorer = stub_scorer({}, default=0.0)
    W = compute_weights(scorer, paradigms, slots)
    assert all(w == 0.0 for w in W.root)
    assert all(W.edge[i][j] == 0.0 for i in range(3) for j in range(3))


def test_compute_weights_hand_fixture(stub_scorer):
    slots = ["A", "B", "C"]
    paradigms = [Paradigm("p1", {"A": "a", "B": "b", "C": "c"})]
    table = {}
    vals = {("A", "B"): -0.5, ("A", "C"): -1.5, ("B", "A"): -0.25,
            ("B", "C"): -2.0, ("C", "A"): -4.0, ("C", "B"): -0.125}
    forms = {"A": "a", "B": "b", "C": "c"}
    for (tgt_s, src_s), w in vals.items():
        table[(forms[src_s], src_s, tgt_s, forms[tgt_s])] = w
    for s in slots:
        table[(EMPTY, ROOT, s, forms[s])] = -3.0
    W = compute_weights(stub_scorer(table), paradigms, slots)
    assert W.edge[0][1] == -0.5 and W.edge[2][1] == -0.125
    assert W.root == [-3.0, -3.0, -3.0]


@pytest.mark.parametrize("roots, fallback", [
    ([-2.0, -4.0], -3.0),               # language-average root weight
    # folded with += in slot order: -1e16 + -1.0 rounds to -1e16, so the
    # mean is 0.0 / 3, where a compensated sum() would give -1.0 / 3
    ([-1e16, -1.0, 1e16], 0.0 / 3),
], ids=["mean", "fold"])
def test_compute_weights_unfilled_slot_falls_back(stub_scorer, caplog, roots, fallback):
    filled = ["S%d" % k for k in range(len(roots))]
    entries = {s: s.lower() for s in filled}
    scorer = stub_scorer({(EMPTY, ROOT, s, entries[s]): r for s, r in zip(filled, roots)},
                         default=-1.0)
    W = compute_weights(scorer, [Paradigm("p", entries)], filled + ["U"])
    assert W.root[-1] == fallback
    assert all(W.edge[-1][j] == fallback for j in range(len(roots) + 1))
    assert "never filled" in caplog.text


# ----------------------------------------------------------- arborescence

def test_single_vertex():
    W = WeightMatrix(slots=["A"], edge=[[0.0]], root=[-1.5])
    tree = max_arborescence(W)
    assert tree.root == 0 and tree.parent == {}
    assert tree_score(tree, W) == -1.5


def test_two_vertices_hand_enumeration():
    # candidates: root 0 + edge into 1 = -1 - 0.2; root 1 + edge into 0 = -5 - 0.5
    W = WeightMatrix(slots=["A", "B"],
                     edge=[[0.0, -0.5], [-0.2, 0.0]],
                     root=[-1.0, -5.0])
    tree = max_arborescence(W)
    assert tree.root == 0 and tree.parent == {1: 0}
    assert tree_score(tree, W) == pytest.approx(-1.2)


@pytest.mark.parametrize("seed", range(10))
def test_matches_brute_force(seed):
    rng = random.Random(seed)
    for make in (random_matrix, tied_matrix, wide_matrix):
        for _ in range(20):
            n = rng.randint(2, 6)
            W = make(rng, n)
            tree = max_arborescence(W)
            tree.validate()
            oracle_score, _ = brute_force_best(W)
            assert tree_score(tree, W) == pytest.approx(oracle_score, abs=1e-12)


def test_invariants_on_random_inputs():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 9)
        tree = max_arborescence(random_matrix(rng, n))
        tree.validate()


def test_monotone_under_constant_shift():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 6)
        W = random_matrix(rng, n)
        tree = max_arborescence(W)
        c = rng.uniform(-3.0, 3.0)
        W2 = WeightMatrix(slots=W.slots,
                          edge=[[w + c for w in row] for row in W.edge],
                          root=[w + c for w in W.root])
        tree2 = max_arborescence(W2)
        # 1 root term + (n-1) edge terms all shift by c
        assert tree_score(tree2, W2) == pytest.approx(tree_score(tree, W) + n * c, abs=1e-9)
        assert tree2.root == tree.root and tree2.parent == tree.parent


def test_beats_star_from_root():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 6)
        W = random_matrix(rng, n)
        best = tree_score(max_arborescence(W), W)
        for hub in range(n):
            star = Arborescence(slots=list(W.slots), root=hub,
                                parent={i: hub for i in range(n) if i != hub})
            assert best >= tree_score(star, W) - 1e-12


def key_rule_edmonds(w, root):
    """`structure._edmonds` as it picked each vertex's best parent before,
    by `max` over (weight, index) pairs with a key: the highest weight, ties
    to the lowest index.  The reference for its `row.index(max(row))`."""
    def best(pairs):
        return max(pairs, key=lambda p: (p[0], -p[1]))

    m = len(w)
    pa = [best((w[v][u], u) for u in range(m))[1] for v in range(m)]
    done = {root}
    for start in range(m):
        path = {}
        v = start
        while v not in done and v not in path:
            path[v] = len(path)
            v = pa[v]
        if v in path:
            break
        done.update(path)
    else:
        return pa
    cycle = list(path)[path[v]:]
    rest = [u for u in range(m) if u not in cycle]
    k = len(rest)
    leave = [best((w[x][u], u) for u in cycle) for x in rest]
    enter = [best((w[v][u] - w[v][pa[v]], v) for v in cycle) for u in rest]
    w2 = [[w[x][u] for u in rest] + [leave[i][0]] for i, x in enumerate(rest)]
    w2.append([gain for gain, _ in enter] + [-math.inf])
    pa2 = key_rule_edmonds(w2, rest.index(root))
    parent = pa[:]
    for i, x in enumerate(rest):
        parent[x] = leave[i][1] if pa2[i] == k else rest[pa2[i]]
    parent[enter[pa2[k]][1]] = rest[pa2[k]]
    return parent


def test_best_parent_pick_equals_the_key_rule(monkeypatch):
    """On tie-heavy matrices, weights drawn from four values, Edmonds gives
    the tree of the key-based parent rule: the same root and parents."""
    rng = random.Random(25)
    values = (-0.5, -1.0, -2.0, -3.0)
    matrices = []
    for _ in range(3000):
        n = rng.randint(1, 9)
        matrices.append(WeightMatrix(
            slots=["S%d" % i for i in range(n)],
            edge=[[rng.choice(values) if i != j else 0.0 for j in range(n)] for i in range(n)],
            root=[rng.choice(values) for _ in range(n)]))
    trees = [max_arborescence(W) for W in matrices]
    monkeypatch.setattr(structure, "_edmonds", key_rule_edmonds)
    for W, tree in zip(matrices, trees):
        want = max_arborescence(W)
        assert (tree.root, tree.parent) == (want.root, want.parent)


def test_edmonds_holds_one_contracted_matrix_at_a_time():
    """On a seeded 112-slot random matrix, which Edmonds contracts about 60
    times, the memory traced inside `max_arborescence` peaks below three
    (n + 1)-square matrices: each contraction frees the matrix before it.
    Keeping every level's matrix, as a recursion does, peaks at about 17."""
    n = 112
    W = random_matrix(random.Random(112), n)
    matrix = (n + 1) * sys.getsizeof([0.0] * (n + 1)) + sys.getsizeof([None] * (n + 1))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        max_arborescence(W)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 3 * matrix, "peak %.1f matrices" % (peak / matrix)


def test_deterministic_tie_break_prefers_low_root():
    W = WeightMatrix(slots=["A", "B"], edge=[[0.0, -1.0], [-1.0, 0.0]],
                     root=[-2.0, -2.0])
    tree = max_arborescence(W)
    assert tree.root == 0


def test_tree_score_hand_chain():
    W = WeightMatrix(slots=["A", "B", "C"],
                     edge=[[0.0, -1.0, -2.0], [-0.5, 0.0, -3.0], [-4.0, -0.25, 0.0]],
                     root=[-1.0, -2.0, -3.0])
    chain = Arborescence(slots=["A", "B", "C"], root=0, parent={1: 0, 2: 1})
    assert tree_score(chain, W) == pytest.approx(-1.0 + -0.5 + -0.25)
    # the same star built in two orders scores the same: edges add in child order
    W = WeightMatrix(slots=["A", "B", "C", "D"],
                     edge=[[0.0] * 4, [1e16, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                           [-1e16, 0.0, 0.0, 0.0]],
                     root=[0.0] * 4)
    for parent in ({1: 0, 2: 0, 3: 0}, {1: 0, 3: 0, 2: 0}):
        star = Arborescence(slots=W.slots, root=0, parent=parent)
        assert tree_score(star, W) == (1e16 + 1.0) - 1e16


def test_tree_score_zero_matrix():
    W = WeightMatrix(slots=["A", "B"], edge=[[0.0, 0.0], [0.0, 0.0]], root=[0.0, 0.0])
    tree = Arborescence(slots=["A", "B"], root=1, parent={0: 1})
    assert tree_score(tree, W) == 0.0


def test_tree_score_dimension_mismatch():
    W = WeightMatrix(slots=["A"], edge=[[0.0]], root=[0.0])
    tree = Arborescence(slots=["A", "B"], root=0, parent={1: 0})
    with pytest.raises(ValueError):
        tree_score(tree, W)


def test_selected_tree_dev_loglik_equals_score():
    # consistency between structure learning and the factored joint on dev
    rng = random.Random(21)
    slots = ["X;A", "X;B", "X;C"]
    suffix = {"X;A": "", "X;B": "en", "X;C": "s"}
    paradigms = []
    for i in range(80):
        stem = "".join(rng.choice("ab") for _ in range(rng.randint(2, 4)))
        paradigms.append(Paradigm("l%d" % i, {s: stem + suffix[s] for s in slots}))
    model = train(PairView(paradigms[:60]))
    dev = paradigms[60:]
    W = compute_weights(model, dev, slots)
    tree = max_arborescence(W)
    mean_joint = sum(strmodel.joint_logprob(model, tree, p) for p in dev) / len(dev)
    assert mean_joint == pytest.approx(tree_score(tree, W), abs=1e-9)


# ----------------------------------------------------------- serialization

def test_tree_json_roundtrip():
    tree = Arborescence(slots=["A", "B", "C"], root=1, parent={0: 1, 2: 0})
    back = Arborescence.from_json(tree.to_json(), ["A", "B", "C"])
    assert back.root == tree.root and back.parent == tree.parent


def test_tree_dot_output():
    tree = Arborescence(slots=["A", "B"], root=0, parent={1: 0})
    dot = tree.to_dot()
    assert dot.startswith("digraph") and '"A" -> "B"' in dot
