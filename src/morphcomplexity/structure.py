"""Structure learning: dev-set weight matrix and maximum spanning arborescence.

Weights follow the convention edge[i][j] = weight of the edge j -> i, i.e.
how well slot j's form predicts slot i's form on dev data.  The optimum
single-root tree (root vertex weight plus edge weights) is found by one
Chu-Liu/Edmonds pass from an artificial root vertex whose edges are
penalized so that exactly one of them is used; see `max_arborescence`.
"""

import logging
import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add

from .corpus import EMPTY, ROOT, check_slot_names
from .stats import forked_ranges

log = logging.getLogger(__name__)


@dataclass
class WeightMatrix:
    slots: list                 # slot names, index order
    edge: list                  # edge[i][j]: predict slot i from slot j (bits)
    root: list                  # root[i]: predict slot i from the empty context

    def __post_init__(self):
        n = len(self.slots)
        if len(self.edge) != n or len(self.root) != n or any(len(r) != n for r in self.edge):
            raise ValueError("weights must be %d x %d edges and %d root values" % (n, n, n))
        weights = self.root + [x for r in self.edge for x in r]
        if any(isinstance(x, bool) for x in weights) or not all(map(math.isfinite, weights)):
            raise ValueError("weights must be finite numbers")
        check_slot_names(self.slots, "weight slot list")

    @property
    def n(self):
        return len(self.slots)

    def to_json(self):
        return {"slots": self.slots, "edge": self.edge, "root": self.root}

    @classmethod
    def from_json(cls, obj):
        return cls(slots=obj["slots"], edge=obj["edge"], root=obj["root"])


@dataclass
class Arborescence:
    slots: list                 # slot names, index order
    root: int
    parent: dict = field(default_factory=dict)   # child index -> parent index

    def validate(self):
        """Raise ValueError unless every slot but the root has one parent
        and following parents from any slot reaches the root."""
        n = len(self.slots)
        if not 0 <= self.root < n or set(self.parent) != set(range(n)) - {self.root}:
            raise ValueError("tree does not span its %d slots from one root" % n)
        for child in self.parent:
            seen = set()
            node = child
            while node != self.root:
                if node in seen:
                    raise ValueError("tree has a cycle through %s" % self.slots[node])
                seen.add(node)
                node = self.parent[node]

    def to_json(self):
        return {"root": self.slots[self.root],
                "edges": {self.slots[c]: self.slots[p] for c, p in sorted(self.parent.items())}}

    @classmethod
    def from_json(cls, obj, slots):
        if not isinstance(obj["edges"], dict):
            raise ValueError("tree edges are not a JSON object")
        index = {s: i for i, s in enumerate(slots)}
        parent = {index[c]: index[p] for c, p in obj["edges"].items()}
        tree = cls(slots=list(slots), root=index[obj["root"]], parent=parent)
        tree.validate()
        return tree

    def to_dot(self):
        lines = ["digraph paradigm {"]
        lines.append('  "%s" [shape=doubleoctagon];' % self.slots[self.root])
        for child, par in sorted(self.parent.items()):
            lines.append('  "%s" -> "%s";' % (self.slots[par], self.slots[child]))
        lines.append("}")
        return "\n".join(lines) + "\n"


def compute_weights(scorer, dev_paradigms, slots, lambda_grid=None):
    """Average dev log2-probabilities for every slot pair and root context,
    from one pass that scores each dev mapping once.

    The pass builds the matrix a row at a time: for target slot i it walks
    the dev paradigms that fill it, in dev order, and scores the target
    against its root context (ROOT, EMPTY) and every other filled slot of
    the inventory, in sorted order, with one call of the scorer's
    `logprob`, which gives a row for each.  Each cell's count and sum get
    the mappings' scores one by one in dev order.  With a lambda grid it
    scores them under every lambda: the dev cross-entropy of a lambda is
    minus the sum of the cell sums, row by row and the root column last,
    over the mapping count, and the lambda of least dev cross-entropy (the
    first among equals) is set on the scorer and the matrix is the one at
    that lambda.  Without a grid it scores them at the scorer's own lambda.

    The scoring runs on every CPU the process may run on: `forked_ranges`
    cuts the target slots into one contiguous range per CPU, works the
    first here and each later one in a forked child.  A worker makes one
    record per row, (counts, sums), and the records come back in row order,
    so this process adds no score and the result is the same bits on any
    number of CPUs.  A scorer's ValueError in a child is raised in its
    range's turn, after the ranges before it, as on one CPU.

    Cell (i, j) averages over the dev paradigms where both slots are filled;
    root[i] over those where slot i is filled.  A slot never filled in dev
    gets the language-average root weight, the seen root weights folded left
    with `+` in slot order over their count, for all its entries and is flagged.
    """
    n, g = len(slots), 1 if lambda_grid is None else len(lambda_grid)
    index = {s: i for i, s in enumerate(slots)}
    filled = [{s: p.entries[s] for s in sorted(p.entries) if s in index} for p in dev_paradigms]
    if not any(filled):
        raise ValueError("no slot of the inventory is filled in any dev paradigm")

    def score(start, stop):
        # per row i, with j == n for the root context: the mapping count and,
        # per lambda k, the sum sums[k][j]
        for i in range(start, stop):
            tgt_slot, counts, sums = slots[i], [0] * (n + 1), [[0.0] * (n + 1) for _ in range(g)]
            for entries in filled:
                if tgt_slot not in entries:
                    continue
                sources = [(s, f) for s, f in entries.items() if s != tgt_slot]
                columns = [n] + [index[s] for s, _ in sources]
                rows = scorer.logprob(tgt_slot, entries[tgt_slot],
                                      [(ROOT, EMPTY)] + sources, lambda_grid)
                for j in columns:
                    counts[j] += 1
                for row_sums, lps in zip(sums, zip(*rows)):
                    for j, lp in zip(columns, lps):
                        row_sums[j] += lp
            yield counts, sums

    cnt, cell_sum = zip(*forked_ranges(n, score))
    k = 0
    if lambda_grid is not None:
        scored = sum(map(sum, cnt))
        ces = [-reduce(add, chain.from_iterable(sums[k] for sums in cell_sum), 0.0) / scored
               for k in range(g)]
        for lam, ce in zip(lambda_grid, ces):
            log.info("lambda=%g: dev CE %.4f bits", lam, ce)
        k = min(range(g), key=ces.__getitem__)
        scorer.lam = lambda_grid[k]
        log.info("selected lambda=%g (dev CE %.4f bits)", scorer.lam, ces[k])
    root = [cell_sum[i][k][n] / cnt[i][n] if cnt[i][n] else None for i in range(n)]
    seen_roots = [r for r in root if r is not None]
    fallback = reduce(add, seen_roots, 0.0) / len(seen_roots)
    edge = [[0.0] * n for _ in range(n)]
    for i in range(n):
        if root[i] is None:
            log.warning("slot %s never filled in dev; weights fall back to the "
                        "language-average root weight", slots[i])
            root[i] = fallback
            for j in range(n):
                edge[i][j] = fallback
            continue
        for j in range(n):
            if i == j:
                continue
            if cnt[i][j]:
                edge[i][j] = cell_sum[i][k][j] / cnt[i][j]
            else:
                # pair never co-filled in dev: no evidence conditioning helps
                edge[i][j] = root[i]
    return WeightMatrix(slots=list(slots), edge=edge, root=root)


def _edmonds(w, root):
    """Chu-Liu/Edmonds, maximizing, on a dense matrix w[child][parent] in
    which -inf marks a missing edge; returns the parent list of the best
    arborescence from `root` (the root's own entry is meaningless).

    Every vertex takes its best parent, ties to the lowest index.  A cycle
    is contracted into one vertex that is entered through the lowest-index
    cycle vertex among equals, and the smaller matrix is solved the same
    way, until no cycle is left.  The loop holds one contracted matrix at a
    time: each contraction stacks only what its expansion needs, and the
    cycles are expanded again from the last one back.
    """
    def best(pairs):
        return max(pairs, key=lambda p: (p[0], -p[1]))

    stack = []
    while True:
        m = len(w)
        # max returns the first of equal weights and index finds its first place
        pa = [row.index(max(row)) for row in w]
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
            break
        cycle = list(path)[path[v]:]
        rest = [u for u in range(m) if u not in cycle]
        # (weight, cycle parent) of the best edge from the cycle into each x, and
        # (gain, cycle child) of the best edge from each u into the cycle
        leave = [best((w[x][u], u) for u in cycle) for x in rest]
        enter = [best((w[v][u] - w[v][pa[v]], v) for v in cycle) for u in rest]
        w = [[w[x][u] for u in rest] + [weight] for x, (weight, _) in zip(rest, leave)]
        w.append([gain for gain, _ in enter] + [-math.inf])
        stack.append((pa, rest, [u for _, u in leave], [v for _, v in enter]))
        root = rest.index(root)
    parent = pa
    while stack:
        # `inner` solves the contracted matrix, in which the cycle is vertex k:
        # its parent enters the cycle through one vertex, and its children
        # leave the cycle from their best parents in it
        inner, (parent, rest, leave, enter) = parent, stack.pop()
        k = len(rest)
        for i, x in enumerate(rest):
            parent[x] = leave[i] if inner[i] == k else rest[inner[i]]
        parent[enter[inner[k]]] = rest[inner[k]]
    return parent


def max_arborescence(W):
    """Single-root maximum spanning arborescence over the weight matrix.

    One Chu-Liu/Edmonds pass over n + 1 vertices: an artificial root n has
    an edge to every slot i weighing root[i] minus a penalty of n times the
    spread of all weights plus 1, so any tree with two root edges scores
    below every tree with one, and the one child of n is the root.  Ties go
    as in `_edmonds`: best parent with ties to the lowest index, and at a
    contraction the lowest-index cycle vertex among equals.
    """
    n = W.n
    if n == 0:
        raise ValueError("empty weight matrix")
    weights = W.root + [W.edge[i][j] for i in range(n) for j in range(n) if i != j]
    penalty = n * (max(weights) - min(weights)) + 1
    del weights
    rows = ([W.edge[i][j] if i != j else -math.inf for j in range(n)] + [W.root[i] - penalty]
            for i in range(n))
    # the matrix is _edmonds' alone, so it is freed once the first contraction is built
    parent = _edmonds([*rows, [-math.inf] * (n + 1)], n)
    (root,) = [i for i in range(n) if parent[i] == n]
    tree = Arborescence(slots=list(W.slots), root=root,
                        parent={i: parent[i] for i in range(n) if i != root})
    tree.validate()
    return tree


def tree_score(tree, W):
    """Root weight plus the chosen edge weights in child-index order, in bits."""
    if len(tree.slots) != W.n:
        raise ValueError("tree has %d slots, matrix has %d" % (len(tree.slots), W.n))
    total = W.root[tree.root]
    for child in sorted(tree.parent):
        total += W.edge[child][tree.parent[child]]
    return total
