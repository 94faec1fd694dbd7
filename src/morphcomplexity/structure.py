"""Structure learning: dev-set weight matrix and maximum spanning arborescence.

Weights follow the convention edge[i][j] = weight of the edge j -> i, i.e.
how well slot j's form predicts slot i's form on dev data.  The optimum
single-root tree is found by running Chu-Liu/Edmonds once per forced root
and keeping the best total (root vertex weight plus edge weights).
"""

import json
import logging
from dataclasses import dataclass, field

from .corpus import ROOT, EMPTY

log = logging.getLogger(__name__)


@dataclass
class WeightMatrix:
    slots: list                 # slot names, index order
    edge: list                  # edge[i][j]: predict slot i from slot j (bits)
    root: list                  # root[i]: predict slot i from the empty context

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


def compute_weights(model, dev_paradigms, slots):
    """Average dev log2-probabilities for every slot pair and root context.

    Cell (i, j) averages over the dev paradigms where both slots are filled;
    root[i] over those where slot i is filled.  A slot never filled in dev
    gets the language-average root weight for all its entries and is flagged.
    """
    n = len(slots)
    edge_sum = [[0.0] * n for _ in range(n)]
    edge_cnt = [[0] * n for _ in range(n)]
    root_sum = [0.0] * n
    root_cnt = [0] * n
    for p in dev_paradigms:
        filled = [i for i, s in enumerate(slots) if s in p.entries]
        for i in filled:
            tgt = p.entries[slots[i]]
            root_sum[i] += model.logprob(EMPTY, ROOT, slots[i], tgt)
            root_cnt[i] += 1
            for j in filled:
                if i == j:
                    continue
                edge_sum[i][j] += model.logprob(p.entries[slots[j]], slots[j], slots[i], tgt)
                edge_cnt[i][j] += 1
    root = [root_sum[i] / root_cnt[i] if root_cnt[i] else None for i in range(n)]
    seen_roots = [r for r in root if r is not None]
    if not seen_roots:
        raise ValueError("no slot of the inventory is filled in any dev paradigm")
    fallback = sum(seen_roots) / len(seen_roots)
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
            if edge_cnt[i][j]:
                edge[i][j] = edge_sum[i][j] / edge_cnt[i][j]
            else:
                # pair never co-filled in dev: no evidence conditioning helps
                edge[i][j] = root[i]
    return WeightMatrix(slots=list(slots), edge=edge, root=root)


def _greedy_parents(nodes, root, w):
    """Best incoming edge per non-root node; ties go to the smallest parent."""
    pa = {}
    for v in nodes:
        if v == root:
            continue
        best = None
        for u in nodes:
            if u == v:
                continue
            if best is None or w[(v, u)] > w[(v, best)] or \
                    (w[(v, u)] == w[(v, best)] and u < best):
                best = u
        pa[v] = best
    return pa


def _find_cycle(pa):
    for start in sorted(pa):
        path = []
        seen = set()
        node = start
        while node in pa and node not in seen:
            seen.add(node)
            path.append(node)
            node = pa[node]
        if node in seen:
            return path[path.index(node):]
    return None


def _cle(nodes, root, w, next_id):
    """Chu-Liu/Edmonds on a dense weight map w[(child, parent)], maximizing."""
    pa = _greedy_parents(nodes, root, w)
    cycle = _find_cycle(pa)
    if cycle is None:
        return pa
    cyc = set(cycle)
    super_node = next_id
    rest = [v for v in nodes if v not in cyc]
    new_nodes = rest + [super_node]
    w2 = {}
    enter_choice = {}   # outside parent u -> cycle node whose edge is replaced
    leave_choice = {}   # outside child v -> cycle node that parents it
    for u in rest:
        best_v, best_gain = None, None
        for v in cycle:
            gain = w[(v, u)] - w[(v, pa[v])]
            if best_gain is None or gain > best_gain or (gain == best_gain and v < best_v):
                best_v, best_gain = v, gain
        w2[(super_node, u)] = best_gain
        enter_choice[u] = best_v
    for x in rest:
        if x == root:
            continue
        best_u, best_w = None, None
        for u in cycle:
            if best_w is None or w[(x, u)] > best_w or (w[(x, u)] == best_w and u < best_u):
                best_u, best_w = u, w[(x, u)]
        w2[(x, super_node)] = best_w
        leave_choice[x] = best_u
        for u in rest:
            if u != x:
                w2[(x, u)] = w[(x, u)]
    if root not in rest:
        raise AssertionError("root contracted into a cycle")
    pa2 = _cle(new_nodes, root, w2, next_id + 1)
    parent = {}
    entered_via = None
    for v, u in pa2.items():
        if v == super_node:
            entered_via = enter_choice[u]
            parent[entered_via] = u
        elif u == super_node:
            parent[v] = leave_choice[v]
        else:
            parent[v] = u
    for v in cycle:
        if v != entered_via:
            parent[v] = pa[v]
    return parent


def max_arborescence(W):
    """Single-root maximum spanning arborescence over the weight matrix.

    Runs Edmonds once per forced root; the best total of root weight plus
    edge weights wins.  Ties prefer the lowest root index, then the
    lexicographically smallest parent vector among the per-root optima.
    """
    n = W.n
    if n == 0:
        raise ValueError("empty weight matrix")
    if n == 1:
        return Arborescence(slots=list(W.slots), root=0, parent={})
    w = {(i, j): W.edge[i][j] for i in range(n) for j in range(n) if i != j}
    best = None
    for r in range(n):
        pa = _cle(list(range(n)), r, w, n)
        tree = Arborescence(slots=list(W.slots), root=r, parent=pa)
        score = tree_score(tree, W)
        key = (-score, r, tuple(pa.get(i, -1) for i in range(n)))
        if best is None or key < best[0]:
            best = (key, tree)
    tree = best[1]
    tree.validate()
    return tree


def tree_score(tree, W):
    """Root weight plus the sum of chosen edge weights, in bits."""
    if len(tree.slots) != W.n:
        raise ValueError("tree has %d slots, matrix has %d" % (len(tree.slots), W.n))
    total = W.root[tree.root]
    for child, par in tree.parent.items():
        total += W.edge[child][par]
    return total
