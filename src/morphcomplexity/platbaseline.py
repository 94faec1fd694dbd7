"""Exponent-plat baseline: pairwise conditional entropies over affix swaps.

A plat is a (class x slot) table of exponents.  The baseline distribution
r(exponent_i | exponent_j) only redistributes mass among the exponents that
actually occur in the table, so it has finite support by construction; that
limitation is deliberate, since contrasting it with the full-support string
model is the point of the comparison.
"""

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add

from .corpus import check_slot_names, data_lines

EMPTY_MARKS = {"∅", "-", ""}


@dataclass
class Plat:
    classes: list                    # class ids
    slots: list                      # slot ids
    exponent: list                   # exponent[c][s], empty string allowed
    weights: list = field(default=None)

    def __post_init__(self):
        if not self.slots:
            raise ValueError("a plat needs at least one slot")
        if not self.classes:
            raise ValueError("a plat needs at least one class")
        if self.weights is None:
            self.weights = [1.0 / len(self.classes)] * len(self.classes)
        if len(self.weights) != len(self.classes):
            raise ValueError("one weight per class required")
        if not (all(0.0 <= w < math.inf for w in self.weights)
                and abs(sum(self.weights) - 1.0) <= 1e-9):
            raise ValueError("class weights must be finite, >= 0 and sum to 1")
        if len(self.exponent) != len(self.classes) or any(
                len(row) != len(self.slots) for row in self.exponent):
            raise ValueError("every class row must fill every slot, one row per class")
        check_slot_names(self.slots, "plat header")


def parse_plat(stream):
    """Parse the plat TSV: header of slot ids, then one row per class
    (class id, optional numeric weight, exponents)."""
    rows = [line.split("\t") for _, line in data_lines(stream)]
    if len(rows) < 2:
        raise ValueError("plat needs a header row and at least one class row")
    header = rows[0]
    has_weight = len(header) > 1 and header[1].lower() == "weight"
    slots = header[2:] if has_weight else header[1:]
    classes, weights, exponent = [], [], []
    for row in rows[1:]:
        expected = len(slots) + (2 if has_weight else 1)
        if len(row) != expected:
            raise ValueError("class row %r: expected %d fields" % (row[0], expected))
        classes.append(row[0])
        if has_weight:
            weights.append(float(row[1]))
            cells = row[2:]
        else:
            cells = row[1:]
        exponent.append(["" if c.strip() in EMPTY_MARKS else c.strip() for c in cells])
    if not has_weight:
        weights = None
    return Plat(classes=classes, slots=slots, exponent=exponent, weights=weights)


def _column(plat, j):
    """Column j's exponents in order of first occurrence, each mapped to its
    mass (added in class order) and its (weight, row) pairs in class order."""
    members = {}
    for w, row in zip(plat.weights, plat.exponent):
        members.setdefault(row[j], []).append((w, row))
    return {e: (reduce(add, [w for w, _ in m], 0.0), m) for e, m in members.items()}


def _dist(members, i, mass):
    dist = {}
    for w, row in members:
        dist[row[i]] = dist.get(row[i], 0.0) + w
    return {e: w / mass for e, w in dist.items()}


def cond_dist(plat, slot_i, slot_j, exponent_j):
    """Distribution over slot_i exponents for the classes whose slot_j
    exponent equals exponent_j, weighted by class weights."""
    mass, members = _column(plat, plat.slots.index(slot_j)).get(exponent_j, (0.0, []))
    if mass == 0.0:
        raise ValueError("exponent %r does not occur in column %r" % (exponent_j, slot_j))
    return _dist(members, plat.slots.index(slot_i), mass)


def _entropy(dist):
    return -sum(p * math.log2(p) for p in dist.values() if p > 0)


def marginal(plat, slot):
    """Class-weight marginal over the exponents of one column."""
    return {e: mass for e, (mass, _) in _column(plat, plat.slots.index(slot)).items()}


def _cond_entropy(i, column):
    """H(slot i | the slot of a `_column`), as `cond_entropy` defines it."""
    return reduce(add, [mass * _entropy(_dist(members, i, mass))
                        for mass, members in column.values() if mass > 0], 0.0)


def cond_entropy(plat, slot_i, slot_j):
    """H(slot_i | slot_j) in bits: the exponent-marginal of column j times
    the entropy of each conditional exponent distribution.  Exponents of
    mass 0 (only in zero-weight classes) add nothing and are skipped."""
    if slot_i == slot_j:
        raise ValueError("conditional entropy of a slot given itself is excluded")
    return _cond_entropy(plat.slots.index(slot_i), _column(plat, plat.slots.index(slot_j)))


def cond_entropies(plat):
    """(slot_i, slot_j, H(slot_i | slot_j)) for all ordered slot pairs
    i != j, in i-then-j order, from one `_column` per slot."""
    columns = [_column(plat, j) for j in range(len(plat.slots))]
    return [(si, sj, _cond_entropy(i, columns[j])) for i, si in enumerate(plat.slots)
            for j, sj in enumerate(plat.slots) if i != j]


def mean_cond_entropy(pairs):
    """Mean of `cond_entropies`' n^2 - n values, added in their order."""
    if not pairs:
        raise ValueError("average conditional entropy needs at least 2 slots")
    return reduce(add, [h for _, _, h in pairs], 0.0) / len(pairs)


def avg_cond_entropy(plat):
    """Mean of H(i|j) over the n^2 - n ordered slot pairs i != j, from `cond_entropies`."""
    return mean_cond_entropy(cond_entropies(plat))


def joint_per_form_entropy(plat):
    """Per-form entropy of the plat's paradigm distribution itself.

    Knowing one full paradigm means knowing its row of exponents, so the
    joint entropy is the entropy of the distribution over distinct exponent
    rows; dividing by the slot count gives the per-form figure the average
    conditional entropy should be compared against.
    """
    rows = {}
    for c, row in enumerate(plat.exponent):
        key = tuple(row)
        rows[key] = rows.get(key, 0.0) + plat.weights[c]
    return _entropy(rows) / len(plat.slots)
