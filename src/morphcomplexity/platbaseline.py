"""Exponent-plat baseline: pairwise conditional entropies over affix swaps.

A plat is a (class x slot) table of exponents.  The baseline distribution
r(exponent_i | exponent_j) only redistributes mass among the exponents that
actually occur in the table, so it has finite support by construction; that
limitation is deliberate, since contrasting it with the full-support string
model is the point of the comparison.
"""

import math
from dataclasses import dataclass, field

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
        if self.weights is None:
            self.weights = [1.0 / len(self.classes)] * len(self.classes)
        if len(self.weights) != len(self.classes):
            raise ValueError("one weight per class required")
        if not (all(0.0 <= w < math.inf for w in self.weights)
                and abs(sum(self.weights) - 1.0) <= 1e-9):
            raise ValueError("class weights must be finite, >= 0 and sum to 1")
        for row in self.exponent:
            if len(row) != len(self.slots):
                raise ValueError("every class row must fill every slot")
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


def cond_dist(plat, slot_i, slot_j, exponent_j):
    """Distribution over slot_i exponents for the classes whose slot_j
    exponent equals exponent_j, weighted by class weights."""
    si = plat.slots.index(slot_i)
    sj = plat.slots.index(slot_j)
    dist = {}
    total = 0.0
    for c, row in enumerate(plat.exponent):
        if row[sj] != exponent_j:
            continue
        w = plat.weights[c]
        dist[row[si]] = dist.get(row[si], 0.0) + w
        total += w
    if total == 0.0:
        raise ValueError("exponent %r does not occur in column %r" % (exponent_j, slot_j))
    return {e: w / total for e, w in dist.items()}


def _entropy(dist):
    return -sum(p * math.log2(p) for p in dist.values() if p > 0)


def marginal(plat, slot):
    """Class-weight marginal over the exponents of one column."""
    s = plat.slots.index(slot)
    dist = {}
    for c, row in enumerate(plat.exponent):
        dist[row[s]] = dist.get(row[s], 0.0) + plat.weights[c]
    return dist


def cond_entropy(plat, slot_i, slot_j):
    """H(slot_i | slot_j) in bits: the exponent-marginal of column j times
    the entropy of each conditional exponent distribution.  Exponents of
    mass 0 (only in zero-weight classes) add nothing and are skipped."""
    if slot_i == slot_j:
        raise ValueError("conditional entropy of a slot given itself is excluded")
    h = 0.0
    for e_j, p in marginal(plat, slot_j).items():
        if p > 0:
            h += p * _entropy(cond_dist(plat, slot_i, slot_j, e_j))
    return h


def avg_cond_entropy(plat):
    """Mean of H(i|j) over all ordered slot pairs i != j (n^2 - n terms)."""
    n = len(plat.slots)
    if n < 2:
        raise ValueError("average conditional entropy needs at least 2 slots")
    total = 0.0
    for i in plat.slots:
        for j in plat.slots:
            if i != j:
                total += cond_entropy(plat, i, j)
    return total / (n * n - n)


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
