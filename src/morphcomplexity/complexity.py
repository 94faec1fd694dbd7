"""The two complexity measures, plus synthetic systems with known entropy.

e-complexity is the slot count of the inventory decided at ingest: every
slot observed for the part of speech, whether or not a sampled paradigm
fills it.  The slot dependency tree spans that inventory, so e-complexity
equals len(tree.slots).  i-complexity is the held-out cross-entropy of the
tree-factored joint in bits per paradigm (i_total_bits); per form it is
i_per_form_bits = i_total_bits / e-complexity, the second value that
`i_complexity` returns.  Plotted against e-complexity (table 2's
paradigm_size axis) it gives one point per language and part of speech.
"""

import csv
import math
from dataclasses import dataclass, asdict, fields

from . import strmodel
from .corpus import Paradigm, check_slot_names


@dataclass
class ComplexityPoint:
    language: str
    pos: str
    regime: str
    e_complexity: int
    i_total_bits: float
    i_per_form_bits: float
    d: int
    seed: int

    def csv_row(self):
        d = asdict(self)
        d["i_total_bits"] = "%.6f" % self.i_total_bits
        d["i_per_form_bits"] = "%.6f" % self.i_per_form_bits
        return d


def i_complexity(model, tree, test_paradigms):
    """Held-out cross-entropy of the tree-factored joint: mean negative
    log2-probability per test paradigm, and the same divided by the slot
    count n of the tree (the e-complexity)."""
    if not test_paradigms:
        raise ValueError("empty test set")
    d = len(test_paradigms)
    total = 0.0
    for p in test_paradigms:
        total -= strmodel.joint_logprob(model, tree, p)
    i_total = total / d
    n = len(tree.slots)
    return i_total, i_total / n


def write_points_csv(points, fh):
    writer = csv.DictWriter(fh, fieldnames=[f.name for f in fields(ComplexityPoint)],
                            lineterminator="\n")
    writer.writeheader()
    for pt in points:
        writer.writerow(pt.csv_row())


class SyntheticSystem:
    """Toy inflectional system with analytically known class entropy.

    Each lexeme draws a stem from the stem generator and an inflection class
    from the class distribution; form(slot) = stem + suffix[class][slot].
    The only irregularity is the class choice, so the per-paradigm entropy
    beyond the stem itself is exactly the class entropy (or less, when
    classes share suffixes in some slots).
    """

    def __init__(self, slots, class_probs, suffix_table, stem_alphabet="abcd",
                 stem_len=(3, 6)):
        if not check_slot_names(slots, "generator slot list"):
            raise ValueError("generator slot list is empty")
        if not (isinstance(stem_alphabet, str) and stem_alphabet):
            raise ValueError("stem_alphabet must be a non-empty string")
        if not (isinstance(stem_len, (list, tuple)) and len(stem_len) == 2
                and all(type(n) is int for n in stem_len) and 0 <= stem_len[0] <= stem_len[1]):
            raise ValueError("stem_len must be two integers lo, hi with 0 <= lo <= hi")
        if abs(sum(class_probs) - 1.0) > 1e-9 or any(p < 0 for p in class_probs):
            raise ValueError("class probabilities must be nonnegative and sum to 1")
        if len(suffix_table) != len(class_probs):
            raise ValueError("suffix table must have one row per class")
        if not all(isinstance(row, (list, tuple)) and len(row) == len(slots)
                   and all(isinstance(x, str) for x in row) for row in suffix_table):
            raise ValueError("suffix table rows must give a string for every slot")
        self.slots = list(slots)
        self.class_probs = list(class_probs)
        self.suffix_table = [list(r) for r in suffix_table]
        self.stem_alphabet = stem_alphabet
        self.stem_len = stem_len

    @property
    def class_entropy(self):
        return -sum(p * math.log2(p) for p in self.class_probs if p > 0)

    def sample_paradigms(self, count, rng):
        paradigms = []
        for i in range(count):
            stem = "".join(rng.choice(self.stem_alphabet)
                           for _ in range(rng.randint(*self.stem_len)))
            c = rng.choices(range(len(self.class_probs)), weights=self.class_probs)[0]
            entries = {slot: stem + self.suffix_table[c][k]
                       for k, slot in enumerate(self.slots)}
            paradigms.append(Paradigm(lexeme="lex%06d" % i, entries=entries))
        return paradigms
