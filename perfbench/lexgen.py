"""Seeded UniMorph-style lexicon generator for the benchmark (stdlib only).

Each lexeme draws a stem and one of four inflection classes; the form of a
slot is the stem plus the class's suffix for that slot.  About one cell in
ten is left empty, because real UniMorph paradigms are partial.

The language (the class-by-slot suffix table) is fixed by the POS and slot
count, so a workload always measures the same grammar; the seed draws the
lexicon sampled from it.  The same seed always gives the same bytes.
"""

import hashlib
import itertools
import random

STEM_ALPHABET = "abdeiklu"
STEM_LEN = (3, 7)
SUFFIX_LEN = (0, 3)
CLASS_WEIGHTS = (0.4, 0.3, 0.2, 0.1)
EMPTY_CELL_RATE = 0.1

# noun: case x number x definiteness, 8 x 2 x 2 = 32 slots
NOUN_FEATURES = (("NOM", "ACC", "GEN", "DAT", "INS", "ESS", "ABL", "VOC"),
                 ("SG", "PL"), ("DEF", "INDF"))
# verb: 7 tense/aspect/mood/voice cells x 16 person-number-gender cells = 112,
# the size of the Arabic verb inventory
VERB_TAM = ("PFV;ACT", "PFV;PASS", "IPFV;IND;ACT", "IPFV;IND;PASS",
            "IPFV;SBJV;ACT", "IPFV;JUS;ACT", "IMP;ACT")
VERB_PNG = tuple(";".join(c) for c in itertools.product(
    ("1", "2", "3"), ("SG", "DU", "PL"), ("MASC", "FEM")) if c[:2] != ("1", "DU"))


def inventory(pos, n):
    """The first n slot names of the POS's feature product."""
    if pos == "N":
        cells = [";".join(("N",) + c) for c in itertools.product(*NOUN_FEATURES)]
    elif pos == "V":
        cells = ["V;%s;%s" % c for c in itertools.product(VERB_TAM, VERB_PNG)]
    else:
        raise ValueError("unknown POS %r" % pos)
    if not 1 <= n <= len(cells):
        raise ValueError("POS %s has 1..%d slots, asked for %d" % (pos, len(cells), n))
    return cells[:n]


def _word(rng, lo, hi):
    return "".join(rng.choice(STEM_ALPHABET) for _ in range(rng.randint(lo, hi)))


def generate(pos, n_slots, n_paradigms, seed):
    """UniMorph TSV text plus a summary: sha256, size, coverage and the
    slots filled at least once."""
    slots = inventory(pos, n_slots)
    grammar = random.Random("%s-%d" % (pos, n_slots))
    suffixes = [[_word(grammar, *SUFFIX_LEN) for _ in slots] for _ in CLASS_WEIGHTS]
    rng = random.Random(seed)
    lines = []
    cells = 0
    used = set()
    for i in range(n_paradigms):
        stem = _word(rng, *STEM_LEN)
        cls = rng.choices(range(len(CLASS_WEIGHTS)), weights=CLASS_WEIGHTS)[0]
        filled = [k for k in range(n_slots) if rng.random() >= EMPTY_CELL_RATE]
        if not filled:
            filled = [rng.randrange(n_slots)]
        lexeme = "lex%05d" % i
        for k in filled:
            lines.append("%s\t%s\t%s\n" % (lexeme, stem + suffixes[cls][k], slots[k]))
        cells += len(filled)
        used.update(filled)
    text = "".join(lines)
    summary = {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "paradigms": n_paradigms,
        "slots": n_slots,
        "coverage": cells / (n_paradigms * n_slots),
        "inventory": sorted(slots[k] for k in used),
    }
    return text, summary


def write_lexicon(path, pos, n_slots, n_paradigms, seed):
    text, summary = generate(pos, n_slots, n_paradigms, seed)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return summary
