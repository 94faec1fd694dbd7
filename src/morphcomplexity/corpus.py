"""Lexicon ingestion, which reads each line straight into its paradigm, pair
expansion and train/dev/test splits."""

import bisect
import itertools
import logging
import math
import random
from array import array
from dataclasses import dataclass

log = logging.getLogger(__name__)

# sentinel slot name for the empty-source (root) conditioning context
ROOT = "<ROOT>"
# sentinel source form for root pairs
EMPTY = ""


class InsufficientDataError(ValueError):
    """Missing or too little data."""


@dataclass
class Paradigm:
    lexeme: str
    entries: dict  # slot -> form

    def __len__(self):
        return len(self.entries)


def can_hold_out(paradigm):
    """Whether a paradigm may be a dev or test paradigm: it fills >= 2 slots."""
    return len(paradigm.entries) >= 2


@dataclass
class PairView:
    """Sized view of training mappings, which `strmodel.train` counts: every
    mapping of each paradigm (purple), or the sampled (lexeme, src_slot,
    tgt_slot) cells (green).  The paradigm order (purple) or the cell order
    (green) orders each rule table's rows; no other order reaches the model."""
    paradigms: list
    cells: list = None

    def __len__(self):
        if self.cells is None:
            return sum(len(p) ** 2 for p in self.paradigms)
        return len(self.cells)


@dataclass
class DataSplit:
    """The training mappings and the held-out paradigms.  `strmodel.train`
    takes `train_pairs`: it reads the `alphabet` and sets `train_pairs` to
    None, since no later stage reads it (nor the alphabet)."""
    train_pairs: PairView
    dev_paradigms: list
    test_paradigms: list
    inventory: list                 # the ingested slot inventory, sorted
    regime: str                     # "purple" or "green", how train_pairs was sampled

    @property
    def alphabet(self):
        """The sorted characters of the forms of all the split's paradigms."""
        paradigms = self.train_pairs.paradigms + self.dev_paradigms + self.test_paradigms
        return sorted(set("".join(f for p in paradigms for f in p.entries.values())))


def data_lines(stream):
    """(line number, line) of each line of a text stream but the blank and
    the '#' comment lines, its line end dropped: every line format's data."""
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line


def parse_unimorph(stream, pos):
    """Read the `data_lines` of a UniMorph-style TSV (lemma, form, ;-joined
    features) straight into paradigms, one line at a time.

    A well-formed line whose POS is not `pos` is skipped.  Returns
    (inventory, paradigms, errors): inventory is the sorted list of distinct
    slots kept, paradigms a list of Paradigm sorted by lexeme, and errors one
    message per malformed line, of any POS.  A repeated (lexeme, slot) cell
    keeps its first form; a later, different form is logged and dropped."""
    by_lexeme = {}
    errors = []
    # each slot string to itself, or to "" for another POS: a lexicon repeats
    # each slot string once per lexeme, so its POS is read once and one copy kept
    kept_slots = {}
    for lineno, line in data_lines(stream):
        fields = line.split("\t")
        lemma, form, feats = map(str.strip, fields) if len(fields) == 3 else ("", "", "")
        if not (lemma and form and feats):
            errors.append("line %d: expected 3 tab-separated fields, got: %r" % (lineno, line))
            continue
        slot = kept_slots.get(feats)
        if slot is None:
            slot = kept_slots[feats] = feats if pos_of(feats) == pos else ""
        if not slot:
            continue
        entries = by_lexeme.get(lemma)
        if entries is None:
            entries = by_lexeme[lemma] = {}
        kept = entries.setdefault(slot, form)
        if kept != form:
            log.warning("duplicate cell %s/%s: keeping %r, dropping %r", lemma, slot, kept, form)
    inventory = check_slot_names(sorted(set().union(*by_lexeme.values())), "lexicon slot list")
    paradigms = [Paradigm(lexeme=lx, entries=by_lexeme[lx]) for lx in sorted(by_lexeme)]
    return inventory, paradigms, errors


def pos_of(slot):
    """First feature token of a slot string, the UniMorph POS."""
    return slot.split(";", 1)[0]


def expand_paradigm_pairs(paradigms):
    """Every paradigm's mappings as (src, src_slot, tgt_slot, tgt) tuples,
    the key of a `ScoreTable` row, in mapping order: per target slot in
    sorted order, the root mapping (EMPTY from ROOT), then one from every
    other filled slot in sorted order.  Green sampling numbers a
    paradigm's cells in the same order."""
    return [(EMPTY if s == ROOT else p.entries[s], s, t, p.entries[t])
            for p in paradigms for slots in [sorted(p.entries)]
            for t in slots for s in [ROOT, *slots] if s != t]


def _sample_range(rng, n, k):
    """The draws of `rng.sample(range(n), k)` for 0 <= k <= n, in order.
    At or below random.sample's switch from a copied pool to a set of picks
    it is that call.  Above it, it makes random.sample's getrandbits calls
    but marks each pick in a bitmap of n bits and keeps the picks in an
    array: n/8 bytes plus 8 per pick, against about 100 per pick for the
    set, its ints and the result list (measured at k = 60,000)."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        return rng.sample(range(n), k)
    getrandbits, width = rng.getrandbits, n.bit_length()
    seen = bytearray((n + 7) >> 3)
    picks = array("q")
    for _ in range(k):
        j = getrandbits(width)
        while j >= n or seen[j >> 3] >> (j & 7) & 1:
            j = getrandbits(width)
        seen[j >> 3] |= 1 << (j & 7)
        picks.append(j)
    return picks


def make_split(paradigms, spec, inventory):
    """Partition paradigms into train pairs plus dev/test held-out paradigms,
    as the config mapping `spec` sets: its `regime`, `paradigm_count`,
    `pair_count`, `dev_paradigms`, `test_paradigms` and `seed`.

    The split carries the slot inventory decided at ingest unchanged,
    including slots that no sampled paradigm fills.

    Dev/test are full random holdouts of paradigms with >= 2 filled slots.
    Purple regime: all mappings from `paradigm_count` sampled paradigms.
    Green regime: `pair_count` mappings sampled without replacement from all
    mappings of the non-held-out paradigms; the split keeps the paradigms
    that the sampled cells come from.  Its draws are those of
    `rng.sample(range(N), pair_count)` over the N mappings, numbered in
    `expand_paradigm_pairs` order.
    """
    rng = random.Random(spec["seed"])
    eligible = list(filter(can_hold_out, paradigms))
    need = spec["dev_paradigms"] + spec["test_paradigms"]
    if len(eligible) < need + 1:
        raise InsufficientDataError(
            "need at least %d paradigms with >=2 filled slots for dev/test holdout "
            "plus 1 for training, have %d" % (need + 1, len(eligible)))
    held = rng.sample(eligible, need)
    dev = held[:spec["dev_paradigms"]]
    test = held[spec["dev_paradigms"]:]
    held_lexemes = {p.lexeme for p in held}
    rest = [p for p in paradigms if p.lexeme not in held_lexemes]

    cells = None
    if spec["regime"] == "purple":
        count = spec["paradigm_count"]
        if len(rest) < count:
            log.info("only %d training paradigms available (requested %d); using all",
                     len(rest), count)
        train = rest if len(rest) <= count else rng.sample(rest, count)
    elif spec["regime"] == "green":
        count = spec["pair_count"]
        # rng.sample draws by the population's length alone, so indices into
        # the pool expand_paradigm_pairs(rest) would build pick the same pairs
        slots = [sorted(p.entries) for p in rest]
        ends = list(itertools.accumulate(len(s) ** 2 for s in slots))
        draws = range(ends[-1])
        if ends[-1] < count:
            log.info("only %d training pairs available (requested %d); using all",
                     ends[-1], count)
        elif ends[-1] > count:
            draws = _sample_range(rng, ends[-1], count)
        cells = []
        for i in draws:
            j = bisect.bisect_right(ends, i)
            # per target slot t of a paradigm: the root (k = 0), then the other slots
            t, k = divmod(i - (ends[j - 1] if j else 0), len(slots[j]))
            src_slot = ROOT if k == 0 else slots[j][k - 1 if k <= t else k]
            cells.append((rest[j].lexeme, src_slot, slots[j][t]))
        used = {lexeme for lexeme, _, _ in cells}
        train = [p for p in rest if p.lexeme in used]
    else:
        raise ValueError("unknown regime %r" % spec["regime"])
    return DataSplit(train_pairs=PairView(train, cells), dev_paradigms=dev,
                     test_paradigms=test, inventory=list(inventory), regime=spec["regime"])


def paradigms_to_json(paradigms, inventory):
    """Paradigms in the layout of `store.json` and `split.json`: one row per
    paradigm, [lexeme, then the form of each inventory slot in inventory
    order, null where the paradigm does not fill it].  A row holds no slot
    name, so it is shorter than a {slot: form} record while the paradigm
    fills more than about a quarter of the inventory."""
    return [[p.lexeme, *map(p.entries.get, inventory)] for p in paradigms]


def paradigms_from_json(rows, inventory, stage):
    """The paradigms of `paradigms_to_json` rows over `inventory`, each of a
    lexeme no other row gives; a record of the old {"lexeme", "entries"}
    layout says to re-run `stage`, the stage that wrote it."""
    if not isinstance(rows, list):
        raise ValueError("a paradigm list is not a JSON list")
    width = 1 + len(inventory)
    paradigms = []
    for row in rows:
        if isinstance(row, dict):
            raise ValueError("a paradigm is a record of an old layout; re-run %s" % stage)
        if not (isinstance(row, list) and len(row) == width):
            raise ValueError("a paradigm row is not a list of %d items, the lexeme and a "
                             "form or null per inventory slot" % width)
        entries = {s: f for s, f in zip(inventory, row[1:]) if f is not None}
        if not isinstance(row[0], str) or not all(isinstance(f, str) for f in entries.values()):
            raise ValueError("paradigm %r: lexeme and forms must be strings" % (row[0],))
        paradigms.append(Paradigm(row[0], entries))
    if len({p.lexeme for p in paradigms}) < len(paradigms):
        raise ValueError("a paradigm list gives a lexeme twice")
    return paradigms


def check_slot_names(slots, what):
    """`slots`, if it is a list of distinct strings other than ROOT, which
    names the root context; else a ValueError naming `what`."""
    if not (isinstance(slots, list) and all(isinstance(s, str) and s != ROOT for s in slots)
            and len(set(slots)) == len(slots)):
        raise ValueError("%s is not a list of distinct slot names other than %s" % (what, ROOT))
    return slots


def split_to_json(split):
    return {
        "inventory": split.inventory,
        "train_paradigms": paradigms_to_json(split.train_pairs.paradigms, split.inventory),
        "train_cells": split.train_pairs.cells,
        "dev_paradigms": paradigms_to_json(split.dev_paradigms, split.inventory),
        "test_paradigms": paradigms_to_json(split.test_paradigms, split.inventory),
    }


def split_from_json(obj):
    if "inventory" not in obj or "train_pairs" in obj:
        raise ValueError("split has an old layout (no inventory or a pair list); re-run split")
    inventory = check_slot_names(obj["inventory"], "inventory")
    train, dev, test = (paradigms_from_json(obj[k], inventory, "split")
                        for k in ("train_paradigms", "dev_paradigms", "test_paradigms"))
    if len({p.lexeme for p in train + dev + test}) < len(train) + len(dev) + len(test):
        raise ValueError("a lexeme is in two of train, dev and test")
    if not all(map(can_hold_out, dev + test)):
        raise ValueError("a dev or test paradigm fills fewer than 2 slots")
    cells = obj["train_cells"]
    if cells is not None and not isinstance(cells, list):
        raise ValueError("train_cells is neither null nor a list")
    entries = {p.lexeme: p.entries for p in train}
    for cell in cells or ():
        filled = (isinstance(cell, list) and len(cell) == 3
                  and all(isinstance(x, str) for x in cell) and entries.get(cell[0]))
        if not (filled and cell[2] in filled and (cell[1] == ROOT or cell[1] in filled)
                and cell[1] != cell[2]):
            raise ValueError("training cell %r is not [lexeme, source slot, target slot] "
                             "with two different slots that the lexeme's training paradigm "
                             "fills (or the source %s)" % (cell, ROOT))
    return DataSplit(train_pairs=PairView(train, cells), dev_paradigms=dev,
                     test_paradigms=test, inventory=inventory,
                     regime="purple" if cells is None else "green")
