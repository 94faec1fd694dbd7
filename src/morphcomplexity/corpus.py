"""Lexicon ingestion, paradigm grouping, pair expansion and train/dev/test splits."""

import logging
import random
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

# sentinel slot name for the empty-source (root) conditioning context
ROOT = "<ROOT>"
# sentinel source form for root pairs
EMPTY = ""


class LexiconFormatError(ValueError):
    """A line of the input lexicon does not have the 3-column shape."""

    def __init__(self, lineno, line):
        self.lineno = lineno
        self.line = line
        super().__init__("line %d: expected 3 tab-separated fields, got: %r" % (lineno, line))


class InsufficientDataError(ValueError):
    pass


@dataclass(frozen=True)
class WordType:
    lexeme: str
    slot: str
    form: str


@dataclass
class Paradigm:
    lexeme: str
    entries: dict  # slot -> form

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class PairExample:
    """One directed mapping src_form@src_slot -> tgt_form@tgt_slot.

    src_slot == ROOT (with src == EMPTY) marks a root mapping.
    """
    lexeme: str
    src: str
    src_slot: str
    tgt: str
    tgt_slot: str


@dataclass
class SplitSpec:
    regime: str = "purple"          # "purple" | "green"
    paradigm_count: int = 600
    pair_count: int = 60000
    dev_paradigms: int = 50
    test_paradigms: int = 50
    seed: int = 0


@dataclass
class DataSplit:
    train_pairs: list
    dev_paradigms: list
    test_paradigms: list
    inventory: list                 # the ingested slot inventory, sorted
    spec: SplitSpec = field(default=None)

    @property
    def dev_pairs(self):
        return expand_paradigm_pairs(self.dev_paradigms)

    @property
    def test_pairs(self):
        return expand_paradigm_pairs(self.test_paradigms)


def parse_unimorph(stream, on_error="collect"):
    """Parse UniMorph-style TSV lines (lemma, form, ;-joined features).

    Blank lines and '#'-comments are skipped.  Returns (words, errors) where
    errors is a list of LexiconFormatError.  With on_error='raise', the first
    malformed line raises instead.
    """
    words = []
    errors = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3 or not all(f.strip() for f in fields):
            err = LexiconFormatError(lineno, line)
            if on_error == "raise":
                raise err
            errors.append(err)
            continue
        lemma, form, feats = (f.strip() for f in fields)
        words.append(WordType(lexeme=lemma, slot=feats, form=form))
    return words, errors


def pos_of(slot):
    """First feature token of a slot string, the UniMorph POS."""
    return slot.split(";", 1)[0]


def build_paradigms(words, pos_filter=None):
    """Group word types by lexeme into paradigms.

    Returns (inventory, paradigms): inventory is the lexicographically
    sorted list of distinct slots observed (after the POS filter), and
    paradigms is a list of Paradigm sorted by lexeme.  Duplicate
    (lexeme, slot) entries keep the first occurrence; later conflicting
    forms are logged and dropped.
    """
    slots = set()
    by_lexeme = {}
    order = []
    for w in words:
        if pos_filter is not None and pos_of(w.slot) != pos_filter:
            continue
        slots.add(w.slot)
        if w.lexeme not in by_lexeme:
            by_lexeme[w.lexeme] = {}
            order.append(w.lexeme)
        entries = by_lexeme[w.lexeme]
        if w.slot in entries:
            if entries[w.slot] != w.form:
                log.warning("duplicate cell %s/%s: keeping %r, dropping %r",
                            w.lexeme, w.slot, entries[w.slot], w.form)
            continue
        entries[w.slot] = w.form
    inventory = sorted(slots)
    paradigms = [Paradigm(lexeme=lx, entries=by_lexeme[lx]) for lx in sorted(order)]
    return inventory, paradigms


def expand_paradigm_pairs(paradigms):
    """All ordered non-identity slot-to-slot mappings plus one root mapping
    per filled slot, for each paradigm."""
    pairs = []
    for p in paradigms:
        slots = sorted(p.entries)
        for tgt_slot in slots:
            tgt = p.entries[tgt_slot]
            pairs.append(PairExample(p.lexeme, EMPTY, ROOT, tgt, tgt_slot))
            for src_slot in slots:
                if src_slot == tgt_slot:
                    continue
                pairs.append(PairExample(p.lexeme, p.entries[src_slot], src_slot, tgt, tgt_slot))
    return pairs


def make_split(paradigms, spec, inventory):
    """Partition paradigms into train pairs plus dev/test held-out paradigms.

    The split carries the slot inventory decided at ingest unchanged,
    including slots that no sampled paradigm fills.

    Dev/test are full random holdouts of paradigms with >= 2 filled slots.
    Purple regime: all mappings from `paradigm_count` sampled paradigms.
    Green regime: `pair_count` mappings sampled without replacement from all
    mappings of the non-held-out paradigms.
    """
    rng = random.Random(spec.seed)
    eligible = [p for p in paradigms if len(p.entries) >= 2]
    need = spec.dev_paradigms + spec.test_paradigms
    if len(eligible) < need + 1:
        raise InsufficientDataError(
            "need at least %d paradigms with >=2 filled slots for dev/test holdout "
            "plus 1 for training, have %d" % (need + 1, len(eligible)))
    held = rng.sample(eligible, need)
    dev = held[:spec.dev_paradigms]
    test = held[spec.dev_paradigms:]
    held_lexemes = {p.lexeme for p in held}
    rest = [p for p in paradigms if p.lexeme not in held_lexemes]

    if spec.regime == "purple":
        if len(rest) <= spec.paradigm_count:
            if len(rest) < spec.paradigm_count:
                log.info("only %d training paradigms available (requested %d); using all",
                         len(rest), spec.paradigm_count)
            chosen = rest
        else:
            chosen = rng.sample(rest, spec.paradigm_count)
        train = expand_paradigm_pairs(chosen)
    elif spec.regime == "green":
        pool = expand_paradigm_pairs(rest)
        if len(pool) <= spec.pair_count:
            if len(pool) < spec.pair_count:
                log.info("only %d training pairs available (requested %d); using all",
                         len(pool), spec.pair_count)
            train = pool
        else:
            train = rng.sample(pool, spec.pair_count)
    else:
        raise ValueError("unknown regime %r" % spec.regime)
    return DataSplit(train_pairs=train, dev_paradigms=dev, test_paradigms=test,
                     inventory=list(inventory), spec=spec)


def _pair_record(p):
    return {"src": p.src, "src_slot": None if p.src_slot == ROOT else p.src_slot,
            "tgt": p.tgt, "tgt_slot": p.tgt_slot, "lexeme": p.lexeme}


def _pair_from_record(r):
    src_slot = r["src_slot"] if r["src_slot"] is not None else ROOT
    return PairExample(r.get("lexeme", ""), r["src"], src_slot, r["tgt"], r["tgt_slot"])


def split_to_json(split):
    return {
        "regime": split.spec.regime if split.spec else None,
        "seed": split.spec.seed if split.spec else None,
        "inventory": split.inventory,
        "train_pairs": [_pair_record(p) for p in split.train_pairs],
        "dev_paradigms": [{"lexeme": p.lexeme, "entries": p.entries} for p in split.dev_paradigms],
        "test_paradigms": [{"lexeme": p.lexeme, "entries": p.entries} for p in split.test_paradigms],
    }


def split_from_json(obj):
    if "inventory" not in obj:
        raise ValueError("split has no slot inventory; re-run split")
    spec = SplitSpec(regime=obj.get("regime") or "purple", seed=obj.get("seed") or 0)
    return DataSplit(
        train_pairs=[_pair_from_record(r) for r in obj["train_pairs"]],
        dev_paradigms=[Paradigm(d["lexeme"], dict(d["entries"])) for d in obj["dev_paradigms"]],
        test_paradigms=[Paradigm(d["lexeme"], dict(d["entries"])) for d in obj["test_paradigms"]],
        inventory=obj["inventory"], spec=spec,
    )
