"""Conditional string models q(tgt_form | src_form, slot pair) with full support.

The reference model interpolates a suffix-rewrite rule distribution (each
rule rewrites the ending of a source form into that of a target form, the
endings being what follows the stem that all forms of a training paradigm
share) with a smoothed character n-gram over the target slot's forms.  The
n-gram component gives every string in Sigma* positive probability.  An
externally computed score table can stand in for the reference model
anywhere a scorer is needed.
"""

import json
import math
import sys
from array import array
from collections import Counter, defaultdict
from collections.abc import Iterator
from functools import cached_property
from itertools import chain

from .corpus import ROOT, EMPTY, check_slot_names, data_lines
from .structure import WeightMatrix

FORMAT_VERSION = 4
DEFAULT_LAMBDA = 0.05
# each n-gram history holds order - 1 symbols, so the order bounds memory;
# an order past a form's length + 1 conditions on nothing more
MAX_ORDER = 32

BOS = "<S>"
EOS = "</S>"


class CharNGram:
    """Add-alpha smoothed character n-gram over Sigma* (stop symbol included),
    Sigma being its alphabet, fixed before any form is counted.

    Every history assigns positive probability to every character of Sigma
    and to stopping, so the model is a proper distribution over Sigma*.
    `counts` maps a history, the order - 1 symbols before (start-padded), to
    a dict {next symbol: count}; the totals are summed when first read after
    a change.  `logprob` is computed afresh on each call: the dev pass asks
    it once per dev target, so a per-form memo would not hit.
    """

    def __init__(self, order, alpha, alphabet):
        self.order = order
        self.alpha = alpha
        self.alphabet = sorted(alphabet)
        self._norm = alpha * (len(self.alphabet) + 1)   # alpha for each symbol and stop
        self.counts = defaultdict(dict)   # history tuple -> {next symbol: count}

    @cached_property
    def _totals(self):
        return {hist: sum(c.values()) for hist, c in self.counts.items()}

    def add(self, count, form):
        """Count the form as seen `count` times."""
        self.__dict__.pop("_totals", None)
        counts, hist = self.counts, (BOS,) * (self.order - 1)
        for sym in chain(form, (EOS,)):
            c = counts[hist]
            c[sym] = c.get(sym, 0) + count
            hist = (hist + (sym,))[1:]

    def add_counts(self, counts):
        """Add (history, {symbol: count}) items to the counts."""
        self.__dict__.pop("_totals", None)
        for hist, c in counts:
            mine = self.counts[hist]
            mine.update({sym: mine.get(sym, 0) + n for sym, n in c.items()})

    def prob(self, hist, sym):
        c = self.counts.get(hist)
        return ((c.get(sym, 0) + self.alpha) / (self._totals[hist] + self._norm) if c
                else self.alpha / self._norm)

    def logprob(self, form):
        """log2 probability of generating the form and stopping."""
        counts, totals, alpha, norm = self.counts, self._totals, self.alpha, self._norm
        lp, hist = 0.0, (BOS,) * (self.order - 1)
        for sym in chain(form, (EOS,)):
            c = counts.get(hist)
            lp += math.log2((c.get(sym, 0) + alpha) / (totals[hist] + norm) if c else alpha / norm)
            hist = (hist + (sym,))[1:]
        return lp

    def mass_upto(self, max_len):
        """Total probability of the strings of the alphabet with length
        <= max_len, by dynamic programming over histories."""
        states = {(BOS,) * (self.order - 1): 1.0}
        mass = 0.0
        for _ in range(max_len + 1):
            nxt = defaultdict(float)
            for hist, p in states.items():
                mass += p * self.prob(hist, EOS)
                for ch in self.alphabet:
                    nxt[(hist + (ch,))[1:]] += p * self.prob(hist, ch)
            states = nxt
        return mass

    def to_json(self):
        """The counts as {history: [stop count, seen, count, ...]}; order,
        alpha and alphabet are the model's.  A history is its characters,
        its start padding left implicit (training puts none after a
        character), and `seen` the symbols counted after it but stop, in
        alphabet order, as one string, each count in that order."""
        out = {}
        for h, c in self.counts.items():
            seen = sorted(c.keys() - {EOS})
            out["".join(h[h.count(BOS):])] = [c.get(EOS, 0), "".join(seen), *map(c.get, seen)]
        return out

    @classmethod
    def from_json(cls, obj, order, alpha, alphabet):
        """The n-gram with the counts `to_json` wrote: histories of at most
        order - 1 characters of the alphabet, each with a stop count >= 0
        and a count > 0 of each symbol seen, the seen symbols distinct and
        in alphabet order, and a positive total."""
        m = cls(order, alpha, alphabet)
        rows = list(obj.values()) if isinstance(obj, dict) else [None]
        if not all(type(r) is list and len(r) >= 2 and type(r[1]) is str
                   and len(r) == 2 + len(r[1]) for r in rows):
            raise ValueError("char model counts are not an object of {history: "
                             "[stop count, symbols seen, one count per symbol]}")
        stops, seens = [r[0] for r in rows], [r[1] for r in rows]
        seen_counts = [n for r in rows for n in r[2:]]
        if not ({*map(type, stops), *map(type, seen_counts)} <= {int}
                and min(stops, default=0) >= 0 and min(seen_counts, default=1) > 0
                # a positive total: a stop, or a symbol seen (its count is > 0)
                and all(stop or seen for stop, seen in zip(stops, seens))):
            raise ValueError("char model counts are not integers, stop counts >= 0 and "
                             "symbol counts > 0 with a positive total per history")
        known = set(m.alphabet)
        if not (max(map(len, obj), default=0) < order and known.issuperset("".join(obj))
                and known.issuperset("".join(seens))
                and all(seen == "".join(sorted(set(seen))) for seen in seens)):
            raise ValueError("char model histories are not of at most %d characters of the "
                             "alphabet, or their symbols seen not distinct alphabet characters "
                             "in alphabet order" % (order - 1))
        pad = (BOS,) * (order - 1)
        for hist, (stop, seen, *n) in obj.items():   # distinct histories: each dict set once
            c = m.counts[pad[len(hist):] + tuple(hist)] = dict(zip(seen, n))
            if stop:
                c[EOS] = stop
        return m


def stem_length(forms):
    """Length of the longest common prefix of the forms: the stem all forms
    of a paradigm share, or the part of a source and a target that a rule
    keeps."""
    if not forms:
        return 0
    # every form sorts between the least and the greatest, so it shares their
    # common prefix; hi[i] is in range, as a proper prefix of lo would sort first
    lo, hi = min(forms), max(forms)
    for i, c in enumerate(lo):
        if c != hi[i]:
            return i
    return len(lo)


def extract_rule(src, tgt):
    """Suffix-rewrite rule from the longest common prefix of src and tgt."""
    i = stem_length((src, tgt))
    return src[i:], tgt[i:]


class ConditionalParadigmModel:
    """Shared model for all slot-pair transductions of one language+POS.

    rule_tables[(src_slot, tgt_slot)] is a list of (src_suffix, tgt_suffix,
    count) rows, one per distinct rule, in the order training first saw them.
    char_models[tgt_slot] is the per-slot n-gram over `alphabet`.  The model
    is built whole, by `train` or `from_json`, and nothing changes the tables
    or the n-grams afterwards.  Only `lam` is set later, by the dev pass, and
    `dev_weights`, by the `train` stage: None, or (sha256 of the dev set,
    `WeightMatrix`) from the dev pass that picked `lam`.
    """

    def __init__(self, alphabet, order, alpha, rule_tables, char_models, lam=DEFAULT_LAMBDA,
                 dev_weights=None):
        if not (isinstance(lam, float) and 0.0 < lam < 1.0):
            raise ValueError("model lambda %r is not a number in (0, 1)" % (lam,))
        check_order_alpha(order, alpha)
        self.alphabet = sorted(alphabet)
        self.order = order
        self.alpha = alpha
        self.lam = lam
        self.rule_tables = rule_tables
        self.char_models = char_models
        self.dev_weights = dev_weights

    @cached_property
    def fallback_char(self):
        """The n-gram of slots unseen as targets in training: the slot
        n-grams' counts summed, built when a first such slot is scored."""
        fallback = CharNGram(self.order, self.alpha, self.alphabet)
        fallback.add_counts(item for m in self.char_models.values() for item in m.counts.items())
        return fallback

    def char_model(self, tgt_slot):
        m = self.char_models.get(tgt_slot)
        return self.fallback_char if m is None else m

    def logprob(self, tgt_slot, tgt, contexts, lambda_grid=None):
        """log2 q(tgt | context) in bits (<= 0, always finite) under every lam
        of the grid, or under the model's own `lam` without one: one row per
        (src_slot, src) of contexts, in their order, the root context being
        (ROOT, EMPTY).  A context with no applicable rewrite rule, the root
        among them (no rule table has the root as its source), scores the
        target with the char model alone.  The target's char log2prob is
        computed once, and the mixture once per distinct rule probability
        (the smoothed share of applicable rules giving tgt); rows may be
        shared and are only read.  Each mixture is the larger log2 term plus
        log2(1 + 2^(smaller - larger))."""
        grid = (self.lam,) if lambda_grid is None else lambda_grid
        weights = [(math.log2(1.0 - lam), math.log2(lam)) for lam in grid]
        alpha, tables = self.alpha, self.rule_tables
        lc = self.char_model(tgt_slot).logprob(tgt)
        char_row = [lc] * len(weights)
        rows, mixed = [], {}
        for src_slot, src in contexts:
            total = hit = 0.0
            for s_sfx, t_sfx, count in tables.get((src_slot, tgt_slot), ()):
                if src.endswith(s_sfx):
                    w = count + alpha
                    total += w
                    if src[:len(src) - len(s_sfx)] + t_sfx == tgt:
                        hit += w
            if total == 0.0:
                rows.append(char_row)
                continue
            pr = hit / total
            row = mixed.get(pr)
            if row is None:
                lr = math.log2(pr) if pr > 0.0 else -math.inf
                row = mixed[pr] = []
                for l1, ll in weights:
                    a, b = lr + l1, ll + lc
                    row.append(a + math.log2(1.0 + 2.0 ** (b - a)) if a >= b
                               else b + math.log2(1.0 + 2.0 ** (a - b)))
            rows.append(row)
        return rows

    def mass_upto(self, src, src_slot, tgt_slot, max_len):
        """Total q(tgt | context) mass over strings of length <= max_len.

        Exact: the rule component has finite support (one output string per
        applicable rule) and the char component is summed by DP.
        """
        char_mass = self.char_model(tgt_slot).mass_upto(max_len)
        applicable = [(src[:len(src) - len(s_sfx)] + t_sfx, count + self.alpha)
                      for s_sfx, t_sfx, count in self.rule_tables.get((src_slot, tgt_slot), ())
                      if src.endswith(s_sfx)]
        if not applicable:
            return char_mass
        total = sum(w for _, w in applicable)
        known = set(self.alphabet)
        rule_mass = sum(w for out, w in applicable
                        if len(out) <= max_len and all(c in known for c in out)) / total
        return (1.0 - self.lam) * rule_mass + self.lam * char_mass

    def to_json(self):
        """The model as JSON values (format 4): every slot a rule table or
        char model names, sorted, once, and the tables and n-grams by slot
        index.  A table's (src_suffix, tgt_suffix, count) rows are one flat
        list, in their order: a loaded model then sums each table in the
        same order as the trained one, to the last bit."""
        return {key: list(v) if isinstance(v, Iterator) else v
                for key, v in self._json_fields().items()}

    def _json_fields(self):
        """The fields of `to_json`, its rule tables and char models as
        iterators that build each item when it is reached.  A model with no
        dev pass is a ValueError, as `from_json` needs one."""
        if self.dev_weights is None:
            raise ValueError("the model has no dev pass to write (dev_weights is None); "
                             "set it from compute_weights first")
        dev_sha256, W = self.dev_weights
        slots = sorted({s for pair in self.rule_tables for s in pair}.union(self.char_models))
        index = {slot: i for i, slot in enumerate(slots)}
        return {
            "version": FORMAT_VERSION,
            "alphabet": self.alphabet,
            "order": self.order,
            "alpha": self.alpha,
            "lambda": self.lam,
            "slots": slots,
            "rule_tables": ([index[src_slot], index[tgt_slot], list(chain.from_iterable(rows))]
                            for (src_slot, tgt_slot), rows in sorted(self.rule_tables.items())),
            "char_models": ([index[slot], m.to_json()]
                            for slot, m in sorted(self.char_models.items())),
            "dev_weights": dict(W.to_json(), dev_sha256=dev_sha256),
        }

    @classmethod
    def from_json(cls, obj):
        """The model `to_json` wrote, its dev weights included; a field of
        another shape is a ValueError."""
        if not isinstance(obj, dict):
            raise ValueError("model is not a JSON object")
        if obj.get("version") != FORMAT_VERSION:
            raise ValueError("model format version %r is not %d; re-run train"
                             % (obj.get("version"), FORMAT_VERSION))
        alphabet, tables, chars = obj["alphabet"], obj["rule_tables"], obj["char_models"]
        if not (isinstance(alphabet, list) and len(set(alphabet)) == len(alphabet)
                and all(isinstance(c, str) and len(c) == 1 for c in alphabet)):
            raise ValueError("model alphabet is not a list of distinct characters")
        # no slot is the root context, so no rule table conditions on it:
        # the char model alone scores the root context
        slots = check_slot_names(obj["slots"], "model slot list")
        if not (isinstance(tables, list)
                and all(_is_rule_table(table, len(slots)) for table in tables)):
            raise ValueError("rule_tables is not a list of [src slot index, tgt slot index, "
                             "[src suffix, tgt suffix, count > 0, ...]]")
        if not (isinstance(chars, list) and all(
                isinstance(x, list) and len(x) == 2 and _is_index(x[0], len(slots))
                for x in chars)):
            raise ValueError("char_models is not a list of [slot index, counts]")
        rule_tables = {}
        for src, tgt, flat in tables:
            key = slots[src], slots[tgt]
            if key in rule_tables or 3 * len(set(zip(flat[0::3], flat[1::3]))) < len(flat):
                raise ValueError("rule table %s -> %s is given twice or repeats a rule" % key)
            it = iter(flat)
            rule_tables[key] = list(zip(it, it, it))
        order, alpha = obj["order"], obj["alpha"]
        check_order_alpha(order, alpha)   # before a history is padded to the order
        char_models = {}
        for i, counts in chars:
            if slots[i] in char_models:
                raise ValueError("char model of slot %s is given twice" % slots[i])
            char_models[slots[i]] = CharNGram.from_json(counts, order, alpha, alphabet)
        dev = obj["dev_weights"]
        if not (isinstance(dev, dict) and isinstance(dev.get("dev_sha256"), str)):
            raise ValueError("dev_weights is not an object with a dev_sha256 string; "
                             "re-run train")
        return cls(alphabet, order, alpha, rule_tables, char_models, lam=obj["lambda"],
                   dev_weights=(dev["dev_sha256"], WeightMatrix.from_json(dev)))

    def save(self, path):
        """Write the compact sorted JSON text of `to_json` in UTF-8, one rule
        table or char model at a time: json.dumps holds its pieces and their
        join at once, two copies of the text it returns.  A model with no dev
        pass is a ValueError before the file is opened, as `load` needs one."""
        fields = self._json_fields()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_json_pieces(fields, 2))

    @classmethod
    def load(cls, fh):
        return cls.from_json(json.load(fh))


def check_order_alpha(order, alpha):
    """A ValueError unless the n-gram order is an int in [1, MAX_ORDER] and
    alpha a finite number > 0: the check of a configured and a saved model."""
    if not (type(order) is int and 1 <= order <= MAX_ORDER
            and type(alpha) in (int, float) and 0 < alpha < math.inf):
        raise ValueError("char model order %r is not an int in [1, %d] or alpha %r is not "
                         "finite and > 0" % (order, MAX_ORDER, alpha))


_encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode


def _json_pieces(value, depth):
    """The compact text of json.dumps(value, ensure_ascii=False,
    sort_keys=True, separators=(",", ":")) in pieces: the objects and arrays
    (an iterator as an array) of the top `depth` levels piece by piece, each
    value below them through the C encoder."""
    if depth and isinstance(value, (dict, list, Iterator)):
        keyed = isinstance(value, dict)
        yield "{" if keyed else "["
        for i, item in enumerate(sorted(value) if keyed else value):
            if i:
                yield ","
            if keyed:
                yield _encode(item) + ":"
                item = value[item]
            yield from _json_pieces(item, depth - 1)
        yield "}" if keyed else "]"
    else:
        yield _encode(value)


def _is_index(i, n):
    """Whether a JSON value is an index into n items (an int, not a boolean)."""
    return type(i) is int and 0 <= i < n


def _is_rule_table(table, n):
    """Whether a JSON value is [src index, tgt index, [src_suffix, tgt_suffix,
    count > 0, ...]] over n slots, a rule table as `to_json` writes it."""
    if not (isinstance(table, list) and len(table) == 3 and _is_index(table[0], n)
            and _is_index(table[1], n) and isinstance(table[2], list)):
        return False
    flat = table[2]
    return (len(flat) % 3 == 0 and all(isinstance(x, str) for x in flat[0::3])
            and all(isinstance(x, str) for x in flat[1::3])
            and all(type(x) is int and x > 0 for x in flat[2::3]))


def train(split, order, alpha):
    """Fit the shared conditional model from a `corpus.DataSplit`'s training
    view in one walk of its mappings, with the counts of counting each on
    its own.  Train takes the view: it sets the split's `train_pairs` to
    None, and once `_walk` is done it holds no paradigm or cell, so what
    no one else holds is freed before the model is built.  A split whose
    view is already taken is a ValueError.

    `_walk` gives the target counts and one stream of rule tables, each a
    (src_slot, tgt_slot) key and the pair codes (src_code << w) | tgt_code
    of its mappings, whatever the regime.  A target form is added to its
    slot's n-gram once, times its mapping count: a purple paradigm's
    filled-slot count, a green cell's 1.  Each table's distinct pair codes
    are counted in C and decoded once, in first-seen order: its rule is the
    two endings when their first letters differ, else `extract_rule`'s,
    and a pair with a code 0 side is no mapping.  The counts are integers,
    so one order alone reaches a float: a table's rows are its rules in
    first-seen order, by paradigm (purple) or by cell (green), and
    `logprob` sums them in that order.  The n-grams are built first, each
    slot's target counts dropped as its n-gram is built; then each table is
    frozen as rows before the next is counted, and kept if it has a row.
    The n-grams are over the split's `alphabet`; the mixture weight stays
    DEFAULT_LAMBDA until `structure.compute_weights`'s dev pass picks it."""
    if split.train_pairs is None:
        raise ValueError("the split's training view was taken by an earlier train")
    if not len(split.train_pairs):
        raise ValueError("cannot train on an empty pair list")
    alphabet = split.alphabet
    endings, targets, w, tables = _walk(split.train_pairs)
    split.train_pairs = None   # from here on this call holds no paradigm or cell
    char_models = {}
    for slot in list(targets):
        m = char_models[slot] = CharNGram(order, alpha, alphabet)
        for form, count in targets.pop(slot).items():
            m.add(count, form)
    mask = (1 << w) - 1
    rule_tables = {}
    for (src_slot, tgt_slot), codes in tables:
        src_ends, tgt_ends = endings[src_slot], endings[tgt_slot]
        rules = {}
        for code, count in Counter(codes).items():
            src, end = src_ends[code >> w], tgt_ends[code & mask]
            if src is None or end is None:
                continue
            rule = (src, end) if src[:1] != end[:1] else extract_rule(src, end)
            rules[rule] = rules.get(rule, 0) + count
        if rules:
            rule_tables[src_slot, tgt_slot] = [(s, t, c) for (s, t), c in rules.items()]
    return ConditionalParadigmModel(alphabet, order, alpha, rule_tables, char_models)


def _walk(pairs):
    """`train`'s one walk of a `corpus.PairView`: (endings, targets, w,
    tables), none of which holds a paradigm or a cell.  Each paradigm is
    cut once at its stem, the `stem_length` of its forms, into one column
    of ending codes per slot, in view order (0 where unfilled).
    endings[slot] is the ending of each code, in first-seen order after
    None for code 0, each ending interned across slots; targets[slot]
    counts each target form's mappings; w bits hold any slot's largest
    code.  tables yields each rule table's key and its pair codes, each
    table built when it is reached: a purple view's, one per ordered pair
    of slots, OR the two slots' whole columns as two ints, packed in the
    smallest array type that holds 2w bits; a green view's are its cells'
    codes, in cell order."""
    paradigms, cells = pairs.paradigms, pairs.cells
    n, purple = len(paradigms), cells is None
    targets, distinct, codes = defaultdict(dict), {}, defaultdict(dict)
    columns = defaultdict(lambda: [0] * n)
    for i, p in enumerate(paradigms):
        cut = stem_length(p.entries.values())
        for slot, form in p.entries.items():
            end, known = form[cut:], codes[slot]
            code = known.get(end)
            if code is None:
                code = known[distinct.setdefault(end, end)] = len(known) + 1
            columns[slot][i] = code
            if purple:
                counts = targets[slot]
                counts[form] = counts.get(form, 0) + len(p)
    endings = {slot: [None, *known] for slot, known in codes.items()}
    w = (max(map(len, endings.values())) - 1).bit_length()
    if purple:
        typecode = next(t for t in "BHIQ" if array(t).itemsize * 8 >= 2 * w)
        size = n * array(typecode).itemsize
        # each slot's codes as one int; its source side shifted by w moves
        # every code w bits up inside its own 2w-bit (or wider) item
        lo = {slot: int.from_bytes(array(typecode, columns.pop(slot)), sys.byteorder)
              for slot in list(columns)}
        hi = {slot: v << w for slot, v in lo.items()}
        return endings, targets, w, (
            ((src, tgt), array(typecode, (hi[src] | lo[tgt]).to_bytes(size, sys.byteorder)))
            for src in lo for tgt in lo if src != tgt)
    index = {p.lexeme: i for i, p in enumerate(paradigms)}
    by_pair = {}
    for lx, src_slot, tgt_slot in cells:
        i = index[lx]
        counts, tgt = targets[tgt_slot], paradigms[i].entries[tgt_slot]
        counts[tgt] = counts.get(tgt, 0) + 1
        if src_slot != ROOT:
            by_pair.setdefault((src_slot, tgt_slot), []).append(
                columns[src_slot][i] << w | columns[tgt_slot][i])
    # each table's codes are dropped as it is reached
    return endings, targets, w, ((pair, by_pair.pop(pair)) for pair in list(by_pair))


def joint_logprob(model, tree, paradigm):
    """log2 q(m_1..m_n) under the tree-factored joint (bits, <= 0): one
    `logprob` per filled slot, of its one context (its tree parent's
    (slot, form), or (ROOT, EMPTY)), at the scorer's own lambda, in slot order.

    Unfilled slots are skipped; a filled slot whose parent is unfilled (or
    absent from the paradigm) is conditioned on the root context.
    """
    total = 0.0
    for i, slot in enumerate(tree.slots):
        tgt = paradigm.entries.get(slot)
        if tgt is None:
            continue
        parent = tree.slots[tree.parent[i]] if i in tree.parent else None
        src = paradigm.entries.get(parent)
        context = (ROOT, EMPTY) if src is None else (parent, src)
        total += model.logprob(slot, tgt, [context])[0][0]
    return total


class ScoreTable:
    """Externally computed log2 scores, keyed by the full mapping tuple
    (src, src_slot, tgt_slot, tgt).

    Missing lookups are hard errors: a partial table must not silently fall
    back to anything.
    """

    def __init__(self, scores=None):
        self.scores = dict(scores or {})

    def logprob(self, tgt_slot, tgt, contexts, lambda_grid=None):
        """The rows of `ConditionalParadigmModel.logprob`, one per (src_slot,
        src) of contexts: each mapping's looked-up score in every column, one
        per lam of the grid or one without a grid."""
        g = 1 if lambda_grid is None else len(lambda_grid)
        rows = []
        for src_slot, src in contexts:
            key = (src, src_slot, tgt_slot, tgt)
            if key not in self.scores:
                raise ValueError("the score table has no score for mapping %r" % (key,))
            rows.append([self.scores[key]] * g)
        return rows


def load_scores(stream):
    """Parse a score TSV: src, src_slot, tgt_slot, tgt, log2prob per row.

    An empty src_slot field (or the literal ROOT sentinel) marks a root
    mapping, whose src field must be empty.  A tgt_slot field that is empty
    or ROOT names no slot and is rejected, as are positive and non-finite
    log-probabilities and a second, different log-probability for one
    mapping.
    """
    scores = {}
    for lineno, line in data_lines(stream):
        fields = line.split("\t")
        if len(fields) != 5:
            raise ValueError("line %d: expected 5 tab-separated fields" % lineno)
        src, src_slot, tgt_slot, tgt, lp = fields
        try:
            lp = float(lp)
        except ValueError:
            raise ValueError("line %d: bad log2prob %r" % (lineno, fields[4]))
        if not -math.inf < lp <= 0:
            raise ValueError("line %d: log2prob %g is not finite and <= 0" % (lineno, lp))
        src_slot = src_slot or ROOT
        if src_slot == ROOT and src != EMPTY:
            raise ValueError("line %d: a root row has an empty source form" % lineno)
        if tgt_slot in (EMPTY, ROOT):
            raise ValueError("line %d: the target slot is empty or %s" % (lineno, ROOT))
        if scores.setdefault((src, src_slot, tgt_slot, tgt), lp) != lp:
            raise ValueError("line %d: a mapping given again, with another log2prob" % lineno)
    return ScoreTable(scores)
