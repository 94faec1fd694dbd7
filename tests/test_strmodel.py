import io
import itertools
import json
import logging
import math
import os
import random
import tempfile
from array import array
from collections import Counter, defaultdict

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from morphcomplexity import strmodel, structure
from morphcomplexity.complexity import SyntheticSystem
from morphcomplexity.corpus import (
    EMPTY, ROOT, PairView, Paradigm, expand_paradigm_pairs, make_split,
)
from morphcomplexity.strmodel import (
    CharNGram, ConditionalParadigmModel, ScoreTable, extract_rule, joint_logprob, load_scores,
    stem_length,
)
from morphcomplexity.structure import WeightMatrix, compute_weights

from conftest import pair_list, split_config, target_groups, train, view_alphabet


GRID = (0.5, 0.2, 0.1, 0.05, 0.01, 0.001)


def mk_pairs(mappings, src_slot="S", tgt_slot="T"):
    """A green view of (src, tgt) mappings from src_slot to tgt_slot: one
    paradigm {src_slot: src, tgt_slot: tgt} per mapping, with one cell."""
    paradigms = [Paradigm("%s>%s%d" % (src_slot, tgt_slot, i), {src_slot: s, tgt_slot: t})
                 for i, (s, t) in enumerate(mappings)]
    return PairView(paradigms, [(p.lexeme, src_slot, tgt_slot) for p in paradigms])


def mk_paradigms(mappings):
    """One dev paradigm {S: src, T: tgt} per mapping."""
    return [Paradigm("dev%d" % i, {"S": s, "T": t}) for i, (s, t) in enumerate(mappings)]


def pick_lambda(model, dev_paradigms, grid=GRID):
    """Set the model's lambda by the dev pass over slots S and T."""
    compute_weights(model, dev_paradigms, ["S", "T"], grid)
    return model


def with_dev(model):
    """The model, given a matrix over no slot as its dev pass if it went
    through none, so that `to_json` writes it."""
    if model.dev_weights is None:
        model.dev_weights = "", WeightMatrix(slots=[], edge=[], root=[])
    return model


def reloaded(model):
    """The model read back from its JSON text, as `load` reads model.json;
    a model that went through no dev pass gets a matrix over no slot."""
    return ConditionalParadigmModel.from_json(json.loads(json.dumps(with_dev(model).to_json())))


def cross_entropy(scorer, pairs):
    """Mean negative log2 probability over a list of mapping tuples, in bits."""
    total = 0.0
    for src, src_slot, tgt_slot, tgt in pairs:
        total -= scorer.logprob(tgt_slot, tgt, [(src_slot, src)])[0][0]
    return total / len(pairs)


def all_strings(alphabet, max_len):
    for length in range(max_len + 1):
        for tup in itertools.product(alphabet, repeat=length):
            yield "".join(tup)


# ----------------------------------------------------------- rule extraction

def test_extract_rule_hand_example():
    assert extract_rule("Hand", "Hände") == ("and", "ände")


def test_extract_rule_pure_suffix():
    assert extract_rule("walk", "walked") == ("", "ed")


@given(st.text("abc", max_size=8), st.text("abc", max_size=8))
def test_extract_rule_roundtrip(src, tgt):
    """The rule rewrites src into tgt and keeps their longest common prefix:
    the two suffixes never start with the same letter."""
    s_sfx, t_sfx = extract_rule(src, tgt)
    assert src.endswith(s_sfx)
    assert src[:len(src) - len(s_sfx)] + t_sfx == tgt
    assert not (s_sfx and t_sfx and s_sfx[0] == t_sfx[0])


@given(st.lists(st.text("abc", max_size=6), max_size=5))
@example([])
def test_stem_length_is_the_longest_common_prefix(forms):
    """`stem_length` of a paradigm's forms equals the length of
    `os.path.commonprefix`, the reference; a paradigm with no form, as a
    split.json row of nulls gives, has a stem of length 0."""
    want = len(os.path.commonprefix(forms))
    assert stem_length(forms) == stem_length(dict(enumerate(forms)).values()) == want


# ----------------------------------------------------------- char n-gram

def test_char_ngram_sums_to_one_per_history():
    m = CharNGram(order=2, alpha=0.5, alphabet="ab")
    for form in ["ab", "ba", "aab", ""]:
        m.add(1, form)
    for hist in list(m.counts) + [("x",)]:
        total = sum(m.prob(hist, sym) for sym in m.alphabet + ["</S>"])
        assert total == pytest.approx(1.0, abs=1e-12)
        assert all(m.prob(hist, sym) > 0 for sym in m.alphabet + ["</S>"])


def test_char_ngram_mass_matches_enumeration():
    m = CharNGram(order=2, alpha=0.3, alphabet="ab")
    for form in ["ab", "abb", "a", "bba"]:
        m.add(1, form)
    for L in (0, 1, 4, 8, 12):
        brute = sum(2.0 ** m.logprob(s) for s in all_strings("ab", L))
        assert m.mass_upto(L) == pytest.approx(brute, abs=1e-12)


def reference_char_counts(order, added):
    """The n-gram counts of (count, form) items by a walk of every event: a
    history of order - 1 symbols, start-padded, and the symbol after it."""
    counts = defaultdict(Counter)
    for count, form in added:
        hist = ("<S>",) * (order - 1)
        for sym in [*form, "</S>"]:
            counts[hist][sym] += count
            hist = (hist + (sym,))[1:]
    return counts


def reference_char_logprob(counts, alpha, alphabet, form, order):
    """log2 of the form and stop, each symbol's add-alpha share of its
    history's per-event total."""
    lp, hist = 0.0, ("<S>",) * (order - 1)
    for sym in [*form, "</S>"]:
        c = counts.get(hist, Counter())
        lp += math.log2((c[sym] + alpha) / (sum(c.values()) + alpha * (len(alphabet) + 1)))
        hist = (hist + (sym,))[1:]
    return lp


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.lists(st.tuples(st.integers(1, 5), st.text("abc", max_size=5))),
       st.lists(st.text("abc", max_size=5), max_size=4))
@example(1, [(2, ""), (3, "ab")], ["c"])
def test_char_ngram_counts_and_scores_per_event(order, added, unseen):
    """The counts, their totals and every log2prob equal those of a walk
    of each event, exactly: the counted forms, the empty one among them,
    and forms never counted.  Order 1 conditions on the empty history."""
    m, alpha = CharNGram(order, 0.1, "abc"), 0.1
    for count, form in added:
        m.add(count, form)
    want = reference_char_counts(order, added)
    assert m.counts == {hist: dict(c) for hist, c in want.items()}
    assert m._totals == {hist: sum(c.values()) for hist, c in want.items()}
    if order == 1 and added:
        assert list(m.counts) == [()]
    for form in [form for _, form in added] + unseen + [""]:
        assert m.logprob(form) == reference_char_logprob(want, alpha, "abc", form, order)


def test_char_ngram_totals_follow_the_counts():
    """An `add` or `add_counts` after a score gives the new totals and
    scores, as a model counted once would."""
    m = CharNGram(order=2, alpha=0.5, alphabet="ab")
    m.add(2, "ab")
    first = m.logprob("ab")
    m.add(3, "ba")
    once = CharNGram(order=2, alpha=0.5, alphabet="ab")
    once.add(2, "ab")
    once.add(3, "ba")
    assert m._totals == once._totals
    assert m.logprob("ab") == once.logprob("ab") != first
    m.add_counts(list(once.counts.items()))
    once.add(2, "ab")
    once.add(3, "ba")
    assert m.counts == once.counts and m._totals == once._totals
    assert m.logprob("ba") == once.logprob("ba")
    assert m.prob(("a",), "b") == once.prob(("a",), "b")


def test_char_ngram_empty_string_valid():
    m = CharNGram(order=3, alpha=0.1, alphabet="ab")
    m.add(1, "")
    assert m.logprob("") < 0
    assert math.isfinite(m.logprob(""))


# ----------------------------------------------------------- logprob

def test_logprob_half_lambda_hand_computation():
    model = train(mk_pairs([("a", "b")]))
    model.lam = 0.5
    # the only rule rewrites "a" -> "b" with probability 1, so
    # q(b|a) = 0.5 * 1 + 0.5 * q_char(b) > 0.5
    lp = model.logprob("T", "b", [("S", "a")])[-1][0]
    q_char = 2.0 ** model.char_model("T").logprob("b")
    assert 2.0 ** lp == pytest.approx(0.5 + 0.5 * q_char, rel=1e-12)
    assert lp > -1.0


def test_logprob_root_uses_char_model_only():
    model = train(mk_pairs([("a", "b"), ("aa", "ab")]))
    lp = model.logprob("T", "ab", [(ROOT, EMPTY)])[0][0]
    assert lp == pytest.approx(model.char_model("T").logprob("ab"))


def test_logprob_always_finite():
    model = train(mk_pairs([("hand", "hände"), ("fuss", "füsse")]))
    rng = random.Random(0)
    chars = model.alphabet + ["z", "!"]
    for _ in range(2000):
        src = "".join(rng.choice(chars) for _ in range(rng.randint(0, 12)))
        tgt = "".join(rng.choice(chars) for _ in range(rng.randint(0, 12)))
        lp = model.logprob("T", tgt, [("S", src)])[-1][0]
        assert math.isfinite(lp) and lp <= 0


def test_mass_enumeration_oracle_small_model():
    model = train(mk_pairs([("a", "ab"), ("b", "bb"), ("ab", "abb")]), order=2)
    model.lam = 0.2
    contexts = [("a", "S", "T"), ("ab", "S", "T"), (EMPTY, ROOT, "T"), ("zz", "S", "T")]
    for src, s, t in contexts:
        for L in (4, 8):
            brute = sum(2.0 ** model.logprob(t, tgt, [(s, src)])[0][0]
                        for tgt in all_strings("ab", L))
            assert model.mass_upto(src, s, t, L) == pytest.approx(brute, abs=1e-9)
    # in-alphabet conditioning contexts reach 0.999 within length 12
    for src, s, t in contexts[:3]:
        assert model.mass_upto(src, s, t, 12) >= 0.999


def test_mass_monotone_and_converges():
    model = train(mk_pairs([("ab", "ba"), ("aab", "aba")]), order=2)
    masses = [model.mass_upto("ab", "S", "T", L) for L in range(0, 33, 4)]
    assert all(b >= a - 1e-15 for a, b in zip(masses, masses[1:]))
    assert masses[-1] >= 0.999


def test_unseen_slot_pair_falls_back_to_char():
    model = train(mk_pairs([("a", "b")]))
    lp = model.logprob("T", "b", [("S2", "a")])[-1][0]
    assert lp == pytest.approx(model.char_model("T").logprob("b"))


# ----------------------------------------------------------- training

def test_train_rejects_empty():
    with pytest.raises(ValueError):
        train(PairView([]))


def test_train_lambda_is_argmin_on_dev():
    rng = random.Random(4)
    stems = ["".join(rng.choice("abc") for _ in range(4)) for _ in range(200)]
    pairs = mk_pairs([(s, s + "s") for s in stems[:150]])
    dev_paradigms = mk_paradigms([(s, s + "s") for s in stems[150:]])
    dev = expand_paradigm_pairs(dev_paradigms)
    grid = (0.5, 0.2, 0.1, 0.05, 0.01, 0.001)
    model = pick_lambda(train(pairs), dev_paradigms, grid)
    selected = model.lam
    ces = {}
    for lam in grid:
        model.lam = lam
        ces[lam] = cross_entropy(model, dev)
    assert selected == min(ces, key=ces.get)


def test_train_default_lambda_without_dev():
    model = train(mk_pairs([("a", "b")]))
    assert model.lam == strmodel.DEFAULT_LAMBDA


def test_train_suffix_rule_dominates():
    rng = random.Random(7)
    stems = ["".join(rng.choice("abcd") for _ in range(rng.randint(3, 6)))
             for _ in range(1000)]
    pairs = mk_pairs([(s, s + "s") for s in stems[:900]])
    dev = mk_paradigms([(s, s + "s") for s in stems[900:950]])
    model = pick_lambda(train(pairs), dev)
    held = stems[950:]
    probs = [2.0 ** model.logprob("T", s + "s", [("S", s)])[-1][0] for s in held]
    assert min(probs) > 0.9


def test_mle_more_data_improves_dev_ce():
    # nested training sizes from one synthetic generator; dev CE should trend down
    def gen(rng, count):
        out = []
        for _ in range(count):
            stem = "".join(rng.choice("ab") for _ in range(rng.randint(3, 5)))
            suffix = "os" if rng.random() < 0.5 else "a"
            out.append((stem, stem + suffix))
        return out

    deltas = []
    for seed in range(5):
        rng = random.Random(seed)
        data = gen(rng, 900)
        dev = pair_list(mk_pairs(gen(rng, 200)))
        ces = [cross_entropy(train(mk_pairs(data[:size])), dev)
               for size in (100, 300, 900)]
        deltas.append(ces[0] - ces[-1])
    assert sum(deltas) / len(deltas) > -0.05


def train_per_mapping(pairs, alphabet, order=3, alpha=0.1):
    """The model over `alphabet` by one `extract_rule` of the full forms and
    one target count per mapping, in the mappings' order."""
    targets, rule_tables = Counter(), defaultdict(Counter)
    for src, src_slot, tgt_slot, tgt in pairs:
        if src_slot != ROOT:
            rule_tables[(src_slot, tgt_slot)][extract_rule(src, tgt)] += 1
        targets[tgt_slot, tgt] += 1
    char_models = {}
    for (slot, form), count in targets.items():
        if slot not in char_models:
            char_models[slot] = CharNGram(order, alpha, alphabet)
        char_models[slot].add(count, form)
    return ConditionalParadigmModel(alphabet, order, alpha,
                                    {key: [(s, t, c) for (s, t), c in table.items()]
                                     for key, table in rule_tables.items()},
                                    char_models)


@st.composite
def paradigm_lists(draw, slots="ABCD"):
    """Paradigms over the slots: a stem shared by the paradigm, in each slot
    an ending and maybe a prefix (so two forms may differ from the first
    letter), any of them empty; some paradigms partial or of one slot, and
    two slots may hold the same form.  The first fills two slots or more,
    which `make_split` requires of at least one paradigm."""
    paradigms = []
    for i in range(draw(st.integers(1, 6))):
        stem = draw(st.text("ab", max_size=3))
        cells = draw(st.dictionaries(st.sampled_from(slots),
                                     st.tuples(st.sampled_from(["", "", "x", "y"]),
                                               st.text("abc", max_size=2)),
                                     min_size=1 if i else 2))
        paradigms.append(Paradigm("lx%d" % i, {slot: prefix + stem + ending
                                               for slot, (prefix, ending) in cells.items()}))
    return paradigms


@settings(max_examples=200, deadline=None)
@given(paradigm_lists(), st.integers(1, 40), st.integers(0, 2 ** 16))
# purple: only the third paradigm fills both A and C; the others give (A, C) None pairs
@example([Paradigm("lx0", {"A": "ba", "B": "bb"}), Paradigm("lx1", {"C": "ac", "D": "a"}),
          Paradigm("lx2", {"A": "xa", "C": "ab"})], 40, 0)
# green: every mapping, so the cells of tables (B, A) and (A, B) alternate
@example([Paradigm("lx0", {"A": "aa", "B": "ab"}), Paradigm("lx1", {"A": "bc", "B": "b"})],
         40, 0)
# green: the one cell maps A to B, so "a" is only in a source form
@example([Paradigm("lx0", {"A": "a", "B": "c"})], 1, 0)
def test_train_equals_per_mapping_counts(paradigms, pair_count, seed):
    """Counting one slot-pair table at a time, with each paradigm's shared
    stem cut off, gives the tables, the rule order in every table, the
    alphabet and the char-model counts of counting every mapping on its own,
    for a purple view and a green view."""
    green = make_split(paradigms, split_config(regime="green", pair_count=pair_count,
                                               dev_paradigms=0, test_paradigms=0, seed=seed),
                       ["A", "B", "C", "D"]).train_pairs
    for pairs in (PairView(paradigms), green):
        model = train(pairs, order=2)
        want = train_per_mapping(pair_list(pairs), view_alphabet(pairs), order=2)
        assert model.rule_tables.keys() == want.rule_tables.keys()
        for key, rows in want.rule_tables.items():
            assert model.rule_tables[key] == rows
        assert model.alphabet == want.alphabet
        assert model.char_models.keys() == want.char_models.keys()
        for slot, char in want.char_models.items():
            assert model.char_models[slot].counts == char.counts
            assert model.char_models[slot]._totals == char._totals
        assert model.fallback_char.counts == want.fallback_char.counts
        assert with_dev(model).to_json() == with_dev(want).to_json()


def wide_paradigms(n_endings, count=320):
    """Paradigms over slots A, B and C with many endings: A's cycles through
    n_endings endings, B's through 16, and C takes the ending A had in the
    paradigm before, so C shares its endings with A.  A's and C's begin
    with "a", B's with "b"; every seventh paradigm lacks C, every eleventh B."""
    rng = random.Random(n_endings)

    def ending(first, i):
        return first + "".join("klmn"[i >> k & 3] for k in (8, 6, 4, 2, 0))

    paradigms = []
    for i in range(count):
        stem = "".join(rng.choice("de") for _ in range(rng.randint(2, 4)))
        cells = {"A": ending("a", i % n_endings), "B": ending("b", i % 16),
                 "C": ending("a", (i - 1) % n_endings)}
        paradigms.append(Paradigm("lx%03d" % i, {slot: stem + end for slot, end in cells.items()
                                                 if not (slot == "C" and i % 7 == 0
                                                         or slot == "B" and i % 11 == 0)}))
    return paradigms


@pytest.mark.parametrize("n_endings, typecode", [(20, "H"), (300, "I")])
def test_train_equals_per_mapping_counts_with_wide_codes(monkeypatch, n_endings, typecode):
    """With more than 15 or 255 endings in a slot, the pair codes need
    16-bit or 32-bit items (the array a purple view packs), and a purple
    and a green view still give the model of counting every mapping on its
    own.  An ending that two slots
    share is one string object in both tables' rows."""
    made = []

    def recording_array(code, *items):
        if items:
            made.append(code)
        return array(code, *items)

    monkeypatch.setattr(strmodel, "array", recording_array)
    paradigms = wide_paradigms(n_endings)
    green = make_split(paradigms, split_config(regime="green", pair_count=2000, dev_paradigms=0,
                                               test_paradigms=0, seed=3),
                       ["A", "B", "C"]).train_pairs
    for pairs in (PairView(paradigms), green):
        made.clear()
        model = train(pairs, order=2)
        if pairs.cells is None:
            assert set(made) == {typecode}
        want = train_per_mapping(pair_list(pairs), view_alphabet(pairs), order=2)
        assert model.rule_tables == want.rule_tables
        assert with_dev(model).to_json() == with_dev(want).to_json()
        # A's and C's endings begin as B's do not, so these rows hold the endings
        a_ends, c_ends = ([row[0] for row in model.rule_tables[key]]
                          for key in (("A", "B"), ("C", "B")))
        assert set(a_ends) & set(c_ends)
        first = {}
        assert all(first.setdefault(end, end) is end for end in a_ends + c_ends)


# ----------------------------------------------------------- joint logprob

class Chain3:
    slots = ["A", "B", "C"]


def test_joint_logprob_single_slot(stub_scorer):
    from morphcomplexity.structure import Arborescence
    from morphcomplexity.corpus import Paradigm
    tree = Arborescence(slots=["A"], root=0, parent={})
    scorer = stub_scorer({(EMPTY, ROOT, "A", "fa"): -2.5})
    assert joint_logprob(scorer, tree, Paradigm("x", {"A": "fa"})) == -2.5


def test_joint_logprob_chain(stub_scorer):
    from morphcomplexity.structure import Arborescence
    from morphcomplexity.corpus import Paradigm
    tree = Arborescence(slots=["A", "B", "C"], root=0, parent={1: 0, 2: 1})
    scorer = stub_scorer({
        (EMPTY, ROOT, "A", "fa"): -1.0,
        ("fa", "A", "B", "fb"): -0.5,
        ("fb", "B", "C", "fc"): -0.25,
        # root rows of slots with a parent: never read
        (EMPTY, ROOT, "B", "fb"): -9.0, (EMPTY, ROOT, "C", "fc"): -9.0,
    })
    p = Paradigm("x", {"A": "fa", "B": "fb", "C": "fc"})
    assert joint_logprob(scorer, tree, p) == pytest.approx(-1.75)


def test_joint_logprob_stub_arithmetic(stub_scorer):
    from morphcomplexity.structure import Arborescence
    from morphcomplexity.corpus import Paradigm
    # root prob 0.5 (-1 bit), edge prob 0.25 (-2 bits) -> joint -3 bits
    tree = Arborescence(slots=["A", "B"], root=0, parent={1: 0})
    scorer = stub_scorer({
        (EMPTY, ROOT, "A", "fa"): math.log2(0.5),
        ("fa", "A", "B", "fb"): math.log2(0.25),
        (EMPTY, ROOT, "B", "fb"): -9.0,   # never read
    })
    p = Paradigm("x", {"A": "fa", "B": "fb"})
    assert joint_logprob(scorer, tree, p) == pytest.approx(-3.0)


def test_joint_logprob_partial_parent_missing(stub_scorer):
    from morphcomplexity.structure import Arborescence
    from morphcomplexity.corpus import Paradigm
    tree = Arborescence(slots=["A", "B"], root=0, parent={1: 0})
    scorer = stub_scorer({(EMPTY, ROOT, "B", "fb"): -4.0})
    # A unfilled: B falls back to the root context
    assert joint_logprob(scorer, tree, Paradigm("x", {"B": "fb"})) == -4.0


# ----------------------------------------------------------- serialization

def test_model_json_roundtrip(tmp_path):
    """A saved model loads with its lambda, its order, its alphabet, its
    scores and the dev matrix that picked its lambda."""
    model = train(mk_pairs([("hand", "hände"), ("gabel", "gabeln")]))
    W = compute_weights(model, mk_paradigms([("wand", "wände")]), ["S", "T"], GRID)
    model.dev_weights = "f00d", W
    path = tmp_path / "model.json"
    model.save(path)
    with open(path, encoding="utf-8") as fh:
        back = ConditionalParadigmModel.load(fh)
    assert back.lam == model.lam and back.order == model.order
    assert back.alphabet == model.alphabet
    assert back.dev_weights == model.dev_weights
    for src, tgt in [("hand", "hände"), ("xyz", "xyzn"), ("", "")]:
        assert back.logprob("T", tgt, [("S", src)]) == model.logprob("T", tgt, [("S", src)])


def test_model_save_without_a_dev_pass_writes_nothing(tmp_path):
    """A model straight from `train` has no dev matrix, which `load` needs:
    `save` says so and creates no file, and `to_json` says so too."""
    model = train(mk_pairs([("hand", "hände")]))
    with pytest.raises(ValueError, match="no dev pass"):
        model.save(tmp_path / "model.json")
    assert not (tmp_path / "model.json").exists()
    with pytest.raises(ValueError, match="no dev pass"):
        model.to_json()


COMPACT = {"ensure_ascii": False, "sort_keys": True, "separators": (",", ":")}


def test_model_save_writes_the_sorted_json_text(tmp_path):
    """`save` writes the compact sorted JSON text in UTF-8, non-ASCII
    characters as themselves: the bytes that `json.dump` writes too."""
    model = train(mk_pairs([("hand", "hände"), ("gabel", "gabeln")]))
    model.dev_weights = "f00d", compute_weights(model, mk_paradigms([("wand", "wände")]),
                                                ["S", "T"], GRID)
    model.save(tmp_path / "model.json")
    want = json.dumps(model.to_json(), **COMPACT)
    assert (tmp_path / "model.json").read_bytes() == want.encode("utf-8")
    assert "ände" in want
    dumped = io.StringIO()
    json.dump(model.to_json(), dumped, **COMPACT)
    assert dumped.getvalue() == want


def test_model_json_layout():
    """Format 4 names each slot once and indexes it; a table's rules are one
    flat list in first-seen order; a history is its characters without the
    <S> padding, with its stop count, its symbols seen in alphabet order
    and one count each."""
    char = CharNGram(3, 0.1, "abi")
    for count, form in [(4, "b"), (2, "ba"), (1, "bi")]:
        char.add(count, form)
    assert char.to_json() == {"": [0, "b", 7], "b": [4, "ai", 2, 1], "ba": [2, ""], "bi": [1, ""]}
    model = ConditionalParadigmModel("abi", 3, 0.1, {("T", "S"): [("a", "", 2), ("i", "x", 1)]},
                                     {"T": char})
    obj = with_dev(model).to_json()
    assert obj["slots"] == ["S", "T"]
    assert obj["rule_tables"] == [[1, 0, ["a", "", 2, "i", "x", 1]]]
    assert obj["char_models"] == [[1, char.to_json()]]


@settings(max_examples=100, deadline=None)
@given(paradigm_lists(), st.integers(1, 40), st.integers(0, 2 ** 16), st.integers(1, 4))
def test_model_save_load_save_is_byte_identical(paradigms, pair_count, seed, order):
    """A saved model, purple or green, at any order and with its dev
    weights, loads as the trained model, field by field, and saves again as
    the same text."""
    green = make_split(paradigms, split_config(regime="green", pair_count=pair_count,
                                               dev_paradigms=0, test_paradigms=0, seed=seed),
                       ["A", "B", "C", "D"]).train_pairs
    for pairs in (PairView(paradigms), green):
        model = train(pairs, order=order)
        model.dev_weights = "%064x" % seed, compute_weights(model, paradigms, list("ABCD"), GRID)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            model.save(path)
            with open(path, encoding="utf-8") as fh:
                saved = fh.read()
            back = ConditionalParadigmModel.load(io.StringIO(saved))
            back.save(path)
            with open(path, encoding="utf-8") as fh:
                assert fh.read() == saved
        assert back.rule_tables == model.rule_tables   # each table's rows in order
        assert back.char_models.keys() == model.char_models.keys()
        for slot, char in model.char_models.items():
            assert back.char_models[slot].counts == char.counts
            assert back.char_models[slot]._totals == char._totals
        assert back.fallback_char.counts == model.fallback_char.counts
        assert back.fallback_char._totals == model.fallback_char._totals
        assert (back.alphabet, back.order, back.alpha, back.lam, back.dev_weights) == (
            model.alphabet, model.order, model.alpha, model.lam, model.dev_weights)
        assert back.to_json() == model.to_json()


def six_slot_paradigms():
    """(training paradigms, dev paradigms, slots) over six slots whose rule
    tables hold several rules per context, so their sums depend on order;
    every third dev paradigm lacks a slot."""
    rng = random.Random(0)
    slots = ["S%d" % i for i in range(6)]
    suffixes = [[rng.choice(["", "a", "ab", "ba", "bb", "aba"]) for _ in slots]
                for _ in range(5)]
    system = SyntheticSystem(slots, [0.4, 0.2, 0.2, 0.1, 0.1], suffixes, stem_alphabet="ab")
    paradigms = system.sample_paradigms(120, rng)
    dev = [Paradigm(p.lexeme, {s: f for s, f in p.entries.items() if i % 3 or s != slots[i % 6]})
           for i, p in enumerate(paradigms[100:])]
    return paradigms[:100], dev, slots


def six_slot_model():
    """(model, dev paradigms, slots): the `six_slot_paradigms` trained purple."""
    paradigms, dev, slots = six_slot_paradigms()
    return train(PairView(paradigms)), dev, slots


def test_train_keeps_no_slot_order(tmp_path):
    """Paradigms holding their entries in reversed insertion order give a
    purple and a green model of the same saved bytes and the same dev
    scores, to the bit, under every lambda of the grid: no order of slots or
    of tables reaches a float.  Paradigm order (purple) and cell order
    (green) still set the order of each table's rows."""
    paradigms, dev, slots = six_slot_paradigms()
    # every fourth paradigm lacks a slot, so the columns hold None
    paradigms = [Paradigm(p.lexeme, {s: f for s, f in p.entries.items()
                                     if i % 4 or s != slots[i % 6]})
                 for i, p in enumerate(paradigms)]
    green = make_split(paradigms, split_config(regime="green", pair_count=400, dev_paradigms=0,
                                               test_paradigms=0, seed=0), slots).train_pairs

    def fit(view):
        model = train(view)
        model.dev_weights = "0" * 64, compute_weights(model, dev, slots, GRID)
        model.save(tmp_path / "model.json")
        return model, (tmp_path / "model.json").read_bytes()

    for view in (PairView(paradigms), green):
        model, saved = fit(view)
        back, back_saved = fit(PairView([Paradigm(p.lexeme, dict(reversed(p.entries.items())))
                                         for p in view.paradigms], view.cells))
        assert back_saved == saved
        assert back.lam == model.lam
        assert back.dev_weights[1].root == model.dev_weights[1].root
        assert back.dev_weights[1].edge == model.dev_weights[1].edge
        for p in dev:
            for tgt_slot, tgt, sources in target_groups(p.entries):
                contexts = [(ROOT, EMPTY)] + sources
                assert (back.logprob(tgt_slot, tgt, contexts, GRID)
                        == model.logprob(tgt_slot, tgt, contexts, GRID))
        # the same rules, counts and tables, but rows in another order
        flipped = train(PairView(view.paradigms[::-1]) if view.cells is None
                        else PairView(view.paradigms, view.cells[::-1]))
        assert flipped.rule_tables.keys() == model.rule_tables.keys()
        for key, rows in flipped.rule_tables.items():
            assert sorted(rows) == sorted(model.rule_tables[key])
        assert flipped.rule_tables != model.rule_tables


def test_model_json_roundtrip_weights_bit_for_bit():
    model, dev, slots = six_slot_model()
    back = reloaded(model)
    trained = compute_weights(model, dev, slots)
    loaded = compute_weights(back, dev, slots)
    assert loaded.root == trained.root and loaded.edge == trained.edge


def test_model_save_writes_the_json_dumps_text_in_pieces(tmp_path):
    """`save` encodes a rule table or char model at a time, and the file is
    still the json.dumps text of the whole model, dev weights included;
    the pieces of any value join to its json.dumps text."""
    model, dev, slots = six_slot_model()
    model.dev_weights = "0" * 64, compute_weights(model, dev, slots, GRID)
    model.save(tmp_path / "model.json")
    want = json.dumps(model.to_json(), **COMPACT)
    assert (tmp_path / "model.json").read_text(encoding="utf-8") == want
    for value in [{}, [], "ä", 1.5, [[], {}], {"b": [None, {"z": 1, "y": [2]}], "a": {}},
                  [{"ü": ["ß", 0.1]}, [True, [[]]]]]:
        for depth in range(4):
            assert "".join(strmodel._json_pieces(value, depth)) == json.dumps(value, **COMPACT)
    # an iterator above the depth is written as the array of its items
    for depth in (2, 3):
        pieces = strmodel._json_pieces({"b": iter([[1, "ä"], {"z": [], "y": 2}]), "a": 0}, depth)
        assert "".join(pieces) == '{"a":0,"b":[[1,"ä"],{"y":2,"z":[]}]}'


def reference_logprob(model, lam, src, src_slot, tgt_slot, tgt):
    """log2 q by the mixture's float operations written out one by one."""
    lc = CharNGram.from_json(model.char_model(tgt_slot).to_json(), model.order, model.alpha,
                             model.alphabet).logprob(tgt)
    if src_slot == ROOT:
        return lc
    total = hit = 0.0
    for s_sfx, t_sfx, count in model.rule_tables.get((src_slot, tgt_slot), []):
        if src.endswith(s_sfx):
            total += count + model.alpha
            if src[:len(src) - len(s_sfx)] + t_sfx == tgt:
                hit += count + model.alpha
    if total == 0.0:
        return lc
    pr = hit / total
    b = math.log2(lam) + lc
    if pr == 0.0:
        return b
    a = math.log2(pr) + math.log2(1.0 - lam)
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log2(1.0 + 2.0 ** (lo - hi))


def test_dev_pass_matches_cross_entropy_bit_for_bit(caplog):
    """The dev pass scores each mapping once for the whole lambda grid: the
    dev CE it logs for each lambda is, bit for bit, the written-out
    mixture's per-mapping scores added to their cells in dev order and the
    cells summed row by row, the root column last; it lies within 1e-12
    (relative) of `cross_entropy`, the flat per-mapping mean, with `lam` set
    to that lambda.  Its matrix at the chosen lambda equals the one a dev
    pass at that lambda alone computes from the saved model, cell for cell,
    so staged `weights --model` may write the matrix that `train` kept."""
    model, dev, slots = six_slot_model()
    caplog.set_level(logging.INFO, logger="morphcomplexity.structure")
    W = compute_weights(model, dev, slots, GRID)
    logged = [r.args for r in caplog.records if r.msg.startswith("lambda=")]
    assert [lam for lam, _ in logged] == list(GRID)
    chosen = model.lam
    assert chosen == min(logged, key=lambda r: r[1])[0]
    ces, flat_ces, _, _, _ = per_mapping_weights(model, dev, slots, GRID)
    assert bits(ce for _, ce in logged) == bits(ces)
    pairs = expand_paradigm_pairs(dev)
    for (lam, ce), flat in zip(logged, flat_ces):
        model.lam = lam
        assert flat == cross_entropy(model, pairs)
        assert math.isclose(ce, flat, rel_tol=1e-12, abs_tol=0.0)
    model.lam = chosen
    staged = compute_weights(reloaded(model), dev, slots)
    assert staged.root == W.root and staged.edge == W.edge


def per_mapping_weights(model, dev, slots, grid):
    """The dev pass as one loop over the mappings: each scored on its own
    under every lambda by `reference_logprob` and added with += to its cell
    and to the flat total.  Returns (dev CE per lambda, flat CE per lambda,
    chosen lambda, root weights, edge weights): the dev CE, the chosen
    lambda and the weights as `compute_weights` logs, sets and returns them,
    the dev CE from the cell sums added row by row, the root column last;
    the flat CE from the flat total, in mapping order."""
    n, g = len(slots), len(grid)
    index = {s: i for i, s in enumerate(slots)}
    column = {**index, ROOT: n}
    cnt = [[0] * (n + 1) for _ in range(n)]
    cell_sum = [[[0.0] * g for _ in range(n + 1)] for _ in range(n)]
    total = [0.0] * g
    for p in dev:
        entries = {s: f for s, f in p.entries.items() if s in index}
        for m in pair_list(PairView([Paradigm(p.lexeme, entries)])):
            i, j = index[m[2]], column[m[1]]
            cnt[i][j] += 1
            for k, lam in enumerate(grid):
                lp = reference_logprob(model, lam, *m)
                total[k] += lp
                cell_sum[i][j][k] += lp
    scored = sum(map(sum, cnt))
    ces = [0.0] * g
    for k in range(g):
        for i in range(n):
            for j in range(n + 1):
                ces[k] += cell_sum[i][j][k]
    ces = [-c / scored for c in ces]
    k = min(range(g), key=ces.__getitem__)
    root = [cell_sum[i][n][k] / cnt[i][n] if cnt[i][n] else None for i in range(n)]
    fallback = 0.0
    for r in root:
        if r is not None:
            fallback += r
    fallback /= n - root.count(None)
    edge = [[fallback] * n if root[i] is None else
            [0.0 if i == j else cell_sum[i][j][k] / cnt[i][j] if cnt[i][j] else root[i]
             for j in range(n)] for i in range(n)]
    return (ces, [-t / scored for t in total], grid[k],
            [fallback if r is None else r for r in root], edge)


def bits(xs):
    return [x.hex() for x in xs]


# the scorer's inventory; dev paradigms also fill E, a slot outside it
INVENTORY = ["A", "B", "C", "D"]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example([Paradigm("k", {"A": "ka", "B": "kb", "C": "kb"}), Paradigm("n", {"A": "na", "B": "nc"})],
         [Paradigm("m", {"A": "ma", "B": "mb", "C": "mb", "D": "", "E": "xq"}),
          Paradigm("y", {"A": "ya", "B": "mc", "C": "mb"})])
@given(paradigm_lists("ABC"), paradigm_lists("ABCDE"))
def test_logprob_and_dev_pass_equal_per_mapping_loop(caplog, train_paradigms, dev):
    """Scoring a dev target once against its root context and all its
    sources gives, for every source and lambda, the bits the mixture
    written out gives for that one mapping; and the dev pass built on it
    gives the per-mapping loop's dev CE per lambda, chosen lambda, root
    weights and every edge weight, bit for bit, and a dev CE within 1e-12
    (relative) of the loop's flat per-mapping CE.  Training fills A-C only,
    so D is scored with the fallback n-gram and no rule table, and E with
    neither is left out of the matrix.  The training paradigms are dev
    paradigms too, so most draws have rules that apply and give the target
    (shares of 1 and between 0 and 1).  In the example, target C of m has
    two sources of share 1, target B of y two of share 0, and target B of m
    two whose rules giving mb weigh the same but whose shares differ."""
    model = train(PairView(train_paradigms), order=2)
    dev = dev + train_paradigms
    for p in dev:
        for tgt_slot, tgt, sources in target_groups(p.entries):
            contexts = [(ROOT, EMPTY)] + sources
            rows = model.logprob(tgt_slot, tgt, contexts, GRID)
            own = model.logprob(tgt_slot, tgt, contexts)
            assert len(rows) == len(own) == len(contexts)
            for row, own_row, (src_slot, src) in zip(rows, own, contexts):
                want = [reference_logprob(model, lam, src, src_slot, tgt_slot, tgt)
                        for lam in GRID]
                assert bits(row) == bits(want)
                assert bits(own_row) == bits([want[GRID.index(model.lam)]])
    ces, flat_ces, chosen, root, edge = per_mapping_weights(model, dev, INVENTORY, GRID)
    caplog.clear()
    caplog.set_level(logging.INFO, logger="morphcomplexity.structure")
    W = compute_weights(model, dev, INVENTORY, GRID)
    logged = [r.args for r in caplog.records if r.msg.startswith("lambda=")]
    assert [lam for lam, _ in logged] == list(GRID)
    assert bits(ce for _, ce in logged) == bits(ces)
    for (_, ce), flat in zip(logged, flat_ces):
        assert math.isclose(ce, flat, rel_tol=1e-12, abs_tol=0.0)
    assert model.lam == chosen
    assert bits(W.root) == bits(root)
    assert [bits(r) for r in W.edge] == [bits(r) for r in edge]


def test_dev_pass_changes_only_lambda_in_model_json():
    model, dev, slots = six_slot_model()
    saved = json.dumps(with_dev(model).to_json(), sort_keys=True)
    compute_weights(model, dev, slots, GRID)
    model.lam = strmodel.DEFAULT_LAMBDA
    assert json.dumps(model.to_json(), sort_keys=True) == saved


@pytest.mark.parametrize("cpus", [None, 1, 2, 3])
def test_dev_pass_does_not_depend_on_worker_count(monkeypatch, caplog, cpus):
    """The dev pass scores one range of target slots per CPU, forking one
    child per range after the first, and adds each cell's scores in dev
    order: the logged dev CE per lambda, the chosen lambda and every weight
    are the 1-CPU run's bits, for the model over a grid and for a score
    table.  Without os.sched_getaffinity (cpus None) there is one worker; an
    empty dev list, or one that fills no slot of the inventory, still exits
    as an input error and forks nothing."""
    model, dev, slots = six_slot_model()
    table = ScoreTable({m: model.logprob(m[2], m[3], [(m[1], m[0])])[0][0]
                        for m in pair_list(PairView(dev))})
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    caplog.set_level(logging.INFO, logger="morphcomplexity.structure")

    def dev_pass(scorer, grid, dev, workers):
        if workers is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                                raising=False)
        caplog.clear()
        forks.clear()
        if grid is not None:
            scorer.lam = strmodel.DEFAULT_LAMBDA
        W = compute_weights(scorer, dev, slots, grid)
        assert len(forks) == min(workers or 1, len(slots)) - 1
        return ([r.args[1].hex() for r in caplog.records if r.msg.startswith("lambda=")],
                grid and scorer.lam, bits(W.root), [bits(r) for r in W.edge])

    for scorer, grid in ((model, GRID), (table, None)):
        for n_dev in (1, 2, 3, len(dev)):
            assert dev_pass(scorer, grid, dev[:n_dev], cpus) == \
                dev_pass(scorer, grid, dev[:n_dev], 1)
        for unfilled in ([], [Paradigm("z", {"Z1": "za", "Z2": "zb"})]):
            with pytest.raises(ValueError, match="no slot of the inventory is filled in any dev"):
                dev_pass(scorer, grid, unfilled, cpus)
            assert not forks


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_dev_pass_scores_each_filled_target_once_per_row(monkeypatch, tmp_path, cpus):
    """The dev pass cuts the target slots into one range per CPU: whichever
    process scores it, each (target slot, dev paradigm) that is filled gets
    exactly one `logprob` call, and the records come back one per matrix
    row, (counts, sums packed), in slot order: the sums as the bytes of an
    array of doubles, lambda-major, one per (lambda, column)."""
    model, dev, slots = six_slot_model()
    n = len(slots)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    logprob, forked_ranges = ConditionalParadigmModel.logprob, structure.forked_ranges
    records = []

    def recorded(size, work):
        records.extend(forked_ranges(size, work))
        return records

    # every process appends its calls to one file, a write at a time
    fd = os.open(tmp_path / "calls", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def logged(self, tgt_slot, tgt, contexts, lambda_grid=None):
        os.write(fd, (json.dumps([os.getpid(), tgt_slot, tgt, contexts]) + "\n").encode())
        return logprob(self, tgt_slot, tgt, contexts, lambda_grid)

    monkeypatch.setattr(ConditionalParadigmModel, "logprob", logged)
    monkeypatch.setattr(structure, "forked_ranges", recorded)
    try:
        W = compute_weights(model, dev, slots, GRID)
    finally:
        os.close(fd)
    calls = [json.loads(line) for line in (tmp_path / "calls").read_text().splitlines()]
    assert Counter(json.dumps(call[1:]) for call in calls) == Counter(
        json.dumps([tgt_slot, tgt, [(ROOT, EMPTY)] + sources])
        for p in dev for tgt_slot, tgt, sources in target_groups(p.entries))
    assert len({call[0] for call in calls}) == min(cpus, n)
    assert len(records) == n
    k = GRID.index(model.lam)
    for i, (counts, packed) in enumerate(records):
        fills = [p.entries.keys() for p in dev if slots[i] in p.entries]
        assert counts == [0 if j == i else sum(slots[j] in f for f in fills)
                          for j in range(n)] + [len(fills)]
        assert type(packed) is bytes and len(packed) == 8 * len(GRID) * (n + 1)
        sums = array("d", packed)
        assert W.root[i] == sums[k * (n + 1) + n] / counts[n]


def test_train_adds_each_form_once_per_char_model(monkeypatch):
    added = []
    add = CharNGram.add
    monkeypatch.setattr(CharNGram, "add",
                        lambda self, count, form: added.append((id(self), form, count))
                        or add(self, count, form))
    # "" and "x" are forms of both slots
    s_to_t = mk_pairs([("a", ""), ("b", "x")], "S", "T")
    t_to_s = mk_pairs([("", "a"), ("x", "x")], "T", "S")
    model = train(PairView(s_to_t.paradigms + t_to_s.paradigms, s_to_t.cells + t_to_s.cells))
    slot_of = {id(m): slot for slot, m in model.char_models.items()}
    assert sorted((slot_of[obj], form, count) for obj, form, count in added) == [
        ("S", "a", 1), ("S", "x", 1), ("T", "", 1), ("T", "x", 1)]
    summed = Counter()
    for m in model.char_models.values():
        for hist, c in m.counts.items():
            summed.update({(hist, sym): n for sym, n in c.items()})
    assert "fallback_char" not in vars(model)   # built on first use
    fallback = model.fallback_char
    assert {(hist, sym): n for hist, c in fallback.counts.items()
            for sym, n in c.items()} == summed
    assert all(fallback._totals[h] == sum(c.values()) for h, c in fallback.counts.items())
    back = reloaded(model)
    assert back.fallback_char.counts == fallback.counts
    assert back.fallback_char._totals == fallback._totals


def test_model_version_check():
    with pytest.raises(ValueError):
        ConditionalParadigmModel.from_json({"version": 999})


# ----------------------------------------------------------- score tables

def test_load_scores_roundtrip():
    table = load_scores(io.StringIO("# src\tsrc_slot\ttgt_slot\ttgt\tlog2prob\n\n"
                                    "\t\tV;PST\twalked\t-2.5\n"
                                    "walk\tV;NFIN\tV;PST\twalked\t-0.1\n"))
    contexts = [(ROOT, EMPTY), ("V;NFIN", "walk")]
    assert table.logprob("V;PST", "walked", contexts) == [[-2.5], [-0.1]]


def test_load_scores_root_rows():
    table = load_scores(io.StringIO("\t\tV;PST\twalked\t-3.5\n"))
    assert table.logprob("V;PST", "walked", [(ROOT, EMPTY)], GRID) == [[-3.5] * len(GRID)]


def test_score_lookup_missing_is_error():
    """A lookup names the missing mapping, a source row's as a root row's."""
    for scores, missing in [({("", "<ROOT>", "T", "b"): -1.0}, "('a', 'S', 'T', 'b')"),
                            ({("a", "S", "T", "b"): -1.0}, "('', '<ROOT>', 'T', 'b')")]:
        with pytest.raises(ValueError, match="has no score for mapping") as exc:
            ScoreTable(scores).logprob("T", "b", [(ROOT, EMPTY), ("S", "a")])
        assert missing in str(exc.value)


@pytest.mark.parametrize("logprob", ["0.5", "nan", "-inf", "-1e400"])
def test_load_scores_rejects_positive_logprob(logprob):
    with pytest.raises(ValueError, match="is not finite and <= 0"):
        load_scores(io.StringIO("a\tS\tT\tb\t%s\n" % logprob))


@pytest.mark.parametrize("rows", ["a\tS\tT\tb\t-1.0\na\tS\tT\tb\t-7.0\n",
                                  "\t\tT\tb\t-1.0\n\t<ROOT>\tT\tb\t-7.0\n"])
def test_load_scores_rejects_a_mapping_given_another_score(rows):
    with pytest.raises(ValueError, match="line 2"):
        load_scores(io.StringIO(rows))
    # an exact repeat, as two homographic lexemes give, keeps its one score
    table = load_scores(io.StringIO(rows.replace("-7.0", "-1.0")))
    assert list(table.scores.values()) == [-1.0]


def test_load_scores_rejects_bad_shape():
    with pytest.raises(ValueError, match="expected 5 tab-separated fields"):
        load_scores(io.StringIO("only\tthree\tfields\n"))
