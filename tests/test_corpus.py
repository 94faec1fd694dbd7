import io
import itertools
import random

import pytest

from morphcomplexity import corpus
from morphcomplexity.corpus import (
    ROOT, Paradigm,
    expand_paradigm_pairs, make_split,
    parse_unimorph, split_from_json, split_to_json,
)

from conftest import pair_list, split_config

SIX_LINES = """\
Hand\tHand\tN;NOM;SG
Hand\tHände\tN;NOM;PL
Hand\tHänden\tN;DAT;PL
Gabel\tGabel\tN;NOM;SG
Gabel\tGabeln\tN;NOM;PL
Gabel\tGabeln\tN;DAT;PL
"""


def test_parse_single_line():
    inventory, paradigms, errors = parse_unimorph(io.StringIO("Hand\tHänden\tN;DAT;PL\n"))
    assert errors == []
    assert inventory == ["N;DAT;PL"]
    assert paradigms == [Paradigm(lexeme="Hand", entries={"N;DAT;PL": "Händen"})]


def test_parse_empty_input():
    assert parse_unimorph(io.StringIO("")) == ([], [], [])


def test_parse_reports_line_numbers():
    stream = io.StringIO("good\tform\tN;SG\nbadline-without-tabs\n")
    inventory, paradigms, errors = parse_unimorph(stream)
    assert paradigms == [Paradigm("good", {"N;SG": "form"})]
    assert len(errors) == 1 and errors[0].startswith("line 2:")


def test_parse_skips_comments_and_blanks():
    _, paradigms, errors = parse_unimorph(io.StringIO("# comment\n\nHand\tHand\tN;NOM;SG\n"))
    assert paradigms == [Paradigm("Hand", {"N;NOM;SG": "Hand"})] and errors == []


def test_parse_groups_the_fixture_into_paradigms():
    inventory, paradigms, errors = parse_unimorph(io.StringIO(SIX_LINES))
    assert errors == []
    assert inventory == sorted(["N;NOM;SG", "N;NOM;PL", "N;DAT;PL"])
    assert [p.lexeme for p in paradigms] == ["Gabel", "Hand"]
    assert all(len(p.entries) == 3 for p in paradigms)


def test_parse_pos_filter():
    text = "walk\twalked\tV;PST\nhand\thand\tN;NOM;SG\n"
    inventory, paradigms, _ = parse_unimorph(io.StringIO(text), pos_filter="N")
    assert inventory == ["N;NOM;SG"]
    assert [p.lexeme for p in paradigms] == ["hand"]
    assert parse_unimorph(io.StringIO(text), pos_filter="ADJ")[:2] == ([], [])


def test_parse_partial_paradigms_allowed():
    text = "a\ta\tN;SG\na\tas\tN;PL\nb\tb\tN;SG\nb\tbs\tN;PL\nb\tbd\tN;DU\n"
    inventory, paradigms, _ = parse_unimorph(io.StringIO(text))
    assert len(inventory) == 3
    sizes = {p.lexeme: len(p.entries) for p in paradigms}
    assert sizes == {"a": 2, "b": 3}


def test_duplicate_cell_keeps_first(caplog):
    text = "a\tfirst\tN;SG\na\tsecond\tN;SG\na\tfirst\tN;SG\n"
    with caplog.at_level("WARNING", logger="morphcomplexity.corpus"):
        _, paradigms, errors = parse_unimorph(io.StringIO(text))
    assert paradigms[0].entries["N;SG"] == "first" and errors == []
    # the differing form is reported once; the repeat of the kept form is not
    assert [r.getMessage() for r in caplog.records] == [
        "duplicate cell a/N;SG: keeping 'first', dropping 'second'"]


def _full_paradigms(count, n=4):
    slots = ["N;S%d" % i for i in range(n)]
    return [Paradigm("lex%04d" % i, {s: "f%d_%d" % (i, k) for k, s in enumerate(slots)})
            for i in range(count)], slots


def test_make_split_purple_counts():
    paradigms, slots = _full_paradigms(700, n=4)
    split = make_split(paradigms, split_config(regime="purple", seed=3), slots)
    # 600 paradigms x (4*3 slot pairs + 4 root pairs) = 600 * 16
    assert len(split.train_pairs) == 600 * 16
    assert sum(1 for _, src_slot, _, _ in pair_list(split.train_pairs)
               if src_slot == ROOT) == 600 * 4
    assert len(split.dev_paradigms) == 50 and len(split.test_paradigms) == 50
    # dev expansion: n(n-1) non-identity pairs per full paradigm, plus n roots
    dev_pairs = expand_paradigm_pairs(split.dev_paradigms)
    assert sum(1 for _, src_slot, _, _ in dev_pairs if src_slot != ROOT) == 50 * 4 * 3
    assert sum(1 for _, src_slot, _, _ in dev_pairs if src_slot == ROOT) == 50 * 4


def test_make_split_deterministic():
    paradigms, slots = _full_paradigms(250, n=3)
    spec = split_config(regime="green", pair_count=500, seed=11)
    a = make_split(paradigms, spec, slots)
    b = make_split(paradigms, spec, slots)
    assert pair_list(a.train_pairs) == pair_list(b.train_pairs)
    assert [p.lexeme for p in a.dev_paradigms] == [p.lexeme for p in b.dev_paradigms]
    assert [p.lexeme for p in a.test_paradigms] == [p.lexeme for p in b.test_paradigms]


def test_make_split_green_takes_all_when_short():
    paradigms, slots = _full_paradigms(160, n=4)
    split = make_split(paradigms, split_config(regime="green", pair_count=60000, seed=0),
                       slots)
    # 60 non-held-out paradigms x 16 mappings each, far fewer than requested
    assert len(split.train_pairs) == 60 * 16


def test_make_split_no_leakage():
    paradigms, slots = _full_paradigms(300, n=3)
    split = make_split(paradigms, split_config(regime="green", pair_count=1000, seed=5),
                       slots)
    held = {p.lexeme for p in split.dev_paradigms} | {p.lexeme for p in split.test_paradigms}
    assert not any(p.lexeme in held for p in split.train_pairs.paradigms)
    assert not (set(p.lexeme for p in split.dev_paradigms)
                & set(p.lexeme for p in split.test_paradigms))


def test_make_split_no_identity_pairs():
    paradigms, slots = _full_paradigms(150, n=3)
    split = make_split(paradigms, split_config(regime="purple", paradigm_count=40, seed=1),
                       slots)
    for _, src_slot, tgt_slot, _ in itertools.chain(
            pair_list(split.train_pairs), expand_paradigm_pairs(split.dev_paradigms),
            expand_paradigm_pairs(split.test_paradigms)):
        assert src_slot != tgt_slot


def test_make_split_too_few_paradigms():
    paradigms, slots = _full_paradigms(60, n=3)
    with pytest.raises(corpus.InsufficientDataError) as exc:
        make_split(paradigms, split_config(seed=0), slots)
    assert "101" in str(exc.value) and "60" in str(exc.value)


def test_make_split_holdout_needs_two_slots():
    paradigms, slots = _full_paradigms(140, n=3)
    for p in paradigms[:30]:
        p.entries = {slots[0]: p.entries[slots[0]]}
    split = make_split(paradigms, split_config(regime="purple", paradigm_count=10, seed=2),
                       slots)
    assert all(len(p.entries) >= 2 for p in split.dev_paradigms + split.test_paradigms)


def test_split_json_roundtrip():
    paradigms, slots = _full_paradigms(130, n=3)
    split = make_split(paradigms, split_config(regime="purple", paradigm_count=20, seed=9),
                       slots)
    obj = split_to_json(split)
    back = split_from_json(obj)
    assert pair_list(back.train_pairs) == pair_list(split.train_pairs)
    assert [p.entries for p in back.dev_paradigms] == [p.entries for p in split.dev_paradigms]
    assert back.inventory == slots
    del obj["inventory"]
    with pytest.raises(ValueError, match="re-run split"):
        split_from_json(obj)


def test_expand_paradigm_pairs_counts():
    p = Paradigm("x", {"C": "fc", "A": "fa", "B": "fb"})
    pairs = expand_paradigm_pairs([p])
    assert len(pairs) == 3 * 2 + 3
    # each target slot in sorted order: from the root, then from every other slot
    assert [(src_slot, tgt_slot) for _, src_slot, tgt_slot, _ in pairs] == [
        (ROOT, "A"), ("B", "A"), ("C", "A"), (ROOT, "B"), ("A", "B"), ("C", "B"),
        (ROOT, "C"), ("A", "C"), ("B", "C")]
    assert [src for src, _, _, _ in pairs[:3]] == ["", "fb", "fc"]


@pytest.mark.parametrize("pair_count", [20, 500, 5000])
def test_green_draws_match_pool_sample(pair_count):
    """The green split draws the pairs that rng.sample over the expanded pool
    drew, on both of random.sample's internal paths (20 of ~1,000 pairs picks
    by set, 500 by a copied pool) and when the pool is short (5000)."""
    rng = random.Random(4)
    slots = ["N;S%d" % i for i in range(5)]
    paradigms = [Paradigm("lex%03d" % i, {s: "f%d%s" % (i, s[-1]) for s in slots
                                          if rng.random() < 0.7 or s == slots[i % 5]})
                 for i in range(110)]
    spec = split_config(regime="green", pair_count=pair_count, dev_paradigms=30,
                        test_paradigms=30, seed=8)
    split = make_split(paradigms, spec, slots)
    ref = random.Random(spec["seed"])
    held = {p.lexeme for p in ref.sample([p for p in paradigms if len(p) >= 2], 60)}
    rest = [p for p in paradigms if p.lexeme not in held]
    # each pool mapping beside its lexeme; rng.sample draws by length alone
    pool = [(p.lexeme, m) for p in rest for m in expand_paradigm_pairs([p])]
    want = pool if len(pool) <= pair_count else ref.sample(pool, pair_count)
    assert pair_list(split.train_pairs) == [m for _, m in want]
    assert len(split.train_pairs) == len(want)
    assert {p.lexeme for p in split.train_pairs.paradigms} == {lx for lx, _ in want}
