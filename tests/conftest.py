import pytest

from morphcomplexity import strmodel
from morphcomplexity.cli import CONFIG_DEFAULTS, bundled
from morphcomplexity.corpus import EMPTY, expand_paradigm_pairs


def split_config(**overrides):
    """The config `corpus.make_split` reads: the CLI defaults, overridden."""
    return dict(CONFIG_DEFAULTS, **overrides)


def pair_list(view):
    """A `PairView`'s mappings one by one, in an order that gives each of
    `strmodel.train`'s tables its rows in order, as (src, src_slot, tgt_slot,
    tgt) tuples: every paradigm's (purple), or each sampled cell's (green),
    whose source is EMPTY from the root."""
    if view.cells is None:
        return expand_paradigm_pairs(view.paradigms)
    entries = {p.lexeme: p.entries for p in view.paradigms}
    return [(entries[lx].get(src_slot, EMPTY), src_slot, tgt_slot, entries[lx][tgt_slot])
            for lx, src_slot, tgt_slot in view.cells]


def view_alphabet(view):
    """The characters of every form of a `PairView`'s paradigms, sorted."""
    return sorted(set("".join(f for p in view.paradigms for f in p.entries.values())))


def train(pairs, order=CONFIG_DEFAULTS["order"], alpha=CONFIG_DEFAULTS["alpha"]):
    """`strmodel.train` at the CLI's default order and alpha unless given,
    over the alphabet of the view's paradigms."""
    return strmodel.train(pairs, order, alpha, view_alphabet(pairs))


@pytest.fixture
def toy_lexicon_path():
    return str(bundled("toy_lexicon.tsv"))


@pytest.fixture
def greek_plat():
    from morphcomplexity.platbaseline import parse_plat
    with open(bundled("greek_plat.tsv"), encoding="utf-8") as fh:
        return parse_plat(fh)


class StubScorer:
    """Fixed logprob lookup standing in for a trained model."""

    def __init__(self, scores, default=None):
        self.scores = dict(scores)
        self.default = default

    def logprob(self, tgt_slot, tgt, contexts, lambda_grid=None):
        """One row per (src_slot, src) of contexts, as a model's `logprob`
        gives them: each mapping's score in every column, or the default for
        a mapping not in `scores`; without a default such a mapping is a
        KeyError."""
        g = 1 if lambda_grid is None else len(lambda_grid)
        rows = []
        for src_slot, src in contexts:
            key = (src, src_slot, tgt_slot, tgt)
            lp = self.scores[key] if self.default is None else self.scores.get(key, self.default)
            rows.append([lp] * g)
        return rows


@pytest.fixture
def stub_scorer():
    return StubScorer
