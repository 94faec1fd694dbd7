import csv
import io
import math
import random
import statistics

import pytest

from morphcomplexity import cli
from morphcomplexity.complexity import (
    ComplexityPoint, SyntheticSystem, i_complexity, write_points_csv,
)
from morphcomplexity.corpus import (
    EMPTY, ROOT, PairView, Paradigm, make_split,
)
from morphcomplexity.structure import Arborescence, compute_weights, max_arborescence

from conftest import split_config, train

GRID = cli.lambda_grid(cli.CONFIG_DEFAULTS)

TWO_CLASS = {
    "slots": ["X;A", "X;B", "X;C", "X;D"],
    "class_probs": [0.5, 0.5],
    "suffix_table": [["", "a", "ib", "ka"], ["", "a", "ib", "zu"]],
    "stem_alphabet": "abcd",
    "stem_len": [3, 6],
}


def run_pipeline(system, seed, order=3):
    rng = random.Random(seed)
    paradigms = system.sample_paradigms(400, rng)
    split = make_split(paradigms, split_config(regime="purple", paradigm_count=300,
                                               seed=seed), system.slots)
    model = train(split.train_pairs, order=order)
    W = compute_weights(model, split.dev_paradigms, system.slots, GRID)
    tree = max_arborescence(W)
    return i_complexity(model, tree, split.test_paradigms)


# ----------------------------------------------------------- i-complexity

def test_i_complexity_stub_values(stub_scorer):
    # two paradigms at -2 and -4 bits over a 3-slot tree -> (3.0, 1.0)
    tree = Arborescence(slots=["A", "B", "C"], root=0, parent={1: 0, 2: 0})
    scorer = stub_scorer({
        (EMPTY, ROOT, "A", "a1"): -1.0,
        ("a1", "A", "B", "b1"): -0.5, ("a1", "A", "C", "c1"): -0.5,
        (EMPTY, ROOT, "A", "a2"): -2.0,
        ("a2", "A", "B", "b2"): -1.0, ("a2", "A", "C", "c2"): -1.0,
        # root rows of slots with a parent: never read
        **{(EMPTY, ROOT, s, s.lower() + n): -9.0 for s in "BC" for n in "12"},
    })
    test = [Paradigm("p1", {"A": "a1", "B": "b1", "C": "c1"}),
            Paradigm("p2", {"A": "a2", "B": "b2", "C": "c2"})]
    i_total, i_per = i_complexity(scorer, tree, test)
    assert i_total == pytest.approx(3.0)
    assert i_per == pytest.approx(1.0)


def test_i_complexity_empty_test_errors(stub_scorer):
    tree = Arborescence(slots=["A"], root=0, parent={})
    with pytest.raises(ValueError):
        i_complexity(stub_scorer({}, default=0.0), tree, [])


def test_i_per_form_times_n_is_total(stub_scorer):
    tree = Arborescence(slots=["A", "B"], root=0, parent={1: 0})
    scorer = stub_scorer({}, default=-0.7)
    test = [Paradigm("p", {"A": "x", "B": "y"})]
    i_total, i_per = i_complexity(scorer, tree, test)
    assert i_per * len(tree.slots) == pytest.approx(i_total)


# ----------------------------------------------------------- synthetic systems

def test_class_entropy_values():
    one = SyntheticSystem(["A"], [1.0], [["x"]])
    assert one.class_entropy == 0.0
    two = SyntheticSystem(["A"], [0.5, 0.5], [["x"], ["y"]])
    assert two.class_entropy == 1.0
    skew = SyntheticSystem(["A"], [1 / 3, 2 / 3], [["x"], ["y"]])
    assert skew.class_entropy == pytest.approx(0.9182958340544896, abs=1e-12)


def test_invalid_class_probs():
    for probs in ([0.6, 0.6], [1.5, -0.5], [0.5, math.nan], [math.nan, math.nan],
                  [math.inf, 0.0], []):
        with pytest.raises(ValueError, match="class probabilities must be finite"):
            SyntheticSystem(["A"], probs, [["x"]] * len(probs))
    with pytest.raises(ValueError):
        SyntheticSystem(["A"], [0.5, 0.5], [["x"]])
    with pytest.raises(ValueError):
        SyntheticSystem(["A", "B"], [1.0], [["x"]])


def test_sampling_matches_suffix_table():
    system = SyntheticSystem(**TWO_CLASS)
    rng = random.Random(0)
    for p in system.sample_paradigms(50, rng):
        stem = p.entries["X;A"]
        assert p.entries["X;B"] == stem + "a"
        assert p.entries["X;C"] == stem + "ib"
        assert p.entries["X;D"] in (stem + "ka", stem + "zu")


def test_two_class_excess_entropy_near_class_entropy():
    """The i-complexity gap between a two-class system and its one-class
    control should approximate the 1-bit class entropy."""
    two = SyntheticSystem(**TWO_CLASS)
    one = SyntheticSystem(**{**TWO_CLASS, "class_probs": [1.0],
                             "suffix_table": TWO_CLASS["suffix_table"][:1]})
    gaps = []
    for seed in range(3):
        i_two, _ = run_pipeline(two, seed)
        i_one, _ = run_pipeline(one, seed)
        gaps.append(i_two - i_one)
    mean_gap = statistics.mean(gaps)
    assert 0.8 <= mean_gap <= 1.6


def test_deterministic_system_near_zero_per_form():
    system = SyntheticSystem(**{
        "slots": TWO_CLASS["slots"],
        "class_probs": [1.0],
        "suffix_table": TWO_CLASS["suffix_table"][:1],
        "stem_alphabet": "a",
        "stem_len": [4, 4],
    })
    _, i_per = run_pipeline(system, 0, order=5)
    assert i_per < 0.3


def test_more_training_data_reduces_estimate():
    # Eq-style consistency: the cross-entropy estimate should trend toward
    # the class entropy (from above, modulo the stem/root cost shared by
    # both sizes) as training data grows
    system = SyntheticSystem(**TWO_CLASS)
    rng = random.Random(42)
    paradigms = system.sample_paradigms(900, rng)
    holdout = paradigms[:100]
    dev, test = holdout[:50], holdout[50:]
    results = []
    for size in (100, 800):
        model = train(PairView(paradigms[100:100 + size]))
        W = compute_weights(model, dev, system.slots, GRID)
        tree = max_arborescence(W)
        i_total, _ = i_complexity(model, tree, test)
        results.append(i_total)
    assert results[1] <= results[0] + 0.1


def test_estimate_upper_bounds_class_entropy():
    # H(p) <= H(p, q): the held-out estimate should not dip materially
    # below the true class entropy plus zero residual form cost
    system = SyntheticSystem(**TWO_CLASS)
    i_total, _ = run_pipeline(system, 7)
    assert i_total > system.class_entropy - 0.05


# ----------------------------------------------------------- CSV round trip

def test_points_csv_roundtrip():
    points = [
        ComplexityPoint("german", "N", "green", 8, 12.345678, 1.543210, 50, 0),
        ComplexityPoint("turkish", "V", "purple", 120, 3.5, 0.029167, 50, 3),
    ]
    buf = io.StringIO()
    write_points_csv(points, buf)
    buf.seek(0)
    back = list(csv.DictReader(buf))
    assert [row["language"] for row in back] == ["german", "turkish"]
    assert float(back[0]["i_total_bits"]) == pytest.approx(12.345678, abs=1e-6)
    assert back[1]["e_complexity"] == "120" and back[1]["seed"] == "3"


def test_points_csv_header():
    buf = io.StringIO()
    write_points_csv([], buf)
    assert buf.getvalue().splitlines()[0] == (
        "language,pos,regime,e_complexity,i_total_bits,i_per_form_bits,d,seed")
