"""Golden artifacts: the staged chain and `run` must reproduce, byte for byte,
the point.csv, tree.json and weights.json committed under tests/data/golden/.

The goldens were written on CPython 3.11.7, Linux x86_64 (glibc libm).  They
are float digests.  `sum()` over floats is compensated from Python 3.12 on,
so the float totals on their path, the dev cross-entropy that picks lambda
among them, are plain += or `reduce(add)` loops in a fixed order, and the
chain is rerun here with 3.12's `sum`.  A mismatch on another interpreter or
libm needs investigating, not regenerating.
"""

import builtins
import importlib
import itertools
import math
import pkgutil
import platform
import random
from pathlib import Path

import pytest

import morphcomplexity
from morphcomplexity.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
MADE_ON = "CPython 3.11.7, Linux x86_64"

# the generator of perfbench/lexgen.py: 12 noun slots, four inflection
# classes with a fixed suffix table, about one cell in ten left empty
STEM_ALPHABET = "abdeiklu"
CLASS_WEIGHTS = (0.4, 0.3, 0.2, 0.1)
NOUN_FEATURES = (("NOM", "ACC", "GEN", "DAT", "INS", "ESS", "ABL", "VOC"),
                 ("SG", "PL"), ("DEF", "INDF"))
N_SLOTS = 12
N_PARADIGMS = 150


def _word(rng, lo, hi):
    return "".join(rng.choice(STEM_ALPHABET) for _ in range(rng.randint(lo, hi)))


def golden_lexicon(seed=1):
    slots = [";".join(("N",) + c) for c in itertools.product(*NOUN_FEATURES)][:N_SLOTS]
    grammar = random.Random("N-%d" % N_SLOTS)
    suffixes = [[_word(grammar, 0, 3) for _ in slots] for _ in CLASS_WEIGHTS]
    rng = random.Random(seed)
    lines = []
    for i in range(N_PARADIGMS):
        stem = _word(rng, 3, 7)
        cls = rng.choices(range(len(CLASS_WEIGHTS)), weights=CLASS_WEIGHTS)[0]
        filled = [k for k in range(N_SLOTS) if rng.random() >= 0.1] or [rng.randrange(N_SLOTS)]
        lines.extend("lex%05d\t%s\t%s\n" % (i, stem + suffixes[cls][k], slots[k])
                     for k in filled)
    return "".join(lines)


# green draws 1,000 of ~13k pairs, purple 100 of the 110 training paradigms
CONFIG = """language = golden
data = lex.tsv
pos = N
regime = {regime}
paradigm_count = 100
pair_count = 1000
dev_paradigms = 20
test_paradigms = 20
seed = 5
out_dir = run
"""


def write_inputs(d, regime):
    """lex.tsv and golden.cfg in d; every stage reads the one config file, so
    every stage hashes the same config and the staged tree.json equals run's."""
    (d / "lex.tsv").write_text(golden_lexicon(), encoding="utf-8")
    (d / "golden.cfg").write_text(CONFIG.format(regime=regime), encoding="utf-8")


def staged_chain(d):
    for argv in (["ingest", "--out", "store.json"],
                 ["split", "--store", "store.json", "--out", "split.json"],
                 ["train", "--split", "split.json", "--out", "model.json"],
                 ["weights", "--split", "split.json", "--model", "model.json",
                  "--out", "weights.json"],
                 ["learn-tree", "--weights", "weights.json", "--out", "tree.json"],
                 ["measure", "--split", "split.json", "--model", "model.json",
                  "--tree", "tree.json", "--out", "point.csv"]):
        assert main(argv + ["--config", "golden.cfg"]) == 0, argv[0]


def check_goldens(tmp_path, monkeypatch, regime):
    monkeypatch.chdir(tmp_path)   # relative paths keep the config hash fixed
    write_inputs(tmp_path, regime)
    staged_chain(tmp_path)
    assert main(["run", "--config", "golden.cfg"]) == 0
    made = {"staged": ["point.csv", "tree.json", "weights.json"],
            "run": ["point.csv", "tree.json"]}
    for where, names in made.items():
        out = tmp_path if where == "staged" else tmp_path / "run"
        for name in names:
            assert (out / name).read_bytes() == (GOLDEN / regime / name).read_bytes(), (
                "%s %s/%s differs from the golden made on %s; this is %s %s, %s"
                % (where, regime, name, MADE_ON, platform.python_implementation(),
                   platform.python_version(), platform.machine()))


@pytest.mark.parametrize("regime", ["purple", "green"])
def test_golden_artifacts(tmp_path, monkeypatch, regime):
    check_goldens(tmp_path, monkeypatch, regime)


def compensated_sum(iterable, start=0):
    """`sum` as CPython 3.12 and later compute it: exact over ints, and over
    floats with Neumaier's compensation, added to the total at the end."""
    items = list(iterable)
    if all(type(x) is int for x in [start] + items):
        return builtins.sum(items, start)
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_compensated_sum_is_not_plain_addition():
    assert compensated_sum([0.1] * 10) == 1.0 != builtins.sum([0.1] * 10)
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0
    assert compensated_sum([2 ** 60, 1, -(2 ** 60)]) == 1
    assert compensated_sum([]) == 0


@pytest.mark.parametrize("regime", ["purple", "green"])
def test_golden_artifacts_under_compensated_sum(tmp_path, monkeypatch, regime):
    """With every package module's `sum` the compensated one of Python 3.12,
    the staged chain and `run` still reproduce the goldens made on 3.11."""
    calls = []

    def counted_sum(iterable, start=0):
        calls.append(1)
        return compensated_sum(iterable, start)

    for info in pkgutil.iter_modules(morphcomplexity.__path__):
        module = importlib.import_module("morphcomplexity." + info.name)
        monkeypatch.setattr(module, "sum", counted_sum, raising=False)
    check_goldens(tmp_path, monkeypatch, regime)
    assert calls
