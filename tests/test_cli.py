import ast
import builtins
import csv
import gc
import importlib.util
import itertools
import json
import logging
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import morphcomplexity
from morphcomplexity import cli, strmodel
from morphcomplexity.cli import main
from morphcomplexity.corpus import PairView

from conftest import pair_list, split_config
from test_golden import write_inputs


SLOTS = ["N;NOM;SG", "N;NOM;PL", "N;DAT;PL"]
SUFFIX = {"N;NOM;SG": "", "N;NOM;PL": "en", "N;DAT;PL": "es"}


def write_lexicon(path, count=140):
    rng = random.Random(0)
    lines = []
    for i in range(count):
        stem = "".join(rng.choice("abcd") for _ in range(rng.randint(3, 5)))
        lexeme = "lex%03d_%s" % (i, stem)
        for slot in SLOTS:
            lines.append("%s\t%s\t%s" % (lexeme, stem + SUFFIX[slot], slot))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_point(path):
    """The one row of a point.csv."""
    with open(path, encoding="utf-8", newline="") as fh:
        (row,) = csv.DictReader(fh)
    return row


SMALL_SPLIT = ["--paradigm-count", "40", "--dev-paradigms", "20", "--test-paradigms", "20"]
SMALL = SMALL_SPLIT + ["--order", "2"]


def row_entries(obj, row):
    """A paradigm row's {slot: form}, over the inventory of its store or split."""
    return {s: f for s, f in zip(obj["inventory"], row[1:]) if f is not None}


def write_config(path, flags, **keys):
    """A config file holding the settings of a flag list, and `keys`."""
    pairs = list(zip(flags[::2], flags[1::2])) + list(keys.items())
    path.write_text("".join("%s = %s\n" % (k.lstrip("-").replace("-", "_"), v)
                            for k, v in pairs), encoding="utf-8")
    return path


# ----------------------------------------------------------- ingest

def test_ingest_summary(tmp_path, capsys):
    lex = write_lexicon(tmp_path / "lex.tsv")
    code = main(["ingest", "--data", str(lex), "--pos", "N",
                 "--out", str(tmp_path / "store.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "lexemes: 140" in out and "slots: 3" in out
    assert "full paradigms: 140" in out and "coverage: 100.0%" in out
    store = json.loads((tmp_path / "store.json").read_text())
    assert len(store["paradigms"]) == 140


def test_ingest_warns_below_threshold(toy_lexicon_path, caplog):
    code = main(["ingest", "--data", toy_lexicon_path, "--pos", "N"])
    assert code == 0
    assert "below the 500-paradigm threshold" in caplog.text


def test_ingest_missing_file_exit_3(tmp_path):
    assert main(["ingest", "--data", str(tmp_path / "nope.tsv")]) == 3


def test_ingest_malformed_exit_2(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("no tabs here\n", encoding="utf-8")
    assert main(["ingest", "--data", str(bad)]) == 2


def test_ingest_wrong_pos_exit_3(toy_lexicon_path):
    assert main(["ingest", "--data", toy_lexicon_path, "--pos", "V"]) == 3


def test_ingest_checks_the_fields_of_every_pos(tmp_path):
    """A malformed line exits 2 even when its POS is not the one kept."""
    lex = write_lexicon(tmp_path / "lex.tsv")
    with open(lex, "a", encoding="utf-8") as fh:
        fh.write("walk\twalked\tV;PST\textra\n")
    assert main(["ingest", "--data", str(lex), "--pos", "N"]) == 2


@pytest.mark.parametrize("pos", ["N", "V"])
def test_ingest_pos_filter_writes_the_one_pos_store(tmp_path, pos):
    """`ingest --pos` on a two-POS lexicon writes the bytes that the lexicon
    of that POS's lines alone writes, the lexemes of both POS shared in part."""
    nouns = write_lexicon(tmp_path / "n.tsv").read_text(encoding="utf-8").splitlines()
    verbs = [line.replace("N;", "V;") for line in write_lexicon(
        tmp_path / "v.tsv", count=160).read_text(encoding="utf-8").splitlines()]
    lex, store = tmp_path / "lex.tsv", tmp_path / "store.json"

    def ingest(lines):
        lex.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["ingest", "--data", str(lex), "--pos", pos, "--out", str(store)]) == 0
        return store.read_bytes()

    both = [line for pair in itertools.zip_longest(nouns, verbs) for line in pair if line]
    assert ingest(both) == ingest(nouns if pos == "N" else verbs)


# ----------------------------------------------------------- config handling

# each subcommand with its required arguments, and the config keys it takes
# as flags: those its stage reads, and the --seed that train, weights and
# measure accept unread while the benchmark passes it
SURFACE = {
    "ingest": ("ingest", ("data", "synth", "synth_paradigms", "language", "pos", "seed")),
    "split": ("split --store s.json --out o.json",
              ("regime", "paradigm_count", "pair_count", "dev_paradigms", "test_paradigms",
               "seed")),
    "train": ("train --split s.json --out o.json", ("order", "alpha", "lambda_grid", "seed")),
    "weights": ("weights --split s.json --out o.json", ("scores", "seed")),
    "learn-tree": ("learn-tree --weights w.json --out o.json", ()),
    "measure": ("measure --split s.json --tree t.json --out o.csv", ("scores", "seed")),
    "run": ("run", tuple(key for key in cli.CONFIG_FIELDS if key != "n_perm")),
    "pareto": ("pareto", ("n_perm", "seed", "out_dir")),
    "plat": ("plat", ()),
    "critique": ("critique", ("order", "alpha", "seed")),
}


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_each_subcommand_takes_only_the_flags_it_reads(name, tmp_path):
    """A config flag that a stage does not read ends in argparse's exit 2,
    before `main` runs the stage; each one it reads is parsed.  A config
    file may still set every key, as one file serves the whole chain."""
    assert sum(len(keys) for _, keys in SURFACE.values()) == 42
    base, keys = SURFACE[name]
    value = {int: 2, float: 0.5, str: "0.5"}
    for key, typ in cli.CONFIG_FIELDS.items():
        argv = base.split() + ["--" + key.replace("_", "-"), str(value[typ])]
        if key in keys:
            assert getattr(cli.build_parser().parse_args(argv), key) == value[typ], key
        else:
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2, key
    every_key = dict({key: value[typ] for key, typ in cli.CONFIG_FIELDS.items()
                      if key not in ("data", "synth")}, regime="green")
    cfgfile = write_config(tmp_path / "all.cfg", [], **every_key)
    args = cli.build_parser().parse_args(base.split() + ["--config", str(cfgfile)])
    assert cli.resolve_config(args) == every_key


@pytest.mark.parametrize("argv, code", [
    ("ingest --data {d}/lex.tsv", 0),
    ("ingest --synth {synth}", 2),
    ("split --store {d}/store.json --out {tmp}/o.json", 2),
    ("train --split {d}/split.json --out {tmp}/o.json --order 2", 0),
    ("weights --split {d}/split.json --model {d}/model.json --out {tmp}/o.json", 0),
    ("learn-tree --weights {d}/weights.json --out {tmp}/o.json", 0),
    ("measure --split {d}/split.json --model {d}/model.json --tree {d}/tree.json "
     "--out {tmp}/o.csv", 0),
    ("run --data {d}/lex.tsv --out-dir {tmp}", 2),
    ("pareto --n-perm 10 --out-dir {tmp}", 2),
    ("plat", 0),
    ("critique --trials 1", 2),
])
def test_seed_required_for_stochastic_commands(partial_runs, tmp_path, caplog, argv, code):
    """Without a seed, a stage that reads one exits 2, and so does ingest of
    a --synth input; ingest of --data, train, measure and plat read none,
    and weights and learn-tree stamp the seed of their input, here the
    partial chain's seed 3."""
    argv = argv.format(d=partial_runs, tmp=tmp_path, synth=cli.bundled("synth_two_class.json"))
    assert main(argv.split()) == code
    assert ("--seed is required" in caplog.text) == bool(code)
    if argv.startswith(("weights", "learn-tree")):
        assert json.loads((tmp_path / "o.json").read_text())["seed"] == 3


def test_train_ignores_the_seed(partial_runs, tmp_path, caplog):
    """The --seed that train accepts changes no byte of model.json, and
    train logs once that it ignores it."""
    caplog.set_level(logging.INFO)
    argv = ["train", "--split", str(partial_runs / "split.json"), "--order", "2", "--out"]
    assert main(argv + [str(tmp_path / "unseeded.json")]) == 0
    assert main(argv + [str(tmp_path / "seeded.json"), "--seed", "99"]) == 0
    model = (partial_runs / "model.json").read_bytes()
    assert (tmp_path / "unseeded.json").read_bytes() == model
    assert (tmp_path / "seeded.json").read_bytes() == model
    assert caplog.text.count("train ignores --seed") == 1


def test_weights_stamps_the_split_seed(partial_runs, tmp_path, caplog):
    """weights stamps the seed of the split it reads, not its --seed, and
    logs once that it ignores the flag; learn-tree stamps that seed again."""
    caplog.set_level(logging.INFO)
    weights, tree = tmp_path / "weights.json", tmp_path / "tree.json"
    assert main(["weights", "--split", str(partial_runs / "split.json"), "--model",
                 str(partial_runs / "model.json"), "--seed", "9", "--out", str(weights)]) == 0
    assert main(["learn-tree", "--weights", str(weights), "--out", str(tree)]) == 0
    assert caplog.text.count("weights ignores --seed") == 1
    staged = json.loads((partial_runs / "weights.json").read_text())
    stamped = json.loads(weights.read_text())
    assert stamped["seed"] == json.loads(tree.read_text())["seed"] == 3
    assert dict(stamped, config_hash=None) == dict(staged, config_hash=None)


def test_weights_writes_the_matrix_train_kept(partial_runs, tmp_path, monkeypatch):
    """`weights --model` over the dev set the model was trained with writes
    the matrix that train's dev pass kept and scores nothing: with the dev
    pass made to raise, it writes the bytes the dev pass writes.  Over
    another split's dev set it runs the dev pass, at the model's lambda."""
    d = partial_runs
    model, split = (json.loads((d / name).read_text()) for name in ("model.json", "split.json"))
    foreign = tmp_path / "foreign_digest.json"
    foreign.write_text(json.dumps(dict(model, dev_weights=dict(model["dev_weights"],
                                                               dev_sha256="0" * 64))))
    other = tmp_path / "other_dev.json"
    other.write_text(json.dumps(dict(split, dev_paradigms=split["test_paradigms"],
                                     test_paradigms=split["dev_paradigms"])))
    passes = []
    compute = cli.structure.compute_weights
    monkeypatch.setattr(cli.structure, "compute_weights",
                        lambda *args: passes.append(args) or compute(*args))

    def weights(split_path, model_path, out):
        assert main(["weights", "--split", str(split_path), "--model", str(model_path),
                     "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out).read_bytes()

    scored = weights(d / "split.json", foreign, "scored.json")
    assert len(passes) == 1
    assert weights(other, d / "model.json", "other.json") != scored
    assert len(passes) == 2 and passes[1][0].lam == model["lambda"]
    assert passes[1][1] == cli.corpus.paradigms_from_json(split["test_paradigms"],
                                                           split["inventory"], "split")

    def no_dev_pass(*args):
        raise AssertionError("the dev pass ran")
    monkeypatch.setattr(cli.structure, "compute_weights", no_dev_pass)
    assert weights(d / "split.json", d / "model.json", "kept.json") == scored


def test_model_alphabet_is_the_splits(tmp_path):
    """`train` fits the n-grams over every character of the split, so a
    character only in a dev form (c) and one only in a test form (d) are in
    the model's alphabet, and each context's q has mass <= 1 over the
    split's strings, the mass that enumerating them gives."""
    def paradigm(lexeme, stem):
        return [lexeme, stem, stem + "b"]
    split = {"inventory": ["S", "T"], "train_cells": None,
             "train_paradigms": [paradigm("l%d" % i, stem)
                                 for i, stem in enumerate(["a", "aa", "ab", "ba"])],
             "dev_paradigms": [paradigm("dev", "ac")], "test_paradigms": [paradigm("test", "ad")],
             "language": "x", "pos": "N", "seed": 0}
    (tmp_path / "split.json").write_text(json.dumps(split), encoding="utf-8")
    assert main(["train", "--split", str(tmp_path / "split.json"), "--order", "2",
                 "--out", str(tmp_path / "model.json")]) == 0
    model = cli.read_artifact(tmp_path / "model.json", strmodel.ConditionalParadigmModel.load)
    assert model.alphabet == ["a", "b", "c", "d"]
    for context in [("S", "ac"), ("S", "ad"), ("S", "a"), (cli.corpus.ROOT, "")]:
        for max_len in (3, 5):
            brute = sum(2.0 ** model.logprob("T", "".join(tgt), [context])[0][0]
                        for n in range(max_len + 1)
                        for tgt in itertools.product(model.alphabet, repeat=n))
            mass = model.mass_upto(context[1], context[0], "T", max_len)
            assert mass <= 1.0 and mass == pytest.approx(brute, abs=1e-12)


def test_config_file_and_flag_precedence(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("language = greek\nseed = 5\norder = 2\n", encoding="utf-8")

    args = cli.build_parser().parse_args(["run", "--config", str(cfgfile),
                                          "--language", "turkish"])
    cfg = cli.resolve_config(args)
    assert cfg["language"] == "turkish"   # flag beats file
    assert cfg["seed"] == 5 and cfg["order"] == 2
    assert cfg["pos"] == "N"              # untouched default


@pytest.mark.parametrize("in_file, flag", [("data", "synth"), ("synth", "data")])
def test_input_flag_replaces_config_input(tmp_path, in_file, flag):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("%s = from_file\nseed = 5\n" % in_file, encoding="utf-8")

    args = cli.build_parser().parse_args(["run", "--config", str(cfgfile),
                                          "--" + flag, "from_flag"])
    cfg = cli.resolve_config(args)
    assert cfg[flag] == "from_flag" and in_file not in cfg


def test_config_with_both_inputs_exits_2(tmp_path, caplog):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("data = lex.tsv\nsynth = gen.json\nseed = 0\n", encoding="utf-8")
    assert main(["ingest", "--config", str(cfgfile)]) == 2
    assert "give exactly one input: --data or --synth" in caplog.text


def test_config_file_errors(tmp_path, caplog):
    """An unknown key, a bad value or a line without '=' is a ValueError,
    and exit 2 with one ERROR line."""
    bad = tmp_path / "bad.cfg"
    for text in ("not_a_key = 1\n", "seed = not_an_int\n", "# a comment\n\nseed 5\n"):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError):
            cli.load_config(str(bad))
        caplog.clear()
        assert main(["critique", "--trials", "1", "--config", str(bad)]) == 2
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and errors[0].exc_info is None


def test_config_file_skips_comments_and_blank_lines(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# order of the char models\n\n  \norder = 2\n  # seed = 1\n",
                       encoding="utf-8")
    assert cli.load_config(str(cfgfile)) == {"order": 2}


# ----------------------------------------------------------- full runs

def test_run_emits_artifacts(tmp_path, capsys):
    lex = write_lexicon(tmp_path / "lex.tsv")
    out = tmp_path / "out"
    code = main(["run", "--data", str(lex), "--language", "toy", "--seed", "1",
                 "--out-dir", str(out)] + SMALL)
    assert code == 0
    assert "e=3" in capsys.readouterr().out
    for name in ("point.csv", "tree.json", "tree.dot", "manifest.json"):
        assert (out / name).exists()
    pt = read_point(out / "point.csv")
    assert pt["language"] == "toy" and pt["e_complexity"] == "3" and pt["d"] == "20"
    # the CSV keeps 6 decimals, so the invariant holds to rounding only
    assert float(pt["i_per_form_bits"]) * 3 == pytest.approx(float(pt["i_total_bits"]),
                                                             abs=5e-6)
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == ["config", "config_hash", "seed"]
    assert manifest["seed"] == 1 and manifest["config_hash"]


def test_run_reruns_byte_identical(tmp_path):
    lex = write_lexicon(tmp_path / "lex.tsv")
    out = tmp_path / "out"
    argv = ["run", "--data", str(lex), "--seed", "7",
            "--out-dir", str(out)] + SMALL
    assert main(argv) == 0
    first = {n: (out / n).read_bytes()
             for n in ("point.csv", "tree.json", "tree.dot", "manifest.json")}
    assert main(argv) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_run_synthetic_source(tmp_path):
    out = tmp_path / "out"
    synth = ["--synth", str(cli.bundled("synth_two_class.json")), "--synth-paradigms", "200"]
    assert main(["run", "--seed", "0", "--out-dir", str(out)] + synth + SMALL) == 0
    assert (out / "point.csv").exists()
    # the same generator also feeds the staged pipeline, and needs a seed there
    store = str(tmp_path / "store.json")
    assert main(["ingest", "--out", store] + synth) == 2
    assert main(["ingest", "--seed", "0", "--out", store] + synth) == 0
    assert main(["split", "--store", store, "--seed", "0",
                 "--out", str(tmp_path / "split.json")] + SMALL_SPLIT) == 0


def test_run_insufficient_data_exit_3(tmp_path, toy_lexicon_path):
    assert main(["run", "--data", toy_lexicon_path, "--seed", "0",
                 "--out-dir", str(tmp_path)]) == 3


@pytest.mark.parametrize("stage", ["run", "train"])
def test_training_data_is_freed_before_the_dev_pass(tmp_path, monkeypatch, stage):
    """`run` (green) and the staged `train` (purple) hold no reference to
    the split's training view or to a training paradigm once the model is
    trained: when the dev pass starts, a collection finds both gone."""
    lex = write_lexicon(tmp_path / "lex.tsv")
    store, split = tmp_path / "store.json", tmp_path / "split.json"
    if stage == "run":
        argv = ["run", "--data", str(lex), "--regime", "green", "--pair-count", "200",
                "--seed", "1", "--out-dir", str(tmp_path / "out")] + SMALL
        maker = "make_split"
    else:
        assert main(["ingest", "--data", str(lex), "--out", str(store)]) == 0
        assert main(["split", "--store", str(store), "--seed", "1", "--out", str(split)]
                    + SMALL_SPLIT) == 0
        argv = ["train", "--split", str(split), "--order", "2", "--out", str(tmp_path / "m.json")]
        maker = "split_from_json"
    refs, alive = [], []
    make, compute = getattr(cli.corpus, maker), cli.structure.compute_weights

    def made(*args):
        made_split = make(*args)
        refs.extend(map(weakref.ref, (made_split.train_pairs, made_split.train_pairs.paradigms[0])))
        return made_split

    def dev_pass(*args):
        gc.collect()
        alive.extend(ref() is not None for ref in refs)
        return compute(*args)
    monkeypatch.setattr(cli.corpus, maker, made)
    monkeypatch.setattr(cli.structure, "compute_weights", dev_pass)
    assert main(argv) == 0
    assert alive == [False, False]


# ----------------------------------------------------------- staged pipeline

PARTIAL_SLOTS = ["N;NOM;SG", "N;NOM;PL", "N;DAT;SG", "N;DAT;PL", "N;GEN;SG"]
RARE_SLOT = "N;VOC;SG"


def write_partial_lexicon(path, count=120):
    """Every paradigm lacks one of five slots; a sixth slot is filled only
    by a one-form lexeme, which cannot be held out and which the purple
    sampler may skip."""
    rng = random.Random(1)
    lines = ["rare\trareo\t%s" % RARE_SLOT]
    for i in range(count):
        stem = "".join(rng.choice("abcd") for _ in range(rng.randint(3, 5)))
        for k, slot in enumerate(PARTIAL_SLOTS):
            if k != i % len(PARTIAL_SLOTS):
                suffix = rng.choice(["", "e"]) + ["", "en", "es", "ern", "s"][k]
                lines.append("lex%03d_%s\t%s\t%s" % (i, stem, stem + suffix, slot))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("regime", ["purple", "green"])
def test_store_and_split_round_trip_as_rows(tmp_path, regime):
    """`ingest` and `split` write each paradigm as one row, its lexeme and a
    form or null per inventory slot, in compact JSON on one line; the
    paradigms, cells and inventory read back are those the stages built."""
    lex = write_partial_lexicon(tmp_path / "lex.tsv")
    store, split = tmp_path / "store.json", tmp_path / "split.json"
    assert main(["ingest", "--data", str(lex), "--out", str(store)]) == 0
    assert main(["split", "--store", str(store), "--out", str(split), "--regime", regime,
                 "--pair-count", "300", "--seed", "4"] + SMALL_SPLIT) == 0
    labels, inventory, paradigms = cli.read_artifact(store, cli._load_store)
    assert (inventory, paradigms) == cli.stage_ingest(split_config(data=str(lex)))
    rows = json.loads(store.read_text(encoding="utf-8"))["paradigms"]
    assert rows[[p.lexeme for p in paradigms].index("rare")] == [
        "rare", *("rareo" if slot == RARE_SLOT else None for slot in inventory)]
    want = cli.corpus.make_split(paradigms, split_config(
        regime=regime, pair_count=300, paradigm_count=40, dev_paradigms=20,
        test_paradigms=20, seed=4), inventory)
    got, _ = cli.read_artifact(split, cli._load_split)
    assert got.inventory == want.inventory == inventory
    assert got.train_pairs.paradigms == want.train_pairs.paradigms
    assert pair_list(got.train_pairs) == pair_list(want.train_pairs)
    assert (got.dev_paradigms, got.test_paradigms) == (want.dev_paradigms, want.test_paradigms)
    for path in (store, split):
        text = path.read_text(encoding="utf-8")
        assert text.count("\n") == 1 and text.endswith("}\n")
        assert ", " not in text and ": " not in text


def staged_and_run(d, lex, flags):
    """Run the staged chain and `run` on one lexicon into `d` and `d/run`,
    every stage reading the one config file that holds the lexicon and the
    settings of `flags`, as the goldens' chain does."""
    cfg = write_config(d / "chain.cfg", flags, data=lex)
    for argv in (["ingest", "--out", d / "store.json"],
                 ["split", "--store", d / "store.json", "--out", d / "split.json"],
                 ["train", "--split", d / "split.json", "--out", d / "model.json"],
                 ["weights", "--split", d / "split.json", "--model", d / "model.json",
                  "--out", d / "weights.json"],
                 ["learn-tree", "--weights", d / "weights.json", "--out", d / "tree.json",
                  "--dot", d / "tree.dot"],
                 ["measure", "--split", d / "split.json", "--model", d / "model.json",
                  "--tree", d / "tree.json", "--out", d / "point.csv"],
                 ["run", "--out-dir", d / "run"]):
        assert main([str(a) for a in argv + ["--config", cfg]]) == 0, argv[0]


@pytest.fixture(scope="module")
def partial_runs(tmp_path_factory):
    """The staged chain and `run` on the partial lexicon, with the same flags."""
    d = tmp_path_factory.mktemp("partial")
    lex = write_partial_lexicon(d / "lex.tsv")
    staged_and_run(d, lex, ["--seed", "3", "--language", "partial"] + SMALL)
    return d


def test_stagewise_pipeline_matches_run(partial_runs):
    d = partial_runs
    split = json.loads((d / "split.json").read_text())
    sampled = set()
    for p in split["train_paradigms"] + split["dev_paradigms"] + split["test_paradigms"]:
        sampled.update(row_entries(split, p))
    assert RARE_SLOT not in sampled   # the fixture's point: no sampled paradigm fills it
    assert (d / "point.csv").read_bytes() == (d / "run" / "point.csv").read_bytes()
    staged = json.loads((d / "tree.json").read_text())
    run = json.loads((d / "run" / "tree.json").read_text())
    for key in ("root", "edges", "score_bits"):
        assert staged[key] == run[key], key
    assert (d / "tree.dot").read_bytes() == (d / "run" / "tree.dot").read_bytes()
    pt = read_point(d / "point.csv")
    assert split["inventory"] == sorted(PARTIAL_SLOTS + [RARE_SLOT])
    assert pt["e_complexity"] == "6" and float(pt["i_total_bits"]) > 0
    assert float(pt["i_per_form_bits"]) * 6 == pytest.approx(float(pt["i_total_bits"]),
                                                             abs=5e-6)


def test_measure_labels_its_point_from_the_split(tmp_path, caplog):
    """`ingest` alone sets language and pos, and `split` copies them beside
    its seed: `measure`, which takes no label flags, writes the point.csv that
    `run` writes with the labels given to it, and the --seed it accepts
    unread changes nothing but a log line."""
    caplog.set_level(logging.INFO)
    lex = tmp_path / "lex.tsv"
    lex.write_text(write_lexicon(tmp_path / "n.tsv").read_text().replace("N;", "V;"),
                   encoding="utf-8")
    d = tmp_path
    flags = ["--seed", "3"] + SMALL
    cfg = ["--config", write_config(d / "small.cfg", flags)]
    for argv in (["ingest", "--data", lex, "--pos", "V", "--language", "verbal",
                  "--out", d / "store.json"],
                 ["split", "--store", d / "store.json", "--out", d / "split.json"] + cfg,
                 ["train", "--split", d / "split.json", "--out", d / "model.json"] + cfg,
                 ["weights", "--split", d / "split.json", "--model", d / "model.json",
                  "--out", d / "weights.json"] + cfg,
                 ["learn-tree", "--weights", d / "weights.json", "--out", d / "tree.json"],
                 ["measure", "--split", d / "split.json", "--model", d / "model.json",
                  "--tree", d / "tree.json", "--seed", "9", "--out", d / "point.csv"],
                 ["measure", "--split", d / "split.json", "--model", d / "model.json",
                  "--tree", d / "tree.json", "--out", d / "unseeded.csv"],
                 ["run", "--data", lex, "--pos", "V", "--language", "verbal",
                  "--out-dir", d / "run"] + flags):
        assert main([str(a) for a in argv]) == 0, argv[0]
    run = (d / "run" / "point.csv").read_bytes()
    assert (d / "point.csv").read_bytes() == run == (d / "unseeded.csv").read_bytes()
    assert caplog.text.count("measure ignores --seed") == 1
    pt = read_point(d / "point.csv")
    assert (pt["language"], pt["pos"], pt["seed"]) == ("verbal", "V", "3")


@settings(max_examples=15, deadline=None)
@given(n_slots=st.integers(2, 5), n_lexemes=st.integers(14, 40),
       fill=st.sampled_from([0.5, 0.8, 1.0]), regime=st.sampled_from(["purple", "green"]),
       seed=st.integers(0, 2 ** 16))
def test_staged_chain_equals_run(n_slots, n_lexemes, fill, regime, seed):
    """On random small partial lexicons the staged chain, whose one dev pass
    is `train`'s and whose `weights` writes the matrix `train` kept, gives
    the point and tree that `run` gives from its one dev pass; `measure`,
    given no --regime, labels a green point green."""
    rng = random.Random(seed)
    slots = ["N;C%d" % i for i in range(n_slots)]
    classes = [[rng.choice(["", "a", "en", "s", "ib"]) for _ in slots] for _ in range(3)]
    lines = []
    for i in range(n_lexemes):
        stem = "".join(rng.choice("abcd") for _ in range(rng.randint(2, 5)))
        suffix = rng.choice(classes)
        kept = [k for k in range(n_slots) if rng.random() < fill]
        kept = kept if len(kept) >= 2 else rng.sample(range(n_slots), 2)
        lines += ["lx%d\t%s\t%s" % (i, stem + suffix[k], slots[k]) for k in kept]
    flags = ["--seed", seed, "--regime", regime, "--paradigm-count", "30",
             "--pair-count", "120", "--dev-paradigms", "5", "--test-paradigms", "5",
             "--order", "2"]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        lex = d / "lex.tsv"
        lex.write_text("\n".join(lines) + "\n", encoding="utf-8")
        staged_and_run(d, lex, flags)
        assert (d / "point.csv").read_bytes() == (d / "run" / "point.csv").read_bytes()
        staged = json.loads((d / "tree.json").read_text())
        run = json.loads((d / "run" / "tree.json").read_text())
        for key in ("root", "edges", "score_bits"):
            assert staged[key] == run[key], key
        assert (d / "tree.dot").read_bytes() == (d / "run" / "tree.dot").read_bytes()


@pytest.mark.parametrize("argv, code", [
    ("split --store {missing} --out {tmp}/o.json --seed 0", 3),
    ("split --store {garbage} --out {tmp}/o.json --seed 0", 2),
    ("train --split {no_inventory} --out {tmp}/o.json", 2),
    ("train --split {pair_list} --out {tmp}/o.json", 2),
    ("train --split {foreign_cell} --out {tmp}/o.json", 2),
    ("train --split {self_cell} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {missing} --out {tmp}/o.json --seed 0", 3),
    ("learn-tree --weights {garbage} --out {tmp}/o.json", 2),
    ("measure --split {d}/split.json --model {d}/model.json --tree {missing} "
     "--out {tmp}/o.csv", 3),
    ("measure --split {d}/split.json --model {d}/model.json --tree {foreign_tree} "
     "--out {tmp}/o.csv", 2),
    ("run --synth {missing} --seed 0 --out-dir {tmp}", 3),
    ("run --data {missing} --synth {synth} --seed 0 --out-dir {tmp}", 2),
    ("run --data {d}/lex.tsv --scores {garbage} --seed 3 --out-dir {tmp} " + " ".join(SMALL), 2),
    ("ingest", 3),
    ("learn-tree --weights {short_edge} --out {tmp}/o.json", 2),
    ("learn-tree --weights {short_root} --out {tmp}/o.json", 2),
    ("learn-tree --weights {nan_weight} --out {tmp}/o.json", 2),
    ("learn-tree --weights {bool_weight} --out {tmp}/o.json", 2),
    ("run --data {d}/lex.tsv --scores {nan_scores} --seed 3 --out-dir {tmp} " + " ".join(SMALL),
     2),
    ("pareto --points {no_points} --seed 0 --out-dir {tmp}", 3),
    ("pareto --points {zero_x} --seed 0 --out-dir {tmp}", 2),
    ("pareto --points {negative_y} --seed 0 --out-dir {tmp}", 2),
    ("pareto --points {nan_y} --seed 0 --out-dir {tmp}", 2),
    ("pareto --points {slash_pos} --seed 0 --out-dir {tmp}", 2),
    ("pareto --points {empty_pos} --seed 0 --out-dir {tmp}", 2),
    ("pareto --points {dotdot_pos} --seed 0 --out-dir {tmp}", 2),
    ("pareto --points {nul_pos} --seed 0 --out-dir {tmp}", 2),
    ("split --store {int_form_store} --out {tmp}/o.json --seed 0", 2),
    ("train --split {int_form_train} --out {tmp}/o.json", 2),
    ("weights --split {int_lexeme_dev} --model {d}/model.json --out {tmp}/o.json --seed 0", 2),
    ("measure --split {int_slot_test} --model {d}/model.json --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    ("train --split {d}/split.json --out {tmp}/o.json --lambda-grid 1.0,0.5", 2),
    ("train --split {d}/split.json --out {tmp}/o.json --lambda-grid -0.2", 2),
    ("train --split {d}/split.json --out {tmp}/o.json --lambda-grid 0.5,,0.2", 2),
    ("train --split {d}/split.json --out {tmp}/o.json --config {empty_grid}", 2),
    ("train --split {d}/split.json --out {tmp}/o.json --lambda-grid abc", 2),
    ("run --data {d}/lex.tsv --seed 3 --out-dir {tmp} --lambda-grid 0 " + " ".join(SMALL), 2),
    ("weights --split {d}/split.json --model {lambda_big} --out {tmp}/o.json --seed 0", 2),
    ("weights --split {d}/split.json --model {lambda_zero} --out {tmp}/o.json --seed 0", 2),
    ("weights --split {d}/split.json --model {lambda_one} --out {tmp}/o.json --seed 0", 2),
    ("weights --split {d}/split.json --model {lambda_str} --out {tmp}/o.json --seed 0", 2),
    ("measure --split {d}/split.json --model {neg_alpha} --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    ("measure --split {d}/split.json --model {char_order_0} --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    # no char model whose counts could be checked against the order and
    # alpha, and a dev digest that `weights` would reuse
    ("weights --split {d}/split.json --model {no_chars_order_0} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {no_chars_neg_alpha} --out {tmp}/o.json", 2),
    ("measure --split {d}/split.json --model {no_chars_order_0} --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    ("measure --split {d}/split.json --model {no_chars_neg_alpha} --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    ("learn-tree --weights {dup_slot} --out {tmp}/o.json", 2),
    ("learn-tree --weights {int_slots} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {format_1} --out {tmp}/o.json --seed 0", 2),
    ("weights --split {d}/split.json --model {format_2} --out {tmp}/o.json --seed 0", 2),
    ("weights --split {d}/split.json --model {dev_weights_short} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {dev_weights_nan} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {dev_weights_bool} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {dev_digest_int} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {dev_weights_renamed} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {long_history} --out {tmp}/o.json --seed 0", 2),
    ("weights --split {d}/split.json --model {foreign_symbol} --out {tmp}/o.json --seed 0", 2),
    ("split --store {d}/store.json --out {tmp}/o.json --seed 0 --dev-paradigms -3", 2),
    ("split --store {d}/store.json --out {tmp}/o.json --seed 0 --test-paradigms -1", 2),
    ("split --store {d}/store.json --out {tmp}/o.json --seed 0 --paradigm-count 0", 2),
    ("split --store {d}/store.json --out {tmp}/o.json --seed 0 --regime green "
     "--pair-count 0", 2),
    ("ingest --synth {synth} --seed 0 --synth-paradigms 0", 2),
    ("critique --trials 0 --seed 0", 2),
    ("run --data {d}/lex.tsv --seed 3 --out-dir {tmp} " + " ".join(SMALL) + " --order 0", 2),
    ("run --data {d}/lex.tsv --seed 3 --out-dir {tmp} --alpha -1 " + " ".join(SMALL), 2),
    ("run --data {d}/lex.tsv --seed 3 --out-dir {tmp} --alpha nan " + " ".join(SMALL), 2),
    ("pareto --seed 0 --n-perm 0 --out-dir {tmp}", 2),
    ("weights --split {d}/split.json --out {tmp}/o.json --seed 0", 2),
    ("weights --split {d}/split.json --model {d}/model.json --scores {nan_scores} "
     "--out {tmp}/o.json --seed 0", 2),
    ("measure --split {d}/split.json --tree {d}/tree.json --out {tmp}/o.csv", 2),
    ("measure --split {d}/split.json --model {d}/model.json --scores {missing} "
     "--tree {d}/tree.json --out {tmp}/o.csv", 2),
    ("weights --split {d}/split.json --scores {partial_scores} --out {tmp}/o.json --seed 0", 2),
    ("measure --split {d}/split.json --scores {partial_scores} --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    ("measure --split {d}/split.json --scores {root_row_with_src} --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    ("weights --split {d}/split.json --scores {root_target_scores} --out {tmp}/o.json "
     "--seed 0", 2),
    ("weights --split {d}/split.json --scores {empty_target_scores} --out {tmp}/o.json "
     "--seed 0", 2),
    ("measure --split {no_labels} --model {d}/model.json --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    ("measure --split {bool_seed} --model {d}/model.json --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    ("split --store {int_language_store} --out {tmp}/o.json --seed 0", 2),
    ("measure --split {d}/split.json --model {root_rule_table} --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    ("split --store {d}/store.json --out {tmp}/o.json --seed 0 --regime bogus "
     "--dev-paradigms 200", 2),
    ("train --split {d}/split.json --out {tmp}/o.json --config {bogus_regime}", 2),
    ("pareto --seed 0 --n-perm 10 --config {bogus_regime} --out-dir {tmp}", 2),
    ("ingest --synth {synth_typo} --seed 0", 2),
    ("ingest --synth {synth_stem_len_one} --seed 0", 2),
    ("ingest --synth {synth_slots_string} --seed 0", 2),
    ("ingest --synth {synth_no_slots} --seed 0", 2),
    ("ingest --synth {synth_no_alphabet} --seed 0", 2),
    ("ingest --synth {synth_root_slot} --seed 0", 2),
    ("ingest --data {root_slot_lexicon} --pos <ROOT>", 2),
    ("ingest --synth {synth_int_suffix} --seed 0", 2),
    ("weights --split {d}/split.json --model {rule_count_neg} --out {tmp}/o.json --seed 0", 2),
    ("weights --split {d}/split.json --model {rule_count_str} --out {tmp}/o.json --seed 0", 2),
    ("weights --split {d}/split.json --model {rule_repeated} --out {tmp}/o.json --seed 0", 2),
    ("measure --split {d}/split.json --model {table_repeated} --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    ("split --store {dup_inventory} --out {tmp}/o.json --seed 0", 2),
    ("measure --split {d}/split.json --model {char_counts_list} --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    ("learn-tree --weights {no_slots} --out {tmp}/o.json", 2),
    ("plat --plat {one_slot_plat}", 2),
    ("plat --plat {zero_slot_plat}", 2),
    ("critique --seed 0 --trials 1 --plat {zero_slot_plat}", 2),
    ("plat --plat {dup_slot_plat}", 2),
    ("train --split {no_train} --out {tmp}/o.json", 2),
    ("train --split {no_dev} --out {tmp}/o.json", 2),
    ("weights --split {no_dev} --model {d}/model.json --out {tmp}/o.json --seed 0", 2),
    ("measure --split {no_test} --model {d}/model.json --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    ("weights --split {one_slot_dev} --model {d}/model.json --out {tmp}/o.json --seed 0", 2),
    ("measure --split {empty_test} --model {d}/model.json --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    ("measure --split {d}/split.json --model {alphabet_repeated} --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    ("measure --split {foreign_test_slots} --model {d}/model.json --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    ("train --split {twice_in_train} --out {tmp}/o.json", 2),
    ("train --split {train_and_test} --out {tmp}/o.json", 2),
    ("split --store {foreign_store_slot} --out {tmp}/o.json --seed 0", 2),
    ("split --store {twice_in_store} --out {tmp}/o.json --seed 0", 2),
    ("plat --plat {nan_weight_plat}", 2),
    ("plat --plat {neg_weight_plat}", 2),
    ("learn-tree --weights {d}/weights.json --out {tmp}/no_dir/o.json", 4),
    ("weights --split {d}/split.json --scores {word_logprob_scores} --out {tmp}/o.json", 2),
    ("measure --split {d}/split.json --model {d}/model.json --tree {cyclic_tree} "
     "--out {tmp}/o.csv", 2),
    # a character the model was not trained over, in the kept dev weights'
    # split (its test set) and in another dev set
    ("weights --split {test_only_char} --model {d}/model.json --out {tmp}/o.json --seed 0", 2),
    ("weights --split {dev_only_char} --model {d}/model.json --out {tmp}/o.json --seed 0", 2),
    ("measure --split {test_only_char} --model {d}/model.json --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
    # paradigm rows of the wrong length or with a form neither a string nor
    # null, and paradigms in the old record layout
    ("weights --split {short_row_dev} --model {d}/model.json --out {tmp}/o.json --seed 0", 2),
    ("train --split {long_row_train} --out {tmp}/o.json", 2),
    ("weights --split {bool_form_dev} --model {d}/model.json --out {tmp}/o.json --seed 0", 2),
    ("split --store {old_record_store} --out {tmp}/o.json --seed 0", 2),
    ("train --split {old_record_split} --out {tmp}/o.json", 2),
    # a model.json of format 4 whose slot indices, rule rows or char counts
    # do not fit its slots and alphabet, and one that format 3 wrote
    ("weights --split {d}/split.json --model {rule_index_bool} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {rule_index_range} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {rules_not_triples} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {rule_suffix_int} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {slots_repeated} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {char_index_range} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {char_model_repeated} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {foreign_history} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {seen_repeated} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {seen_unsorted} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {seen_count_missing} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {seen_count_zero} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {seen_count_bool} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {stop_count_neg} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {zero_total} --out {tmp}/o.json", 2),
    ("weights --split {d}/split.json --model {format_3} --out {tmp}/o.json", 2),
    # an n-gram order past MAX_ORDER, from the flag, the config and model.json
    ("train --split {d}/split.json --out {tmp}/o.json --order 10000", 2),
    ("train --split {d}/split.json --out {tmp}/o.json --config {big_order}", 2),
    ("run --data {d}/lex.tsv --seed 3 --out-dir {tmp} " + " ".join(SMALL_SPLIT)
     + " --order 10000", 2),
    ("weights --split {d}/split.json --model {huge_order} --out {tmp}/o.json", 2),
    ("measure --split {d}/split.json --model {no_chars_huge_order} --tree {d}/tree.json "
     "--out {tmp}/o.csv", 2),
])
def test_artifact_input_errors(partial_runs, tmp_path, caplog, monkeypatch, argv, code):
    """A missing input file exits 3; an unparsable one, a tree over other
    slots than the split's inventory or a tree with a cycle, exits 2, as
    does an input that the stage using it rejects, such as an empty train, dev or test set, weights
    over no slot or a plat of one slot; a failed write exits 4; each with
    one ERROR line.  A paradigm row is a list of its lexeme and one form or
    null per inventory slot, lexeme and forms strings, and a record of the
    old {"lexeme", "entries"} layout says to re-run the stage that wrote it.
    A split gives each lexeme once across train, dev and test, and each dev or test
    paradigm fills two slots or more; a plat names a slot or more, and its
    class weights are finite and >= 0.
    Weights must be finite numbers, not booleans, and n x n over distinct
    slots, scores finite numbers and
    given for every mapping the stage reads, a training cell must not map a
    slot to itself, and Pareto points have finite x > 0 and y >= 0 and a POS
    that can name a file, checked before any permutation test runs; a points
    file without points exits 3; a score row of the root context has an
    empty source form, and a score row's target slot is neither empty nor
    <ROOT>.  A store holds its language and pos labels, and a split those
    and its seed, each of the JSON type its writer writes; a split lacking
    one says to re-run split.  A lambda grid, or a saved model's lambda, lies in
    (0, 1); an alpha, configured or saved, is finite and > 0 and an order
    an integer in [1, 32], whatever char models a saved model holds, its
    alphabet distinct characters and its format the current one (an older
    one says to re-run train), whose dev
    weights are n x n finite numbers, not booleans, beside a string digest,
    and are over the split's inventory when the digest is its dev set's;
    a model scores only a split whose characters are all in its alphabet,
    checked before `weights` reuses its dev weights or runs the dev pass.
    A saved model's slots are distinct names other than the root's, and its
    tables and char models give each slot as a non-boolean index into them;
    each char model's counts are an object of {history: [stop count >= 0,
    symbols seen, count > 0 per symbol]}, of histories of at most order - 1
    alphabet characters, the seen symbols distinct and in alphabet order,
    with a positive total, each slot's given once; a table's rules are
    (src suffix, tgt suffix, count > 0) triples in one flat list, each rule
    given once in a table given once.
    An inventory, a plat header and the weights repeat no slot and name
    none <ROOT>, the root context, and weight slots are strings.
    Config values, the regime among them, are checked before any stage runs;
    a generator config has only SyntheticSystem's keys, its slots are one
    or more distinct strings other than <ROOT>, its suffixes strings, its stem alphabet a
    non-empty string and its stem lengths two integers 0 <= lo <= hi;
    `weights` and `measure` take exactly one scorer, --model or --scores,
    and `ingest` and `run` exactly one input, --data or --synth."""
    garbage = tmp_path / "garbage"
    garbage.write_text("not json {\n", encoding="utf-8")
    files = {
        "short_edge": {"slots": ["A", "B"], "edge": [[0.0]], "root": [-1.0, -2.0]},
        "short_root": {"slots": ["A", "B"], "edge": [[0.0, -1.0], [-1.0, 0.0]], "root": [-1.0]},
        "nan_weight": {"slots": ["A", "B"], "edge": [[0.0, float("nan")], [-1.0, 0.0]],
                       "root": [-1.0, -2.0]},
        "dup_slot": {"slots": ["A", "A"], "edge": [[0.0, -1.0], [-1.0, 0.0]],
                     "root": [-1.0, -2.0]},
        "no_slots": {"slots": [], "edge": [], "root": []},
        "int_slots": {"slots": [1, 2], "edge": [[0, -1], [-2, 0]], "root": [-1, -3]},
        "bool_weight": {"slots": ["A", "B"], "edge": [[0.0, True], [False, 0.0]],
                        "root": [True, -1.0]},
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    (tmp_path / "nan_scores").write_text("a\tS\tT\tb\tnan\n", encoding="utf-8")
    (tmp_path / "partial_scores").write_text("a\tS\tT\tb\t-1.0\n", encoding="utf-8")
    (tmp_path / "root_row_with_src").write_text("walk\t<ROOT>\tV;PST\twalked\t-3.5\n",
                                                encoding="utf-8")
    texts = {"one_slot_plat": "class\tS1\nc1\ta\nc2\tb\n",
             "zero_slot_plat": "class\nc1\nc2\n",
             "dup_slot_plat": "class\tA\tA\tB\nc1\tx\tx\tz\nc2\ty\ty\tz\n",
             "nan_weight_plat": "class\tweight\tS1\tS2\nc1\tnan\ta\tb\nc2\t0.5\ta\tc\n",
             "neg_weight_plat": "class\tweight\tS1\tS2\nc1\t1.5\ta\tb\nc2\t-0.5\ta\tc\n",
             "root_slot_lexicon": "walk\twalked\t<ROOT>\nwalk\twalks\t<ROOT>;3SG\n",
             "big_order": "order = 10000\n",
             "root_target_scores": "a\tS\t<ROOT>\tx\t-1.0\n",
             "empty_target_scores": "\t\t\tx\t-2.0\n",
             # a header comment and a blank line are skipped, so line 3 is named
             "word_logprob_scores": "# src\tsrc_slot\ttgt_slot\ttgt\tlog2prob\n\n"
                                    "a\tS\tT\tb\tlow\n"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    header = "language,pos,regime,e_complexity,i_total_bits,i_per_form_bits,d,seed\n"
    (tmp_path / "no_points").write_text(header, encoding="utf-8")
    bad_points = {"zero_x": ("0", "1.0"), "negative_y": ("4", "-0.5"), "nan_y": ("4", "nan")}
    for name, bad in bad_points.items():
        points = [("2", "1.0"), ("3", "0.5"), ("5", "0.2"), bad]
        (tmp_path / name).write_text(header + "".join(
            "x,N,green,%s,1.0,%s,50,0\n" % p for p in points), encoding="utf-8")
    # a POS that cannot name its SVG file, after a POS with enough points:
    # rejected before any permutation test runs
    bad_pos = {"slash_pos": "N/x", "empty_pos": "", "dotdot_pos": "..", "nul_pos": "N\0"}
    for name, pos in bad_pos.items():
        rows = ["x,N,green,%d,1.0,0.5,50,0\n" % i for i in (2, 3, 5)]
        rows += ["x,%s,green,%d,1.0,0.5,50,0\n" % (pos, i) for i in (2, 3, 5)]
        (tmp_path / name).write_text(header + "".join(rows), encoding="utf-8")
    split = json.loads((partial_runs / "split.json").read_text())
    (tmp_path / "no_inventory.json").write_text(json.dumps(
        {k: v for k, v in split.items() if k != "inventory"}), encoding="utf-8")
    # the old layout: every training pair written out, no training paradigms
    pair_list = {k: v for k, v in split.items() if not k.startswith("train_")}
    pair_list["train_pairs"] = [{"lexeme": "x", "src": "", "src_slot": None, "tgt": "xo",
                                 "tgt_slot": PARTIAL_SLOTS[0]}]
    (tmp_path / "pair_list.json").write_text(json.dumps(pair_list), encoding="utf-8")
    # a green cell from a slot its paradigm does not fill
    lexeme = split["train_paradigms"][0][0]
    foreign_cell = dict(split, train_cells=[[lexeme, RARE_SLOT, PARTIAL_SLOTS[1]]])
    (tmp_path / "foreign_cell.json").write_text(json.dumps(foreign_cell), encoding="utf-8")
    # a green cell from a slot to itself
    slot = min(row_entries(split, split["train_paradigms"][0]))
    self_cell = dict(split, train_cells=[[lexeme, slot, slot]])
    (tmp_path / "self_cell.json").write_text(json.dumps(self_cell), encoding="utf-8")
    # a tree over the five filled slots only, as the old staged chain learned it
    tree = {"root": PARTIAL_SLOTS[0], "edges": {s: PARTIAL_SLOTS[0] for s in PARTIAL_SLOTS[1:]}}
    (tmp_path / "foreign_tree.json").write_text(json.dumps(tree), encoding="utf-8")
    # a tree over the inventory whose second and third slots are each other's parent
    slots = split["inventory"]
    tree = {"root": slots[0], "edges": dict({s: slots[0] for s in slots[3:]},
                                            **{slots[1]: slots[2], slots[2]: slots[1]})}
    (tmp_path / "cyclic_tree.json").write_text(json.dumps(tree), encoding="utf-8")
    # paradigm rows whose lexeme or form is not a string, the form here an
    # int or an old record's [slot, form] pair
    store = json.loads((partial_runs / "store.json").read_text())
    assert store["inventory"] == split["inventory"]

    def row(lexeme, *forms):
        return [lexeme, *forms] + [None] * (len(split["inventory"]) - len(forms))
    train, dev, test = (split[k] for k in ("train_paradigms", "dev_paradigms", "test_paradigms"))
    bad_records = {
        "int_form_store": dict(store, paradigms=[row("x", 5)]),
        "int_form_train": dict(split, train_paradigms=[row("x", 5)], train_cells=None),
        "int_lexeme_dev": dict(split, dev_paradigms=[row(7, "a", "a")]),
        "int_slot_test": dict(split, test_paradigms=[row("x", [1, "a"], "a")]),
        "bool_form_dev": dict(split, dev_paradigms=[[dev[0][0], False, *dev[0][2:]], *dev[1:]]),
        # a row one item short (its last slot's) or one long (a trailing null)
        "short_row_dev": dict(split, dev_paradigms=[dev[0][:-1], *dev[1:]]),
        "long_row_train": dict(split, train_paradigms=[train[0] + [None], *train[1:]]),
        # every paradigm as a {"lexeme", "entries"} record, the old layout
        "old_record_store": dict(store, paradigms=[
            {"lexeme": p[0], "entries": row_entries(store, p)} for p in store["paradigms"]]),
        "old_record_split": dict(split, **{k: [{"lexeme": p[0], "entries": row_entries(split, p)}
                                               for p in split[k]]
                                           for k in ("train_paradigms", "dev_paradigms",
                                                     "test_paradigms")}),
        # the point labels a split copies from its store, and its own seed
        "no_labels": {k: v for k, v in split.items() if k not in ("language", "pos", "seed")},
        "bool_seed": dict(split, seed=True),
        "int_language_store": dict(store, language=7),
    }
    synth = json.loads(cli.bundled("synth_two_class.json").read_text(encoding="utf-8"))
    bad_records.update(synth_stem_len_one=dict(synth, stem_len=[9]),
                       synth_slots_string=dict(synth, slots="ABCD"),
                       synth_no_slots=dict(synth, slots=[], class_probs=[1.0],
                                           suffix_table=[[]]),
                       synth_no_alphabet=dict(synth, stem_alphabet=""),
                       synth_root_slot=dict(synth, slots=["<ROOT>"] + synth["slots"][1:]),
                       synth_int_suffix=dict(synth, suffix_table=[[1, 2, 3, 4], [1, 2, 3, 5]]))
    synth["stem_lenght"] = synth.pop("stem_len")
    bad_records["synth_typo"] = synth
    bad_records["dup_inventory"] = dict(store, inventory=store["inventory"] * 2)
    # empty sets, forms of a slot past the inventory (a row one item long),
    # lexemes given twice and a character, q, outside the model's alphabet
    # in every form of one paradigm

    def with_q(paradigms):
        (lexeme, *forms), *rest = paradigms
        return [[lexeme, *(f if f is None else f + "q" for f in forms)], *rest]
    bad_records.update(
        no_train=dict(split, train_paradigms=[], train_cells=None),
        no_dev=dict(split, dev_paradigms=[]), no_test=dict(split, test_paradigms=[]),
        one_slot_dev=dict(split, dev_paradigms=dev + [row("zz", "zz")]),
        empty_test=dict(split, test_paradigms=test + [row("zz%d" % i) for i in range(20)]),
        foreign_test_slots=dict(split, test_paradigms=[p + ["x"] for p in test]),
        twice_in_train=dict(split, train_paradigms=train + train[:1]),
        train_and_test=dict(split, test_paradigms=test + train[:1]),
        dev_only_char=dict(split, dev_paradigms=with_q(dev)),
        test_only_char=dict(split, test_paradigms=with_q(test)),
        foreign_store_slot=dict(store, paradigms=store["paradigms"] + [row("zz", "x") + ["x"]]),
        twice_in_store=dict(store, paradigms=store["paradigms"] * 2))
    model = json.loads((partial_runs / "model.json").read_text())
    slots, tables, chars = model["slots"], model["rule_tables"], model["char_models"]
    src, tgt, flat = tables[0]

    def with_tables(first, *more):
        return dict(model, rule_tables=[first, *tables[1:], *more])
    for name, count in {"rule_count_neg": -1, "rule_count_str": "1"}.items():
        bad_records[name] = with_tables([src, tgt, flat[:2] + [count] + flat[3:]])
    # a rule given twice, the second time with another count
    bad_records["rule_repeated"] = with_tables([src, tgt, flat + flat[:2] + [flat[2] + 5]])
    bad_records["table_repeated"] = with_tables(tables[0], [src, tgt, flat[:2] + [flat[2] + 5]])
    # a table conditioning on the root context, which training never writes
    bad_records["root_rule_table"] = dict(with_tables(tables[0], [len(slots), tgt, flat[:3]]),
                                          slots=slots + ["<ROOT>"])
    bad_records.update(
        # every source index 1 a boolean, a slot index past the slots
        rule_index_bool=dict(model, rule_tables=[[True if s == 1 else s, t, f]
                                                 for s, t, f in tables]),
        rule_index_range=with_tables([src, len(slots), flat]),
        rules_not_triples=with_tables([src, tgt, flat[:-1]]),
        rule_suffix_int=with_tables([src, tgt, [5] + flat[1:]]),
        slots_repeated=dict(model, slots=slots + slots[:1]),
        char_index_range=dict(model, char_models=[[len(slots), chars[0][1]], *chars[1:]]),
        char_model_repeated=dict(model, char_models=chars + chars[:1]))
    # the same model as format 3 wrote it: slot names in each table and by
    # char model, rules as triples, histories padded with <S>, counts by symbol
    pad = ["<S>"] * (model["order"] - 1)
    format_3 = dict(model, version=3, rule_tables=[
        [slots[s], slots[t], [f[i:i + 3] for i in range(0, len(f), 3)]] for s, t, f in tables
    ], char_models={slots[i]: [
        [pad[len(h):] + list(h),
         dict(zip(row[1], row[2:]), **({"</S>": row[0]} if row[0] else {}))]
        for h, row in sorted(c.items())] for i, c in chars})
    del format_3["slots"]
    # the first char model's counts with a history changed or added; the one
    # with the most symbols seen has at least two, so their order can break
    slot, counts = chars[0]
    hist, (stop, seen, *seen_counts) = max(counts.items(), key=lambda item: len(item[1][1]))
    assert len(seen) >= 2
    bad_counts = {
        "long_history": {h + model["alphabet"][0] * model["order"]: row
                         for h, row in counts.items()},
        "foreign_history": {**counts, "☃": [1, ""]},
        "foreign_symbol": {**counts, hist: [stop, seen + "☃", *seen_counts, 1]},
        "seen_repeated": {**counts, hist: [stop, seen[0] + seen, seen_counts[0], *seen_counts]},
        "seen_unsorted": {**counts, hist: [stop, seen[::-1], *seen_counts[::-1]]},
        "seen_count_missing": {**counts, hist: [stop, seen, *seen_counts[1:]]},
        "seen_count_zero": {**counts, hist: [stop, seen, 0, *seen_counts[1:]]},
        "seen_count_bool": {**counts, hist: [stop, seen, True, *seen_counts[1:]]},
        "stop_count_neg": {**counts, hist: [-1, seen, *seen_counts]},
        "zero_total": {**counts, hist: [0, ""]},
        # the format-3 layout of the counts: a list of [history, counts] pairs
        "char_counts_list": format_3["char_models"][slots[slot]],
    }
    bad_records.update({name: dict(model, char_models=[[slot, v], *chars[1:]])
                        for name, v in bad_counts.items()})
    bad_lambdas = {"lambda_big": 1.5, "lambda_zero": 0.0, "lambda_one": 1.0, "lambda_str": "x"}
    dev = model["dev_weights"]
    bad_dev = {"dev_weights_short": dict(dev, root=dev["root"][1:]),
               "dev_weights_nan": dict(dev, edge=[[float("nan")] + dev["edge"][0][1:]]
                                       + dev["edge"][1:]),
               "dev_weights_bool": dict(dev, root=[True] + dev["root"][1:]),
               "dev_digest_int": dict(dev, dev_sha256=7),
               # the digest of the split's dev set over slots of another name
               "dev_weights_renamed": dict(dev, slots=[s + "x" for s in dev["slots"]])}
    bad_records.update({name: dict(model, dev_weights=v) for name, v in bad_dev.items()},
                       format_2={k: v for k, v in dict(model, version=2).items()
                                 if k != "dev_weights"})
    bad_records.update({name: dict(model, **{"lambda": v}) for name, v in bad_lambdas.items()},
                       neg_alpha=dict(model, alpha=-0.1), char_order_0=dict(model, order=0),
                       no_chars_order_0=dict(model, char_models=[], order=0),
                       no_chars_neg_alpha=dict(model, char_models=[], alpha=-1),
                       # an order past MAX_ORDER
                       huge_order=dict(model, order=10 ** 4),
                       no_chars_huge_order=dict(model, char_models=[], order=10 ** 4),
                       format_1=dict(model, version=1), format_3=format_3,
                       alphabet_repeated=dict(model, alphabet=model["alphabet"] * 2))
    for name, obj in bad_records.items():
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    (tmp_path / "empty_grid").write_text("lambda_grid =\n", encoding="utf-8")
    # a config file may set keys that a stage does not read, and they are checked
    (tmp_path / "bogus_regime").write_text("regime = bogus\n", encoding="utf-8")
    paths = {"d": partial_runs, "tmp": tmp_path, "missing": tmp_path / "nope.json",
             "garbage": garbage, "no_inventory": tmp_path / "no_inventory.json",
             "pair_list": tmp_path / "pair_list.json",
             "foreign_cell": tmp_path / "foreign_cell.json",
             "self_cell": tmp_path / "self_cell.json",
             "foreign_tree": tmp_path / "foreign_tree.json",
             "cyclic_tree": tmp_path / "cyclic_tree.json",
             "synth": cli.bundled("synth_two_class.json"),
             **{name: tmp_path / name
                for name in [*files, "nan_scores", "partial_scores", "root_row_with_src",
                             "no_points", "empty_grid", "bogus_regime", *texts, *bad_points,
                             *bad_pos, *bad_records]}}
    if argv.startswith("pareto"):
        monkeypatch.setattr(cli.stats, "perm_test", None)   # must not be reached
    if "only_char" in argv:
        monkeypatch.setattr(cli.structure, "compute_weights", None)   # must not be reached
    assert main(argv.format(**paths).split()) == code
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and errors[0].exc_info is None
    if argv.startswith("pareto"):   # a failed call leaves no report behind
        assert not (tmp_path / "pareto_report.json").exists()
    if ("no_inventory" in argv or "pair_list" in argv or "no_labels" in argv
            or "old_record_split" in argv):
        assert "re-run split" in errors[0].getMessage()
    if "old_record_store" in argv:
        assert "re-run ingest" in errors[0].getMessage()
    if "10000" in argv or "big_order" in argv or "huge_order" in argv:
        assert "is not an int in [1, 32]" in errors[0].getMessage()
    if ("format_" in argv or "dev_digest" in argv or "dev_weights_renamed" in argv
            or "only_char" in argv):
        assert "re-run train" in errors[0].getMessage()
    if "root_row_with_src" in argv:
        assert "line 1: a root row has an empty source form" in errors[0].getMessage()
    if "target_scores" in argv:
        assert "line 1: the target slot is empty or <ROOT>" in errors[0].getMessage()
    if "word_logprob_scores" in argv:
        assert "line 3: bad log2prob 'low'" in errors[0].getMessage()
    if "cyclic_tree" in argv:
        assert "tree has a cycle through" in errors[0].getMessage()
    if "--data" in argv and "--synth" in argv:
        assert errors[0].getMessage() == "give exactly one input: --data or --synth"


def test_one_exception_type_per_exit_code():
    """`main` picks the exit code of an input fault by type: ValueError gives
    2 and its one subclass, corpus.InsufficientDataError, gives 3.  So no
    other class of the package derives from an exception type."""
    def is_exception(name):
        base = getattr(builtins, name, None)
        return (isinstance(base, type) and issubclass(base, BaseException)
                or name.endswith(("Error", "Exception")))
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    is_exception(ast.unparse(b).rsplit(".", 1)[-1]) for b in node.bases):
                found.append("%s.%s" % (path.stem, node.name))
    assert found == ["corpus.InsufficientDataError"]


def test_package_imports_only_the_standard_library():
    """Every absolute import of a package module names a standard-library
    module or the package itself: the package runs on bare Python."""
    foreign = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += ["%s: %s" % (path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"morphcomplexity"}]
    assert foreign == []


def test_one_door_for_every_input():
    """`cli.read_artifact` is the one place in the package that opens a file
    path for reading, and `corpus.data_lines` the one that tests a line for
    a '#' comment: every input is read as the same text, and every line
    format skips the same lines.  Writes are no input, and neither are the
    pipe ends (file descriptors of `os.pipe`) that `open` wraps."""
    reads, comments = [], []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner, pipes = {}, set()
        for func in ast.walk(tree):   # outer functions first, so the inner one wins
            if isinstance(func, ast.FunctionDef):
                owner.update((node, "%s.%s" % (path.stem, func.name)) for node in ast.walk(func))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and ast.unparse(node.value.func) == "os.pipe"):
                pipes.update((owner.get(node), ast.unparse(name))
                             for name in ast.walk(node.targets[0]) if isinstance(name, ast.Name))
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = ast.unparse(call.func).rsplit(".", 1)[-1]
            where = owner.get(call, path.stem)
            if name == "open":
                # open(file, mode) or a path's .open(mode)
                args = call.args[1:] if isinstance(call.func, ast.Name) else call.args
                mode = [k.value for k in call.keywords if k.arg == "mode"] + args[:1]
                writes = mode and isinstance(mode[0], ast.Constant) and any(
                    c in str(mode[0].value) for c in "wax")
                pipe = call.args and (where, ast.unparse(call.args[0])) in pipes
                if not (writes or pipe):
                    reads.append((where, ast.unparse(call)))
            elif name in ("read_text", "read_bytes"):
                reads.append((where, ast.unparse(call)))
            elif (name == "startswith" and call.args and isinstance(call.args[0], ast.Constant)
                  and "#" in str(call.args[0].value)):
                comments.append(where)
    assert [where for where, _ in reads] == ["cli.read_artifact"], reads
    assert comments == ["corpus.data_lines"]


TRUNCATED = {
    "store.json": "split --store {cut} --out {tmp}/o.json --seed 0",
    "split.json": "train --split {cut} --out {tmp}/o.json",
    "model.json": "weights --split {d}/split.json --model {cut} --out {tmp}/o.json --seed 0",
    "weights.json": "learn-tree --weights {cut} --out {tmp}/o.json",
    "tree.json": "measure --split {d}/split.json --model {d}/model.json --tree {cut} "
                 "--out {tmp}/o.csv",
}


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_truncated_artifact_exit_2(partial_runs, tmp_path, caplog, data):
    """Any strict prefix of an artifact that drops its closing brace is
    rejected by the subcommand that reads it: exit 2, one ERROR line, no
    traceback."""
    name = data.draw(st.sampled_from(sorted(TRUNCATED)))
    blob = (partial_runs / name).read_bytes()
    cut = tmp_path / ("cut-" + name)
    cut.write_bytes(blob[:data.draw(st.integers(0, blob.rindex(b"}")))])
    caplog.clear()
    assert main(TRUNCATED[name].format(d=partial_runs, tmp=tmp_path, cut=cut).split()) == 2
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and errors[0].exc_info is None


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_byte_flipped_artifact_exit_0_2_or_3(partial_runs, tmp_path, caplog, data):
    """An artifact with any one byte replaced by another is read by the
    subcommand that consumes it without an internal failure: exit 0, 2 or 3,
    no traceback and at most one ERROR line."""
    name = data.draw(st.sampled_from(sorted(TRUNCATED)))
    blob = bytearray((partial_runs / name).read_bytes())
    at = data.draw(st.integers(0, len(blob) - 1))
    blob[at] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]))
    flipped = tmp_path / ("flipped-" + name)
    flipped.write_bytes(blob)
    caplog.clear()
    argv = TRUNCATED[name].format(d=partial_runs, tmp=tmp_path, cut=flipped).split()
    assert main(argv) in (0, 2, 3)
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) <= 1 and all(r.exc_info is None for r in caplog.records)


# top-level keys that record where an artifact came from; no reader uses
# them, but for the point labels of a store and a split and the seed of the
# weights (LABELS_READ)
PROVENANCE = {"config_hash", "seed", "language", "pos", "regime", "score_bits"}
LABELS_READ = {"store.json": {"language", "pos"}, "split.json": {"language", "pos", "seed"},
               "weights.json": {"seed"}}
JSON_VALUES = {"object": {}, "array": [], "string": "x", "number": 1, "boolean": True,
               "null": None}


def json_type(value):
    if isinstance(value, bool):
        return "boolean"
    return {dict: "object", list: "array", str: "string", int: "number", float: "number",
            type(None): "null"}[type(value)]


def test_swapped_json_type_exit_2_or_3(partial_runs, tmp_path, caplog):
    """Each artifact's top level, and each of its top-level keys, swapped for
    a value of every JSON type its reader does not take, is rejected by the
    subcommand that consumes it: exit 2 or 3, one ERROR line, no traceback.
    A provenance key may hold anything, as no reader uses it: exit 0.  The
    point labels that `split` copies from the store, and `measure` reads from
    the split, are no provenance there, nor is the seed that `learn-tree`
    copies from the weights."""
    failures = []
    for name, argv in sorted(TRUNCATED.items()):
        obj = json.loads((partial_runs / name).read_text())
        swaps = [(None, v) for t, v in JSON_VALUES.items() if t != "object"]
        for key, value in sorted(obj.items()):
            takes = {"null", "array"} if key == "train_cells" else {json_type(value)}
            swaps += [(key, v) for t, v in JSON_VALUES.items() if t not in takes]
        for key, value in swaps:
            swapped = tmp_path / ("swapped-" + name)
            swapped.write_text(json.dumps(value if key is None else dict(obj, **{key: value})),
                               encoding="utf-8")
            caplog.clear()
            code = main(TRUNCATED[name].format(d=partial_runs, tmp=tmp_path, cut=swapped).split())
            errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
            unused = key in PROVENANCE - LABELS_READ.get(name, set())
            if (code not in ((0,) if unused else (2, 3)) or len(errors) != (not unused)
                    or any(r.exc_info for r in caplog.records)):
                failures.append((name, key, value, code))
    assert not failures


def test_external_scores_pipeline(tmp_path, caplog):
    lex = write_lexicon(tmp_path / "lex.tsv", count=120)
    # score table covering every mapping at exactly -1 bit, so the measured
    # i-complexity must come out at 3 bits per paradigm
    lines = []
    # regenerate identical stems from the lexicon writer's RNG stream
    rng = random.Random(0)
    for i in range(120):
        stem = "".join(rng.choice("abcd") for _ in range(rng.randint(3, 5)))
        forms = {slot: stem + SUFFIX[slot] for slot in SLOTS}
        for tgt in SLOTS:
            lines.append("\t\t%s\t%s\t-1.0" % (tgt, forms[tgt]))
            for src in SLOTS:
                if src != tgt:
                    lines.append("%s\t%s\t%s\t%s\t-1.0"
                                 % (forms[src], src, tgt, forms[tgt]))
    scores = tmp_path / "scores.tsv"
    scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"

    def scored_by(table):
        return ["--scores", table]
    flags = ["--seed", "2"] + SMALL
    code = main([str(a) for a in ["run", "--data", lex, "--out-dir", out]
                 + scored_by(scores) + flags])
    assert code == 0
    assert float(read_point(out / "point.csv")["i_total_bits"]) == pytest.approx(3.0, abs=1e-9)
    # the staged chain scores with the same table and gives the same point and tree
    d = tmp_path
    for argv in (["ingest", "--data", lex, "--out", d / "store.json"],
                 ["split", "--store", d / "store.json", "--out", d / "split.json", "--seed", "2"]
                 + SMALL_SPLIT,
                 ["weights", "--split", d / "split.json", "--out", d / "weights.json", "--seed",
                  "2"] + scored_by(scores),
                 ["learn-tree", "--weights", d / "weights.json", "--out", d / "tree.json"],
                 ["measure", "--split", d / "split.json", "--tree", d / "tree.json",
                  "--out", d / "point.csv"] + scored_by(scores)):
        assert main([str(a) for a in argv]) == 0, argv[0]
    assert (d / "point.csv").read_bytes() == (out / "point.csv").read_bytes()
    staged = json.loads((d / "tree.json").read_text())
    run = json.loads((out / "tree.json").read_text())
    for key in ("root", "edges", "score_bits"):
        assert staged[key] == run[key], key
    # measure scores each test target in its one tree context, so the rows
    # the tree reads for the test set give the full table's point
    split = json.loads((d / "split.json").read_text())
    read = set()
    for entries in (row_entries(split, p) for p in split["test_paradigms"]):
        for slot, form in entries.items():
            parent = staged["edges"].get(slot)
            src = (entries[parent], parent) if parent in entries else ("", "")
            read.add("%s\t%s\t%s\t%s\t-1.0" % (*src, slot, form))
    tree_rows = tmp_path / "tree_rows.tsv"
    tree_rows.write_text("\n".join(sorted(read)) + "\n", encoding="utf-8")
    measure = ["measure", "--split", d / "split.json", "--tree", d / "tree.json",
               "--out", d / "tree_rows_point.csv"]
    assert main([str(a) for a in measure + scored_by(tree_rows)]) == 0
    assert (d / "tree_rows_point.csv").read_bytes() == (d / "point.csv").read_bytes()

    def exits_2_naming_a_root_row(argv, rows, slot):
        """Without the root rows of `slot`, argv exits 2 naming one of them."""
        caplog.clear()
        partial = tmp_path / "partial.tsv"
        partial.write_text("\n".join(r for r in rows if not r.startswith("\t\t%s\t" % slot))
                           + "\n", encoding="utf-8")
        assert main([str(a) for a in argv + scored_by(partial)]) == 2
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert "has no score for mapping ('', '<ROOT>', '%s'" % slot in errors[0]

    # a root row that measure reads, the tree root slot's, is still needed
    exits_2_naming_a_root_row(measure, read, staged["root"])
    # the dev pass scores every dev target's root context
    dev_slot = min(row_entries(split, split["dev_paradigms"][0]))
    exits_2_naming_a_root_row(["weights", "--split", d / "split.json", "--seed", "2",
                               "--out", d / "partial_weights.json"], lines, dev_slot)
    exits_2_naming_a_root_row(["run", "--data", lex, "--out-dir", tmp_path / "partial"] + flags,
                              lines, dev_slot)
    # a mapping given twice, once as given and once as a <ROOT> root row, exits 2
    twice = tmp_path / "twice.tsv"
    for extra in (lines[1][:-4] + "-7.0", "\t<ROOT>" + lines[0][1:-4] + "-7.0"):
        twice.write_text("\n".join(lines + [extra]) + "\n", encoding="utf-8")
        argv = ["run", "--data", lex, "--out-dir", out, "--scores", twice, "--seed", "2"]
        assert main([str(a) for a in argv + SMALL]) == 2


# ----------------------------------------------------------- pareto

def count_stroked_paths(svg_text):
    root = ET.fromstring(svg_text)
    ns = "{http://www.w3.org/2000/svg}"
    return sum(1 for el in root.iter(ns + "path") if el.get("fill") == "none")


def test_pareto_bundled_fixture(tmp_path, capsys):
    code = main(["pareto", "--seed", "0", "--n-perm", "2000",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "pareto_report.json").read_text())
    assert set(report["per_pos"]) == {"N", "V"}
    assert report["per_pos"]["V"]["p_value"] < 0.05
    for pos in ("N", "V"):
        svg = (tmp_path / ("pareto_%s.svg" % pos)).read_text()
        assert count_stroked_paths(svg) == 1    # exactly one step curve


def test_pareto_point_csv_input(tmp_path):
    csv_path = tmp_path / "pts.csv"
    rows = ["language,pos,regime,e_complexity,i_total_bits,i_per_form_bits,d,seed"]
    for i in range(5):
        rows.append("l%d,N,green,%d,%f,%f,50,0" % (i, 10 + i, 5.0 - i, (5.0 - i) / (10 + i)))
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code = main(["pareto", "--points", str(csv_path), "--seed", "0",
                 "--n-perm", "500", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "pareto_report.json").read_text())
    assert "p_value" in report["per_pos"]["N"]


def test_pareto_per_pos_failure_others_run(tmp_path):
    csv_path = tmp_path / "pts.csv"
    rows = ["language,pos,regime,e_complexity,i_total_bits,i_per_form_bits,d,seed",
            "a,X,green,5,1.0,0.2,50,0",
            "b,X,green,6,0.9,0.15,50,0"]
    for i in range(4):
        rows.append("l%d,Y,green,%d,1.0,%f,50,0" % (i, 5 + i, 0.5 - 0.1 * i))
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code = main(["pareto", "--points", str(csv_path), "--seed", "0",
                 "--n-perm", "200", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "pareto_report.json").read_text())
    assert "error" in report["per_pos"]["X"]
    assert "p_value" in report["per_pos"]["Y"]


def test_pareto_all_pos_too_small_exit_3(tmp_path):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text(
        "language,pos,regime,e_complexity,i_total_bits,i_per_form_bits,d,seed\n"
        "a,X,green,5,1.0,0.2,50,0\n", encoding="utf-8")
    assert main(["pareto", "--points", str(csv_path), "--seed", "0",
                 "--out-dir", str(tmp_path)]) == 3
    assert not (tmp_path / "pareto_report.json").exists()


def test_pareto_svg_well_formed(tmp_path):
    main(["pareto", "--seed", "0", "--n-perm", "100", "--out-dir", str(tmp_path)])
    for pos in ("N", "V"):
        ET.fromstring((tmp_path / ("pareto_%s.svg" % pos)).read_text())
    # a POS with XML markup characters is escaped in the title
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("language,pos,regime,e_complexity,i_total_bits,i_per_form_bits,d,seed\n"
                        + "".join("l%d,N&<V>,green,%d,1.0,%f,50,0\n" % (i, 5 + i, 0.5 - 0.1 * i)
                                  for i in range(4)), encoding="utf-8")
    assert main(["pareto", "--points", str(csv_path), "--seed", "0", "--n-perm", "10",
                 "--out-dir", str(tmp_path)]) == 0
    title = ET.fromstring((tmp_path / "pareto_N&<V>.svg").read_text()).findall(
        "{http://www.w3.org/2000/svg}text")[-1].text
    assert title.startswith("N&<V> (p = ")


def children_and_fds():
    """(whether this process has a child left, its number of open fds)."""
    try:
        os.waitpid(-1, os.WNOHANG)
        child_left = True
    except ChildProcessError:
        child_left = False
    return child_left, len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("failing", ["child raises", "child killed", "parent raises"])
def test_pareto_permutation_worker_failure(tmp_path, caplog, monkeypatch, failing):
    """A permutation worker that fails, in a forked child or in this process,
    makes perm_test raise and pareto exit 4 with one ERROR line; no child or
    pipe is left behind."""
    count_leq = cli.stats._count_leq

    def failing_count(*args):
        start = args[-2]
        if failing == "parent raises" and start == 0:
            raise RuntimeError("parent range failed")
        if failing == "child raises" and start > 0:
            raise RuntimeError("child range %d failed" % start)
        if failing == "child killed" and start > 0:
            os.kill(os.getpid(), signal.SIGKILL)
        return count_leq(*args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(cli.stats, "_count_leq", failing_count)
    points = [(1.0, 3.0), (2.0, 1.0), (3.0, 2.0), (5.0, 0.5)]
    before = children_and_fds()
    expected = RuntimeError if failing == "parent raises" else ChildProcessError
    with pytest.raises(expected, match="range" if failing != "child killed" else "-9"):
        cli.stats.perm_test(points, n_perm=300, seed=0)
    assert children_and_fds() == before == (False, before[1])
    assert main(["pareto", "--seed", "0", "--n-perm", "300", "--out-dir", str(tmp_path)]) == 4
    assert len([r for r in caplog.records if r.levelno >= logging.ERROR]) == 1
    assert not (tmp_path / "pareto_report.json").exists()
    assert children_and_fds() == before


@pytest.mark.parametrize("failing", ["child lacks a row", "parent and child lack a row",
                                     "child killed", "child raises",
                                     "parent lacks a row, children killed"])
def test_dev_pass_worker_failure(tmp_path, caplog, monkeypatch, failing):
    """The dev pass over three CPUs scores the split's three target slots,
    one per process: the first here and the second and the third in forked
    children.  A score table that lacks a dev mapping makes `weights` exit 2
    naming the first such mapping in (target slot, dev paradigm, source)
    order, whichever process scores it; a child that dies or raises anything
    else makes it exit 4, unless the parent's own range fails first.  There
    is one ERROR line, and no child or pipe is left behind."""
    lex = write_lexicon(tmp_path / "lex.tsv")
    store, split = tmp_path / "store.json", tmp_path / "split.json"
    assert main(["ingest", "--data", str(lex), "--out", str(store)]) == 0
    assert main(["split", "--store", str(store), "--out", str(split), "--seed", "2"]
                + SMALL_SPLIT) == 0
    obj = json.loads(split.read_text())
    inventory = obj["inventory"]
    dev = [pair_list(PairView([p])) for p in cli.corpus.paradigms_from_json(
        obj["dev_paradigms"], inventory, "split")]
    assert len(inventory) == 3 and len(dev) == 20
    # (target slot, dev paradigm) of each dropped mapping: slot 0 is the
    # parent's range, slot 2 the last child's
    lacking = {"child lacks a row": [(2, 15)], "parent and child lack a row": [(2, 3), (0, 15)],
               "parent lacks a row, children killed": [(0, 3)]}.get(failing, [])
    # the target's last mapping in its paradigm, which no other dev paradigm has
    dropped = [[m for m in dev[k] if m[2] == inventory[i]][-1] for i, k in lacking]
    assert all(sum(m in pairs for pairs in dev) == 1 for m in dropped)
    order = {m: (inventory.index(m[2]), k, pos)
             for k, pairs in enumerate(dev) for pos, m in enumerate(pairs)}
    table = tmp_path / "scores.tsv"
    table.write_text("".join("%s\t%s\t%s\t%s\t-1.0\n" % m for pairs in dev
                             for m in pairs if m not in dropped), encoding="utf-8")
    parent, logprob = os.getpid(), strmodel.ScoreTable.logprob

    def failing_logprob(self, *args):
        if os.getpid() != parent and "killed" in failing:
            os.kill(os.getpid(), signal.SIGKILL)
        if os.getpid() != parent and failing == "child raises":
            raise RuntimeError("child range failed")
        return logprob(self, *args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(strmodel.ScoreTable, "logprob", failing_logprob)
    before = children_and_fds()
    code = main(["weights", "--split", str(split), "--scores", str(table), "--seed", "2",
                 "--out", str(tmp_path / "w.json")])
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1
    if lacking:
        first = min(dropped, key=order.get)
        assert code == 2 and "has no score for mapping %r" % (first,) in errors[0]
    else:
        assert code == 4 and ("-9" if "killed" in failing else "child range") in errors[0]
    assert not (tmp_path / "w.json").exists()
    assert children_and_fds() == before == (False, before[1])


def chain_file(name):
    return lambda d: (d / name).read_text(encoding="utf-8")


def bundled_file(name):
    return lambda d: cli.bundled(name).read_text(encoding="utf-8")


def measure_scores(d):
    """A score table of every mapping that `measure` reads of d's split
    under d's tree, at -1 bit, after a comment line and a blank line."""
    split, tree = (json.loads((d / name).read_text()) for name in ("split.json", "tree.json"))
    rows = ["# src\tsrc_slot\ttgt_slot\ttgt\tlog2prob", ""]
    for entries in (row_entries(split, p) for p in split["test_paradigms"]):
        for slot, form in sorted(entries.items()):
            parent = tree["edges"].get(slot)
            src = (entries[parent], parent) if parent in entries else ("", "")
            rows.append("%s\t%s\t%s\t%s\t-1.0" % (*src, slot, form))
    return "\n".join(rows) + "\n"


# each input flag (--model for each of its two readers): the text of its
# file, given the staged chain's directory d, and the command that reads it
# from {f}, writing into {o}
INPUTS = {
    "data": (chain_file("lex.tsv"), "ingest --data {f} --out {o}/store.json"),
    "config": (lambda d: "# the chain's input\n\nlanguage = partial\n  data = %s\n"
               % (d / "lex.tsv"), "ingest --config {f} --out {o}/store.json"),
    "store": (chain_file("store.json"),
              "split --store {f} --out {o}/split.json --seed 3 " + " ".join(SMALL_SPLIT)),
    "split": (chain_file("split.json"), "train --split {f} --out {o}/model.json --order 2"),
    "model": (chain_file("model.json"),
              "weights --split {d}/split.json --model {f} --out {o}/weights.json"),
    "model-measure": (chain_file("model.json"), "measure --split {d}/split.json --model {f} "
                      "--tree {d}/tree.json --out {o}/point.csv"),
    "weights": (chain_file("weights.json"),
                "learn-tree --weights {f} --out {o}/tree.json --dot {o}/tree.dot"),
    "tree": (chain_file("tree.json"), "measure --split {d}/split.json --model {d}/model.json "
             "--tree {f} --out {o}/point.csv"),
    "scores": (measure_scores, "measure --split {d}/split.json --scores {f} "
               "--tree {d}/tree.json --out {o}/point.csv"),
    "points": (bundled_file("table2_green.csv"),
               "pareto --points {f} --n-perm 200 --seed 0 --out-dir {o}"),
    "plat": (bundled_file("greek_plat.tsv"), "plat --plat {f}"),
    "synth": (bundled_file("synth_two_class.json"),
              "ingest --synth {f} --seed 0 --synth-paradigms 50 --out {o}/store.json"),
}


@pytest.mark.parametrize("flag", sorted(INPUTS))
def test_input_with_a_bom_and_crlf_reads_as_without(partial_runs, tmp_path, capsys, flag):
    """Every input file, saved with a UTF-8 byte-order mark and CRLF line
    ends, gives the exit code, the output files and the stdout of the plain
    file: the mark makes no phantom first lexeme or unknown first key, and
    no line keeps a CR."""
    text, argv = INPUTS[flag]
    plain = text(partial_runs)
    assert "\r" not in plain and not plain.startswith("\ufeff")
    f, out = tmp_path / ("input-" + flag), tmp_path / "out"
    results = []
    for data in (plain, "\ufeff" + plain.replace("\n", "\r\n")):
        f.write_bytes(data.encode("utf-8"))
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        code = main(argv.format(d=partial_runs, f=f, o=out).split())
        results.append((code, capsys.readouterr().out,
                        {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
    code, stdout, _ = results[0]
    assert code == 0 and stdout
    assert results[1] == results[0]


# ----------------------------------------------------------- plat and critique

def test_plat_command_greek(capsys):
    code = main(["plat"])
    out = capsys.readouterr().out
    assert code == 0
    assert "plat: 8 classes x 8 slots" in out
    assert "average conditional entropy:" in out
    assert out.count("H(") == 8 * 8 - 8


@pytest.mark.parametrize("flag", ["--critique", "--order 2", "--alpha 0.5"])
def test_plat_takes_no_critique_flags(flag):
    """The critique runs only as `critique`; plat reads no config key."""
    with pytest.raises(SystemExit) as exit_:
        main(["plat"] + flag.split())
    assert exit_.value.code == 2


def test_plat_bad_file_exit_2(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("header only\n", encoding="utf-8")
    assert main(["plat", "--plat", str(bad)]) == 2


def test_critique_command(capsys):
    code = main(["critique", "--trials", "30", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert ">= 0: True" in out
    assert "per-form joint entropy" in out
    assert "(finite)" in out


def test_critique_plat_flag(tmp_path, capsys):
    """critique reads the bundled Greek plat unless --plat names another; a
    malformed one exits 2."""
    argv = ["critique", "--trials", "5", "--seed", "1"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--plat", str(cli.bundled("greek_plat.tsv"))]) == 0
    assert capsys.readouterr().out == default
    bad = tmp_path / "bad.tsv"
    bad.write_text("header only\n", encoding="utf-8")
    assert main(argv + ["--plat", str(bad)]) == 2


def test_plat_with_a_zero_weight_class(tmp_path):
    """A zero-weight class is a valid plat: plat and critique read it."""
    plat = tmp_path / "plat.tsv"
    plat.write_text("class\tweight\tS1\tS2\nc1\t0\ta\tb\nc2\t1\tc\td\n", encoding="utf-8")
    assert main(["plat", "--plat", str(plat)]) == 0
    assert main(["critique", "--trials", "5", "--seed", "1", "--plat", str(plat)]) == 0


# ----------------------------------------------------------- bundled fixtures

def test_all_fixtures_bundled():
    for name in ("table2_green.csv", "greek_plat.tsv", "toy_lexicon.tsv",
                 "synth_two_class.json", "synth_one_class.json",
                 "synth_deterministic.json"):
        assert cli.bundled(name).is_file(), name


# ----------------------------------------------------------- hash seeds

@pytest.mark.parametrize("regime", ["purple", "green"])
def test_run_does_not_depend_on_hash_seed(tmp_path, regime):
    """`run` on the golden lexicon writes byte-identical point.csv, tree.json
    and manifest.json under two string hash seeds.  Both runs read the same
    config, --data and --out-dir included, so the config hash is the same."""
    write_inputs(tmp_path, regime)
    src = str(Path(morphcomplexity.__file__).parents[1])
    made = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "morphcomplexity.cli", "run", "--config",
                        "golden.cfg"], cwd=tmp_path, env=env, check=True, capture_output=True,
                       timeout=300)
        made.append({name: (tmp_path / "run" / name).read_bytes()
                     for name in ("point.csv", "tree.json", "manifest.json")})
    assert made[0] == made[1]


@pytest.mark.parametrize("regime", ["purple", "green"])
def test_run_does_not_depend_on_cpu_count(tmp_path, monkeypatch, regime):
    """`run` on the golden lexicon writes byte-identical point.csv, tree.json
    and manifest.json on one CPU and on three, where its dev pass forks two
    children.  Both runs write to the one --out-dir, whose path the config
    hash covers, and the bytes are read in between."""
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path, regime)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    made = []
    for cpus in ({0}, {0, 1, 2}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert main(["run", "--config", "golden.cfg"]) == 0
        made.append({name: (tmp_path / "run" / name).read_bytes()
                     for name in ("point.csv", "tree.json", "manifest.json")})
    assert len(forks) == 2
    assert made[0] == made[1]


# ----------------------------------------------------------- perfbench tracer

def load_tracer():
    """perfbench/tracer.py, which sits beside the package, not in it."""
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_perfbench_tracer_counts_the_hot_methods(partial_runs, tmp_path):
    """The benchmark's tracer finds every name it patches, and under it a toy
    `run` and a staged `train` call the hot methods it counts; `train` alone
    calls the model's `logprob`, and every char n-gram scoring goes through
    it; uninstalling puts the originals back."""
    tracing = load_tracer()
    hot = ["CharNGram.add", "CharNGram.logprob", "ConditionalParadigmModel.logprob"]
    classes = (strmodel.CharNGram, strmodel.ConditionalParadigmModel)
    originals = [dict(vars(cls)) for cls in classes]
    tracer = tracing.Tracer()
    tracing.install(tracer, morphcomplexity)
    try:
        d = partial_runs
        calls = []
        for argv in (["run", "--data", d / "lex.tsv", "--out-dir", tmp_path / "run"] + SMALL,
                     ["train", "--split", d / "split.json", "--out", tmp_path / "model.json",
                      "--order", "2"]):
            assert main([str(a) for a in argv + ["--seed", "3"]]) == 0, argv[0]
            calls.append({name: tracer.counters["strmodel.%s.calls" % name] for name in hot})
        after_run, total = calls
        assert all(n > 0 for n in total.values()), total
        # train's dev pass scores through the model's logprob, as measure does
        model_logprob = "ConditionalParadigmModel.logprob"
        assert total[model_logprob] > after_run[model_logprob], calls
        assert total[model_logprob] == total["CharNGram.logprob"], total
        # run's ingest, the one read of the lexicon, goes through the patched name
        assert tracer.counters["corpus.parse_unimorph.calls"] == 1
    finally:
        tracer.uninstall()
    assert [dict(vars(cls)) for cls in classes] == originals


def test_perfbench_smoke():
    """`perfbench/smoke.py` runs every benchmark workload at toy sizes,
    untraced and traced, from the repo root, as the benchmark runs: it exits
    0 and prints six ok=True lines, so the outputs pass their checks and the
    metrics are the ones BENCHMARK.json lists.  It writes only under the
    gitignored `.bench_work/smoke`."""
    root = Path(__file__).parents[1]
    done = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=root,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("ok=True") == 6, done.stdout
