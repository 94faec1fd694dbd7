"""Pipeline driver: subcommands for each stage plus full runs and reports."""

import argparse
import csv
import hashlib
import json
import logging
import random
import sys
from importlib import resources
from pathlib import Path

from . import complexity, corpus, platbaseline, stats, strmodel, structure, svgplot

log = logging.getLogger("morphcomplexity")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NO_DATA = 3
EXIT_INTERNAL = 4

PARADIGM_WARN_THRESHOLD = 500


def bundled(name):
    """Path to a bundled data fixture."""
    return resources.files("morphcomplexity.data") / name


# ---------------------------------------------------------------- config

CONFIG_FIELDS = {
    "language": str, "data": str, "synth": str, "scores": str,
    "pos": str, "regime": str,
    "synth_paradigms": int,
    "paradigm_count": int, "pair_count": int,
    "dev_paradigms": int, "test_paradigms": int,
    "order": int, "alpha": float, "lambda_grid": str,
    "n_perm": int, "seed": int, "out_dir": str,
}

CONFIG_DEFAULTS = {
    "language": "unknown", "pos": "N", "regime": "purple",
    "synth_paradigms": 700,
    "paradigm_count": 600, "pair_count": 60000,
    "dev_paradigms": 50, "test_paradigms": 50,
    "order": 3, "alpha": 0.1,
    "lambda_grid": "0.5,0.2,0.1,0.05,0.01,0.001",
    "n_perm": 10000,
}


def load_config(path):
    """Flat key = value config file; only its `corpus.data_lines` are read."""
    cfg = {}
    for lineno, line in read_artifact(path, lambda fh: list(corpus.data_lines(fh))):
        line = line.strip()
        if "=" not in line:
            raise ValueError("%s:%d: expected key = value" % (path, lineno))
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_FIELDS:
            raise ValueError("%s:%d: unknown config key %r" % (path, lineno, key))
        try:
            cfg[key] = CONFIG_FIELDS[key](value.strip())
        except ValueError:
            raise ValueError("%s:%d: bad value for %s: %r" % (path, lineno, key, value))
    return cfg


def resolve_config(args):
    """Defaults, then config file (any key), then the stage's flags (flags win), checked."""
    cfg = dict(CONFIG_DEFAULTS)
    if args.config:
        cfg.update(load_config(args.config))
    if any(getattr(args, key, None) is not None for key in ("data", "synth")):
        cfg.pop("data", None)  # an input flag replaces the config file's input
        cfg.pop("synth", None)
    cfg.update((key, getattr(args, key)) for key in args.keys
               if getattr(args, key) is not None)
    if cfg.get("seed") is None:
        # a stage that reads the seed needs one; ingest reads it only for --synth
        if cfg.get("synth") or "seed" in args.keys and args.command != "ingest":
            raise ValueError("--seed is required (set it in the config or on the "
                             "command line)")
        cfg["seed"] = 0
    for key in ("synth_paradigms", "paradigm_count", "pair_count", "dev_paradigms",
                "test_paradigms", "n_perm"):
        if cfg[key] < 1:
            raise ValueError("%s must be >= 1, got %r" % (key, cfg[key]))
    strmodel.check_order_alpha(cfg["order"], cfg["alpha"])
    if cfg["regime"] not in ("purple", "green"):
        raise ValueError("regime must be purple or green, got %r" % cfg["regime"])
    try:
        grid_ok = all(0.0 < lam < 1.0 for lam in lambda_grid(cfg))
    except ValueError:
        grid_ok = False
    if not grid_ok:
        raise ValueError("lambda grid must be comma-separated numbers in (0, 1), got %r"
                         % cfg["lambda_grid"])
    return cfg


def lambda_grid(cfg):
    """The dev pass's lambda grid, parsed from the config."""
    return tuple(float(x) for x in str(cfg["lambda_grid"]).split(","))


def _write_json(path, obj, cfg, compact=False):
    """Write an artifact, stamped with the hash of the config and its seed:
    indented, or compact on one line, which json.dumps writes in C."""
    blob = json.dumps(cfg, sort_keys=True).encode("utf-8")
    obj = dict(obj, config_hash=hashlib.sha256(blob).hexdigest()[:16], seed=cfg["seed"])
    layout = {"separators": (",", ":")} if compact else {"indent": 1}
    Path(path).write_text(json.dumps(obj, ensure_ascii=False, sort_keys=True, **layout) + "\n",
                          encoding="utf-8")


# ---------------------------------------------------------------- artifacts

def _json(fh):
    """The JSON object in a stream; every JSON input is one object."""
    obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("the top level is not a JSON object")
    return obj


def read_artifact(path, parse):
    """parse(stream) of the input file at a path, the one place that opens
    one: UTF-8 text, a leading byte-order mark dropped.  A missing or
    unreadable file is missing data, one that does not parse or does not fit
    the other inputs a ValueError."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse(fh)
    except OSError as e:
        raise corpus.InsufficientDataError("cannot read %s: %s" % (path, e))
    except (ValueError, KeyError, TypeError) as e:
        reason = "missing or unknown key %s" % e if isinstance(e, KeyError) else e
        raise ValueError("cannot parse %s: %s" % (path, reason))


LABELS = {"language": str, "pos": str, "seed": int}


def _labels(obj, keys, stage):
    """The point labels among `keys` that `stage` wrote into an artifact."""
    for key in keys:
        if type(obj.get(key)) is not LABELS[key]:   # a bool is no int seed
            raise ValueError("the %s label is missing or not a %s; re-run %s"
                             % (key, LABELS[key].__name__, stage))
    return {key: obj[key] for key in keys}


def _load_store(fh):
    obj = _json(fh)
    inventory = corpus.inventory_from_json(obj)
    return (_labels(obj, ("language", "pos"), "ingest"), inventory,
            corpus.paradigms_from_json(obj["paradigms"], inventory, "ingest"))


def _load_split(fh):
    """The split and the labels of the point it is measured for."""
    obj = _json(fh)
    return corpus.split_from_json(obj), _labels(obj, LABELS, "split")


def dev_sha256(split):
    """sha256 of the split's inventory and dev paradigms as split.json
    stores them: all that a dev pass over the split reads of it."""
    rows = corpus.paradigms_to_json(split.dev_paradigms, split.inventory)
    blob = json.dumps([split.inventory, rows], ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_tree(cfg, tree, W, json_path, dot_path=None):
    """Write tree.json (and tree.dot when asked); return the tree score."""
    obj = tree.to_json()
    obj["score_bits"] = structure.tree_score(tree, W)
    _write_json(json_path, obj, cfg)
    if dot_path:
        Path(dot_path).write_text(tree.to_dot(), encoding="utf-8")
    return obj["score_bits"]


def write_point(point, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        complexity.write_points_csv([point], fh)


# ---------------------------------------------------------------- stages
# Each subcommand reads its input artifacts, calls its stage and writes its
# artifact; `run` chains the same stages in memory.

def stage_ingest(cfg):
    """(inventory, paradigms) from a lexicon or a synthetic generator config.
    The slot inventory is decided here and nowhere else."""
    if cfg.get("synth") and cfg.get("data"):
        raise ValueError("give exactly one input: --data or --synth")
    if cfg.get("synth"):
        # a generator config holds SyntheticSystem's parameters: another key is a TypeError
        system = read_artifact(cfg["synth"], lambda fh: complexity.SyntheticSystem(**_json(fh)))
        rng = random.Random(cfg["seed"])
        return sorted(system.slots), system.sample_paradigms(cfg["synth_paradigms"], rng)
    path = cfg.get("data")
    if not path:
        raise corpus.InsufficientDataError("either a data file or a synthetic generator "
                                           "config is required")
    inventory, paradigms, errors = read_artifact(
        path, lambda fh: corpus.parse_unimorph(fh, pos_filter=cfg["pos"]))
    for err in errors:
        log.error("%s: %s", path, err)
    if errors:
        raise ValueError("%d malformed lines in %s" % (len(errors), path))
    if not paradigms:
        raise corpus.InsufficientDataError("no paradigms for POS %r in %s" % (cfg["pos"], path))
    return inventory, paradigms


def read_scorer(cfg, model_path, split):
    """The one scorer of `weights` and `measure`, --model or --scores; a
    saved model scores at its own lambda, and only splits of its alphabet."""
    if bool(model_path) == bool(cfg.get("scores")):
        raise ValueError("give exactly one scorer: --model or --scores")
    if not model_path:
        return read_artifact(cfg["scores"], strmodel.load_scores)
    model = read_artifact(model_path, strmodel.ConditionalParadigmModel.load)
    foreign = set(split.alphabet).difference(model.alphabet)
    if foreign:
        raise ValueError("the split has characters %r outside the model's alphabet; "
                         "re-run train" % "".join(sorted(foreign)))
    return model


def stage_measure(labels, split, scorer, tree):
    """The complexity point on the test paradigms (definitions: complexity.py),
    labelled with the language, pos and seed in `labels` (the config in
    `run`, the split's in `measure`) and the regime the split was sampled in."""
    i_total, i_per_form = complexity.i_complexity(scorer, tree, split.test_paradigms)
    return complexity.ComplexityPoint(
        language=labels["language"], pos=labels["pos"], regime=split.regime,
        e_complexity=len(tree.slots), i_total_bits=i_total, i_per_form_bits=i_per_form,
        d=len(split.test_paradigms), seed=labels["seed"])


# ---------------------------------------------------------------- subcommands

def cmd_ingest(args, cfg):
    inventory, paradigms = stage_ingest(cfg)
    full = sum(1 for p in paradigms if len(p.entries) == len(inventory))
    if len(paradigms) < PARADIGM_WARN_THRESHOLD:
        log.warning("only %d paradigms: below the %d-paradigm threshold",
                    len(paradigms), PARADIGM_WARN_THRESHOLD)
    store = {
        "language": cfg["language"], "pos": cfg["pos"],
        "inventory": inventory,
        "paradigms": corpus.paradigms_to_json(paradigms, inventory),
    }
    if args.out:
        _write_json(args.out, store, cfg, compact=True)
    print("lexemes: %d" % len(paradigms))
    print("slots: %d" % len(inventory))
    print("full paradigms: %d" % full)
    print("coverage: %.1f%%" % (100.0 * sum(len(p.entries) for p in paradigms)
                                / (len(paradigms) * len(inventory))))
    return EXIT_OK


def cmd_split(args, cfg):
    labels, inventory, paradigms = read_artifact(args.store, _load_store)
    split = corpus.make_split(paradigms, cfg, inventory)
    _write_json(args.out, dict(corpus.split_to_json(split), **labels), cfg, compact=True)
    print("train pairs: %d, dev paradigms: %d, test paradigms: %d"
          % (len(split.train_pairs), len(split.dev_paradigms), len(split.test_paradigms)))
    return EXIT_OK


def cmd_train(args, cfg):
    split, _ = read_artifact(args.split, _load_split)
    model = strmodel.train(split.train_pairs, cfg["order"], cfg["alpha"], split.alphabet)
    pairs, split.train_pairs = len(split.train_pairs), None   # freed before the dev pass forks
    W = structure.compute_weights(model, split.dev_paradigms, split.inventory, lambda_grid(cfg))
    model.dev_weights = dev_sha256(split), W
    model.save(args.out)
    print("trained on %d pairs; lambda=%g" % (pairs, model.lam))
    return EXIT_OK


def cmd_weights(args, cfg):
    """The matrix that `train` kept, if the model was trained on this dev
    set, else the dev pass at the scorer's own lambda."""
    split, labels = read_artifact(args.split, _load_split)
    scorer = read_scorer(cfg, args.model, split)
    if args.model and scorer.dev_weights[0] == dev_sha256(split):
        W = scorer.dev_weights[1]
        if W.slots != split.inventory:
            raise ValueError("the model's dev weights are not over the split's inventory; "
                             "re-run train")
    else:
        W = structure.compute_weights(scorer, split.dev_paradigms, split.inventory)
    _write_json(args.out, W.to_json(), dict(cfg, seed=labels["seed"]))
    print("weights over %d slots written to %s" % (W.n, args.out))
    return EXIT_OK


def _load_weights(fh):
    """The weight matrix and the seed of the split it was computed on."""
    obj = _json(fh)
    return structure.WeightMatrix.from_json(obj), _labels(obj, ("seed",), "weights")


def cmd_learn_tree(args, cfg):
    W, labels = read_artifact(args.weights, _load_weights)
    tree = structure.max_arborescence(W)
    score = write_tree(dict(cfg, **labels), tree, W, args.out, args.dot)
    print("root: %s, score: %.4f bits" % (tree.slots[tree.root], score))
    return EXIT_OK


def cmd_measure(args, cfg):
    split, labels = read_artifact(args.split, _load_split)
    scorer = read_scorer(cfg, args.model, split)
    tree = read_artifact(args.tree, lambda fh: structure.Arborescence.from_json(
        _json(fh), split.inventory))
    point = stage_measure(labels, split, scorer, tree)
    write_point(point, args.out)
    print("i_total=%.4f bits over %d test paradigms" % (point.i_total_bits, point.d))
    return EXIT_OK


def cmd_run(args, cfg):
    out_dir = Path(cfg.get("out_dir") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    inventory, paradigms = stage_ingest(cfg)
    split = corpus.make_split(paradigms, cfg, inventory)
    del paradigms   # the split holds every paradigm that a later stage reads
    if cfg.get("scores"):
        scorer, grid = read_scorer(cfg, None, split), None
    else:
        scorer = strmodel.train(split.train_pairs, cfg["order"], cfg["alpha"], split.alphabet)
        grid = lambda_grid(cfg)
    split.train_pairs = None   # freed before the dev pass forks
    W = structure.compute_weights(scorer, split.dev_paradigms, split.inventory, grid)
    tree = structure.max_arborescence(W)
    point = stage_measure(cfg, split, scorer, tree)

    write_point(point, out_dir / "point.csv")
    write_tree(cfg, tree, W, out_dir / "tree.json", out_dir / "tree.dot")
    _write_json(out_dir / "manifest.json", {"config": cfg}, cfg)
    print("%s/%s (%s): e=%d, i_total=%.4f bits, i_per_form=%.4f bits"
          % (point.language, point.pos, point.regime, point.e_complexity,
             point.i_total_bits, point.i_per_form_bits))
    return EXIT_OK


def _read_points(fh):
    """(paradigm size, i-complexity per form) pairs by POS, from a point CSV
    or from a table with the columns of the bundled table 2; every point
    must be one the Pareto curve accepts, and every POS part of a file name."""
    reader = csv.DictReader(fh)
    if "i_per_form_bits" in (reader.fieldnames or ()):
        by_pos, x, y = {}, "e_complexity", "i_per_form_bits"
    else:
        by_pos, x, y = {"N": [], "V": []}, "paradigm_size", "i_complexity"
    for row in reader:
        point = float(row[x]), float(row[y])
        stats.check_point(*point)
        if row["pos"] in ("", ".", "..") or "/" in row["pos"] or "\0" in row["pos"]:
            raise ValueError("POS %r cannot name a pareto_<POS>.svg file" % row["pos"])
        by_pos.setdefault(row["pos"], []).append(point)
    return by_pos


def cmd_pareto(args, cfg):
    by_pos = read_artifact(args.points or bundled("table2_green.csv"), _read_points)
    out_dir = Path(cfg.get("out_dir") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {"per_pos": {}}
    failures = []
    for pos in sorted(by_pos):
        pts = by_pos[pos]
        if len(pts) < 3:
            failures.append(pos)
            report["per_pos"][pos] = {"error": "need >= 3 points, have %d" % len(pts)}
            continue
        res = stats.perm_test(pts, n_perm=cfg["n_perm"], seed=cfg["seed"])
        report["per_pos"][pos] = res.to_json()
        svg = svgplot.scatter_with_pareto(pts, title="%s (p = %.4f)" % (pos, res.p_value))
        (out_dir / ("pareto_%s.svg" % pos)).write_text(svg, encoding="utf-8")
        print("%s: area=%.3f, p=%.4f (%d permutations)"
              % (pos, res.observed_area, res.p_value, res.n_perm))
    if len(failures) == len(by_pos):
        raise corpus.InsufficientDataError("no POS had enough points")
    _write_json(out_dir / "pareto_report.json", report, cfg)
    return EXIT_OK


def _read_plat(args):
    """The --plat table, by default the bundled Greek plat."""
    return read_artifact(args.plat or bundled("greek_plat.tsv"), platbaseline.parse_plat)


def cmd_plat(args, cfg):
    plat = _read_plat(args)
    print("plat: %d classes x %d slots" % (len(plat.classes), len(plat.slots)))
    for i in plat.slots:
        for j in plat.slots:
            if i != j:
                print("H(%s | %s) = %.6f bits" % (i, j, platbaseline.cond_entropy(plat, i, j)))
    print("average conditional entropy: %.6f bits" % platbaseline.avg_cond_entropy(plat))
    return EXIT_OK


def cmd_critique(args, cfg):
    if args.trials < 1:
        raise ValueError("--trials must be >= 1, got %d" % args.trials)
    plat = _read_plat(args)
    rng = random.Random(cfg["seed"])
    worst = float("inf")
    for _ in range(args.trials):
        # realistically sized tables; with very few classes and slots the
        # pairwise average can dip below the joint (positive mutual
        # information between two slots raises the per-form joint instead)
        n_classes = rng.randint(8, 16)
        n_slots = rng.randint(6, 10)
        pool = ["", "a", "o", "es"]
        table = platbaseline.Plat(
            classes=[str(c) for c in range(n_classes)],
            slots=["S%d" % s for s in range(n_slots)],
            exponent=[[rng.choice(pool) for _ in range(n_slots)]
                      for _ in range(n_classes)])
        gap = platbaseline.avg_cond_entropy(table) - platbaseline.joint_per_form_entropy(table)
        worst = min(worst, gap)
    print("joint-vs-average over %d random plats: min(avg - joint) = %.6f bits (>= 0: %s)"
          % (args.trials, worst, worst >= -1e-9))
    joint = platbaseline.joint_per_form_entropy(plat)
    avg = platbaseline.avg_cond_entropy(plat)
    print("critique: per-form joint entropy %.6f <= average conditional %.6f: %s"
          % (joint, avg, joint <= avg + 1e-9))
    # suppletion: the plat gives 'went' zero probability, the string model does not;
    # conditioned on a class of nonzero weight, as a mass-0 exponent has no distribution
    row = next(row for row, w in zip(plat.exponent, plat.weights) if w > 0)
    dist = platbaseline.cond_dist(plat, plat.slots[0], plat.slots[1], row[1])
    go = corpus.Paradigm("go", {"V;NFIN": "go", "V;PST": "went"})
    model = strmodel.train(corpus.PairView([go], [("go", "V;NFIN", "V;PST")]),
                           cfg["order"], cfg["alpha"], set("gowentflyflew"))
    lp = model.logprob("V;PST", "flew", [("V;NFIN", "fly")])[0][0]
    print("critique: plat support is only %r; string model gives an unseen "
          "irregular logprob %.2f bits (finite)" % (sorted(dist), lp))
    return EXIT_OK


# ---------------------------------------------------------------- entry point

def _command(sub, name, func, help, keys=()):
    """A subcommand taking --config and one flag per config key its stage reads."""
    sp = sub.add_parser(name, help=help)
    sp.set_defaults(func=func, keys=keys)
    sp.add_argument("--config", help="flat key = value config file")
    for key in keys:
        sp.add_argument("--" + key.replace("_", "-"), dest=key, type=CONFIG_FIELDS[key])
    if name in ("train", "weights", "measure"):  # unread; the benchmark passes it (ROADMAP 1)
        sp.add_argument("--seed", type=lambda v: log.info("%s ignores --seed", name) or int(v))
    return sp


def build_parser():
    ap = argparse.ArgumentParser(prog="morphcomplexity",
                                 description="Morphological complexity measurement "
                                             "and the paradigm size/irregularity trade-off")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = _command(sub, "ingest", cmd_ingest, "parse a lexicon into a paradigm store",
                  ("data", "synth", "synth_paradigms", "language", "pos", "seed"))
    sp.add_argument("--out", help="paradigm store JSON to write")

    sp = _command(sub, "split", cmd_split, "build the train/dev/test split",
                  ("regime", "paradigm_count", "pair_count", "dev_paradigms",
                   "test_paradigms", "seed"))
    sp.add_argument("--store", required=True)
    sp.add_argument("--out", required=True)

    sp = _command(sub, "train", cmd_train, "fit the conditional string model",
                  ("order", "alpha", "lambda_grid"))
    sp.add_argument("--split", required=True)
    sp.add_argument("--out", required=True)

    sp = _command(sub, "weights", cmd_weights, "compute the dev weight matrix", ("scores",))
    sp.add_argument("--split", required=True)
    sp.add_argument("--model")
    sp.add_argument("--out", required=True)

    sp = _command(sub, "learn-tree", cmd_learn_tree, "maximum spanning arborescence")
    sp.add_argument("--weights", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--dot")

    sp = _command(sub, "measure", cmd_measure, "held-out i-complexity from saved artifacts",
                  ("scores",))
    sp.add_argument("--split", required=True)
    sp.add_argument("--model")
    sp.add_argument("--tree", required=True)
    sp.add_argument("--out", required=True)

    _command(sub, "run", cmd_run, "full pipeline for one language/POS",
             tuple(key for key in CONFIG_FIELDS if key != "n_perm"))

    sp = _command(sub, "pareto", cmd_pareto, "Pareto curves, areas and permutation test",
                  ("n_perm", "seed", "out_dir"))
    sp.add_argument("--points", help="ComplexityPoint CSV (default: bundled reference table)")

    sp = _command(sub, "plat", cmd_plat, "conditional-entropy baseline over a plat")
    sp.add_argument("--plat", help="plat TSV (default: bundled Greek plat)")

    sp = _command(sub, "critique", cmd_critique, "baseline-vs-joint demonstrations",
                  ("order", "alpha", "seed"))
    sp.add_argument("--plat", help="plat TSV (default: bundled Greek plat)")
    sp.add_argument("--trials", type=int, default=100)

    return ap


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, resolve_config(args))
    except ValueError as e:
        # every ValueError checks an input or argument, when it is read or by
        # the stage that uses it, e.g. an empty test set
        log.error("%s", e)
        return EXIT_NO_DATA if isinstance(e, corpus.InsufficientDataError) else EXIT_PARSE
    except OSError as e:
        log.error("%s failed: %s", args.command, e)
        return EXIT_INTERNAL
    except Exception as e:  # pragma: no cover - internal failure path
        log.exception("internal error: %s", e)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
