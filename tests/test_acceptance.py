"""Acceptance gate: one test per release criterion, each printing a
single pass/fail line (run with -s to see them inline).  Tolerances are
pinned here and must not be loosened to make a failing criterion pass.
"""

import itertools
import json
import math
import os
import random
import statistics
import time
from bisect import bisect_left

import pytest

from morphcomplexity import cli, complexity, platbaseline, stats, structure
from morphcomplexity.cli import bundled, main
from morphcomplexity.corpus import EMPTY, ROOT, PairView, Paradigm, make_split
from morphcomplexity.platbaseline import (
    Plat, avg_cond_entropy, cond_dist, parse_plat,
)
from morphcomplexity.stats import pareto_area, perm_test
from morphcomplexity.structure import WeightMatrix, max_arborescence, tree_score

from conftest import split_config, train


def report(label, ok, detail):
    print("\n%s: %s (%s)" % (label, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (label, detail)


def table2_points():
    with open(bundled("table2_green.csv"), encoding="utf-8") as fh:
        return cli._read_points(fh)


# ------------------------------------------------------ criterion 1

def test_criterion_1_significance_verbs():
    t0 = time.perf_counter()
    pts = table2_points()["V"]
    p0 = perm_test(pts, n_perm=10000, seed=0).p_value
    medians = statistics.median(
        perm_test(pts, n_perm=10000, seed=s).p_value for s in range(20))
    elapsed = time.perf_counter() - t0
    ok = p0 < 0.05 and 0 < medians <= 0.06 and elapsed < 10
    report("criterion 1 (verbs)", ok,
           "p=%.4f, median over 20 seeds=%.4f, %.1fs" % (p0, medians, elapsed))


def test_criterion_1_significance_nouns():
    t0 = time.perf_counter()
    pts = table2_points()["N"]
    p0 = perm_test(pts, n_perm=10000, seed=0).p_value
    medians = statistics.median(
        perm_test(pts, n_perm=10000, seed=s).p_value for s in range(20))
    elapsed = time.perf_counter() - t0
    ok = p0 < 0.05 and 0 < medians <= 0.06 and elapsed < 10
    report("criterion 1 (nouns)", ok,
           "p=%.4f, median over 20 seeds=%.4f, %.1fs" % (p0, medians, elapsed))


# ------------------------------------------------------ criterion 2

def brute_avg_cond_entropy(plat):
    """Independent oracle built from the explicit (e_i, e_j) joint."""
    n = len(plat.slots)
    total = 0.0
    for si in range(n):
        for sj in range(n):
            if si == sj:
                continue
            joint = {}
            for c, row in enumerate(plat.exponent):
                key = (row[si], row[sj])
                joint[key] = joint.get(key, 0.0) + plat.weights[c]
            pj = {}
            for (_, ej), p in joint.items():
                pj[ej] = pj.get(ej, 0.0) + p
            for (ei, ej), p in joint.items():
                if p > 0:
                    total -= p * math.log2(p / pj[ej])
    return total / (n * n - n)


def test_criterion_2_greek_plat():
    with open(bundled("greek_plat.tsv"), encoding="utf-8") as fh:
        greek = parse_plat(fh)
    d1 = cond_dist(greek, "GEN;SG", "ACC;PL", "i")
    d2 = cond_dist(greek, "NOM;SG", "ACC;PL", "a")
    h2 = -sum(p * math.log2(p) for p in d2.values())
    oracle_ok = abs(avg_cond_entropy(greek) - brute_avg_cond_entropy(greek)) < 1e-9
    rng = random.Random(0)
    for _ in range(100):
        nc, ns = rng.randint(2, 8), rng.randint(2, 5)
        plat = Plat(classes=[str(c) for c in range(nc)],
                    slots=["S%d" % s for s in range(ns)],
                    exponent=[[rng.choice(["", "a", "o", "es"]) for _ in range(ns)]
                              for _ in range(nc)])
        if abs(avg_cond_entropy(plat) - brute_avg_cond_entropy(plat)) >= 1e-9:
            oracle_ok = False
            break
    ok = (d1 == {"us": 1.0} and d2 == {"": 2 / 3, "o": 1 / 3}
          and abs(h2 - 0.918296) < 1e-6 and oracle_ok)
    report("criterion 2", ok,
           "gen;sg|acc;pl=-i %r, nom;sg|acc;pl=-a %r, component %.6f bits, "
           "oracle to 1e-9 on Greek + 100 random plats: %s"
           % (d1, {k: round(v, 6) for k, v in d2.items()}, h2, oracle_ok))


# ------------------------------------------------------ criterion 3

def all_arborescences(n):
    """Every (root, parent vector) pair forming a spanning arborescence."""
    trees = []
    for root in range(n):
        others = [i for i in range(n) if i != root]
        for combo in itertools.product(*[[j for j in range(n) if j != i]
                                         for i in others]):
            parent = dict(zip(others, combo))
            ok = True
            for start in others:
                node, steps = start, 0
                while node != root and steps <= n:
                    node = parent[node]
                    steps += 1
                if node != root:
                    ok = False
                    break
            if ok:
                trees.append((root, tuple(parent.items())))
    return trees


def test_criterion_3_edmonds_oracle():
    t0 = time.perf_counter()
    catalog = {n: all_arborescences(n) for n in range(2, 7)}
    # sanity: Cayley's formula counts n^(n-1) rooted labeled trees
    assert all(len(catalog[n]) == n ** (n - 1) for n in catalog)
    rng = random.Random(0)
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(2, 6)
        edge = [[rng.uniform(-5, 0) if i != j else 0.0 for j in range(n)]
                for i in range(n)]
        root_w = [rng.uniform(-5, 0) for _ in range(n)]
        W = WeightMatrix(slots=["S%d" % i for i in range(n)], edge=edge, root=root_w)
        best = max(root_w[r] + sum(edge[c][p] for c, p in parents)
                   for r, parents in catalog[n])
        got = tree_score(max_arborescence(W), W)
        if abs(got - best) > 1e-12:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30
    report("criterion 3", ok,
           "%d/1000 mismatches vs exhaustive enumeration, %.1fs" % (mismatches, elapsed))


# ------------------------------------------------------ criterion 4

def test_criterion_4_normalization():
    rng = random.Random(0)
    paradigms = []
    for i in range(300):
        src = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        tgt = "".join(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        paradigms.append(Paradigm("p%d" % i, {"S": src, "T": tgt}))
    # one S -> T cell per paradigm
    model = train(PairView(paradigms, [(p.lexeme, "S", "T") for p in paradigms]), order=2)
    contexts = [("a", "S", "T"), ("b", "S", "T"), ("ab", "S", "T"),
                ("ba", "S", "T"), ("aab", "S", "T"), ("bba", "S", "T"),
                ("abab", "S", "T"), ("", "S", "T"), (EMPTY, ROOT, "T"),
                ("bbbb", "S", "T")]
    masses = [model.mass_upto(src, s, t, 32) for src, s, t in contexts]
    mass_ok = all(m >= 0.999 for m in masses)
    # cross-check the dynamic program against literal enumeration at L=12
    brute_ok = True
    for src, s, t in contexts[:3]:
        brute = sum(2.0 ** model.logprob(t, "".join(tup), [(s, src)])[-1][0]
                    for L in range(13)
                    for tup in itertools.product("ab", repeat=L))
        if abs(model.mass_upto(src, s, t, 12) - brute) > 1e-9:
            brute_ok = False
    finite_ok = True
    for _ in range(10000):
        src = "".join(rng.choice("ab") for _ in range(rng.randint(0, 12)))
        tgt = "".join(rng.choice("ab") for _ in range(rng.randint(0, 12)))
        if not math.isfinite(model.logprob("T", tgt, [("S", src)])[-1][0]):
            finite_ok = False
            break
    ok = mass_ok and brute_ok and finite_ok
    report("criterion 4", ok,
           "min mass at L<=32 over 10 contexts: %.6f, DP==enumeration at L=12: %s, "
           "10,000 random pairs finite: %s" % (min(masses), brute_ok, finite_ok))


# ------------------------------------------------------ criterion 5

def measure_synth(spec_name, seed, order=3, suffix_table=None):
    spec = json.loads(bundled(spec_name).read_text(encoding="utf-8"))
    if suffix_table is not None:
        spec = {**spec, "class_probs": [1.0], "suffix_table": suffix_table}
    system = complexity.SyntheticSystem(**spec)
    rng = random.Random(seed)
    paradigms = system.sample_paradigms(600, rng)
    split = make_split(paradigms, split_config(regime="purple", paradigm_count=500,
                                               dev_paradigms=50, test_paradigms=50,
                                               seed=seed), system.slots)
    model = train(split.train_pairs, order=order)
    W = structure.compute_weights(model, split.dev_paradigms, system.slots,
                                  cli.lambda_grid(cli.CONFIG_DEFAULTS))
    tree = max_arborescence(W)
    i_total, _ = complexity.i_complexity(model, tree, split.test_paradigms)
    return i_total


def test_criterion_5_variational_bound():
    t0 = time.perf_counter()
    two_excess = []
    zero_excess = []
    for seed in range(5):
        control = measure_synth("synth_one_class.json", seed)
        two_excess.append(measure_synth("synth_two_class.json", seed) - control)
        # H_class = 0: a one-class system whose unpredictable slot carries the
        # other deterministic suffix draws the same stems (paired seed), so
        # any excess is pure estimation noise
        zero_excess.append(measure_synth(
            "synth_one_class.json", seed,
            suffix_table=[["", "a", "ib", "zu"]]) - control)
    mean_two = statistics.mean(two_excess)
    mean_zero = abs(statistics.mean(zero_excess))
    elapsed = time.perf_counter() - t0
    ok = 0.8 <= mean_two <= 1.6 and mean_zero < 0.1 and elapsed < 120
    report("criterion 5", ok,
           "two-class excess %.4f bits (target [0.8, 1.6]), "
           "zero-class excess %.4f bits (target < 0.1), %.0fs"
           % (mean_two, mean_zero, elapsed))


# ------------------------------------------------------ criterion 6

def grid_oracle(points, dx=1e-4):
    """Suffix-max + bisection evaluation of f on a midpoint grid."""
    pts = sorted(points)
    xs = [x for x, _ in pts]
    suffix = [0.0] * (len(pts) + 1)
    for i in range(len(pts) - 1, -1, -1):
        suffix[i] = max(suffix[i + 1], pts[i][1])
    steps = int(round(max(xs) / dx))
    total = 0.0
    for k in range(steps):
        x = (k + 0.5) * dx
        total += suffix[bisect_left(xs, x)] * dx
    return total


def test_criterion_6_pareto_geometry():
    hand_ok = (pareto_area([(2.0, 1.0)]) == 2.0
               and pareto_area([(1.0, 1.0), (2.0, 0.5)]) == 1.5)
    rng = random.Random(0)
    grid_ok = True
    dominated_ok = True
    for _ in range(100):
        n = rng.randint(1, 12)
        points = [(rng.uniform(0.2, 8.0), rng.uniform(0.0, 4.0)) for _ in range(n)]
        if abs(pareto_area(points) - grid_oracle(points)) > 1e-3:
            grid_ok = False
            break
        # a point strictly under the curve never changes it as a function
        x, _ = points[rng.randrange(n)]
        curve = stats.pareto_curve(points)
        shadowed = stats.pareto_curve(points + [(x * 0.9, curve.value(x * 0.9) * 0.5)])
        probes = [x * 0.9] + [bx for bx, _ in curve.breakpoints]
        if (abs(pareto_area(shadowed.breakpoints) - pareto_area(curve.breakpoints)) > 1e-12
                or any(shadowed.value(px) != curve.value(px) for px in probes)):
            dominated_ok = False
            break
    ok = hand_ok and grid_ok and dominated_ok
    report("criterion 6", ok,
           "hand fixtures exact: %s, 100 random sets vs 1e-4 grid within 1e-3: %s, "
           "dominated points inert: %s" % (hand_ok, grid_ok, dominated_ok))


# ------------------------------------------------------ criterion 7

def test_criterion_7_determinism(tmp_path):
    spec = str(bundled("synth_two_class.json"))
    out = tmp_path / "out"
    argv = ["run", "--synth", spec, "--synth-paradigms", "250",
            "--paradigm-count", "120", "--dev-paradigms", "40",
            "--test-paradigms", "40", "--seed", "11", "--out-dir", str(out)]
    assert main(argv) == 0
    first = {n: (out / n).read_bytes()
             for n in ("point.csv", "tree.json", "manifest.json")}
    assert main(argv) == 0
    same = all((out / n).read_bytes() == blob for n, blob in first.items())
    # reruns must be identical; the parallel-vs-serial clause is
    # test_cli.py::test_run_does_not_depend_on_cpu_count, on one CPU and three
    report("criterion 7", same, "rerun byte-identical CSV/JSON: %s" % same)


# ------------------------------------------------------ criterion 8

def test_criterion_8_fixture_independence():
    names = ("table2_green.csv", "greek_plat.tsv", "toy_lexicon.tsv",
             "synth_two_class.json", "synth_one_class.json",
             "synth_deterministic.json")
    present = all(bundled(n).is_file() for n in names)
    data_dir = os.environ.get("MORPH_UNIMORPH_DIR")
    gated = "skipped (set MORPH_UNIMORPH_DIR to enable)"
    if data_dir:
        ara = os.path.join(data_dir, "ara")
        if os.path.exists(ara):
            inventory, _ = cli.stage_ingest({"data": ara, "pos": "V"})
            gated = "Arabic |slots|=%d (expect 112): %s" % (
                len(inventory), len(inventory) == 112)
        else:
            gated = "skipped (no 'ara' file in MORPH_UNIMORPH_DIR)"
    report("criterion 8", present,
           "all fixtures bundled: %s; dataset-dependent checks: %s" % (present, gated))
