"""Benchmark of the morphcomplexity pipeline: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The package is imported from
`src/`; inputs are generated from --seed into `.bench_work/<workload>/`.
An operation is one `cli.main` call; a pass is the workload's chain of
operations.  Passes run in a closed loop in this one thread and repeat until
--seconds have passed (at least one runs).  With --trace 0 the last stdout
line carries the end-to-end metrics; with --trace 1 one traced pass gives
the per-layer metrics, and the untraced passes after it give the tracing
overhead.  See perfbench/README.md.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import lexgen  # noqa: E402  (beside this file, not installed)
import tracer as tracing  # noqa: E402

# Workload sizes follow the paper: 600 purple training paradigms, 60k green
# training pairs, the 112-slot Arabic verb inventory, and criterion 1's
# 20-seed permutation sweep over the bundled table 2.
WORKLOADS = {
    # heavy on training writes (every target added once per source slot)
    # and on artifact I/O (split.json holds every expanded pair); Edmonds is
    # negligible at 32 slots
    "staged-purple-32": {"kind": "staged", "pos": "N", "slots": 32, "paradigms": 701,
                         "paradigm_count": 600, "dev": 50, "test": 50},
    # heavy on pair-pool building, on scoring (dev lambda selection and the
    # weight matrix each score every ordered slot pair of 50 dev paradigms)
    # and on Edmonds at 112 slots; trains on only 60k pairs, writes no
    # intermediate artifacts
    "run-green-112": {"kind": "run", "pos": "V", "slots": 112, "paradigms": 300,
                      "pair_count": 60000, "dev": 50, "test": 50},
    # the only user of stats, svgplot and platbaseline
    "reports-table2": {"kind": "reports", "perm_seeds": 20, "n_perm": 10000, "trials": 100},
}

SETUP_REPS = 7
MODEL_STAGES = ("ingest", "split", "train", "weights", "learn-tree", "measure")
REPORT_STAGES = ("pareto", "critique")
WORK = Path(".bench_work")

PER_LAYER_UNITS = {
    **{"cli.%s.s" % s: "s" for s in MODEL_STAGES + REPORT_STAGES},
    **{"cli.%s.peak_rss_mb" % s: "MiB" for s in MODEL_STAGES},
    "corpus.parse_unimorph.s": "s", "corpus.make_split.s": "s",
    "corpus.pairs_built": "count", "corpus.train_pairs": "count",
    "corpus.pairs_kept_ratio": "ratio",
    "corpus.split_to_json.s": "s", "corpus.split_from_json.s": "s",
    "corpus.split_from_json.calls": "count", "corpus.split_mb": "MiB",
    "strmodel.train.s": "s",
    "strmodel.CharNGram.add.calls": "count", "strmodel.CharNGram.add.s": "s",
    "strmodel.CharNGram.add.distinct_ratio": "ratio",
    "strmodel.rules": "count", "strmodel.rule_tables": "count",
    "strmodel.CharNGram.logprob.calls": "count", "strmodel.CharNGram.logprob.s": "s",
    "strmodel.CharNGram.logprob.distinct_ratio": "ratio",
    "strmodel.ConditionalParadigmModel.logprob.calls": "count",
    "strmodel.ConditionalParadigmModel.logprob.self_s": "s",
    "strmodel.joint_logprob.calls": "count",
    "strmodel.ConditionalParadigmModel.save.s": "s",
    "strmodel.ConditionalParadigmModel.load.s": "s",
    "strmodel.model_mb": "MiB",
    "structure.compute_weights.s": "s", "structure.max_arborescence.s": "s",
    "structure.slots": "count",
    "complexity.i_complexity.s": "s",
    "stats.perm_test.calls": "count", "stats.perm_test.s": "s", "stats.perms_per_s": "1/s",
    "svgplot.scatter_with_pareto.s": "s",
    "platbaseline.avg_cond_entropy.calls": "count", "platbaseline.avg_cond_entropy.s": "s",
    "trace.overhead_ratio": "ratio", "trace.stage_share": "ratio",
    "src.lines": "count", "error_rate": "ratio",
}


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def mib(nbytes):
    return nbytes / 2.0 ** 20


# ------------------------------------------------------------ output checks
# Each returns None when the artifact is valid, else a one-line reason.

def check_point(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        return "point.csv has %d rows" % len(rows)
    try:
        i_total = float(rows[0]["i_total_bits"])
        e = int(rows[0]["e_complexity"])
    except (KeyError, ValueError) as exc:
        return "point.csv unreadable: %s" % exc
    if not (math.isfinite(i_total) and i_total >= 0):
        return "i_total_bits %r is not finite and >= 0" % i_total
    if e < 1:
        return "e_complexity %d < 1" % e
    return None


def check_tree(path, inventory):
    tree = json.loads(Path(path).read_text(encoding="utf-8"))
    slots = set(inventory)
    root, parent = tree.get("root"), tree.get("edges", {})
    if root not in slots:
        return "tree root %r not in the inventory" % root
    if set(parent) != slots - {root}:
        return "tree children do not cover the inventory minus the root"
    if not set(parent.values()) <= slots:
        return "tree has a parent outside the inventory"
    for child in parent:
        seen = set()
        while child != root:
            if child in seen:
                return "tree has a cycle through %r" % child
            seen.add(child)
            child = parent[child]
    return None


def check_pareto(path):
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    p_values = {}
    for pos, res in sorted(report["per_pos"].items()):
        p = res.get("p_value")
        if not (isinstance(p, float) and 0.0 < p <= 1.0):
            return "POS %s: p-value %r not in (0, 1]" % (pos, p), p_values
        p_values[pos] = p
    return None, p_values


# ------------------------------------------------------------ operations

class Run:
    """One workload in one process: inputs, operations, checks and counts."""

    def __init__(self, pkg, name, spec, seed, work):
        self.pkg, self.spec, self.seed = pkg, spec, seed
        self.dir = work / name
        self.input = self.dir / "input.tsv"
        self.opdir = self.dir / "op"
        self.attempted = 0
        self.failed_ops = set()
        self.errors = []
        self.digests = None
        self.facts = {}
        self.tracer = None

    @property
    def failed(self):
        return len(self.failed_ops)

    def fail(self, reason):
        """Mark the latest operation failed: the one that ran, or wrote the
        artifact that failed its check (the first, before any has run)."""
        self.failed_ops.add(max(self.attempted, 1))
        self.errors.append(reason)

    def cli(self, stage, argv):
        """One operation: a `cli.main` call with stdout captured; True on success."""
        self.attempted += 1
        out = io.StringIO()
        span = self.tracer.begin("cli." + stage) if self.tracer else None
        try:
            with contextlib.redirect_stdout(out):
                rc = self.pkg.cli.main([str(a) for a in argv])
        except Exception as exc:  # an escaped exception is a failed operation
            rc = "exception %r" % exc
        finally:
            if span:
                self.tracer.end(span)
        if rc != 0:
            self.fail("%s: exit %s" % (stage, rc))
            return False
        self.last_stdout = out.getvalue()
        return True

    def one_pass(self):
        """Run the workload's chain of operations once; return its wall seconds."""
        if self.opdir.exists():
            shutil.rmtree(self.opdir)
        self.opdir.mkdir(parents=True)
        kind = self.spec["kind"]
        t = time.perf_counter()
        if kind == "staged":
            self._staged()
        elif kind == "run":
            self._run()
        else:
            self._reports()
        wall = time.perf_counter() - t
        try:
            self._check()
        except (OSError, ValueError, KeyError) as exc:
            self.fail("unreadable artifact: %r" % exc)
        return wall

    def _staged(self):
        s, d, seed = self.spec, self.opdir, self.seed
        steps = [
            ("ingest", ["ingest", "--data", self.input, "--pos", s["pos"],
                        "--out", d / "store.json"]),
            ("split", ["split", "--store", d / "store.json", "--regime", "purple",
                       "--paradigm-count", s["paradigm_count"], "--dev-paradigms", s["dev"],
                       "--test-paradigms", s["test"], "--seed", seed, "--out", d / "split.json"]),
            ("train", ["train", "--split", d / "split.json", "--seed", seed,
                       "--out", d / "model.json"]),
            ("weights", ["weights", "--split", d / "split.json", "--model", d / "model.json",
                         "--seed", seed, "--out", d / "weights.json"]),
            ("learn-tree", ["learn-tree", "--weights", d / "weights.json",
                            "--out", d / "tree.json", "--dot", d / "tree.dot"]),
            ("measure", ["measure", "--split", d / "split.json", "--model", d / "model.json",
                         "--tree", d / "tree.json", "--seed", seed, "--out", d / "point.csv"]),
        ]
        for stage, argv in steps:
            if not self.cli(stage, argv):
                return

    def _run(self):
        s = self.spec
        self.cli("run", ["run", "--data", self.input, "--pos", s["pos"], "--language", "synth",
                         "--regime", "green", "--pair-count", s["pair_count"],
                         "--dev-paradigms", s["dev"], "--test-paradigms", s["test"],
                         "--seed", self.seed, "--out-dir", self.opdir])

    def _reports(self):
        s = self.spec
        for perm_seed in range(s["perm_seeds"]):
            self.cli("pareto", ["pareto", "--seed", perm_seed, "--n-perm", s["n_perm"],
                                "--out-dir", self.opdir / ("seed%02d" % perm_seed)])
        if self.cli("critique", ["critique", "--seed", self.seed, "--trials", s["trials"]]):
            if "(>= 0: True)" not in self.last_stdout:
                self.fail("critique: average conditional entropy below the joint")

    def _check(self):
        """Check the artifacts of the last pass and record digests and sizes."""
        files = {p.relative_to(self.opdir).as_posix(): p
                 for p in sorted(self.opdir.rglob("*")) if p.is_file()}
        self.facts["artifact_bytes"] = sum(p.stat().st_size for p in files.values())
        self.facts["file_bytes"] = {k: p.stat().st_size for k, p in files.items()}
        digests = {}
        if self.spec["kind"] == "reports":
            reports = [k for k in files if k.endswith("pareto_report.json")]
            if len(reports) != self.spec["perm_seeds"]:
                self.fail("expected %d pareto reports, found %d"
                          % (self.spec["perm_seeds"], len(reports)))
            joined = hashlib.sha256()
            p_values = {}
            for k in reports:
                err, ps = check_pareto(files[k])
                if err:
                    self.fail("%s: %s" % (k, err))
                for pos, p in ps.items():
                    p_values.setdefault(pos, []).append(p)
                joined.update(files[k].read_bytes())
            digests["pareto_report.json"] = joined.hexdigest()
            self.facts["p_value_median"] = {pos: statistics.median(ps)
                                            for pos, ps in p_values.items()}
            self.facts["p_value_seed0"] = {pos: ps[0] for pos, ps in p_values.items()}
        else:
            expected = ["point.csv", "tree.json"]
            if self.spec["kind"] == "run":
                expected.append("manifest.json")
            missing = [k for k in expected if k not in files]
            if missing:
                self.fail("missing artifacts: %s" % ", ".join(missing))
                return
            for reason in (check_point(files["point.csv"]),
                           check_tree(files["tree.json"], self.facts["input"]["inventory"])):
                if reason:
                    self.fail(reason)
            if "manifest.json" in files:
                json.loads(files["manifest.json"].read_text(encoding="utf-8"))
            digests = {k: sha256_file(files[k]) for k in expected}
            with open(files["point.csv"], encoding="utf-8", newline="") as fh:
                self.facts["point"] = next(csv.DictReader(fh))
        if self.digests is not None and digests != self.digests:
            self.fail("artifacts differ between passes of one run")
        self.digests = digests


# ------------------------------------------------------------ tracing

def stage_spans(tr):
    """Stage spans: the cli.<stage> spans, plus the six stages of each `run`
    call, cut at the boundaries of the layer spans inside it."""
    cuts = [("ingest", "corpus.make_split", "start"), ("split", "strmodel.train", "start"),
            ("train", "structure.compute_weights", "start"),
            ("weights", "structure.max_arborescence", "start"),
            ("learn-tree", "structure.max_arborescence", "end"), ("measure", "cli.run", "end")]
    for run in tr.find("cli.run"):
        inner = {s["name"]: s for s in tr.spans
                 if s["start"] >= run["start"] and s["end"] <= run["end"]}
        if not all(name in inner for _, name, _ in cuts):
            continue  # the call failed early; its stages stay unaccounted
        start = run["start"]
        for stage, name, edge in cuts:
            end = inner[name][edge]
            tr.add_span("cli." + stage, run["id"], start, end, inner[name]["rss_" + edge])
            start = end
    names = {"cli." + s for s in MODEL_STAGES + REPORT_STAGES}
    return [s for s in tr.spans if s["name"] in names]


def per_layer(run, tr, traced_s, untraced_s):
    c = tr.counters
    stages = stage_spans(tr)
    m = {k: c.get(k, 0.0) for k in PER_LAYER_UNITS}
    for stage in MODEL_STAGES + REPORT_STAGES:
        mine = [s for s in stages if s["name"] == "cli." + stage]
        m["cli.%s.s" % stage] = sum(s["end"] - s["start"] for s in mine)
        if stage in MODEL_STAGES:
            m["cli.%s.peak_rss_mb" % stage] = max((s["rss_end"] for s in mine), default=0.0)
    m["corpus.pairs_kept_ratio"] = (c["corpus.train_pairs"] / c["corpus.pairs_built"]
                                    if c["corpus.pairs_built"] else 0.0)
    sizes = run.facts["file_bytes"]
    m["corpus.split_mb"] = mib(sizes.get("split.json", 0))
    m["strmodel.model_mb"] = mib(sizes.get("model.json", 0))
    for name in ("strmodel.CharNGram.add", "strmodel.CharNGram.logprob"):
        m[name + ".distinct_ratio"] = tr.distinct_ratio(name)
    m["stats.perms_per_s"] = (c["stats.perms"] / c["stats.perm_test.s"]
                              if c["stats.perm_test.s"] else 0.0)
    m["trace.overhead_ratio"] = traced_s / untraced_s
    m["trace.stage_share"] = sum(s["end"] - s["start"] for s in stages) / traced_s
    m["src.lines"] = sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py")))
    m["error_rate"] = run.failed / run.attempted
    return m


# ------------------------------------------------------------ set-up

SETUP_CHILD = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import run; "
               "print(json.dumps(run.set_up(json.loads(sys.argv[3]), int(sys.argv[4]), "
               "sys.argv[5])))")


def set_up(spec, seed, directory):
    """What a user pays before the first operation: importing the package
    and writing the input, or reading the bundled table.  Returns the
    input's facts."""
    from morphcomplexity import cli
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if spec["kind"] == "reports":
        table = cli.bundled("table2_green.csv").read_bytes()
        return {"table2_green.csv": hashlib.sha256(table).hexdigest()}
    return lexgen.write_lexicon(directory / "input.tsv", spec["pos"], spec["slots"],
                                spec["paradigms"], seed)


def timed_set_ups(spec, seed, directory):
    """Median seconds of SETUP_REPS set-ups, each in a fresh interpreter and
    timed from process start to exit, plus the input facts of each."""
    times, facts = [], []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(HERE), str(ROOT / "src"),
                               json.dumps(spec), str(seed), str(directory)],
                              capture_output=True, text=True)
        times.append(time.perf_counter() - t)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed:\n" + proc.stderr)
        facts.append(json.loads(proc.stdout))
    return statistics.median(times), facts


# ------------------------------------------------------------ entry point

def measure(name, spec, seed, seconds, trace, work=WORK):
    """Run one workload in this process; return (summary, result)."""
    import morphcomplexity.cli  # noqa: F401  (imports every layer)
    import morphcomplexity as pkg

    run = Run(pkg, name, spec, seed, work)
    setup_s, inputs = timed_set_ups(spec, seed, run.dir)
    run.facts["input"] = inputs[0]
    if any(x != inputs[0] for x in inputs):
        run.fail("generated input differs between set-ups of one seed")

    trace_metrics = None
    if trace:
        run.tracer = tr = tracing.Tracer()
        tracing.install(tr, pkg)
        try:
            traced_s = run.one_pass()
        finally:
            tr.uninstall()
            run.tracer = None
    times = []
    t_loop = time.perf_counter()
    while not times or time.perf_counter() - t_loop < seconds:
        times.append(run.one_pass())
    if trace:
        trace_metrics = per_layer(run, tr, traced_s, statistics.median(times))
        (run.dir / ("trace-seed%d.json" % seed)).write_text(json.dumps(
            {"spans": tr.spans, "counters": tr.counters, "metrics": trace_metrics},
            indent=1, sort_keys=True), encoding="utf-8")

    summary = {"workload": name, "seed": seed, "passes": len(times) + bool(trace),
               "pass_s": times, "attempted": run.attempted, "failed": run.failed,
               "error_rate": "%d/%d" % (run.failed, run.attempted),
               "errors": run.errors[:5], "digests": run.digests,
               "input": {k: v for k, v in run.facts["input"].items() if k != "inventory"},
               "point": run.facts.get("point"),
               "p_value_median": run.facts.get("p_value_median"),
               "p_value_seed0": run.facts.get("p_value_seed0")}
    if trace:
        metrics = trace_metrics
        units = PER_LAYER_UNITS
    else:
        metrics = {"setup_s": setup_s, "pipeline_s": statistics.median(times),
                   "peak_rss_mb": tracing.rss_mb(),
                   "artifact_mb": mib(run.facts["artifact_bytes"])}
        units = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MiB", "artifact_mb": "MiB"}
    shutil.rmtree(run.opdir, ignore_errors=True)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return summary, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if not (ROOT / "src" / "morphcomplexity" / "cli.py").is_file():
        print("no morphcomplexity sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    summary, result = measure(args.workload, WORKLOADS[args.workload], args.seed,
                              args.seconds, args.trace)
    print(json.dumps({"summary": summary}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
