"""Smoke check of the benchmark at a few slots; finishes in seconds.

    python3 perfbench/smoke.py

Runs every workload kind at toy sizes, untraced and traced, and checks that
each result prints exactly the metrics and units listed in BENCHMARK.json
and that the outputs passed their checks.  Exits 0 on success.
"""

import json
import sys

import run

SMALL = {
    "staged-purple-32": {"kind": "staged", "pos": "N", "slots": 4, "paradigms": 60,
                         "paradigm_count": 30, "dev": 5, "test": 5},
    "run-green-112": {"kind": "run", "pos": "V", "slots": 6, "paradigms": 40,
                      "pair_count": 300, "dev": 5, "test": 5},
    "reports-table2": {"kind": "reports", "perm_seeds": 2, "n_perm": 200, "trials": 5},
}


def main():
    run.os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        listed = json.load(fh)
    problems = []
    for name, spec in SMALL.items():
        for trace in (0, 1):
            before = len(problems)
            summary, result = run.measure(name, spec, seed=1, seconds=0, trace=trace,
                                          work=run.WORK / "smoke")
            json.dumps(result)
            want = {m["name"]: m["unit"]
                    for m in listed["per_layer" if trace else "end_to_end"]}
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append("%s trace=%d: %s" % (name, trace, summary["errors"]))
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append("%s trace=%d: metrics differ from BENCHMARK.json: %s"
                                % (name, trace, sorted(set(got.items()) ^ set(want.items()))))
            if not trace and any(m["value"] <= 0 for m in result["metrics"].values()):
                problems.append("%s: an end-to-end metric is not positive" % name)
            if trace and abs(result["metrics"]["trace.stage_share"]["value"] - 1) > 0.05:
                problems.append("%s: stage spans do not cover the traced pass" % name)
            print("%s trace=%d ok=%s" % (name, trace, len(problems) == before))
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
