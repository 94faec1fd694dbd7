"""Pareto step curve, area under it, and the Monte Carlo permutation test."""

import math
import os
import random
from dataclasses import dataclass


@dataclass
class ParetoCurve:
    """Step function f(x) = max{y_i : x_i >= x}, as (x, height) breakpoints.

    breakpoints are sorted by x ascending; the height applies on the
    interval (previous x, x], starting from 0.  f is non-increasing and
    upper-bounds every input point.
    """
    breakpoints: list

    def value(self, x):
        for bx, by in self.breakpoints:
            if x <= bx:
                return by
        raise ValueError("x=%g beyond the last breakpoint" % x)


@dataclass
class PermTestResult:
    observed_area: float
    n_perm: int
    count_leq: int
    p_value: float
    seed: int

    def to_json(self):
        return {"observed_area": self.observed_area, "n_perm": self.n_perm,
                "count_leq": self.count_leq, "p_value": self.p_value, "seed": self.seed}


def check_point(x, y):
    """Raise ValueError unless the point has finite x > 0 and y >= 0."""
    if not (0 < x < math.inf and 0 <= y < math.inf):
        raise ValueError("points must have finite x > 0 and y >= 0: (%g, %g)" % (x, y))


def pareto_curve(points):
    """Tightest non-increasing step function upper-bounding all points."""
    if not points:
        raise ValueError("no points")
    for x, y in points:
        check_point(x, y)
    best = []
    height = 0.0
    for x, y in sorted(points, key=lambda p: -p[0]):
        height = max(height, y)
        if best and best[-1][0] == x:
            best[-1] = (x, height)
        else:
            best.append((x, height))
    best.reverse()
    return ParetoCurve(breakpoints=best)


def pareto_area(points):
    """Exact rectangle integral of the step curve over (0, max x], summed as
    `perm_test` sums its observed area."""
    if not points:
        raise ValueError("no points")
    for x, y in points:
        check_point(x, y)
    return _area_of(*_area_plan([x for x, _ in points]), [y for _, y in points])


def _area_plan(xs):
    """Precomputed iteration plan for areas of permuted scatters.

    Returns (order, widths): point indices sorted by descending x and the
    rectangle width attached to each position (zero between tied x values,
    the last width reaching down to 0).
    """
    order = sorted(range(len(xs)), key=lambda i: -xs[i])
    widths = []
    for k, i in enumerate(order):
        nxt = xs[order[k + 1]] if k + 1 < len(order) else 0.0
        widths.append(xs[i] - nxt)
    return order, widths


def _area_of(order, widths, ys):
    area = 0.0
    height = 0.0
    for i, w in zip(order, widths):
        if ys[i] > height:
            height = ys[i]
        area += w * height
    return area


def _count_leq(order, widths, ys, observed, seed, start, stop):
    """How many replicas in range(start, stop) have area <= observed."""
    count = 0
    for rep in range(start, stop):
        rng = random.Random(seed * 1000003 + rep)
        yy = ys[:]
        rng.shuffle(yy)
        if _area_of(order, widths, yy) <= observed:
            count += 1
    return count


def _report_count(w, args, start, stop):
    """In a forked child: write the count of replicas [start, stop) as a line
    to the pipe end w and exit 0, or write the error and exit 1."""
    try:
        os.write(w, b"%d\n" % _count_leq(*args, start, stop))
        os._exit(0)
    except BaseException as e:
        os.write(w, ascii(e).encode()[:500] + b"\n")
    finally:
        os._exit(1)


def perm_test(points, n_perm=10000, seed=0):
    """Monte Carlo permutation test for emptiness of the upper-right corner.

    Permutes the y values uniformly at random (Fisher-Yates via
    random.shuffle) and counts how often the permuted scatter's Pareto area
    is <= the observed one; the p-value is add-one smoothed so it is never
    exactly 0.  Each replica draws its permutation from an RNG stream keyed
    by (seed, replica index), so the result does not depend on evaluation
    order.  The replicas are cut into one contiguous range per CPU the
    process may run on, and a forked child counts each range but the first,
    so the result does not depend on the number of CPUs either.  A failed
    child raises ChildProcessError; no child or pipe outlives the call.
    """
    if len(points) < 3:
        raise ValueError("permutation test needs at least 3 points, got %d" % len(points))
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    order, widths = _area_plan(xs)
    observed = _area_of(order, widths, ys)
    # without an affinity call (macOS, Windows) the replicas are counted here
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(n_perm, cpus)
    cuts = [n_perm * k // workers for k in range(workers + 1)]
    args, pids = (order, widths, ys, observed, seed), []
    r, w = os.pipe()
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            pid = os.fork()
            if pid == 0:
                _report_count(w, args, start, stop)
            pids.append(pid)
        count = _count_leq(*args, 0, cuts[1])
    finally:
        os.close(w)
        with open(r, "rb") as fh:
            lines = fh.read().splitlines()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):
        raise ChildProcessError("permutation workers exited with status %s: %s" % (
            codes, "; ".join(x.decode() for x in lines if not x.isdigit())))
    count += sum(map(int, lines))
    return PermTestResult(observed_area=observed, n_perm=n_perm, count_leq=count,
                          p_value=(count + 1) / (n_perm + 1), seed=seed)
