"""Pareto step curve, area under it, the Monte Carlo permutation test, and
`forked_ranges`, the helper that works a range of items on every CPU."""

import marshal
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
    return _area_of(_area_plan([x for x, _ in points]), [y for _, y in points])


def _area_plan(xs):
    """Precomputed iteration plan for areas of permuted scatters.

    Returns (index, width) pairs: point indices by descending x, each with
    the rectangle width attached to its position (zero between tied x
    values, the last width reaching down to 0).
    """
    order = sorted(range(len(xs)), key=lambda i: -xs[i])
    below = [xs[i] for i in order[1:]] + [0.0]
    return [(i, xs[i] - x) for i, x in zip(order, below)]


def _area_of(plan, ys, bound=math.inf):
    """Area under the step curve of the plan's x values and ys, or the first
    partial sum above bound: with `check_point`'s x > 0 and y >= 0 the
    partial sums never fall, so comparing either with bound is the same."""
    area = 0.0
    height = 0.0
    for i, w in plan:
        if ys[i] > height:
            height = ys[i]
        area += w * height
        if area > bound:
            break
    return area


def _count_leq(plan, ys, observed, seed, start, stop):
    """How many replicas in range(start, stop) have area <= observed.

    Replica rep shuffles ys with the draws of
    random.Random(seed * 1000003 + rep).shuffle: its loop, with each
    _randbelow(i + 1) inlined as getrandbits((i + 1).bit_length()) redrawn
    while above i, from one generator reseeded per replica.
    """
    rng = random.Random()
    # the C seed: Random.seed's wrapper only checks the type and clears gauss_next
    reseed, getrandbits = super(random.Random, rng).seed, rng.getrandbits
    steps = [(i, (i + 1).bit_length()) for i in range(len(ys) - 1, 0, -1)]
    count = 0
    for rep in range(start, stop):
        reseed(seed * 1000003 + rep)
        yy = ys[:]
        for i, k in steps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            yy[i], yy[j] = yy[j], yy[i]
        if _area_of(plan, yy, observed) <= observed:
            count += 1
    return count


def forked_ranges(n, work):
    """The records of work(start, stop) for one contiguous range of range(n)
    per CPU the process may run on (at most n, at least one), joined in
    range order in one list.

    The first range is worked here, before any child is read.  Each later
    range is worked in a forked child, which sends its records in one
    `marshal` message through its own pipe (`_work_in_child`); a record may
    be anything marshal dumps.  A ValueError in a child is raised here in
    its turn, after the ranges before it, and a child that fails otherwise
    or dies raises ChildProcessError naming its status.  Every read end is
    closed before any child is reaped, so a child blocked on a full pipe
    cannot hang this process, and no child or pipe outlives the call.
    Without an affinity call (macOS, Windows) all of range(n) is worked here.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = max(1, min(n, cpus))
    cuts = [n * k // workers for k in range(workers + 1)]
    readers, pids = [], []
    try:
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            r, w = os.pipe()
            readers.append(open(r, "rb"))
            with open(w, "wb") as out:
                pid = os.fork()
                if pid == 0:
                    _work_in_child(work, start, stop, out, readers)
            pids.append(pid)
        records = list(work(0, cuts[1]))
        while pids:
            with readers.pop(0) as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(0), 0)[1])
            if code:
                # only status 1 comes with a message, in ASCII; a killed
                # child's bytes are never parsed
                raise ChildProcessError("a forked worker exited with status %d: %s" % (
                    code, code == 1 and data.decode("ascii", "replace") or "no message"))
            ok, value = marshal.loads(data)
            if not ok:
                raise ValueError(value)
            records += value
        return records
    finally:
        for fh in readers:
            fh.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _work_in_child(work, start, stop, out, readers):
    """In a forked child: close the parent's read ends, work(start, stop)
    and write one `marshal` message to `out`, (True, records) or, for a
    ValueError, (False, its message), then exit 0.  Any other error, a
    record that marshal cannot dump among them, writes its message in ASCII
    and exits 1; anything else exits 1 at once."""
    try:
        for fh in readers:
            fh.close()
        try:
            try:
                message = True, list(work(start, stop))
            except ValueError as e:
                message = False, str(e)
            data, status = marshal.dumps(message), 0
        except Exception as e:
            data, status = ascii(e)[:500].encode(), 1
        out.write(data)
        out.flush()
        os._exit(status)
    finally:
        os._exit(1)


def perm_test(points, n_perm, seed):
    """Monte Carlo permutation test for emptiness of the upper-right corner.

    Permutes the y values uniformly at random (Fisher-Yates, with the draws
    of random.shuffle) and counts how often the permuted scatter's Pareto
    area is <= the observed one; the p-value is add-one smoothed so it is never
    exactly 0.  Each replica draws its permutation from an RNG stream keyed
    by (seed, replica index), so the result does not depend on evaluation
    order, nor on how many CPUs count the replicas: `forked_ranges` cuts
    them into one range per CPU and counts each in its own process.
    """
    if len(points) < 3:
        raise ValueError("permutation test needs at least 3 points, got %d" % len(points))
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    for x, y in points:
        check_point(x, y)
    ys = [y for _, y in points]
    plan = _area_plan([x for x, _ in points])
    observed = _area_of(plan, ys)
    count = sum(forked_ranges(n_perm, lambda start, stop: [
        _count_leq(plan, ys, observed, seed, start, stop)]))
    return PermTestResult(observed_area=observed, n_perm=n_perm, count_leq=count,
                          p_value=(count + 1) / (n_perm + 1), seed=seed)
