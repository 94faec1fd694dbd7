import itertools
import math
import os
import random
import signal

import pytest
from hypothesis import given, strategies as st

from morphcomplexity import cli
from morphcomplexity.stats import (
    BLOCK, MAX_POINTS, ParetoCurve, PermTestResult, _area_of, _area_plan, forked_ranges,
    pareto_area, pareto_curve, perm_test,
)

from test_cli import children_and_fds


def grid_area(points, dx=1e-4):
    """Riemann-sum oracle for the area under the step curve."""
    max_x = max(x for x, _ in points)
    steps = int(round(max_x / dx))
    total = 0.0
    for k in range(steps):
        x = (k + 0.5) * dx
        total += max(y for px, y in points if px >= x) * dx
    return total


# ----------------------------------------------------------- curve

def test_single_point_curve():
    curve = pareto_curve([(2.0, 1.0)])
    assert curve.breakpoints == [(2.0, 1.0)]
    assert pareto_area(curve.breakpoints) == pytest.approx(2.0)


def test_two_point_staircase():
    # f = 1 on (0,1], 0.5 on (1,2]: area = 1*1 + 1*0.5 = 1.5
    pts = [(1.0, 1.0), (2.0, 0.5)]
    assert pareto_area(pts) == pytest.approx(1.5)
    curve = pareto_curve(pts)
    assert curve.value(0.5) == 1.0
    assert curve.value(1.0) == 1.0
    assert curve.value(1.5) == 0.5


def test_dominated_point_ignored():
    base = [(1.0, 1.0), (2.0, 0.5)]
    with_dominated = base + [(0.5, 0.25)]
    assert pareto_area(with_dominated) == pytest.approx(pareto_area(base))
    curve = pareto_curve(with_dominated)
    assert curve.value(0.25) == 1.0


def test_tied_x_takes_max_y():
    curve = pareto_curve([(1.0, 0.2), (1.0, 0.9)])
    assert curve.breakpoints == [(1.0, 0.9)]


def test_curve_rejects_bad_points():
    with pytest.raises(ValueError):
        pareto_curve([])
    with pytest.raises(ValueError, match="no points"):
        pareto_area([])
    with pytest.raises(ValueError):
        pareto_curve([(0.0, 1.0)])
    with pytest.raises(ValueError):
        pareto_curve([(1.0, -0.1)])


def test_value_beyond_support():
    curve = pareto_curve([(1.0, 1.0)])
    with pytest.raises(ValueError):
        curve.value(2.0)


@given(st.lists(st.tuples(st.floats(0.1, 50), st.floats(0, 10)),
                min_size=1, max_size=20))
def test_curve_is_nonincreasing_upper_bound(points):
    curve = pareto_curve(points)
    heights = [h for _, h in curve.breakpoints]
    assert all(a >= b for a, b in zip(heights, heights[1:]))
    for x, y in points:
        assert curve.value(x) >= y


# x values from a short list, so that ties are frequent, or any positive
# float down to the subnormals; y often exactly 0.0
_TIED_X = st.one_of(st.sampled_from([5e-324, 1e-310, 0.5, 1.0, 2.5]),
                    st.floats(min_value=5e-324, max_value=1e6))
_Y = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6))


@given(st.lists(st.tuples(_TIED_X, _Y), min_size=1, max_size=12))
def test_curve_is_the_staircase_oracle(points):
    """One breakpoint per distinct x, ascending, at the largest y of the
    points at that x or to its right, float for float."""
    xs = [x for x, _ in points]
    assert pareto_curve(points).breakpoints == [
        (x, max(y for x2, y in points if x2 >= x)) for x in sorted(set(xs))]


def test_area_matches_grid_oracle():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randint(1, 12)
        points = [(rng.uniform(0.5, 12.0), rng.uniform(0.0, 5.0)) for _ in range(n)]
        assert pareto_area(points) == pytest.approx(grid_area(points), abs=1e-3)


def test_area_order_invariant():
    rng = random.Random(1)
    points = [(rng.uniform(0.5, 10), rng.uniform(0, 3)) for _ in range(10)]
    a = pareto_area(points)
    for _ in range(5):
        rng.shuffle(points)
        assert pareto_area(points) == pytest.approx(a, abs=1e-12)


# ----------------------------------------------------------- permutation test

def test_perm_test_constant_y_is_one():
    points = [(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)]
    res = perm_test(points, n_perm=500, seed=0)
    assert res.p_value == 1.0
    assert res.count_leq == 500


def test_perm_test_decreasing_y_small_p():
    # a clean trade-off: every permutation other than near-identities
    # inflates the area
    points = [(float(i + 1), 10.0 - i) for i in range(10)]
    res = perm_test(points, n_perm=2000, seed=0)
    assert res.p_value < 0.01


def test_perm_test_increasing_y_large_p():
    points = [(float(i + 1), float(i)) for i in range(10)]
    res = perm_test(points, n_perm=500, seed=0)
    assert res.p_value > 0.5


def test_perm_test_deterministic():
    rng = random.Random(3)
    points = [(rng.uniform(1, 20), rng.uniform(0, 5)) for _ in range(8)]
    a = perm_test(points, n_perm=300, seed=7)
    b = perm_test(points, n_perm=300, seed=7)
    assert a.p_value == b.p_value and a.count_leq == b.count_leq


def test_perm_test_needs_three_points():
    with pytest.raises(ValueError):
        perm_test([(1.0, 1.0), (2.0, 0.5)], n_perm=10, seed=0)
    with pytest.raises(ValueError):
        perm_test([(1.0, 1.0), (2.0, 0.5), (3.0, 0.1)], n_perm=0, seed=0)


def test_perm_test_p_value_bounds_and_addone():
    rng = random.Random(5)
    points = [(rng.uniform(1, 9), rng.uniform(0, 4)) for _ in range(6)]
    res = perm_test(points, n_perm=200, seed=1)
    assert 0 < res.p_value <= 1
    assert res.p_value == (res.count_leq + 1) / (res.n_perm + 1)


def test_perm_test_observed_area_matches_pareto_area():
    rng = random.Random(9)
    points = [(rng.uniform(1, 9), rng.uniform(0, 4)) for _ in range(7)]
    res = perm_test(points, n_perm=10, seed=0)
    assert res.observed_area == pytest.approx(pareto_area(points), abs=1e-12)


def test_perm_test_brute_force_small():
    """With 3 points, compare against exhaustive enumeration of all 6
    permutations: Monte Carlo count_leq/n_perm should approach the exact
    fraction."""
    import itertools
    points = [(1.0, 3.0), (2.0, 1.0), (3.0, 2.0)]
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    observed = pareto_area(points)
    exact = sum(
        1 for perm in itertools.permutations(ys)
        if pareto_area(list(zip(xs, perm))) <= observed) / 6
    res = perm_test(points, n_perm=6000, seed=0)
    assert res.count_leq / res.n_perm == pytest.approx(exact, abs=0.03)


TABLE2_COUNTS = {   # count_leq of 10,000 replicas at seeds 0-19
    "N": [685, 658, 698, 716, 671, 683, 705, 692, 650, 686,
          643, 694, 672, 665, 705, 643, 686, 659, 690, 686],
    "V": [155, 155, 146, 162, 146, 146, 121, 153, 161, 141,
          161, 143, 142, 172, 155, 148, 134, 165, 154, 123],
}


def test_perm_test_pins_the_table2_stream():
    """The replica stream on the bundled table 2, over the seeds 0-19 of
    criterion 1 and of the reports benchmark: a faster shuffle or another cut
    of the blocks into ranges must not move a count (criterion 1 reads N at
    seed 0 as p = 686 / 10001 = 0.0686)."""
    with open(cli.bundled("table2_green.csv"), encoding="utf-8") as fh:
        by_pos = cli._read_points(fh)
    for pos, counts in TABLE2_COUNTS.items():
        assert [perm_test(by_pos[pos], n_perm=10000, seed=seed).count_leq
                for seed in range(20)] == counts


def exact_p_leq(points):
    """P(area <= observed) over the n! orderings of the y values, the
    probability that one replica of `perm_test` counts, exact but for float
    rounding in the sum of the probabilities.

    By descending x (`_area_plan`), the height at position k is the value of
    the running maximum's rank among the sorted ys, a Markov chain: from
    rank r after k draws (r = -1 before any) it stays with probability
    (r + 1 - k) / (n - k), and moves to each higher rank with probability
    1 / (n - k).  A dict maps (rank, partial area) to probability, each area
    summed as `_area_of` sums it.  Partial areas never fall, so a path above
    the observed area is dropped, and one that the largest y at every
    remaining position cannot lift past it is counted at once.  Table 2's
    nouns (18 rows) give 0.068300 in about 2 s; its verbs (33 rows) give
    0.015239 in about 14 s on a 2-vCPU Xeon, too slow for this suite."""
    plan = _area_plan([x for x, _ in points])
    widths = [w for _, w in plan]
    ys = sorted(y for _, y in points)
    n = len(ys)
    observed = _area_of(plan, [y for _, y in points])
    tail = [0.0] * (n + 1)   # the most that positions k.. can add
    for k in range(n - 1, -1, -1):
        tail[k] = tail[k + 1] + widths[k] * ys[-1]
    leq, states = 0.0, {(-1, 0.0): 1.0}
    for k, w in enumerate(widths):
        nxt = {}
        for (r, area), p in states.items():
            p /= n - k
            # the stay (none when r = k - 1: the k draws were the k lowest), then each higher rank
            for rank in range(r if r >= k else r + 1, n):
                a = area + w * ys[rank]
                if a > observed:
                    break   # and so is every higher rank's
                q = p * (r + 1 - k) if rank == r else p
                if (a + tail[k + 1]) * (1 + 1e-12) <= observed:   # the margin covers rounding
                    leq += q
                else:
                    nxt[rank, a] = nxt.get((rank, a), 0.0) + q
        states = nxt
    return leq + sum(states.values())


def brute_p_leq(points):
    plan = _area_plan([x for x, _ in points])
    ys = [y for _, y in points]
    observed = _area_of(plan, ys)
    perms = list(itertools.permutations(ys))
    return sum(_area_of(plan, list(perm)) <= observed for perm in perms) / len(perms)


def tied_scatter(rng, n):
    """n points whose x and y values are drawn from few values, so both tie."""
    return [(float(rng.choice([1, 2, 3, 5, 8])), float(rng.choice([0, 1, 2, 3])) + rng.choice(
        [0.0, rng.random()])) for _ in range(n)]


def test_exact_p_matches_brute_force():
    """The DP gives the share of all n! orderings, on 200 scatters of 3-7
    points with tied x and tied y."""
    rng = random.Random(15)
    for _ in range(200):
        points = tied_scatter(rng, rng.randint(3, 7))
        assert exact_p_leq(points) == pytest.approx(brute_p_leq(points), abs=1e-12), points


def test_perm_test_is_within_four_standard_errors_of_the_exact_p():
    """count_leq / n_perm, the Monte Carlo estimate of P(area <= observed),
    lies within 4 standard errors plus 1 / n_perm of the exact value."""
    rng = random.Random(23)
    n_perm = 2000
    for seed in range(20):
        points = tied_scatter(rng, rng.randint(3, 8))
        exact = exact_p_leq(points)
        res = perm_test(points, n_perm=n_perm, seed=seed)
        se = math.sqrt(exact * (1 - exact) / n_perm)
        assert abs(res.count_leq / n_perm - exact) <= 4 * se + 1 / n_perm, points


def test_table2_stream_is_within_four_standard_errors_of_the_exact_p():
    """Criterion 1's own data: at each seed 0-19 the pinned count over
    10,000 replicas lies within 4 standard errors plus 1 / n_perm of the
    exact P(area <= observed), 0.068300 for the nouns and 0.015239 for the
    verbs (`exact_p_leq`; the verbs' takes 14 s, so both are constants)."""
    n_perm = 10000
    for pos, exact in [("N", 0.068300), ("V", 0.015239)]:
        se = math.sqrt(exact * (1 - exact) / n_perm)
        for count in TABLE2_COUNTS[pos]:
            assert abs(count / n_perm - exact) <= 4 * se + 1 / n_perm, (pos, count)


def test_exact_p_of_the_table2_nouns():
    """Criterion 1's nouns: the exact P(area <= observed) is 0.068300, above
    the criterion's 0.05, so no seed or replica count can pass it."""
    with open(cli.bundled("table2_green.csv"), encoding="utf-8") as fh:
        nouns = cli._read_points(fh)["N"]
    assert exact_p_leq(nouns) == pytest.approx(0.068300, abs=1e-6)


@pytest.mark.parametrize("bad", [(math.nan, 1.0), (1.0, math.nan), (0.0, 1.0), (-2.0, 1.0),
                                 (1.0, -0.5), (math.inf, 1.0), (1.0, math.inf)])
def test_perm_test_rejects_bad_points(bad):
    """perm_test checks its points as pareto_area does: x > 0 keeps every
    width >= 0, so the replicas' early stop stays exact."""
    with pytest.raises(ValueError, match="finite x > 0 and y >= 0"):
        perm_test([bad, (2.0, 3.0), (3.0, 1.0)], n_perm=100, seed=0)


def serial_perm_test(points, n_perm, seed):
    """The block stream by `random.shuffle`: block b's replicas each shuffle
    a fresh copy of the ys, in turn, with one random.Random(seed * 1000003 + b)."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    observed = pareto_area(points)
    count = 0
    for b in range(math.ceil(n_perm / BLOCK)):
        rng = random.Random(seed * 1000003 + b)
        for _ in range(b * BLOCK, min(n_perm, (b + 1) * BLOCK)):
            yy = ys[:]
            rng.shuffle(yy)
            count += pareto_area(list(zip(xs, yy))) <= observed
    return PermTestResult(observed_area=observed, n_perm=n_perm, count_leq=count,
                          p_value=(count + 1) / (n_perm + 1), seed=seed)


@pytest.mark.parametrize("cpus", [None, 1, 2, 3])
def test_perm_test_does_not_depend_on_worker_count(monkeypatch, cpus):
    """One worker per CPU the process may run on, capped at the number of
    blocks of BLOCK replicas; only the workers after the first are forked,
    so one CPU or one block forks none.  Without os.sched_getaffinity
    (cpus None) there is one worker."""
    points = [(1.0, 3.0), (2.0, 1.0), (2.0, 2.5), (3.0, 2.0), (5.0, 0.5), (6.0, 1.5)]
    forks = []
    fork = os.fork
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for n_perm in (1, 2, 3, 7, 99, 100, 101, 250, 500):
        for seed in (0, 5):
            forks.clear()
            assert perm_test(points, n_perm=n_perm, seed=seed) == \
                serial_perm_test(points, n_perm, seed)
            assert len(forks) == min(cpus or 1, math.ceil(n_perm / BLOCK)) - 1


# x values from a few ties and a float range; y values 0 or a float
scatters = st.lists(
    st.tuples(st.one_of(st.sampled_from([1.0, 2.0, 3.5]), st.floats(0.01, 100.0)),
              st.one_of(st.just(0.0), st.floats(0.0, 100.0))),
    min_size=3, max_size=40)


@given(points=scatters, n_perm=st.integers(1, 250), seed=st.integers(0, 10**6))
def test_perm_test_matches_random_shuffle(points, n_perm, seed):
    """The replica kernel draws the permutations random.shuffle draws, and
    counts and sums areas as the reference does, bit for bit, across the
    boundaries of the blocks."""
    assert perm_test(points, n_perm=n_perm, seed=seed) == serial_perm_test(points, n_perm, seed)


@given(points=scatters, seed=st.integers(0, 10**6), bound=st.floats(0.0, 1e4))
def test_area_early_stop_is_exact(points, seed, bound):
    """A bounded area compares with its bound as the full area does, for a
    drawn bound and for the exact area of another permutation."""
    plan = _area_plan([x for x, _ in points])
    ys = [y for _, y in points]
    other = ys[:]
    random.Random(seed).shuffle(other)
    for b in (bound, _area_of(plan, other)):
        assert (_area_of(plan, ys, b) <= b) == (_area_of(plan, ys) <= b)


# x: a few tied values, subnormals among them, or any float up to 1e300; y: 0.0,
# the least subnormal or any float up to 1e300, so that x * y underflows and overflows
extreme_scatters = st.lists(
    st.tuples(st.one_of(st.sampled_from([5e-324, 1e-310, 1.0, 2.5]),
                        st.floats(5e-324, 1e300)),
              st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0.0, 1e300))),
    min_size=3, max_size=40)


@given(points=extreme_scatters, n_perm=st.integers(1, 250), seed=st.integers(0, 10**6))
def test_early_rejection_keeps_every_count_at_float_extremes(points, n_perm, seed):
    """The lower bound that rejects a replica before its area is summed never
    rejects one whose summed area is <= the observed one, even where the
    products underflow to subnormals or 0 or overflow to inf."""
    assert perm_test(points, n_perm=n_perm, seed=seed) == serial_perm_test(points, n_perm, seed)


@pytest.mark.parametrize("points", [
    # two y values over tied x: every replica with a 1.1 at x = 0.7 has the
    # observed area, 0.7699999999999999, whose bound sums to 0.77
    [(x, y) for x in (0.7, 0.2, 0.1) for y in (1.1, 1.1, 1.1, 0.5)],
    [(x, y) for x in (0.9, 0.9, 0.6, 0.2, 0.2) for y in (1.1, 1e-3)],
    # each width times 5e-324 rounds to 0.0, so every area is 0.0, while
    # 5e-324 times the largest x does not
    [(x, y) for x in (1.0, 0.6, 0.2) for y in (5e-324, 0.0)],
    # all-zero y: every replica has the observed area 0.0
    [(x, 0.0) for x in (3.0, 1.0, 1.0, 0.5)],
])
def test_early_rejection_keeps_exact_ties(points):
    """Scatters where most replicas tie the observed area exactly: each tie
    is counted, as the reference's full sums count it."""
    for seed in (0, 1, 2):
        res = perm_test(points, n_perm=250, seed=seed)
        assert res == serial_perm_test(points, 250, seed)
        assert res.count_leq > 125


def test_perm_test_caps_the_point_count():
    """Beyond MAX_POINTS points the float error of the early rejection is
    no longer far below its margin, so perm_test refuses them."""
    with pytest.raises(ValueError, match="needs 3 to %d points" % MAX_POINTS):
        perm_test([(1.0, 1.0)] * (MAX_POINTS + 1), n_perm=1, seed=0)


@pytest.mark.parametrize("parent_fails", [False, True])
def test_forked_ranges_with_children_blocked_on_full_pipes(monkeypatch, parent_fails):
    """Children whose records overfill their pipes wait until this process
    reads them, in range order; if this process's own range fails first, it
    closes every read end before it reaps, so the blocked children end and
    its own error is the one raised."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    big = [float(i) for i in range(100000)]

    def work(start, stop):
        if start == 0 and parent_fails:
            raise ValueError("parent range failed")
        yield [start, stop]
        yield big

    before = children_and_fds()
    previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("waits on a blocked child"))
    signal.alarm(60)
    try:
        if parent_fails:
            with pytest.raises(ValueError, match="parent range failed"):
                list(forked_ranges(3, work))
        else:
            assert list(forked_ranges(3, work)) == [[0, 1], big, [1, 2], big, [2, 3], big]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert children_and_fds() == before == (False, before[1])


def test_forked_ranges_sends_any_marshallable_record(monkeypatch):
    """A child's records cross its pipe whatever their type, so long as
    marshal dumps them: a str record is a record, not an error message.  A
    record that marshal cannot dump is the worker's fault, not the input's:
    it raises ChildProcessError, not ValueError.  No child or pipe is left."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    before = children_and_fds()
    assert forked_ranges(4, lambda start, stop: ["a str", (start, stop)]) == [
        "a str", (0, 2), "a str", (2, 4)]
    with pytest.raises(ChildProcessError, match=r"status 1: .*unmarshallable object"):
        forked_ranges(4, lambda start, stop: [object()] if start else [])
    assert children_and_fds() == before == (False, before[1])


def test_result_json_fields():
    res = PermTestResult(observed_area=1.5, n_perm=100, count_leq=4,
                         p_value=0.0495, seed=2)
    assert res.to_json() == {"observed_area": 1.5, "n_perm": 100,
                             "count_leq": 4, "p_value": 0.0495, "seed": 2}
