import io
import math
import random

import pytest

from morphcomplexity.cli import main
from morphcomplexity.platbaseline import (
    EMPTY_MARKS, Plat, avg_cond_entropy, cond_dist, cond_entropies, cond_entropy,
    joint_per_form_entropy, marginal, mean_cond_entropy, parse_plat,
)


def brute_cond_entropy(plat, slot_i, slot_j):
    """Independent oracle: enumerate the (class, class) joint directly.

    H(i|j) = -sum_{e_i, e_j} p(e_i, e_j) log2 p(e_i | e_j), with the joint
    induced by the class weights.
    """
    si = plat.slots.index(slot_i)
    sj = plat.slots.index(slot_j)
    joint = {}
    for c, row in enumerate(plat.exponent):
        key = (row[si], row[sj])
        joint[key] = joint.get(key, 0.0) + plat.weights[c]
    pj = {}
    for (_, ej), p in joint.items():
        pj[ej] = pj.get(ej, 0.0) + p
    h = 0.0
    for (ei, ej), p in joint.items():
        if p > 0:
            h -= p * math.log2(p / pj[ej])
    return h


def random_plat(rng, n_classes, n_slots, n_exponents=3, weighted=False):
    exponent = [[("e%d" % rng.randrange(n_exponents)) for _ in range(n_slots)]
                for _ in range(n_classes)]
    weights = None
    if weighted:
        raw = [rng.random() + 0.01 for _ in range(n_classes)]
        weights = [w / sum(raw) for w in raw]
    return Plat(classes=["c%d" % i for i in range(n_classes)],
                slots=["s%d" % i for i in range(n_slots)],
                exponent=exponent, weights=weights)


# ----------------------------------------------------------- parsing

def test_parse_greek_plat_shape(greek_plat):
    assert len(greek_plat.classes) == 8
    assert len(greek_plat.slots) == 8
    assert greek_plat.slots[0] == "NOM;SG"
    assert all(w == pytest.approx(0.125) for w in greek_plat.weights)


def test_parse_empty_marks():
    plat = parse_plat(io.StringIO("class\tA\tB\tC\nc1\t∅\t-\tx\n"))
    assert plat.exponent[0] == ["", "", "x"]
    assert EMPTY_MARKS == {"∅", "-", ""}


def test_parse_weight_column():
    plat = parse_plat(io.StringIO(
        "class\tweight\tA\tB\nc1\t0.75\tx\ty\nc2\t0.25\tz\ty\n"))
    assert plat.weights == [0.75, 0.25]
    assert plat.exponent == [["x", "y"], ["z", "y"]]


def test_parse_errors():
    with pytest.raises(ValueError, match="needs a header row"):
        parse_plat(io.StringIO("class\tA\n"))
    with pytest.raises(ValueError, match="expected 3 fields"):
        parse_plat(io.StringIO("class\tA\tB\nc1\tonlyone\n"))
    # two equal columns named A would give H(A | B) twice and divide by n^2 - n
    # over three slots
    with pytest.raises(ValueError, match="plat header is not a list of distinct slot names"):
        parse_plat(io.StringIO("class\tA\tA\tB\nc1\tx\tx\tz\nc2\ty\ty\tz\n"))
    # a header of the class column alone: no per-form entropy to divide
    with pytest.raises(ValueError, match="at least one slot"):
        parse_plat(io.StringIO("class\nc1\nc2\n"))


def test_parse_crlf_equals_lf():
    """A plat with CRLF line ends parses as its LF text does: no slot name,
    exponent or weight keeps the carriage return."""
    text = "class\tweight\tA\tB\nc1\t0.75\tx\ty\nc2\t0.25\tz\t-\n"
    crlf = parse_plat(io.StringIO(text.replace("\n", "\r\n"), newline=""))
    assert crlf == parse_plat(io.StringIO(text))
    assert crlf.slots == ["A", "B"]


def test_plat_weight_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        Plat(classes=["a", "b"], slots=["s"], exponent=[["x"], ["y"]],
             weights=[0.7, 0.7])
    with pytest.raises(ValueError, match="one weight per class"):
        Plat(classes=["a"], slots=["s"], exponent=[["x"]], weights=[0.5, 0.5])
    with pytest.raises(ValueError, match="every class row must fill every slot"):
        Plat(classes=["a", "b"], slots=["s", "t"], exponent=[["x", "y"], ["z"]])
    for weights in ([float("nan"), 0.5], [1.5, -0.5], [float("inf"), 0.0]):
        with pytest.raises(ValueError, match="finite, >= 0"):
            Plat(classes=["a", "b"], slots=["s"], exponent=[["x"], ["y"]], weights=weights)


# ----------------------------------------------------------- Greek fixture

def test_greek_gen_sg_given_acc_pl_i(greek_plat):
    # acc;pl in -i picks out exactly one class, so gen;sg is deterministic
    dist = cond_dist(greek_plat, "GEN;SG", "ACC;PL", "i")
    assert dist == {"us": 1.0}


def test_greek_nom_sg_given_acc_pl_a(greek_plat):
    # acc;pl in -a is compatible with three classes: two zero-marked
    # nominatives and one in -o
    dist = cond_dist(greek_plat, "NOM;SG", "ACC;PL", "a")
    assert dist == {"": 2 / 3, "o": 1 / 3}


def test_greek_component_entropy(greek_plat):
    dist = cond_dist(greek_plat, "NOM;SG", "ACC;PL", "a")
    h = -sum(p * math.log2(p) for p in dist.values())
    assert h == pytest.approx(0.9182958340544896, abs=1e-6)


def test_greek_cond_entropy_matches_oracle(greek_plat):
    for i in greek_plat.slots:
        for j in greek_plat.slots:
            if i != j:
                assert cond_entropy(greek_plat, i, j) == pytest.approx(
                    brute_cond_entropy(greek_plat, i, j), abs=1e-9)


def test_greek_avg_is_mean_of_pairs(greek_plat):
    vals = [cond_entropy(greek_plat, i, j)
            for i in greek_plat.slots for j in greek_plat.slots if i != j]
    assert len(vals) == 8 * 8 - 8
    assert avg_cond_entropy(greek_plat) == pytest.approx(sum(vals) / len(vals))


# ----------------------------------------------------------- random plats

def test_cond_dist_sums_to_one():
    rng = random.Random(0)
    for _ in range(30):
        plat = random_plat(rng, rng.randint(2, 6), rng.randint(2, 5),
                           weighted=rng.random() < 0.5)
        for j in plat.slots:
            for ej in marginal(plat, j):
                dist = cond_dist(plat, plat.slots[0], j, ej)
                assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
                assert all(p > 0 for p in dist.values())


def test_cond_entropy_oracle_random():
    rng = random.Random(1)
    for _ in range(40):
        plat = random_plat(rng, rng.randint(2, 8), rng.randint(2, 5),
                           n_exponents=rng.randint(2, 4),
                           weighted=rng.random() < 0.5)
        for i in plat.slots:
            for j in plat.slots:
                if i != j:
                    assert cond_entropy(plat, i, j) == pytest.approx(
                        brute_cond_entropy(plat, i, j), abs=1e-9)


def test_joint_bounded_by_star_decomposition():
    # chain rule: H(rows) <= H(e_j) + sum_i H(e_i | e_j) for any hub slot j,
    # so the per-form joint never exceeds any star-shaped upper bound
    def entropy(dist):
        return -sum(p * math.log2(p) for p in dist.values() if p > 0)

    rng = random.Random(2)
    for _ in range(60):
        plat = random_plat(rng, rng.randint(2, 8), rng.randint(2, 5),
                           weighted=rng.random() < 0.5)
        n = len(plat.slots)
        for hub in plat.slots:
            star = entropy(marginal(plat, hub)) + sum(
                cond_entropy(plat, i, hub) for i in plat.slots if i != hub)
            assert joint_per_form_entropy(plat) <= star / n + 1e-9


def test_suppletion_inflates_avg_but_not_joint():
    base = Plat(classes=["c1", "c2"], slots=["A", "B", "C"],
                exponent=[["x", "y", "z"], ["p", "q", "r"]])
    # same two classes, but now every slot pair identifies the class, so the
    # conditional entropies collapse while the joint stays at 1 bit total
    assert joint_per_form_entropy(base) == pytest.approx(1.0 / 3)
    assert avg_cond_entropy(base) == pytest.approx(0.0)
    mixed = Plat(classes=["c1", "c2"], slots=["A", "B", "C"],
                 exponent=[["x", "y", "z"], ["x", "y", "r"]])
    # classes share A and B, so only C is informative; the average now pays
    # for the uninformative pairs while the joint is unchanged
    assert joint_per_form_entropy(mixed) == pytest.approx(1.0 / 3)
    assert avg_cond_entropy(mixed) > 0.0


def test_cond_entropy_same_slot_rejected(greek_plat):
    with pytest.raises(ValueError, match="given itself is excluded"):
        cond_entropy(greek_plat, "NOM;SG", "NOM;SG")


def test_cond_dist_unknown_exponent(greek_plat):
    with pytest.raises(ValueError, match="does not occur in column"):
        cond_dist(greek_plat, "NOM;SG", "ACC;PL", "zzz")


def test_zero_weight_class_adds_nothing():
    """An exponent seen only in a zero-weight class has mass 0 and no
    conditional distribution; it is skipped, not an error."""
    plat = parse_plat(io.StringIO("class\tweight\tS1\tS2\nc1\t0\ta\tb\nc2\t1\tc\td\n"))
    assert cond_entropy(plat, "S1", "S2") == 0.0
    assert cond_entropy(plat, "S2", "S1") == 0.0
    assert avg_cond_entropy(plat) == 0.0


def test_avg_needs_two_slots():
    plat = Plat(classes=["c"], slots=["A"], exponent=[["x"]])
    with pytest.raises(ValueError, match="at least 2 slots"):
        avg_cond_entropy(plat)


def test_marginal_sums_to_one(greek_plat):
    for slot in greek_plat.slots:
        assert sum(marginal(greek_plat, slot).values()) == pytest.approx(1.0)


def test_weights_change_entropies():
    uniform = Plat(classes=["c1", "c2"], slots=["A", "B"],
                   exponent=[["x", "y"], ["z", "y"]])
    skewed = Plat(classes=["c1", "c2"], slots=["A", "B"],
                  exponent=[["x", "y"], ["z", "y"]], weights=[0.9, 0.1])
    assert cond_entropy(uniform, "A", "B") == pytest.approx(1.0)
    assert cond_entropy(skewed, "A", "B") == pytest.approx(
        -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1)))


# ----------------------------------------------------------- exact oracle

def oracle_cond_dist(plat, slot_i, slot_j, exponent_j):
    """The reference cond_dist: one scan of every class per call, with no
    grouping by column."""
    si = plat.slots.index(slot_i)
    sj = plat.slots.index(slot_j)
    dist = {}
    total = 0.0
    for c, row in enumerate(plat.exponent):
        if row[sj] != exponent_j:
            continue
        w = plat.weights[c]
        dist[row[si]] = dist.get(row[si], 0.0) + w
        total += w
    if total == 0.0:
        raise ValueError("exponent %r does not occur in column %r" % (exponent_j, slot_j))
    return {e: w / total for e, w in dist.items()}


def oracle_entropy(dist):
    return -sum(p * math.log2(p) for p in dist.values() if p > 0)


def oracle_marginal(plat, slot):
    s = plat.slots.index(slot)
    dist = {}
    for c, row in enumerate(plat.exponent):
        dist[row[s]] = dist.get(row[s], 0.0) + plat.weights[c]
    return dist


def oracle_cond_entropy(plat, slot_i, slot_j):
    h = 0.0
    for e_j, p in oracle_marginal(plat, slot_j).items():
        if p > 0:
            h += p * oracle_entropy(oracle_cond_dist(plat, slot_i, slot_j, e_j))
    return h


def oracle_avg_cond_entropy(plat):
    n = len(plat.slots)
    total = 0.0
    for i in plat.slots:
        for j in plat.slots:
            if i != j:
                total += oracle_cond_entropy(plat, i, j)
    return total / (n * n - n)


def oracle_plat(rng):
    """1-16 classes over 2-10 slots; exponents from a small pool, "" among
    them; weights uniform, drawn, or drawn with zeros (one class at least
    keeps a positive weight)."""
    n_classes, n_slots = rng.randint(1, 16), rng.randint(2, 10)
    pool = ["", "a", "o", "es", "i"][:rng.randint(1, 5)]
    weights = None
    if rng.random() < 0.7:
        raw = [0.0 if rng.random() < 0.3 else rng.random() for _ in range(n_classes)]
        raw[rng.randrange(n_classes)] = rng.random() + 0.01
        weights = [w / sum(raw) for w in raw]
    return Plat(classes=["c%d" % c for c in range(n_classes)],
                slots=["s%d" % s for s in range(n_slots)],
                exponent=[[rng.choice(pool) for _ in range(n_slots)]
                          for _ in range(n_classes)],
                weights=weights)


def test_entropies_equal_the_class_scan_oracle_bit_for_bit():
    """Grouping each column once adds the same floats in the same order as
    one class scan per exponent: every distribution, marginal, H(i | j) and
    average is the oracle's, compared with ==, in dict order too."""
    rng = random.Random(43)
    for _ in range(500):
        plat = oracle_plat(rng)
        pairs = cond_entropies(plat)
        assert [(i, j) for i, j, _ in pairs] == [
            (i, j) for i in plat.slots for j in plat.slots if i != j]
        for i, j, h in pairs:
            assert h == cond_entropy(plat, i, j) == oracle_cond_entropy(plat, i, j)
        assert avg_cond_entropy(plat) == mean_cond_entropy(pairs) == \
            oracle_avg_cond_entropy(plat)
        for j in plat.slots:
            assert list(marginal(plat, j).items()) == list(oracle_marginal(plat, j).items())
            for e_j, p in oracle_marginal(plat, j).items():
                if p > 0:
                    assert list(cond_dist(plat, plat.slots[0], j, e_j).items()) == list(
                        oracle_cond_dist(plat, plat.slots[0], j, e_j).items())
                else:
                    with pytest.raises(ValueError, match="does not occur in column"):
                        cond_dist(plat, plat.slots[0], j, e_j)


# `plat` on the bundled Greek plat, as written by the class-scan implementation
# that the oracle functions above copy
GREEK_PLAT_STDOUT = """\
plat: 8 classes x 8 slots
H(NOM;SG | GEN;SG) = 0.594361 bits
H(NOM;SG | ACC;SG) = 0.451205 bits
H(NOM;SG | VOC;SG) = 0.451205 bits
H(NOM;SG | NOM;PL) = 0.594361 bits
H(NOM;SG | GEN;PL) = 1.750000 bits
H(NOM;SG | ACC;PL) = 0.594361 bits
H(NOM;SG | VOC;PL) = 0.594361 bits
H(GEN;SG | NOM;SG) = 1.000000 bits
H(GEN;SG | ACC;SG) = 1.201205 bits
H(GEN;SG | VOC;SG) = 1.201205 bits
H(GEN;SG | NOM;PL) = 0.844361 bits
H(GEN;SG | GEN;PL) = 2.155639 bits
H(GEN;SG | ACC;PL) = 0.594361 bits
H(GEN;SG | VOC;PL) = 0.844361 bits
H(ACC;SG | NOM;SG) = 0.250000 bits
H(ACC;SG | GEN;SG) = 0.594361 bits
H(ACC;SG | VOC;SG) = 0.000000 bits
H(ACC;SG | NOM;PL) = 0.594361 bits
H(ACC;SG | GEN;PL) = 1.548795 bits
H(ACC;SG | ACC;PL) = 0.344361 bits
H(ACC;SG | VOC;PL) = 0.594361 bits
H(VOC;SG | NOM;SG) = 0.250000 bits
H(VOC;SG | GEN;SG) = 0.594361 bits
H(VOC;SG | ACC;SG) = 0.000000 bits
H(VOC;SG | NOM;PL) = 0.594361 bits
H(VOC;SG | GEN;PL) = 1.548795 bits
H(VOC;SG | ACC;PL) = 0.344361 bits
H(VOC;SG | VOC;PL) = 0.594361 bits
H(NOM;PL | NOM;SG) = 0.750000 bits
H(NOM;PL | GEN;SG) = 0.594361 bits
H(NOM;PL | ACC;SG) = 0.951205 bits
H(NOM;PL | VOC;SG) = 0.951205 bits
H(NOM;PL | GEN;PL) = 1.905639 bits
H(NOM;PL | ACC;PL) = 0.000000 bits
H(NOM;PL | VOC;PL) = 0.000000 bits
H(GEN;PL | NOM;SG) = 0.000000 bits
H(GEN;PL | GEN;SG) = 0.000000 bits
H(GEN;PL | ACC;SG) = 0.000000 bits
H(GEN;PL | VOC;SG) = 0.000000 bits
H(GEN;PL | NOM;PL) = 0.000000 bits
H(GEN;PL | ACC;PL) = 0.000000 bits
H(GEN;PL | VOC;PL) = 0.000000 bits
H(ACC;PL | NOM;SG) = 1.000000 bits
H(ACC;PL | GEN;SG) = 0.594361 bits
H(ACC;PL | ACC;SG) = 0.951205 bits
H(ACC;PL | VOC;SG) = 0.951205 bits
H(ACC;PL | NOM;PL) = 0.250000 bits
H(ACC;PL | GEN;PL) = 2.155639 bits
H(ACC;PL | VOC;PL) = 0.250000 bits
H(VOC;PL | NOM;SG) = 0.750000 bits
H(VOC;PL | GEN;SG) = 0.594361 bits
H(VOC;PL | ACC;SG) = 0.951205 bits
H(VOC;PL | VOC;SG) = 0.951205 bits
H(VOC;PL | NOM;PL) = 0.000000 bits
H(VOC;PL | GEN;PL) = 1.905639 bits
H(VOC;PL | ACC;PL) = 0.000000 bits
average conditional entropy: 0.663941 bits
"""


def test_plat_stdout_on_the_greek_plat_is_pinned(capsys):
    assert main(["plat"]) == 0
    assert capsys.readouterr().out == GREEK_PLAT_STDOUT


def test_plat_without_classes():
    """A plat of slots and no class row is refused as a plat of no slot is,
    with no default weight to divide by zero."""
    with pytest.raises(ValueError, match="a plat needs at least one class"):
        Plat(classes=[], slots=["a", "b"], exponent=[])
    with pytest.raises(ValueError, match="a plat needs at least one class"):
        Plat(classes=[], slots=["a", "b"], exponent=[], weights=[])


@pytest.mark.parametrize("classes, exponent", [
    (["a", "b"], [["x", "y"]]),
    (["a"], [["x", "y"], ["z", "w"]]),
])
def test_plat_needs_one_row_per_class(classes, exponent):
    """Each class weighs exactly one row: a plat with fewer or more rows than
    classes is refused, not read with rows dropped or weights missing."""
    with pytest.raises(ValueError, match="one row per class"):
        Plat(classes=classes, slots=["s", "t"], exponent=exponent)
