import collections
import random
from fractions import Fraction

import pytest

import oracles
from conftest import random_valid_family
from test_bench_digests import load_bench_inputs
from tropical_transient import _kernels
from tropical_transient.digraph import (
    avoiding_walk_weights,
    best_paths_from_one,
    best_paths_to_one,
)
from tropical_transient.errors import AssumptionError, DimensionError
from tropical_transient.family import MatrixFamily
from tropical_transient.io import load_family
from tropical_transient.matrix import TropicalMatrix, node_one_closure, walk_closure
from tropical_transient.report import validation_section
from tropical_transient.semiring import EPSILON, Epsilon


def test_construction_checks():
    with pytest.raises(DimensionError):
        MatrixFamily([])
    with pytest.raises(DimensionError):
        MatrixFamily([TropicalMatrix.identity(2), TropicalMatrix.identity(3)])
    with pytest.raises(DimensionError):
        MatrixFamily([TropicalMatrix.eps(2, 3)])


def test_boundaries_are_entrywise_extrema(family5):
    a_sup, a_inf = family5.a_sup, family5.a_inf
    grids = [oracles.grid(m) for m in family5.members]
    n = family5.size
    for i in range(n):
        for j in range(n):
            vals = [g[i][j] for g in grids]
            if any(v is None for v in vals):
                assert isinstance(a_inf.entry(i, j), Epsilon)
            else:
                assert a_inf.entry(i, j) == min(vals)
            finite = [v for v in vals if v is not None]
            if finite:
                assert a_sup.entry(i, j) == max(finite)
            else:
                assert isinstance(a_sup.entry(i, j), Epsilon)


def test_boundaries_sandwich_products(family5, seq44):
    from tropical_transient.products import fold

    a_sup, a_inf = family5.a_sup, family5.a_inf
    k = 6
    prod = fold(family5, seq44.indices[:k])
    assert oracles.grid_le(oracles.naive_power(oracles.grid(a_inf), k), oracles.grid(prod))
    assert oracles.grid_le(oracles.grid(prod), oracles.naive_power(oracles.grid(a_sup), k))


def test_fixture_family_is_admissible(family5):
    report = family5.validate()
    assert report.passed
    assert [c.name for c in report.checks] == [
        "geometric_equivalence",
        "irreducibility",
        "members_node1_critical_loop",
        "sup_node1_critical_loop",
    ]
    assert report.failing() == ()
    assert oracles.check(report, "irreducibility").passed
    # must not raise
    family5.require_valid("test")


class TestValidationFailures:
    def test_support_mismatch(self):
        a = TropicalMatrix.from_rows([[0, -1], [-1, -2]])
        b = TropicalMatrix.from_rows([[0, None], [-1, -2]])
        report = MatrixFamily([a, b]).validate()
        check = oracles.check(report, "geometric_equivalence")
        assert not check.passed
        assert check.witness["kind"] == "support_mismatch"
        assert check.witness["edge"] == [1, 2]
        assert not report.passed

    def test_validation_does_not_build_a_inf(self, family5):
        # A_inf's support is the intersection of the members' supports, so
        # comparing the members with member 1 decides it too.
        family = MatrixFamily(family5.members)
        assert family.validation.passed
        assert "a_inf" not in family.__dict__

    def test_support_mismatch_names_the_first_differing_member(self):
        a = TropicalMatrix.from_rows([[0, -1], [-1, -2]])
        b = TropicalMatrix.from_rows([[0, -1], [None, -2]])
        report = MatrixFamily([a, a, b, a.with_entry(0, 1, None)]).validate()
        check = oracles.check(report, "geometric_equivalence")
        assert check.witness == {
            "kind": "support_mismatch", "matrix": "member 3", "edge": [2, 1],
            "present_in": "member 1",
        }

    def test_reducible_member(self):
        member = TropicalMatrix.from_rows([[0, None], [-1, -2]])
        report = MatrixFamily([member]).validate()
        check = oracles.check(report, "irreducibility")
        assert not check.passed
        assert check.witness == {"kind": "not_strongly_connected", "member": 1}

    def test_wrong_loop_weight(self):
        member = TropicalMatrix.from_rows([[-1, -1], [-1, -2]])
        report = MatrixFamily([member]).validate()
        check = oracles.check(report, "members_node1_critical_loop")
        assert not check.passed
        assert check.witness["kind"] == "node1_loop_weight"
        assert check.witness["value"] == -1

    def test_missing_loop(self):
        member = TropicalMatrix.from_rows([[None, -1], [-1, -2]])
        report = MatrixFamily([member]).validate()
        check = oracles.check(report, "members_node1_critical_loop")
        assert not check.passed
        assert check.witness["kind"] == "node1_loop_weight"
        assert check.witness["value"] == "-inf"

    def test_nonnegative_other_cycle(self):
        member = TropicalMatrix.from_rows([[0, -1], [-1, 0]])
        report = MatrixFamily([member]).validate()
        check = oracles.check(report, "members_node1_critical_loop")
        assert not check.passed
        assert check.witness["kind"] == "nonnegative_side_cycle"
        assert check.witness["cycle"] == [2]
        assert check.witness["mean"] == 0

    def test_nonnegative_through_one_cycle(self):
        member = TropicalMatrix.from_rows([[0, 2], [-1, -3]])
        report = MatrixFamily([member]).validate()
        check = oracles.check(report, "members_node1_critical_loop")
        assert not check.passed
        assert check.witness["cycle"] == [1, 2]
        assert check.witness["mean"] == "1/2"

    def test_sup_can_fail_when_members_pass(self):
        # each member keeps the 1<->2 round trip negative, their maxima do not
        a = TropicalMatrix.from_rows([[0, 2], [-3, -5]])
        b = TropicalMatrix.from_rows([[0, -3], [2, -5]])
        fam = MatrixFamily([a, b])
        report = fam.validate()
        assert oracles.check(report, "members_node1_critical_loop").passed
        check = oracles.check(report, "sup_node1_critical_loop")
        assert not check.passed
        assert check.witness["matrix"] == "A_sup"

    def test_require_valid_raises_with_report(self):
        member = TropicalMatrix.from_rows([[None, -1], [-1, -2]])
        fam = MatrixFamily([member])
        with pytest.raises(AssumptionError) as info:
            fam.require_valid("unit test")
        assert info.value.report is fam.validate()
        with pytest.raises(AssumptionError):
            fam.sup_derived


def test_random_generated_families_validate():
    rng = random.Random(0)
    for _ in range(50):
        fam = random_valid_family(rng)
        assert fam.validate().passed


def test_random_one_node_families_validate():
    # With one node the backbone is the weight-0 loop alone.
    rng = random.Random(1)
    for m in (1, 2, 3):
        fam = random_valid_family(rng, 1, m)
        assert fam.size == 1 and fam.member_count == m
        assert fam.validate().passed
        assert all(oracles.grid(x) == [[0]] for x in fam.members)


class TestLoopCheckAgainstKarp:
    """The closure decides the side-cycle sign; the report, failing
    witnesses included, matches the oracle that runs Karp on every matrix
    and compares supports and searches reachability on plain grids."""

    def test_random_valid_families(self):
        rng = random.Random(11)
        for _ in range(60):
            fam = random_valid_family(rng, rng.randint(2, 6), rng.randint(1, 3))
            assert fam.validation == oracles.karp_validation(fam)

    def test_nonnegative_side_cycles(self):
        rng = random.Random(12)
        failing = 0
        for _ in range(60):
            fam = random_valid_family(rng, rng.randint(2, 6), rng.randint(1, 3))
            members = list(fam.members)
            n = fam.size
            # Raise one edge and its way back in one member, or spread the
            # cycle over two members so only A_sup carries it.
            i, j = rng.randrange(n), rng.randrange(n)
            weight = Fraction(rng.randint(-2, 3), rng.choice([1, 2]))
            t = rng.randrange(len(members))
            members[t] = members[t].with_entry(i, j, weight)
            members[-1 - t] = members[-1 - t].with_entry(j, i, -weight + rng.randint(-1, 1))
            edited = MatrixFamily(members)
            report = edited.validation
            failing += not report.passed
            assert report == oracles.karp_validation(edited)
        assert failing > 10

    def test_equivalence_fails_first_at_member_3(self):
        rng = random.Random(13)
        for _ in range(30):
            fam = random_valid_family(rng, rng.randint(2, 6), 3)
            members = list(fam.members)
            n = fam.size
            # Flip one entry of member 3 between -inf and a finite weight.
            i, j = rng.randrange(n), rng.randrange(n)
            flipped = -3 if isinstance(members[2].entry(i, j), Epsilon) else EPSILON
            members[2] = members[2].with_entry(i, j, flipped)
            edited = MatrixFamily(members)
            report = edited.validation
            assert oracles.check(report, "geometric_equivalence").witness["matrix"] == "member 3"
            assert report == oracles.karp_validation(edited)

    def test_irreducibility_fails_first_at_member_2(self):
        rng = random.Random(14)
        for _ in range(30):
            fam = random_valid_family(rng, rng.randint(2, 6), 3)
            members = list(fam.members)
            k = rng.randrange(1, fam.size)
            # Nothing enters node k in member 2; nothing leaves it in member 3.
            members[1] = members[1].with_col_eps(k)
            members[2] = members[2].with_row_eps(k)
            edited = MatrixFamily(members)
            report = edited.validation
            assert oracles.check(report, "irreducibility").witness["member"] == 2
            assert report == oracles.karp_validation(edited)

    def test_karp_decides_past_the_closure_guard(self):
        # A large edge between the two components of a reducible member
        # trips the closure's guard (2n |entry|), not Karp's per-component
        # one, so validation reports instead of raising.
        member = TropicalMatrix.from_rows([[0, -(2**60)], [None, -1]])
        fam = MatrixFamily([member])
        report = fam.validation
        assert report == oracles.karp_validation(fam)
        assert report.failing() == (oracles.check(report, "irreducibility"),)


def corpus_family(rng: random.Random) -> MatrixFamily:
    """A family of the validation corpus: n in 1..6 and m in 1..4 members
    on one random support, weights p/q with p in [-6, 2] and q in
    {1, 2, 3}.  With probability 0.2 each, a member has up to n entries
    of its support removed, and its (1,1) entry is -inf or +-1/q in place
    of 0."""
    n, m = rng.randint(1, 6), rng.randint(1, 4)
    density = rng.random()
    support = [[rng.random() < density for _ in range(n)] for _ in range(n)]
    members = []
    for _ in range(m):
        rows = [[Fraction(rng.randint(-6, 2), rng.choice((1, 2, 3))) if present else None
                 for present in row] for row in support]
        if rng.random() < 0.2:
            for _ in range(rng.randint(1, n)):
                rows[rng.randrange(n)][rng.randrange(n)] = None
        rows[0][0] = Fraction(0) if rng.random() >= 0.2 else rng.choice(
            [None, Fraction(rng.choice((-1, 1)), rng.choice((1, 2, 3)))])
        members.append(TropicalMatrix.from_rows(rows))
    return MatrixFamily(members)


def count_closures(monkeypatch) -> list:
    calls = []
    closure = _kernels.closure
    monkeypatch.setattr(_kernels, "closure", lambda a: calls.append(a) or closure(a))
    return calls


class TestValidationAgainstPerMemberOracle:
    """One closure of A_sup decides every member's side cycles, and one
    reachability closure decides irreducibility under a shared support;
    the sections, witnesses included, match the oracle that closes and
    searches every member on its own."""

    @pytest.mark.parametrize("seeds", [range(0, 100), range(100, 200), range(200, 300)],
                             ids=lambda r: f"{r.start}-{r.stop - 1}")
    def test_random_valid_families(self, seeds, monkeypatch):
        calls = count_closures(monkeypatch)
        for seed in seeds:
            # A fresh family: the generator has validated its own.
            fam = MatrixFamily(random_valid_family(random.Random(seed)).members)
            calls.clear()
            got = validation_section(fam.validate())
            assert len(calls) == 1
            assert got == validation_section(oracles.per_member_validation(fam))

    def test_random_corpus(self):
        rng = random.Random(20261020)
        kinds = collections.Counter()
        for _ in range(4000):
            fam = corpus_family(rng)
            got = validation_section(fam.validate())
            assert got == validation_section(oracles.per_member_validation(fam))
            kinds["passed"] += got["passed"]
            kinds.update((c["name"], c["witness"]["kind"])
                         for c in got["checks"] if "witness" in c)
        # Every witness kind occurs, and some families pass.
        assert min(kinds.values()) > 100 and len(kinds) == 7, kinds

    def test_sup_guard_falls_back_to_member_closures(self, monkeypatch):
        # Members on the coprime denominators 2^30 + 1 and 2^30 + 2 stay far
        # inside the closure guard (2n |scaled entry|), but A_sup takes its
        # edge 1 -> 2 from member 2 and its loop at node 2 from member 1, so
        # it sits on their lcm, about 2^60, and trips it.  Node 2 does not
        # reach node 1, so that edge lies between components and Karp on
        # A_sup stays within its own guard.
        members = [TropicalMatrix.from_rows([[0, Fraction(-q - 1, q)],
                                             [None, Fraction(1 - q, q)]])
                   for q in (2**30 + 1, 2**30 + 2)]
        fam = MatrixFamily(members)
        with pytest.raises(OverflowError):
            node_one_closure(fam.a_sup.with_entry(0, 0, EPSILON))
        for m in members:
            assert node_one_closure(m.with_entry(0, 0, EPSILON)) is not None
        calls = count_closures(monkeypatch)
        got = validation_section(fam.validate())
        assert len(calls) == len(members)
        assert got == validation_section(oracles.per_member_validation(fam))
        assert [c["passed"] for c in got["checks"]] == [True, False, True, True]

    def test_member_past_both_guards_is_decided_by_a_sup(self, monkeypatch):
        # Member 1's edge 1 -> 2 of about -2^60 trips its own closure guard
        # (4 |entry|) and Karp's (6 |entry|), so deciding it on its own
        # raises.  Member 2 is larger there, so A_sup stays small, and its
        # closure decides both members.
        w = 2**60
        members = [TropicalMatrix.from_rows([[0, -w], [-1, -1]]),
                   TropicalMatrix.from_rows([[0, -1], [-1, -1]])]
        fam = MatrixFamily(members)
        with pytest.raises(OverflowError):
            oracles.per_member_validation(MatrixFamily(members))
        calls = count_closures(monkeypatch)
        assert fam.validation.passed
        assert len(calls) == 1


class TestSupDerived:
    def test_lambda_and_vectors_against_oracle(self, family5):
        derived = family5.sup_derived
        g = oracles.grid(family5.a_sup)
        lam, attaining = oracles.max_cycle_mean(g, forbidden={0})
        assert derived.lambda_star.mean == lam
        cyc0 = tuple(v - 1 for v in derived.lambda_star.witness)
        assert cyc0 in [tuple(c) for c in attaining] or any(
            set(cyc0) == set(c) for c in attaining
        )
        n = family5.size
        for i in range(1, n):
            assert derived.alpha.entry(i, 0) == oracles.best_simple_path(g, i, 0)
            assert derived.beta.entry(i, 0) == oracles.best_simple_path(g, 0, i)
        assert derived.alpha.entry(0, 0) == 0
        assert derived.beta.entry(0, 0) == 0

    def test_cached(self, family5):
        assert family5.sup_derived is family5.sup_derived

    def test_one_closure_per_boundary_matches_the_public_derivations(self):
        # sup_derived reads alpha, beta and gamma off one closure of A_sup
        # without its loop; the public functions close A_sup with the
        # edges at node 1 masked, one closure each.  w and v come from one
        # closure of A_inf; the oracle is the capped walk closure of A_inf
        # with node 1 made absorbing.
        rng = random.Random(23)
        for _ in range(40):
            fam = random_valid_family(rng, rng.randint(2, 6), rng.randint(1, 3))
            a_sup, a_inf, n = fam.a_sup, fam.a_inf, fam.size
            derived = fam.sup_derived
            assert derived.alpha == best_paths_to_one(a_sup)
            assert derived.beta == best_paths_from_one(a_sup)
            assert derived.gamma == avoiding_walk_weights(a_sup)
            to_one = walk_closure(a_inf.with_row_eps(0), n)
            from_one = walk_closure(a_inf.with_col_eps(0), n)
            assert fam.inf_walk_to_one() == TropicalMatrix.from_rows(
                [[0]] + [[to_one.entry(i, 0)] for i in range(1, n)]
            )
            assert fam.inf_walk_from_one() == TropicalMatrix.from_rows(
                [[0]] + [[from_one.entry(0, j)] for j in range(1, n)]
            )


class TestFixpointWork:
    """Step counts of the walk fixpoints, each the number of planned
    product steps it runs, the last one confirming.  w and v were one
    closure of A_inf (n - 1 Floyd-Warshall steps), and the potentials
    n - 1 steps for the n critical-component nodes."""

    @staticmethod
    def fixpoint_steps(monkeypatch, call):
        counts, inside = [], []
        step, fixpoint = _kernels._step, _kernels.fixpoint

        def counted_step(*args, **kwargs):
            if inside:
                counts[-1] += 1
            return step(*args, **kwargs)

        def counted_fixpoint(a, base):
            counts.append(0)
            inside.append(True)
            try:
                return fixpoint(a, base)
            finally:
                inside.pop()

        monkeypatch.setattr(_kernels, "fixpoint", counted_fixpoint)
        monkeypatch.setattr(_kernels, "_step", counted_step)
        call()
        monkeypatch.undo()
        return counts

    def family_steps(self, monkeypatch, family):
        assert family.validation.passed
        inf = self.fixpoint_steps(monkeypatch, lambda: family._inf_vectors)
        potentials = self.fixpoint_steps(monkeypatch, lambda: family.sup_derived)
        return inf, potentials

    def test_fixture(self, monkeypatch, family5_loaded):
        # Before: 4 closure steps for w and v, 2 potential steps (3
        # critical-component nodes).
        family = MatrixFamily(family5_loaded[0].members)
        assert self.family_steps(monkeypatch, family) == ([3, 2], [3])

    def test_seed_zero_synthetic_family(self, monkeypatch, tmp_path):
        # Before: 79 closure steps for w and v, 78 potential steps (79
        # critical-component nodes).
        path, _ = load_bench_inputs().write_synthetic(tmp_path, 0, 80, 200)
        family = load_family(str(path))[0]
        assert self.family_steps(monkeypatch, family) == ([5, 4], [1])


class TestInfWalks:
    def test_against_oracle(self, family5):
        g = oracles.grid(family5.a_inf)
        w = family5.inf_walk_to_one()
        v = family5.inf_walk_from_one()
        n = family5.size
        assert w.entry(0, 0) == 0 and v.entry(0, 0) == 0
        for i in range(1, n):
            assert w.entry(i, 0) == oracles.best_simple_path(g, i, 0)
            assert v.entry(i, 0) == oracles.best_simple_path(g, 0, i)

    def test_longer_cap_changes_nothing(self, family5):
        # negative off-1 cycles: the capped walk closure of the old
        # derivation, run well past n - 1 steps, agrees with the default
        a_inf = family5.a_inf
        to_one = walk_closure(a_inf.with_row_eps(0), 12)
        from_one = walk_closure(a_inf.with_col_eps(0), 12)
        n = family5.size
        w = family5.inf_walk_to_one()
        v = family5.inf_walk_from_one()
        assert w == TropicalMatrix.from_rows(
            [[0]] + [[to_one.entry(i, 0)] for i in range(1, n)]
        )
        assert v == TropicalMatrix.from_rows(
            [[0]] + [[from_one.entry(0, j)] for j in range(1, n)]
        )


def test_stacked_layout(family5):
    num, fin, den = family5.stacked
    assert num.shape == (3, 5, 5)
    assert fin.shape == (3, 5, 5)
    assert den == 1
    assert not num.flags.writeable and not fin.flags.writeable
    assert num.flags.c_contiguous and fin.flags.c_contiguous
    for t, m in enumerate(family5.members):
        for i in range(5):
            for j in range(5):
                e = m.entry(i, j)
                assert fin[t, i, j] == (not isinstance(e, Epsilon))
                if fin[t, i, j]:
                    assert e == Fraction(int(num[t, i, j]), den)


def test_layer_magnitude_is_cached_on_the_stacked_grid():
    a = TropicalMatrix.from_rows([[0, Fraction(-7, 2)], [Fraction(1, 3), None]])
    b = TropicalMatrix.from_rows([[Fraction(-5), 0], [None, 2]])
    family = MatrixFamily([a, b])
    num, fin, den = family.stacked
    assert den == 6
    # -5 is the largest |entry|; on the grid 1/6 it is 30
    assert family.layer_magnitude == 30
    assert family.layer_magnitude is family.layer_magnitude
    assert family.layer_magnitude * 4 == 120
