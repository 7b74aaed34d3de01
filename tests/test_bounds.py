import math
import random
from fractions import Fraction

import pytest

import oracles
from conftest import random_valid_family
from test_bench_digests import load_bench_inputs
from tropical_transient import _kernels
from tropical_transient.bounds import (
    check_length_sufficient,
    compute_bound_report,
    explicit_bound,
    implicit_bound,
    implicit_sequence_bound,
)
from tropical_transient.errors import AssumptionError, DimensionError
from tropical_transient.family import MatrixFamily
from tropical_transient.io import load_family, load_sequence
from tropical_transient.matrix import TropicalMatrix
from tropical_transient.products import estimate_transient, fold
from tropical_transient.semiring import EPSILON, Epsilon
from tropical_transient.trellis import (
    best_avoiding_full_weight,
    best_through_one_weight,
    build_trellis,
    final_weights_all,
    initial_weights_all,
    optimal_final_walk,
    optimal_full_walk,
    optimal_initial_walk,
)


def col(values):
    return oracles.from_column(values)


def reference_bounds(w, v, alpha, beta, gamma, lam, n):
    """Straight transcription of the two terms, for cross-checking."""
    t1 = [[None] * n for _ in range(n)]
    t2 = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if None not in (w[i], v[j], gamma[i][j]):
                q = Fraction(0) if lam is None else (w[i] + v[j] - gamma[i][j]) / lam
                t1[i][j] = q + (n - 1)
            if None not in (w[i], alpha[i], v[j], beta[j]):
                num = w[i] - alpha[i] + v[j] - beta[j]
                q = Fraction(0) if lam is None else num / lam
                t2[i][j] = q + 2 * (n - 1)
    return t1, t2


def random_inputs(rng, n):
    def vec(allow_eps=True):
        return [
            None if allow_eps and rng.random() < 0.2
            else Fraction(rng.randint(-12, 12), rng.randint(1, 3))
            for _ in range(n)
        ]

    w, v, alpha, beta = vec(), vec(), vec(), vec()
    gamma = [vec() for _ in range(n)]
    lam = (
        None
        if rng.random() < 0.15
        else Fraction(-rng.randint(1, 9), rng.randint(1, 3))
    )
    return w, v, alpha, beta, gamma, lam


class TestComputeBoundReport:
    def test_matches_reference_formula(self):
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randint(1, 5)
            w, v, alpha, beta, gamma, lam = random_inputs(rng, n)
            t1_ref, t2_ref = reference_bounds(w, v, alpha, beta, gamma, lam, n)
            entries = [
                x
                for row_a, row_b in zip(t1_ref, t2_ref)
                for x in (*row_a, *row_b)
                if x is not None
            ]
            if not entries:
                with pytest.raises(DimensionError):
                    compute_bound_report(
                        col(w), col(v), col(alpha), col(beta),
                        TropicalMatrix.from_rows(gamma),
                        EPSILON if lam is None else lam, "explicit",
                    )
                continue
            report = compute_bound_report(
                col(w), col(v), col(alpha), col(beta),
                TropicalMatrix.from_rows(gamma),
                EPSILON if lam is None else lam, "explicit",
            )
            assert oracles.grid(report.term1) == t1_ref
            assert oracles.grid(report.term2) == t2_ref
            per_ref = [
                [oracles.mp_max([a, b]) for a, b in zip(ra, rb)]
                for ra, rb in zip(t1_ref, t2_ref)
            ]
            assert oracles.grid(report.per_entry) == per_ref
            overall = max(entries)
            assert report.overall == overall
            assert report.min_sufficient_length == overall.__floor__() + 1
            assert report.lambda_star_undefined == (lam is None)
            # argmax: first row-major entry attaining the overall, term1 first
            i, j, term = report.argmax
            found = None
            for a in range(n):
                for b in range(n):
                    if per_ref[a][b] == overall:
                        found = (a + 1, b + 1,
                                 "term1" if t1_ref[a][b] == overall else "term2")
                        break
                if found:
                    break
            assert (i, j, term) == found

    def test_tie_prefers_term1(self):
        report = compute_bound_report(
            col([0]), col([0]), col([Fraction(-1)]), col([Fraction(-1)]),
            TropicalMatrix.from_rows([[Fraction(-2)]]),
            Fraction(-1), "explicit",
        )
        # term1 = 2/-1 + 0 = -2, term2 = 2/-1 + 0 = -2: equal, term1 wins
        assert report.term1.entry(0, 0) == report.term2.entry(0, 0) == Fraction(-2)
        assert report.argmax == (1, 1, "term1")

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            compute_bound_report(
                col([0, 0]), col([0]), col([0, 0]), col([0, 0]),
                TropicalMatrix.eps(2, 2), Fraction(-1), "explicit",
            )
        with pytest.raises(DimensionError):
            compute_bound_report(
                col([0, 0]), col([0, 0]), col([0, 0]), col([0, 0]),
                TropicalMatrix.eps(3, 3), Fraction(-1), "explicit",
            )

    def test_rejects_nonnegative_lambda(self):
        for lam in (Fraction(0), Fraction(2)):
            with pytest.raises(DimensionError):
                compute_bound_report(
                    col([0]), col([0]), col([0]), col([0]),
                    TropicalMatrix.from_rows([[Fraction(-1)]]), lam, "explicit",
                )

    def test_epsilon_gamma_disables_term1(self):
        report = compute_bound_report(
            col([0, -1]), col([0, -1]), col([0, 0]), col([0, 0]),
            TropicalMatrix.from_rows([[None, None], [None, None]]),
            Fraction(-1), "explicit",
        )
        assert all(
            isinstance(x, Epsilon) for row in report.term1.to_rows() for x in row
        )
        assert report.argmax[2] == "term2"


def both_reports(w, v, alpha, beta, gamma, lam, mode="explicit"):
    """(integer-grid report, Fraction oracle report), or the DimensionError
    message each raised."""
    out = []
    for compute in (compute_bound_report, oracles.fraction_bound_report):
        try:
            out.append(compute(w, v, alpha, beta, gamma, lam, mode))
        except DimensionError as exc:
            out.append(str(exc))
    return out


def tie_family(rng, n, m, star=False):
    """An admissible family whose non-loop weights are all -1/2 or -1.

    The support is a cycle through node 1 plus a few extra edges, so
    gamma has -inf entries; with star=True it is the edges into and out
    of node 1 only, every cycle passes node 1 and lambda* is -inf.
    """
    if star:
        support = {(0, 0)} | {(0, i) for i in range(1, n)} | {(i, 0) for i in range(1, n)}
    else:
        support = {(0, 0)} | {(i, (i + 1) % n) for i in range(n)}
        for _ in range(rng.randint(0, n)):
            support.add((rng.randrange(n), rng.randrange(n)))

    def member():
        rows = [[None] * n for _ in range(n)]
        for i, j in support:
            rows[i][j] = rng.choice((Fraction(-1, 2), Fraction(-1)))
        rows[0][0] = Fraction(0)
        return TropicalMatrix.from_rows(rows)

    family = MatrixFamily([member() for _ in range(m)])
    assert family.validate().passed
    return family


class TestFractionOracle:
    """compute_bound_report against the Fraction loop it replaced."""

    def _check_family(self, family, rng):
        derived = family.sup_derived
        args = (derived.alpha, derived.beta, derived.gamma, derived.lambda_star.mean)
        w, v = family.inf_walk_to_one(), family.inf_walk_from_one()
        fast, slow = both_reports(w, v, *args)
        assert fast == slow
        seq = [rng.randint(1, family.member_count) for _ in range(rng.randint(1, 12))]
        product = fold(family, seq)
        col0 = TropicalMatrix.from_rows([[product.entry(i, 0)] for i in range(family.size)])
        row0 = TropicalMatrix.from_rows([[product.entry(0, j)] for j in range(family.size)])
        fast, slow = both_reports(col0, row0, *args, mode="implicit")
        assert fast == slow
        assert implicit_bound(family, product) == slow

    def test_admissible_families(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 8)
            self._check_family(random_valid_family(rng, n, rng.randint(1, 3)), rng)

    def test_tie_heavy_families_with_missing_avoiding_walks(self):
        rng = random.Random(32)
        gaps = 0
        for _ in range(40):
            family = tie_family(rng, rng.randint(1, 8), rng.randint(1, 3))
            gaps += not family.sup_derived.gamma._fin[1:, 1:].all()
            self._check_family(family, rng)
        assert gaps > 20

    def test_every_cycle_through_node_one(self):
        rng = random.Random(33)
        for n in range(1, 9):
            family = tie_family(rng, n, 2, star=True)
            assert isinstance(family.sup_derived.lambda_star.mean, Epsilon)
            report = explicit_bound(family)
            assert report.lambda_star_undefined
            self._check_family(family, rng)

    def test_members_on_different_denominators(self):
        # Dividing a member by a positive constant keeps its support, its
        # 0 loop and the sign of every cycle, so the family stays
        # admissible while its members sit on different grids: the
        # stacked members and the bound terms rescale to a common one.
        rng = random.Random(35)
        rescaled = 0
        for _ in range(40):
            base = random_valid_family(rng, rng.randint(2, 7), rng.randint(2, 3))
            family = MatrixFamily([
                TropicalMatrix.from_rows([
                    [x if isinstance(x, Epsilon) else x / q for x in row] for row in m.to_rows()
                ])
                for m, q in zip(base.members, (rng.choice((2, 3, 5)) for _ in base.members))
            ])
            assert family.validate().passed
            rescaled += family.stacked[2] > min(m.denominator for m in family.members)
            derived = family.sup_derived
            assert explicit_bound(family) == oracles.fraction_bound_report(
                family.inf_walk_to_one(), family.inf_walk_from_one(), derived.alpha,
                derived.beta, derived.gamma, derived.lambda_star.mean, "explicit",
            )
            seq = [rng.randint(1, family.member_count) for _ in range(rng.randint(1, 12))]
            grids = [oracles.grid(m) for m in family.members]
            product = fold(family, seq)
            assert oracles.grid(product) == oracles.naive_fold([grids[i - 1] for i in seq])
            assert implicit_sequence_bound(family, seq) == implicit_bound(family, product)
            self._check_family(family, rng)
        assert rescaled > 20

    def test_random_inputs_with_infinite_rows(self):
        rng = random.Random(34)
        infinite_rows = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            w, v, alpha, beta, gamma, lam = random_inputs(rng, n)
            if rng.random() < 0.5:
                w[rng.randrange(n)] = None
            if rng.random() < 0.3:
                # tie-heavy: every finite weight drawn from two values
                pick = lambda x: None if x is None else rng.choice((Fraction(0), Fraction(-1, 2)))
                w, v, alpha, beta = ([pick(x) for x in vec] for vec in (w, v, alpha, beta))
                gamma = [[pick(x) for x in row] for row in gamma]
            infinite_rows += None in w
            fast, slow = both_reports(
                col(w), col(v), col(alpha), col(beta), TropicalMatrix.from_rows(gamma),
                EPSILON if lam is None else lam,
            )
            assert fast == slow
        assert infinite_rows > 100

    def test_guard_boundary(self):
        # At lam = -1 on the integer grid, the largest magnitude formed is
        # |w_2| + 2 (n - 1) = |w_2| + 2.
        guard = 1 << 61
        alpha = beta = col([0, 0])
        gamma = TropicalMatrix.from_rows([[None, None], [None, 0]])
        for w2, ok in ((guard - 3, True), (guard - 2, False)):
            w, v = col([0, -w2]), col([0, 0])
            if ok:
                fast, slow = both_reports(w, v, alpha, beta, gamma, Fraction(-1))
                assert fast == slow
                assert fast.overall == w2 + 2
            else:
                with pytest.raises(OverflowError):
                    compute_bound_report(w, v, alpha, beta, gamma, Fraction(-1), "explicit")


class TestFamilyBounds:
    def test_explicit_on_fixture(self, family5):
        report = explicit_bound(family5)
        assert report.mode == "explicit"
        assert report.overall == 34
        assert report.argmax == (3, 4, "term1")
        assert report.min_sufficient_length == 35
        assert not report.lambda_star_undefined
        assert report.lambda_star == Fraction(-2, 3)

    def test_implicit_on_fixture(self, family5, seq44):
        product = fold(family5, seq44)
        report = implicit_bound(family5, product)
        assert report.mode == "implicit"
        assert report.overall == Fraction(55, 2)
        assert report.argmax == (4, 4, "term2")
        assert report.min_sufficient_length == 28

    def test_implicit_never_above_explicit_on_random_families(self):
        # column/row 1 of any product are bounded by the explicit w and v,
        # so the sharper per-product bound cannot exceed the a-priori one
        rng = random.Random(22)
        for _ in range(25):
            fam = random_valid_family(rng)
            k = rng.randint(fam.size + 1, 12)
            seq = [rng.randint(1, fam.member_count) for _ in range(k)]
            product = fold(fam, seq)
            exp = explicit_bound(fam)
            imp = implicit_bound(fam, product)
            assert imp.overall <= exp.overall

    def test_sequence_bound_is_the_bound_of_the_fold(self, family5, seq44):
        # Column 1 and row 1 from two vector sweeps give the report the
        # folded product gives, on n = 1 and 2 and on random families.
        rng = random.Random(46)
        one = MatrixFamily([TropicalMatrix.from_rows([[0]])] * 2)
        cases = [(family5, seq44)]
        for fam in [one] + [random_valid_family(rng, n=2 + c % 5) for c in range(30)]:
            cases.append((fam, [rng.randint(1, fam.member_count) for _ in range(rng.randint(1, 60))]))
        for fam, seq in cases:
            assert implicit_sequence_bound(fam, seq) == implicit_bound(fam, fold(fam, seq))

    def test_sequence_bound_errors_are_those_of_the_fold(self, family5):
        for bad in ([], [0], [1, 4]):
            with pytest.raises(Exception) as folded:
                fold(family5, bad)
            with pytest.raises(folded.type, match=str(folded.value)):
                implicit_sequence_bound(family5, bad)
        p = (1 << 61) // 3
        big = MatrixFamily([TropicalMatrix.from_rows([[0, -p], [-p, -p]])])
        with pytest.raises(OverflowError, match="^sequence fold: "):
            implicit_sequence_bound(big, [1] * 4)
        bad = MatrixFamily([TropicalMatrix.from_rows([[None, -1], [-1, -2]])])
        with pytest.raises(AssumptionError):
            implicit_sequence_bound(bad, [1])

    def test_requires_valid_family(self):
        from tropical_transient.family import MatrixFamily

        bad = MatrixFamily([TropicalMatrix.from_rows([[None, -1], [-1, -2]])])
        with pytest.raises(AssumptionError):
            explicit_bound(bad)
        with pytest.raises(AssumptionError):
            implicit_bound(bad, TropicalMatrix.identity(2))

    def test_implicit_shape_check(self, family5):
        with pytest.raises(DimensionError):
            implicit_bound(family5, TropicalMatrix.identity(3))


class TestTermTwoParts:
    """term2 is the outer sum of the report's two walk-length columns."""

    @staticmethod
    def outer_sum(report):
        initial = oracles.column(report.initial_lengths)
        final = oracles.column(report.final_lengths)
        return TropicalMatrix.from_rows([[oracles.mp_mul(a, b) for b in final] for a in initial])

    def test_random_families(self):
        rng = random.Random(47)
        undefined = 0
        for case in range(60):
            fam = (tie_family(rng, rng.randint(1, 6), 2, star=True) if case % 6 == 0
                   else random_valid_family(rng, n=rng.randint(2, 6)))
            seq = [rng.randint(1, fam.member_count) for _ in range(rng.randint(1, 15))]
            for report in (explicit_bound(fam), implicit_sequence_bound(fam, seq)):
                assert report.initial_lengths.shape == report.final_lengths.shape == (fam.size, 1)
                assert report.term2 == self.outer_sum(report)
                undefined += report.lambda_star_undefined
        assert undefined > 20


class TestLengthSufficiency:
    def test_strict_comparison(self, family5):
        report = explicit_bound(family5)
        assert not check_length_sufficient(report, 34)
        assert check_length_sufficient(report, 35)
        assert check_length_sufficient(report, 44)

    def test_fractional_threshold(self, family5, seq44):
        report = implicit_bound(family5, fold(family5, seq44))
        assert not check_length_sufficient(report, 27)
        assert check_length_sufficient(report, 28)


class TestSoundnessAgainstExactScans:
    """The explicit bound against exact transients.  The admissible
    families of ``random_valid_family`` seeds 0-299 have finite pivots, so
    the pruned exhaustive scan decides them: run to the bound's sufficient
    length, its last counterexample is the exact transient minus one, and
    none may be longer than ``overall``.  Seeds whose sum of m^k passes
    the budget at that length are skipped (9 of 300)."""

    SEEDS = range(300)
    BUDGET = 10**9
    # The families where the bound is attained: the last counterexample
    # has length floor(overall).
    ATTAINED = {100: Fraction(5, 2), 121: Fraction(7, 2)}

    def last_counterexample(self, family):
        report = explicit_bound(family)
        horizon, m = report.min_sufficient_length, family.member_count
        if sum(m**k for k in range(1, horizon + 1)) > self.BUDGET:
            return report, None
        est = estimate_transient(family, horizon, "exhaustive", max_products=self.BUDGET)
        last = max((k for k, _ in est.counterexamples), default=0)
        assert est.first_all_rank_one == last + 1
        return report, last

    def test_no_counterexample_is_longer_than_the_bound(self):
        decided, attained = 0, {}
        for seed in self.SEEDS:
            report, last = self.last_counterexample(random_valid_family(random.Random(seed)))
            if last is None:
                continue
            decided += 1
            assert last <= report.overall, seed
            if last == math.floor(report.overall):
                attained[seed] = report.overall
        assert decided == 291
        assert attained == self.ATTAINED

    @pytest.mark.parametrize("seed", sorted(ATTAINED))
    def test_attained_bound(self, seed):
        report, last = self.last_counterexample(random_valid_family(random.Random(seed)))
        assert report.overall == self.ATTAINED[seed] and last == math.floor(report.overall)

    def test_implicit_bound_is_within_the_explicit_and_sufficient(self):
        # For k >= n - 1 every path into or out of node 1 fits in the
        # trellis, so the implicit bound of a sequence of length n or
        # 3n + 5 is at most the explicit one; a sequence longer than its
        # implicit bound folds to a rank-one product.
        longer = 0
        for seed in self.SEEDS:
            family = random_valid_family(random.Random(seed))
            explicit = explicit_bound(family).overall
            for length in (family.size, 3 * family.size + 5):
                seq = oracles.random_sequence(family, length, seed)
                implicit = implicit_sequence_bound(family, seq).overall
                assert implicit <= explicit, (seed, length)
                if length > implicit:
                    longer += 1
                    assert oracles.is_rank_one(oracles.grid(fold(family, seq))), (seed, length)
        assert longer > 200


def synthetic_inputs(tmp_path, n):
    """The benchmark's seed-1 synthetic family of size n and a 60-long
    sequence, loaded."""
    family, sequence = load_bench_inputs().write_synthetic(tmp_path, 1, n, 60)
    return load_family(family)[0], load_sequence(sequence).indices


def relabelled(matrix, perm):
    """The matrix with node i renamed perm[i] (0-based)."""
    g = oracles.grid(matrix)
    rows = [[None] * len(g[0]) for _ in g]
    for i, row in enumerate(g):
        for j, x in enumerate(row):
            rows[perm[i]][perm[j]] = x
    return TropicalMatrix.from_rows(rows)


def reordered(family):
    """The members in reverse order, with the last one repeated."""
    members = family.members
    return MatrixFamily(members[::-1] + members[:1])


class TestMetamorphicRelations:
    """Relations that follow from the definitions, checked at sizes no
    Fraction oracle reaches."""

    @pytest.mark.parametrize("n", [5, 20, 40])
    def test_member_permutation_and_duplication(self, tmp_path, n):
        # A_sup and A_inf are extrema over the set of members, and the
        # explicit bound reads nothing else of the family.
        family, _ = synthetic_inputs(tmp_path, n)
        other = reordered(family)
        assert other.member_count == family.member_count + 1
        assert (other.a_sup, other.a_inf) == (family.a_sup, family.a_inf)
        got, want = explicit_bound(other), explicit_bound(family)
        assert got.overall == want.overall
        assert got.term1 == want.term1 and got.term2 == want.term2

    @pytest.mark.parametrize("seed", ["fixture", 0, 3, 100, 121])
    def test_member_permutation_and_duplication_keep_the_transient(self, family5, seed):
        # Every sequence over the reordered members folds to the product
        # of a sequence over the original ones, of the same length, and
        # the reverse.  Permuting alone is a bijection of sequences, so it
        # also keeps the number of counterexamples.
        if seed == "fixture":
            family, horizon = family5, 16
        else:
            family = random_valid_family(random.Random(seed))
            horizon = explicit_bound(family).min_sufficient_length

        def scan(f):
            est = estimate_transient(f, horizon, "exhaustive", max_products=10**40)
            last = max((k for k, _ in est.counterexamples), default=0)
            return est.first_all_rank_one, last, len(est.counterexamples)

        want = scan(family)
        assert want[0] is not None
        assert scan(MatrixFamily(family.members[::-1])) == want
        assert scan(reordered(family))[:2] == want[:2]

    @pytest.mark.parametrize("n", [5, 20, 40])
    def test_relabelling_nodes(self, tmp_path, n):
        # Renaming nodes 2..n renames every walk and keeps node 1 with its
        # loop, so the bound terms are renamed the same way.  Only values
        # are compared: argmax and witnesses break ties by the smallest
        # label.
        family, seq = synthetic_inputs(tmp_path, n)
        perm = [0] + random.Random(n).sample(range(1, n), n - 1)
        assert perm != sorted(perm)
        other = MatrixFamily([relabelled(member, perm) for member in family.members])
        assert other.validate().passed
        for got, want in ((explicit_bound(other), explicit_bound(family)),
                          (implicit_sequence_bound(other, seq),
                           implicit_sequence_bound(family, seq))):
            assert got.overall == want.overall
            assert got.term1 == relabelled(want.term1, perm)
            assert got.term2 == relabelled(want.term2, perm)

    @pytest.mark.parametrize("n", [5, 20, 40])
    def test_mirror(self, tmp_path, n):
        # Every member transposed and the sequence reversed: w and v swap,
        # and so do alpha and beta, while gamma transposes.
        family, seq = synthetic_inputs(tmp_path, n)
        mirror = MatrixFamily([oracles.transpose(member) for member in family.members])
        got, want = explicit_bound(mirror), explicit_bound(family)
        assert got.overall == want.overall
        assert got.term1 == oracles.transpose(want.term1)
        assert got.term2 == oracles.transpose(want.term2)
        assert (implicit_sequence_bound(mirror, seq[::-1]).overall
                == implicit_sequence_bound(family, seq).overall)

    @pytest.mark.parametrize("n", [5, 20, 40])
    def test_diagonal_similarity(self, tmp_path, n):
        # a_ij - d_i + d_j with d_1 = 0 keeps every cycle weight, so the
        # family stays admissible and every bound term is unchanged.
        family, seq = synthetic_inputs(tmp_path, n)
        rng = random.Random(n)
        d = [Fraction(0)] + [Fraction(rng.randint(-40, 40), rng.choice((1, 2, 5)))
                             for _ in range(n - 1)]
        shifted = MatrixFamily([
            TropicalMatrix.from_rows([[None if x is None else x - d[i] + d[j]
                                       for j, x in enumerate(row)]
                                      for i, row in enumerate(oracles.grid(member))])
            for member in family.members])
        assert shifted.validate().passed
        assert shifted.members != family.members
        for got, want in ((explicit_bound(shifted), explicit_bound(family)),
                          (implicit_sequence_bound(shifted, seq),
                           implicit_sequence_bound(family, seq))):
            assert got.overall == want.overall
            assert got.term1 == want.term1 and got.term2 == want.term2

    @pytest.mark.parametrize("n", [5, 20, 40])
    def test_walk_classes(self, tmp_path, n):
        # A full walk touches node 1 or avoids it, so the better of the two
        # classes is the best full walk, the product's entry.  In an
        # admissible family the walk through node 1 is also the lemma
        # checks' join of a best arrival and a best departure, and the
        # anchored walks weigh the entries of w* and v*.
        family, seq = synthetic_inputs(tmp_path, n)
        t = build_trellis(family, seq)
        product = fold(family, seq)
        mem_num, mem_fin, seq0, den = t._arrays()
        mem = _kernels.encode(mem_num, mem_fin)
        joined = _kernels._through_table(_kernels.avoiding_sweep(mem, seq0)[0],
                                         _kernels.avoiding_sweep(*_kernels._mirror(mem, seq0))[0])
        joined = TropicalMatrix(*_kernels.decode(joined), den)
        rng = random.Random(n)
        pairs = [(1, 1), (1, n), (n, 1)]
        pairs += [(rng.randint(1, n), rng.randint(1, n)) for _ in range(12)]
        for i, j in pairs:
            through = best_through_one_weight(t, i, j)
            full = optimal_full_walk(t, i, j).weight
            assert oracles.oplus(through, best_avoiding_full_weight(t, i, j)) == full
            assert full == product.entry(i - 1, j - 1)
            assert through == joined.entry(i - 1, j - 1)
        w, v = initial_weights_all(t), final_weights_all(t)
        for i in range(1, n + 1):
            assert optimal_initial_walk(t, i).weight == w.entry(i - 1, 0)
            assert optimal_final_walk(t, i).weight == v.entry(i - 1, 0)
