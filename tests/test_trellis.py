import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest

import oracles
from oracles import is_eps
from conftest import late_arrival_family, random_valid_family
from tropical_transient import _kernels
from tropical_transient.family import MatrixFamily
from tropical_transient.matrix import TropicalMatrix
from tropical_transient.products import fold
from tropical_transient.semiring import EPSILON
from tropical_transient.trellis import (
    WalkSummary,
    best_avoiding_full_weight,
    best_through_one_weight,
    build_trellis,
    check_lemma_bounds,
    final_weights_all,
    initial_weights_all,
    optimal_final_walk,
    optimal_full_walk,
    optimal_initial_walk,
)


def layer_grids(trellis):
    return [oracles.grid(trellis.family.members[s - 1]) for s in trellis.indices]


def witness_weight(trellis, summary):
    """Recompute a witness walk's weight by following trellis edges."""
    nodes = [v - 1 for v in summary.witness]
    grids = layer_grids(trellis)
    total = Fraction(0)
    for step in range(len(nodes) - 1):
        w = grids[summary.start_layer + step][nodes[step]][nodes[step + 1]]
        assert w is not None, "witness uses a missing edge"
        total += w
    return total


def walks_from(grids, layer, node, steps):
    """Every walk of ``steps`` edges from (layer, node) over finite edges,
    as (weight, 0-based nodes)."""
    if steps == 0:
        yield Fraction(0), (node,)
        return
    for succ, w in enumerate(grids[layer][node]):
        if w is not None:
            for rest_w, rest in walks_from(grids, layer + 1, succ, steps - 1):
                yield w + rest_w, (node,) + rest


def random_case(rng, n_max=3, k_max=5):
    fam = random_valid_family(rng, n=rng.randint(2, n_max))
    k = rng.randint(1, k_max)
    seq = [rng.randint(1, fam.member_count) for _ in range(k)]
    return fam, seq


class TestStructure:
    def test_layers_and_edges(self, family5, seq44):
        t = build_trellis(family5, seq44)
        assert t.layer_count == 44
        assert t.node_size == 5
        assert t.indices == tuple(seq44.indices)

    def test_accepts_sequence_object_or_list(self, family5, seq44):
        a = build_trellis(family5, seq44)
        b = build_trellis(family5, list(seq44.indices))
        assert a.indices == b.indices

    def test_rejects_bad_member_indices(self, family5):
        for bad in ([0], [4], [1, 2, -1]):
            with pytest.raises(IndexError):
                build_trellis(family5, bad)

    def test_node_label_validation(self, family5):
        # Labels 0 and n + 1 in every position of every public DP, next to
        # node 1 too, whose shortcuts come after the check.
        t = build_trellis(family5, [1, 2])
        for bad in (0, 6):
            calls = [(dp, (bad,)) for dp in (optimal_initial_walk, optimal_final_walk)]
            calls += [
                (dp, args)
                for dp in (optimal_full_walk, best_avoiding_full_weight, best_through_one_weight)
                for good in (1, 2)
                for args in ((bad, good), (good, bad))
            ]
            for dp, args in calls:
                with pytest.raises(IndexError, match="node label"):
                    dp(t, *args)

    @pytest.mark.parametrize("dp, args, kernels", [
        (optimal_full_walk, (2, 3), ["_sweep"]),
        (optimal_full_walk, (1, 1), ["_sweep"]),
        (optimal_initial_walk, (3,), ["_sweep"]),
        (optimal_final_walk, (3,), ["_sweep"]),
        (best_avoiding_full_weight, (2, 3), ["_sweep"]),
        (best_through_one_weight, (2, 3), ["_sweep"]),
        (best_through_one_weight, (1, 1), ["_sweep"]),
        (optimal_initial_walk, (1,), []),
        (optimal_final_walk, (1,), []),
        (best_avoiding_full_weight, (1, 3), []),
        (best_avoiding_full_weight, (3, 1), []),
    ])
    def test_kernel_calls_per_query(self, family5, seq44, monkeypatch, dp, args, kernels):
        # Each single-start DP runs exactly one sweep, over its edited
        # member stack; the node-1 shortcuts run none.
        calls = []
        sweep = _kernels._sweep
        monkeypatch.setattr(_kernels, "_sweep",
                            lambda *a, **kw: calls.append("_sweep") or sweep(*a, **kw))
        dp(build_trellis(family5, seq44), *args)
        assert calls == kernels

    def test_every_walk_and_witness_is_pinned(self):
        # The digest of every public walk query, witnesses and their
        # tie-breaks included, on random admissible families.  No oracle
        # pins the tie-breaks, so a rewrite of the DPs must not move it.
        rows = []
        for seed in range(100):
            rng = random.Random(seed)
            fam = random_valid_family(rng)
            n, m = fam.size, fam.member_count
            for k in (0, 1, 3, 2 * n + 1):
                t = build_trellis(fam, [rng.randint(1, m) for _ in range(k)])
                for i in range(1, n + 1):
                    rows.append((optimal_initial_walk(t, i), optimal_final_walk(t, i)))
                    rows += [(optimal_full_walk(t, i, j), best_through_one_weight(t, i, j),
                              best_avoiding_full_weight(t, i, j)) for j in range(1, n + 1)]
        assert len(rows) == 4864
        assert hashlib.sha256(repr(rows).encode("utf-8")).hexdigest() == (
            "3ff672f13f3a386f1189de5ae3c9ccd78dcde1acb97acdaf23ae4adaa2bda640")


class TestFullWalks:
    def test_weight_equals_product_entry(self, family5, seq44):
        t = build_trellis(family5, seq44)
        product = fold(family5, seq44)
        for i in (1, 3, 5):
            for j in (1, 2, 4):
                s = optimal_full_walk(t, i, j)
                assert s.weight == product.entry(i - 1, j - 1)
                assert s.length == 44 and s.start_layer == 0
                assert s.witness[0] == i and s.witness[-1] == j
                assert witness_weight(t, s) == s.weight

    def test_against_exhaustive_tuples(self):
        rng = random.Random(31)
        for _ in range(40):
            fam, seq = random_case(rng)
            t = build_trellis(fam, seq)
            grids = [oracles.grid(fam.members[s - 1]) for s in seq]
            for i in range(1, fam.size + 1):
                for j in range(1, fam.size + 1):
                    s = optimal_full_walk(t, i, j)
                    want, _ = oracles.trellis_best_full(grids, i - 1, j - 1)
                    if want is None:
                        assert not s.exists
                        assert s == WalkSummary(EPSILON, None, None, None, None)
                    else:
                        assert s.weight == want
                        assert witness_weight(t, s) == want

    def test_empty_sequence(self, family5):
        t = build_trellis(family5, [])
        s = optimal_full_walk(t, 2, 2)
        assert s.weight == 0 and s.length == 0 and s.witness == (2,)
        assert not optimal_full_walk(t, 2, 3).exists


class TestAnchoredWalks:
    def test_conventions_at_the_anchor(self, family5):
        t = build_trellis(family5, [1, 2, 3])
        init = optimal_initial_walk(t, 1)
        assert init == WalkSummary(Fraction(0), 0, 0, (1,), 0)
        fin = optimal_final_walk(t, 1)
        assert fin == WalkSummary(Fraction(0), 0, 0, (1,), 3)

    def test_against_enumeration_and_tuples(self):
        rng = random.Random(32)
        for _ in range(40):
            fam, seq = random_case(rng)
            t = build_trellis(fam, seq)
            grids = [oracles.grid(fam.members[s - 1]) for s in seq]
            for node in range(1, fam.size + 1):
                dp = optimal_initial_walk(t, node)
                want_w, want_len = oracles.trellis_best_initial(grids, node - 1)
                if want_w is None:
                    assert not dp.exists
                else:
                    assert dp.weight == want_w
                    assert dp.length == want_len
                    assert dp.min_length_among_optima == want_len
                    if node != 1:
                        assert witness_weight(t, dp) == want_w
                        assert dp.witness[-1] == 1
                        assert all(v != 1 for v in dp.witness[:-1])

                dp = optimal_final_walk(t, node)
                want_w, want_len = oracles.trellis_best_final(grids, node - 1)
                if want_w is None:
                    assert not dp.exists
                else:
                    assert dp.weight == want_w
                    assert dp.length == want_len
                    assert dp.min_length_among_optima == want_len
                    if node != 1:
                        assert witness_weight(t, dp) == want_w
                        assert dp.witness[0] == 1
                        assert all(v != 1 for v in dp.witness[1:])
                        assert dp.start_layer + dp.length == t.layer_count

    def test_witness_tie_breaks_against_enumeration(self):
        # Every walk of both classes, enumerated.  The initial witness is
        # the optimal walk at the earliest arrival layer whose reversed
        # node list is smallest; the final witness is the forward
        # lexicographically smallest optimal walk at the latest departure
        # layer.  Dense members with weights in {-1, 0} tie heavily.
        rng = random.Random(47)
        for case in range(50):
            if case % 2:
                fam, seq = random_case(rng, n_max=4, k_max=5)
            else:
                n = rng.randint(2, 4)
                fam = MatrixFamily([
                    TropicalMatrix.from_rows(
                        [[rng.choice((-1, 0, 0, None)) for _ in range(n)] for _ in range(n)])
                    for _ in range(rng.randint(1, 3))
                ])
                seq = [rng.randint(1, fam.member_count) for _ in range(rng.randint(0, 5))]
            t = build_trellis(fam, seq)
            grids = layer_grids(t)
            k = len(seq)
            for node in range(2, fam.size + 1):
                initial = [(w, nodes) for a in range(1, k + 1)
                           for w, nodes in walks_from(grids, 0, node - 1, a)
                           if nodes[-1] == 0 and 0 not in nodes[:-1]]
                want = None
                if initial:
                    best = max(w for w, _ in initial)
                    layer = min(len(nodes) - 1 for w, nodes in initial if w == best)
                    nodes = min((nodes for w, nodes in initial
                                 if w == best and len(nodes) == layer + 1),
                                key=lambda nodes: nodes[::-1])
                    want = WalkSummary(best, layer, layer, tuple(x + 1 for x in nodes), 0)
                got = optimal_initial_walk(t, node)
                assert got == (want or WalkSummary(EPSILON, None, None, None, None))

                final = [(w, b, nodes) for b in range(k)
                         for w, nodes in walks_from(grids, b, 0, k - b)
                         if nodes[-1] == node - 1 and 0 not in nodes[1:]]
                want = None
                if final:
                    best = max(w for w, _, _ in final)
                    layer = max(b for w, b, _ in final if w == best)
                    nodes = min(nodes for w, b, nodes in final if w == best and b == layer)
                    want = WalkSummary(best, k - layer, k - layer,
                                       tuple(x + 1 for x in nodes), layer)
                got = optimal_final_walk(t, node)
                assert got == (want or WalkSummary(EPSILON, None, None, None, None))

    def test_unreachable_gives_empty_summary(self, family5):
        # a single factor cannot take node 3 to node 1 (no 3 -> 1 edge)
        t = build_trellis(family5, [1])
        s = optimal_initial_walk(t, 3)
        assert not s.exists
        assert s.witness is None and s.length is None

    def test_bulk_vectors_match_singles(self, family5, seq44):
        t = build_trellis(family5, seq44)
        wstar = initial_weights_all(t)
        vstar = final_weights_all(t)
        for node in range(1, 6):
            assert wstar.entry(node - 1, 0) == optimal_initial_walk(t, node).weight
            assert vstar.entry(node - 1, 0) == optimal_final_walk(t, node).weight

    def test_bulk_vectors_on_random_cases(self):
        rng = random.Random(33)
        for _ in range(30):
            fam, seq = random_case(rng, n_max=4, k_max=8)
            t = build_trellis(fam, seq)
            wstar = initial_weights_all(t)
            vstar = final_weights_all(t)
            for node in range(1, fam.size + 1):
                assert wstar.entry(node - 1, 0) == optimal_initial_walk(t, node).weight
                assert vstar.entry(node - 1, 0) == optimal_final_walk(t, node).weight


class TestSplitWalks:
    def test_avoiding_and_through_partition_full(self):
        rng = random.Random(34)
        for _ in range(40):
            fam, seq = random_case(rng, n_max=4, k_max=6)
            t = build_trellis(fam, seq)
            for i in range(1, fam.size + 1):
                for j in range(1, fam.size + 1):
                    full = optimal_full_walk(t, i, j).weight
                    avoid = best_avoiding_full_weight(t, i, j)
                    through = best_through_one_weight(t, i, j)
                    combined = (
                        avoid if is_eps(through)
                        else through if is_eps(avoid)
                        else max(avoid, through)
                    )
                    if is_eps(full):
                        assert is_eps(combined)
                    else:
                        assert combined == full

    def test_against_tuple_oracle(self):
        rng = random.Random(35)
        for _ in range(30):
            fam, seq = random_case(rng)
            t = build_trellis(fam, seq)
            grids = [oracles.grid(fam.members[s - 1]) for s in seq]
            for i in range(1, fam.size + 1):
                for j in range(1, fam.size + 1):
                    got = best_avoiding_full_weight(t, i, j)
                    want, _ = oracles.trellis_best_avoiding(grids, i - 1, j - 1)
                    assert (want is None) == is_eps(got)
                    if want is not None:
                        assert got == want
                    got = best_through_one_weight(t, i, j)
                    want, _ = oracles.trellis_best_through(grids, i - 1, j - 1)
                    assert (want is None) == is_eps(got)
                    if want is not None:
                        assert got == want

    def test_anchor_endpoints(self, family5):
        t = build_trellis(family5, [1, 2, 3])
        # walks starting or ending at node 1 touch it by definition
        assert is_eps(best_avoiding_full_weight(t, 1, 2))
        assert is_eps(best_avoiding_full_weight(t, 2, 1))
        full = optimal_full_walk(t, 1, 2).weight
        assert best_through_one_weight(t, 1, 2) == full


class TestLemmaChecks:
    def test_fixture_sequence(self, family5, seq44):
        report = check_lemma_bounds(build_trellis(family5, seq44))
        assert report.all_hold
        assert report.initial_length.checked == 5
        assert report.initial_length.skipped == 0
        assert report.through_one_decomposition.checked == 25
        assert report.avoiding_strictly_below.checked == 25
        for check in (
            report.initial_length,
            report.final_length,
            report.through_one_decomposition,
            report.avoiding_strictly_below,
        ):
            assert check.holds and check.failures == ()

    def test_short_sequences_skip_pairs(self, family5):
        report = check_lemma_bounds(build_trellis(family5, [1]))
        # k = 1 is far below both thresholds: nothing to check there
        assert report.through_one_decomposition.checked == 0
        assert report.avoiding_strictly_below.checked <= 25
        assert report.all_hold

    def test_calls_no_anchor_kernel(self, family5, seq44, monkeypatch):
        # w* and v* come off the avoiding sweeps' own tables.
        one = MatrixFamily([TropicalMatrix.from_rows([[0]])] * 2)
        trellises = [build_trellis(family5, seq44), build_trellis(family5, []),
                     build_trellis(one, [1, 2, 1])]
        rng = random.Random(44)
        for _ in range(10):
            fam = random_valid_family(rng, n=rng.randint(2, 6))
            k = rng.randint(0, 40)
            trellises.append(build_trellis(fam, [rng.randint(1, fam.member_count)
                                                 for _ in range(k)]))
        want = [oracles.fraction_lemma_report(t) for t in trellises]

        def refuse(*args):
            raise AssertionError("anchor kernel called")

        monkeypatch.setattr(_kernels, "ACTIVE", _kernels.ACTIVE._replace(
            initial_to_anchor=refuse, final_from_anchor=refuse))
        # Fresh trellises, so nothing the oracle computed is reused.
        assert [check_lemma_bounds(build_trellis(t.family, t.indices))
                for t in trellises] == want

    def test_random_families_hold(self):
        rng = random.Random(38)
        for _ in range(25):
            fam = random_valid_family(rng)
            k = rng.randint(1, 20)
            seq = [rng.randint(1, fam.member_count) for _ in range(k)]
            report = check_lemma_bounds(build_trellis(fam, seq))
            assert report.all_hold, (fam, seq, report)


def shifted(m, delta):
    """m with every finite entry moved by delta."""
    num, fin = m.scaled(m.denominator)
    return TropicalMatrix(num + delta * m.denominator, fin, m.denominator)


class TestLemmaOracle:
    """check_lemma_bounds against the per-pair Fraction reference."""

    def assert_matches(self, trellis):
        got = check_lemma_bounds(trellis)
        assert got == oracles.fraction_lemma_report(trellis)
        return got

    def test_fixture(self, family5, seq44):
        self.assert_matches(build_trellis(family5, seq44))
        self.assert_matches(build_trellis(family5, [1]))

    def test_random_families(self):
        rng = random.Random(39)
        no_extras = 0
        for case in range(60):
            fam = random_valid_family(rng)
            no_extras += is_eps(fam.sup_derived.lambda_star.mean)
            k = 0 if case % 10 == 0 else rng.randint(1, 20)
            seq = [rng.randint(1, fam.member_count) for _ in range(k)]
            self.assert_matches(build_trellis(fam, seq))
        assert no_extras > 0  # some cases have lambda* = -inf

    def test_long_sequences_absorb(self, branch_spy):
        # Up to 60 factors, so the two all-starts avoiding sweeps turn
        # rank-one and finish as vector sweeps.  n = 1 has no cut block at
        # all, and n = 2 families without a loop at node 2 have a -inf cut
        # pivot at every layer.  In the late-arrival families member 2 at
        # layer 10 lets every start arrive at node 1 late.
        rng = random.Random(45)
        one = MatrixFamily([TropicalMatrix.from_rows([[0]])] * 2)
        cases = [(one, [rng.randint(1, 2) for _ in range(k)]) for k in (1, 7, 60)]
        for case in range(40):
            fam = random_valid_family(rng, n=2 if case % 4 == 0 else rng.randint(3, 6))
            k = rng.randint(1, 60)
            cases.append((fam, [rng.randint(1, fam.member_count) for _ in range(k)]))
        for n in (2, 3, 5):
            tail = [rng.randint(1, 2) for _ in range(rng.randint(0, 50))]
            cases.append((late_arrival_family(random.Random(n), n), [1] * 9 + [2] + tail))
        absorbs = 0
        for fam, seq in cases:
            trellis = build_trellis(fam, seq)
            before = branch_spy.absorbs
            got = check_lemma_bounds(trellis)
            absorbs += branch_spy.absorbs - before
            assert got == oracles.fraction_lemma_report(trellis)
        assert absorbs > 0

    def test_perturbed_sup_derived_fails_every_check(self):
        # Shifting alpha, beta and gamma down by 50 lowers every threshold
        # below what the walks achieve on short sequences.  With lambda* =
        # -inf the thresholds ignore the shift, so those families are left
        # out.
        rng = random.Random(40)
        failing = {"initial": 0, "final": 0, "through": 0, "avoiding": 0}
        cases = 0
        while cases < 40:
            fam = random_valid_family(rng)
            d = fam.sup_derived
            if is_eps(d.lambda_star.mean):
                continue
            cases += 1
            fam.__dict__["sup_derived"] = dataclasses.replace(
                d, alpha=shifted(d.alpha, -50), beta=shifted(d.beta, -50),
                gamma=shifted(d.gamma, -50),
            )
            k = rng.randint(1, 8)
            seq = [rng.randint(1, fam.member_count) for _ in range(k)]
            got = self.assert_matches(build_trellis(fam, seq))
            failing["initial"] += len(got.initial_length.failures)
            failing["final"] += len(got.final_length.failures)
            failing["through"] += len(got.through_one_decomposition.failures)
            failing["avoiding"] += len(got.avoiding_strictly_below.failures)
        assert all(count > 0 for count in failing.values()), failing

    @pytest.mark.parametrize("check, key, anchor, walk", [
        ("initial_length", "i", "alpha", optimal_initial_walk),
        ("final_length", "j", "beta", optimal_final_walk),
    ])
    def test_fractional_length_bound_boundary(self, family5, seq44, check, key, anchor, walk):
        # One node's alpha (or beta) moves so that its length bound is
        # ell + 1/2, then ell - 1/2, for its minimum optimal walk length
        # ell: the length floor(bound) passes and floor(bound) + 1 fails.
        fam = MatrixFamily(family5.members)
        derived = fam.sup_derived
        lam, n = derived.lambda_star.mean, fam.size
        trellis = build_trellis(fam, seq44.indices[:12])
        x = max(range(2, n + 1), key=lambda x: walk(trellis, x).min_length_among_optima)
        summary = walk(trellis, x)
        ell = summary.min_length_among_optima
        assert ell >= 2
        for bound, fails in ((ell + Fraction(1, 2), False), (ell - Fraction(1, 2), True)):
            moved = summary.weight - (bound - (n - 1)) * lam
            vec = getattr(derived, anchor).with_entry(x - 1, 0, moved)
            fam.__dict__["sup_derived"] = dataclasses.replace(derived, **{anchor: vec})
            got = check_lemma_bounds(trellis)
            assert got == oracles.fraction_lemma_report(trellis)
            failures = {f[key]: f for f in getattr(got, check).failures}
            if fails:
                assert failures[x] == {key: x, "min_length": ell, "bound": f"{2 * ell - 1}/2"}
            else:
                assert x not in failures

    def test_thresholds_beyond_int64_are_rejected(self):
        # The checks share the bound terms' int64 guard: a lambda* with a
        # 2^31 denominator scales these thresholds past it, although the
        # walk facts themselves hold.
        tiny = Fraction(-1, 2**31)
        fam = MatrixFamily([TropicalMatrix.from_rows([[0, -5], [-5, tiny]])])
        assert fam.validate().passed
        trellis = build_trellis(fam, [1] * 10)
        assert oracles.fraction_lemma_report(trellis).all_hold
        with pytest.raises(OverflowError, match="^bound terms: "):
            check_lemma_bounds(trellis)
