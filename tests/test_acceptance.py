"""End-to-end acceptance suite.

One test per contract item, in order, against the bundled five-node
family, its length-44 sequence and the reference-value file.  Each test
recomputes what it asserts through an independent route (exhaustive
path, cycle or walk enumeration, or a closed-form transcription) before
trusting the library, and the timed items assert their budgets on warmed
kernels (the session-wide warmup fixture runs first).
"""

import random
import time
from fractions import Fraction

from tropical_transient.bounds import compute_bound_report, explicit_bound, implicit_bound
from tropical_transient.family import MatrixFamily
from tropical_transient.io import column_tokens, matrix_tokens
from tropical_transient.matrix import TropicalMatrix, rank_one_factor
from tropical_transient.products import fold
from tropical_transient.report import deviations_between
from tropical_transient.semiring import EPSILON, Epsilon, weight_from_token
from tropical_transient.trellis import (
    build_trellis,
    check_lemma_bounds,
    final_weights_all,
    initial_weights_all,
    optimal_final_walk,
    optimal_full_walk,
    optimal_initial_walk,
)

from oracles import (
    best_simple_path,
    column,
    grid,
    grid_le,
    max_cycle_mean,
    outer_product,
    random_sequence,
    simple_cycles,
    trellis_best_final,
    trellis_best_full,
    trellis_best_initial,
)


def column_from_tokens(tokens) -> TropicalMatrix:
    return TropicalMatrix.from_rows([[weight_from_token(t)] for t in tokens])


def matrix_from_tokens(rows) -> TropicalMatrix:
    return TropicalMatrix.from_rows([[weight_from_token(t) for t in r] for r in rows])


def oracle_path_vectors(family):
    """(alpha, beta, gamma, w, v) by exhaustive simple-path and cycle
    enumeration, as Fraction-or-None grids with 0-based node labels."""
    sup = grid(family.a_sup)
    inf = grid(family.a_inf)
    n = family.size
    alpha = [Fraction(0) if i == 0 else best_simple_path(sup, i, 0) for i in range(n)]
    beta = [Fraction(0) if j == 0 else best_simple_path(sup, 0, j) for j in range(n)]
    cycles = simple_cycles(sup, forbidden=(0,))
    gamma = [[None] * n for _ in range(n)]
    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                through = [w for nodes, w in cycles if i in nodes]
                gamma[i][j] = max(through) if through else None
            else:
                gamma[i][j] = best_simple_path(sup, i, j, forbidden=(0,))
    w = [Fraction(0) if i == 0 else best_simple_path(inf, i, 0) for i in range(n)]
    v = [Fraction(0) if j == 0 else best_simple_path(inf, 0, j) for j in range(n)]
    return alpha, beta, gamma, w, v


def assert_column_equals(column: TropicalMatrix, values) -> None:
    for i, val in enumerate(values):
        got = column.entry(i, 0)
        if val is None:
            assert got is EPSILON
        else:
            assert got == val


# -- 1: boundary matrices ---------------------------------------------------

def test_boundary_matrices_match_reference_bit_exactly_within_a_millisecond(
    family5, expected5
):
    members = family5.members
    best = float("inf")
    for _ in range(10):
        start = time.perf_counter()
        family = MatrixFamily(members)
        a_sup, a_inf = family.a_sup, family.a_inf
        best = min(best, time.perf_counter() - start)
    assert matrix_tokens(a_sup) == expected5["a_sup"]
    assert matrix_tokens(a_inf) == expected5["a_inf"]
    assert sum(1 for row in expected5["a_sup"] for _ in row) == 25
    assert best < 1e-3


# -- 2: the off-1 cycle mean ------------------------------------------------

def test_off_one_cycle_mean_is_minus_two_thirds_on_cycle_2_5_4(family5):
    lam = family5.sup_derived.lambda_star
    assert lam.mean == Fraction(-2, 3)
    assert lam.witness == (2, 5, 4)
    mean, attaining = max_cycle_mean(grid(family5.a_sup), forbidden=(0,))
    assert mean == Fraction(-2, 3)
    assert tuple(x - 1 for x in lam.witness) in attaining


# -- 3: path vectors and their reference mismatches -------------------------

def test_path_vectors_match_enumeration_and_reference_mismatches_are_reported(
    family5, expected5
):
    derived = family5.sup_derived
    w = family5.inf_walk_to_one()
    v = family5.inf_walk_from_one()
    alpha_o, beta_o, gamma_o, w_o, v_o = oracle_path_vectors(family5)

    assert_column_equals(derived.alpha, alpha_o)
    assert_column_equals(derived.beta, beta_o)
    assert_column_equals(w, w_o)
    assert_column_equals(v, v_o)
    for i in range(family5.size):
        for j in range(family5.size):
            got = derived.gamma.entry(i, j)
            want = gamma_o[i][j]
            assert got is EPSILON if want is None else got == want

    assert column_tokens(derived.alpha) == [0, -3, -6, -4, -1]
    assert column_tokens(derived.beta) == expected5["beta"]
    assert matrix_tokens(derived.gamma) == expected5["gamma"]
    assert column_tokens(w) == [0, -5, -14, -10, -6]
    assert column_tokens(v) == [0, -4, -4, -8, -10]

    computed = {
        "alpha": column_tokens(derived.alpha),
        "beta": column_tokens(derived.beta),
        "gamma": matrix_tokens(derived.gamma),
        "w": column_tokens(w),
        "v": column_tokens(v),
    }
    devs = deviations_between(computed, expected5)
    assert [(d["field"], d["position"]) for d in devs] == [
        ("alpha", [5]),
        ("w", [2]),
        ("w", [3]),
        ("w", [4]),
        ("v", [2]),
    ]


# -- 4: the product-specific bound ------------------------------------------

def test_product_specific_bound_is_55_halves_and_reference_disagreements_are_logged(
    family5, seq44, expected5
):
    product = fold(family5, seq44)
    rep = implicit_bound(family5, product)
    assert rep.overall == Fraction(55, 2)
    assert rep.min_sufficient_length == 28
    computed = {
        "implicit_term1": matrix_tokens(rep.term1),
        "implicit_term2": matrix_tokens(rep.term2),
    }
    devs = deviations_between(computed, expected5)
    term1 = [d for d in devs if d["field"] == "implicit_term1"]
    term2 = [d for d in devs if d["field"] == "implicit_term2"]
    assert [d["position"] for d in term1] == [[5, 4]]
    assert term1[0]["computed"] == 25
    assert term1[0]["expected"] == 28
    assert [d["position"] for d in term2] == [[5, j] for j in range(1, 6)]


# -- 5: the family-level bound ----------------------------------------------

def test_family_bound_is_34_and_reference_vectors_reproduce_their_own_bound(
    family5, expected5
):
    rep = explicit_bound(family5)
    assert rep.overall == Fraction(34)
    assert rep.min_sufficient_length == 35

    # closed-form re-evaluation from independently enumerated vectors
    alpha_o, beta_o, gamma_o, w_o, v_o = oracle_path_vectors(family5)
    lam, _ = max_cycle_mean(grid(family5.a_sup), forbidden=(0,))
    n = family5.size
    best = None
    for i in range(n):
        for j in range(n):
            terms = []
            if None not in (w_o[i], v_o[j], gamma_o[i][j]):
                terms.append((w_o[i] + v_o[j] - gamma_o[i][j]) / lam + (n - 1))
            if None not in (w_o[i], alpha_o[i], v_o[j], beta_o[j]):
                terms.append(
                    (w_o[i] - alpha_o[i] + v_o[j] - beta_o[j]) / lam + 2 * (n - 1)
                )
            for t in terms:
                if best is None or t > best:
                    best = t
    assert best == Fraction(34)

    # the reference vectors, taken verbatim, give 32.5 and so need k > 33
    ref = compute_bound_report(
        w=column_from_tokens(expected5["w"]),
        v=column_from_tokens(expected5["v"]),
        alpha=column_from_tokens(expected5["alpha"]),
        beta=column_from_tokens(expected5["beta"]),
        gamma=matrix_from_tokens(expected5["gamma"]),
        lam=weight_from_token(expected5["lambda_star"]),
        mode="explicit",
    )
    assert ref.overall == Fraction(65, 2)
    assert ref.min_sufficient_length == 33


# -- 6: folding the length-44 sequence --------------------------------------

def test_folding_the_length_44_sequence_yields_the_reference_rank_one_product(
    family5, seq44, expected5
):
    product = fold(family5, seq44)
    assert matrix_tokens(product) == expected5["product"]

    factors = rank_one_factor(product)
    assert factors is not None
    column, row = factors
    assert column_tokens(column) == [0, -3, -10, -10, -6]
    assert column_tokens(row) == [0, -1, -2, -6, -4]
    assert column_tokens(column) == expected5["w_star"]
    assert column_tokens(row) == expected5["v_star"]

    trellis = build_trellis(family5, seq44)
    for i in range(1, 6):
        for j in range(1, 6):
            assert optimal_full_walk(trellis, i, j).weight == product.entry(i - 1, j - 1)


# -- 7: soundness over long random sequences --------------------------------

def test_thousand_long_random_products_are_rank_one_with_dp_end_factors(family5):
    rnd = random.Random(701)
    start = time.perf_counter()
    for trial in range(1000):
        length = rnd.randint(35, 80)
        seq = random_sequence(family5, length, seed=trial)
        product = fold(family5, seq)
        pivot = product.entry(0, 0)
        assert not isinstance(pivot, Epsilon)
        for i in range(5):
            for j in range(5):
                gi1 = product.entry(i, 0)
                g1j = product.entry(0, j)
                gij = product.entry(i, j)
                if isinstance(gi1, Epsilon) or isinstance(g1j, Epsilon):
                    assert gij is EPSILON
                else:
                    assert gij == gi1 + g1j - pivot
        assert rank_one_factor(product) is not None
        trellis = build_trellis(family5, seq)
        assert column(initial_weights_all(trellis)) == [row[0] for row in grid(product)]
        assert column(final_weights_all(trellis)) == grid(product)[0]
    assert time.perf_counter() - start < 10.0


# -- 8: dynamic programs against exhaustive enumeration ---------------------

def test_walk_dp_matches_exhaustive_enumeration_on_random_small_families(make_family):
    rnd = random.Random(802)
    start = time.perf_counter()
    lemma_totals = {"initial": 0, "final": 0, "through": 0, "avoiding": 0}
    for _ in range(200):
        family = make_family(rnd)
        n = family.size
        k = rnd.randint(1, 8)
        indices = [rnd.randint(1, family.member_count) for _ in range(k)]
        trellis = build_trellis(family, indices)
        grids = [grid(family.members[x - 1]) for x in indices]

        for i in range(1, n + 1):
            for j in range(1, n + 1):
                full = optimal_full_walk(trellis, i, j)
                weight, length = trellis_best_full(grids, i - 1, j - 1)
                if weight is None:
                    assert full.weight is EPSILON
                else:
                    assert full.weight == weight
                    assert full.min_length_among_optima == length

        for i in range(1, n + 1):
            summary = optimal_initial_walk(trellis, i)
            weight, length = trellis_best_initial(grids, i - 1)
            if weight is None:
                assert summary.weight is EPSILON
            else:
                assert summary.weight == weight
                assert summary.min_length_among_optima == length
            summary = optimal_final_walk(trellis, i)
            weight, length = trellis_best_final(grids, i - 1)
            if weight is None:
                assert summary.weight is EPSILON
            else:
                assert summary.weight == weight
                assert summary.min_length_among_optima == length

        lemmas = check_lemma_bounds(trellis)
        assert lemmas.all_hold
        lemma_totals["initial"] += lemmas.initial_length.checked
        lemma_totals["final"] += lemmas.final_length.checked
        lemma_totals["through"] += lemmas.through_one_decomposition.checked
        lemma_totals["avoiding"] += lemmas.avoiding_strictly_below.checked
    assert all(count > 0 for count in lemma_totals.values())
    assert time.perf_counter() - start < 60.0


# -- 9: algebraic identities ------------------------------------------------

def random_weight(rnd, eps_rate=0.25):
    if rnd.random() < eps_rate:
        return EPSILON
    return Fraction(rnd.randint(-12, 12), rnd.randint(1, 4))


def random_matrix(rnd, rows, cols, eps_rate=0.25):
    return TropicalMatrix.from_rows(
        [[random_weight(rnd, eps_rate) for _ in range(cols)] for _ in range(rows)]
    )


def weakened(rnd, m):
    """A random matrix entrywise below m."""
    rows = []
    for i in range(m.rows):
        row = []
        for j in range(m.cols):
            w = m.entry(i, j)
            roll = rnd.random()
            if roll < 0.2 or isinstance(w, Epsilon):
                row.append(EPSILON)
            elif roll < 0.6:
                row.append(w - Fraction(rnd.randint(1, 8), rnd.randint(1, 3)))
            else:
                row.append(w)
        rows.append(row)
    return TropicalMatrix.from_rows(rows)


def test_algebraic_identities_hold_over_randomized_exact_instances(make_family):
    rnd = random.Random(909)

    for _ in range(500):
        p, q, r, s = (rnd.randint(1, 4) for _ in range(4))
        a = random_matrix(rnd, p, q)
        b = random_matrix(rnd, q, r)
        c = random_matrix(rnd, r, s)
        assert (a @ b) @ c == a @ (b @ c)

    for _ in range(500):
        p, q, r = (rnd.randint(1, 4) for _ in range(3))
        upper_a = random_matrix(rnd, p, q)
        upper_b = random_matrix(rnd, q, r)
        assert grid_le(grid(weakened(rnd, upper_a) @ weakened(rnd, upper_b)), grid(upper_a @ upper_b))

    for _ in range(500):
        p = rnd.randint(1, 5)
        col = random_matrix(rnd, p, 1, eps_rate=0.3)
        row = random_matrix(rnd, p, 1, eps_rate=0.3)
        col = col.with_entry(0, 0, Fraction(rnd.randint(-9, 9)))
        row = row.with_entry(0, 0, Fraction(rnd.randint(-9, 9)))
        m = outer_product(col, row)
        factors = rank_one_factor(m)
        assert factors is not None
        got_col, got_row = factors
        assert got_row.entry(0, 0) == 0
        assert outer_product(got_col, got_row) == m

    identity_checks = 0
    for _ in range(500):
        base = make_family(rnd, n=rnd.randint(3, 4))
        members = [
            mem.with_entry(2, 1, Fraction(rnd.randint(-6, -1)))
            for mem in base.members
        ]
        family = MatrixFamily(members)
        assert family.validate().passed
        derived = family.sup_derived
        lam = derived.lambda_star.mean
        assert isinstance(lam, Fraction) and lam < 0
        rep = explicit_bound(family)
        n = family.size
        for i in range(n):
            for j in range(n):
                t1 = rep.term1.entry(i, j)
                t2 = rep.term2.entry(i, j)
                if isinstance(t1, Epsilon) or isinstance(t2, Epsilon):
                    continue
                gap = (
                    derived.gamma.entry(i, j)
                    - derived.alpha.entry(i, 0)
                    - derived.beta.entry(j, 0)
                ) / lam + (n - 1)
                assert t2 - t1 == gap
                identity_checks += 1
    assert identity_checks >= 500
