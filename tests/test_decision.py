from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dnadecide.decision import (
    DecisionMatrix,
    DuplicateLabelError,
    MatrixError,
    Option,
    Outcome,
    Payoff,
    best_options,
    build_matrix,
    expected_utility,
    validate_matrix,
)

F = Fraction


def brute_expected_utility(matrix, i):
    # independent re-derivation: sum of P_j * u(class) straight off the matrix
    opt = matrix.options[i]
    return sum(
        out.probability
        * (matrix.u_favorable if pay is Payoff.FAVORABLE else matrix.u_unfavorable)
        for out, pay in zip(matrix.outcomes, opt.payoffs)
    )


def test_ball_game_expected_utilities(ball_game):
    assert expected_utility(ball_game, 0) == F(7, 9)
    assert expected_utility(ball_game, 1) == F(6, 9)
    assert expected_utility(ball_game, 2) == F(5, 9)
    for i in range(3):
        assert expected_utility(ball_game, i) == brute_expected_utility(ball_game, i)


def test_ball_game_best_option(ball_game):
    assert best_options(ball_game) == [0]


def test_single_option_single_outcome_is_valid():
    m = build_matrix(outcomes=[("only", F(1))], options=[("go", ["only"])])
    assert expected_utility(m, 0) == 1
    assert best_options(m) == [0]


def test_constant_utilities_make_every_option_best():
    m = build_matrix(
        outcomes=[("a", F(1, 2)), ("b", F(1, 2))],
        options=[("x", ["a"]), ("y", ["b"]), ("z", [])],
        u_favorable=F(3, 7),
        u_unfavorable=F(3, 7),
    )
    assert [expected_utility(m, i) for i in range(3)] == [F(3, 7)] * 3
    assert best_options(m) == [0, 1, 2]


def test_uniform_probabilities_tie_the_ball_game():
    m = build_matrix(
        outcomes=[("red", F(1, 3)), ("black", F(1, 3)), ("white", F(1, 3))],
        options=[
            ("option-1", ["red", "black"]),
            ("option-2", ["red", "white"]),
            ("option-3", ["black", "white"]),
        ],
    )
    assert [expected_utility(m, i) for i in range(3)] == [F(2, 3)] * 3
    assert best_options(m) == [0, 1, 2]


def test_probability_sum_rejected():
    with pytest.raises(MatrixError, match="sum to 3/2, expected 1"):
        build_matrix(
            outcomes=[("a", F(1, 2)), ("b", F(1, 2)), ("c", F(1, 2))],
            options=[("x", ["a"])],
        )


def test_probability_out_of_range_rejected():
    with pytest.raises(MatrixError):
        build_matrix(
            outcomes=[("a", F(3, 2)), ("b", F(-1, 2))],
            options=[("x", ["a"])],
        )


def test_empty_options_rejected():
    with pytest.raises(MatrixError, match="at least one option"):
        build_matrix(outcomes=[("a", F(1))], options=[])


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabelError):
        build_matrix(
            outcomes=[("a", F(1, 2)), ("a", F(1, 2))],
            options=[("x", ["a"])],
        )
    with pytest.raises(DuplicateLabelError):
        build_matrix(
            outcomes=[("a", F(1))],
            options=[("x", ["a"]), ("x", [])],
        )


def test_label_errors_name_the_first_bad_label_in_input_order():
    quarters = [F(1, 4)] * 4
    with pytest.raises(MatrixError, match="marks unknown outcome 'zz' favorable"):
        build_matrix(outcomes=[("a", F(1))], options=[("x", ["a", "zz", "yy"]), ("y", ["ww"])])
    # "b" is declared first, but "a" is the first label seen a second time
    for outcomes, options, family, label in [
        (["b", "a", "a", "b"], ["x"], "outcome", "a"),
        (["a", "b", "c", "d"], ["y", "x", "x", "y"], "option", "x"),
    ]:
        with pytest.raises(DuplicateLabelError, match=f"duplicate {family} label '{label}'"):
            build_matrix(list(zip(outcomes, quarters)), [(o, []) for o in options])


def test_missing_payoff_class_rejected():
    m = DecisionMatrix(
        outcomes=(Outcome("a", F(1, 2)), Outcome("b", F(1, 2))),
        options=(Option("x", (Payoff.FAVORABLE,)),),
    )
    with pytest.raises(MatrixError, match="classifies 1 outcomes, expected 2"):
        validate_matrix(m)


def test_inverted_utilities_rejected():
    with pytest.raises(MatrixError, match="favorable utility must be at least"):
        build_matrix(
            outcomes=[("a", F(1))],
            options=[("x", ["a"])],
            u_favorable=F(0),
            u_unfavorable=F(1),
        )


def test_out_of_range_option_index():
    m = build_matrix(outcomes=[("a", F(1))], options=[("x", ["a"])])
    with pytest.raises(IndexError):
        expected_utility(m, 5)


# -- randomized matrices ------------------------------------------------------

@st.composite
def matrices(draw, max_outcomes=5, max_options=5):
    n_out = draw(st.integers(1, max_outcomes))
    n_opt = draw(st.integers(1, max_options))
    weights = draw(
        st.lists(st.integers(0, 30), min_size=n_out, max_size=n_out).filter(
            lambda w: sum(w) > 0
        )
    )
    total = sum(weights)
    probs = [F(w, total) for w in weights]
    outcomes = [(f"o{j}", probs[j]) for j in range(n_out)]
    options = []
    for i in range(n_opt):
        fav = draw(st.lists(st.integers(0, n_out - 1), unique=True))
        options.append((f"a{i}", [f"o{j}" for j in fav]))
    lo = draw(st.fractions(F(-5), F(5)))
    hi = draw(st.fractions(F(-5), F(5)))
    lo, hi = min(lo, hi), max(lo, hi)
    return build_matrix(outcomes, options, u_favorable=hi, u_unfavorable=lo)


@given(matrices())
def test_expected_utility_bounded_by_utility_levels(m):
    for i in range(len(m.options)):
        eu = expected_utility(m, i)
        assert m.u_unfavorable <= eu <= m.u_favorable
        assert eu == brute_expected_utility(m, i)


@given(matrices(), st.integers(1, 9), st.fractions(F(-3), F(3)))
def test_affine_utility_rescale_preserves_ranking(m, a, b):
    scaled = DecisionMatrix(
        m.outcomes, m.options, a * m.u_favorable + b, a * m.u_unfavorable + b
    )
    assert best_options(scaled) == best_options(m)
    for i in range(len(m.options)):
        assert expected_utility(scaled, i) == a * expected_utility(m, i) + b


@given(matrices(), st.randoms(use_true_random=False))
def test_outcome_permutation_preserves_expected_utility(m, rng):
    order = list(range(len(m.outcomes)))
    rng.shuffle(order)
    permuted = validate_matrix(
        DecisionMatrix(
            tuple(m.outcomes[j] for j in order),
            tuple(
                Option(o.label, tuple(o.payoffs[j] for j in order)) for o in m.options
            ),
            m.u_favorable,
            m.u_unfavorable,
        )
    )
    for i in range(len(m.options)):
        assert expected_utility(permuted, i) == expected_utility(m, i)
    assert best_options(permuted) == best_options(m)


@given(matrices(), st.randoms(use_true_random=False))
def test_option_permutation_maps_the_argmax_set(m, rng):
    order = list(range(len(m.options)))
    rng.shuffle(order)
    permuted = DecisionMatrix(
        m.outcomes,
        tuple(m.options[i] for i in order),
        m.u_favorable,
        m.u_unfavorable,
    )
    expected = sorted(order.index(i) for i in best_options(m))
    assert best_options(permuted) == expected


def argmax_of_expected_utility(matrix):
    scores = [expected_utility(matrix, i) for i in range(len(matrix.options))]
    return [i for i, s in enumerate(scores) if s == max(scores)]


@given(matrices())
def test_best_options_is_the_argmax_of_expected_utility(m):
    # the oracle ranks integer favorable weights; the definitional Fraction
    # sum is the reference, also with the utilities swapped or made equal,
    # which `validate_matrix` never sees
    hi, lo = m.u_favorable, m.u_unfavorable
    for u_favorable, u_unfavorable in ((hi, lo), (lo, hi), (lo, lo)):
        m2 = m._replace(u_favorable=u_favorable, u_unfavorable=u_unfavorable)
        assert best_options(m2) == argmax_of_expected_utility(m2)


def test_best_options_on_hand_built_utilities(ball_game):
    # favorable below unfavorable: the least favorable mass wins (EU 2/9,
    # 1/3, 4/9 with utilities 0 and 1 swapped)
    inverted = ball_game._replace(u_favorable=F(0), u_unfavorable=F(1))
    assert [expected_utility(inverted, i) for i in range(3)] == [F(2, 9), F(1, 3), F(4, 9)]
    assert best_options(inverted) == argmax_of_expected_utility(inverted) == [2]
    # equal utilities: every option is chosen, whatever its favorable mass
    flat = ball_game._replace(u_favorable=F(-2, 3), u_unfavorable=F(-2, 3))
    assert best_options(flat) == argmax_of_expected_utility(flat) == [0, 1, 2]
    # a utility gap that is not an integer, against weights over lcm 63
    odd = DecisionMatrix(
        (Outcome("a", F(2, 7)), Outcome("b", F(4, 9)), Outcome("c", F(17, 63))),
        (
            Option("x", (Payoff.FAVORABLE, Payoff.UNFAVORABLE, Payoff.UNFAVORABLE)),
            Option("y", (Payoff.UNFAVORABLE, Payoff.UNFAVORABLE, Payoff.FAVORABLE)),
            Option("z", (Payoff.UNFAVORABLE, Payoff.FAVORABLE, Payoff.UNFAVORABLE)),
        ),
        F(-3, 5),
        F(1, 4),
    )
    assert best_options(odd) == argmax_of_expected_utility(odd) == [1]
