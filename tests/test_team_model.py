"""Payoffs, the acceptance threshold, the policy, and team utility."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import outputs, policies
from teamopt.exhaustive import OBJECTIVES
from teamopt.team_model import (
    HumanPolicy,
    MetaDecision,
    Prediction,
    UtilityParams,
    accept_threshold,
    empirical_utility,
    expected_utilities,
    expected_utility,
    meta_decision,
    payoff,
    utilities,
)


def policy(beta=1.0, lam=0.5, a=1.0, p=1.0):
    return HumanPolicy(UtilityParams(beta=beta, lam=lam, human_accuracy=a), p)


def pred_true_prob(h, y=1):
    """Prediction assigning probability h to label y."""
    probs = [1.0 - h, h] if y == 1 else [h, 1.0 - h]
    return Prediction.from_probs(probs)


class TestAcceptThreshold:
    def test_reference_values(self):
        assert accept_threshold(UtilityParams(1.0, 0.5, 1.0)) == pytest.approx(0.75, abs=1e-12)
        assert accept_threshold(UtilityParams(1.0, 0.5, 0.8)) == pytest.approx(0.55, abs=1e-12)
        assert accept_threshold(UtilityParams(1.0, 0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
        assert accept_threshold(UtilityParams(5.0, 0.5, 1.0)) == pytest.approx(11.0 / 12.0, abs=1e-12)

    def test_monotonicity_grid(self):
        betas = [1.0, 2.0, 5.0, 10.0]
        lams = [0.1, 0.5, 1.0, 2.0]
        accs = [0.3, 0.7, 0.9, 1.0]
        for beta in betas:
            for a in accs:
                cs = [accept_threshold(UtilityParams(beta, lam, a)) for lam in lams]
                assert all(x > y for x, y in zip(cs, cs[1:])), "decreasing in lam"
        for beta in betas:
            for lam in lams:
                cs = [accept_threshold(UtilityParams(beta, lam, a)) for a in accs]
                assert all(x < y for x, y in zip(cs, cs[1:])), "increasing in a"
        for lam in lams:
            for a in accs:
                cs = [accept_threshold(UtilityParams(beta, lam, a)) for beta in betas]
                assert all(x < y for x, y in zip(cs, cs[1:])), "increasing in beta"

    def test_degenerate_regions_are_legal(self):
        always = UtilityParams(1.0, 2.0, 0.5)  # c = -0.5
        never = UtilityParams(1.0, 0.0, 1.0)  # c = 1.0 (accept only at certainty)
        assert always.accept_threshold < 0.5
        assert never.accept_threshold == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            UtilityParams(beta=0.5)
        with pytest.raises(ValueError):
            UtilityParams(lam=-0.1)
        with pytest.raises(ValueError):
            UtilityParams(human_accuracy=1.5)
        with pytest.raises(ValueError):
            HumanPolicy(UtilityParams(), accept_probability=0.0)
        with pytest.raises(ValueError):
            HumanPolicy(UtilityParams(), accept_probability=1.2)


class TestPrediction:
    def test_derived_fields(self):
        pred = Prediction.from_probs([0.3, 0.7])
        assert pred.predicted_label == 1
        assert pred.confidence == 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            Prediction.from_probs([0.3, 0.6])
        with pytest.raises(ValueError):
            Prediction.from_probs([-0.1, 1.1])
        with pytest.raises(ValueError):
            Prediction.from_probs([0.2, 0.3, 0.5])


class TestMetaDecision:
    def test_threshold_cases(self):
        pol = policy()
        assert meta_decision(pred_true_prob(0.9), pol) is MetaDecision.ACCEPT
        assert meta_decision(pred_true_prob(0.6), pol) is MetaDecision.SOLVE
        # boundary uses >=
        assert meta_decision(pred_true_prob(0.75), pol) is MetaDecision.ACCEPT

    def test_partial_compliance(self):
        pol = policy(p=0.3)
        confident = pred_true_prob(0.9)
        assert meta_decision(confident, pol, uniform_draw=0.2) is MetaDecision.ACCEPT
        assert meta_decision(confident, pol, uniform_draw=0.4) is MetaDecision.SOLVE
        # below threshold the draw is irrelevant
        assert meta_decision(pred_true_prob(0.6), pol, uniform_draw=0.0) is MetaDecision.SOLVE

    def test_draw_validation(self):
        with pytest.raises(ValueError):
            meta_decision(pred_true_prob(0.9), policy(), uniform_draw=1.0)


class TestPayoff:
    @pytest.mark.parametrize(
        "meta,correct,expected",
        [
            (MetaDecision.ACCEPT, True, 1.0),
            (MetaDecision.ACCEPT, False, -1.0),
            (MetaDecision.SOLVE, True, 0.5),
            (MetaDecision.SOLVE, False, -1.5),
        ],
    )
    def test_matrix(self, meta, correct, expected):
        assert payoff(meta, correct, UtilityParams(1.0, 0.5, 1.0)) == expected

    def test_beta_scales_mistakes(self):
        params = UtilityParams(5.0, 0.25, 1.0)
        assert payoff(MetaDecision.ACCEPT, False, params) == -5.0
        assert payoff(MetaDecision.SOLVE, False, params) == -5.25


class TestExpectedUtility:
    def test_perfect_confident_prediction(self):
        assert expected_utility(pred_true_prob(1.0), 1, policy()) == 1.0

    def test_solve_region_constant(self):
        assert expected_utility(pred_true_prob(0.6), 1, policy()) == 0.5

    def test_overconfident_wrong(self):
        # all confidence on the wrong label
        pred = Prediction.from_probs([1.0, 0.0])
        assert expected_utility(pred, 1, policy()) == -1.0

    def test_continuity_at_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            params = UtilityParams(
                beta=1.0 + 9.0 * rng.random(),
                lam=2.0 * rng.random(),
                human_accuracy=rng.random(),
            )
            c = params.accept_threshold
            if not 0.5 < c <= 1.0:
                continue
            pol = HumanPolicy(params)
            at_threshold = expected_utility(pred_true_prob(c), 1, pol)
            assert at_threshold == pytest.approx(params.solve_utility, abs=1e-12)

    def test_piecewise_affine_slope(self):
        pol = policy(beta=3.0, lam=0.5, a=0.9)
        c = pol.accept_threshold
        hs = np.linspace(c + 0.01, 0.99, 25)
        vals = [expected_utility(pred_true_prob(h), 1, pol) for h in hs]
        slopes = np.diff(vals) / np.diff(hs)
        np.testing.assert_allclose(slopes, 1.0 + 3.0, rtol=1e-9)

    def test_partial_compliance_mixes_branches(self):
        pol_full = policy(p=1.0)
        pol_partial = policy(p=0.25)
        pred = pred_true_prob(0.9)
        full = expected_utility(pred, 1, pol_full)
        solve = pol_partial.params.solve_utility
        mixed = expected_utility(pred, 1, pol_partial)
        assert mixed == pytest.approx(0.25 * full + 0.75 * solve, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        pol = policy(beta=2.0, lam=0.3, a=0.85, p=0.8)
        rng = np.random.default_rng(3)
        p1 = rng.random(300)
        y = rng.integers(0, 2, 300)
        vec = expected_utilities(p1, y, pol)
        for i in range(0, 300, 17):
            pred = Prediction.from_probs([1.0 - p1[i], p1[i]])
            assert vec[i] == expected_utility(pred, int(y[i]), pol)


class TestEmpiricalUtility:
    def test_accept_correct(self):
        assert empirical_utility(pred_true_prob(0.9), 1, policy()) == 1.0

    def test_solve_perfect_human(self):
        assert empirical_utility(pred_true_prob(0.6), 1, policy()) == 0.5

    def test_solve_expectation_value(self):
        # c = 0.55 for a = 0.8, so confidence 0.52 solves:
        # 0.8 * 0.5 + 0.2 * (-1.5) = 0.1
        pol = policy(a=0.8)
        value = empirical_utility(pred_true_prob(0.48), 1, pol)
        assert value == pytest.approx(0.1, abs=1e-12)

    def test_sampled_mean_matches_expectation(self):
        pol = policy(a=0.8)
        pred = pred_true_prob(0.48)
        rng = np.random.default_rng(12345)
        n = 100_000
        draws = [empirical_utility(pred, 1, pol, mode="sampled", rng=rng) for _ in range(n)]
        # single-draw variance: E[x^2] - mu^2 = 0.65 - 0.01 = 0.64
        assert abs(np.mean(draws) - 0.1) < 3.0 * 0.8 / np.sqrt(n)

    def test_sampled_converges_within_bound(self):
        pol = policy(beta=2.0, lam=0.4, a=0.3, p=0.7)
        pred = pred_true_prob(0.9)
        rng = np.random.default_rng(99)
        n = 40_000
        draws = [empirical_utility(pred, 1, pol, mode="sampled", rng=rng) for _ in range(n)]
        expectation = empirical_utility(pred, 1, pol)
        assert abs(np.mean(draws) - expectation) < 4.0 / np.sqrt(n)

    def test_sampled_requires_rng(self):
        with pytest.raises(ValueError):
            empirical_utility(pred_true_prob(0.9), 1, policy(), mode="sampled")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            empirical_utility(pred_true_prob(0.9), 1, policy(), mode="monte")


class TestUtilitiesKernel:
    """The vectorized kernel against the scalar references, example by example."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), pol=policies())
    def test_matches_scalar_references_exactly(self, data, pol):
        p1, y = data.draw(outputs(pol))
        p_accept, eu = utilities(p1, y, pol)
        p_accept_emp, emp = utilities(p1, y, pol, "empirical_utility")
        assert np.array_equal(p_accept, p_accept_emp)
        for i in range(len(p1)):
            pred = Prediction.from_positive_prob(float(p1[i]))
            label = int(y[i])
            accepted = meta_decision(pred, pol) is MetaDecision.ACCEPT
            assert p_accept[i] == (pol.accept_probability if accepted else 0.0)
            assert eu[i] == expected_utility(pred, label, pol)
            assert emp[i] == empirical_utility(pred, label, pol)

    @settings(max_examples=200, deadline=None)
    @given(
        beta=st.floats(1.0, 10.0),
        c=st.floats(0.5, 1.0),
        slack=st.floats(0.0, 1.0),
        p=st.floats(0.01, 1.0),
        label=st.integers(0, 1),
    )
    def test_continuous_at_threshold(self, beta, c, slack, p, label):
        # a in [c, 1] and lam chosen so that the threshold lands on c
        a = c + slack * (1.0 - c)
        params = UtilityParams(beta, (a - c) * (1.0 + beta), a)
        pol = HumanPolicy(params, p)
        c = params.accept_threshold
        assume(0.5 <= c <= 1.0)
        # the predicted label is the true one, with confidence exactly c
        prob1 = c if label == 1 else 1.0 - c
        assume(max(prob1, 1.0 - prob1) == c)
        p_accept, eu = utilities(np.array([prob1]), np.array([label]), pol)
        assert p_accept[0] == p
        assert abs(eu[0] - params.solve_utility) <= 1e-12
        scalar = expected_utility(pred_true_prob(c, label), label, pol)
        assert abs(scalar - params.solve_utility) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), pol=policies(), objective=st.sampled_from(OBJECTIVES))
    def test_out_buffers_receive_the_allocating_result(self, data, pol, objective):
        p1, y = data.draw(outputs(pol))
        want = utilities(p1, y, pol, objective)
        bufs = (np.full_like(p1, np.nan), np.full_like(p1, np.nan))
        got = utilities(p1, y, pol, objective, out=bufs)
        assert got[0] is bufs[0] and got[1] is bufs[1]
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_zero_dimensional_input(self, objective):
        pol = policy(beta=2.0, lam=0.3, a=0.85, p=0.8)
        for p1, y in [(0.9, 1), (0.9, 0), (0.6, 1), (0.2, 0)]:
            p_accept, u = utilities(np.float64(p1), y, pol, objective)
            want = utilities(np.array([p1]), np.array([y]), pol, objective)
            assert np.shape(p_accept) == np.shape(u) == ()
            assert (p_accept, u) == (want[0][0], want[1][0])

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            utilities(np.array([0.5]), np.array([1]), policy(), "accuracy")
