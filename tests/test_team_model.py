"""The acceptance threshold, the policy, and the team-utility kernel."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import outputs, policies, scalar_utility
from teamopt.exhaustive import OBJECTIVES
from teamopt.team_model import (
    HumanPolicy,
    UtilityParams,
    empirical_utilities,
    expected_utilities,
    utilities,
)


def policy(beta=1.0, lam=0.5, a=1.0, p=1.0):
    return HumanPolicy(UtilityParams(beta=beta, lam=lam, human_accuracy=a), p)


def p_accept_at(h, pol):
    """The kernel's accept probability for a label-1 example of probability h."""
    return utilities(np.array([h]), np.array([1]), pol)[0][0]


def eu_at(h, pol):
    """Expected utility of a label-1 example of probability h."""
    return expected_utilities(np.array([h]), np.array([1]), pol)[0]


def emp_at(h, pol):
    """Empirical utility of a label-1 example of probability h."""
    return empirical_utilities(np.array([h]), np.array([1]), pol)[0]


class TestAcceptThreshold:
    def test_reference_values(self):
        assert UtilityParams(1.0, 0.5, 1.0).accept_threshold == pytest.approx(0.75, abs=1e-12)
        assert UtilityParams(1.0, 0.5, 0.8).accept_threshold == pytest.approx(0.55, abs=1e-12)
        assert UtilityParams(1.0, 0.0, 1.0).accept_threshold == pytest.approx(1.0, abs=1e-12)
        assert UtilityParams(5.0, 0.5, 1.0).accept_threshold == pytest.approx(11.0 / 12.0, abs=1e-12)

    def test_monotonicity_grid(self):
        betas = [1.0, 2.0, 5.0, 10.0]
        lams = [0.1, 0.5, 1.0, 2.0]
        accs = [0.3, 0.7, 0.9, 1.0]
        for beta in betas:
            for a in accs:
                cs = [UtilityParams(beta, lam, a).accept_threshold for lam in lams]
                assert all(x > y for x, y in zip(cs, cs[1:])), "decreasing in lam"
        for beta in betas:
            for lam in lams:
                cs = [UtilityParams(beta, lam, a).accept_threshold for a in accs]
                assert all(x < y for x, y in zip(cs, cs[1:])), "increasing in a"
        for lam in lams:
            for a in accs:
                cs = [UtilityParams(beta, lam, a).accept_threshold for beta in betas]
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


class TestMetaDecision:
    def test_threshold_cases(self):
        pol = policy()
        assert p_accept_at(0.9, pol) == 1.0
        assert p_accept_at(0.6, pol) == 0.0
        # boundary uses >=
        assert p_accept_at(0.75, pol) == 1.0

    def test_partial_compliance(self):
        pol = policy(p=0.3)
        # above the threshold the overseer accepts with probability p
        assert p_accept_at(0.9, pol) == 0.3
        # below it they always solve
        assert p_accept_at(0.6, pol) == 0.0


class TestExpectedUtility:
    def test_perfect_confident_prediction(self):
        assert eu_at(1.0, policy()) == 1.0

    def test_solve_region_constant(self):
        assert eu_at(0.6, policy()) == 0.5

    def test_overconfident_wrong(self):
        # all confidence on the wrong label
        assert eu_at(0.0, policy()) == -1.0

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
            at_threshold = eu_at(c, pol)
            assert at_threshold == pytest.approx(params.solve_utility, abs=1e-12)

    def test_piecewise_affine_slope(self):
        pol = policy(beta=3.0, lam=0.5, a=0.9)
        c = pol.accept_threshold
        hs = np.linspace(c + 0.01, 0.99, 25)
        vals = [eu_at(h, pol) for h in hs]
        slopes = np.diff(vals) / np.diff(hs)
        np.testing.assert_allclose(slopes, 1.0 + 3.0, rtol=1e-9)

    def test_partial_compliance_mixes_branches(self):
        pol_full = policy(p=1.0)
        pol_partial = policy(p=0.25)
        full = eu_at(0.9, pol_full)
        solve = pol_partial.params.solve_utility
        mixed = eu_at(0.9, pol_partial)
        assert mixed == pytest.approx(0.25 * full + 0.75 * solve, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        pol = policy(beta=2.0, lam=0.3, a=0.85, p=0.8)
        rng = np.random.default_rng(3)
        p1 = rng.random(300)
        y = rng.integers(0, 2, 300)
        vec = expected_utilities(p1, y, pol)
        for i in range(0, 300, 17):
            assert vec[i] == scalar_utility(p1[i], int(y[i]), pol)[1]


class TestEmpiricalUtility:
    def test_accept_correct(self):
        assert emp_at(0.9, policy()) == 1.0

    def test_solve_perfect_human(self):
        assert emp_at(0.6, policy()) == 0.5

    def test_solve_expectation_value(self):
        # c = 0.55 for a = 0.8, so confidence 0.52 solves:
        # 0.8 * 0.5 + 0.2 * (-1.5) = 0.1
        pol = policy(a=0.8)
        value = emp_at(0.48, pol)
        assert value == pytest.approx(0.1, abs=1e-12)


class TestUtilitiesKernel:
    """The vectorized kernel against the one-example reference."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), pol=policies())
    def test_matches_scalar_references_exactly(self, data, pol):
        p1, y = data.draw(outputs(pol))
        p_accept, eu = utilities(p1, y, pol)
        p_accept_emp, emp = utilities(p1, y, pol, "empirical_utility")
        assert np.array_equal(p_accept, p_accept_emp)
        for i in range(len(p1)):
            label = int(y[i])
            want_p_accept, want_eu = scalar_utility(p1[i], label, pol)
            assert p_accept[i] == want_p_accept
            assert eu[i] == want_eu
            assert emp[i] == scalar_utility(p1[i], label, pol, "empirical_utility")[1]

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
        scalar = scalar_utility(prob1, label, pol)[1]
        assert abs(scalar - params.solve_utility) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), pol=policies(), objective=st.sampled_from(OBJECTIVES))
    def test_columns_match_one_dimensional_calls(self, data, pol, objective):
        """An (n, k) prob1 against (n, 1) labels or the scalar label 1, the
        shapes of the dense exhaustive-search reference and of the count
        pass's probes, gives each column the bits of a 1-d call."""
        p1, y = data.draw(outputs(pol))
        k = data.draw(st.integers(1, 4))
        shuffled = [data.draw(st.permutations(list(p1))) for _ in range(k - 1)]
        prob = np.column_stack([p1, *shuffled])
        for labels, column_labels in ((y[:, None], y), (1, np.ones_like(y))):
            got = utilities(prob, labels, pol, objective)
            for j in range(k):
                want = utilities(prob[:, j], column_labels, pol, objective)
                for g, w in zip(got, want):
                    assert g.shape == prob.shape
                    assert np.array_equal(g[:, j].view(np.int64), w.view(np.int64))

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
