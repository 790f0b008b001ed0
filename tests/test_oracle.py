"""Scenario trees, exact costs, spike deviations, Monte Carlo."""

import ast
import dataclasses
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mvequil as mv
from mvequil import AffinePolicy, PolicyKind, ScenarioTree
from mvequil import oracle as oracle_module

from exact import exact_best_deviation, exact_spike_cost, leaf_walk_cost
from instgen import SMALL_SCALES, TINY_SCALES, random_market, random_market_full_rank, small_scale_market

PRESET = "li-duan-example-2"


@pytest.fixture(scope="module")
def preset_setup():
    spec = mv.get_preset(PRESET)
    moments = mv.derive_excess_moments(spec)
    tree = mv.build_matched_tree(moments)
    return spec, moments, tree


def brute_force_cost(tree, spec, policy, k, x):
    """Plain nested-loop reference implementation of the exact cost, on equally weighted atoms."""
    stages = range(k, spec.horizon)
    atoms = [tree.atoms(s) for s in stages]
    terminals, weights = [], []
    for combo in itertools.product(*(range(len(a)) for a in atoms)):
        w, wealth = 1.0, x
        for stage, stage_atoms, idx in zip(stages, atoms, combo):
            w /= len(stage_atoms)
            u = policy.gain(stage) * wealth + policy.offset(stage)
            wealth = spec.riskless[stage] * wealth + float(stage_atoms[idx] @ u)
        weights.append(w)
        terminals.append(wealth)
    weights = np.asarray(weights)
    terminals = np.asarray(terminals)
    mean = float(weights @ terminals)
    var = float(weights @ (terminals - mean) ** 2)
    return var - (spec.mu1 * x + spec.mu2) * mean


def _three_asset_market(return_cov):
    return mv.make_market_spec(
        horizon=2,
        num_assets=3,
        riskless=1.02,
        mean_returns=[1.05, 1.08, 1.04],
        return_cov=return_cov,
        mu1=1.0,
        mu2=1.0,
    )


def test_matched_tree_moments_are_exact(preset_setup):
    # every stage gets 2r + 1 atoms whatever the covariance's rank r: full (the
    # preset), partial (a rank-1 covariance of 3 assets) or zero (the mean alone)
    f = np.array([0.1, 0.2, -0.1])
    cases = [
        ("preset", preset_setup[0], 3),
        ("rank 1", _three_asset_market(np.outer(f, f)), 1),
        ("zero", _three_asset_market(np.zeros((3, 3))), 0),
    ]
    # eigenvalues below the old absolute cutoff of 1e-10 count too: full rank, 5 atoms,
    # and the stored moments keep their digits however small the covariance is against the mean
    cases += [(f"scale {scale:g}", small_scale_market(scale), 2) for scale in SMALL_SCALES + TINY_SCALES]
    for label, spec, rank in cases:
        moments = mv.derive_excess_moments(spec)
        tree = mv.build_matched_tree(moments)
        assert [len(tree.atoms(k)) for k in range(spec.horizon)] == [2 * rank + 1] * spec.horizon, label
        for k in range(spec.horizon):
            cov = moments.cov_excess[k]
            assert np.allclose(tree.mean[k], moments.mean_excess[k], rtol=0, atol=1e-12), label
            assert np.allclose(tree.implied_cov(k), cov, rtol=0, atol=1e-12 * np.abs(cov).max()), label


def test_matched_tree_zero_covariance_single_atom():
    spec = mv.make_market_spec(
        horizon=2,
        num_assets=2,
        riskless=1.0,
        mean_returns=[1.05, 1.02],
        return_cov=[[0.0, 0.0], [0.0, 0.0]],
        mu1=1.0,
        mu2=1.0,
    )
    tree = mv.build_matched_tree(mv.derive_excess_moments(spec))
    assert tree.leaf_count() == 1
    assert np.allclose(tree.atoms(0), [[0.05, 0.02]])


def test_tree_copies_the_callers_arrays():
    mean, factor = np.array([[0.1]]), np.array([[0.2]])
    tree = ScenarioTree(mean=mean, factors=(factor,))
    assert mean.flags.writeable and factor.flags.writeable
    mean[0, 0] = factor[0, 0] = 9.0
    assert tree.mean[0, 0] == 0.1 and tree.factors[0][0, 0] == 0.2
    assert not tree.mean.flags.writeable and not tree.factors[0].flags.writeable


@pytest.mark.parametrize(
    "stages, assets", [([0, 1, 2], [0, 1, 2]), ([0, 1, 2, 3, 0], [0, 1, 2]), ([0, 1, 2, 3], [0, 1])],
    ids=["shorter", "longer", "narrower"],
)
def test_tree_of_another_shape_is_rejected(preset_setup, stages, assets):
    # the preset market has (stages, assets) (4, 3)
    spec, _, tree = preset_setup
    other = ScenarioTree(mean=tree.mean[np.ix_(stages, assets)], factors=[tree.factors[k][assets] for k in stages])
    policy = mv.solve_feedback(spec).policy
    message = rf"tree of \(stages, assets\) \({len(stages)}, {len(assets)}\) does not match the market's \(4, 3\)"
    calls = (
        lambda: mv.verify_equilibrium(other, spec, policy),
        lambda: mv.evaluate_cost_exact(other, spec, policy),
        lambda: mv.best_spike_deviation(other, spec, policy, 0, 1.0),
        lambda: mv.simulate_monte_carlo(spec, policy, 10, seed=0, distribution=other),
    )
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("entry", ["nan-mean", "inf-factor"])
def test_tree_of_non_finite_entries_is_rejected(preset_setup, entry):
    # a non-finite return is the tree's fault, not an overflow of the policy's cost
    _, _, tree = preset_setup
    mean, factors = tree.mean.copy(), [F.copy() for F in tree.factors]
    if entry == "nan-mean":
        mean[2, 0], stage = math.nan, 2
    else:
        factors[1][0, 0], stage = math.inf, 1
    with pytest.raises(ValueError, match=f"tree stage {stage} has a non-finite mean or factor entry"):
        ScenarioTree(mean=mean, factors=factors)


@pytest.mark.parametrize("factors", ["two-rows", "three-factors"])
def test_tree_factors_of_another_shape_are_rejected(preset_setup, factors):
    # the mean fits the preset's (4, 3); the factors do not
    spec, _, tree = preset_setup
    other = ScenarioTree(
        mean=tree.mean,
        factors=[F[:2] for F in tree.factors] if factors == "two-rows" else tree.factors[:3],
    )
    policy = mv.solve_feedback(spec).policy
    message = r"tree factors of shapes \[.*\] do not match the market's \(stages, assets\) \(4, 3\)"
    calls = (
        lambda: mv.verify_equilibrium(other, spec, policy),
        lambda: mv.evaluate_cost_exact(other, spec, policy),
        lambda: mv.simulate_monte_carlo(spec, policy, 10, seed=0, distribution=other),
    )
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_matched_tree_single_asset_cost_by_hand():
    spec = mv.make_market_spec(
        horizon=1,
        num_assets=1,
        riskless=1.05,
        mean_returns=[1.15],
        return_cov=[[0.04]],
        mu1=1.0,
        mu2=2.0,
    )
    # mean excess return 0.1, standard deviation 0.2: atoms 0.1 and 0.1 +- sqrt(1.5) * 0.2
    tree = mv.build_matched_tree(mv.derive_excess_moments(spec))
    assert tree.leaf_count() == 3
    policy = AffinePolicy(
        kind=PolicyKind.OPEN_LOOP, start_stage=0, gains=np.zeros((1, 1)), offsets=np.array([[3.0]])
    )
    x = 2.0
    # X_N = 1.05 * 2 + o * 3, Var = 9 * 0.04, E = 2.1 + 0.3
    expected = 9 * 0.04 - (1.0 * x + 2.0) * (2.1 + 0.3)
    assert mv.evaluate_cost_exact(tree, spec, policy, 0, x) == pytest.approx(expected, abs=1e-12)


def test_exact_cost_matches_brute_force():
    checked = 0
    for seed in (0, 3, 9):
        spec = random_market(seed, max_horizon=3, max_assets=2)
        tree = mv.build_matched_tree(mv.derive_excess_moments(spec))
        part = mv.sample_pure_feedback(seed, spec.horizon, spec.num_assets)
        for sol in (mv.solve_open_loop(spec), mv.solve_feedback(spec), mv.solve_mixed(spec, part)):
            if isinstance(sol, mv.NonexistenceReport):
                continue
            checked += 1
            for k in range(spec.initial_time, spec.horizon):
                for x in (0.5, 1.0, 4.0):
                    fast = mv.evaluate_cost_exact(tree, spec, sol, k, x)
                    slow = brute_force_cost(tree, spec, sol.policy, k, x)
                    assert fast == pytest.approx(slow, abs=1e-10)
    assert checked == 9


def test_deterministic_single_stage_zero_policy():
    spec = mv.make_market_spec(
        horizon=1,
        num_assets=1,
        riskless=1.07,
        mean_returns=[1.07],
        return_cov=[[0.02]],
        mu1=1.0,
        mu2=1.0,
    )
    tree = mv.build_matched_tree(mv.derive_excess_moments(spec))
    policy = AffinePolicy(
        kind=PolicyKind.OPEN_LOOP, start_stage=0, gains=np.zeros((1, 1)), offsets=np.zeros((1, 1))
    )
    x = 3.0
    expected = -(1.0 * x + 1.0) * 1.07 * x  # zero variance, pure mean term
    assert mv.evaluate_cost_exact(tree, spec, policy, 0, x) == pytest.approx(expected, abs=1e-12)


def test_spike_at_own_action_reproduces_exact_cost(preset_setup):
    spec, _, tree = preset_setup
    sol = mv.solve_feedback(spec)
    for semantics in (PolicyKind.OPEN_LOOP, PolicyKind.FEEDBACK):
        j = leaf_walk_cost(tree, spec, sol.policy, 1, 1.3, sol.policy.control(1, 1.3), semantics)
        assert j == pytest.approx(mv.evaluate_cost_exact(tree, spec, sol.policy, 1, 1.3), abs=1e-10)


@pytest.mark.parametrize("past_end", [False, True], ids=["before-start", "at-horizon"])
@pytest.mark.parametrize(
    "call",
    [
        lambda tree, spec, pol, k: mv.spike_cost(tree, spec, pol, k, 1.0, np.zeros(spec.num_assets)),
        lambda tree, spec, pol, k: mv.best_spike_deviation(tree, spec, pol, k, 1.0),
        lambda tree, spec, pol, k: mv.evaluate_cost_exact(tree, spec, pol, k, 1.0),
        lambda tree, spec, pol, k: pol.control(k, 1.0),
    ],
    ids=["spike_cost", "best_spike_deviation", "evaluate_cost_exact", "control"],
)
def test_stage_outside_the_policy_raises(preset_setup, call, past_end):
    # a policy solved from t = 2 has no row for stage 1 or for the horizon
    spec, moments, tree = preset_setup
    tail = mv.with_initial_state(spec, t=2)
    policy = mv.solve_open_loop(tail).policy
    k = policy.horizon if past_end else policy.start_stage - 1
    with pytest.raises(ValueError, match="outside the policy's stages 2..3"):
        call(tree, tail, policy, k)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda tree, spec, pol, x: mv.spike_cost(tree, spec, pol, 1, x, np.zeros(spec.num_assets)),
        lambda tree, spec, pol, x: mv.best_spike_deviation(tree, spec, pol, 1, x),
        lambda tree, spec, pol, x: mv.evaluate_cost_exact(tree, spec, pol, 1, x),
    ],
    ids=["spike_cost", "best_spike_deviation", "evaluate_cost_exact"],
)
def test_non_finite_wealth_raises(preset_setup, call, x):
    # the wealth given is at fault, not the policy's cost
    spec, _, tree = preset_setup
    with pytest.raises(ValueError, match=f"wealth {x} is not finite") as raised:
        call(tree, spec, mv.solve_feedback(spec).policy, x)
    assert not isinstance(raised.value, mv.ValidationError)


def test_best_spike_quadratic_fit_fidelity(preset_setup):
    spec, _, tree = preset_setup
    sol = mv.solve_open_loop(spec)
    rng = np.random.default_rng(4)
    for k, x in ((0, 1.0), (2, 1.7)):
        u_star, j_dev = mv.best_spike_deviation(tree, spec, sol.policy, k, x)
        direct = leaf_walk_cost(tree, spec, sol.policy, k, x, u_star)
        assert direct == pytest.approx(j_dev, abs=1e-9)
        for _ in range(4):
            probe = u_star + 0.5 * rng.standard_normal(3)
            assert leaf_walk_cost(tree, spec, sol.policy, k, x, probe) >= j_dev - 1e-9


def test_best_spike_hand_minimizer_single_asset():
    spec = mv.make_market_spec(
        horizon=1,
        num_assets=1,
        riskless=1.02,
        mean_returns=[1.10],
        return_cov=[[0.05]],
        mu1=1.0,
        mu2=1.0,
    )
    tree = mv.build_matched_tree(mv.derive_excess_moments(spec))
    policy = AffinePolicy(
        kind=PolicyKind.OPEN_LOOP, start_stage=0, gains=np.zeros((1, 1)), offsets=np.zeros((1, 1))
    )
    x = 2.0
    # J(u) = u^2 var - (mu1 x + mu2)(s x + mean u): argmin at (mu1 x + mu2) mean / (2 var)
    expected_u = (1.0 * x + 1.0) * 0.08 / (2 * 0.05)
    u_star, j_dev = mv.best_spike_deviation(tree, spec, policy, 0, x)
    assert u_star[0] == pytest.approx(expected_u, abs=1e-9)
    expected_j = expected_u**2 * 0.05 - (x + 1.0) * (1.02 * x + 0.08 * expected_u)
    assert j_dev == pytest.approx(expected_j, abs=1e-9)


def test_unbounded_deviation_reports_minus_infinity():
    # deterministic risky asset with nonzero excess: cost is linear in u
    spec = mv.make_market_spec(
        horizon=1,
        num_assets=1,
        riskless=1.0,
        mean_returns=[1.1],
        return_cov=[[0.0]],
        mu1=1.0,
        mu2=1.0,
    )
    tree = mv.build_matched_tree(mv.derive_excess_moments(spec))
    policy = AffinePolicy(
        kind=PolicyKind.OPEN_LOOP, start_stage=0, gains=np.zeros((1, 1)), offsets=np.zeros((1, 1))
    )
    _, j_dev = mv.best_spike_deviation(tree, spec, policy, 0, 1.0)
    assert j_dev == -math.inf
    result = mv.verify_equilibrium(tree, spec, policy)
    assert not result.passed[0]
    assert result.gap[0] == -math.inf
    node_line, summary_line = mv.export_verification_jsonl(result).splitlines()
    assert '"gap": -Infinity' in node_line and '"passed": false' in node_line
    assert '"min_gap": -Infinity' in summary_line


def test_overflowing_cost_raises_validation_error(preset_setup):
    # unlike an unbounded deviation, a cost beyond a float is not a verdict on the policy
    spec, _, tree = preset_setup
    sol = mv.solve_open_loop(spec)
    with pytest.raises(mv.ValidationError, match=r"wealth 1e\+160 at stage 0: the policy's cost overflows"):
        mv.best_spike_deviation(tree, spec, sol, 0, 1e160)
    with pytest.raises(mv.ValidationError, match=r"wealth 1e\+308 at stage 0: the policy's cost overflows"):
        mv.evaluate_cost_exact(tree, spec, sol, x=1e308)


def test_leaf_cap_message_gives_the_leaf_count_as_a_power_of_ten(monkeypatch):
    # the (250, 50) benchmark market: 177 stages of 101 atoms and 73 of fewer,
    # 10^470.6 leaf paths, a 471-digit count
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import workloads

    spec = mv.make_market_spec(**workloads.SolveLarge(7).raw)
    tree = mv.build_matched_tree(mv.derive_excess_moments(spec))
    zero = np.zeros((spec.horizon, spec.num_assets))
    policy = AffinePolicy(kind=PolicyKind.OPEN_LOOP, start_stage=0, gains=zero, offsets=zero)
    with pytest.raises(mv.ValidationError, match=r"^tree has 10\^\d+\.\d leaf paths from stage 0") as caught:
        mv.verify_equilibrium(tree, spec, policy)
    assert len(str(caught.value)) < 200
    # the exact costs read the moment pass: the zero policy's cost is riskless growth alone
    expected = -(spec.mu1 * spec.initial_wealth + spec.mu2) * np.prod(spec.riskless) * spec.initial_wealth
    assert mv.evaluate_cost_exact(tree, spec, policy) == pytest.approx(expected, rel=1e-12)
    own = mv.spike_cost(tree, spec, policy, 0, spec.initial_wealth, policy.control(0, spec.initial_wealth))
    assert own == pytest.approx(mv.evaluate_cost_exact(tree, spec, policy), rel=1e-12)


@pytest.fixture(scope="module")
def large_mixed():
    """The sampled-part mixed solution of the (250, 50) benchmark market, seed 7, and its matched tree."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        import workloads
    spec = mv.make_market_spec(**workloads.SolveLarge(7).raw)
    sol = mv.solve_mixed(spec, mv.sample_pure_feedback(1, spec.horizon, spec.num_assets))
    return spec, sol, mv.build_matched_tree(mv.derive_excess_moments(spec))


def test_overflowing_hessian_raises_validation_error(large_mixed):
    # under the mixed pass E[beta^2] leaves the float range at stages 0-65, and at stage 66
    # the Hessian's mu mu' term does; J* reads only rho and alpha, so there only the
    # derivatives overflow. From stage 67 on the Hessian's entries are finite, as large as 1.5e307
    spec, sol, tree = large_mixed
    for k in range(67):
        with pytest.raises(mv.ValidationError) as raised:
            mv.best_spike_deviation(tree, spec, sol, k, 1.0)
        assert str(raised.value) == f"wealth 1 at stage {k}: the deviation cost's derivatives overflow"
    # decomposed in units of its largest entry, the Hessian's range holds every
    # gradient: no stage reads as an unbounded deviation
    costs = [mv.best_spike_deviation(tree, spec, sol, k, 1.0)[1] for k in range(67, spec.horizon)]
    assert np.isfinite(costs).all()


@pytest.mark.parametrize("semantics", list(PolicyKind), ids=lambda kind: kind.value)
def test_own_cost_is_one_number_where_beta_overflows(large_mixed, semantics):
    # the spike cost at u = u* is J*, read from rho and alpha alone, so it is the exact cost
    # under every semantics, also at stages 0-66, where the mixed pass's beta moments overflow
    spec, sol, tree = large_mixed
    for k in (0, 30, 60, 65, 66, 67, 249):
        exact = mv.evaluate_cost_exact(tree, spec, sol, k, 1.0)
        own = mv.spike_cost(tree, spec, sol, k, 1.0, sol.policy.control(k, 1.0), semantics)
        assert own == pytest.approx(exact, rel=1e-12), k


def test_own_cost_does_not_depend_on_the_semantics():
    # no re-applied part P enters the moments of rho and alpha, so J* is bitwise one number
    checked = 0
    for seed in range(40):
        spec = random_market(seed)
        sol = mv.solve_mixed(spec, mv.sample_pure_feedback(seed, spec.horizon, spec.num_assets))
        if isinstance(sol, mv.NonexistenceReport):
            continue
        tree = mv.build_matched_tree(mv.derive_excess_moments(spec))
        j_stars = [mv.verify_equilibrium(tree, spec, sol, semantics).j_star for semantics in PolicyKind]
        assert all(np.array_equal(j_stars[0], j_star) for j_star in j_stars[1:]), seed
        checked += 1
    assert checked >= 30


def test_nonconvex_fit_raises(monkeypatch, preset_setup):
    spec, _, tree = preset_setup
    sol = mv.solve_open_loop(spec)
    coefficient_moments = oracle_module._coefficient_moments

    def concave(*args, **kwargs):
        # the covariance -C - 2 m m' negates the raw second moments: a negative
        # E[beta^2] turns the shared Hessian indefinite at m = 3
        moments = coefficient_moments(*args, **kwargs)
        return [(mean, -cov - 2.0 * np.outer(mean, mean)) for mean, cov in moments]

    monkeypatch.setattr(oracle_module, "_coefficient_moments", concave)
    with pytest.raises(mv.EquilibriumStructureError, match="not convex"):
        mv.best_spike_deviation(tree, spec, sol.policy, 0, 1.0)
    with pytest.raises(mv.EquilibriumStructureError, match="not convex"):
        mv.verify_equilibrium(tree, spec, sol.policy)
    # the policy's own cost reads the same moments but forms no Hessian
    assert math.isfinite(mv.evaluate_cost_exact(tree, spec, sol.policy))


def _node_wealths(tree, spec, policy):
    """Undeviated wealth at every node, stage by stage, in verification order."""
    states = [np.array([spec.initial_wealth])]
    for k in range(policy.start_stage, spec.horizon - 1):
        x = states[-1]
        controls = np.outer(x, policy.gain(k)) + policy.offset(k)
        states.append((spec.riskless[k] * x[None, :] + tree.atoms(k) @ controls.T).T.reshape(-1))
    return states


def _spike_cost_cross_check(tree, spec, target, semantics, last_stage=math.inf):
    """Largest normalized distance of each node's costs, exact and spike costs included, from leaf walks.

    Nodes after last_stage are verified but not cross-checked.
    """
    applied = target if isinstance(target, AffinePolicy) else target.policy
    states = _node_wealths(tree, spec, applied)
    result = mv.verify_equilibrium(tree, spec, target, semantics)
    worst = 0.0
    nodes = zip(result.stage.tolist(), result.node.tolist(), result.j_star.tolist(), result.j_dev.tolist())
    for (k, node, j_star, j_dev), deviation in zip(nodes, result.deviation):
        if k > last_stage:
            break  # nodes run stage by stage
        x = float(states[k - applied.start_stage][node])
        scale = max(1.0, abs(j_star))
        own = leaf_walk_cost(tree, spec, target, k, x, applied.control(k, x), semantics)
        exact = mv.evaluate_cost_exact(tree, spec, target, k, x)
        worst = max(worst, abs(own - j_star) / scale, abs(own - exact) / scale)
        if math.isfinite(j_dev):
            dev = leaf_walk_cost(tree, spec, target, k, x, deviation, semantics)
            spike = mv.spike_cost(tree, spec, target, k, x, deviation, semantics)
            worst = max(worst, abs(dev - j_dev) / scale, abs(dev - spike) / scale)
    return worst, result


def test_closed_form_reports_match_brute_force_spike_costs(preset_setup):
    corpus = [preset_setup[0]] + [random_market(200 + i, max_horizon=4, max_assets=3) for i in range(25)]
    # interior starts, from stage 1 at another wealth (random markets 205 and 208 have 3 and 4 stages)
    interior = (corpus[0], random_market(205), random_market(208))
    corpus += [mv.with_initial_state(spec, t=1, x=0.7) for spec in interior]
    # the only six-stage market: a five-stage suffix, checked at stage 0 only (7^6 scenarios per cost)
    corpus.append(_six_stage_market())
    worst = 0.0
    cross_failures = 0
    for spec in corpus:
        last_stage = 0 if spec.horizon == 6 else math.inf
        moments = mv.derive_excess_moments(spec)
        tree = mv.build_matched_tree(moments)
        open_loop = mv.solve_open_loop(spec, moments)
        feedback = mv.solve_feedback(spec, moments)
        mixed = mv.solve_mixed(spec, mv.sample_pure_feedback(3, spec.horizon, spec.num_assets), moments)
        pairs = [
            (open_loop.policy, PolicyKind.OPEN_LOOP),
            (feedback.policy, PolicyKind.FEEDBACK),
            (open_loop.policy, PolicyKind.FEEDBACK),
            (feedback.policy, PolicyKind.OPEN_LOOP),
        ]
        if not isinstance(mixed, mv.NonexistenceReport):
            pairs += [(mixed, PolicyKind.MIXED), (mixed, PolicyKind.FEEDBACK)]
        for target, semantics in pairs:
            err, result = _spike_cost_cross_check(tree, spec, target, semantics, last_stage)
            worst = max(worst, err)
            cross_failures += not result.passed.all()
    assert worst <= 1e-10, f"closed-form costs differ from the leaf walk by {worst:.2e}"
    assert cross_failures > 0  # the cross-semantics pairs do exercise improving deviations


def test_brute_force_reference_holds_at_a_covariance_of_1e_12():
    # the leaf walk carries whole wealths and atoms, so its digits set the scale its cross-check reaches
    spec = small_scale_market(1e-12)
    moments = mv.derive_excess_moments(spec)
    tree = mv.build_matched_tree(moments)
    solutions = (
        mv.solve_open_loop(spec, moments),
        mv.solve_feedback(spec, moments),
        mv.solve_mixed(spec, mv.sample_pure_feedback(3, spec.horizon, spec.num_assets), moments),
    )
    for target in solutions:
        err, result = _spike_cost_cross_check(tree, spec, target, target.policy.kind)
        assert result.passed.all()
        assert err <= 1e-10, f"{target.policy.kind}: closed-form costs differ from the leaf walk by {err:.2e}"


def _assert_costs_match_the_exact_reference(spec):
    """Every notion's spike costs at u* and three random u, its exact cost and its best
    deviation's cost at the initial state agree with exact rational leaf walks within 1e-12."""
    k, x = spec.initial_time, spec.initial_wealth
    moments = mv.derive_excess_moments(spec)
    tree = mv.build_matched_tree(moments)
    part = mv.sample_pure_feedback(3, spec.horizon, spec.num_assets)
    solutions = (
        mv.solve_open_loop(spec, moments),
        mv.solve_feedback(spec, moments),
        mv.solve_mixed(spec, part, moments),
    )
    rng = np.random.default_rng(0)
    checked = 0
    for sol in solutions:
        if isinstance(sol, mv.NonexistenceReport):
            continue
        u_star = sol.policy.control(k, x)
        spread = max(1.0, np.abs(u_star).max())
        probes = [u_star] + [u_star + spread * rng.standard_normal(spec.num_assets) for _ in range(3)]
        u_dev, j_dev = mv.best_spike_deviation(tree, spec, sol, k, x)
        claims = [(u, mv.spike_cost(tree, spec, sol, k, x, u)) for u in probes]
        claims += [(u_star, mv.evaluate_cost_exact(tree, spec, sol, k, x)), (u_dev, j_dev)]
        for u, claimed in claims:
            assert claimed == pytest.approx(exact_spike_cost(tree, spec, sol, k, x, u), rel=1e-12)
        checked += 1
    return checked


@pytest.mark.parametrize("scale", SMALL_SCALES + TINY_SCALES)
def test_costs_match_the_exact_reference_at_every_scale(scale):
    # exact arithmetic keeps the spread that the float leaf walk loses from about 1e-30 on
    spec = small_scale_market(scale)
    assert _assert_costs_match_the_exact_reference(spec) == 3


def test_costs_match_the_exact_reference_on_random_markets():
    checked = 0
    for seed in range(60):
        spec = random_market(seed)
        if mv.build_matched_tree(mv.derive_excess_moments(spec)).leaf_count() <= 7**3:
            checked += _assert_costs_match_the_exact_reference(spec)
    assert checked > 100


def _assert_best_deviations_are_the_exact_optimum(spec):
    """Every notion's best deviation cost under its own semantics, at the first node and at its
    last child, is the exact quadratic's minimum within 1e-12 max(1, |J*|); nodes with more than
    7^3 leaf paths are skipped."""
    moments = mv.derive_excess_moments(spec)
    tree = mv.build_matched_tree(moments)
    part = mv.sample_pure_feedback(3, spec.horizon, spec.num_assets)
    solutions = (
        mv.solve_open_loop(spec, moments),
        mv.solve_feedback(spec, moments),
        mv.solve_mixed(spec, part, moments),
    )
    t, x = spec.initial_time, spec.initial_wealth
    checked = 0
    for sol in solutions:
        if isinstance(sol, mv.NonexistenceReport):
            continue
        nodes = [(t, x)]
        if t + 1 < spec.horizon:
            nodes.append((t + 1, float(spec.riskless[t] * x + tree.atoms(t)[-1] @ sol.policy.control(t, x))))
        for k, wealth in nodes:
            if tree.leaf_count(k) > 7**3:
                continue
            j_dev = mv.best_spike_deviation(tree, spec, sol, k, wealth)[1]
            scale = max(1.0, abs(mv.evaluate_cost_exact(tree, spec, sol, k, wealth)))
            assert abs(j_dev - exact_best_deviation(tree, spec, sol, k, wealth)) <= 1e-12 * scale, (k, wealth)
            checked += 1
    return checked


def test_best_deviation_is_the_exact_optimum(preset_setup):
    # the preset has 7^4 leaf paths from stage 0, so it starts at stage 1
    checked = _assert_best_deviations_are_the_exact_optimum(mv.with_initial_state(preset_setup[0], t=1))
    assert checked == 6
    for seed in range(12):
        checked += _assert_best_deviations_are_the_exact_optimum(random_market_full_rank(seed))
    assert checked > 40
    # under another notion's semantics a deviation improves on u*, so the optimum is not J* itself
    spec = mv.with_initial_state(preset_setup[0], t=1)
    tree = preset_setup[2]
    feedback = mv.solve_feedback(spec)
    j_star = mv.evaluate_cost_exact(tree, spec, feedback)
    j_dev = mv.best_spike_deviation(tree, spec, feedback, 1, 1.0, PolicyKind.OPEN_LOOP)[1]
    exact = exact_best_deviation(tree, spec, feedback, 1, 1.0, PolicyKind.OPEN_LOOP)
    assert exact < j_star - 1e-3 and abs(j_dev - exact) <= 1e-12 * max(1.0, abs(j_star))


def test_verified_nodes_reach_the_exact_optimum(preset_setup):
    # every node verify_equilibrium tests from t = 2, the root and its seven children, under each
    # notion's own semantics: its j_dev is the exact quadratic's minimum at the node's wealth
    spec, _, tree = preset_setup
    spec = mv.with_initial_state(spec, t=2)
    part = mv.sample_pure_feedback(3, spec.horizon, spec.num_assets)
    x = spec.initial_wealth
    for sol in (mv.solve_open_loop(spec), mv.solve_feedback(spec), mv.solve_mixed(spec, part)):
        result = mv.verify_equilibrium(tree, spec, sol)
        wealths = [x] + [float(spec.riskless[2] * x + atom @ sol.policy.control(2, x)) for atom in tree.atoms(2)]
        assert len(result) == len(wealths) == 8
        for k, wealth, j_star, j_dev in zip(result.stage.tolist(), wealths, result.j_star, result.j_dev):
            exact = exact_best_deviation(tree, spec, sol, k, wealth)
            assert abs(j_dev - exact) <= 1e-12 * max(1.0, abs(j_star)), (sol.policy.kind, k, wealth)


def test_exact_references_use_no_private_oracle_helper():
    # a reference that shared the oracle's private code would check the oracle against itself
    source = ast.parse((Path(__file__).parent / "exact.py").read_text())
    imported, private = [], []
    for node in ast.walk(source):
        if isinstance(node, ast.ImportFrom):
            imported += [(node.module or "", alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, "") for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            private.append(node.attr)
    assert ("mvequil", "AffinePolicy") in imported
    for module, name in imported:
        if module.split(".")[0] == "mvequil":
            assert module == "mvequil" and not name.startswith("_"), (module, name)
    assert not private, private


def test_spike_cost_rejects_a_deviation_of_another_shape(preset_setup):
    # the closed form would broadcast a scalar or a longer u silently
    spec, _, tree = preset_setup
    sol = mv.solve_open_loop(spec)
    for u, shape in ((1.0, r"\(\)"), (np.zeros(2), r"\(2,\)"), (np.zeros((1, 3)), r"\(1, 3\)")):
        with pytest.raises(ValueError, match=rf"deviation of shape {shape} does not match the market's \(3,\)"):
            mv.spike_cost(tree, spec, sol, 0, 1.0, u)


def _six_stage_market():
    return mv.make_market_spec(
        horizon=6,
        num_assets=3,
        riskless=1.04,
        mean_returns=[1.162, 1.246, 1.228],
        return_cov=[[0.0146, 0.0187, 0.0145], [0.0187, 0.0854, 0.0104], [0.0145, 0.0104, 0.0289]],
        mu1=1.0,
        mu2=1.0,
    )


def test_verify_all_solvers_on_six_stage_tree():
    spec = _six_stage_market()
    moments = mv.derive_excess_moments(spec)
    tree = mv.build_matched_tree(moments)
    assert tree.leaf_count() == 7**6
    solutions = (
        mv.solve_open_loop(spec, moments).policy,
        mv.solve_feedback(spec, moments).policy,
        mv.solve_mixed(spec, mv.sample_pure_feedback(3, 6, 3), moments),
    )
    for target in solutions:
        result = mv.verify_equilibrium(tree, spec, target)
        assert len(result) == sum(7**k for k in range(6)) == 19_608
        assert result.passed.all()


def test_verify_each_solver_under_own_semantics(preset_setup):
    spec, _, tree = preset_setup
    open_loop = mv.solve_open_loop(spec)
    feedback = mv.solve_feedback(spec)
    mixed = mv.solve_mixed(spec, mv.sample_pure_feedback(3, spec.horizon, spec.num_assets))
    assert mixed.policy.kind is mv.PolicyKind.MIXED
    for target in (open_loop, open_loop.policy, feedback, feedback.policy, mixed):
        result = mv.verify_equilibrium(tree, spec, target)
        assert len(result) == 1 + 7 + 49 + 343
        assert result.passed.all()
        summary = mv.verification_summary(result)
        assert summary["passed"] and summary["count"] == 400
    # a whole solution and its bare policy are the same target
    for sol in (open_loop, feedback):
        whole, bare = mv.verify_equilibrium(tree, spec, sol), mv.verify_equilibrium(tree, spec, sol.policy)
        assert whole.semantics is bare.semantics
        for field in dataclasses.fields(whole)[1:]:
            assert np.array_equal(getattr(whole, field.name), getattr(bare, field.name))
        assert mv.evaluate_cost_exact(tree, spec, sol) == mv.evaluate_cost_exact(tree, spec, sol.policy)
        sims = [mv.simulate_monte_carlo(spec, t, 1000, seed=2, distribution=tree) for t in (sol, sol.policy)]
        assert sims[0] == sims[1]


def test_semantics_are_not_interchangeable(preset_setup):
    # each policy is an equilibrium only under its own deviation notion
    spec, _, tree = preset_setup
    open_loop = mv.solve_open_loop(spec)
    feedback = mv.solve_feedback(spec)
    fb_as_ol = mv.verify_equilibrium(tree, spec, feedback.policy, PolicyKind.OPEN_LOOP)
    assert fb_as_ol.gap.min() < -1e-4
    ol_as_fb = mv.verify_equilibrium(tree, spec, open_loop.policy, PolicyKind.FEEDBACK)
    assert ol_as_fb.gap.min() < -1e-4


def test_perturbed_policy_fails_only_at_the_perturbed_stage(preset_setup):
    spec, _, tree = preset_setup
    sol = mv.solve_open_loop(spec)
    gains = sol.policy.gains.copy()
    gains[0] *= 1.5
    bad = AffinePolicy(
        kind=PolicyKind.OPEN_LOOP, start_stage=0, gains=gains, offsets=sol.policy.offsets
    )
    result = mv.verify_equilibrium(tree, spec, bad)
    assert not result.passed[result.stage == 0].all()
    # stage k >= 1 actions satisfy the stationarity system at any wealth
    assert set(result.stage.tolist()) == {0, 1, 2, 3}
    assert result.passed[result.stage >= 1].all()
    assert result.gap.min() < -1e-6


def test_oracle_imports_no_solver_code():
    # the oracle is a second derivation only while it shares no code with the solvers or the CLI
    solver_modules = {"recursion", "open_loop", "feedback", "mixed", "cli"}
    imported = []
    for node in ast.walk(ast.parse(Path(oracle_module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported
    for name in imported:
        assert not solver_modules & set(name.split(".")), name


def test_mixed_semantics_requires_decomposition(preset_setup):
    spec, _, tree = preset_setup
    mixed = mv.solve_mixed(spec, mv.sample_pure_feedback(3, spec.horizon, spec.num_assets))
    with pytest.raises(TypeError, match="needs the solution holding the strategy part"):
        mv.verify_equilibrium(tree, spec, mixed.policy)


def test_leaf_cap_guards_exact_evaluation():
    spec = mv.make_market_spec(
        horizon=25,
        num_assets=1,
        riskless=1.01,
        mean_returns=[1.05],
        return_cov=[[0.01]],
        mu1=1.0,
        mu2=1.0,
    )
    # three atoms per stage, mean excess return 0.04 and standard deviation 0.1
    tree = mv.build_matched_tree(mv.derive_excess_moments(spec))
    assert tree.leaf_count() == 3**25
    policy = AffinePolicy(
        kind=PolicyKind.OPEN_LOOP, start_stage=0, gains=np.zeros((25, 1)), offsets=np.zeros((25, 1))
    )
    message = r"tree has 10\^11\.9 leaf paths from stage 0, .* cap of 10\^7;"
    with pytest.raises(ValueError, match=message):
        mv.verify_equilibrium(tree, spec, policy)
    # the zero policy's own cost is riskless growth alone, under the cap or not
    assert tree.leaf_count(start=15) == 3**10 < mv.MAX_LEAF_PATHS
    cost = mv.evaluate_cost_exact(tree, spec, policy, 15, 1.0)
    assert cost == pytest.approx(-(spec.mu1 + spec.mu2) * 1.01**10, rel=1e-12)
    assert mv.spike_cost(tree, spec, policy, 15, 1.0, np.zeros(1)) == pytest.approx(cost, rel=1e-12)
    cost = mv.evaluate_cost_exact(tree, spec, policy, 0, 1.0)
    assert cost == pytest.approx(-(spec.mu1 + spec.mu2) * 1.01**25, rel=1e-12)
    # the deviation cost reads the same moment pass, so it has no cap either
    assert mv.spike_cost(tree, spec, policy, 0, 1.0, np.zeros(1)) == pytest.approx(cost, rel=1e-12)
    # the spike test enumerates no suffix scenario: it has no cap. With nothing invested later the
    # terminal wealth is g (s x + o u), g = 1.01^24, so the best u is (mu1 x + mu2) E[o] / (2 g Var(o))
    u, j = mv.best_spike_deviation(tree, spec, policy, 0, 1.0)
    assert u[0] == pytest.approx(2.0 * 0.04 / (2 * 1.01**24 * 0.01), rel=1e-12)
    # and investing improves on the riskless cost
    assert -math.inf < j < -(spec.mu1 + spec.mu2) * 1.01**25


def test_jsonl_export(preset_setup):
    spec, _, tree = preset_setup
    sol = mv.solve_open_loop(spec)
    result = mv.verify_equilibrium(tree, spec, sol.policy)
    lines = mv.export_verification_jsonl(result).strip().splitlines()
    assert len(lines) == len(result) + 1
    first = json.loads(lines[0])
    assert list(first) == ["stage", "node", "j_star", "j_dev", "gap", "passed", "semantics", "deviation", "tol"]
    assert first["stage"] == 0 and first["semantics"] == "open_loop"
    assert len(first["deviation"]) == 3
    last = json.loads(lines[-2])
    assert (last["stage"], last["node"]) == (3, 342)
    assert last["gap"] == result.gap[-1] and last["deviation"] == result.deviation[-1].tolist()
    summary = json.loads(lines[-1])
    assert summary["summary"] is True
    assert summary["count"] == len(result)
    assert summary["min_gap"] == result.gap.min()


def test_monte_carlo_is_deterministic_per_seed(preset_setup):
    spec, _, tree = preset_setup
    sol = mv.solve_open_loop(spec)
    a = mv.simulate_monte_carlo(spec, sol.policy, 5000, seed=12, distribution=tree)
    b = mv.simulate_monte_carlo(spec, sol.policy, 5000, seed=12, distribution=tree)
    assert a == b
    c = mv.simulate_monte_carlo(spec, sol.policy, 5000, seed=13, distribution=tree)
    assert c.cost != a.cost


def test_monte_carlo_tree_sampling_converges_to_exact(preset_setup):
    spec, _, tree = preset_setup
    for solved in (
        mv.solve_open_loop(spec),
        mv.solve_feedback(spec),
        mv.solve_mixed(spec, mv.sample_pure_feedback(3, spec.horizon, spec.num_assets)),
    ):
        exact = mv.evaluate_cost_exact(tree, spec, solved.policy)
        sim = mv.simulate_monte_carlo(spec, solved.policy, 100_000, seed=7, distribution=tree)
        assert abs(sim.cost - exact) <= 4 * sim.se_cost
        assert abs(sim.mean_terminal - mv.mean_wealth_path(solved, spec)[-1]) <= 4 * sim.se_mean


def _reference_monte_carlo(spec, policy, n_paths, seed, tree, moments):
    """The per-path recursion X' = s X + o.(K X + c) on an (n, m) return matrix, fed the same draws,
    and the six estimates from full-length arrays: mean, variance, cost and their standard errors."""
    rng, factors = np.random.default_rng(seed), mv.build_matched_tree(moments).factors
    X = np.full(n_paths, spec.initial_wealth)
    for k in range(policy.start_stage, spec.horizon):
        if tree is not None:
            atoms = tree.atoms(k)
            o = atoms[rng.integers(len(atoms), size=n_paths)]
        else:
            F = factors[k]
            o = moments.mean_excess[k] + rng.standard_normal((n_paths, F.shape[1])) @ F.T
        X = spec.riskless[k] * X + np.einsum("ij,ij->i", o, np.outer(X, policy.gain(k)) + policy.offset(k))
    mean, var = X.mean(), X.var(ddof=1)
    cmu = spec.mu1 * spec.initial_wealth + spec.mu2
    centered = X - mean
    sq = centered * centered
    kurtosis = np.mean(np.square(sq / var))
    se_var = var * math.sqrt(max(kurtosis - (n_paths - 3) / (n_paths - 1), 0.0) / n_paths)
    se_cost = (sq - var - cmu * centered).std(ddof=1) / math.sqrt(n_paths)
    return mean, var, var - cmu * mean, math.sqrt(var / n_paths), se_var, se_cost


@pytest.mark.parametrize("n_paths", [20_000, 2 * oracle_module._PATH_BLOCK + 3], ids=["20000", "two-blocks-and-3"])
@pytest.mark.parametrize("sampling", ["tree", "gaussian"])
def test_monte_carlo_matches_the_per_path_recursion(preset_setup, sampling, n_paths):
    # the path blocks draw what one full-length draw would, across every block boundary
    spec, moments, tree = preset_setup
    tree = tree if sampling == "tree" else None
    for solved in (
        mv.solve_open_loop(spec),
        mv.solve_feedback(spec),
        mv.solve_mixed(spec, mv.sample_pure_feedback(3, spec.horizon, spec.num_assets)),
    ):
        sim = mv.simulate_monte_carlo(spec, solved, n_paths, seed=11, distribution=tree or "gaussian")
        expected = _reference_monte_carlo(spec, solved.policy, n_paths, 11, tree, moments)
        estimates = (sim.mean_terminal, sim.var_terminal, sim.cost, sim.se_mean, sim.se_var, sim.se_cost)
        assert np.allclose(estimates, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n_paths", [100, oracle_module._PATH_BLOCK + 1])
def test_monte_carlo_of_a_riskless_policy_has_no_spread(preset_setup, n_paths):
    # no risky holding: every path is the mean path, and the standard errors are 0, not NaN
    spec, _, tree = preset_setup
    zeros = np.zeros((spec.horizon, spec.num_assets))
    policy = AffinePolicy(kind=PolicyKind.OPEN_LOOP, start_stage=0, gains=zeros, offsets=zeros)
    for distribution in ("gaussian", tree):
        sim = mv.simulate_monte_carlo(spec, policy, n_paths, seed=0, distribution=distribution)
        assert (sim.var_terminal, sim.se_mean, sim.se_var, sim.se_cost) == (0.0, 0.0, 0.0, 0.0)
        assert sim.mean_terminal == pytest.approx(np.prod(spec.riskless), rel=1e-15)


@pytest.mark.parametrize("blocks", [4, 16])
@pytest.mark.parametrize("sampling", ["tree", "gaussian"])
def test_monte_carlo_holds_one_deviation_per_path_plus_a_block(preset_setup, sampling, blocks):
    # numpy reports its buffers to tracemalloc, so the traced peak counts every array the simulation
    # holds: 8 bytes per path for its deviation from the mean path, and one block's temporaries
    spec, _, tree = preset_setup
    solved = mv.solve_open_loop(spec)
    n_paths = blocks * oracle_module._PATH_BLOCK
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mv.simulate_monte_carlo(spec, solved, n_paths, seed=3, distribution=tree if sampling == "tree" else "gaussian")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n_paths + 2**20


def test_monte_carlo_gaussian_matches_tree_cost(preset_setup):
    # affine policies make the cost depend only on per-stage first and second
    # moments, so the gaussian estimate targets the same value as the tree
    spec, _, tree = preset_setup
    sol = mv.solve_open_loop(spec)
    exact = mv.evaluate_cost_exact(tree, spec, sol.policy)
    sim = mv.simulate_monte_carlo(spec, sol.policy, 200_000, seed=21)
    assert sim.distribution == "gaussian"
    assert abs(sim.cost - exact) <= 4 * sim.se_cost


VARIANCE_SCALES = SMALL_SCALES + TINY_SCALES + (1e-160, 1e-200)


def test_monte_carlo_gaussian_variance_scales_inversely_with_the_covariance():
    # gains scale as 1 / scale and return deviations as sqrt(scale)
    # deviations from the mean path keep their digits where the spread is 1e-50 of the mean,
    # and se_cost stays finite past a variance of 1e154, where the influence squared overflows
    scaled = []
    for scale in VARIANCE_SCALES:
        spec = small_scale_market(scale)
        sim = mv.simulate_monte_carlo(spec, mv.solve_open_loop(spec), 20_000, seed=1)
        assert sim.var_terminal > 0
        scaled.append(scale * sim.var_terminal)
    assert np.allclose(scaled, scaled[0], rtol=1e-3)


def test_monte_carlo_tree_variance_scales_inversely_with_the_covariance():
    # the tree's shocks are its standard points times the stored factor, so its spread keeps its
    # digits however small the covariance is against the mean's square; so does the exact cost
    scaled = []
    for scale in VARIANCE_SCALES:
        spec = small_scale_market(scale)
        tree = mv.build_matched_tree(mv.derive_excess_moments(spec))
        sol = mv.solve_open_loop(spec)
        sim = mv.simulate_monte_carlo(spec, sol, 20_000, seed=1, distribution=tree)
        assert sim.var_terminal > 0
        if scale >= TINY_SCALES[-1]:
            assert abs(sim.cost - mv.evaluate_cost_exact(tree, spec, sol)) <= 4 * sim.se_cost, scale
        else:
            # the cost is about 6e157 at 1e-160, but rho's raw second moment, about 1e314, is not a float
            with pytest.raises(mv.ValidationError, match="wealth 1 at stage 0: the policy's cost overflows"):
                mv.evaluate_cost_exact(tree, spec, sol)
        scaled.append(scale * sim.var_terminal)
    assert np.allclose(scaled, scaled[0], rtol=1e-3)


def test_monte_carlo_standard_error_scaling(preset_setup):
    spec, _, tree = preset_setup
    sol = mv.solve_open_loop(spec)
    small = mv.simulate_monte_carlo(spec, sol.policy, 2_000, seed=5, distribution=tree)
    large = mv.simulate_monte_carlo(spec, sol.policy, 200_000, seed=5, distribution=tree)
    ratio = small.se_cost / large.se_cost
    assert 5 < ratio < 20  # expect about sqrt(100) = 10


def _jsonl_per_node(result) -> str:
    """The export's reference: one json.dumps of each node's dict, then the summary's."""
    columns = [
        itertools.repeat(result.semantics.value) if key == "semantics" else getattr(result, key).tolist()
        for key in oracle_module._JSONL_KEYS
    ]
    lines = [json.dumps(dict(zip(oracle_module._JSONL_KEYS, row))) for row in zip(*columns)]
    lines.append(json.dumps({**mv.verification_summary(result), "summary": True}))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("m", [1, 3])
def test_jsonl_export_is_json_dumps_of_each_node_byte_for_byte(m, preset_setup):
    # every column is encoded by one json.dumps of its list: the lines must
    # equal one json.dumps per node, special values and both booleans included
    special = np.array([-np.inf, np.nan, -0.0, 0.0, np.inf, 1e-310, -1.5e308, 0.1, 2.0 / 3.0])
    n = len(special)
    rng = np.random.default_rng(m)
    deviation = rng.standard_normal((n, m))
    deviation[:, 0] = special[::-1]
    result = oracle_module.VerificationResult(
        semantics=PolicyKind.MIXED,
        stage=np.repeat(np.arange(3), 3),
        node=np.tile(np.arange(3), 3),
        j_star=special,
        j_dev=special[::-1].copy(),
        gap=np.roll(special, 1),
        tol=np.abs(special),
        passed=np.arange(n) % 2 == 0,
        deviation=deviation,
    )
    text = mv.export_verification_jsonl(result)
    assert text == _jsonl_per_node(result)
    assert "-Infinity" in text and "NaN" in text and "-0.0" in text and "true" in text and "false" in text
    # and a verified solution's nodes
    spec, _, tree = preset_setup
    verified = mv.verify_equilibrium(tree, spec, mv.solve_feedback(spec))
    assert mv.export_verification_jsonl(verified) == _jsonl_per_node(verified)
