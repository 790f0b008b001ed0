"""The shared backward recursion: its decompositions, one trace, one CSV writer.

Market validation certifies each full-rank stage's covariance by a Cholesky
factorization and decomposes only the others, with one stacked eigh; the
recursion solves each stage through the covariance with that one
decomposition, and decomposes no gain matrix. The outputs that print the
gain matrices' eigenvalues take one stacked eigvalsh per solution, and the
first of them one eigvalsh of the certified stages' covariances. The
covariance readers outside the recursion decompose all stages with one
stacked call.
"""

import numpy as np
import pytest

import mvequil as mv
from mvequil import NonexistenceReport
from mvequil.cli import main
from mvequil.linalg import eigenbasis

from gainmatrix import gain_matrix
from instgen import (
    SMALL_SCALES,
    TINY_SCALES,
    feedback_only_market,
    off_range_market,
    random_market,
    small_scale_market,
)

PRESET = "li-duan-example-2"


def _count_eigendecompositions(monkeypatch) -> list:
    """Each eigh and eigvalsh call from here on, as (name, shape of its argument)."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize(
    "spec, deficient",
    [
        (mv.get_preset(PRESET), 0),
        (mv.with_initial_state(mv.get_preset(PRESET), t=2), 0),
        (random_market(13), 3),  # covariance ranks 3, 1, 2, 1
    ],
    ids=["preset", "preset-from-stage-2", "rank-deficient"],
)
def test_decompositions_per_solve(monkeypatch, spec, deficient):
    calls = _count_eigendecompositions(monkeypatch)
    spec = mv.with_initial_state(mv.make_market_spec(**spec.to_json_dict()), t=spec.initial_time)
    # validation: one stacked eigh of the stages the Cholesky certificate
    # leaves, none on a full-rank market, and no eigvalsh
    assert calls == ([("eigh", (deficient, spec.num_assets, spec.num_assets))] if deficient else [])
    moments = mv.derive_excess_moments(spec)
    phi = mv.sample_pure_feedback(3, spec.horizon, spec.num_assets)
    zero = mv.zero_pure_feedback(spec.horizon, spec.num_assets)
    solves = {
        "open_loop": lambda: mv.solve_open_loop(spec, moments),
        "mixed_zero": lambda: mv.solve_mixed(spec, zero, moments),
        "feedback": lambda: mv.solve_feedback(spec, moments),
        "mixed": lambda: mv.solve_mixed(spec, phi, moments),
    }
    counts = {}
    for name, solve in solves.items():
        calls.clear()
        assert not isinstance(solve(), NonexistenceReport), name
        counts[name] = (sum(n == "eigvalsh" for n, _ in calls), sum(n == "eigh" for n, _ in calls))
    # the solves reuse validation's decomposition; the rank rule and the PSD
    # test need no gain matrix eigenvalues
    assert counts == dict.fromkeys(solves, (0, 0))


@pytest.mark.parametrize("market", [PRESET, "rank-deficient"])
def test_batch_decomposes_once_per_stage_for_all_draws(monkeypatch, tmp_path, market):
    deficient = 3 if market == "rank-deficient" else 0  # random_market(13) certifies stage 0 only
    if deficient:
        market = str(tmp_path / "market.json")
        (tmp_path / "market.json").write_text(mv.dump_market_spec(random_market(13)))
    spec = mv.resolve_market(market)
    m = spec.num_assets
    calls = _count_eigendecompositions(monkeypatch)
    out = tmp_path / "batch.csv"
    assert main(["batch", "--market", market, "--draws", "16", "--format", "csv", "--out", str(out)]) == 0
    # the market's validation makes the one stacked eigh of the uncertified
    # stages; then the output's one stacked eigvalsh per draw, of all its
    # stages, not one per draw and stage
    assert calls == [("eigh", (deficient, m, m))] * bool(deficient) + [("eigvalsh", (spec.horizon, m, m))] * 16
    assert out.read_text().count(",solved,") == 16 * spec.horizon


@pytest.mark.parametrize("argv", [["verify"], ["reproduce-example"]])
def test_one_covariance_solve_per_market(monkeypatch, capsys, argv):
    # both commands solve all three notions; each reads the market's one solve
    calls = []
    original = np.linalg.solve

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    main(argv)
    capsys.readouterr()
    assert calls == [(4, 3, 3)]


@pytest.mark.parametrize("kind", ["open_loop", "feedback", "mixed"])
@pytest.mark.parametrize("start", [0, 2])
def test_market_validation_eigenvalues_serve_the_solve(monkeypatch, kind, start):
    raw = mv.get_preset(PRESET).to_json_dict()
    phi = mv.sample_pure_feedback(3, 4, 3)
    solve = {
        "open_loop": mv.solve_open_loop,
        "feedback": mv.solve_feedback,
        "mixed": lambda spec: mv.solve_mixed(spec, phi),
    }[kind]
    calls = _count_eigendecompositions(monkeypatch)
    spec = mv.with_initial_state(mv.make_market_spec(**raw), t=start)
    assert not isinstance(solve(spec), NonexistenceReport)
    # validation certifies all four stages, and the solve reuses its
    # certificate: neither decomposes, from any start stage
    assert calls == [] and spec.cov_solve.certified.all()


@pytest.mark.parametrize(
    "spec, validation",
    [
        (mv.get_preset(PRESET), []),
        (mv.make_market_spec(12, 3, 1.04, [1.162, 1.246, 1.228], mv.get_preset(PRESET).return_cov[0], 1, 1), []),
        (random_market(13), ["eigh"]),  # covariance ranks 3, 1, 2, 1
    ],
    ids=["preset", "preset-12-stages", "rank-deficient"],
)
def test_one_stacked_decomposition_per_covariance_reader(monkeypatch, spec, validation):
    moments = mv.derive_excess_moments(spec)
    solution = mv.solve_open_loop(spec, moments)
    calls = _count_eigendecompositions(monkeypatch)
    readers = {
        "make_market_spec": lambda: mv.make_market_spec(**spec.to_json_dict()),
        "build_matched_tree": lambda: mv.build_matched_tree(moments),
        "simulate_monte_carlo": lambda: mv.simulate_monte_carlo(spec, solution, 100, seed=0),
    }
    counts = {}
    for name, read in readers.items():
        calls.clear()
        read()
        counts[name] = [name for name, _ in calls]
    # one stacked call each, whatever the horizon; validation's only of the
    # stages its Cholesky certificate leaves, none on a full-rank market
    assert counts == {
        "make_market_spec": validation,
        "build_matched_tree": ["eigh"],
        "simulate_monte_carlo": ["eigh"],
    }


REFERENCE_MARKETS = (
    [("preset", mv.get_preset(PRESET)), ("off-range", off_range_market()), ("feedback-only", feedback_only_market())]
    + [(f"random-{seed}", random_market(seed)) for seed in range(60)]
    + [(f"scale-{scale:g}", small_scale_market(scale)) for scale in SMALL_SCALES + TINY_SCALES]
)


@pytest.mark.parametrize("spec", [spec for _, spec in REFERENCE_MARKETS], ids=[name for name, _ in REFERENCE_MARKETS])
def test_stage_solves_match_an_eigendecomposition_of_the_gain_matrix(spec):
    # the reference rebuilds each stage's G from the trace and decomposes it
    phi = mv.sample_pure_feedback(5, spec.horizon, spec.num_assets)
    for solution in (mv.solve_open_loop(spec), mv.solve_feedback(spec), mv.solve_mixed(spec, phi)):
        if isinstance(solution, NonexistenceReport):
            continue
        policy, tr, eigenvalues = solution.policy, solution.trace, solution.gain_eigenvalues(spec)
        for k in range(policy.start_stage, spec.horizon):
            G = gain_matrix(spec, tr, k)
            X, _, ok = eigenbasis(G).solve(np.stack([tr.gain_target[k], tr.offset_target[k]]))
            assert ok.all()
            for got, ref in ((policy.gain(k), -X[0]), (policy.offset(k), -X[1])):
                assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max(), (policy.kind, k)
            w = np.linalg.eigvalsh(G)
            assert np.abs(eigenvalues[k] - w).max() <= 1e-12 * np.abs(w).max(), (policy.kind, k)


@pytest.mark.parametrize("spec", [spec for _, spec in REFERENCE_MARKETS], ids=[name for name, _ in REFERENCE_MARKETS])
def test_gain_eigenvalues_decompose_the_gain_matrix_rebuilt_from_the_trace(spec):
    # bitwise eigvalsh of the gain matrix rebuilt from the trace, with or without a mean outer term
    phi = mv.sample_pure_feedback(5, spec.horizon, spec.num_assets)
    for solution in (mv.solve_open_loop(spec), mv.solve_feedback(spec), mv.solve_mixed(spec, phi)):
        if isinstance(solution, NonexistenceReport):
            continue
        t, tr, eigenvalues = solution.policy.start_stage, solution.trace, solution.gain_eigenvalues(spec)
        assert np.isnan(eigenvalues[:t]).all()
        for k in range(t, spec.horizon):
            expected = np.linalg.eigvalsh(gain_matrix(spec, tr, k))
            assert np.array_equal(eigenvalues[k], expected), (solution.policy.kind, k)


def test_trace_csv_columns_per_kind():
    spec = mv.get_preset(PRESET)
    vec = lambda prefix: [f"{prefix}_{i}" for i in range(3)]  # noqa: E731
    weights = ["cov_weight", "mean_outer_weight", "mean_coupling", "mean_offset"]
    expected = {
        mv.PolicyKind.OPEN_LOOP: ["k"] + weights + vec("K") + vec("c") + ["range_residual"],
        mv.PolicyKind.FEEDBACK: ["k"] + weights + vec("coupling") + vec("K") + vec("c")
        + ["gain_residual", "offset_residual"],
        mv.PolicyKind.MIXED: ["k"] + weights + vec("strategy") + vec("K") + vec("c")
        + vec("gain_eig") + ["gain_residual", "offset_residual", "stage_ok"],
    }
    solutions = [
        mv.solve_open_loop(spec),
        mv.solve_feedback(spec),
        mv.solve_mixed(spec, mv.sample_pure_feedback(1, 4, 3)),
    ]
    for sol in solutions:
        lines = mv.trace_csv(sol, spec).splitlines()
        assert lines[0].split(",") == expected[sol.policy.kind]
        assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 1, 2, 3]


def test_kind_specific_trace_invariants():
    spec = mv.get_preset(PRESET)
    open_loop = mv.solve_open_loop(spec)
    assert np.all(open_loop.trace.mean_outer_weight == 0.0)
    assert np.all(open_loop.trace.stage_ok)
    assert np.all(open_loop.trace.range_residual <= 1e-12)
    from_2 = mv.with_initial_state(spec, t=2)
    later = mv.solve_feedback(from_2)
    eigenvalues = later.gain_eigenvalues(from_2)
    assert np.isnan(eigenvalues[:2]).all() and not later.trace.stage_ok[:2].any()
    assert np.all(eigenvalues[2:, 0] > 0)


@pytest.mark.parametrize("spec", [spec for _, spec in REFERENCE_MARKETS], ids=[name for name, _ in REFERENCE_MARKETS])
def test_trace_weights_follow_from_the_gain_and_offset_vectors(spec):
    # the loop carries scalars; the reference recomputes each stage's weights
    # from the solved gain and offset vectors and the re-applied part, with
    # dot products of the vectors themselves, to rounding of the terms
    moments = mv.derive_excess_moments(spec)
    phi = mv.sample_pure_feedback(5, spec.horizon, spec.num_assets)
    for solution in (mv.solve_open_loop(spec), mv.solve_feedback(spec), mv.solve_mixed(spec, phi)):
        if isinstance(solution, NonexistenceReport):
            continue
        policy, tr = solution.policy, solution.trace
        for k in range(policy.start_stage, spec.horizon):
            s, mean, cov = spec.riskless[k], moments.mean_excess[k], moments.cov_excess[k]
            K, c = policy.gain(k), policy.offset(k)
            P = {mv.PolicyKind.OPEN_LOOP: 0.0 * K, mv.PolicyKind.FEEDBACK: K}.get(policy.kind)
            P = solution.feedback_part.gains[k] if P is None else P
            cw, mow = tr.cov_weight[k + 1], tr.mean_outer_weight[k + 1]
            cp, cm, P_cov = s + P @ mean, s + K @ mean, P @ cov
            cross = -(P_cov @ K)
            coupling = mow * cp * mean + cw * P_cov
            expected = {
                "cov_weight": (cw * (cp * cm - cross), abs(cw) * (abs(cp * cm) + abs(cross))),
                "mean_outer_weight": (mow * cp * cm - cw * cross, abs(mow * cp * cm) + abs(cw * cross)),
                "mean_coupling": (cp * tr.mean_coupling[k + 1], abs(cp * tr.mean_coupling[k + 1])),
                "mean_offset": (
                    coupling @ c + cp * tr.mean_offset[k + 1],
                    np.abs(coupling) @ np.abs(c) + abs(cp * tr.mean_offset[k + 1]),
                ),
            }
            for name, (value, size) in expected.items():
                assert abs(getattr(tr, name)[k] - value) <= 1e-12 * size + 1e-300, (policy.kind, k, name)
            size = np.abs(mow * cp * mean) + np.abs(cw * P_cov)
            assert np.all(np.abs(tr.offset_coupling[k] - coupling) <= 1e-12 * size + 1e-300), (policy.kind, k)
