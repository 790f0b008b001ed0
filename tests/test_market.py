"""Market loading, validation, broadcasting, moments, and the range condition on them."""

import json

import numpy as np
import pytest

import mvequil as mv
from mvequil import ValidationError
from mvequil.linalg import covariance_solve

from instgen import off_range_market, random_market

PRESET = "li-duan-example-2"


def test_preset_fields():
    spec = mv.get_preset(PRESET)
    assert spec.horizon == 4
    assert spec.num_assets == 3
    assert np.array_equal(spec.riskless, np.full(4, 1.04))
    assert np.allclose(spec.mean_returns, np.tile([1.162, 1.246, 1.228], (4, 1)))
    expected_cov = np.array(
        [
            [0.0146, 0.0187, 0.0145],
            [0.0187, 0.0854, 0.0104],
            [0.0145, 0.0104, 0.0289],
        ]
    )
    assert np.allclose(spec.return_cov, np.tile(expected_cov, (4, 1, 1)))
    assert spec.mu1 == 1.0 and spec.mu2 == 1.0
    assert spec.initial_time == 0 and spec.initial_wealth == 1.0
    assert spec.warnings == ()


def test_preset_excess_moments():
    spec = mv.get_preset(PRESET)
    moments = mv.derive_excess_moments(spec)
    assert np.allclose(moments.mean_excess, np.tile([0.122, 0.206, 0.188], (4, 1)))
    for k in range(4):
        assert np.allclose(moments.cov_excess[k], spec.return_cov[k])


def test_spec_copies_the_callers_arrays():
    riskless = np.array([1.01, 1.02])
    mean = np.array([[1.05], [1.06]])
    cov = np.array([[[0.01]], [[0.02]]])
    spec = mv.make_market_spec(
        horizon=2, num_assets=1, riskless=riskless, mean_returns=mean, return_cov=cov, mu1=1.0, mu2=1.0
    )
    direct = mv.MarketSpec(
        horizon=2, num_assets=1, riskless=riskless, mean_returns=mean, return_cov=cov, mu1=1.0, mu2=1.0
    )
    assert riskless.flags.writeable and mean.flags.writeable and cov.flags.writeable
    riskless[:] = 2.0
    mean[:] = 2.0
    cov[:] = 2.0
    for frozen in (spec, direct):
        assert np.array_equal(frozen.riskless, [1.01, 1.02])
        assert frozen.mean_returns[1, 0] == 1.06 and frozen.return_cov[0, 0, 0] == 0.01
        assert not frozen.riskless.flags.writeable


def test_unknown_preset():
    with pytest.raises(ValidationError, match="unknown preset"):
        mv.get_preset("no-such-market")


def test_broadcasting_scalars_and_single_stage():
    spec = mv.make_market_spec(
        horizon=3,
        num_assets=2,
        riskless=1.05,
        mean_returns=[1.1, 1.2],
        return_cov=[[0.04, 0.0], [0.0, 0.09]],
        mu1=1.0,
        mu2=2.0,
    )
    assert spec.riskless.shape == (3,)
    assert spec.mean_returns.shape == (3, 2)
    assert spec.return_cov.shape == (3, 2, 2)
    assert np.all(spec.mean_returns == spec.mean_returns[0])


def test_round_trip_json(tmp_path):
    spec = mv.make_market_spec(
        horizon=2,
        num_assets=2,
        riskless=[1.02, 1.03],
        mean_returns=[[1.1, 1.15], [1.12, 1.09]],
        return_cov=[[[0.05, 0.01], [0.01, 0.03]], [[0.06, 0.0], [0.0, 0.02]]],
        mu1=0.7,
        mu2=1.3,
        initial_time=0,
        initial_wealth=2.5,
    )
    path = tmp_path / "market.json"
    path.write_text(mv.dump_market_spec(spec))
    loaded = mv.load_market_spec(path)
    assert loaded.horizon == spec.horizon
    assert loaded.num_assets == spec.num_assets
    assert np.array_equal(loaded.riskless, spec.riskless)
    assert np.array_equal(loaded.mean_returns, spec.mean_returns)
    assert np.array_equal(loaded.return_cov, spec.return_cov)
    assert loaded.mu1 == spec.mu1 and loaded.mu2 == spec.mu2
    assert loaded.initial_time == spec.initial_time
    assert loaded.initial_wealth == spec.initial_wealth
    # a second dump of the loaded spec is byte-identical
    assert mv.dump_market_spec(loaded) == mv.dump_market_spec(spec)


def test_load_from_a_path_only(tmp_path):
    raw = {
        "horizon": 2,
        "num_assets": 1,
        "riskless": 1.01,
        "mean_returns": [1.08],
        "return_cov": [[0.02]],
        "mu1": 1.0,
        "mu2": 1.0,
    }
    # a file name that starts like JSON text is still a path
    path = tmp_path / "{run}.json"
    path.write_text(json.dumps(raw))
    for spec in (mv.load_market_spec(path), mv.load_market_spec(str(path))):
        assert spec.horizon == 2
        assert spec.mean_returns.shape == (2, 1)
    with pytest.raises(mv.ValidationError, match="cannot read market JSON"):
        mv.load_market_spec(json.dumps(raw))


def test_whole_number_fields_accept_integral_values():
    spec = mv.make_market_spec(
        horizon=2.0,
        num_assets=np.int64(1),
        riskless=1.01,
        mean_returns=[1.08],
        return_cov=[[0.02]],
        mu1=1.0,
        mu2=1.0,
        initial_time=np.float64(1.0),
    )
    assert (spec.horizon, spec.num_assets, spec.initial_time) == (2, 1, 1)
    assert all(type(v) is int for v in (spec.horizon, spec.num_assets, spec.initial_time))


def test_unknown_market_json_keys_are_rejected(tmp_path):
    raw = {
        "horizon": 2,
        "num_assets": 1,
        "riskless": 1.01,
        "mean_returns": [1.08],
        "return_cov": [[0.02]],
        "mu1": 1.0,
        "mu2": 1.0,
        "initial_wealth": 2.0,
        "intial_wealth": 5.0,
        "note": "",
    }
    path = tmp_path / "market.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValidationError, match="unknown keys: intial_wealth, note"):
        mv.load_market_spec(path)
    del raw["intial_wealth"], raw["note"]
    path.write_text(json.dumps(raw))
    assert mv.load_market_spec(path).initial_wealth == 2.0


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"horizon": 0}, "horizon must be >= 1"),
        ({"num_assets": 0}, "num_assets must be >= 1"),
        ({"mu1": 0.0}, "mu1 must be positive"),
        ({"mu2": -1.0}, "mu2 must be positive"),
        ({"initial_time": 5}, "initial_time must be in"),
        ({"riskless": [1.0, 1.0, 1.0]}, "riskless must be a scalar or length-2"),
        ({"riskless": -1.0}, "riskless return must be positive at stage 0"),
        ({"return_cov": [[0.02, 0.0], [0.001, 0.02]]}, "not symmetric at stage 0"),
        ({"return_cov": [[0.02, 0.05], [0.05, 0.02]]}, "not PSD at stage 0"),
        ({"mean_returns": [1.1, 1.2, 1.3]}, "mean_returns"),
        ({"return_cov": [[1e160, 1e160], [-1e160, 3e160]]}, "not symmetric at stage 0"),
        ({"horizon": 2.5}, "horizon must be a whole number, got 2.5"),
        ({"horizon": True}, "horizon must be a whole number, got True"),
        ({"num_assets": 1.5}, "num_assets must be a whole number, got 1.5"),
        ({"num_assets": np.True_}, "num_assets must be a whole number"),
        ({"initial_time": 0.5}, "initial_time must be a whole number, got 0.5"),
        ({"initial_time": False}, "initial_time must be a whole number, got False"),
        ({"horizon": "two"}, "malformed scalar field horizon"),
    ],
)
def test_validation_errors(patch, message):
    base = dict(
        horizon=2,
        num_assets=2,
        riskless=1.02,
        mean_returns=[1.1, 1.2],
        return_cov=[[0.02, 0.0], [0.0, 0.02]],
        mu1=1.0,
        mu2=1.0,
    )
    base.update(patch)
    with pytest.raises(ValidationError, match=message):
        mv.make_market_spec(**base)


def test_stage_specific_psd_failure():
    good = [[0.02, 0.0], [0.0, 0.02]]
    bad = [[0.02, 0.05], [0.05, 0.02]]  # negative eigenvalue
    with pytest.raises(ValidationError, match="not PSD at stage 1"):
        mv.make_market_spec(
            horizon=2,
            num_assets=2,
            riskless=1.02,
            mean_returns=[1.1, 1.2],
            return_cov=[good, bad],
            mu1=1.0,
            mu2=1.0,
        )


def test_riskless_below_one_warns_but_loads():
    spec = mv.make_market_spec(
        horizon=2,
        num_assets=1,
        riskless=[0.99, 1.02],
        mean_returns=[1.05],
        return_cov=[[0.01]],
        mu1=1.0,
        mu2=1.0,
    )
    assert len(spec.warnings) == 1
    assert "stage 0" in spec.warnings[0]


def test_moments_copy_the_callers_arrays():
    mean = np.array([[0.1, 0.2]])
    cov = np.array([[[0.04, 0.0], [0.0, 0.09]]])
    moments = mv.ExcessMoments(mean_excess=mean, cov_excess=cov)
    assert mean.flags.writeable and cov.flags.writeable
    mean[:] = 5.0
    cov[:] = 5.0
    assert moments.mean_excess[0, 1] == 0.2 and moments.cov_excess[0, 1, 1] == 0.09
    assert not (moments.mean_excess.flags.writeable or moments.cov_excess.flags.writeable)


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


def test_validation_certificate_is_kept_and_handed_on(monkeypatch):
    raw = mv.get_preset(PRESET).to_json_dict()
    calls = _count_eigendecompositions(monkeypatch)
    spec = mv.make_market_spec(**raw)
    # validation certifies every stage of the preset by Cholesky: no eigendecomposition
    assert calls == [] and spec.cov_certificate.certified.all()
    assert "cov_certificate" not in spec.to_json_dict()
    with pytest.raises(AttributeError):
        spec.cov_certificate = None
    # a moved spec shares the certificate, the moments the covariance
    moments = mv.derive_excess_moments(spec)
    moved = mv.with_initial_state(spec, t=2)
    assert moved.cov_certificate is spec.cov_certificate
    assert moments.cov_excess is spec.return_cov  # a frozen array is shared, not copied
    assert calls == []


def test_directly_built_spec_certifies_once_on_first_read(monkeypatch):
    preset = mv.get_preset(PRESET)
    fields = ("horizon", "num_assets", "riskless", "mean_returns", "return_cov", "mu1", "mu2")
    spec = mv.MarketSpec(**{name: getattr(preset, name) for name in fields})
    calls = _count_eigendecompositions(monkeypatch)
    assert "cov_certificate" not in spec.__dict__
    cert = spec.cov_certificate
    assert spec.cov_certificate is cert and cert.certified.all()
    assert np.array_equal(cert.exponent, preset.cov_certificate.exponent)
    # the certificate certifies all four stages: no eigh
    assert calls == []


@pytest.mark.parametrize("t", [0, 2])
def test_gain_eigenvalues_make_one_stacked_eigvalsh(monkeypatch, t):
    spec = mv.with_initial_state(mv.get_preset(PRESET), t=t)
    phi = mv.sample_pure_feedback(1, spec.horizon, spec.num_assets)
    solutions = (mv.solve_open_loop(spec), mv.solve_feedback(spec), mv.solve_mixed(spec, phi))
    calls = _count_eigendecompositions(monkeypatch)
    for solution in solutions:
        calls.clear()
        w = solution.gain_eigenvalues(spec)
        # every stage from t on, with or without a mean outer term, in one call
        assert calls == [("eigvalsh", (4 - t, 3, 3))], solution.policy.kind
        assert np.isnan(w[:t]).all() and np.all(np.diff(w[t:], axis=-1) >= 0)


@pytest.mark.parametrize(
    "stages",
    [
        # certified, rank-deficient, then two indefinite stages
        [np.diag([0.04, 0.09]), np.diag([0.04, 0.0]), [[0.02, 0.05], [0.05, 0.02]], np.diag([-1.0, 1.0])],
        # indefinite only within the PSD slack, which the certificate leaves to the eigenvalues
        [np.diag([-1e-12, 1.0]), np.diag([0.04, 0.09]), [[0.02, 0.05], [0.05, 0.02]], [[0.02, 0.05], [0.05, 0.02]]],
    ],
    ids=["certified-deficient-indefinite", "within-slack"],
)
def test_the_first_stage_that_is_not_psd_is_named(stages):
    # the Cholesky certificate fails on an indefinite stage; the eigenvalues
    # of the stages it leaves name the first of them, with its eigenvalue
    with pytest.raises(ValidationError, match=r"covariance not PSD at stage 2 \(min eigenvalue -3\.000e-02\)"):
        mv.make_market_spec(4, 2, 1.02, [1.05, 1.03], stages, 1.0, 1.0)


def test_zero_excess_moments():
    spec = mv.make_market_spec(
        horizon=2,
        num_assets=2,
        riskless=1.03,
        mean_returns=[1.03, 1.03],
        return_cov=[[0.01, 0.0], [0.0, 0.01]],
        mu1=1.0,
        mu2=1.0,
    )
    moments = mv.derive_excess_moments(spec)
    assert np.array_equal(moments.mean_excess, np.zeros((2, 2)))


def test_single_asset_moments():
    spec = mv.make_market_spec(
        horizon=1,
        num_assets=1,
        riskless=1.0,
        mean_returns=[1.1],
        return_cov=[[0.04]],
        mu1=1.0,
        mu2=1.0,
    )
    moments = mv.derive_excess_moments(spec)
    assert moments.mean_excess[0, 0] == pytest.approx(0.1)
    assert moments.cov_excess[0, 0, 0] == pytest.approx(0.04)


def _covariance_solve(spec):
    """The recursion's range test on every stage of spec."""
    moments = mv.derive_excess_moments(spec)
    return covariance_solve(moments.cov_excess, moments.mean_excess, spec.cov_certificate)


def test_range_condition_preset_and_degenerate():
    assert _covariance_solve(mv.get_preset(PRESET)).in_range.all()

    spec = mv.make_market_spec(
        horizon=2,
        num_assets=2,
        riskless=1.0,
        mean_returns=[1.0, 1.1],  # excess (0, 0.1) outside Ran(diag(1, 0))
        return_cov=[[1.0, 0.0], [0.0, 0.0]],
        mu1=1.0,
        mu2=1.0,
    )
    stages = _covariance_solve(spec)
    assert stages.in_range.tolist() == [False, False]
    assert np.all(stages.kernel_norm > 0.05)
    # the open-loop solve reports the last stage that fails, with its residual
    for market in (spec, off_range_market()):
        report = mv.solve_open_loop(market)
        assert isinstance(report, mv.NonexistenceReport)
        assert report.failing_stage == 1 and report.failing_condition is mv.FailingCondition.RANGE_CONDITION
        assert report.residual == pytest.approx(0.1, rel=1e-12)


def test_with_initial_state():
    spec = mv.get_preset(PRESET)
    moved = mv.with_initial_state(spec, t=2, x=3.0)
    assert moved.initial_time == 2 and moved.initial_wealth == 3.0
    assert np.array_equal(moved.return_cov, spec.return_cov)
    with pytest.raises(ValidationError):
        mv.with_initial_state(spec, t=4)
    with pytest.raises(ValidationError):
        mv.with_initial_state(spec, x=float("nan"))


@pytest.mark.parametrize("t, message", [(1.9, "got 1.9"), (True, "got True")])
def test_with_initial_state_rejects_a_stage_that_is_not_whole(t, message):
    # the same rule as make_market_spec's initial_time: no truncation to stage 1
    spec = mv.get_preset(PRESET)
    with pytest.raises(ValidationError, match=f"initial_time must be a whole number, {message}"):
        mv.with_initial_state(spec, t=t)
    moved = mv.with_initial_state(spec, t=2.0)
    assert moved.initial_time == 2 and type(moved.initial_time) is int


def test_resolve_market_prefers_preset(tmp_path):
    assert mv.resolve_market(PRESET).horizon == 4
    with pytest.raises(ValidationError, match="cannot read market JSON"):
        mv.resolve_market(str(tmp_path / "missing.json"))


def test_range_condition_equals_a_per_stage_eigenbasis_loop():
    # the flags match exactly; the residuals to rounding, since a full-rank
    # stage's kernel part is exactly zero where the loop's projection rounds
    off_range = off_range_market()
    specs = [mv.get_preset(PRESET), off_range] + [random_market(300 + i, 6, 4) for i in range(20)]
    for spec in specs:
        moments = mv.derive_excess_moments(spec)
        loop = [mv.eigenbasis(moments.cov_excess[k]).solve(moments.mean_excess[k]) for k in range(spec.horizon)]
        per_stage = [bool(ok) for _, _, ok in loop]
        residuals = np.array([residual for _, residual, _ in loop])
        tolerance = 1e-13 * np.maximum(1.0, np.linalg.norm(moments.mean_excess, axis=1))
        for t in range(spec.horizon):
            # the recursion's solve of the stages from t on
            certificate = spec.cov_certificate.from_stage(t)
            stages = covariance_solve(moments.cov_excess[t:], moments.mean_excess[t:], certificate)
            assert stages.in_range.tolist() == per_stage[t:]
            assert np.all(np.abs(stages.kernel_norm - residuals[t:]) <= tolerance[t:])
    assert _covariance_solve(off_range).in_range.tolist() == [False, False, True]
