"""Market data: validation, normalization, excess-return moments, existence check.

A market has one riskless asset with deterministic gross return per period and
m risky assets with stagewise-independent random gross returns, specified by
their per-stage mean vector and covariance matrix. The investor's objective
trades terminal-wealth variance against expected terminal wealth through two
positive weights mu1 (on initial wealth) and mu2 (constant).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .linalg import DEFAULT_RANGE_RTOL, _require_symmetric, eigenbasis, is_psd_spectrum


class ValidationError(ValueError):
    """Invalid market data; the message names the first violated invariant."""


@dataclass(frozen=True)
class MarketSpec:
    """Validated, per-stage-expanded market description.

    horizon N and num_assets m; riskless has shape (N,), mean_returns (N, m),
    return_cov (N, m, m). initial_time is the first trading stage and
    initial_wealth the wealth there. warnings collects non-fatal findings
    (currently only riskless returns at or below 1).
    """

    horizon: int
    num_assets: int
    riskless: np.ndarray
    mean_returns: np.ndarray
    return_cov: np.ndarray
    mu1: float
    mu2: float
    initial_time: int = 0
    initial_wealth: float = 1.0
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("riskless", "mean_returns", "return_cov"):
            arr = np.array(getattr(self, name), dtype=float)  # private copy to freeze
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "num_assets": self.num_assets,
            "riskless": self.riskless.tolist(),
            "mean_returns": self.mean_returns.tolist(),
            "return_cov": self.return_cov.tolist(),
            "mu1": self.mu1,
            "mu2": self.mu2,
            "initial_time": self.initial_time,
            "initial_wealth": self.initial_wealth,
        }


@dataclass(frozen=True)
class ExcessMoments:
    """First two moments of the excess returns O_k = e_k - s_k * 1.

    mean_excess (N, m); cov_excess (N, m, m), equal to the return covariance
    since subtracting a deterministic scalar shifts nothing.
    """

    mean_excess: np.ndarray
    cov_excess: np.ndarray

    def __post_init__(self):
        for name in ("mean_excess", "cov_excess"):
            arr = np.array(getattr(self, name), dtype=float)  # private copy to freeze
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def horizon(self) -> int:
        return self.mean_excess.shape[0]

    @property
    def num_assets(self) -> int:
        return self.mean_excess.shape[1]


@dataclass(frozen=True)
class ExistenceReport:
    """Per-stage range-condition results for open-loop existence.

    per_stage[k] is True when mean_excess[k] lies in the column space of
    cov_excess[k]; overall ANDs the stages from the queried initial time on.
    """

    per_stage: tuple[bool, ...]
    residual_norms: tuple[float, ...]
    overall: bool


def _broadcast_stagewise(value, horizon: int, inner_shape: tuple, what: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape == inner_shape:
        arr = np.broadcast_to(arr, (horizon,) + inner_shape)
    if arr.shape != (horizon,) + inner_shape:
        raise ValidationError(
            f"{what} must have shape {inner_shape} or {(horizon,) + inner_shape}, got {arr.shape}"
        )
    return np.array(arr, dtype=float)


def make_market_spec(
    horizon,
    num_assets,
    riskless,
    mean_returns,
    return_cov,
    mu1,
    mu2,
    initial_time=0,
    initial_wealth=1.0,
) -> MarketSpec:
    """Build a MarketSpec from possibly-broadcast inputs, validating everything.

    Scalar riskless, a single mean vector, or a single covariance matrix are
    expanded across all stages. Covariances are symmetrized as (M + M^T) / 2
    before the PSD check. Raises ValidationError naming the first violated
    invariant and the stage where it occurred.
    """
    try:
        horizon = int(horizon)
        num_assets = int(num_assets)
        initial_time = int(initial_time)
        mu1, mu2, initial_wealth = float(mu1), float(mu2), float(initial_wealth)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed scalar field: {exc}") from exc
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    if num_assets < 1:
        raise ValidationError("num_assets must be >= 1")
    if not 0 <= initial_time <= horizon - 1:
        raise ValidationError(f"initial_time must be in [0, {horizon - 1}], got {initial_time}")
    if not (np.isfinite(mu1) and mu1 > 0):
        raise ValidationError("mu1 must be positive")
    if not (np.isfinite(mu2) and mu2 > 0):
        raise ValidationError("mu2 must be positive")
    if not np.isfinite(initial_wealth):
        raise ValidationError("initial_wealth must be finite")

    s = np.asarray(riskless, dtype=float)
    if s.ndim == 0:
        s = np.full(horizon, float(s))
    if s.shape != (horizon,):
        raise ValidationError(f"riskless must be a scalar or length-{horizon} sequence")
    if not np.all(np.isfinite(s)):
        raise ValidationError("riskless returns must be finite")
    warnings: list[str] = []
    for k, sk in enumerate(s):
        if sk <= 0:
            raise ValidationError(f"riskless return must be positive at stage {k}, got {sk}")
        if sk <= 1:
            warnings.append(f"riskless return <= 1 at stage {k} ({sk}); model assumes > 1")

    means = _broadcast_stagewise(mean_returns, horizon, (num_assets,), "mean_returns")
    if not np.all(np.isfinite(means)):
        raise ValidationError("mean_returns must be finite")

    covs = _broadcast_stagewise(return_cov, horizon, (num_assets, num_assets), "return_cov")
    if not np.all(np.isfinite(covs)):
        raise ValidationError("return_cov must be finite")
    for k in range(horizon):
        try:
            Ms = _require_symmetric(covs[k], "covariance")
        except np.linalg.LinAlgError:
            raise ValidationError(f"covariance not symmetric at stage {k}") from None
        w = np.linalg.eigvalsh(Ms)
        if not is_psd_spectrum(w):
            raise ValidationError(f"covariance not PSD at stage {k} (min eigenvalue {w[0]:.3e})")
        covs[k] = Ms  # covs is already a private copy

    return MarketSpec(
        horizon=horizon,
        num_assets=num_assets,
        riskless=s,
        mean_returns=means,
        return_cov=covs,
        mu1=mu1,
        mu2=mu2,
        initial_time=initial_time,
        initial_wealth=initial_wealth,
        warnings=tuple(warnings),
    )


def load_market_spec(source) -> MarketSpec:
    """Load a MarketSpec from a JSON file path, byte/text stream, or dict."""
    if isinstance(source, dict):
        raw = source
    elif hasattr(source, "read"):
        raw = json.load(source)
    else:
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        text = str(source)
        try:
            if text.lstrip().startswith("{"):
                raw = json.loads(text)
            else:
                with open(text, "r") as fh:
                    raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read market JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("market JSON must be an object")
    required = ["horizon", "num_assets", "riskless", "mean_returns", "return_cov", "mu1", "mu2"]
    missing = [key for key in required if key not in raw]
    if missing:
        raise ValidationError(f"market JSON missing keys: {', '.join(missing)}")
    return make_market_spec(
        horizon=raw["horizon"],
        num_assets=raw["num_assets"],
        riskless=raw["riskless"],
        mean_returns=raw["mean_returns"],
        return_cov=raw["return_cov"],
        mu1=raw["mu1"],
        mu2=raw["mu2"],
        initial_time=raw.get("initial_time", 0),
        initial_wealth=raw.get("initial_wealth", 1.0),
    )


def dump_market_spec(spec: MarketSpec) -> str:
    """Serialize a MarketSpec to JSON text that load_market_spec reads back."""
    return json.dumps(spec.to_json_dict(), indent=2)


def derive_excess_moments(spec: MarketSpec) -> ExcessMoments:
    """Excess-return moments O_k = e_k - s_k * 1 for every stage."""
    # ExcessMoments copies its inputs, so the spec's frozen covariance is passed as is
    mean_excess = spec.mean_returns - spec.riskless[:, None]
    return ExcessMoments(mean_excess=mean_excess, cov_excess=spec.return_cov)


def check_open_loop_existence(
    moments: ExcessMoments, t: int = 0, tol: float = DEFAULT_RANGE_RTOL
) -> ExistenceReport:
    """Range condition per stage: mean excess inside the covariance's column space."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    ok: list[bool] = []
    res: list[float] = []
    for k in range(moments.horizon):
        _, residual, passed = eigenbasis(moments.cov_excess[k]).solve(moments.mean_excess[k], tol)
        ok.append(bool(passed))
        res.append(float(residual))
    overall = all(ok[t:])
    return ExistenceReport(per_stage=tuple(ok), residual_norms=tuple(res), overall=overall)


def _example_preset() -> MarketSpec:
    # three risky assets, four periods, stationary moments
    return make_market_spec(
        horizon=4,
        num_assets=3,
        riskless=1.04,
        mean_returns=[1.162, 1.246, 1.228],
        return_cov=[
            [0.0146, 0.0187, 0.0145],
            [0.0187, 0.0854, 0.0104],
            [0.0145, 0.0104, 0.0289],
        ],
        mu1=1.0,
        mu2=1.0,
        initial_time=0,
        initial_wealth=1.0,
    )


PRESETS = {"li-duan-example-2": _example_preset}


def get_preset(name: str) -> MarketSpec:
    """Return a bundled example market by name."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return factory()


def resolve_market(source: str) -> MarketSpec:
    """Interpret source as a preset name if known, else as a JSON file path."""
    if source in PRESETS:
        return get_preset(source)
    return load_market_spec(source)


def with_initial_state(spec: MarketSpec, t=None, x=None) -> MarketSpec:
    """Copy of spec with a different initial time and/or wealth."""
    t = spec.initial_time if t is None else int(t)
    x = spec.initial_wealth if x is None else float(x)
    if not 0 <= t <= spec.horizon - 1:
        raise ValidationError(f"initial_time must be in [0, {spec.horizon - 1}], got {t}")
    if not np.isfinite(x):
        raise ValidationError("initial_wealth must be finite")
    return replace(spec, initial_time=t, initial_wealth=x)
