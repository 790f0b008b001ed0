"""Market data: validation, normalization and excess-return moments.

A market has one riskless asset with deterministic gross return per period and
m risky assets with stagewise-independent random gross returns, specified by
their per-stage mean vector and covariance matrix. The investor's objective
trades terminal-wealth variance against expected terminal wealth through two
positive weights mu1 (on initial wealth) and mu2 (constant).
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .linalg import CovarianceSolve, _require_symmetric, covariance_solve


class ValidationError(ValueError):
    """Invalid market data; the message names the first violated invariant."""


@dataclass(frozen=True)
class MarketSpec:
    """Validated, per-stage-expanded market description.

    horizon N and num_assets m; riskless has shape (N,), mean_returns (N, m),
    return_cov (N, m, m). initial_time is the first trading stage and
    initial_wealth the wealth there. warnings collects non-fatal findings
    (currently only riskless returns at or below 1).

    One read-only cache holds the covariances' one decomposition. cov_solve
    is each stage's Cholesky certificate of full rank, or its
    eigendecomposition where the certificate fails, and its weight-free
    solve of Sigma^+ mu for the excess mean (linalg.covariance_solve):
    make_market_spec's PSD check made it, or it is made on first read, and
    every solver reads it.
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
            object.__setattr__(self, name, _frozen_copy(getattr(self, name)))

    def to_json_dict(self) -> dict:
        """make_market_spec's keywords, in field order: every field but warnings."""
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "warnings"}
        return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values.items()}

    @cached_property
    def cov_solve(self) -> CovarianceSolve:
        return covariance_solve(self.return_cov, self.mean_returns - self.riskless[:, None])


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
            object.__setattr__(self, name, _frozen_copy(getattr(self, name)))


def _frozen_copy(value) -> np.ndarray:
    """A read-only float array of value's entries: value itself if it is one
    already and owns its data, as another spec's or moments' arrays do, so
    the two share it; otherwise a private copy, leaving the caller's array
    writable."""
    if isinstance(value, np.ndarray) and value.dtype == float and value.base is None and not value.flags.writeable:
        return value
    arr = np.array(value, dtype=float)
    arr.flags.writeable = False
    return arr


def _float_array(value, name: str) -> np.ndarray:
    """value as a float array; a ragged or non-numeric value is rejected."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed array field {name}: {exc}") from exc


def _broadcast_stagewise(value, horizon: int, inner_shape: tuple, what: str) -> np.ndarray:
    arr = _float_array(value, what)
    if arr.shape == inner_shape:
        try:
            arr = np.broadcast_to(arr, (horizon,) + inner_shape)
        except ValueError as exc:  # a horizon past numpy's dimension limit
            raise ValidationError(f"malformed array field {what}: {exc}") from exc
    if arr.shape != (horizon,) + inner_shape:
        raise ValidationError(
            f"{what} must have shape {inner_shape} or {(horizon,) + inner_shape}, got {arr.shape}"
        )
    return arr  # possibly the caller's array or a broadcast view: MarketSpec keeps a copy


def _whole(value, name: str) -> int:
    """value as an int; a bool or a fractional number is rejected, not truncated."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed scalar field {name}: {exc}") from exc
    if isinstance(value, (bool, np.bool_)) or not number.is_integer():
        raise ValidationError(f"{name} must be a whole number, got {value!r}")
    return int(number)


def _check_initial_state(horizon: int, initial_time: int, initial_wealth: float) -> None:
    """The initial-state rule of a market and of a moved spec alike."""
    if not 0 <= initial_time <= horizon - 1:
        raise ValidationError(f"initial_time must be in [0, {horizon - 1}], got {initial_time}")
    if not np.isfinite(initial_wealth):
        raise ValidationError("initial_wealth must be finite")


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
    before the PSD check. The PSD check reads the covariances' solve
    (MarketSpec.cov_solve), which the spec keeps: a stage its Cholesky
    certificate passes is positive definite, and the others' eigenvalues
    come from one stacked eigh. Raises ValidationError naming the first
    violated invariant and the first stage where it occurred; a malformed
    array field, ragged or not numeric, is one.
    """
    horizon = _whole(horizon, "horizon")
    num_assets = _whole(num_assets, "num_assets")
    initial_time = _whole(initial_time, "initial_time")
    try:
        mu1, mu2, initial_wealth = float(mu1), float(mu2), float(initial_wealth)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed scalar field: {exc}") from exc
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    if num_assets < 1:
        raise ValidationError("num_assets must be >= 1")
    _check_initial_state(horizon, initial_time, initial_wealth)
    if not (np.isfinite(mu1) and mu1 > 0):
        raise ValidationError("mu1 must be positive")
    if not (np.isfinite(mu2) and mu2 > 0):
        raise ValidationError("mu2 must be positive")

    s = _float_array(riskless, "riskless")
    if s.ndim == 0:
        s = _broadcast_stagewise(s, horizon, (), "riskless")
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
    try:
        covs = _require_symmetric(covs, "covariance")
    except np.linalg.LinAlgError:
        for k in range(horizon):  # only this error path checks stage by stage, to name one
            try:
                _require_symmetric(covs[k], "covariance")
            except np.linalg.LinAlgError:
                raise ValidationError(f"covariance not symmetric at stage {k}") from None
    spec = MarketSpec(
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
    solve = spec.cov_solve
    if not solve.psd.all():
        k = int(np.argmin(solve.psd))  # the first stage that fails
        raise ValidationError(f"covariance not PSD at stage {k} (min eigenvalue {solve.min_eigenvalue[k]:.3e})")
    return spec


def load_market_spec(path) -> MarketSpec:
    """Load a MarketSpec from a JSON file whose object holds make_market_spec's keywords, and no other key."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read market JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("market JSON must be an object")
    keywords = inspect.signature(make_market_spec).parameters
    missing = [key for key, p in keywords.items() if p.default is p.empty and key not in raw]
    if missing:
        raise ValidationError(f"market JSON missing keys: {', '.join(missing)}")
    unknown = sorted(set(raw) - set(keywords))
    if unknown:
        raise ValidationError(f"market JSON has unknown keys: {', '.join(unknown)}")
    return make_market_spec(**raw)


def dump_market_spec(spec: MarketSpec) -> str:
    """Serialize a MarketSpec to JSON text that load_market_spec reads back."""
    return json.dumps(spec.to_json_dict(), indent=2)


def derive_excess_moments(spec: MarketSpec) -> ExcessMoments:
    """Excess-return moments O_k = e_k - s_k * 1 for every stage."""
    mean_excess = spec.mean_returns - spec.riskless[:, None]
    return ExcessMoments(mean_excess=mean_excess, cov_excess=spec.return_cov)  # shares the frozen covariance


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
    t = spec.initial_time if t is None else _whole(t, "initial_time")
    x = spec.initial_wealth if x is None else float(x)
    _check_initial_state(spec.horizon, t, x)
    moved = replace(spec, initial_time=t, initial_wealth=x)
    if "cov_solve" in spec.__dict__:
        moved.__dict__["cov_solve"] = spec.cov_solve  # shared, not solved again
    return moved
