"""Market instances shared by the test modules.

The seeded random markets are solvable by construction: each stage's mean
excess return is drawn inside the column space of that stage's covariance
factor, so the range condition holds whether or not the covariance is full
rank. off_range_market is the fixed exception.
"""

import numpy as np

from mvequil import MarketSpec, make_market_spec


def random_market(
    seed: int,
    max_horizon: int = 4,
    max_assets: int = 3,
    allow_degenerate: bool = True,
) -> MarketSpec:
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, max_horizon + 1))
    m = int(rng.integers(1, max_assets + 1))
    riskless = rng.uniform(1.0, 1.1, size=N)
    mean_returns = np.empty((N, m))
    cov = np.empty((N, m, m))
    for k in range(N):
        if allow_degenerate and m > 1 and rng.random() < 0.3:
            r = int(rng.integers(1, m))
        else:
            r = m
        F = 0.15 * rng.standard_normal((m, r))
        C = F @ F.T
        if r == m:
            C += 1e-4 * np.eye(m)  # keep the full-rank draws comfortably PD
        mean_returns[k] = riskless[k] + 0.5 * (F @ rng.standard_normal(r))
        cov[k] = C
    return make_market_spec(
        horizon=N,
        num_assets=m,
        riskless=riskless,
        mean_returns=mean_returns,
        return_cov=cov,
        mu1=float(rng.uniform(0.5, 2.0)),
        mu2=float(rng.uniform(0.5, 2.0)),
    )


def random_market_full_rank(seed: int, max_horizon: int = 4, max_assets: int = 3) -> MarketSpec:
    return random_market(seed, max_horizon, max_assets, allow_degenerate=False)


def off_range_market() -> MarketSpec:
    """Three stages whose mean excess return leaves the covariance's range at stages 0-1.

    Open-loop fails the range condition there; a zero strategy part fails
    mixed gain solvability at stage 1, while random parts solve.
    """
    return make_market_spec(
        horizon=3,
        num_assets=2,
        riskless=1.0,
        mean_returns=[[1.0, 1.1], [1.0, 1.1], [1.1, 1.05]],
        return_cov=[np.diag([0.04, 0.0]), np.diag([0.04, 0.0]), np.diag([0.04, 0.05])],
        mu1=1.0,
        mu2=1.0,
    )


def feedback_only_market() -> MarketSpec:
    """Two stages whose stage-0 mean excess return leaves the covariance's range.

    Open-loop fails the range condition and a zero strategy part fails mixed
    gain solvability at stage 0, while the feedback strategy's stage-0 system
    regains solvability through the mean outer weight.
    """
    return make_market_spec(
        horizon=2,
        num_assets=2,
        riskless=1.0,
        mean_returns=[[1.0, 1.1], [1.1, 1.05]],
        return_cov=[np.diag([0.04, 0.0]), np.diag([0.04, 0.05])],
        mu1=1.0,
        mu2=1.0,
    )


# Covariance scales at and below the old absolute eigenvalue cutoff of 1e-10.
SMALL_SCALES = (1e-8, 1e-10, 1e-11, 1e-12)
# Scales where the spread is so small against the mean that atoms stored whole lose it.
TINY_SCALES = (1e-30, 1e-40, 1e-100, 1e-150)


def small_scale_market(scale: float) -> MarketSpec:
    """Three stages, two assets, covariance scale * diag(1, 2): full rank at every scale.

    Every eigenvalue counts, however small, because the cutoff is relative to
    the largest: the matched tree keeps 5 atoms per stage (31 nodes) and the
    terminal variance scales as 1 / scale.
    """
    return make_market_spec(
        horizon=3,
        num_assets=2,
        riskless=1.02,
        mean_returns=[1.05, 1.03],
        return_cov=scale * np.diag([1.0, 2.0]),
        mu1=1.0,
        mu2=1.0,
    )
