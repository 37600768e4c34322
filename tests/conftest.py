import numpy as np
import pytest

from dancebeat.errors import ConfigError
from dancebeat.rhythm import phase_bins


def relerr(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a), np.asarray(b)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def finite_difference(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x (test oracle)."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        fp = f()
        x[i] = orig - eps
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def phase_histograms(mx: np.ndarray, my: np.ndarray, mag_s: np.ndarray,
                     weights: np.ndarray, bins: int) -> np.ndarray:
    """Weighted per-scale phase histograms, (T-1, K, S) (numpy reference)."""
    if bins < 2:
        raise ConfigError(f"need at least 2 phase bins, got {bins}")
    idx = phase_bins(mx, my, bins)
    Tm1, J, S = mag_s.shape
    h = np.zeros((Tm1, bins, S))
    for k in range(bins):
        h[:, k, :] = (weights[:, :, None] * mag_s * (idx == k)).sum(axis=1)
    return h


def optimal_match(gen: list[int], truth: list[int], window: float) -> int:
    """Brute-force maximum one-to-one matching (oracle for small grids)."""

    def rec(i: int, used: int) -> int:
        if i == len(gen):
            return 0
        best = rec(i + 1, used)
        for j, t in enumerate(truth):
            if not used & (1 << j) and abs(gen[i] - t) <= window:
                best = max(best, 1 + rec(i + 1, used | (1 << j)))
        return best

    return rec(0, 0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
