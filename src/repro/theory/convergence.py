"""KL divergence, M-H chain simulation and the Theorem 1 bound.

The M-H based edge sampler is a Markov chain with uniform proposals; this
module simulates such chains directly on explicit target distributions
(no graph needed) to study convergence — the machinery behind the paper's
Fig. 1 and the empirical checks of Theorems 1-3.
"""

from __future__ import annotations

import numpy as np

from repro.config import WalkConfig
from repro.errors import ConfigError
from repro.utils.rng import as_rng

_INITS = ("random", "high-weight", "burn-in")


def kl_divergence(p: np.ndarray, q: np.ndarray, *, epsilon: float = 1e-12) -> float:
    """KL(p || q) in nats; zero entries of p contribute nothing.

    ``q`` is floored at ``epsilon`` so empirically-unreached entries do
    not blow the divergence up to infinity.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ConfigError("p and q must have the same shape")
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], epsilon))))


def empirical_distribution(samples: np.ndarray, n: int) -> np.ndarray:
    """Normalised histogram of chain samples over [0, n)."""
    counts = np.bincount(np.asarray(samples, dtype=np.int64), minlength=n)
    total = counts.sum()
    if total == 0:
        return np.full(n, 1.0 / n)
    return counts / total


def _chain_starts(targets: np.ndarray, init: str, rng, burn_in_iterations: int):
    """Starting state per chain row for each strategy."""
    chains, n = targets.shape
    if init == "random":
        return rng.integers(0, n, size=chains)
    if init == "high-weight":
        # ties broken uniformly among the maximal elements, as in the paper
        is_max = targets == targets.max(axis=1, keepdims=True)
        noise = rng.random((chains, n)) * is_max
        return np.argmax(noise, axis=1)
    state = rng.integers(0, n, size=chains)
    rows = np.arange(chains)
    for __ in range(burn_in_iterations):
        cand = rng.integers(0, n, size=chains)
        accept = rng.random(chains) * targets[rows, state] < targets[rows, cand]
        state = np.where(accept, cand, state)
    return state


def mh_chain_sample(
    target: np.ndarray,
    num_samples: int,
    *,
    init: str = "random",
    burn_in_iterations: int = WalkConfig.burn_in_iterations,
    rng=None,
) -> np.ndarray:
    """Draw ``num_samples`` dependent samples from one uniform-proposal chain.

    This is Algorithm 1 stripped of the graph: candidates are uniform over
    [0, n) and acceptance is min(1, π(cand)/π(state)).
    """
    samples = mh_chain_batch(
        np.asarray(target, dtype=np.float64)[None, :],
        num_samples,
        init=init,
        burn_in_iterations=burn_in_iterations,
        rng=rng,
        return_samples=True,
    )
    return samples[0]


def mh_chain_batch(
    targets: np.ndarray,
    num_samples: int,
    *,
    init: str = "random",
    burn_in_iterations: int = WalkConfig.burn_in_iterations,
    rng=None,
    return_samples: bool = False,
):
    """Run one M-H chain per row of ``targets`` in lock-step.

    Returns per-chain sample *counts* ``(chains, n)`` by default, or the
    raw sample matrix ``(chains, num_samples)`` with
    ``return_samples=True``.
    """
    if init not in _INITS:
        raise ConfigError(f"init must be one of {_INITS}")
    rng = as_rng(rng)
    targets = np.asarray(targets, dtype=np.float64)
    chains, n = targets.shape
    rows = np.arange(chains)
    state = _chain_starts(targets, init, rng, burn_in_iterations)
    if return_samples:
        out = np.empty((chains, num_samples), dtype=np.int64)
    else:
        counts = np.zeros((chains, n), dtype=np.int64)
    for i in range(num_samples):
        cand = rng.integers(0, n, size=chains)
        p_state = targets[rows, state]
        p_cand = targets[rows, cand]
        accept = (p_cand > 0) & ((p_state <= 0) | (rng.random(chains) * p_state < p_cand))
        state = np.where(accept, cand, state)
        if return_samples:
            out[:, i] = state
        else:
            counts[rows, state] += 1
    return out if return_samples else counts


def theorem1_bound(kappa: float, rho: float, iteration: int) -> float:
    """Eq. 7: KL(π_i, π) <= κρ^i (1 + κρ^i)."""
    term = kappa * rho**iteration
    return term * (1.0 + term)
