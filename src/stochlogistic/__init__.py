"""Stochastic logistic map toolkit: reproducible simulation of the
logistic map with a randomly drawn growth rate, Monte-Carlo
approximation of its invariant distribution, and numerical comparison
of stochastic and deterministic long-term averages.

The package re-exports nothing: each name is imported from its module,
as in ``from stochlogistic.measure import pf_step``."""

__version__ = "0.1.0"
