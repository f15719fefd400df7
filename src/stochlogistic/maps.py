"""Core map evaluation: the logistic map with fixed and with randomly
drawn growth rate.

The stochastic system advances a state x in [0,1] by x' = l*x*(1-x)
where each step's growth rate l is drawn i.i.d. from a parameter
distribution.  Everything here is a pure function of its inputs plus an
explicit random stream, so runs are bit-reproducible from a seed.

Stream layout (counter-based Philox, 128-bit keys): the low 64 bits of
the key carry the user seed, the high 64 bits a stream index.  Stream 0
seeds initial conditions; stream g+1 supplies the growth rates consumed
when stepping away from generation g.  The i-th variate of a stream
belongs to particle i, so a draw is a pure function of
(seed, stream, particle index) and parallel evaluation cannot change
results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1

#: Streams used by path generation (0 = the growth-rate sequence).
PATH_STREAM = 0
#: Stream used to draw initial conditions for ensembles and sweeps.
INIT_STREAM = 0


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream)."""
    key = (int(seed) & _MASK64) | ((int(stream) & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class ParameterDistribution:
    """Law of the growth rate: uniform on [lambda_bar - delta_lambda,
    lambda_bar + delta_lambda].

    delta_lambda = 0 is the legal degenerate case of a point mass at
    lambda_bar, so deterministic runs share the stochastic code path.
    The support must stay inside [0, 4] or the unit interval would not
    be invariant under the map.
    """

    lambda_bar: float
    delta_lambda: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.lambda_bar) or not np.isfinite(self.delta_lambda):
            raise DomainError("lambda_bar and delta_lambda must be finite")
        if self.delta_lambda < 0:
            raise DomainError(f"delta_lambda must be >= 0, got {self.delta_lambda}")
        if self.low < 0.0 or self.high > 4.0:
            raise DomainError(
                f"support [{self.low}, {self.high}] must lie within [0, 4]"
            )

    @property
    def low(self) -> float:
        return self.lambda_bar - self.delta_lambda

    @property
    def high(self) -> float:
        return self.lambda_bar + self.delta_lambda

    @property
    def support(self) -> tuple[float, float]:
        return (self.low, self.high)


@dataclass(frozen=True, eq=False)
class SamplePath:
    """One realization of the chain X_0, X_1, ..., X_n together with the
    growth rates consumed.

    ``states`` has length n+1 and ``lambdas`` length n;
    states[i+1] = lambdas[i] * states[i] * (1 - states[i]) exactly in
    binary64.
    """

    x0: float
    states: np.ndarray
    lambdas: np.ndarray

    @property
    def n(self) -> int:
        return len(self.lambdas)

    def __len__(self) -> int:
        return len(self.states)


def generate_path(
    dist: ParameterDistribution, x0: float, n: int, seed: int
) -> SamplePath:
    """Generate a sample path of length n from x0.

    A pure function of (dist, x0, n, seed): the same arguments always
    give a bit-identical path.  The rate sequence is drawn up front from
    the path stream; state i+1 consumes lambdas[i].
    """
    if not 0.0 <= x0 <= 1.0:
        raise DomainError(f"state must lie in [0, 1], got {x0}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    rng = stream_rng(seed, PATH_STREAM)
    lambdas = rng.uniform(dist.low, dist.high, size=n)
    states = np.empty(n + 1, dtype=np.float64)
    states[0] = x0
    x = x0
    for i in range(n):
        x = lambdas[i] * x * (1.0 - x)
        states[i + 1] = x
    return SamplePath(x0=x0, states=states, lambdas=lambdas)
