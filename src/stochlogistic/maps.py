"""The growth-rate law of the logistic map with a randomly drawn
growth rate, and the keyed random streams every draw comes from.

The stochastic system advances a state x in [0,1] by x' = l*x*(1-x)
where each step's growth rate l is drawn i.i.d. from a parameter
distribution.  Every draw comes from an explicit random stream, so runs
are bit-reproducible from a seed.

Stream registry (counter-based Philox, 128-bit keys): the low 64 bits of
the key carry the user seed, the high 64 bits a stream index, in two
disjoint families:

- INIT_STREAM = 0 draws initial conditions for ensembles and sweeps;
- stream g+1 supplies the growth rates consumed when stepping away
  from generation g.

The i-th variate of a stream belongs to particle i, so a draw is a pure
function of (seed, stream, particle index) and parallel evaluation
cannot change results.

There is one generator: ``stream_rng`` re-keys a single Philox bit
generator to (seed, stream) at counter zero instead of building a new
one per call, which would also seed an unused entropy pool.  The
generator it returns is therefore valid only until the next
``stream_rng`` call, and it is not thread-safe: a caller draws what it
needs from one stream before it asks for another (a forked child
re-keys its own copy).  It is built on first use, so importing the
package does not load ``numpy.random``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1

#: Stream used to draw initial conditions for ensembles and sweeps.
INIT_STREAM = 0


# the state setter copies these words, so one read-only array serves every call
_ZEROS = np.zeros(4, dtype=np.uint64)
_ZEROS.flags.writeable = False


@cache
def _generator() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=0))


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """The counter-based generator keyed by (seed, stream), at the start
    of its stream; valid until the next call (see the module docstring).

    Its draws equal those of ``Generator(Philox(key=seed | stream << 64))``
    (both taken modulo 2**64): the key, the counter, the output buffer and
    the buffered 32-bit half are all reset.
    """
    rng = _generator()
    key = np.array([int(seed) & _MASK64, int(stream) & _MASK64], dtype=np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


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
