"""Two-qubit concurrence in three flavors.

* :func:`concurrence_pure` -- the closed form for a pure two-qubit state.
* :func:`concurrence_wootters` -- the standard mixed-state extension, the
  exact physical quantity for a subsystem that is mixed in general.
* :func:`effective_concurrence` -- the population-based quantity
  ``2*sqrt(p*(1-p))`` with ``p`` the tested qubit's probability of reading 1.

The three agree on pure states of the form ``a|01> + b|10>`` but can differ
on mixed subsystems; callers that need a decision statistic should report
them side by side (see :mod:`qjunta.junta`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .qsim import NORM_ATOL, TwoQubitDensity

# Eigenvalues of the spin-flipped product more negative than this are an
# input error; anything smaller in magnitude than EIG_FLOOR is solver noise
# (the product is formed from norm-1 factors, so its eigenvalue noise is
# absolute, around 1e-15) and is treated as exactly zero before the square
# root, which would otherwise amplify it to the 1e-8 scale.
EIG_CLAMP = 1e-10
EIG_FLOOR = 1e-13

# sigma_y (x) sigma_y in the computational basis; both sign conventions for
# sigma_y give the same product.
SIGMA_YY = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=np.complex128,
)


@dataclass(frozen=True)
class PureTwoQubit:
    """Pure state a00|00> + a01|01> + a10|10> + a11|11>, normalized."""

    a00: complex
    a01: complex
    a10: complex
    a11: complex

    def __post_init__(self):
        total = abs(self.a00) ** 2 + abs(self.a01) ** 2 + abs(self.a10) ** 2 + abs(self.a11) ** 2
        if abs(total - 1.0) > NORM_ATOL:
            raise ValueError(f"state is not normalized: |amps|^2 = {total!r}")

    def projector(self) -> TwoQubitDensity:
        vec = np.array([self.a00, self.a01, self.a10, self.a11], dtype=np.complex128)
        return TwoQubitDensity(np.outer(vec, vec.conj()))


def concurrence_pure(state: PureTwoQubit) -> float:
    """Concurrence of a pure two-qubit state: ``2|a00*a11 - a01*a10|``.

    This is the closed form of ``|<s|(sigma_y (x) sigma_y)|s*>|``.
    """
    value = 2.0 * abs(state.a00 * state.a11 - state.a01 * state.a10)
    return min(1.0, value)


def concurrence_wootters(rho: Union[TwoQubitDensity, np.ndarray]) -> float:
    """Concurrence of a general two-qubit density matrix.

    Computes ``max(0, l1 - l2 - l3 - l4)`` where the ``l_k`` are the
    decreasing square roots of the eigenvalues of
    ``rho (sy(x)sy) conj(rho) (sy(x)sy)``.  Agrees with
    :func:`concurrence_pure` on pure-state projectors.
    """
    if not isinstance(rho, TwoQubitDensity):
        rho = TwoQubitDensity(rho)  # validates Hermiticity, trace, positivity
    matrix = rho.entries
    product = matrix @ SIGMA_YY @ matrix.conj() @ SIGMA_YY
    eigs = np.linalg.eigvals(product)
    if np.abs(eigs.imag).max() > 1e-8:
        raise ValueError(f"spin-flip spectrum is not real: {eigs!r}")
    real = eigs.real
    if real.min() < -EIG_CLAMP:
        raise ValueError(f"spin-flip spectrum has a negative eigenvalue: {real!r}")
    roots = np.sqrt(np.where(real < EIG_FLOOR, 0.0, real))
    roots[::-1].sort()
    return min(1.0, max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3])))


def effective_concurrence(p1: float) -> float:
    """Population-based concurrence ``2*sqrt(p1*(1-p1))``.

    Equals the pure-state concurrence of ``a|01> + b|10>`` when
    ``p1 = |b|^2``; zero exactly at ``p1`` in {0, 1} and maximal (1) at 1/2.
    """
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p1!r}")
    return min(1.0, 2.0 * math.sqrt(p1 * (1.0 - p1)))
