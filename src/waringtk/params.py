"""Global parameter tuple and the derived constants used across modules.

The problem is governed by integers (k, l, t, xi) and a target integer
n; the block counts s and r are arguments of the counting functions.
Derived reals are X = n^(1/k) and P = X^(1/l), so that form values
T(x) <= P^l = X contribute k-th powers up to n.  The cutoff constants

    C1 = (k(k+1) 2^(k+1) t1^k)^(-1/lk)
    C2 = min((2lk)^(-1/l), (k(k+1) 2^(k+1) l^k)^(-1/lk))
    C3 = (2^(k+1) k(k+1))^(-1/kl) * xi1^(-1/l)

shrink the shifted-set supports so that pair sums (x+m)^k stay below n/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from waringtk.errors import require_integers


def delta_r(r: int, l: int) -> float:
    """Density-loss exponent exp(1 - 2r/l)."""
    require_integers(1, l=l)
    require_integers(0, r=r)
    return math.exp(1.0 - 2.0 * r / l)


def varphi(k: int, t1: int, l: int) -> float:
    """1 - k(k+1) delta_{t1}/2 - 1/e, positive once t1/l is large enough."""
    require_integers(1, k=k)
    return 1.0 - k * (k + 1) * delta_r(t1, l) / 2.0 - math.exp(-1.0)


def xi0(k: int, l: int) -> int:
    """ceil(l/2 * (log l + log(k(k+1)) + 2)), threshold for positive density."""
    require_integers(1, k=k, l=l)
    return math.ceil(l / 2.0 * (math.log(l) + math.log(k * (k + 1)) + 2.0))


@dataclass(frozen=True)
class ProblemParams:
    """The global tuple (k, l, t, xi) for a target n."""

    k: int
    l: int
    t: int
    n: int
    xi: int = 1

    # derived, filled in __post_init__
    X: float = field(init=False)
    P: float = field(init=False)

    def __post_init__(self):
        require_integers(2, k=self.k, l=self.l)
        require_integers(1, t=self.t, n=self.n, xi=self.xi)
        object.__setattr__(self, "X", self.n ** (1.0 / self.k))
        object.__setattr__(self, "P", self.n ** (1.0 / (self.k * self.l)))

    @property
    def t1(self) -> int:
        return self.t - self.l

    @property
    def xi1(self) -> int:
        return self.xi - 1

    @property
    def c1(self) -> float:
        require_integers(1, t1=self.t1)
        k, l = self.k, self.l
        return (k * (k + 1) * 2 ** (k + 1) * self.t1**k) ** (-1.0 / (l * k))

    @property
    def c2(self) -> float:
        k, l = self.k, self.l
        return min((2 * l * k) ** (-1.0 / l), (k * (k + 1) * 2 ** (k + 1) * l**k) ** (-1.0 / (l * k)))

    @property
    def c3(self) -> float:
        require_integers(1, xi1=self.xi1)
        k, l = self.k, self.l
        return (2 ** (k + 1) * k * (k + 1)) ** (-1.0 / (k * l)) * self.xi1 ** (-1.0 / l)

    @property
    def p1(self) -> int:
        return math.floor(self.c1 * self.P)

    @property
    def p2(self) -> int:
        return math.floor(self.c2 * self.P)
