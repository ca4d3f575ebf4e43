"""Desk-scale computational toolkit for Waring's problem over diagonal forms.

Everything here works with the diagonal form T_t(x) = x_1^l + ... + x_t^l and
the representation problem

    n = T(x_1)^k + ... + T(x_s)^k + x_1^k + ... + x_r^k.

Submodules:

  arith      exact integer / modular / multiplicative-function machinery
  convolve   exact integer convolution (direct int64 kernel + multi-prime NTT/CRT)
  powersets  power-sum value sets, smooth sets, density diagnostics
  expsums    complete exponential sums S_k, S(q,a), W(q,a) and the weight w_k
  local      p-adic solution counts M_n(p^h), M*_n(p^h)
  singular   singular series factors S_n(q), S'_n(q) and truncations
  integral   weighted generating sums u, v, w and singular integrals
  arcs       Hardy-Littlewood dissections and generating functions
  represent  exact global representation counting
  cli        command-line interface
"""

from waringtk.errors import PreconditionError, ResourceError
from waringtk.params import ProblemParams

__all__ = ["PreconditionError", "ResourceError", "ProblemParams"]
__version__ = "0.1.0"
