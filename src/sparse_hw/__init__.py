"""Tail bounds for sparse quadratic forms, with Monte Carlo verification.

The random model throughout: xi_i = delta_i * zeta_i where delta_i is
Bernoulli(p_i) and zeta_i is a centered base variable whose alpha-th
absolute power has exponential tails (0 < alpha <= 2).  The library
evaluates several tail bounds for xi' A xi and its relatives, simulates
the corresponding empirical tails, and applies the machinery to inverse
probability weighted covariance estimation and sparsified sketching.
"""

__version__ = "0.1.0"
