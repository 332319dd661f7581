"""Adaptive conformal intervals for multi-environment regression.

Split-conformal and environment-weighted adaptive intervals around linear
invariant-risk-minimization predictors, with a structural-equation benchmark
generator and a cross-environment invariance statistic.

Import each name from its module: ``acir.core``, ``acir.datagen``,
``acir.models``, ``acir.conformal``, ``acir.invariance`` or ``acir.bench``.
"""

__version__ = "0.1.0"
