"""Numerical laboratory for blow-up in a weakly coupled damped-wave/wave
system: adjoint test functions, a radial finite-difference simulator with
a functional-inequality audit, a comparison-ODE blow-up engine, and a
critical-curve classifier for the (p, q, n) parameter space."""

__version__ = "0.1.0"
