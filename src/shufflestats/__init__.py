"""Exact descent statistics under riffle-shuffle measures.

The package computes, in exact rational arithmetic, the distribution of
descent and cyclic-descent counts under iterated riffle shuffles and
cut-then-riffle shuffles, their moments and asymptotics, certified
Poisson approximation error bounds, and exchangeable-pair diagnostics.
A seeded sampler and a chi-square harness tie the formulas back to
simulation, and a CLI exposes the lot. Each name is imported from its
own module, e.g. ``from shufflestats.measures import d_pmf_R``.
"""

__version__ = "0.1.0"
