"""Quantum process tomography by learning Kraus operators.

Reconstructs CPTP maps from (simulated) expectation-value data, either by
Riemannian gradient descent on the Stiefel manifold of stacked Kraus
operators or by a projected-least-squares baseline, with a benchmark
harness for noise, data-fraction, and timing sweeps.  The package root
re-exports nothing: import each name from its submodule.
"""

__version__ = "0.1.0"
