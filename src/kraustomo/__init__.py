"""Quantum process tomography by learning Kraus operators.

Reconstructs CPTP maps from (simulated) expectation-value data, either by
Riemannian gradient descent on the Stiefel manifold of stacked Kraus
operators or by a projected-least-squares baseline, with a benchmark
harness for noise, data-fraction, and timing sweeps.
"""

from .core import (ChoiMatrix, DensityMatrix, KrausStack, ProcessMetric,
                   apply_kraus, choi_apply, kraus_to_choi, partial_trace_out,
                   process_fidelity, tp_defect)
from .cv import (CvGrid, annihilation, displaced_parity, displacement, snap,
                 snap_displace_process)
from .data import Tomogram, load, save, sensing_matrix, subsample, synthesize
from .dv import random_process, random_unitary
from .gd import (FitTrace, GdConfig, cayley_step, fit, init_kraus, loss,
                 wirtinger_gradient)
from .pls import (InformationIncompleteError, PlsConfig, fit_pls,
                  linear_inversion, project_cp, project_cptp, project_tp)

__version__ = "0.1.0"
