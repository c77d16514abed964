"""Order-reduced residual learning for high-order PDEs.

Local deep Galerkin and local deep Ritz methods with their strong-form
baselines, built on a self-contained tape/jet autodiff engine.
"""

from .autodiff import Jet, Tape, Var, backward
from .loss import LossBreakdown, dgm_loss, ldgm_loss
from .metrics import derivative_scale_diagnostic, evaluation_grid, relative_l2
from .network import (AnalyticNetwork, Network, NetworkConfig, ParameterSet, init_xavier,
                      load_checkpoint, save_checkpoint)
from .reference import ReferenceField, SpectralCHConfig, fft, ifft, solve_ch_spectral
from .ritz import RitzConfig, drm_loss, ldrm_loss
from .sampling import SampleBatch, SamplerConfig, draw_batch
from .system import (BoundaryCond, ProblemSpec, SystemForm, builtin_problems,
                     get_problem, ldgm_system, rewrite_first_order)
from .trainer import (METHODS, AdamState, TrainConfig, TrainReport, adam_step,
                      default_network_config, success_rate, train)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
