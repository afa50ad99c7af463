"""Multi-view linear feature extraction with dual contrastive losses."""

from .data import (MultiViewDataset, SplitSpec, load_dataset, load_views,
                   save_views, split, standardize, synth_blobs)
from .diagnostics import (column_sum_residual, cross_view_alignment,
                          laplacian_equivalence_gap, scatter_matrix)
from .errors import ConfigError, DataError, MvError, NumericError
from .evaluation import (ResultsTable, knn_accuracy, project, run_experiment,
                         run_protocol)
from .gradients import GradCheckReport, check_gradients, grad_P, grad_w
from .losses import (CoefficientSet, ProjectionStack, reconstruction_penalty,
                     sample_infonce, structural_contrastive, total_loss)
from .params import Hyperparams
from .trainer import (Model, TrainState, fit, init_state, load_model, save_model,
                      sweep_W)

__version__ = "0.1.0"
