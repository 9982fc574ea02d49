"""wattsplit: appliance-level energy disaggregation.

A twin-head CNN reads a padded window of aggregate mains power; one head
regresses a power rating per appliance state, the other classifies the
state at every output timestep, and their product is the appliance
estimate. Post-processing variants harden the state sequence (argmax
gate) and median-filter it.
"""
from .autodiff import Tensor, conv1d, cross_entropy_loss, dense, mse_loss, relu, sigmoid, softmax
from .checkpoint import load_checkpoint, save_checkpoint
from .metrics import ApplianceMetrics, MetricReport, mae, report, sae
from .model import ConvLayerSpec, DisaggNet, ForwardOutput, NetConfig, combine, total_loss
from .optim import Adam, Parameter
from .postprocess import (FilterConfig, combine_hard, hard_gate, median_filter,
                          reconcile_overlaps)
from .series import PowerSeries, denormalize, fill_gaps, load_csv, normalize, save_csv
from .states import ApplianceStateModel, cluster_states, label_states
from .synth import ApplianceSpec, SyntheticScenario, demo_scenario, generate
from .trainer import (DisaggregationResult, TrainConfig, TrainReport, disaggregate,
                      train)
from .windows import WindowConfig, WindowedExample, make_windows

__version__ = "0.1.0"
