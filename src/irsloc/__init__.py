"""Device-free localization with two base stations and passive IRS anchors.

Submodules follow the pipeline order:

* ``scene``: geometry, anchor-placement checks, random scenarios
* ``waveform``: OFDM pilot and echo synthesis
* ``ranging``: sparse channel recovery and range-set extraction
* ``association``: cross-BS matching of anonymous range measurements
* ``locate``: position fitting and association selection
* ``harness``: Monte-Carlo experiments, metrics, CSV output
"""

from .scene import Point2D, Scene, TopologyReport, check_topology, distance, sample_targets
from .waveform import OfdmConfig, SubcarrierPlan, build_paths, make_plan, simulate_freq_rx
from .ranging import RangeSets, RangingConfig, delay_to_range, lasso_solve
from .association import AssociationTuple, count_unfiltered_solutions
from .locate import GnConfig, ResidualWeights, gauss_newton_solve, localize
from .harness import ExperimentConfig, default_config, error_probability, run_trial

__version__ = "0.1.0"

__all__ = [
    "Point2D",
    "Scene",
    "TopologyReport",
    "check_topology",
    "distance",
    "sample_targets",
    "OfdmConfig",
    "SubcarrierPlan",
    "build_paths",
    "make_plan",
    "simulate_freq_rx",
    "RangeSets",
    "RangingConfig",
    "delay_to_range",
    "lasso_solve",
    "AssociationTuple",
    "count_unfiltered_solutions",
    "GnConfig",
    "ResidualWeights",
    "gauss_newton_solve",
    "localize",
    "ExperimentConfig",
    "default_config",
    "error_probability",
    "run_trial",
    "__version__",
]
