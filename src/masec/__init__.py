"""Movable-antenna physical-layer-security simulator.

Library and CLI for maximizing the worst user's secrecy rate against an
eavesdropper with unknown position, by jointly optimizing transmit
beamforming and antenna positions with an annealed projected-gradient
method, plus fixed-array baselines and Monte-Carlo experiment sweeps.
"""

from .audit import fd_oracle, run_fd_audit
from .channel import (
    ChannelWorkspace,
    FrozenGains,
    GainSampler,
    PathSet,
    build_realization,
    direction_vector,
)
from .geometry import (
    ArrayLayout,
    InfeasibleRegionError,
    project_box,
    sample_virtual_eves,
)
from .gradients import grad_t_batch, grad_w_batch
from .harness import (
    Scenario,
    ScenarioConfig,
    SweepResult,
    build_scenario,
    one_dim_search,
    run_sweep,
)
from .metrics import Beamformer, SecrecyReport, rates, secrecy_report
from .optimizer import (
    AdaGradState,
    Solution,
    init_beamformer,
    metropolis_accept,
    pga_t,
    pga_w,
    sa_pga,
)

__version__ = "0.1.0"
