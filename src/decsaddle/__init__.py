"""Decentralized saddle-point optimization with compressed communication.

In-process simulator of a synchronous node network solving strongly
convex-strongly concave problems (robust logistic regression) with a
primal-dual hybrid gradient core, difference-compressed gossip, and two
stochastic-gradient schedules: restart-based and variance-reduced.
"""

from .compression import (
    Compressor,
    InfeasibleParameterError,
    bind_exchange,
    identity_compressor,
    quantizer_delta,
)
from .data import Dataset, parse_libsvm, partition, synthesize
from .ipdhg import NodeEnsemble, StepParams, step_plan
from .metrics import (
    CostCounters,
    SaddleAnchors,
    Trace,
    compute_anchors,
    distance_to_saddle,
    phi,
    phi_tilde,
)
from .oracles import SvrgState, gsgo_draw, svrgo_draw, svrgo_update_reference
from .problem import RobustLRProblem, SaddleConstants
from .solvers import (
    StageParams,
    SvrgParams,
    cdpsvrg_params,
    compute_reference,
    contraction_rate,
    crdpsg_rho,
    crdpsg_stage_params,
    run_cdpsvrg,
    run_crdpsg,
)
from .topology import (
    DecGraph,
    SpectralInfo,
    bind_mix,
    build_ring,
    build_torus,
    mix,
    pinv_weighted_sqnorm,
    spectral,
)

__version__ = "0.1.0"
