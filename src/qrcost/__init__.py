"""Secret-key rates, resource counts, and cost optimization for three
generations of quantum repeaters, with Monte Carlo cross-checks."""

import os

# qrcost makes no BLAS call, and an idle OpenBLAS pool spins a core while
# numpy loads; set before the first numpy import, so a value the user set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import gen1, gen2, gen3, oracles
from .core import (
    ATTENUATION_KM,
    CSS_CATALOG,
    FIBER_SPEED_KM_S,
    GOLAY,
    MAX_GATE_ERROR,
    QR_103,
    STEANE,
    BellDiagonalState,
    CostResult,
    CssCode,
    Gen1Config,
    Gen2EncConfig,
    Gen2NoEncConfig,
    Gen3Config,
    HardwareParams,
    werner_state,
)
from .keyrate import average_qber, binary_entropy, secure_fraction
from .optimize import (
    FAMILIES,
    Candidate,
    Gen1Search,
    Gen2Search,
    Gen3Search,
    OptimumReport,
    SearchSpace,
    describe_config,
    evaluate_config,
    optimize_all,
    optimize_family,
    region_map,
    sweep,
)
from .oracles import mc_gen1_waiting_time, mc_qpc_decode
from .pairs import purify, swap

__version__ = "0.1.0"

__all__ = [
    "ATTENUATION_KM",
    "CSS_CATALOG",
    "FAMILIES",
    "FIBER_SPEED_KM_S",
    "GOLAY",
    "MAX_GATE_ERROR",
    "QR_103",
    "STEANE",
    "BellDiagonalState",
    "Candidate",
    "CostResult",
    "CssCode",
    "Gen1Config",
    "Gen1Search",
    "Gen2EncConfig",
    "Gen2NoEncConfig",
    "Gen2Search",
    "Gen3Config",
    "Gen3Search",
    "HardwareParams",
    "OptimumReport",
    "SearchSpace",
    "average_qber",
    "binary_entropy",
    "describe_config",
    "evaluate_config",
    "gen1",
    "gen2",
    "gen3",
    "mc_gen1_waiting_time",
    "mc_qpc_decode",
    "optimize_all",
    "optimize_family",
    "oracles",
    "purify",
    "region_map",
    "secure_fraction",
    "swap",
    "sweep",
    "werner_state",
    "__version__",
]
