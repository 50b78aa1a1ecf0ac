"""Simulator for joint power allocation and interference management in
in-band full-duplex multi-cell MIMO networks."""

from .model import (
    HardwareProfile,
    Realization,
    ScenarioConfig,
    build_realization,
    load_realization,
    realization_digest,
    save_realization,
)
from .stacked import BeamformingState
from .objective import ObjectiveReport, evaluate
from .jpaim import RunTrace, SolverConfig, run
from .baselines import nsp_project, run_half_duplex
from .harness import (
    CampaignConfig,
    CampaignSummary,
    complexity_estimate,
    load_config,
    run_campaign,
    save_config,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "BeamformingState", "CampaignConfig", "CampaignSummary", "HardwareProfile",
    "ObjectiveReport", "Realization", "RunTrace", "ScenarioConfig", "SolverConfig",
    "build_realization", "complexity_estimate", "evaluate", "load_config", "load_realization",
    "nsp_project", "realization_digest", "run", "run_campaign",
    "run_half_duplex", "save_config", "save_realization", "summarize",
]
