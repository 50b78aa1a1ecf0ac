"""Simulator for joint power allocation and interference management in
in-band full-duplex multi-cell MIMO networks."""

from .model import (
    AntennaConfig,
    HardwareProfile,
    Realization,
    ScenarioConfig,
    Topology,
    build_realization,
    load_realization,
    realization_digest,
    save_realization,
)
from .state import BeamformingState
from .objective import ObjectiveReport, evaluate, nu_from_asic
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
    "AntennaConfig", "BeamformingState", "CampaignConfig", "CampaignSummary",
    "HardwareProfile", "ObjectiveReport", "Realization", "RunTrace",
    "ScenarioConfig", "SolverConfig", "Topology", "build_realization",
    "complexity_estimate", "evaluate", "load_config", "load_realization",
    "nsp_project", "nu_from_asic", "realization_digest", "run", "run_campaign",
    "run_half_duplex", "save_config", "save_realization", "summarize",
]
