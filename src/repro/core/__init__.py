"""The paper's scheduling schemes (Sections 3 and 4).

* :class:`NoPowerManagement` (NPM) — normalization baseline,
* :class:`StaticPowerManagement` (SPM) — static slack only,
* :class:`GreedySlackSharing` (GSS) — the extended greedy algorithm,
* :class:`StaticSpeculationOneSpeed` / :class:`StaticSpeculationTwoSpeeds`
  (SS¹/SS²) — static speculation,
* :class:`AdaptiveSpeculation` (AS) — re-speculation at OR nodes,
* :class:`ClairvoyantOracle` — clairvoyant single-speed reference
  (extension; not a lower bound: schemes can undercut it).

Use :func:`get_policy` to resolve by the paper's labels.
"""

from .adaptive_spec import AdaptiveSpeculation
from .base import PolicyRun, SpeedPolicy, speculative_speed
from .clairvoyant import ClairvoyantOracle
from .gss import GreedySlackSharing
from .npm import NoPowerManagement
from .proportional import ProportionalSpeculation
from .registry import (
    ALL_SCHEMES,
    PAPER_SCHEMES,
    available_schemes,
    get_policies,
    get_policy,
)
from .spm import StaticPowerManagement, spm_speed
from .static_spec import (
    StaticSpeculationOneSpeed,
    StaticSpeculationTwoSpeeds,
    two_speed_plan,
)

__all__ = [
    "SpeedPolicy",
    "PolicyRun",
    "speculative_speed",
    "NoPowerManagement",
    "StaticPowerManagement",
    "spm_speed",
    "GreedySlackSharing",
    "StaticSpeculationOneSpeed",
    "StaticSpeculationTwoSpeeds",
    "two_speed_plan",
    "AdaptiveSpeculation",
    "ProportionalSpeculation",
    "ClairvoyantOracle",
    "get_policy",
    "get_policies",
    "available_schemes",
    "PAPER_SCHEMES",
    "ALL_SCHEMES",
]
