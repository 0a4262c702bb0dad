"""The BISRAMGEN compiler core.

* :mod:`~repro.core.config` — the user parameters (bpw, bpc, word
  count, spare rows, critical gate size, strap space) with the paper's
  validation rules,
* :mod:`~repro.core.floorplan` — macrocell generation and assembly,
* :mod:`~repro.core.datasheet` — the timing/area/power guarantees
  extrapolated from characterised leaf cells,
* :mod:`~repro.core.compiler` — :class:`BISRAMGen`, the top-level tool:
  layout + simulation model + datasheet from one configuration,
* :mod:`~repro.core.stages` — stage-level memoization for the build
  pipeline (floorplan -> layout -> control planes -> datasheet ->
  signoff),
* :mod:`~repro.core.canonical` — the canonical-JSON digest recipe
  shared by stage keys, artifact-store keys, and campaign
  fingerprints,
* :mod:`~repro.core.counters` — the thread-safe named counters every
  stats report is built from.
"""

from repro.core.canonical import canonical_json, stable_digest
from repro.core.config import RamConfig
from repro.core.datasheet import Datasheet
from repro.core.compiler import BISRAMGen, CompiledRam, compile_ram
from repro.core.errors import (
    ConfigError,
    RepairExhausted,
    ReproError,
    ServiceUnavailable,
    SpiceConvergenceError,
)
from repro.core.stages import StageCache, StageTiming

__all__ = [
    "RamConfig",
    "Datasheet",
    "BISRAMGen",
    "CompiledRam",
    "compile_ram",
    "StageCache",
    "StageTiming",
    "canonical_json",
    "stable_digest",
    "ReproError",
    "ConfigError",
    "RepairExhausted",
    "ServiceUnavailable",
    "SpiceConvergenceError",
]
