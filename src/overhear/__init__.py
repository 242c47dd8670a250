"""Recognize what a distributed agent team is doing from overheard messages.

The package splits into:

- model: plan/team hierarchy documents and validation
- ingest: message log formats (canonical + KQML) and loss filters
- belief: the belief engine both recognizer layouts share (forward step,
  evidence, most-likely query), and the array layout's per-agent tick
- social: coherence counting, learned communication models
- yoyo: team recognizer sharing one plan hierarchy across the whole team
- recognizer: one interface and one monitor loop over both recognizer layouts
- sim: seeded team simulator producing ground-truth traces and logs
- harness: exact oracle, run scoring, hypothesis counting, scalability bench
- progen: program generators for tests and experiments
- cli: `overhear` command built from the above

The top level exports what the README's library example uses, plus the
error types; everything else is imported from its module.
"""

from .model import ProgramError, load_program_path
from .ingest import IngestError
from .belief import MonitoringError
from .social import learn_comm_model
from .recognizer import make_recognizer
from .sim import SimConfig, SimulationError, simulate
from .harness import evaluate_run

__all__ = [
    "IngestError", "MonitoringError", "ProgramError", "SimConfig", "SimulationError",
    "evaluate_run", "learn_comm_model", "load_program_path", "make_recognizer",
    "simulate",
]

__version__ = "0.1.0"
