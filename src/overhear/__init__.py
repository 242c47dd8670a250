"""Recognize what a distributed agent team is doing from overheard messages.

The package splits into:

- model: program documents, their validation, and the position-keyed tables
- compiled: the forward step as a table, the step memo and the one clip
- belief: the belief engine both layouts share, and the array layout's tick
- yoyo: the shared-hierarchy layout, one belief for the whole team
- recognizer: one interface and one monitor loop over both layouts
- social: coherence counting and announcement models
- ingest: overheard messages, their log formats (canonical + KQML) and loss
- sim: the seeded simulator, writing ground-truth traces and logs
- harness: run scoring, hypothesis-count curves, scalability bench
- progen: seeded program generators
- cli: the `overhear` command

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
