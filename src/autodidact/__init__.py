"""autodidact: an engine that grows a problem solver by inventing its own tasks.

The solver is a step-budgeted stack VM program; a search over candidate
meta-programs keeps finding the cheapest pair of (new task, solver edit) such
that the edited solver handles the new task plus everything it already knew.
Two acceptance rules are provided: a strict no-forgetting gate and an
explicit cost ledger that permits forgetting when average cost improves.
"""

from .archive import (
    AlreadySolvable,
    ArchiveEntry,
    ExternalTask,
    append_entry,
    archive_digest,
    fork_solver,
    load_archive,
)
from .audit import audit_archive
from .bits import BitString, nibble
from .codec import (
    DecodedProgram,
    IncompleteProgram,
    InvalidOpcode,
    UnknownOpcode,
    decode,
    encode,
    enumerate_programs,
    kraft_sum,
)
from .config import RunConfig, variant2_demo_config
from .engine import Engine, RunResult, inject_external_task
from .grid import EnvState, GridWorld, WORLDS, env_step
from .isa import SOLVER_ISA
from .patterns import MissingPattern, PATTERNS, get_pattern
from .prior import Prior
from .search import SearchCeilingReached, oops_search, stochastic_search
from .tasks import (
    BelowThreshold,
    DecisionTask,
    GoalSpec,
    PatternTask,
    Trace,
    evaluate_goal,
    make_efficiency_task,
    replay_check,
    solves_pattern,
)
from .validate import (
    BudgetExhausted,
    UsageIndex,
    demonstrate,
    full_revalidation,
    revalidate_set,
    update_usage,
)
from .vm import (
    Append,
    Changed,
    FrozenViolation,
    InvalidResult,
    RunOutcome,
    SetEntry,
    SetSlot,
    SolverProgram,
    Truncate,
    apply_modification,
    run_solver,
)

__version__ = "0.1.0"
