"""The cost-based acceptance rule: explicit ledgers instead of a hard gate.

Cost(s, tasks) = L(s) + alpha * sum(t' - r).  A candidate is frozen when it
saves more than epsilon over the previous solver on the whole task set, so
the engine may trade code size against runtime, re-propose an old task just
to solve it faster, or even forget a skill when the average improves.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

from autodidact import Engine
from autodidact.config import variant2_demo_config
from autodidact.costs import CostParams, TaskMeasure, cost
from autodidact.metrics import ledger_rows, write_metrics
from autodidact.vm import SolverProgram

print("== the formula on paper ==")
params = CostParams(alpha=Fraction(1), t_max=500, r_new=1000)
solver20 = SolverProgram(((1, ()),) * 3)  # 20 encoded bits
measures = {"a_solved_task": TaskMeasure(True, 5, 3)}
origins = {"a_solved_task": "self"}  # self-invented, so r = r_new once solved
print("L=20, one solved task (t'=5, r=1000):", cost(solver20, measures, origins, params))
measures = {"an_unsolved_task": TaskMeasure(False, 0, 0)}
print("L=20, one unsolved task (t'=t_max):  ", cost(solver20, measures, {}, params))

print("\n== a short cost-variant run ==")
workdir = Path(tempfile.mkdtemp(prefix="ledger-demo-"))
config = variant2_demo_config(
    max_tasks=3,
    archive_path=str(workdir / "archive.jsonl"),
    metrics_path=str(workdir / "metrics.csv"),
)
result = Engine(config).run()
write_metrics(result.entries, config.metrics_path)
print(f"accepted {result.accepted} tasks with alpha={config.alpha}")
print(f"{'i':>2} {'c*':>8} {'c':>9} {'savings':>9}  solver bits")
for row in ledger_rows(result.entries):
    print(f"{row['i']:>2} {row['c_star']:>8} {row['c']:>9} {row['savings']:>9}  {row['solver_size']}")
print("\nevery row satisfies c* - c > epsilon; the audit tool recomputes these"
      "\nvalues exactly from the archive (exact rational arithmetic throughout).")
