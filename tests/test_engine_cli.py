import json
import os
import subprocess
import sys

import pytest

from autodidact.archive import load_archive
from autodidact.bits import nibble
from autodidact.cli import EXIT_AUDIT, build_parser, config_from_args
from autodidact.cli import main as cli_main
from autodidact.config import ConfigError, RunConfig
from autodidact.engine import Engine
from autodidact.metrics import write_metrics
from autodidact.tasks import PatternTask


def run_cli(args):
    return cli_main(args)


def test_zero_tasks_gives_empty_archive_and_exit_zero(tmp_path):
    code = run_cli(
        [
            "run",
            "--max-tasks",
            "0",
            "--archive",
            str(tmp_path / "a.jsonl"),
            "--metrics",
            str(tmp_path / "m.csv"),
        ]
    )
    assert code == 0
    assert load_archive(tmp_path / "a.jsonl") == []
    assert (tmp_path / "m.csv").read_text().count("\n") == 1  # header only


def test_bad_config_exits_two(tmp_path):
    assert run_cli(["run", "--max-tasks", "0", "--eps-wow", "0"]) == 2


def test_env_overrides_win(tmp_path, monkeypatch):
    monkeypatch.setenv("PP_SEED", "99")
    cfg = RunConfig(seed=1).apply_env_overrides()
    assert cfg.seed == 99


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(variant="III").validate()
    with pytest.raises(ConfigError):
        RunConfig(searcher="bogus").validate()
    with pytest.raises(ConfigError):
        RunConfig(eps_wow=0).validate()


def test_audit_of_empty_archive_exits_zero(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text("")
    assert run_cli(["audit", str(path)]) == 0


def test_audit_of_missing_archive_exits_two(tmp_path):
    assert run_cli(["audit", str(tmp_path / "nope.jsonl")]) == 2
    assert run_cli(["report", str(tmp_path / "nope.jsonl")]) == 2


@pytest.mark.parametrize("command", ["audit", "report"])
def test_an_unreadable_archive_exits_two_with_an_io_error(tmp_path, capsys, command):
    path = tmp_path / "archive.jsonl"
    path.mkdir()
    assert run_cli(_command(command, path, "I", tmp_path)) == 2
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert [e["event"] for e in events] == ["io_error"]
    assert str(path) in events[0]["error"]


@pytest.mark.parametrize(
    "bad",
    [
        '{"kind": "pattern", "i1": 3',
        '{"kind": "bogus", "t": 64, "n": 1024}',
        '{"kind": "pattern", "i1": 3, "i2": "4:50", "t": 64, "n": 1024}',
        '{"kind": "pattern", "i1": 7, "i2": "4:30", "o": "4:c0", "t": 64, "n": 1024, "reward": "abc"}',
        '{"kind": "pattern", "i1": 7, "i2": "4:30", "o": "4:c0", "t": 64, "n": 1024, "reward": 9.5}',
        '{"kind": "pattern", "i1": 7, "i2": "4:30", "o": "4:c0", "t": 64, "n": 1024, "reward": true}',
    ],
    ids=["bad json", "unknown kind", "missing field", "reward a string", "reward a float",
         "reward a bool"],
)
def test_a_malformed_external_task_line_exits_two_and_names_it(tmp_path, capsys, bad):
    good = json.dumps(PatternTask(3, nibble(5), nibble(9), 64, 1024).to_json())
    queue = tmp_path / "queue.jsonl"
    queue.write_text(good + "\n\n" + bad + "\n")
    archive = tmp_path / "archive.jsonl"
    args = ["run", "--archive", str(archive), "--metrics", str(tmp_path / "m.csv")]
    args += ["--external-tasks", str(queue)]
    torn = '{"i": 1, "orig'  # a crash tail, which a resume would cut
    for resume, before in ((False, None), (True, torn)):
        if before is not None:
            archive.write_text(before)
        assert run_cli(args + (["--resume"] if resume else [])) == 2
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert events[-1]["event"] == "config_error"
        assert events[-1]["line"] == 3
        assert (archive.read_text() if archive.exists() else None) == before


def small_run(tmp_path, name="run", **overrides):
    d = tmp_path / name
    os.makedirs(d, exist_ok=True)
    kw = dict(
        variant="I",
        domain="gridworld",
        seed=11,
        max_tasks=3,
        archive_path=str(d / "archive.jsonl"),
        metrics_path=str(d / "metrics.csv"),
    )
    kw.update(overrides)
    cfg = RunConfig(**kw)
    res = Engine(cfg).run()
    write_metrics(res.entries, cfg.metrics_path)
    return cfg, res


def test_run_flags_default_to_the_run_config_defaults():
    assert config_from_args(build_parser().parse_args(["run"])) == RunConfig()


def test_every_run_flag_lands_in_its_field():
    from fractions import Fraction

    argv = (
        "run --variant II --searcher stochastic --domain pattern --seed 7 --max-tasks 9"
        " --step-ceiling 1024 --alpha 3/2 --epsilon 1/4 --eps-wow 6 --prefix-mode --paranoid"
        " --adapt-prior --archive a.jsonl --metrics m.csv --external-tasks q.jsonl --resume"
    ).split()
    assert config_from_args(build_parser().parse_args(argv)) == RunConfig(
        variant="II",
        searcher="stochastic",
        domain="pattern",
        seed=7,
        max_tasks=9,
        step_ceiling=1024,
        alpha=Fraction(3, 2),
        epsilon=Fraction(1, 4),
        eps_wow=6,
        prefix_mode=True,
        paranoid=True,
        adapt_prior=True,
        archive_path="a.jsonl",
        metrics_path="m.csv",
        external_tasks_path="q.jsonl",
        resume=True,
    )


@pytest.fixture(scope="module")
def four_entry_archives(tmp_path_factory):
    """The lines of a variant I and a variant II gridworld archive, four entries each."""
    out = {}
    for variant in ("I", "II"):
        cfg, res = small_run(tmp_path_factory.mktemp("four"), variant=variant, max_tasks=4)
        assert res.accepted == 4
        out[variant] = open(cfg.archive_path).read().splitlines(keepends=True)
    return out


# Damage to entry 2 of a gridworld archive: (variant, entry the error names).
DAMAGE = {
    "line 2 deleted": ("I", 3),
    "line 2 repeated": ("I", 2),
    "line 2 torn": ("I", 2),
    "task kind bogus": ("I", 2),
    "solver missing": ("I", 2),
    "trace missing": ("I", 2),
    "trace_ref in place of trace": ("I", 2),
    "entry 1's task again without a trace": ("I", 2),
    "appended no pair": ("I", 2),
    "search_steps a string": ("I", 2),
    "cost_params missing": ("II", 2),
    "p not bits": ("I", 2),
    "p no program": ("I", 2),
    "meta not an object": ("I", 2),
    "c not a ratio": ("II", 2),
    "reward a string": ("II", 2),
    "reward a float": ("II", 2),
    "reward a bool": ("II", 2),
    "i a string": ("I", 2),
    "origin bogus": ("I", 2),
    "appended past the solver": ("I", 2),
    "frozen_prefix_len 3": ("I", 2),
    "every entry key frozen": ("I", 2),
    "frozen as in prefix mode": ("I", 2),
}


def _damaged(lines, damage):
    lines = list(lines)
    if damage == "line 2 deleted":
        del lines[1]
        return lines
    if damage == "line 2 repeated":
        lines.insert(2, lines[1])
        return lines
    if damage == "line 2 torn":
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
        return lines
    data = json.loads(lines[1])
    if damage == "task kind bogus":
        data["task"]["kind"] = "bogus"
    elif damage == "solver missing":
        del data["solver"]
    elif damage == "trace missing":
        del data["trace"]
    elif damage == "trace_ref in place of trace":
        del data["trace"]
        data["trace_ref"] = "0" * 24  # how archives once named a trace in a second file
    elif damage == "entry 1's task again without a trace":
        data["task"] = json.loads(lines[0])["task"]  # variant I never re-proposes a task
        del data["trace"]
    elif damage == "appended no pair":
        data["meta"]["appended"] = 5
    elif damage == "appended past the solver":
        data["meta"]["appended"] = [1000000, 2]
    elif damage == "frozen_prefix_len 3":
        data["solver"]["frozen_prefix_len"] = 3
    elif damage == "every entry key frozen":
        data["solver"]["frozen_entry_keys"] = sorted(data["solver"]["entries"])
    elif damage == "frozen as in prefix mode":  # entry 1 freezes nothing
        data["solver"]["frozen_prefix_len"] = data["meta"]["solver_slots"]
        data["solver"]["frozen_entry_keys"] = sorted(data["solver"]["entries"])
    elif damage == "i a string":
        data["i"] = "2"
    elif damage == "origin bogus":
        data["origin"] = "bogus"
    elif damage == "search_steps a string":
        data["meta"]["search_steps"] = "abc"
    elif damage == "p not bits":
        data["p"] = "zz"
    elif damage == "p no program":
        data["p"] = "5:00"  # a lone terminator: the modifier is missing
    elif damage == "meta not an object":
        data["meta"] = []
    elif damage == "c not a ratio":
        data["c"] = "abc"
    elif damage.startswith("reward"):
        data["origin"] = "external"
        data["meta"]["reward"] = {"string": "abc", "float": 9.5, "bool": True}[damage.split()[-1]]
    else:
        del data["meta"]["cost_params"]
    lines[1] = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    return lines


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("command", ["audit", "report", "run"])
def test_an_archive_out_of_sequence_exits_three_and_names_the_entry(
    tmp_path, capsys, four_entry_archives, command, damage
):
    variant, found = DAMAGE[damage]
    lines = _damaged(four_entry_archives[variant], damage)
    _assert_corrupt(tmp_path, capsys, command, variant, lines, found)


def _command(command, path, variant, tmp_path):
    """The command line of ``audit``, ``report`` or ``run --resume`` on an archive."""
    return {
        "audit": ["audit", str(path)],
        "report": ["report", str(path), "--out", str(tmp_path / "report")],
        "run": [
            "run",
            "--resume",
            "--variant",
            variant,
            "--domain",
            "gridworld",
            "--max-tasks",
            "5",
            "--archive",
            str(path),
            "--metrics",
            str(tmp_path / "m.csv"),
        ],
    }[command]


def _assert_corrupt(tmp_path, capsys, command, variant, lines, found):
    """The command exits 3 on the archive of these lines, naming entry ``found``."""
    path = tmp_path / "archive.jsonl"
    path.write_text("".join(lines))
    assert run_cli(_command(command, path, variant, tmp_path)) == EXIT_AUDIT == 3
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert events[-1]["event"] == "archive_corrupt"
    assert events[-1]["entry"] == found
    assert path.read_text() == "".join(lines)  # resume must not rewrite it
    assert not (tmp_path / "report").exists()  # nor report write a partial one
    return events[-1]["error"]


@pytest.fixture(scope="module")
def mixed_five(tmp_path_factory):
    """The lines of mixed15's first five entries (variant I, mixed domain)."""
    d = tmp_path_factory.mktemp("mixed5")
    cfg = RunConfig(
        variant="I",
        domain="mixed",
        seed=42,
        max_tasks=5,
        archive_path=str(d / "archive.jsonl"),
        metrics_path=str(d / "metrics.csv"),
    )
    assert Engine(cfg).run().accepted == 5
    return open(cfg.archive_path).read().splitlines(keepends=True)


# Search records and bills no run can write: (meta field, value).
BAD_COUNTS = {
    "t_lim a string": ("t_lim", "x"),
    "t_lim zero": ("t_lim", 0),
    "candidates negative": ("candidates", -5),
    "candidates a bool": ("candidates", True),
    "search_steps negative": ("search_steps", -1),
    "steps negative": ("steps", -1),
    "validation_steps negative": ("validation_steps", -1),
}


@pytest.mark.parametrize("damage", BAD_COUNTS)
@pytest.mark.parametrize("command", ["audit", "report", "run"])
def test_a_search_record_out_of_range_exits_three_and_names_the_entry(
    tmp_path, capsys, mixed_five, command, damage
):
    name, value = BAD_COUNTS[damage]
    lines = list(mixed_five)
    data = json.loads(lines[4])
    data["meta"][name] = value
    lines[4] = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    error = _assert_corrupt(tmp_path, capsys, command, "I", lines, 5)
    assert f"meta.{name}" in error


def _stripped(lines, entry, fields):
    """The archive lines with ``fields`` (top-level or in meta) taken out of one entry."""
    lines = list(lines)
    data = json.loads(lines[entry - 1])
    for name in fields:
        (data if name in data else data["meta"]).pop(name)
    lines[entry - 1] = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    return lines


@pytest.mark.parametrize("entry", [1, 2, 3, 4])
@pytest.mark.parametrize("command", ["audit", "report", "run"])
def test_a_stripped_ledger_exits_three_and_names_the_entry(
    tmp_path, capsys, four_entry_archives, command, entry
):
    # The archive's first entry decides whether every entry carries a ledger
    # (c, c* and cost parameters), so a variant II entry stripped of its
    # ledger is no variant I entry to be audited as one.
    lines = four_entry_archives["II"]
    error = _assert_corrupt(
        tmp_path, capsys, command, "II", _stripped(lines, entry, ["c", "c_star"]), entry
    )
    assert "ledger entry without c, c_star" in error
    # Stripped of its cost parameters too, the entry differs from entry 1;
    # entry 1 stripped so makes entry 2 the first to differ.
    whole = _stripped(lines, entry, ["c", "c_star", "cost_params"])
    error = _assert_corrupt(tmp_path, capsys, command, "II", whole, max(entry, 2))
    assert "where entry 1 has" in error


@pytest.mark.parametrize("variant", ["I", "II"])
def test_a_solver_size_that_is_not_its_snapshots_fails_the_audit(
    tmp_path, capsys, four_entry_archives, variant
):
    lines = list(four_entry_archives[variant])
    data = json.loads(lines[-1])
    data["meta"]["solver_slots"] += 1
    lines[-1] = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    path = tmp_path / "archive.jsonl"
    path.write_text("".join(lines))
    assert run_cli(["audit", str(path)]) == EXIT_AUDIT
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    failures = [e for e in events if e["event"] == "audit_failure"]
    assert [(f["phase"], f["check"]) for f in failures] == [(4, "snapshot")], failures


def test_a_resume_checks_the_last_snapshots_size(tmp_path, capsys, four_entry_archives):
    # Appending after a wrong solver_slots would write an entry every later
    # load rejects; the resume names the tampered entry instead.
    lines = list(four_entry_archives["I"])
    data = json.loads(lines[-1])
    data["meta"]["solver_slots"] += 1
    lines[-1] = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    error = _assert_corrupt(tmp_path, capsys, "run", "I", lines, 4)
    assert "solver_slots and solver_bits are not the snapshot's" in error


@pytest.mark.parametrize("entry", [2, 3, 4])
def test_a_ledger_in_a_variant_one_archive_exits_three(
    tmp_path, capsys, four_entry_archives, entry
):
    lines = list(four_entry_archives["I"])
    data = json.loads(lines[entry - 1])
    data["c"], data["c_star"] = "1", "2"
    data["meta"]["cost_params"] = json.loads(four_entry_archives["II"][0])["meta"]["cost_params"]
    lines[entry - 1] = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    error = _assert_corrupt(tmp_path, capsys, "audit", "I", lines, entry)
    assert "carries a ledger where entry 1 has none" in error


@pytest.mark.parametrize("archived, asked", [("I", "II"), ("II", "I")])
def test_resuming_under_the_other_variant_exits_two_and_writes_nothing(
    tmp_path, capsys, four_entry_archives, archived, asked
):
    # Appending would mix entries with and without a ledger.
    path = tmp_path / "archive.jsonl"
    text = "".join(four_entry_archives[archived])
    path.write_text(text + '{"i": 5, "orig')  # a crash tail, which a resume would cut
    assert run_cli(_command("run", path, asked, tmp_path)) == 2
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert events[-1]["event"] == "config_error"
    assert f"variant {archived} archive as variant {asked}" in events[-1]["error"]
    assert path.read_text() == text + '{"i": 5, "orig'


@pytest.fixture(scope="module")
def prefix_archive(tmp_path_factory):
    """The lines of a variant I gridworld archive grown in prefix mode, two entries."""
    cfg, res = small_run(tmp_path_factory.mktemp("prefix"), max_tasks=2, prefix_mode=True)
    assert res.accepted == 2
    return open(cfg.archive_path).read().splitlines(keepends=True)


@pytest.mark.parametrize("archived", ["prefix", "free"])
def test_resuming_with_the_other_prefix_mode_exits_two_and_writes_nothing(
    tmp_path, capsys, four_entry_archives, prefix_archive, archived
):
    # Appending would mix snapshots that freeze every slot and row with
    # snapshots that freeze none.
    path = tmp_path / "archive.jsonl"
    text = "".join(prefix_archive if archived == "prefix" else four_entry_archives["I"])
    path.write_text(text)
    argv = _command("run", path, "I", tmp_path) + ([] if archived == "prefix" else ["--prefix-mode"])
    assert run_cli(argv) == 2
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert events[-1]["event"] == "config_error"
    assert "prefix mode" in events[-1]["error"]
    assert path.read_text() == text


@pytest.mark.parametrize("command", ["audit", "report", "run"])
def test_a_snapshot_row_past_its_code_exits_three_and_names_the_entry(
    tmp_path, capsys, four_entry_archives, command
):
    # No edit routes a key past the solver's end, so only damage brings such
    # a row in; a solver resumed from it would refuse every edit script.
    lines = list(four_entry_archives["I"])
    data = json.loads(lines[3])
    key = min(data["solver"]["entries"])
    data["solver"]["entries"][key] = 999
    lines[3] = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    error = _assert_corrupt(tmp_path, capsys, command, "I", lines, 4)
    assert f"entry {key} points at slot 999, beyond program end" in error


def test_a_variant_two_run_with_external_tasks_writes_a_ledger_in_every_entry(tmp_path):
    from autodidact.archive import ExternalTask, save_external_queue

    queue = tmp_path / "queue.jsonl"
    hard = PatternTask(2, nibble(5), nibble(12), 64, 1024)
    save_external_queue(queue, [ExternalTask(hard, reward=7)])
    cfg, res = small_run(
        tmp_path, variant="II", domain="pattern", max_tasks=3, external_tasks_path=str(queue)
    )
    assert res.accepted == 3
    assert [e.origin for e in res.entries].count("external") == 1
    for line in open(cfg.archive_path):
        data = json.loads(line)
        assert {"c", "c_star"} <= set(data) and "cost_params" in data["meta"]
    assert run_cli(["audit", cfg.archive_path]) == 0


def test_small_run_and_audit_cli(tmp_path):
    cfg, res = small_run(tmp_path)
    assert res.accepted == 3
    assert run_cli(["audit", cfg.archive_path]) == 0


@pytest.mark.parametrize("variant", ["I", "II"])
def test_an_audit_and_the_already_solvable_check_compute_no_state_digest(
    tmp_path, monkeypatch, variant
):
    # The audit's novelty check, variant II's live measure of a new task and
    # Engine._already_solvable run the previous solver live only for its
    # verdict, so none computes a solver-state digest.  Every decision
    # entry's archived trace keeps its digests.
    from autodidact import vm
    from autodidact.audit import audit_archive
    from autodidact.tasks import DecisionTask, task_from_json
    from autodidact.vm import SolverProgram

    cfg, res = small_run(tmp_path, variant=variant, domain="mixed", max_tasks=4)
    entries = load_archive(cfg.archive_path)
    traced = [e for e in entries if e.task["kind"] == "decision"]
    assert len(traced) >= 2 and all(len(u) == 12 for e in traced for _x, _r, u, _y in e.trace)
    computed = []
    monkeypatch.setattr(vm, "_quick_state_digest", lambda *state: computed.append(state) or "")
    report = audit_archive(cfg.archive_path)
    assert report.ok and report.novelty_confirmed + report.cost_rows_checked == 4
    engine = Engine(cfg)
    engine.solver = SolverProgram.from_json(entries[-1].solver)
    solved = [engine._already_solvable(task_from_json(e.task)) for e in traced]
    assert all(solved) and isinstance(task_from_json(traced[0].task), DecisionTask)
    assert computed == []


def test_flipped_bit_in_frozen_solver_fails_audit(tmp_path):
    cfg, _res = small_run(tmp_path)
    lines = open(cfg.archive_path).read().splitlines()
    data = json.loads(lines[1])
    code = data["solver"]["code"]
    length, hexpart = code.split(":")
    flipped = int(hexpart, 16) ^ (1 << 10)
    data["solver"]["code"] = f"{length}:{flipped:0{len(hexpart)}x}"
    lines[1] = json.dumps(data, sort_keys=True, separators=(",", ":"))
    open(cfg.archive_path, "w").write("\n".join(lines) + "\n")
    assert run_cli(["audit", cfg.archive_path]) == 3


def test_a_snapshot_that_does_not_extend_its_predecessor_decodes_whole(monkeypatch):
    # A snapshot after a SetSlot or Truncate edit shares no full prefix with
    # the solver before it and is decoded whole; one after Append edits
    # decodes only its appended code.  Either way it equals from_json's.
    from autodidact import vm
    from autodidact.isa import SOLVER_ISA
    from autodidact.vm import Append, SetSlot, SolverProgram, Truncate, apply_modification

    starts = []
    real_decode = vm.decode

    def spy(bits, *args, start=0):
        starts.append(start)
        return real_decode(bits, *args, start=start)

    monkeypatch.setattr(vm, "decode", spy)
    prev = SolverProgram(SOLVER_ISA.assemble("PUSH 1\nJZ 2\nREADBIT\nOUTPUT\nHALT"), {"2:40": 1})
    prev = SolverProgram.from_json(prev.to_json())
    shared = prev.code.length - 5
    for edits, start in [
        ([SetSlot(3, (SOLVER_ISA.by_name["DUP"].code, ()))], 0),
        ([SetSlot(0, (SOLVER_ISA.by_name["PUSH"].code, (0,)))], 0),
        ([Truncate(3)], 0),
        ([Truncate(3), Append((SOLVER_ISA.by_name["HALT"].code, ()))], 0),
        ([Append((SOLVER_ISA.by_name["POP"].code, ()))], shared),
        ([], shared),
    ]:
        q, _changed = apply_modification(prev, edits)
        data = q.to_json()
        starts.clear()
        got = SolverProgram.from_json(data, after=prev)
        assert starts == [start]
        assert got == SolverProgram.from_json(data) == q
        assert got.code == q.code and got.size_bits == q.size_bits
        assert got.frozen_prefix_len == q.frozen_prefix_len


def _extending_entry(lines):
    """The index of the first entry whose code extends the code before it."""
    from autodidact.vm import SolverProgram

    for k in range(2, len(lines) + 1):
        before = SolverProgram.from_json(json.loads(lines[k - 2])["solver"]).code
        code = SolverProgram.from_json(json.loads(lines[k - 1])["solver"]).code
        shared = before.length - 5
        if code.length > shared > 0 and code.value >> (code.length - shared) == before.value >> 5:
            return k, shared
    raise AssertionError("no snapshot extends its predecessor")


@pytest.mark.parametrize(
    "damage", ["wrong prefix", "other immediate in the prefix", "trailing bits",
               "bad opcode past the prefix"]
)
def test_a_corrupt_snapshot_fails_as_a_whole_decode_does(
    tmp_path, capsys, monkeypatch, four_entry_archives, damage
):
    # The audit decodes a snapshot past its predecessor's code; a damaged
    # one must fail exactly as the whole decode of it fails.
    from autodidact.archive import ArchiveEntry
    from autodidact.bits import BitString
    from autodidact.isa import SOLVER_ISA
    from autodidact.vm import SolverProgram

    lines = list(four_entry_archives["I"])
    k, shared = _extending_entry(lines)
    data = json.loads(lines[k - 1])
    code = BitString.from_hex(data["solver"]["code"])
    if damage == "wrong prefix":
        value, length = code.value ^ (1 << (code.length - 3)), code.length
    elif damage == "other immediate in the prefix":
        # Flip the last bit of the prefix's last immediate: the code still
        # decodes, to a solver that differs from the one frozen there.
        end = 0
        for op, args in SolverProgram.from_json(data["solver"]).instructions:
            end += SOLVER_ISA.width(op)
            if args and end <= shared:
                last = end
        value, length = code.value ^ (1 << (code.length - last)), code.length
    elif damage == "trailing bits":
        value, length = code.value << 5 | 3, code.length + 5
    else:
        tail = code.length - shared - 5  # the first opcode past the prefix
        value, length = code.value | (31 << tail), code.length
    data["solver"]["code"] = BitString(value, length).to_hex()
    lines[k - 1] = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    path = tmp_path / "archive.jsonl"
    path.write_text("".join(lines))

    exit_code = run_cli(["audit", str(path)])
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    whole = ArchiveEntry.solver_program
    monkeypatch.setattr(ArchiveEntry, "solver_program", lambda self, after=None: whole(self))
    assert run_cli(["audit", str(path)]) == exit_code == EXIT_AUDIT
    assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == events
    if damage == "other immediate in the prefix":
        assert events[-1]["event"] == "audit_failure"
    elif damage != "wrong prefix":
        assert (events[-1]["event"], events[-1]["entry"]) == ("archive_corrupt", k)
        reason = "trailing bits" if damage == "trailing bits" else "InvalidOpcode"
        assert reason in events[-1]["error"]


@pytest.mark.parametrize("tamper", ["solver", "c", "t_max"])
def test_a_tampered_ledger_entry_fails_the_audit_at_its_phase(tmp_path, monkeypatch, tamper):
    # The audit's c* of entry i+1 takes over the measures of entry i's c, made
    # on the same solver object under the same trace and cost parameters.
    # Tampering entry 2's solver snapshot, its stored c or its t_max must
    # fail the audit at phase 2 with the very report an audit that measures
    # everything afresh gives, while measuring less.
    from autodidact import audit

    cfg, _res = small_run(tmp_path, variant="II", max_tasks=4)
    lines = open(cfg.archive_path).read().splitlines()
    data = json.loads(lines[1])
    if tamper == "solver":
        # Route every task of the frozen solver to its first slot.
        routes = data["solver"]["entries"]
        assert any(routes.values())
        data["solver"]["entries"] = {key: 0 for key in routes}
    elif tamper == "c":
        data["c"] = data["c_star"]
    else:
        data["meta"]["cost_params"]["t_max"] = 2
    lines[1] = json.dumps(data, sort_keys=True, separators=(",", ":"))
    open(cfg.archive_path, "w").write("\n".join(lines) + "\n")

    measured = []
    real_measure, real_entry = audit.measure_task, audit._audit_cost_entry

    def counting(*args):
        measured.append(args)
        return real_measure(*args)

    monkeypatch.setattr(audit, "measure_task", counting)
    report = audit.audit_archive(cfg.archive_path)
    reusing = len(measured)
    monkeypatch.setattr(
        audit, "_audit_cost_entry", lambda *args: real_entry(*args[:-1], (None, {}))
    )
    measured.clear()
    assert report == audit.audit_archive(cfg.archive_path)
    assert report.first_failing_phase == 2
    assert report.cost_rows_checked == 4
    assert reusing < len(measured)


def test_report_outputs(tmp_path):
    cfg, _res = small_run(tmp_path)
    out = tmp_path / "report"
    assert run_cli(["report", cfg.archive_path, "--out", str(out)]) == 0
    names = {p.name for p in out.iterdir()}
    assert {
        "report_summary.json",
        "solver_size_over_time.csv",
        "search_cost_per_acceptance.csv",
        "component_reuse_histogram.csv",
        "task_mix.csv",
    } <= names
    hist = (out / "component_reuse_histogram.csv").read_text().splitlines()[1:]
    total = sum(int(line.split(",")[1]) for line in hist if line)
    # Histogram mass equals the summed sizes of all usage lists.
    summary = json.loads((out / "report_summary.json").read_text())
    assert summary["reuse_histogram_total"] == total > 0


def test_report_on_single_task_archive(tmp_path):
    cfg, _res = small_run(tmp_path, name="one", max_tasks=1)
    out = tmp_path / "rep1"
    run_cli(["report", cfg.archive_path, "--out", str(out)])
    hist = (out / "component_reuse_histogram.csv").read_text().splitlines()[1:]
    counts = {int(line.split(",")[1]) for line in hist if line}
    assert counts == {1}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "autodidact.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "audit" in proc.stdout


def test_stochastic_searcher_full_stack(tmp_path):
    cfg, res = small_run(
        tmp_path, name="stoch", searcher="stochastic", max_tasks=2, seed=5
    )
    assert res.accepted == 2
    assert run_cli(["audit", cfg.archive_path]) == 0
    cfg2, res2 = small_run(
        tmp_path, name="stoch2", searcher="stochastic", max_tasks=2, seed=5
    )
    assert open(cfg.archive_path, "rb").read() == open(cfg2.archive_path, "rb").read()


def test_ceiling_with_zero_acceptances_exits_four(tmp_path):
    code = run_cli(
        [
            "run",
            "--max-tasks",
            "1",
            "--step-ceiling",
            "1024",
            "--archive",
            str(tmp_path / "a.jsonl"),
            "--metrics",
            str(tmp_path / "m.csv"),
        ]
    )
    assert code == 4
    assert load_archive(tmp_path / "a.jsonl") == []


def test_a_resumed_run_that_stalls_exits_four(tmp_path, capsys):
    # Exit 4 counts this run's acceptances, not the resumed entries.
    cfg, _res = small_run(tmp_path, max_tasks=3)
    before = open(cfg.archive_path).read()
    code = run_cli(
        [
            "run",
            "--resume",
            "--domain",
            "gridworld",
            "--seed",
            "11",
            "--max-tasks",
            "4",
            "--step-ceiling",
            "4",
            "--archive",
            cfg.archive_path,
            "--metrics",
            cfg.metrics_path,
        ]
    )
    assert code == 4
    events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    assert {"event": "ceiling", "i": 4} in events
    assert open(cfg.archive_path).read() == before


def test_resume_after_crash_truncation_matches_clean_run(tmp_path):
    clean_cfg, _res = small_run(tmp_path, name="clean", max_tasks=3)
    crash_cfg, _res = small_run(tmp_path, name="crash", max_tasks=3)
    # Simulate a crash mid-append of the final entry.
    raw = open(crash_cfg.archive_path).read()
    open(crash_cfg.archive_path, "w").write(raw[:-40])
    resumed = RunConfig(
        variant="I",
        domain="gridworld",
        seed=11,
        max_tasks=3,
        archive_path=crash_cfg.archive_path,
        metrics_path=crash_cfg.metrics_path,
        resume=True,
    )
    Engine(resumed).run()
    assert open(crash_cfg.archive_path, "rb").read() == open(
        clean_cfg.archive_path, "rb"
    ).read()


def test_stochastic_resume_matches_uninterrupted(tmp_path):
    clean_cfg, _res = small_run(
        tmp_path, name="sclean", searcher="stochastic", seed=5, max_tasks=4
    )
    part_cfg, _res = small_run(
        tmp_path, name="spart", searcher="stochastic", seed=5, max_tasks=2
    )
    resumed = RunConfig(
        variant="I",
        domain="gridworld",
        searcher="stochastic",
        seed=5,
        max_tasks=4,
        archive_path=part_cfg.archive_path,
        metrics_path=part_cfg.metrics_path,
        resume=True,
    )
    Engine(resumed).run()
    assert open(part_cfg.archive_path, "rb").read() == open(
        clean_cfg.archive_path, "rb"
    ).read()


def test_paranoid_mode_full_run(tmp_path):
    cfg, res = small_run(tmp_path, name="paranoid", max_tasks=2, paranoid=True)
    assert res.accepted == 2
    assert run_cli(["audit", cfg.archive_path]) == 0


@pytest.mark.parametrize("paranoid", [False, True])
def test_a_budget_law_violation_is_logged_and_paranoid_mode_raises(
    tmp_path, monkeypatch, paranoid
):
    # A judge that bills one step past its grant on its first rejection.
    real_judge = Engine._judge_v1
    over = []

    def over_billing_judge(self, q, changed, proposal, meter, caches):
        details = real_judge(self, q, changed, proposal, meter, caches)
        if details is None and not over:
            meter.spent = meter.budget + 1
            over.append(proposal)
        return details

    monkeypatch.setattr(Engine, "_judge_v1", over_billing_judge)
    events = []
    cfg = RunConfig(
        variant="I",
        domain="gridworld",
        max_tasks=2,
        paranoid=paranoid,
        archive_path=str(tmp_path / "archive.jsonl"),
        metrics_path=str(tmp_path / "metrics.csv"),
    )
    engine = Engine(cfg, log=events.append)
    if paranoid:
        with pytest.raises(AssertionError, match="phase 1: 1 candidates broke the budget law"):
            engine.run()
        assert engine.entries == []
        return
    assert engine.run().accepted == 2
    assert len(over) == 1
    violations = [e for e in events if e["event"] == "budget_violation"]
    assert violations == [{"event": "budget_violation", "i": 1, "count": 1}]


def test_variant2_prefix_mode_run(tmp_path):
    from fractions import Fraction

    cfg, res = small_run(
        tmp_path,
        name="v2prefix",
        variant="II",
        domain="pattern",
        seed=42,
        max_tasks=2,
        alpha=Fraction(8),
        prefix_mode=True,
    )
    assert res.accepted == 2
    assert all(e.solver_program().frozen_prefix_len > 0 for e in res.entries)
    assert run_cli(["audit", cfg.archive_path]) == 0


def test_variant2_on_gridworld_domain(tmp_path):
    from fractions import Fraction

    cfg, res = small_run(
        tmp_path,
        name="v2grid",
        variant="II",
        domain="gridworld",
        seed=42,
        max_tasks=2,
        alpha=Fraction(8),
    )
    assert res.accepted == 2
    assert all(e.meta["kind"] == "decision" for e in res.entries)
    assert run_cli(["audit", cfg.archive_path]) == 0
    # The report tool measures cost archives under their stored parameters.
    out = tmp_path / "v2rep"
    assert run_cli(["report", cfg.archive_path, "--out", str(out)]) == 0
    hist = (out / "component_reuse_histogram.csv").read_text().splitlines()[1:]
    assert sum(int(line.split(",")[1]) for line in hist if line) > 0


def test_variant2_cli_round_trip_audits_without_parameters(tmp_path):
    # Ledger entries carry their cost parameters, so the audit needs nothing
    # beyond the archive file even for a non-default alpha.
    code = run_cli(
        [
            "run",
            "--variant",
            "II",
            "--domain",
            "pattern",
            "--seed",
            "42",
            "--max-tasks",
            "1",
            "--alpha",
            "8",
            "--archive",
            str(tmp_path / "a.jsonl"),
            "--metrics",
            str(tmp_path / "m.csv"),
        ]
    )
    assert code == 0
    assert (tmp_path / "cost_ledger.csv").exists()
    assert run_cli(["audit", str(tmp_path / "a.jsonl")]) == 0


def test_variant2_forgetting_is_visible_in_the_judge(tmp_path):
    # Engineer a forgetting acceptance directly: the candidate reroutes the
    # only solved task's identifier to fresh code for a new lucrative task.
    from autodidact.meta import Meter, Proposal
    from autodidact.search import fresh_caches
    from autodidact.templates import const_nibble, copy_query_loop
    from autodidact.validate import RepertoireItem
    from autodidact.vm import Append, SetEntry, apply_modification
    from autodidact.costs import measure_task
    from autodidact.tasks import solves

    from fractions import Fraction

    d = tmp_path / "forget"
    os.makedirs(d)
    cfg = RunConfig(
        variant="II",
        domain="pattern",
        seed=42,
        max_tasks=0,
        alpha=Fraction(2),
        archive_path=str(d / "a.jsonl"),
        metrics_path=str(d / "m.csv"),
    )
    eng = Engine(cfg)
    old_task = PatternTask(1, nibble(1), nibble(1), 64, 1024)
    eng.solver, _ = apply_modification(
        eng.solver,
        [Append(i) for i in copy_query_loop()]
        + [SetEntry(old_task.identifier.to_hex(), 0)],
    )
    rep, _ = solves(eng.solver, old_task)
    assert rep.success
    item = RepertoireItem(1, old_task, None)
    eng.repertoire.append(item)
    eng.usage.record(1, rep.components_used, item.entry_key)
    m, _t, _r = measure_task(eng.solver, old_task, eng._params())
    eng.cost_measures[old_task.identity()] = m
    eng.task_origin[old_task.identity()] = "self"

    # New task shares the old identifier; its constant answer breaks the old task.
    new_task = PatternTask(1, nibble(1), nibble(9), 64, 1024)
    assert new_task.identifier.to_hex() == item.entry_key
    start = eng.solver.component_count
    edits = [Append(i) for i in const_nibble(9)] + [
        SetEntry(new_task.identifier.to_hex(), start)
    ]
    q, changed = apply_modification(eng.solver, edits)
    proposal = Proposal(new_task, edits, len(const_nibble(9)), start)
    details = eng._judge_v2(q, changed, proposal, Meter(10**9), fresh_caches())
    assert details is not None  # r_new makes the trade profitable
    assert details.meta["forgotten"] == 1
    assert not details.ledger[2][old_task.identity()].solved  # the lost task
    assert details.meta["sum_t_old_after"] > details.meta["sum_t_old_before"]  # old work got worse


def test_variant2_paranoid_run(tmp_path):
    from fractions import Fraction

    cfg, res = small_run(
        tmp_path,
        name="v2paranoid",
        variant="II",
        domain="gridworld",
        seed=42,
        max_tasks=2,
        alpha=Fraction(8),
        paranoid=True,
    )
    assert res.accepted == 2
    assert run_cli(["audit", cfg.archive_path]) == 0


def test_variant2_paranoid_judge_checks_the_phase_ledger(tmp_path, monkeypatch):
    # Paranoid mode re-derives every judge call from scratch: each stage
    # answered from a run table runs live too, and c and c* are summed again
    # with the full cost().
    # Random edits on a built repertoire reach every branch: cuts, faults,
    # timeouts, revalidated tasks and re-proposed tasks.
    import random
    from fractions import Fraction

    from conftest import build_repertoire, install_segment, random_edit, random_task
    from autodidact.isa import SOLVER_ISA
    from autodidact import engine as engine_mod
    from autodidact import validate as validate_mod
    from autodidact.costs import measure_task
    from autodidact.meta import Meter, Proposal
    from autodidact.search import fresh_caches
    from autodidact.validate import BudgetExhausted
    from autodidact.vm import Append, FrozenViolation, InvalidResult, SetEntry, apply_modification

    rng = random.Random(31)
    cfg = RunConfig(
        variant="II",
        domain="mixed",
        max_tasks=0,
        alpha=Fraction(3, 2),
        paranoid=True,
        archive_path=str(tmp_path / "a.jsonl"),
        metrics_path=str(tmp_path / "m.csv"),
    )
    eng = Engine(cfg)
    eng.solver, eng.repertoire, eng.usage = build_repertoire(rng, 5)
    eng.task_origin[eng.repertoire[0].task.identity()] = "external"
    eng.external_rewards[eng.repertoire[0].task.identity()] = 700
    used = {item.entry_key for item in eng.repertoire}
    proposed = []  # (task, code that solves it)
    for _ in range(4):
        task, code = random_task(rng, used)
        used.add(task.identifier.to_hex())
        proposed.append((task, code))
    # Route two of the new tasks at code the previous solver times out or
    # faults on.
    for (task, _code), text in zip(proposed, ("JMP -1", "POP\nHALT")):
        code = SOLVER_ISA.assemble(text)
        eng.solver, _ = install_segment(eng.solver, code, task.identifier.to_hex())
    proposed += [(item.task, None) for item in eng.repertoire[:2]]
    for item in eng.repertoire:
        m, _t, _r = measure_task(eng.solver, item.task, eng._params(), item.trace)
        eng.cost_measures[item.task.identity()] = m

    def judge_many(n):
        verdicts = {"budget": 0, "rejected": 0, "accepted": 0}
        caches = fresh_caches()
        for _ in range(n):
            task, code = rng.choice(proposed)
            edits = random_edit(rng, eng.solver, eng.repertoire)
            if code is not None and rng.random() < 0.3:  # install a solution, as acceptances do
                start = eng.solver.component_count
                install = [Append(i) for i in code] + [SetEntry(task.identifier.to_hex(), start)]
                edits = install + (edits if rng.random() < 0.5 else [])
            try:
                q, changed = apply_modification(eng.solver, edits)
            except (InvalidResult, FrozenViolation):
                continue
            proposal = Proposal(task, edits, 0, None)
            meter = Meter(rng.choice([0, 3, 20, 60, 150, 400, 2000, 10**6]))
            try:
                details = eng._judge_v2(q, changed, proposal, meter, caches)
            except BudgetExhausted:
                verdicts["budget"] += 1
                continue
            verdicts["accepted" if details is not None else "rejected"] += 1
        return verdicts

    verdicts = judge_many(400)
    assert all(verdicts.values()), verdicts

    # The oracle bites: a run table that bills one step too few, or a
    # ledger that gets one contribution wrong, is caught.
    real_within = validate_mod.report_within

    def off_by_one(run, budget, bound):
        solved, billed = real_within(run, budget, bound)
        return solved, max(billed - 1, 0)

    monkeypatch.setattr(validate_mod, "report_within", off_by_one)
    with pytest.raises(AssertionError, match="run table"):
        judge_many(200)
    monkeypatch.setattr(validate_mod, "report_within", real_within)

    # The planted error is in the engine's binding only: cost() sums the
    # contributions itself, so the oracle stays independent of it.
    real_contribution = engine_mod.contribution
    monkeypatch.setattr(
        engine_mod,
        "contribution",
        lambda m, identity, origins, params: real_contribution(m, identity, origins, params) + 1,
    )
    with pytest.raises(AssertionError, match="phase ledger"):
        judge_many(200)


def _engine_state(engine):
    return {
        "solver": engine.solver.to_json(),
        "repertoire": [
            (item.index, item.task.to_json(), item.trace)
            for item in engine.repertoire
        ],
        "usage": engine.usage.snapshot(),
        "cost_measures": engine.cost_measures,
        "segments": engine.segments,
        "prior": (engine.prior.adapted, engine.prior.weights),
        "origins": engine.task_origin,
        "external_rewards": engine.external_rewards,
    }


RESUME_SCENARIOS = {
    "v1-grid": dict(variant="I", domain="gridworld", max_tasks=4),
    "v1-mixed-adapted": dict(variant="I", domain="mixed", adapt_prior=True, max_tasks=4),
    "v1-pattern-prefix": dict(variant="I", domain="pattern", prefix_mode=True, max_tasks=4),
    "v2-pattern": dict(variant="II", domain="pattern", max_tasks=4),
    "v2-grid": dict(variant="II", domain="gridworld", max_tasks=4),
    "v1-stochastic": dict(
        variant="I", domain="gridworld", searcher="stochastic", seed=5, max_tasks=3
    ),
    "v2-stochastic": dict(
        variant="II", domain="pattern", searcher="stochastic", seed=5, max_tasks=3
    ),
}


@pytest.mark.parametrize("overrides", RESUME_SCENARIOS.values(), ids=RESUME_SCENARIOS.keys())
def test_a_resumed_engine_equals_the_live_one_and_continues_it(tmp_path, overrides):
    import dataclasses

    cfg = RunConfig(
        archive_path=str(tmp_path / "live.jsonl"),
        metrics_path=str(tmp_path / "m.csv"),
        **overrides,
    )
    live = Engine(cfg)
    assert live.run().accepted == cfg.max_tasks
    resumed = Engine(dataclasses.replace(cfg, resume=True))
    assert _engine_state(resumed) == _engine_state(live)

    # Resuming after all but the last entry writes the same last entry.
    whole = open(cfg.archive_path, "rb").read()
    part = tmp_path / "part.jsonl"
    part.write_bytes(b"".join(whole.splitlines(keepends=True)[:-1]))
    Engine(dataclasses.replace(cfg, archive_path=str(part), resume=True)).run()
    assert part.read_bytes() == whole


def test_a_reward_brought_in_mid_archive_replays_exactly(tmp_path):
    import dataclasses

    from autodidact.archive import ExternalTask, save_external_queue
    from autodidact.audit import audit_archive

    cfg = RunConfig(
        variant="II",
        domain="pattern",
        max_tasks=2,
        archive_path=str(tmp_path / "archive.jsonl"),
        metrics_path=str(tmp_path / "m.csv"),
    )
    Engine(cfg).run()
    queue = tmp_path / "queue.jsonl"
    save_external_queue(queue, [ExternalTask(PatternTask(3, nibble(5), nibble(9), 64, 1024), 9)])
    cfg = dataclasses.replace(cfg, max_tasks=3, external_tasks_path=str(queue), resume=True)
    live = Engine(cfg)
    assert live.run().entries[-1].meta["reward"] == 9
    # The third ledger row counts the reward, which the first two did not know.
    assert audit_archive(cfg.archive_path).ok
    assert _engine_state(Engine(cfg)) == _engine_state(live)
