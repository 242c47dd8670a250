"""CLI output pinned across commits.

The files under ``tests/data/golden/`` hold the output of ``recognize`` and
``evaluate`` in both layouts on two pinned runs, and of ``bench``:

- ``evac_team.json``, seed 7, 120 ticks: one message, so one evidence tick;
- ``tests/data/mission.json`` (``progen.team_program(0)`` written with
  ``serialize_program``), seed 9, 250 ticks: 53 messages, one tick carrying
  two, and 16 cross-team rescales in the shared layout.  Its files end in
  ``-mission``.

A refactor that should not change any number must leave every one of them
byte-identical.  After a deliberate output change, rewrite them with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import pathlib
import tempfile

from overhear.cli import run_command

ROOT = pathlib.Path(__file__).resolve().parent
GOLDEN = ROOT / "data" / "golden"
PROGRAM = str(ROOT.parent / "src" / "overhear" / "data" / "evac_team.json")
MISSION = str(ROOT / "data" / "mission.json")


def _run_outputs(work: pathlib.Path, program: str, seed: int, ticks: int,
                 suffix: str) -> dict[str, bytes]:
    """Simulate one pinned run, then recognize and evaluate it in both layouts."""
    run = work / "run"
    team = ["--program", program, "--team-mode"]
    log, trace, comm = str(run / "log.txt"), str(run / "trace.txt"), str(work / "comm.txt")
    commands = {
        "simulate": ["simulate", *team, "--seed", str(seed), "--ticks", str(ticks),
                     "--out", str(run)],
        "comm.txt": ["learn", "--log", log],
        "recognize-yoyo": ["recognize", *team, "--log", log, "--mode", "yoyo",
                           "--ticks", str(ticks)],
        "recognize-array": ["recognize", *team, "--log", log, "--mode", "array",
                            "--ticks", str(ticks)],
        "evaluate-yoyo-comm": ["evaluate", *team, "--log", log, "--truth", trace,
                               "--mode", "yoyo", "--comm", comm],
        "evaluate-array-no-coherent": ["evaluate", *team, "--log", log, "--truth", trace,
                                       "--mode", "array", "--no-coherent"],
    }
    work.mkdir(parents=True, exist_ok=True)
    outputs = {}
    for name, argv in commands.items():
        if name != "simulate":
            argv = [*argv, "--out", str(work / name)]
        assert run_command(argv) == 0, argv
        if name not in ("simulate", "comm.txt"):
            outputs[f"{name}{suffix}.txt"] = (work / name).read_bytes()
    return outputs


def golden_outputs(work: pathlib.Path) -> dict[str, bytes]:
    """Run the pinned commands in ``work``; map each golden file name to its output."""
    outputs = _run_outputs(work / "evac", PROGRAM, 7, 120, "")
    outputs.update(_run_outputs(work / "mission", MISSION, 9, 250, "-mission"))
    bench = work / "bench.txt"
    argv = ["bench", "--program", PROGRAM, "--agents", "4:6", "--ticks", "120",
            "--out", str(bench)]
    assert run_command(argv) == 0, argv
    outputs["bench.txt"] = bench.read_bytes()
    return outputs


def test_cli_output_matches_golden(tmp_path):
    outputs = golden_outputs(tmp_path)
    assert sorted(outputs) == sorted(f.name for f in GOLDEN.iterdir())
    for name, data in outputs.items():
        assert data == (GOLDEN / name).read_bytes(), f"{name} differs from its golden file"


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in golden_outputs(pathlib.Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
