"""CLI transcript corpus: what in-process ``cli.main`` prints, per argv.

``transcripts.json`` holds, per argv, the SHA-256 digest of its transcript:
the exit code, stdout and stderr. The argvs are

- the seeded grammar of ``test_fuzz.py`` (all 13 subcommands, accepted and
  rejected calls);
- the .sht fixtures of ``test_cli.py`` through every file subcommand;
- the argvs of ``test_cli.py``'s in-process tests, usage errors included;
- each parser with no arguments and with ``-h``.

The .sht files are written under fixed relative names in a temporary
working directory, and ``COLUMNS`` is fixed for argparse's line wrapping,
so no digest depends on the machine. Argvs of the subcommands that solve
an eigenproblem print λ or f with 12 decimals, whose last digit can move
with the LAPACK build; they sit in their own ``lambda`` group, so such a
difference is named as one. A failure names each argv that differs and
prints its recomputed transcript.

After a change meant to alter the CLI's output, regenerate the corpus from
a checkout with

    PYTHONPATH=src python3 tests/test_transcripts.py

and list the argvs that changed in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import tempfile
from pathlib import Path

from supertrees.cli import main
from test_cli import CHAIN9_SHT, H7_SHT, OVERLAP_SHT, STAR_SHT
from test_fuzz import CALLS_PER_SEED, COMMANDS, _Grammar

CORPUS = Path(__file__).resolve().with_name("transcripts.json")
COLUMNS = "80"
SPECTRAL = {"eigen", "relabel", "verify-fk1", "verify-fk2", "majorize"}
SEEDS = range(4)

FIXTURES = {
    "star.sht": STAR_SHT,
    "h7.sht": H7_SHT,
    "chain9.sht": CHAIN9_SHT,
    "overlap.sht": OVERLAP_SHT,
    "huge.sht": "k 2\nn 1000000000000000\ne 0 1\n",
    "twice.sht": "k 2\nk 3\nn 3\ne 0 1\ne 1 2\n",
}

# each fixture goes after the subcommand name
FILE_ARGVS = [
    ["validate"],
    ["eigen"],
    ["--format", "plain", "eigen"],
    ["slo-check", "--order", "0,1,2,3,4,5,6"],
    ["slo-check", "--order", "1,0,2,3,4,5,6"],
    ["slo-check", "--order", "0,1,2,3,4"],
    ["slo-find"],
    ["relabel"],
    ["--format", "plain", "relabel"],
    ["switch", "--e1", "1", "--e2", "0", "--u1", "3", "--v1", "1"],
    ["switch", "--e1", "0", "--e2", "1"],
    ["shift", "--u", "1", "--edges", "2", "--v", "3"],
    ["shift", "--u", "0", "--edges", "1", "--v", "2"],
]

BIG = str(10**29)
PI_H7 = ["--pi", "2,2,1,1,1,1,1"]
PI_UNIT = ["--pi", "3,3,1,1,1,1,1,1,1,1,1"]
PI_ENUM = ["--pi", "2,2,2,1,1,1,1,1,1"]
MAJORIZE_K2 = ["majorize", "--k", "2", "--pi", "3,3,1,1,1,1", "--pi-prime"]

ARGVS = [
    ["validate", "missing.sht"],
    ["slo-construct", "--k", "3", *PI_H7],
    ["switch", "h7.sht", "--e1", "1", "--e2", "0", "--u1", "0", "--v1", "1"],
    ["shift", "h7.sht", "--u", "1", "--edges", "9", "--v", "3"],
    ["shift", "h7.sht", "--u", "1", "--edges", "", "--v", "1"],
    ["unit", "--k", "3", *PI_UNIT, "--p", "0"],
    ["unit", "--k", "3", *PI_H7, "--p", "0"],
    ["enumerate", "--k", "3", *PI_ENUM],
    ["verify-fk1", "--k", "3", *PI_H7],
    ["verify-fk1", "--k", "3", *PI_ENUM],
    ["verify-fk1", "--k", "3", "--n-max", "7"],
    ["verify-fk1", "--k", "3", "--n-max", "2"],
    ["verify-fk1", "--k", "3", "--n-max", "4"],
    ["verify-fk1", "--k", "3"],
    ["verify-fk1", "--k", "3", "--all"],
    ["verify-fk1", "--k", "2", "--n-max", "5", "--pi", "9,9"],
    ["verify-fk2", "--n", "7", "--n0", "2", "--k", "3", "--d", "2"],
    ["verify-fk2", "--n", "7", "--n0", "3", "--k", "3", "--d", "2"],
    ["verify-fk2", "--n", "9", "--n0", "3", "--k", "3", "--d", "2"],
    ["majorize", "--k", "3", *PI_UNIT, "--pi-prime", "2,4,1,1,1,1,1,1,1,1,1"],
    ["majorize", "--k", "3", "--pi", "2,4,1,1,1,1,1,1,1,1,1", "--pi-prime",
     "3,3,1,1,1,1,1,1,1,1,1"],
    [*MAJORIZE_K2, "4,2,1,1,1,1"],
    [*MAJORIZE_K2, "3,3,1,1,1,1"],
    ["majorize", "--k", "2", "--pi", "5,1,1,1,1,1", "--pi-prime", "3,3,1,1,1,1"],
    ["--epsilon", "0.5", *MAJORIZE_K2, "4,2,1,1,1,1"],
    ["--epsilon=0.5", *MAJORIZE_K2, "4,2,1,1,1,1"],
    # usage errors and malformed values
    ["nonsense"],
    ["eigen", "star.sht", "--bogus"],
    ["--jobs", "2", "verify-fk1", "--k", "3", "--n-max", "9"],
    ["--format", "tsv", "validate", "star.sht"],
    ["verify-fk1", "--k", "1", "--n-max", "5"],
    ["verify-fk1", "--k", "0", "--n-max", "9"],
    ["slo-check", "h7.sht", "--order", "0,1,x,3,4,5,6"],
    ["slo-check", "h7.sht", "--order=0,x,2"],
    ["slo-construct", "--k", "3", "--pi", "2,2,1.5"],
    ["slo-construct", "--k", "3", "--pi=-1"],
    ["switch", "h7.sht", "--e1", "0", "--e2", "2", "--u1", "1;2"],
    ["switch", "h7.sht", "--e1", "0", "--e2", "2", "--u1", "1", "--v1", "five"],
    ["shift", "h7.sht", "--u", "1", "--edges", "2,,z", "--v", "3"],
    ["shift", "h7.sht", "--u", "1", "--edges=" + "1" * 20, "--v", "3"],
    ["unit", "--k", "2", "--pi", "3,3,1,1,1,1e0", "--p", "0"],
    ["enumerate", "--k", "3", "--pi", "2,2,1,1,1,1,-"],
    ["verify-fk1", "--k", "3", "--pi", "2,2,one"],
    [*MAJORIZE_K2, "4,2,1,1,1,x"],
    ["verify-fk2", "--n", str(10**20), "--n0", str(10**19), "--k", "2", "--d", "2"],
    ["verify-fk1", "--k", BIG, "--n-max", str(11 * 10**29)],
    ["slo-construct", "--k", BIG, "--pi", "1,1"],
    ["enumerate", "--k", "2", "--pi", f"2,{BIG}"],
    ["unit", "--k", "2", "--pi", "3,3,1,1,1,1", "--p", f"-{BIG}"],
    ["verify-fk2", "--n", "21", "--n0", "1", "--k", "2", "--d", BIG],
    ["slo-check", "h7.sht", "--order", BIG],
    ["verify-fk1", "--k", "2", "--n-max", f"-{BIG}"],
    # every parser's usage line and help
    [],
    ["-h"],
    *([command] for command in COMMANDS),
    *([command, "-h"] for command in COMMANDS),
]


def _call(argv: list[str]) -> str:
    """argv's transcript: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit={code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def _argvs():
    """Every argv in corpus order; the seeded grammar writes its .sht files
    as it goes, so each argv is yielded before the next is drawn."""
    for name, text in FIXTURES.items():
        Path(name).write_text(text, encoding="utf-8")
    for name in FIXTURES:
        for argv in FILE_ARGVS:
            yield _with_file(argv, name)
    yield from ARGVS
    for seed in SEEDS:
        folder = Path(f"fuzz{seed}")
        folder.mkdir()
        grammar = _Grammar(random.Random(seed), folder)
        for _ in range(CALLS_PER_SEED):
            yield grammar.argv()


def _with_file(argv: list[str], name: str) -> list[str]:
    at = next(i for i, a in enumerate(argv) if a in COMMANDS) + 1
    return [*argv[:at], name, *argv[at:]]


def _group(argv: list[str]) -> str:
    command = next((a for a in argv if a in COMMANDS), None)
    return "lambda" if command in SPECTRAL else "exact"


def transcripts() -> dict[str, dict[str, str]]:
    """group -> shell-quoted argv -> transcript, in corpus order. Run in
    an empty working directory with COLUMNS fixed."""
    got: dict[str, dict[str, str]] = {"exact": {}, "lambda": {}}
    for argv in _argvs():
        key, text = shlex.join(argv), _call(argv)
        group = got[_group(argv)]
        assert group.setdefault(key, text) == text, f"{key}: two transcripts"
    return got


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_cli_matches_the_transcript_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    want = json.loads(CORPUS.read_text())
    got = transcripts()
    assert list(got) == list(want)
    missing = [f"{group}: {key}" for group in want for key in want[group]
               if key not in got[group]]
    assert not missing, f"argvs no longer drawn: {missing}"
    changed = [(group, key) for group in got for key, text in got[group].items()
               if digest(text) != want[group].get(key)]
    names = [f"{group}: {key}" for group, key in changed]
    assert not changed, f"transcripts differ for {names}, recomputed:\n" + "".join(
        f"$ supertrees {key}\n{got[group][key]}" for group, key in changed)


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    with tempfile.TemporaryDirectory() as folder:
        os.chdir(folder)
        corpus = {group: {key: digest(text) for key, text in texts.items()}
                  for group, texts in transcripts().items()}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
