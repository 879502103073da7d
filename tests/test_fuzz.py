"""Committed fuzzers: the library's integer parameters and the command line.

Both cover types and shapes on small inputs: every library call returns or
raises a SupertreeError, and every command-line call exits 0, 1 or 2
without an escaping exception or a traceback, within a per-call budget.
Huge sizes (an n-max or a vertex count that would grow millions of
classes, or trees with thousands of edges) are the size ladder of ROADMAP
item 6 and are not covered here: a 30-digit integer appears only where it
cannot start a proportional amount of work.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from supertrees import (
    DegreeSequence,
    InvalidSpec,
    NotAnEigenfunction,
    ShiftSpec,
    SupertreeError,
    SwitchSpec,
    build_supertree,
    check_shift_hypothesis,
    check_slo,
    check_switch_hypothesis,
    enumerate_family,
    find_slo_ordering,
    feasible_degree_sequences,
    fk1_sweep,
    fk2_sweep,
    relabel,
    serialize_sht,
    unit_transformation,
    verify_fk_theorem2,
)
from supertrees.cli import main
from support import random_shift_spec, random_supertree, random_switch_spec

BIG = 10**29

# ------------------------------------------------------------ the library

SMALL = hs.integers(-3, 9)
VALUES = hs.one_of(
    SMALL,
    hs.booleans(),
    SMALL.map(np.int64),
    SMALL.map(np.int32),
    hs.sampled_from([2.0, 2.5, -1.0, math.nan, math.inf, np.float64(3.0)]),
    hs.sampled_from(["3", "x", "", b"2"]),
    hs.none(),
)
LISTS = hs.one_of(hs.lists(VALUES, max_size=9), hs.tuples(VALUES, VALUES), VALUES)
H7 = build_supertree(3, 7, [(0, 1, 2), (0, 3, 4), (1, 5, 6)])
SEQUENCES = [DegreeSequence(3, (3, 3) + (1,) * 9), DegreeSequence(2, (2, 3, 1, 1, 1))]
LIBRARY = settings(derandomize=True, max_examples=300, deadline=None)


def _returns_or_raises_supertree_error(call, *args):
    try:
        call(*args)
    except SupertreeError:
        pass


@LIBRARY
@given(k=VALUES, n_max=VALUES, d=VALUES)
def test_fuzz_sweep_parameters(k, n_max, d):
    _returns_or_raises_supertree_error(fk1_sweep, k, n_max)
    _returns_or_raises_supertree_error(fk2_sweep, k, n_max, d)


@LIBRARY
@given(n=VALUES, n0=VALUES, k=VALUES, d=VALUES)
def test_fuzz_family_parameters(n, n0, k, d):
    _returns_or_raises_supertree_error(verify_fk_theorem2, n, n0, k, d)
    _returns_or_raises_supertree_error(enumerate_family, n, n0, k, d)
    _returns_or_raises_supertree_error(feasible_degree_sequences, n, n0, k, d)


@LIBRARY
@given(k=VALUES, n=VALUES, edges=hs.one_of(hs.lists(LISTS, max_size=4), VALUES),
       entries=LISTS, pi=hs.sampled_from(SEQUENCES), p=VALUES, order=LISTS)
def test_fuzz_construction_parameters(k, n, edges, entries, pi, p, order):
    _returns_or_raises_supertree_error(build_supertree, k, n, edges)
    _returns_or_raises_supertree_error(DegreeSequence, k, entries)
    _returns_or_raises_supertree_error(DegreeSequence.from_degrees, k, entries)
    _returns_or_raises_supertree_error(unit_transformation, pi, p)
    _returns_or_raises_supertree_error(check_slo, H7, order)


# A function on H7 that is positive on the interior and zero on the
# boundary, and entries that are not finite reals: each of them makes f
# something no comparison can rank, so all three readers of f raise their
# own error on it.
F7 = [0.7, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]
NOT_REAL = hs.one_of(
    hs.none(),
    hs.complex_numbers(max_magnitude=2),
    hs.text(max_size=3),
    hs.binary(max_size=3),
    hs.lists(hs.floats(0, 1), max_size=2),
    hs.sampled_from(["0.7", b"1", np.complex128(0.7), math.nan, math.inf, -math.inf]),
)


@hs.composite
def malformed_functions(draw):
    values = list(F7)
    values[draw(hs.integers(0, 6))] = draw(NOT_REAL)
    shape = draw(hs.sampled_from(["list", "tuple", "object", "complex", "str"]))
    if shape == "complex":
        return np.array(F7, dtype=complex)
    if shape == "str":
        return np.array(F7).astype(str)
    if shape == "object":
        f = np.empty(7, dtype=object)
        for v, x in enumerate(values):
            f[v] = x
        return f
    return values if shape == "list" else tuple(values)


@LIBRARY
@given(f=malformed_functions())
def test_fuzz_function_values(f):
    switch = SwitchSpec((0, 3, 4), (0, 1, 2), frozenset({3}), frozenset({1}))
    shift = ShiftSpec(u=1, edges=((1, 5, 6),), v=3)
    for call, error in (
        (lambda: relabel(H7, f), NotAnEigenfunction),
        (lambda: check_switch_hypothesis(H7, f, switch), InvalidSpec),
        (lambda: check_shift_hypothesis(H7, f, shift), InvalidSpec),
    ):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error


# -------------------------------------------------------- the command line

CALLS_PER_SEED = 250
BUDGET_S = 5.0

COMMANDS = [
    "validate", "eigen", "slo-check", "slo-find", "slo-construct", "relabel",
    "switch", "shift", "unit", "enumerate", "verify-fk1", "verify-fk2", "majorize",
]


class _Grammar:
    """Seeded argv and .sht text for every subcommand: well-formed values
    most of the time, then negative and 30-digit integers, junk inside comma
    lists, dropped and duplicated flags, and flags of other subcommands."""

    def __init__(self, rng: random.Random, tmp_path):
        self.rng = rng
        self.tmp_path = tmp_path
        self.files = 0

    def tree(self):
        rng = self.rng
        return random_supertree(rng, rng.randint(2, 4), rng.randint(1, 6))

    def int_token(self, lo: int, hi: int) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.85:
            return str(rng.randint(lo, hi))
        if roll < 0.9:
            return str(-rng.randint(1, 5))
        if roll < 0.95:
            return rng.choice([str(BIG), str(-BIG)])
        return rng.choice(["x", "1.5", "", "0x3", "2,3"])

    def list_token(self, values: list[int]) -> str:
        rng = self.rng
        parts = [str(v) for v in values]
        roll = rng.random()
        if roll < 0.1 and parts:
            parts[rng.randrange(len(parts))] = rng.choice(["x", "1.5", "-", "++2", "1e3"])
        elif roll < 0.15:
            parts.append(rng.choice([str(BIG), str(-BIG), "-1", ""]))
        elif roll < 0.2:
            rng.shuffle(parts)
        return rng.choice([",", ", "]).join(parts)

    def sht_file(self, G) -> str:
        """G's .sht text, now and then with lines dropped, duplicated or
        garbled; or a path that does not exist."""
        rng = self.rng
        self.files += 1
        path = self.tmp_path / f"t{self.files}.sht"
        if rng.random() < 0.03:
            return str(path)
        lines = serialize_sht(G).splitlines()
        for _ in range(rng.choice([0, 0, 0, 0, 1, 2])):
            i = rng.randrange(len(lines))
            action = rng.choice(["drop", "duplicate", "garble", "directive"])
            if action == "drop":
                del lines[i]
            elif action == "duplicate":
                lines.insert(i, lines[i])
            elif action == "garble" and lines[i].split():
                words = lines[i].split()
                words[rng.randrange(len(words))] = self.int_token(0, G.n)
                lines[i] = " ".join(words)
            elif action == "directive":
                lines.insert(i, rng.choice(["x 1", "# comment", "order 0 1", "", "e"]))
            if not lines:
                break
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def degrees(self, G) -> list[int]:
        return sorted(G.degrees, reverse=True) if self.rng.random() < 0.5 else list(G.degrees)

    def sequence(self, G, movable: bool = False) -> list[int]:
        """Degrees of G, or of a supertree with edge size G.k and one to
        three interior vertices of degree 2 to 4: with interior sum S, there
        are S + 1 - n0 edges. A movable sequence has two interior degrees of
        3 or more, so a unit transformation applies to it."""
        rng = self.rng
        if rng.random() < 0.5 and not movable:
            return self.degrees(G)
        interior = [rng.randint(2, 4) for _ in range(rng.randint(1, 3))]
        if movable:
            interior[:2] = [rng.randint(3, 4), rng.randint(3, 4)]
        m = sum(interior) + 1 - len(interior)
        return interior + [1] * (1 + m * (G.k - 1) - len(interior))

    @staticmethod
    def unit_moves(entries) -> tuple[list[int], list[int]]:
        """The interior degrees, ascending, and the positions a unit
        transformation can start from."""
        interior = sorted(d for d in entries if d >= 2)
        return interior, [p for p in range(len(interior) - 1) if interior[p] >= 3]

    def argv(self) -> list[str]:
        rng = self.rng
        command = rng.choice(COMMANDS)
        G = self.tree()
        k = str(G.k) if rng.random() < 0.9 else self.int_token(1, 5)
        flags: list[list[str]] = []
        positional: list[str] = []
        if command in ("validate", "eigen", "slo-check", "slo-find", "relabel",
                       "switch", "shift"):
            positional.append(self.sht_file(G))
        if command == "slo-check":
            order = find_slo_ordering(G) or list(range(G.n))
            if rng.random() < 0.5:
                order = rng.sample(order, len(order))
            flags.append(["--order", self.list_token(order)])
        elif command == "switch":
            spec = random_switch_spec(rng, G) if G.m > 1 else None
            if spec is None or rng.random() < 0.2:
                e1, e2 = (self.int_token(0, G.m - 1) for _ in range(2))
                u1, v1 = rng.sample(range(G.n), min(G.n, 2)), []
            else:
                e1, e2 = (str(G.edges.index(e)) for e in (spec.e1, spec.e2))
                u1, v1 = sorted(spec.u1), sorted(spec.v1)
            flags += [["--e1", e1], ["--e2", e2]]
            if u1 or rng.random() < 0.5:
                flags += [["--u1", self.list_token(u1)], ["--v1", self.list_token(v1)]]
        elif command == "shift":
            spec = random_shift_spec(rng, G)
            if spec is None or rng.random() < 0.2:
                u, v = (self.int_token(0, G.n - 1) for _ in range(2))
                bundle = rng.sample(range(G.m), rng.randint(0, G.m))
            else:
                u, v = str(spec.u), str(spec.v)
                bundle = [G.edges.index(e) for e in spec.edges]
            flags += [["--u", u], ["--edges", self.list_token(bundle)], ["--v", v]]
        elif command in ("slo-construct", "enumerate", "unit"):
            entries = self.sequence(G, movable=command == "unit" and rng.random() < 0.8)
            flags += [["--k", k], ["--pi", self.list_token(entries)]]
            if command == "unit":
                _, spots = self.unit_moves(entries)
                p = rng.choice(spots) if spots and rng.random() < 0.8 else None
                flags.append(["--p", self.int_token(-1, 4) if p is None else str(p)])
        elif command == "verify-fk1":
            flags.append(["--k", k])
            if rng.random() < 0.5:
                flags.append(["--pi", self.list_token(self.sequence(G))])
            elif k.isdigit() and int(k) < BIG:
                # a small edge size with a 30-digit bound would grow forever
                flags.append(["--n-max", rng.choice([str(rng.randint(-3, 11)),
                                                      str(-BIG), "x"])])
            else:
                flags.append(["--n-max", self.int_token(-3, 11)])
        elif command == "verify-fk2":
            n0 = sum(d >= 2 for d in G.degrees)
            if rng.random() < 0.7:  # a family holding G
                n, n0, d = str(G.n), str(n0), str(rng.randint(1, min(G.degrees) + 2))
            else:
                n, n0, d = (self.int_token(lo, hi) for lo, hi in ((1, 13), (0, 6), (1, 4)))
            flags += [["--n", n], ["--n0", n0], ["--k", k], ["--d", d]]
        elif command == "majorize":
            entries = self.sequence(G, movable=rng.random() < 0.8)
            interior, spots = self.unit_moves(entries)
            if spots and rng.random() < 0.9:  # one unit transformation apart
                p = rng.choice(spots)
                interior[p] -= 1
                interior[p + 1] += 1
                prime = interior + [1] * (len(entries) - len(interior))
            else:
                prime = self.degrees(random_supertree(rng, G.k, G.m))
            flags += [["--k", k], ["--pi", self.list_token(entries)],
                      ["--pi-prime", self.list_token(prime)]]
        roll = rng.random()
        if roll < 0.04 and flags:
            flags.pop(rng.randrange(len(flags)))
        elif roll < 0.07 and flags:
            flags.append(list(rng.choice(flags)))
        elif roll < 0.12:
            flags.append(rng.choice([["--all"], ["--bogus", "1"], ["--n-max", "5"],
                                     ["--pi", "2,1,1"], ["-h"], [str(BIG)]]))
        rng.shuffle(flags)
        prefix = rng.choice([[]] * 6 + [["--format", "plain"], ["--format", "csv"],
                                        ["--format", "tsv"]])
        if rng.random() < 0.02:
            positional = []
        return prefix + [command] + positional + [t for flag in flags for t in flag]


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_command_line(capsys, tmp_path, seed):
    grammar = _Grammar(random.Random(seed), tmp_path)
    seen: dict[tuple[str, int], int] = {}
    for _ in range(CALLS_PER_SEED):
        argv = grammar.argv()
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        assert seconds < BUDGET_S, (argv, seconds)
        if code == 2:  # majorize prints majorized=false to stdout
            assert (out + err).strip(), argv
        command = next(a for a in argv if a in COMMANDS)
        seen[command, code] = seen.get((command, code), 0) + 1
    # the grammar reaches every subcommand, and each with accepted calls as
    # well as rejected ones
    assert {command for command, code in seen if code != 2} == set(COMMANDS)
    assert {command for command, code in seen if code == 2} == set(COMMANDS)
