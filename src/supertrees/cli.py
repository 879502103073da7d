"""Command-line interface over the supertree library.

One subcommand per operation, line-oriented output: single values print as
``key=value``, tables print as CSV (or aligned key=value rows under
``--format plain``), and supertrees print in the .sht text format. Floats
carry 12 decimal digits. Exit codes: 0 success or verified, 1 verification
failure, 2 malformed input or usage error.

Each handler imports the modules it runs, so a process loads only its
subcommand's share of the package; numpy loads only with the first solve.
"""

import argparse
import sys

from .core import DegreeSequence, Supertree, parse_sht, serialize_sht
from .errors import EmptyFamily, InvalidSpec, SupertreeError

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:.12f}"


def _tf(flag: bool) -> str:
    return "true" if flag else "false"


def _print_rows(fmt: str, header: list[str], rows) -> None:
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    else:
        for row in rows:
            print(" ".join(f"{h}={v}" for h, v in zip(header, row)))


def _int_list(text: str) -> list[int]:
    """argparse type of a comma-separated integer list; empty parts skipped."""
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _load(path: str) -> Supertree:
    with open(path, encoding="utf-8") as fh:
        return parse_sht(fh.read())


def _edge_at(G: Supertree, index: int) -> tuple[int, ...]:
    if not 0 <= index < G.m:
        raise InvalidSpec(f"edge index {index} outside 0..{G.m - 1}")
    return G.edges[index]


def _cmd_validate(args) -> int:
    G = _load(args.file)
    print(f"ok k={G.k} n={G.n} m={G.m}")
    return 0


def _eigenpair(args):
    # spectral takes a few ms to compile when bytecode is not cached; only
    # the subcommands that solve pay it
    from .spectral import first_dirichlet_eigenpair
    G = _load(args.file)
    return G, first_dirichlet_eigenpair(G)


def _cmd_eigen(args) -> int:
    G, pair = _eigenpair(args)
    print(f"lambda={_fmt(pair.lam)}")
    print(f"gap={_fmt(pair.gap)}")
    print(f"degenerate={_tf(pair.degenerate)}")
    rows = [
        [str(v), _tf(G.degrees[v] >= 2), _fmt(float(pair.f[v]))]
        for v in range(G.n)
    ]
    _print_rows(args.format, ["vertex_id", "is_interior", "f_value"], rows)
    return 0


def _cmd_slo_check(args) -> int:
    from .slo import check_slo
    G = _load(args.file)
    violations = check_slo(G, args.order)
    if not violations:
        print("ok")
        return 0
    for violation in violations:
        print(f"violation rule={violation.rule} witness={violation.witness}")
    return 1


def _cmd_slo_find(args) -> int:
    from .slo import find_slo_ordering
    G = _load(args.file)
    order = find_slo_ordering(G)
    if order is None:
        print("none")
        return 1
    print("order " + " ".join(str(v) for v in order))
    return 0


def _cmd_slo_construct(args) -> int:
    from .slo import construct_slo_supertree
    pi = DegreeSequence.from_degrees(args.k, args.pi)
    G, order = construct_slo_supertree(pi)
    sys.stdout.write(serialize_sht(G))
    print("order " + " ".join(str(v) for v in order))
    return 0


def _cmd_relabel(args) -> int:
    from .slo import relabel
    G, pair = _eigenpair(args)
    labels = relabel(G, pair.f)
    rows = [
        [str(v), str(s), str(i), str(p), _fmt(float(pair.f[v]))]
        for v, (s, i, p) in sorted(labels.items(), key=lambda item: item[1])
    ]
    _print_rows(args.format, ["vertex_id", "s", "i", "p", "f_value"], rows)
    return 0


def _cmd_switch(args) -> int:
    from .transforms import SwitchSpec, apply_switch
    G = _load(args.file)
    spec = SwitchSpec(
        e1=_edge_at(G, args.e1),
        e2=_edge_at(G, args.e2),
        u1=args.u1,
        v1=args.v1,
    )
    sys.stdout.write(serialize_sht(apply_switch(G, spec)))
    return 0


def _cmd_shift(args) -> int:
    from .transforms import ShiftSpec, apply_shift
    G = _load(args.file)
    spec = ShiftSpec(
        u=args.u,
        edges=[_edge_at(G, i) for i in args.edges],
        v=args.v,
    )
    sys.stdout.write(serialize_sht(apply_shift(G, spec)))
    return 0


def _cmd_unit(args) -> int:
    from .transforms import unit_transformation
    pi = DegreeSequence.from_degrees(args.k, args.pi)
    print(f"pi={unit_transformation(pi, args.p)}")
    return 0


def _cmd_enumerate(args) -> int:
    from .enumeration import _pi_classes
    pi = DegreeSequence.from_degrees(args.k, args.pi)
    members = _pi_classes(pi)
    print(f"count={len(members)}")
    rows = [[code.decode("ascii")] for code, _ in members]
    _print_rows(args.format, ["canonical_code"], rows)
    return 0


def _certificate_line(cert) -> str:
    return (
        f"family={cert.family.describe()} "
        f"unique={_tf(cert.unique)} slo_match={_tf(cert.slo_match)}"
    )


def _print_certificate(fmt: str, cert) -> None:
    print(_certificate_line(cert))
    winner_code = cert.all_lambdas[0][0]
    rows = [
        [
            code.decode("ascii"),
            _fmt(lam),
            _tf(code == winner_code),
            _tf(code == cert.slo_code),
        ]
        for code, lam in cert.all_lambdas
    ]
    _print_rows(fmt, ["canonical_code", "lambda", "is_winner", "is_slo"], rows)


def _cmd_verify_fk1(args) -> int:
    from .enumeration import fk1_sweep, verify_fk_theorem1
    if args.pi is not None:
        cert = verify_fk_theorem1(DegreeSequence.from_degrees(args.k, args.pi))
        _print_certificate(args.format, cert)
        return 0 if cert.passed else 1
    certs = fk1_sweep(args.k, args.n_max)
    if not certs:
        raise EmptyFamily(f"no degree sequence with k={args.k} and n <= "
                          f"{args.n_max} has an interior vertex")
    passed = sum(1 for cert in certs if cert.passed)
    for cert in certs:
        print(_certificate_line(cert))
    print(f"families={len(certs)} passed={passed} failed={len(certs) - passed}")
    return 0 if passed == len(certs) else 1


def _cmd_verify_fk2(args) -> int:
    from .enumeration import verify_fk_theorem2
    cert = verify_fk_theorem2(args.n, args.n0, args.k, args.d)
    _print_certificate(args.format, cert)
    return 0 if cert.passed else 1


def _cmd_majorize(args) -> int:
    from .enumeration import _majorization_lambdas
    from .transforms import majorizes
    pi = DegreeSequence.from_degrees(args.k, args.pi)
    pi_prime = DegreeSequence.from_degrees(args.k, args.pi_prime)
    if not majorizes(pi, pi_prime):
        print("majorized=false")
        return 2
    # rejects equal sequences and unequal interior counts before any output
    lam, lam_prime, decreased = _majorization_lambdas(pi, pi_prime)
    print("majorized=true")
    print(f"lambda_pi={_fmt(lam)}")
    print(f"lambda_pi_prime={_fmt(lam_prime)}")
    print(f"strict_decrease={_tf(decreased)}")
    return 0 if decreased else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supertrees",
        description="k-uniform supertrees: Dirichlet eigenvalues, "
        "SLO orderings, and Faber-Krahn verification",
    )
    parser.add_argument(
        "--format", choices=("csv", "plain"), default="csv",
        help="table output style (default csv)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the arguments several subcommands share, each declared once
    file = argparse.ArgumentParser(add_help=False)
    file.add_argument("file")
    k = argparse.ArgumentParser(add_help=False)
    k.add_argument("--k", type=int, required=True)
    pi = argparse.ArgumentParser(add_help=False, parents=[k])
    pi.add_argument("--pi", type=_int_list, required=True,
                    help="comma-separated degrees")

    def command(name, run, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(run=run)
        return p

    command("validate", _cmd_validate, "parse and validate an .sht file", file)
    command("eigen", _cmd_eigen, "first Dirichlet eigenpair", file)
    p = command("slo-check", _cmd_slo_check, "check an ordering against S1-S5", file)
    p.add_argument("--order", type=_int_list, required=True,
                   help="comma-separated vertex ids")
    command("slo-find", _cmd_slo_find, "find a spiral-like ordering", file)
    command("slo-construct", _cmd_slo_construct,
            "build the SLO-supertree of a degree sequence", pi)
    command("relabel", _cmd_relabel,
            "label vertices along the first Dirichlet eigenfunction", file)
    p = command("switch", _cmd_switch, "exchange vertex groups between two edges",
                file)
    p.add_argument("--e1", type=int, required=True, help="edge index")
    p.add_argument("--e2", type=int, required=True, help="edge index")
    for flag in ("--u1", "--v1"):
        p.add_argument(flag, type=_int_list, default=(),
                       help="comma-separated vertex ids")
    p = command("shift", _cmd_shift, "re-hang a bundle of edges from u onto v", file)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--edges", type=_int_list, default=(),
                   help="comma-separated edge indices")
    p.add_argument("--v", type=int, required=True)
    p = command("unit", _cmd_unit, "unit transformation on a degree sequence", pi)
    p.add_argument("--p", type=int, required=True, help="interior position")
    command("enumerate", _cmd_enumerate,
            "all isomorphism classes with a degree sequence", pi)
    p = command("verify-fk1", _cmd_verify_fk1,
                "SLO-supertree minimizes lambda among its degree sequence class", k)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pi", type=_int_list, help="comma-separated degrees")
    mode.add_argument("--n-max", type=int, help="sweep every sequence with at "
                      "most this many vertices")
    # --k third, as in the family's name T_d(n,n0,k,d)
    p = command("verify-fk2", _cmd_verify_fk2,
                "flattest SLO-supertree minimizes lambda at fixed counts")
    for flag in ("--n", "--n0", "--k", "--d"):
        p.add_argument(flag, type=int, required=True)
    p = command("majorize", _cmd_majorize,
                "eigenvalue monotonicity along majorization", pi)
    p.add_argument("--pi-prime", type=_int_list, required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except SupertreeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
