"""Command-line interface.

Subcommands:

  eval      evaluate a closed diagram (braid closure or diagram file) to its
            polynomial; --normalize also divides out q^writhe and prints the
            writhe.
  matrices  print one of the crossing matrices R, Rbar, Q for a given n.
  verify    run the identity suites and print one PASS/FAIL line per check;
            exits nonzero if anything fails.
  rep       print dimensions and nonzero entries of a braid word's image in
            the monoid representation.

Exit codes: 0 success, 1 computational error (bad diagram, open input),
2 usage error.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from . import braidrep, identities
from .diagram import (
    DiagramError,
    close_braid,
    from_json,
    parse_braid_word,
    writhe,
)
from .evaluator import EvalContext, evaluate_closed, evaluate_tangle, normalized_invariant
from .laurent import parse_poly
from .spintensor import Tile, crossing_matrix

_WHICH = {"R": Tile.CROSS_POS, "Rbar": Tile.CROSS_NEG, "Q": Tile.CROSS_SING}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slnpoly")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a closed diagram")
    p_eval.add_argument("--n", type=int, required=True)
    src = p_eval.add_mutually_exclusive_group(required=True)
    src.add_argument("--braid", help="braid word, e.g. 's1 s1 s1'")
    src.add_argument("--diagram", help="path to a diagram JSON file")
    p_eval.add_argument("--strands", type=int, help="strand count for --braid")
    p_eval.add_argument("--closure", action="store_true",
                        help="close the braid by the trace closure")
    p_eval.add_argument("--normalize", action="store_true",
                        help="multiply by q^-writhe and print the writhe")
    p_eval.add_argument("--gamma", default="1",
                        help="alternating-vertex weight (polynomial string)")

    p_mat = sub.add_parser("matrices", help="print a crossing matrix")
    p_mat.add_argument("--n", type=int, required=True)
    p_mat.add_argument("--which", choices=sorted(_WHICH), required=True)

    p_ver = sub.add_parser("verify", help="run identity suites")
    p_ver.add_argument("--n", type=int, required=True)
    p_ver.add_argument("--suite", required=True, choices=[*identities.SUITES, "all"])
    p_ver.add_argument("--strands", type=int, default=3,
                       help="strand count for the braid relation checks")
    p_ver.add_argument("--gamma", default="q",
                       help="alternating-vertex weight for the rigid-vertex checks "
                            "(polynomial string)")

    p_rep = sub.add_parser("rep", help="braid word image in the representation")
    p_rep.add_argument("--n", type=int, required=True)
    p_rep.add_argument("--braid", required=True)
    p_rep.add_argument("--strands", type=int, required=True)
    return parser


def _cmd_eval(args) -> int:
    gamma = parse_poly(args.gamma)
    ctx = EvalContext(args.n, gamma)
    if args.braid is not None:
        if args.strands is None:
            print("eval: --braid requires --strands", file=sys.stderr)
            return 2
        word = parse_braid_word(args.braid, args.strands)
        if not args.closure:
            print("eval: open braids have no scalar value; pass --closure",
                  file=sys.stderr)
            return 2
        d = close_braid(word)
    else:
        d = from_json(Path(args.diagram).read_text())
    value = (normalized_invariant if args.normalize else evaluate_closed)(d, ctx)
    if args.normalize:
        print(f"writhe: {writhe(d)}")
    print(value)
    return 0


def _cmd_matrices(args) -> int:
    mat = crossing_matrix(_WHICH[args.which], args.n)
    print(mat)
    return 0


def _suite_options(suite, args) -> dict:
    """The verify options a suite reads: its parameters after n, by name.

    A text-valued option is a polynomial, parsed here, so that it is parsed
    only when a suite that takes it runs.
    """
    options = {}
    for name in list(inspect.signature(suite).parameters)[1:]:
        value = getattr(args, name)
        options[name] = parse_poly(value) if isinstance(value, str) else value
    return options


def _cmd_verify(args) -> int:
    names = list(identities.SUITES) if args.suite == "all" else [args.suite]
    passed = total = 0
    for name in names:
        suite = identities.SUITES[name]
        for r in suite(args.n, **_suite_options(suite, args)):
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}")
            passed += r.passed
            total += 1
        sys.stdout.flush()
    print(f"{passed}/{total} checks passed")
    return 0 if passed == total else 1


def _cmd_rep(args) -> int:
    word = parse_braid_word(args.braid, args.strands)
    image = braidrep.rho(word, args.n)
    mat = image.matrix
    print(f"dimensions: {mat.rows}x{mat.cols}")
    for (r, c) in sorted(dict(mat.items())):
        print(f"({r},{c}): {mat[r, c]}")
    return 0


def run_cli(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "matrices":
            return _cmd_matrices(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_rep(args)
    except (DiagramError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
