"""Command-line front door.

Subcommands: classify, betti, generate, isomorphic.  Each registers
only the flags it reads: ``--field`` for classify and betti, ``--format``
for every subcommand but generate (csv only for betti), the
``--budget-*`` flags of the enumerations it runs, and ``--seed`` for
generate.  Output is JSON by default (deterministic byte-for-byte for a
fixed input, flags, and seed); exit codes are 0 for success, 1 for
usage and input errors (an unknown flag included), and 2 for budget
exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys

from .characterize import classification_report
from .errors import BudgetExceeded, FlagPosetError, InvalidParameter, NotGraded
from .fields import LaurentPoly, parse_field
from .generate import RandomPosetSpec, random_graded_poset
from .homology import (
    DEFAULT_BETTI_VARS,
    betti_polynomial_bruteforce,
    betti_polynomial_fast,
    full_betti_table,
    graded_betti_table,
    lcm_lattice,
)
from .ideals import flag_ideal
from .posets import (
    DEFAULT_ISO_BUDGET,
    GradedPoset,
    Poset,
    are_isomorphic,
    example_3_4,
    example_3_6,
    example_4_9,
    hom_rt_poset,
    letterplace_poset,
    parse_poset_text,
    pentagon,
    poset_to_text,
)

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other input error; argparse's own
    code 2 is the budget-exhaustion code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_field(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--field", default="gf2",
                        help="coefficient field: gf2 | gfp:<p> | q")


def _add_format(parser: argparse.ArgumentParser, *choices: str) -> None:
    parser.add_argument("--format", dest="fmt", default="json",
                        choices=["json", *choices, "text"])


def _add_budgets(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--budget-{name.replace('_', '-')}",
                            dest=f"budget_{name}", type=int, default=None)


def _budgets(args) -> dict:
    """The --budget-* values given; each consumer has its defaults."""
    out = {}
    for key, value in vars(args).items():
        if key.startswith("budget_") and value is not None:
            name = key[len("budget_"):]
            if value < 1:
                raise InvalidParameter(f"budget {name} must be positive")
            out[name] = value
    return out


def _load_poset(args) -> Poset:
    if getattr(args, "example", None):
        return _example(args.example)
    if not getattr(args, "file", None):
        raise InvalidParameter("need a poset file or --example")
    with open(args.file, encoding="utf-8") as handle:
        return parse_poset_text(handle.read())


def _example(token: str) -> Poset:
    named = {
        "pentagon": pentagon,
        "3.4": lambda: example_3_4().poset,
        "3.6": lambda: example_3_6().poset,
        "4.9": lambda: example_4_9().poset,
    }
    if token in named:
        return named[token]()
    if token.startswith("hom:"):
        try:
            r, t = (int(x) for x in token[4:].split(","))
        except ValueError as exc:
            raise InvalidParameter(f"bad example token: {token}") from exc
        return hom_rt_poset(r, t).poset
    if token.startswith("letterplace:"):
        rest = token[len("letterplace:"):]
        n_str, _, path = rest.partition(",")
        try:
            n = int(n_str)
        except ValueError as exc:
            raise InvalidParameter(f"bad example token: {token}") from exc
        with open(path, encoding="utf-8") as handle:
            q = parse_poset_text(handle.read())
        return letterplace_poset(n, q).poset
    raise InvalidParameter(f"unknown example: {token}")


def _emit(payload, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        _emit_text(payload, out)


def _emit_text(payload, out, indent=0) -> None:
    pad = "  " * indent
    if isinstance(payload, dict):
        for k in payload:
            v = payload[k]
            if isinstance(v, (dict, list)):
                out.write(f"{pad}{k}:\n")
                _emit_text(v, out, indent + 1)
            else:
                out.write(f"{pad}{k}: {v}\n")
    elif isinstance(payload, list):
        for v in payload:
            _emit_text(v, out, indent)
    else:
        out.write(f"{pad}{payload}\n")


def cmd_classify(args, out) -> int:
    field, budgets = parse_field(args.field), _budgets(args)
    report = classification_report(_load_poset(args), field, budgets)
    _emit(report, args.fmt, out)
    return 0


def cmd_betti(args, out) -> int:
    field, budgets = parse_field(args.field), _budgets(args)
    poset = _load_poset(args)
    try:
        g = GradedPoset(poset)
    except NotGraded:
        raise NotGraded("Betti computations need a graded poset") from None
    ideal = flag_ideal(g)
    budget = budgets.get("betti_vars", DEFAULT_BETTI_VARS)
    if args.multidegree is not None:
        if args.fmt == "csv":
            raise InvalidParameter("csv output only applies to Betti tables")
        a = [v for v in args.multidegree.split(",") if v]
        for i, v in enumerate(a):
            if v in a[:i]:
                raise InvalidParameter(f"repeated element in multidegree: {v}")
        if (not args.fast or args.verify) and len(a) > budget:
            raise BudgetExceeded(f"multidegree larger than budget {budget}")
        fast = (betti_polynomial_fast(g, a, field)
                if (args.fast or args.verify) else None)
        brute = (betti_polynomial_bruteforce(ideal, a, field)
                 if (not args.fast or args.verify) else None)
        if args.verify and fast != brute:
            print(f"MISMATCH: fast {fast} vs brute-force {brute}",
                  file=sys.stderr)
            return 1
        poly = fast if fast is not None else brute
        payload = {"multidegree": sorted(a),
                   "betti_polynomial": {str(e): c
                                        for e, c in sorted(poly.coeffs.items())}}
        if args.verify:
            payload["verified"] = True
        _emit(payload, args.fmt, out)
        return 0
    if args.fast:
        if len(ideal.variables) > budget:
            raise BudgetExceeded(f"Betti table limited to {budget} variables")
        table = graded_betti_table(g, field)
    else:
        table = full_betti_table(ideal, field, budget)
    if args.verify:
        rows: dict[frozenset[str], dict[int, int]] = {}
        for (j, a), b in table.entries.items():
            rows.setdefault(a, {})[len(a) - j] = b
        for a in lcm_lattice(ideal):
            fast = betti_polynomial_fast(g, a, field)
            brute = betti_polynomial_bruteforce(ideal, a, field)
            if fast != brute:
                print(f"MISMATCH at {sorted(a)}: {fast} vs {brute}",
                      file=sys.stderr)
                return 1
            entry = LaurentPoly(rows.get(a))
            if entry != brute:
                print(f"MISMATCH at {sorted(a)}: table {entry} vs "
                      f"brute-force {brute}", file=sys.stderr)
                return 1
    if args.fmt == "csv":
        out.write(table.to_csv())
    else:
        payload = {"field": str(field),
                   "entries": [{"j": j, "A": sorted(a), "beta": b}
                               for (j, a), b in sorted(
                                   table.entries.items(),
                                   key=lambda kv: (kv[0][0], len(kv[0][1]),
                                                   sorted(kv[0][1])))]}
        if args.verify:
            payload["verified"] = True
        _emit(payload, args.fmt, out)
    return 0


def cmd_generate(args, out) -> int:
    try:
        widths = tuple(int(w) for w in args.widths.split(","))
    except ValueError as exc:
        raise InvalidParameter(f"bad widths: {args.widths}") from exc
    spec = RandomPosetSpec(widths, args.edge_prob, args.seed)
    g = random_graded_poset(spec)
    text = poset_to_text(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        out.write(text)
    return 0


def cmd_isomorphic(args, out) -> int:
    budget = _budgets(args).get("iso_elements", DEFAULT_ISO_BUDGET)
    with open(args.file1, encoding="utf-8") as handle:
        p = parse_poset_text(handle.read())
    with open(args.file2, encoding="utf-8") as handle:
        q = parse_poset_text(handle.read())
    bijection = are_isomorphic(p, q, budget=budget)
    payload = {"isomorphic": bijection is not None,
               "bijection": bijection}
    _emit(payload, args.fmt, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flagposet",
        description="Flag ideals of graded posets: classification and "
                    "multigraded Betti numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="full classification report")
    p_classify.add_argument("file", nargs="?")
    p_classify.add_argument("--example")
    _add_field(p_classify)
    _add_format(p_classify)
    _add_budgets(p_classify, "cover_enum", "betti_vars")
    p_classify.set_defaults(func=cmd_classify)

    p_betti = sub.add_parser("betti", help="Betti table or one polynomial")
    p_betti.add_argument("file", nargs="?")
    p_betti.add_argument("--example")
    p_betti.add_argument("--multidegree",
                         help="comma-separated element ids")
    p_betti.add_argument("--fast", action="store_true",
                         help="layer-product path (needs graded input)")
    p_betti.add_argument("--verify", action="store_true",
                         help="require the fast path and the table to "
                              "equal Hochster brute force")
    _add_field(p_betti)
    _add_format(p_betti, "csv")
    _add_budgets(p_betti, "betti_vars")
    p_betti.set_defaults(func=cmd_betti)

    p_gen = sub.add_parser("generate", help="seeded random graded poset")
    p_gen.add_argument("--widths", required=True,
                       help="comma-separated layer widths")
    p_gen.add_argument("--edge-prob", type=float, default=0.5)
    p_gen.add_argument("-o", "--output")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_generate)

    p_iso = sub.add_parser("isomorphic",
                           help="cover-preserving bijection between two "
                                "poset files")
    p_iso.add_argument("file1")
    p_iso.add_argument("file2")
    _add_format(p_iso)
    _add_budgets(p_iso, "iso_elements")
    p_iso.set_defaults(func=cmd_isomorphic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (FlagPosetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
