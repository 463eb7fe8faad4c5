"""Command line front end.

Every computation in the library is reachable as a subcommand with JSON on
stdout (or a plain rendering with --format plain).  Exit codes: 0 when the
requested check holds or the computation succeeds, 1 when a verification
fails or no cohomology class matches, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import braidings as br
from . import cocycles as co
from . import cohomology as coh
from .complexes import verify_chain_map
from .groups import Group


def _parse_orders(text: str) -> Group:
    try:
        orders = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"orders must be comma-separated integers, got {text!r}")
    return Group(orders)


def parse_params_literal(group: Group, text: str) -> co.CocycleParams:
    """Read the "a_l;a_ij;a_rst" literal, comma-separated within each part.

    Trailing parts may be omitted or left empty; they default to zeros.
    """
    parts = text.split(";")
    if len(parts) > 3:
        raise ValueError(f"params literal has {len(parts)} sections, at most 3 allowed")
    while len(parts) < 3:
        parts.append("")
    filled = []
    for part, want, label in zip(parts, co.slot_counts(group.rank),
                                 ("diagonal", "pair", "triple")):
        try:
            got = [int(v) for v in part.split(",") if v.strip() != ""]
        except ValueError:
            raise ValueError(f"--params {label} section must be comma-separated "
                             f"integers, got {part!r}")
        if not got:
            got = [0] * want
        if len(got) != want:
            raise ValueError(f"expected {want} {label} exponents, got {len(got)}")
        filled.append(tuple(got))
    return co.CocycleParams(group, *filled)


def params_literal(params: co.CocycleParams) -> str:
    return ";".join((",".join(str(v) for v in params.diag),
                     ",".join(str(v) for v in params.pairs),
                     ",".join(str(v) for v in params.triples)))


def _parse_element(group: Group, text: str, flag: str):
    try:
        exps = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}")
    return group.element(exps)


def _load_table(args) -> co.CocycleTable:
    """The --table file, cross-checked against --orders when that is given."""
    with open(args.table, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.table} is nested too deeply to read as JSON") from None
    table = co.table_from_doc(doc)
    if args.orders is not None and _parse_orders(args.orders) != table.group:
        raise ValueError("--orders does not match the table file")
    return table


def _emit(args, doc, plain=None):
    """doc as JSON, or plain (by default str(doc)) under --format plain."""
    if args.format == "plain":
        print(str(doc) if plain is None else plain)
    else:
        print(json.dumps(doc))


def _count_text(count: int) -> str:
    """count in decimal, or ValueError when it is too long for Python to print."""
    try:
        return str(count)
    except ValueError:
        raise ValueError(f"the count is a {count.bit_length()}-bit number, too long "
                         "to print in decimal") from None


def _exps(x):
    return list(x.exps)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="grcat",
        description="Exact computations with cocycles, cohomology classes and "
                    "braidings over finite abelian groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, params=False, table=False, max_cells=False):
        p.add_argument("--orders", required=not table,
                       help="comma-separated cyclic factor orders, e.g. 4,2")
        if params:
            p.add_argument("--params", default="",
                           help='cocycle parameters "a_l;a_ij;a_rst"')
        if table:
            p.add_argument("--table", help="path to a cocycle table JSON file")
        if max_cells:
            p.add_argument("--max-cells", type=int, default=10 ** 6,
                           help="override the table/grid size guard")
        p.add_argument("--format", choices=("json", "plain"), default="json")

    p = sub.add_parser("h3", help="order of the degree-3 cohomology group")
    add_common(p)

    cocycle = sub.add_parser("cocycle", help="canonical cocycles")
    csub = cocycle.add_subparsers(dest="subcommand", required=True)
    p = csub.add_parser("list", help="all parameter choices")
    add_common(p, max_cells=True)
    p.add_argument("--count", action="store_true")
    p = csub.add_parser("eval", help="one cocycle value")
    add_common(p, params=True)
    p.add_argument("--x", required=True, help="exponents of the first argument")
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    p = csub.add_parser("table", help="full table over the group cube")
    add_common(p, params=True, max_cells=True)

    verify = sub.add_parser("verify", help="exhaustive identity checks")
    vsub = verify.add_subparsers(dest="subcommand", required=True)
    for name, help_text in (("pentagon", "associativity coherence over G^4"),
                            ("normalized", "triviality on identity arguments"),
                            ("symmetry", "invariance under swapping the last "
                                         "two arguments")):
        p = vsub.add_parser(name, help=help_text)
        add_common(p, params=True, table=True, max_cells=True)
    p = vsub.add_parser("chain-map", help="commutation of the comparison maps "
                                          "with the differentials")
    add_common(p, max_cells=True)

    p = sub.add_parser("classify", help="identify the cohomology class of a table")
    p.add_argument("--orders", help="optional cross-check of the table's orders")
    p.add_argument("--table", required=True)
    p.add_argument("--check-unique", action="store_true",
                   help="report uniqueness, which holds by construction")
    p.add_argument("--format", choices=("json", "plain"), default="json")

    p = sub.add_parser("braidings", help="all braidings for a parameter choice")
    add_common(p, params=True, max_cells=True)
    p.add_argument("--count", action="store_true")

    oracle = sub.add_parser("oracle", help="brute-force searches")
    osub = oracle.add_subparsers(dest="subcommand", required=True)
    p = osub.add_parser("braidings", help="search the candidate matrix grid")
    add_common(p, params=True, max_cells=True)
    p.add_argument("--count", action="store_true")
    p = osub.add_parser("full-space", help="search all functions G x G -> mu_N")
    add_common(p, params=True, max_cells=True)
    p.add_argument("--values-order", type=int, required=True,
                   help="order N of the value group mu_N")
    p.add_argument("--no-prune", action="store_true",
                   help="do not pin the identity row and column to 1")
    p.add_argument("--count", action="store_true")
    return parser


def _table_for_verify(args):
    if args.table is not None:
        return _load_table(args)
    if args.orders is None:
        raise ValueError("either --orders with --params or --table is required")
    group = _parse_orders(args.orders)
    params = parse_params_literal(group, args.params)
    return co.build_table(params, max_cells=args.max_cells)


def _check_listing(count, what, max_cells):
    if count > max_cells:
        raise ValueError(f"listing would hold {_count_text(count)} {what}, "
                         f"above the {max_cells} bound")


def _emit_braidings(args, found):
    _emit(args, [[[str(v) for v in row] for row in qb.r] for qb in found],
          "\n".join("; ".join(" ".join(str(v) for v in row) for row in qb.r)
                    for qb in found) or "(none)")


def _run(args) -> int:
    if args.command == "h3":
        group = _parse_orders(args.orders)
        print(_count_text(coh.h3_order(group)))
        return 0

    if args.command == "cocycle":
        group = _parse_orders(args.orders)
        if args.subcommand == "list":
            if args.count:
                print(_count_text(coh.h3_order(group)))
                return 0
            _check_listing(coh.h3_order(group), "parameter choices", args.max_cells)
            params = co.enumerate_params(group)
            _emit(args, [co.params_to_doc(p) for p in params],
                  "\n".join(params_literal(p) for p in params))
            return 0
        if args.subcommand == "eval":
            params = parse_params_literal(group, args.params)
            x = _parse_element(group, args.x, "--x")
            y = _parse_element(group, args.y, "--y")
            z = _parse_element(group, args.z, "--z")
            v = co.eval_cocycle(params, x, y, z)
            _emit(args, str(v))
            return 0
        params = parse_params_literal(group, args.params)
        table = co.build_table(params, max_cells=args.max_cells)
        if args.format == "plain":
            # str and json.dumps agree on lists of ints: "[0, 1] [1, 1] [1, 0] 1/2"
            print("\n".join(co.table_cells(table, ("", " ", " ", " ", "")))
                  or "(all values 1)")
        else:
            print(co.table_to_json(table))
        return 0

    if args.command == "verify":
        if args.subcommand == "chain-map":
            group = _parse_orders(args.orders)
            results = verify_chain_map(group, max_cells=args.max_cells)
            bad = {d: gen for d, gen in results.items() if gen is not None}
            if not bad:
                _emit(args, {"holds": True}, "holds")
                return 0
            degree, gen = sorted(bad.items())[0]
            doc = {"holds": False, "degree": degree,
                   "generator": [_exps(e) for e in gen.elems]}
            _emit(args, doc, f"fails in degree {degree} at {gen.elems}")
            return 1
        table = _table_for_verify(args)
        check = {"pentagon": co.verify_pentagon,
                 "normalized": co.verify_normalized,
                 "symmetry": co.verify_symmetry_last_two}[args.subcommand]
        witness = check(table)
        if witness is None:
            _emit(args, {"holds": True}, "holds")
            return 0
        labels = ("e", "f", "g", "h") if args.subcommand == "pentagon" \
            else ("x", "y", "z")
        doc = {"holds": False,
               "counterexample": {k: _exps(e) for k, e in zip(labels, witness)}}
        _emit(args, doc, "fails at " + " ".join(str(_exps(e)) for e in witness))
        return 1

    if args.command == "classify":
        table = _load_table(args)
        try:
            params = coh.classify(table)
        except LookupError as exc:
            print(f"classify: {exc}", file=sys.stderr)
            return 1
        doc = co.params_to_doc(params)
        if args.check_unique:
            doc["unique"] = True
        _emit(args, doc, params_literal(params))
        return 0

    if args.command == "braidings":
        group = _parse_orders(args.orders)
        params = parse_params_literal(group, args.params)
        if args.count:
            print(_count_text(br.braiding_count(params)))
        else:
            _check_listing(br.braiding_count(params), "braidings", args.max_cells)
            _emit_braidings(args, br.enumerate_braidings(params))
        return 0

    if args.command == "oracle":
        group = _parse_orders(args.orders)
        params = parse_params_literal(group, args.params)
        if args.subcommand == "braidings":
            found = br.brute_force_braidings(params, max_candidates=args.max_cells)
        else:
            found = br.brute_force_full_function_space(
                params, args.values_order, max_candidates=args.max_cells,
                prune_identity=not args.no_prune)
        if args.count:
            _emit(args, len(found))
        elif args.subcommand == "braidings":
            _emit_braidings(args, found)
        else:
            # each table is keyed in index order, lexicographic in the exponents
            docs = [{"entries": [{"x": _exps(x), "y": _exps(y), "r": str(v)}
                                 for (x, y), v in table.items() if not v.is_one()]}
                    for table in found]
            _emit(args, docs, "\n".join(json.dumps(d) for d in docs) or "(none)")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _run(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"grcat: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
