"""
Command-line front end.

One command per invocation; word arguments use the same "n: i1 i2 ..."
grammar as the library parser.  Results go to stdout (add --json for the
machine form), diagnostics to stderr.  Exit status 0 means the command ran
and, for verdict commands, the verdict held; 1 means a verdict failed
(a parity mismatch, unequal template sides, an Unknown certificate, an
output-preserving crossing change, a failing self test); 2 means the
invocation itself was unusable; 3 means an internal error (for example an
exhausted recursion limit), reported on stderr with nothing on stdout.
A reader that closes stdout early (``| head``) ends the output quietly
with the command's own exit status.

Each command handler returns an :data:`Output` and prints nothing;
:func:`main` writes whichever form was asked for.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Every process pays for the modules it imports; analysis, templates and
# acceptance serve few commands, so their handlers import them.
from .homfly import BraidIndexCertificate, certify_braid_index_3, jones, mfw_lower_bound, to_homfly
from .resolution import ResolutionNode, label_only, resolution_tree, resolve
from .skein import partition_str
from .words import BraidWord, parse_word

# (exit code, data for --json, lines of text)
Output = tuple[int, object, list[str]]


def _cmd_resolve(args) -> Output:
    vector = resolve(parse_word(args.word), args.basepoint)
    data = {"strand_count": vector.strand_count, "entries": vector.to_json_dict()}
    return 0, data, [vector.format()]


def _cmd_labels(args) -> Output:
    labels = label_only(parse_word(args.word), args.basepoint)
    lines = [f"{cid}: {label.value}" for cid, label in labels.items()]
    return 0, {str(cid): label.value for cid, label in labels.items()}, lines


def _tree_lines(node: ResolutionNode, depth: int, lines: list[str]) -> None:
    head = "" if node.edge is None else f"{node.edge.format()} -> "
    tail = f" => {partition_str(node.leaf_partition())}" if node.is_leaf() else ""
    lines.append(f"{'  ' * depth}{head}{node.word.format()}{tail}")
    for child in node.children:
        _tree_lines(child, depth + 1, lines)


def _tree_json(node: ResolutionNode) -> dict:
    data = {
        "word": node.word.format(),
        "edge": None if node.edge is None else node.edge.to_json_dict(),
        "labels": {str(cid): "good" for cid in sorted(node.good)},
    }
    if node.is_leaf():
        data["partition"] = ",".join(str(p) for p in node.leaf_partition())
    else:
        data["children"] = [_tree_json(child) for child in node.children]
    return data


def _cmd_tree(args) -> Output:
    root = resolution_tree(parse_word(args.word), args.basepoint)
    lines: list[str] = []
    _tree_lines(root, 0, lines)
    # Every JSON node copies the full label map, so build it only on request.
    return 0, _tree_json(root) if args.json else None, lines


def _cmd_parity(args) -> Output:
    from .analysis import parity_consistency

    report = parity_consistency(parse_word(args.word), args.basepoint)
    data = {"k": report.k, "p": report.positive_bad, "n": report.negative_bad, "ok": report.ok}
    return 0 if report.ok else 1, data, [report.format()]


def _cmd_nugatory(args) -> Output:
    from .analysis import nugatory_scan

    report = nugatory_scan(parse_word(args.word), args.basepoint)
    data = {
        "base": report.base_vector.to_json_dict(),
        "crossings": [
            {"id": entry.crossing_id,
             "differs": entry.differs,
             "bfree_delta": entry.bfree_delta,
             "vector": entry.changed_vector.to_json_dict()}
            for entry in report.entries
        ],
        "all_differ": report.all_differ,
    }
    lines = [f"base: {report.base_vector.format()}"]
    for entry in report.entries:
        verdict = "different" if entry.differs else "UNCHANGED"
        lines.append(f"{entry.crossing_id}: {verdict} delta={entry.bfree_delta:+d}")
    lines.append(f"all-differ: {'yes' if report.all_differ else 'no'}")
    return 0 if report.all_differ else 1, data, lines


def _cmd_odd_change(args) -> Output:
    from .analysis import odd_change_check

    report = odd_change_check(parse_word(args.word), args.ids)
    data = {
        "ids": list(report.crossing_ids),
        "odd": report.odd,
        "original": report.original_vector.to_json_dict(),
        "changed": report.changed_vector.to_json_dict(),
        "differs": report.differs,
        "ok": report.ok,
    }
    lines = [
        f"original: {report.original_vector.format()}",
        f"changed:  {report.changed_vector.format()}",
        f"ids: {' '.join(str(i) for i in report.crossing_ids)} ({'odd' if report.odd else 'even'})",
        f"verdict: {'different' if report.differs else 'unchanged'}",
    ]
    return 0 if report.ok else 1, data, lines


def _cmd_homfly(args) -> Output:
    poly = to_homfly(resolve(parse_word(args.word)))
    return 0, {"terms": poly.to_json_dict()}, [poly.format()]


def _cmd_jones(args) -> Output:
    poly = jones(to_homfly(resolve(parse_word(args.word))))
    return 0, {"terms": poly.to_json_dict(), "unit": "t^(1/2)"}, [poly.format()]


def _cmd_mfw(args) -> Output:
    bound = mfw_lower_bound(to_homfly(resolve(parse_word(args.word))))
    return 0, {"bound": bound}, [str(bound)]


def _cmd_certify3(args) -> Output:
    certificate = certify_braid_index_3(parse_word(args.word))
    code = 0 if certificate is BraidIndexCertificate.CERTIFIED else 1
    return code, {"certificate": certificate.value}, [certificate.value]


def _compare_sides(left: BraidWord, right: BraidWord) -> Output:
    """Both sides of a template and whether they resolve equally."""
    equal = resolve(left) == resolve(right)
    data = {"left": left.format(), "right": right.format(), "equal": equal}
    lines = [f"left:  {left.format()}", f"right: {right.format()}",
             f"verdict: {'equal' if equal else 'DIFFERENT'}"]
    return 0 if equal else 1, data, lines


def _cmd_flype_test(args) -> Output:
    from .templates import flype_pair

    return _compare_sides(*flype_pair(args.a, args.b, args.c, args.eps))


def _cmd_exchange_test(args) -> Output:
    from .templates import exchange_pair

    return _compare_sides(*exchange_pair(parse_word(args.u), parse_word(args.v)))


def _cmd_exchange_search(args) -> Output:
    from .templates import search_exchange_divergence

    hits = search_exchange_divergence(4, args.max_len)
    knots = sum(1 for hit in hits if hit.is_knot)
    data = {
        "max_block_len": args.max_len,
        "pairs": [
            {"left": hit.left.format(), "right": hit.right.format(),
             "left_vector": hit.left_vector.to_json_dict(),
             "right_vector": hit.right_vector.to_json_dict(),
             "oracle_equal": hit.oracle_equal, "is_knot": hit.is_knot}
            for hit in hits
        ],
        "count": len(hits),
        "knot_count": knots,
    }
    lines = [f"diverging pairs: {len(hits)} (block length <= {args.max_len}), {knots} close to knots"]
    for hit in hits:
        flags = f"knot={'yes' if hit.is_knot else 'no'} oracle={'ok' if hit.oracle_equal else 'MISMATCH'}"
        lines.append(f"{hit.left.format()} | {hit.right.format()} {flags}")
    return 0, data, lines


def _cmd_selftest(args) -> Output:
    from .acceptance import run_all

    results = run_all(quick=args.quick)
    data = [
        {"number": r.number, "name": r.name, "passed": r.passed,
         "detail": r.detail, "seconds": round(r.seconds, 3)}
        for r in results
    ]
    return 0 if all(r.passed for r in results) else 1, data, [r.format() for r in results]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidskein",
        description="Resolve closed braid diagrams into exact skein combinations",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        sub.add_argument("--json", action="store_true", help="machine-readable output")
        return sub

    def add_word(name, handler, help_text, basepoint=False):
        sub = add(name, handler, help_text)
        sub.add_argument("word", help='braid word, e.g. "2: 1 1 1"')
        if basepoint:
            sub.add_argument("--basepoint", type=int, default=1,
                             help="start the walk at this strand (diagnostic)")
        return sub

    add_word("resolve", _cmd_resolve, "skein combination of the closure", basepoint=True)
    add_word("labels", _cmd_labels, "good/bad label of every crossing", basepoint=True)
    add_word("tree", _cmd_tree, "full branching of the resolution", basepoint=True)
    add_word("parity", _cmd_parity, "check k = p - n on the output", basepoint=True)
    add_word("nugatory", _cmd_nugatory, "scan all single crossing changes", basepoint=True)

    odd = add_word("odd-change", _cmd_odd_change, "flip a set of crossings and compare")
    odd.add_argument("ids", type=int, nargs="+", help="crossing ids to flip")

    add_word("homfly", _cmd_homfly, "polynomial in l and m via the bridge")
    add_word("jones", _cmd_jones, "Jones specialization in t")
    add_word("mfw", _cmd_mfw, "braid index lower bound from the bridge")
    add_word("certify3", _cmd_certify3, "certify braid index 3 for a 3-strand word")

    flype = add("flype-test", _cmd_flype_test, "compare the two sides of a flype")
    flype.add_argument("a", type=int)
    flype.add_argument("b", type=int)
    flype.add_argument("c", type=int)
    flype.add_argument("eps", type=int, choices=(1, -1))

    exchange = add("exchange-test", _cmd_exchange_test, "compare the two sides of an exchange")
    exchange.add_argument("u", help='block word, e.g. "2: 1 1"')
    exchange.add_argument("v", help='block word on the same strands')

    search = add("exchange-search", _cmd_exchange_search,
                 "find 4-strand exchange pairs with different outputs")
    search.add_argument("--max-len", type=int, default=3,
                        help="block length bound (default 3)")

    selftest = add("selftest", _cmd_selftest, "run the acceptance battery")
    selftest.add_argument("--quick", action="store_true",
                          help="reduced scales, finishes in seconds")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return 0 if stop.code in (0, None) else 2
    # Exact coefficients may run past the interpreter's digit limit for int
    # to text (3.10.7 and later); lift it for this call only.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        code, data, lines = args.handler(args)
        if args.json:
            print(json.dumps(data, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head`); silence the interpreter's final flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except ValueError as problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    except Exception as problem:
        print(f"internal error: {type(problem).__name__}: {problem}", file=sys.stderr)
        return 3
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
