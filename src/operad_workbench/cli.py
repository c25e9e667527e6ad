"""Command-line front end.

Subcommands parse a presentation file (and term or tree expressions),
then delegate: `classify` reports the labelling class of each equation,
`term-info` splits a term into its leaf shape and labelling function,
`eval` evaluates a term in a builtin target, `decide` answers whether
two objects carry a 2-cell, `classes` lists the object partition at an
arity, `strictify` builds the strict category from a saved weak
instance and runs its checks, and `perm` exposes block composition.

Exit codes: 0 for pass or yes, 1 for fail or no, 2 for unknown, 3 for
usage, parse, or data errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .finmaps import FinMapError, block_compose, format_fn, parse_perm
from .operads import (Interpretation, OperadError, builtin_operad,
                      default_assignment, validate_interpretation)
from .strictify import (StrictifyError, check_equivalence, check_strictness,
                        strictify)
from .terms import (MAX_STEPS, MAX_TERM_SIZE, PresentationError, TermError,
                    classify_equation, classify_presentation, classify_term,
                    format_equation, format_term, max_var,
                    parse_presentation, parse_term, term_size, var_seq)
from .trees import TreeError, format_fp_tree, to_object, to_tree
from .weakcat import WeakcatError, load_weakcat
from .weakening import WeakeningContext, WeakeningError

_INPUT_ERRORS = (FinMapError, TermError, PresentationError, TreeError,
                 OperadError, WeakeningError, WeakcatError, StrictifyError,
                 OSError, json.JSONDecodeError)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive budget")
    return value


def _arity(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"arity {value} is negative")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="operad-workbench",
                     description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON payload instead of text")
    budgets = _Parser(add_help=False)
    budgets.add_argument("--max-size", type=_positive, default=MAX_TERM_SIZE)
    budgets.add_argument("--steps", type=_positive, default=MAX_STEPS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="labelling class of each equation")
    p.add_argument("file", type=Path)

    p = sub.add_parser("term-info", parents=[common],
                       help="size, variables, class, and shape of a term")
    p.add_argument("file", type=Path)
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("term")

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a term in a builtin target")
    p.add_argument("file", type=Path)
    p.add_argument("--target", required=True)
    p.add_argument("--arity", type=int, default=None,
                   help="declared arity (default: the largest variable)")
    p.add_argument("term")

    p = sub.add_parser("decide", parents=[common, budgets],
                       help="is there a 2-cell between two objects")
    p.add_argument("file", type=Path)
    p.add_argument("--target", default=None,
                   help="decide by evaluation in this builtin target")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("classes", parents=[common, budgets],
                       help="the object partition at an arity")
    p.add_argument("file", type=Path)
    p.add_argument("--target", default=None)
    p.add_argument("--arity", type=_arity, required=True)

    p = sub.add_parser("strictify", parents=[common],
                       help="build the strict category from a saved weak "
                            "instance and run its checks")
    p.add_argument("file", type=Path)
    p.add_argument("--arity-bound", type=_positive, default=3)
    p.add_argument("--element-bound", type=_positive, default=20)

    p = sub.add_parser("perm", parents=[common],
                       help="permutation utilities")
    p.add_argument("operation", choices=("block-compose",))
    p.add_argument("perms", nargs="+",
                   help="the outer permutation, then one inner per slot")
    return parser


def _emit(args, payload: dict, lines: list[str]):
    if args.json:
        print(json.dumps(payload, ensure_ascii=False, indent=2,
                         sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load_presentation(path: Path):
    return parse_presentation(path.read_text(encoding="utf-8"))


def _context(args, presentation) -> WeakeningContext:
    """The context of decide and classes. A target whose stock
    assignment breaks an equation would decide in another theory, so it
    is refused, naming the first such equation; the fp flavor is
    refused first, by the context itself."""
    interpretation = None
    if args.target is not None:
        operad = builtin_operad(args.target, presentation)
        interpretation = Interpretation(
            presentation, operad, default_assignment(presentation, operad))
    ctx = WeakeningContext(presentation, interpretation,
                           max_term_size=args.max_size, max_steps=args.steps)
    if interpretation is not None:
        report = validate_interpretation(interpretation)
        if not report.ok:
            raise OperadError(f"target {args.target} breaks the theory: "
                              f"{report.failures[0]}")
    return ctx


def cmd_classify(args) -> int:
    presentation = _load_presentation(args.file)
    rows = [{"equation": format_equation(eq), "class": classify_equation(eq)}
            for eq in presentation.equations]
    overall = classify_presentation(presentation)
    payload = {"theory": presentation.name, "flavor": presentation.flavor,
               "equations": rows, "overall": overall}
    lines = [f"theory {presentation.name} ({presentation.flavor})"]
    lines += [f"  {row['equation']}  ->  {row['class']}" for row in rows]
    lines.append(f"overall: {overall}")
    _emit(args, payload, lines)
    return 0


def cmd_term_info(args) -> int:
    presentation = _load_presentation(args.file)
    term = parse_term(args.term, presentation.signature)
    pair = to_tree(term, args.arity)
    payload = {
        "term": format_term(term),
        "arity": args.arity,
        "size": term_size(term),
        "variables": list(var_seq(term)),
        "class": classify_term(term, args.arity),
        "split": format_fp_tree(pair),
    }
    _emit(args, payload, [f"{key}: {value}" for key, value in payload.items()])
    return 0


def cmd_eval(args) -> int:
    presentation = _load_presentation(args.file)
    term = parse_term(args.term, presentation.signature)
    arity = args.arity if args.arity is not None else max_var(term)
    operad = builtin_operad(args.target, presentation)
    interpretation = Interpretation(
        presentation, operad, default_assignment(presentation, operad))
    value = interpretation.eval_term(term, arity)
    payload = {"term": format_term(term), "arity": arity,
               "target": args.target,
               "element": operad.format_element(value)}
    _emit(args, payload, [f"{payload['element']}"])
    return 0


def cmd_decide(args) -> int:
    presentation = _load_presentation(args.file)
    ctx = _context(args, presentation)
    left = parse_term(args.left, presentation.signature)
    right = parse_term(args.right, presentation.signature)
    o1 = to_object(left, max_var(left))
    o2 = to_object(right, max_var(right))
    decision = ctx.two_cell(o1, o2)
    trace = None
    lines = [f"{decision.answer}: {decision.reason}"]
    if decision.trace is not None:
        trace = []
        for step in decision.trace:
            at = ".".join(str(i) for i in step.position) or "root"
            trace.append({"source": format_term(step.source),
                          "target": format_term(step.target),
                          "equation": step.eq_index,
                          "forward": step.forward,
                          "position": at})
            arrow = "->" if step.forward else "<-"
            lines.append(f"  {trace[-1]['source']} {arrow} "
                         f"{trace[-1]['target']}  (equation {step.eq_index} "
                         f"at {at})")
    payload = {"answer": decision.answer, "reason": decision.reason,
               "trace": trace}
    _emit(args, payload, lines)
    return {"yes": 0, "no": 1, "unknown": 2}[decision.answer]


def cmd_classes(args) -> int:
    presentation = _load_presentation(args.file)
    ctx = _context(args, presentation)
    classes = ctx.enumerate_classes(args.arity, args.max_size)
    rows = []
    for cls in classes:
        rows.append({
            "arity": cls.arity,
            "element": (ctx.interpretation.operad.format_element(cls.element)
                        if cls.element is not None else None),
            "members": [ctx.format_object(m) for m in cls.members],
        })
    payload = {"arity": args.arity, "max_size": args.max_size,
               "count": len(rows), "classes": rows}
    lines = [f"{len(rows)} classes at arity {args.arity}, "
             f"size <= {args.max_size}"]
    for i, row in enumerate(rows):
        head = f"class {i}: {len(row['members'])} objects"
        if row["element"] is not None:
            head += f", element {row['element']}"
        lines.append(head)
        lines.extend(f"  {m}" for m in row["members"])
    _emit(args, payload, lines)
    return 0


def cmd_strictify(args) -> int:
    W = load_weakcat(args.file.read_text(encoding="utf-8"))
    S = strictify(W, args.arity_bound, args.element_bound)
    strictness = check_strictness(S)
    comparison = check_equivalence(S, W)
    ok = strictness.ok and comparison.ok
    payload = {
        "objects": len(S.objects),
        "strictness": {"checked": strictness.checked,
                       "failures": strictness.failures},
        "comparison": {"checked": comparison.checked,
                       "failures": comparison.failures},
        "ok": ok,
    }
    lines = [f"objects: {len(S.objects)}", "strictness:"]
    lines += [f"  {line}" for line in strictness.lines()]
    lines.append("comparison:")
    lines += [f"  {line}" for line in comparison.lines()]
    lines.append("PASS" if ok else "FAIL")
    _emit(args, payload, lines)
    return 0 if ok else 1


def cmd_perm(args) -> int:
    perms = [parse_perm(text) for text in args.perms]
    sigma, taus = perms[0], perms[1:]
    if len(taus) != sigma.cod:
        raise UsageError(
            f"block composition of a permutation of {sigma.cod} needs "
            f"{sigma.cod} inner permutations, got {len(taus)}")
    result = block_compose(sigma, taus)
    payload = {"result": format_fn(result)}
    _emit(args, payload, [payload["result"]])
    return 0


_HANDLERS = {
    "classify": cmd_classify,
    "term-info": cmd_term_info,
    "eval": cmd_eval,
    "decide": cmd_decide,
    "classes": cmd_classes,
    "strictify": cmd_strictify,
    "perm": cmd_perm,
}


@functools.cache
def _parser() -> _Parser:
    """The parser tree, built on first use: argparse keeps no state
    between parses, so one tree serves every call in the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
