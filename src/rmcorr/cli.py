"""Command-line front end.

Exit codes: 0 success (and oracle agreement when --verify is used);
1 elimination failure; 2 input/parse error or an --out file that cannot be
written; 3 verification disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .corpus import BUNDLED, load_corpus
from .frames import MAX_WORLDS, BudgetError, correspondence_check
from .pipeline import correspondent
from .render import OutputFormat, render, render_report, result_to_json
from .syntax import ParseError, SyntaxMode, parse

EXIT_OK = 0
EXIT_ELIMINATION = 1
EXIT_INPUT = 2
EXIT_DISAGREE = 3

_MODES = {"relevance": SyntaxMode.RELEVANCE, "bi": SyntaxMode.BI,
          "ra": SyntaxMode.RELATION_ALGEBRA}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rmcorr",
        description="Compute first-order frame correspondents of relevance, "
                    "BI and relation-algebra formulas, with optional "
                    "brute-force verification on all small frames.")
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", "-i", metavar="FORMULA",
                     help="formula in the selected surface syntax")
    src.add_argument("--file", metavar="PATH",
                     help="read the formula from a file")
    src.add_argument("--corpus", metavar="NAME",
                     help=f"run a corpus; '{BUNDLED}' is shipped, otherwise "
                          "a path to a JSONL corpus file")
    ap.add_argument("--syntax", choices=sorted(_MODES), default="relevance")
    ap.add_argument("--format", choices=[f.value for f in OutputFormat],
                    default="tex")
    ap.add_argument("--verify", type=int, default=0, metavar="N",
                    help="check the correspondent against frame validity on "
                         "all frames with up to N worlds "
                         f"(0 = skip, max {MAX_WORLDS})")
    ap.add_argument("--trace", action="store_true",
                    help="include the rule-by-rule derivation")
    ap.add_argument("--expand-leq", action="store_true",
                    help="unfold the derived order into O and R in sentence "
                         "output")
    ap.add_argument("--out", metavar="PATH", help="write the report to a file")
    return ap


def _emit(text: str, out: str | None, code: int) -> int:
    """Write the report and return code, or EXIT_INPUT when out cannot be
    written."""
    if not out:
        sys.stdout.write(text)
        return code
    try:
        Path(out).write_text(text, "utf-8")
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    return code


def _run_single(args) -> int:
    mode = _MODES[args.syntax]
    if args.input is not None:
        source = args.input
    else:
        try:
            source = Path(args.file).read_text("utf-8").strip()
        except OSError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_INPUT
    try:
        phi = parse(source, mode)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_INPUT
    result = correspondent(phi, mode)
    fmt = OutputFormat(args.format)
    report = render_report(result, fmt, expand=args.expand_leq,
                           name="input", trace=args.trace)
    if fmt is OutputFormat.JSON:
        report += "\n"  # render_report's JSON ends at its closing brace
    if result.status != "success":
        return _emit(report, args.out, EXIT_ELIMINATION)
    if not args.verify:
        return _emit(report, args.out, EXIT_OK)
    try:
        rep = correspondence_check(phi, result.fo, args.verify,
                                   mode=args.syntax)
    except (BudgetError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    if fmt is OutputFormat.JSON:
        # one JSON document: the verdict goes inside the report
        report = json.dumps(dict(result_to_json(result, trace=args.trace),
                                 verification=rep.to_json()),
                            indent=2, sort_keys=True) + "\n"
    elif rep.agree:
        report += (f"Verified: agreement on all {rep.frames_checked} "
                   f"frames with up to {args.verify} worlds\n")
    else:
        report += ("Verification FAILED; counterexample frame: "
                   + str(rep.counterexample.to_json()) + "\n")
    return _emit(report, args.out, EXIT_OK if rep.agree else EXIT_DISAGREE)


def _run_corpus(args) -> int:
    mode = _MODES[args.syntax]
    fmt = OutputFormat(args.format)
    try:
        entries = load_corpus(args.corpus)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    lines = []
    any_parse_error = False
    any_failure = False
    any_disagree = False
    for entry in entries:
        try:
            phi = parse(entry.formula, mode)
        except ParseError as exc:
            lines.append(f"{entry.name}\tparse-error\t{exc}")
            any_parse_error = True
            continue
        result = correspondent(phi, mode)
        if result.status != "success":
            lines.append(f"{entry.name}\tfailed\t-\t-")
            any_failure = True
            continue
        order = ",".join(o for g in result.goals for o in g.order)
        rendered = render(result.fo, fmt, expand_leq=args.expand_leq,
                          name=entry.name)
        notes = []
        if entry.expected_fo is not None:
            tex = render(result.fo, OutputFormat.TEX)
            if tex != entry.expected_fo:
                notes.append("expected-mismatch")
                any_disagree = True
        if args.verify:
            try:
                rep = correspondence_check(phi, result.fo, args.verify,
                                           mode=args.syntax)
            except (BudgetError, ValueError) as exc:
                sys.stderr.write(f"error: {entry.name}: {exc}\n")
                return EXIT_INPUT
            if not rep.agree:
                notes.append("oracle-disagreement")
                any_disagree = True
        lines.append(f"{entry.name}\tok\t[{order}]\t{rendered}"
                     + ("\t" + ";".join(notes) if notes else ""))
    if any_disagree:
        code = EXIT_DISAGREE
    elif any_parse_error:
        code = EXIT_INPUT
    elif any_failure:
        code = EXIT_ELIMINATION
    else:
        code = EXIT_OK
    return _emit("\n".join(lines) + "\n", args.out, code)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verify < 0:
        sys.stderr.write("error: --verify needs N >= 0\n")
        return EXIT_INPUT
    if args.verify > MAX_WORLDS:
        sys.stderr.write(f"error: --verify is capped at {MAX_WORLDS} worlds\n")
        return EXIT_INPUT
    if args.trace and args.corpus is not None:
        sys.stderr.write("error: --trace needs --input or --file\n")
        return EXIT_INPUT
    try:
        if args.corpus is not None:
            return _run_corpus(args)
        return _run_single(args)
    except RecursionError:
        # substitution, the translator, the cleanup's map_up and the parser
        # (on parentheses) recurse; the oracle compiles about 200 levels
        sys.stderr.write("error: input is nested too deeply\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
