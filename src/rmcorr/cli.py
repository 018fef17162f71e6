"""Command-line front end.

Exit codes: 0 success (and oracle agreement when --verify is used);
1 elimination failure; 2 input/parse error or an --out file that cannot be
written; 3 verification disagreement.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import BUNDLED, load_corpus
from .frames import MAX_WORLDS, correspondence_check
from .pipeline import correspondent
from .render import OutputFormat, render, render_report
from .syntax import ParseError, SyntaxMode, parse

EXIT_OK = 0
EXIT_ELIMINATION = 1
EXIT_INPUT = 2
EXIT_DISAGREE = 3


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
    ap.add_argument("--syntax", choices=sorted(m.value for m in SyntaxMode),
                    default="relevance")
    ap.add_argument("--format", choices=[f.value for f in OutputFormat],
                    default="tex")
    ap.add_argument("--verify", type=int, default=0, metavar="N",
                    help="check the correspondent against frame validity on "
                         "all frames with up to N worlds "
                         f"(0 = skip, max {MAX_WORLDS})")
    ap.add_argument("--trace", action="store_true",
                    help="include the rule-by-rule derivation")
    ap.add_argument("--expand-leq", action="store_true",
                    help="unfold the derived order into O and R in corpus "
                         "rows and a text report's last correspondent line")
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


def _verify(phi, result, args):
    """The oracle's report when the run succeeded and --verify is set."""
    if result.status != "success" or not args.verify:
        return None
    return correspondence_check(phi, result.fo, args.verify, mode=args.syntax)


def _run_single(args) -> int:
    mode = SyntaxMode(args.syntax)
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
    try:
        rep = _verify(phi, result, args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    report = render_report(result, OutputFormat(args.format),
                           expand=args.expand_leq, name="input",
                           trace=args.trace, verification=rep)
    code = (EXIT_ELIMINATION if result.status != "success"
            else EXIT_OK if rep is None or rep.agree else EXIT_DISAGREE)
    return _emit(report, args.out, code)


def _run_corpus(args) -> int:
    mode = SyntaxMode(args.syntax)
    fmt = OutputFormat(args.format)
    try:
        entries = load_corpus(args.corpus)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    # the exit code is the highest of any entry's
    lines = []
    code = EXIT_OK
    for entry in entries:
        try:
            phi = parse(entry.formula, mode)
        except ParseError as exc:
            lines.append(f"{entry.name}\tparse-error\t{exc}")
            code = max(code, EXIT_INPUT)
            continue
        result = correspondent(phi, mode)
        if result.status != "success":
            lines.append(f"{entry.name}\tfailed\t-\t-")
            code = max(code, EXIT_ELIMINATION)
            continue
        order = ",".join(o for g in result.goals for o in g.order)
        rendered = render(result.fo, fmt, expand_leq=args.expand_leq,
                          name=entry.name)
        notes = []
        if entry.expected_fo is not None:
            tex = render(result.fo, OutputFormat.TEX)
            if tex != entry.expected_fo:
                notes.append("expected-mismatch")
                code = max(code, EXIT_DISAGREE)
        try:
            rep = _verify(phi, result, args)
        except ValueError as exc:
            sys.stderr.write(f"error: {entry.name}: {exc}\n")
            return EXIT_INPUT
        if rep is not None and not rep.agree:
            notes.append("oracle-disagreement")
            code = max(code, EXIT_DISAGREE)
        lines.append(f"{entry.name}\tok\t[{order}]\t{rendered}"
                     + ("\t" + ";".join(notes) if notes else ""))
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
        # recursive walkers: the cleanup's fol.map_up (on CPython 3.11 a
        # \sim chain fails there from 494 deep, a \to chain from 249 long),
        # substitution (deeper chains), the translator and the parser (on
        # parentheses); the oracle compiles about 200 levels (with --verify
        # a \sim chain fails from 199)
        sys.stderr.write("error: input is nested too deeply\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
