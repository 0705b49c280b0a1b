"""Command-line driver: suites, demos, ad-hoc evaluation, corpus generation.

Exit status is nonzero exactly when some case fails; Unknown rows do
not fail a suite.  JSON reports are byte-identical across identical
invocations: cases carry no timestamps and keys are sorted.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .elements import Construction, LAMBDA, format_element, parse_element
from .evaluate import Truth, evaluate
from .formulas import free_vars, parse_formula
from .fragments import FragmentConfig
from .suites import DEMOS, SUITES, SuiteOptions, SuiteReport, gen_corpus, run_suite


def _construction(text: str) -> Construction:
    try:
        return Construction(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown construction {text!r} (expected gamma or lambda)"
        ) from None


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oagw",
        description="ordered-abelian-group workbench: suites, demos, evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a verification suite")
    check.add_argument("suite", choices=sorted(SUITES), metavar="suite")
    check.add_argument("--construction", type=_construction, default=None)
    check.add_argument("--seed", type=int, default=42)
    check.add_argument("--samples", type=_int_at_least(1), default=None)
    check.add_argument("--coeff-bound", type=_int_at_least(0), default=None)
    check.add_argument("--json", dest="json_path", default=None, metavar="PATH")

    demo = sub.add_parser("demo", help="run a named demonstration")
    demo.add_argument("name", choices=sorted(DEMOS), metavar="demo")
    demo.add_argument("--seed", type=int, default=42)
    demo.add_argument("--json", dest="json_path", default=None, metavar="PATH")

    ev = sub.add_parser("eval", help="evaluate a formula")
    ev.add_argument(
        "--construction",
        type=_construction,
        default=LAMBDA,
        metavar="gamma|lambda",
        help="gamma or lambda (default: lambda)",
    )
    ev.add_argument("--formula", required=True)
    ev.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="VAR=LITERAL",
        help="free-variable binding, repeatable",
    )
    ev.add_argument("--coeff-bound", type=_int_at_least(0), default=2)
    ev.add_argument("--size-cap", type=_int_at_least(1), default=600)
    ev.add_argument(
        "--pool",
        action="append",
        default=[],
        metavar="LITERAL",
        help="extra fragment generator, repeatable",
    )

    gen = sub.add_parser("gen", help="generate inputs")
    gensub = gen.add_subparsers(dest="what", required=True)
    corpus = gensub.add_parser("corpus", help="emit a formula corpus")
    corpus.add_argument("--kind", choices=("exists", "ea"), required=True)
    corpus.add_argument("--count", type=_int_at_least(1), default=20)
    corpus.add_argument("--seed", type=int, default=42)
    corpus.add_argument(
        "--construction",
        type=_construction,
        default=LAMBDA,
        metavar="gamma|lambda",
        help="gamma or lambda (default: lambda)",
    )
    return parser


def _emit_report(report: SuiteReport, json_path: Optional[str]) -> int:
    print(report.summary())
    for case in report.cases:
        if case.verdict != "pass":
            rendered = ", ".join(f"{k}={v}" for k, v in case.inputs.items())
            print(f"  [{case.verdict}] {rendered}  {case.detail}")
    if json_path:
        payload = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"wrote {json_path}")
    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "check":
        if args.samples is not None and SUITES[args.suite].samples is None:
            parser.error(f"{args.suite} runs a fixed scan and takes no --samples")
        opts = SuiteOptions(
            construction=args.construction,
            seed=args.seed,
            samples=args.samples,
            coeff_bound=args.coeff_bound,
        )
        try:
            opts = SUITES[args.suite].options(opts)
        except ValueError as exc:
            parser.error(str(exc))
        report = run_suite(args.suite, opts)
        return _emit_report(report, args.json_path)

    if args.command == "demo":
        report = DEMOS[args.name](SuiteOptions(seed=args.seed))
        return _emit_report(report, args.json_path)

    if args.command == "eval":
        construction = args.construction
        try:
            formula = parse_formula(args.formula, construction)
            free = free_vars(formula)
            env = {}
            for binding in args.bind:
                if "=" not in binding:
                    raise ValueError(f"bad binding {binding!r}, expected VAR=LITERAL")
                var, lit = (part.strip() for part in binding.split("=", 1))
                if var in env:
                    raise ValueError(f"variable {var!r} is bound more than once")
                # a binding would seed every fragment of the search
                if var not in free:
                    raise ValueError(f"variable {var!r} is not free in the formula")
                env[var] = parse_element(lit, construction)
            unbound = free - env.keys()
            if unbound:
                raise ValueError(
                    f"unbound free variables {sorted(unbound)}; bind each with --bind VAR=LITERAL"
                )
            pool = tuple(parse_element(lit, construction) for lit in args.pool)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cfg = FragmentConfig(
            coeff_bound=args.coeff_bound, generator_pool=pool, size_cap=args.size_cap
        )
        verdict = evaluate(construction, formula, env, cfg)
        print(f"verdict: {verdict.truth.value}")
        if verdict.witness:
            for var, val in verdict.witness.items():
                kind = "counterexample" if verdict.truth is Truth.FALSE else "witness"
                print(f"{kind} {var} = {format_element(val)}")
        if verdict.truth is Truth.UNKNOWN and verdict.reason:
            print(f"reason: {verdict.reason}")
        return 0

    if args.command == "gen" and args.what == "corpus":
        for line in gen_corpus(args.kind, args.count, args.seed, args.construction):
            print(line)
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
