"""Command line tools over .pmx matrices and .ckt circuits.

Exit codes: 0 ok, 2 unusable input, 3 a size limit refused the input, 4
broken internal invariant.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from .circuits import extract_linear_operator, linearize, metrics, parse_ckt
from .codes import CodeMatrixSpec, code_matrix, gv_bound, hamming_bound, verify_ka_is_ball
from .config import ToolConfig
from .errors import LimitError, ParseError, ToolkitError
from .gf2 import vec_text
from .partial import min_rank_completion
from .pmx import emit_pmx, parse_pmx
from .report import best_epsilon, format_report, report, search
from .solutions import forbidden_set, lin_exact, opt_exact


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _config(args) -> ToolConfig:
    """The ToolConfig of the options given; one left out keeps its default."""
    given = {
        "opt_n": args.limit_n,
        "seed": getattr(args, "seed", None),
        "out": getattr(args, "out", None),
    }
    return ToolConfig(**{k: v for k, v in given.items() if v is not None})


def _print_vectors(vectors, n: int):
    for x in vectors:
        print(vec_text(x, n))


def _deadline(args) -> float | None:
    ms = getattr(args, "timeout_ms", None)
    if ms is not None and ms < 0:
        raise ValueError(f"timeout must be nonnegative, got {ms} ms")
    return None if ms is None else time.monotonic() + ms / 1000.0


def cmd_report(args) -> int:
    cfg = _config(args)
    reports = [report(parse_pmx(_read(path)), cfg) for path in args.files]
    for path, rep in zip(args.files, reports):
        if len(args.files) > 1:
            print(f"== {path}")
        print(format_report(rep))
    return 0


def cmd_minrank(args) -> int:
    A = parse_pmx(_read(args.file))
    r, W = min_rank_completion(A, _deadline(args))
    print(f"min_rank: {r}")
    print("completion:")
    _print_vectors(W.rows, A.n)
    return 0


def cmd_opt(args) -> int:
    A = parse_pmx(_read(args.file))
    cfg = _config(args)
    value, sol = opt_exact(A, limit_n=cfg.opt_n, deadline=_deadline(args))
    print(f"opt: {value}")
    if args.witness:
        _print_vectors(sol.sorted_members(), A.n)
    return 0


def cmd_lin(args) -> int:
    A = parse_pmx(_read(args.file))
    print(f"lin: {lin_exact(A)}")
    return 0


def cmd_ka(args) -> int:
    A = parse_pmx(_read(args.file))
    F = forbidden_set(A)
    print(f"size: {F.size}")
    _print_vectors(F.vectors(), A.n)
    return 0


def cmd_search(args) -> int:
    m, n = args.shape
    cfg = _config(args)

    def printed(records):
        for rec in records:
            if cfg.out is None:
                print(rec.to_json())
            yield rec

    best = best_epsilon(printed(search(m, n, args.mode, count=args.count, config=cfg)))
    if best is None:
        print("# best epsilon: none")
    else:
        print(f"# best epsilon: {best.epsilon:.6g} matrix={best.matrix}")
    return 0


def cmd_circuit(args) -> int:
    F = parse_ckt(_read(args.file))
    stats = metrics(F)
    if args.action == "check":
        print(f"inputs: {F.n}")
        print(f"outputs: {F.m}")
        print(f"width: {stats['width']}")
        print(f"degree: {stats['degree']}")
        print(f"match_size: {stats['match_size']}")
        M = extract_linear_operator(F)
        if M is None:
            print("linear: no")
            return 0
        print("linear: yes")
        print("operator:")
        _print_vectors(M.rows, F.n)
        return 0
    L = linearize(F)
    print(f"width: {L.width}")
    print(f"degree: {L.degree}")
    print("direct:")
    _print_vectors(L.direct.rows, L.n)
    print("middle:")
    _print_vectors(L.middle.rows, L.n)
    print("combine:")
    _print_vectors(L.combine.rows, max(L.middle.m, 1))
    return 0


def cmd_codes(args) -> int:
    spec = CodeMatrixSpec(args.n, args.r)
    if args.action == "gen":
        text = emit_pmx(code_matrix(spec))
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0
    if args.action == "bounds":
        print(f"rows: {spec.rows}")
        print(f"distance: {spec.r + 1}")
        print(f"hamming_bound: {hamming_bound(spec.n, spec.r)}")
        print(f"gv_bound: {gv_bound(spec.n, spec.r)}")
        return 0
    ok = verify_ka_is_ball(spec)
    print(f"forbidden set equals the punctured radius-{spec.r} ball: {'yes' if ok else 'no'}")
    return 0 if ok else 4


def _shape(text: str) -> tuple[int, int]:
    got = re.fullmatch(r"(\d+)x(\d+)", text, re.IGNORECASE)
    if got is None:
        raise argparse.ArgumentTypeError(f"expected MxN, got {text!r}")
    m, n = int(got.group(1)), int(got.group(2))
    if m < 1 or n < 1:
        raise argparse.ArgumentTypeError("shape sides must be positive")
    return m, n


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="minrank", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("report", help="every statistic for one or more matrices")
    q.add_argument("files", nargs="+", metavar="FILE")
    q.add_argument("--limit-n", type=int, default=None)
    q.set_defaults(func=cmd_report)

    q = sub.add_parser("minrank", help="minimum rank and a witness completion")
    q.add_argument("file", metavar="FILE")
    q.add_argument("--timeout-ms", type=int, default=None)
    q.set_defaults(func=cmd_minrank)

    q = sub.add_parser("opt", help="exact maximum solution size")
    q.add_argument("file", metavar="FILE")
    q.add_argument("--limit-n", type=int, default=None)
    q.add_argument("--timeout-ms", type=int, default=None)
    q.add_argument("--witness", action="store_true", help="print the witness vectors")
    q.set_defaults(func=cmd_opt)

    q = sub.add_parser("lin", help="maximum linear solution size")
    q.add_argument("file", metavar="FILE")
    q.set_defaults(func=cmd_lin)

    q = sub.add_parser("ka", help="enumerate the forbidden set")
    q.add_argument("file", metavar="FILE")
    q.set_defaults(func=cmd_ka)

    q = sub.add_parser("search", help="sweep a shape and log one record per matrix")
    q.add_argument("--shape", type=_shape, required=True, metavar="MxN")
    q.add_argument("--mode", choices=("exhaustive", "random"), default="random")
    q.add_argument("--count", type=int, default=None)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--out", default=None, metavar="LOG")
    q.add_argument("--limit-n", type=int, default=None)
    q.set_defaults(func=cmd_search)

    q = sub.add_parser("circuit", help="inspect or linearize a depth-2 circuit")
    q.add_argument("action", choices=("check", "linearize"))
    q.add_argument("file", metavar="FILE")
    q.set_defaults(func=cmd_circuit)

    q = sub.add_parser("codes", help="code matrices and their bounds")
    q.add_argument("action", choices=("gen", "bounds", "verify"))
    q.add_argument("n", type=int)
    q.add_argument("r", type=int)
    q.add_argument("--out", default=None, metavar="FILE")
    q.set_defaults(func=cmd_codes)

    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
