"""Command-line interface: invariant reports, relation checks, and plots.

All reports are deterministic: a fixed input produces byte-identical output
except for the optional timing field, which --no-timing suppresses.  With
--cache DIR invariant reports are stored keyed by the canonical form of the
expression.  A report is encoded once, and the same text goes to the entry
and to stdout; a hit writes the entry's text as stored, so a hit on an entry
that cfk wrote emits the bytes of a fresh run, and a whole entry written by
hand is served as it stands, layout included.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from gettext import gettext
from importlib import import_module
from math import gcd, log10, prod

from .expressions import (
    InvalidTorusKnotError,
    KnotExpressionError,
    canonical_factors,
    spell_expression,
)

# The names that compute, by the module that holds them.  Each is bound as a
# global of this module when a command first builds something (_bind) or when
# another module first reads it (__getattr__), so that a cache hit, a syntax
# error or --help loads none of these modules.  A name already bound, as a
# patch binds it, is kept, and every call looks it up as a global.
_COMPUTING = {
    "fractions": ("Fraction",),
    ".complexes": ("knot_complex", "torus_knot_complex", "torus_knot_size"),
    ".exactnum": ("PiecewiseLinear",),
    ".semigroup": ("_torus_pair", "alexander_torus", "step_vector"),
    ".upsilon": ("upsilon",),
    ".upsilon2": ("upsilon2_at",),
}


def _bind() -> None:
    names = globals()
    for module, attrs in _COMPUTING.items():
        for attr in attrs:
            if attr not in names:
                names[attr] = getattr(import_module(module, __package__), attr)


def __getattr__(name):
    if not any(name in attrs for attrs in _COMPUTING.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind()
    return globals()[name]

SCHEMA_VERSION = 1
CACHE_ENV_VAR = "CFK_CACHE_DIR"
_REPORT_KEYS = {"schema_version", "expression", "generator_count", "upsilon", "singularities"}

EXIT_OK = 0
EXIT_NOT_DISTINGUISHED = 1
EXIT_UNEQUAL = 1
EXIT_USAGE = 2
EXIT_IO = 3

# above T(11,13) # T(7,12), 2911 generators and about 3 minutes of search;
# 8 x T(2,3) has 6561
DEFAULT_MAX_GENERATORS = 5000


class ComplexTooLargeError(ValueError):
    """The complex of an expression has more generators than the limit."""


def _check_size(factors, limit: int) -> None:
    """ComplexTooLargeError if the complex of factors (sign, p, q) would exceed limit generators."""
    _bind()
    # T(p,q) with 2 <= p < q has at least q generators: refuse it before counting
    pairs = [_torus_pair(p, q) for _, p, q in factors]
    at_least = [b for a, b in pairs if a > max(limit, 1)]
    count = (f"at least {at_least[0]}" if at_least
             else prod(torus_knot_size(a, b) for a, b in pairs))
    if at_least or count > limit:
        raise ComplexTooLargeError(
            f"{spell_expression(factors)} has {_count_text(count)} generators, "
            f"more than --max-generators {limit}"
        )


def _count_text(count) -> str:
    """count in decimal, or its number of digits where str() refuses an int that long."""
    try:
        return str(count)
    except ValueError:  # past sys.get_int_max_str_digits()
        # count has `digits` or `digits + 1` digits, as log10(2) < 1
        digits = int(count.bit_length() * log10(2))
        return f"a {digits + (count >= 10 ** digits)}-digit number of"


def _fmt(x: Fraction) -> str:
    return str(Fraction(x))


def _breakpoints(ups: PiecewiseLinear) -> list[list[str]]:
    return [[_fmt(t), _fmt(v)] for t, v in ups.breakpoints]


def _upsilon2s(complex_, ups: PiecewiseLinear):
    """(t0, jump, upsilon2 if jump > 0 else None) at each singularity of ups, lazily."""
    for t0, jump in ups.singularities():
        yield t0, jump, upsilon2_at(complex_, t0, ups=ups) if jump > 0 else None


def build_invariant_report(expression: str) -> dict:
    """Invariant report for a knot expression, without the timing field."""
    return _invariant_report(canonical_factors(expression))


def _invariant_report(factors) -> dict:
    _bind()
    complex_ = knot_complex(factors)
    ups = upsilon(complex_)
    entries = []
    for t0, jump, value in _upsilon2s(complex_, ups):
        entry = {"t": _fmt(t0), "slope_jump": _fmt(jump)}
        if value is None:
            entry.update(upsilon2=None, reason="slope jump is not positive")
        else:
            entry["upsilon2"] = _fmt(value)
        entries.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "expression": spell_expression(factors),
        "generator_count": len(complex_.generators),
        "upsilon": {"breakpoints": _breakpoints(ups)},
        "singularities": entries,
    }


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False)


def _emit_text(text: str, timing_ms=None) -> None:
    """Write a JSON object's text; timing_ms, if given, goes in as its last field."""
    if timing_ms is not None:
        # in place of the closing brace: for indent-2 text, the bytes that
        # encoding the object with "timing_ms" added last would give
        text = f'{text.rstrip()[:-1].rstrip()},\n  "timing_ms": {timing_ms}\n}}'
    sys.stdout.write(text + "\n")


def _cache_path(cache_dir: str, canonical: str) -> str:
    import hashlib  # here, so that a run without --cache never loads OpenSSL

    digest = hashlib.sha256(canonical.encode()).hexdigest()[:24]
    return os.path.join(cache_dir, digest + ".json")


def _read_cache(path: str, canonical: str):
    """The text of the cached report for canonical, or None for a miss.

    One raw read gives the entry, as strict UTF-8 with CRLF and CR read as
    LF, as in text mode.  An entry that cannot be read or parsed, is not a
    JSON object, has other keys than a report, another expression or a schema
    version that is not the int SCHEMA_VERSION (true and 1.0 compare equal
    to 1) is a miss, and gets rewritten.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.readall().decode().replace("\r\n", "\n").replace("\r", "\n")
        report = json.loads(text)
    except (OSError, ValueError):
        return None
    if (not isinstance(report, dict) or report.keys() != _REPORT_KEYS
            or type(report["schema_version"]) is not int
            or report["schema_version"] != SCHEMA_VERSION
            or report["expression"] != canonical):
        return None
    return text


def _write_cache(path: str, text: str) -> None:
    """Write an entry whole or not at all: a temp file beside it, then os.replace."""
    import tempfile  # here, as only a miss with a cache writes

    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        os.unlink(tmp)
        raise


def cmd_invariants(args) -> int:
    started = time.perf_counter()
    factors = canonical_factors(args.expression)
    canonical = spell_expression(factors)
    cache_dir = args.cache or os.environ.get(CACHE_ENV_VAR)
    text = None
    if cache_dir:
        text = _read_cache(_cache_path(cache_dir, canonical), canonical)
    if text is None:
        _check_size(factors, args.max_generators)
        text = _json_text(_invariant_report(factors))
        if cache_dir:
            try:
                _write_cache(_cache_path(cache_dir, canonical), text)
            except OSError as exc:
                print(f"error: cannot write to cache {cache_dir}: {exc}", file=sys.stderr)
                return EXIT_IO
    timing = None
    if not args.no_timing:
        timing = int((time.perf_counter() - started) * 1000)
    _emit_text(text, timing)
    return EXIT_OK


def recursion_report(p: int, q: int, max_generators: int = DEFAULT_MAX_GENERATORS) -> dict:
    """Compare upsilon of T(p,q) against T(p,q-p) plus T(p,p+1).

    Parameters equal to 1 denote the unknot complex, which makes the
    recursion bottom out.
    """
    _bind()
    if _torus_pair(p, q) != (p, q) or p == q:
        raise InvalidTorusKnotError(f"need coprime 1 <= p < q, got ({p}, {q})")
    for pair in ((p, q), (p, q - p), (p, p + 1)):
        _check_size(((1, *pair),), max_generators)
    lhs = upsilon(torus_knot_complex(p, q))
    rhs = upsilon(torus_knot_complex(p, q - p)) + upsilon(torus_knot_complex(p, p + 1))
    gap = max(abs(v) for _, v in (lhs + -rhs).breakpoints)  # peaks at a breakpoint
    return {
        "schema_version": SCHEMA_VERSION,
        "p": p,
        "q": q,
        "equal": lhs == rhs,
        "max_breakpoint_gap": _fmt(gap),
        "lhs_breakpoints": _breakpoints(lhs),
        "rhs_breakpoints": _breakpoints(rhs),
    }


def cmd_verify_recursion(args) -> int:
    report = recursion_report(args.p, args.q, args.max_generators)
    if args.json:
        _emit_text(_json_text(report))
    else:
        verdict = "EQUAL" if report["equal"] else "UNEQUAL"
        print(
            f"upsilon[T({args.p},{args.q})] vs upsilon[T({args.p},{args.q - args.p})]"
            f" + upsilon[T({args.p},{args.p + 1})]: {verdict}"
            f" (max breakpoint gap {report['max_breakpoint_gap']})"
        )
    return EXIT_OK if report["equal"] else EXIT_UNEQUAL


def distinguish_report(expr1: str, expr2: str) -> dict:
    """Compare upsilon and, where defined, secondary upsilon of two expressions."""
    return _compare(canonical_factors(expr1), canonical_factors(expr2))


def _compare(factors1, factors2) -> dict:
    _bind()
    complex1, complex2 = knot_complex(factors1), knot_complex(factors2)
    ups1, ups2 = upsilon(complex1), upsilon(complex2)
    report = {
        "schema_version": SCHEMA_VERSION,
        "expression_1": spell_expression(factors1),
        "expression_2": spell_expression(factors2),
    }
    if ups1 != ups2:
        ts = sorted({t for t, _ in ups1.breakpoints} | {t for t, _ in ups2.breakpoints})
        witness = next(t for t in ts if ups1.evaluate(t) != ups2.evaluate(t))
        report.update(
            distinguished=True,
            by="upsilon",
            t=_fmt(witness),
            values=[_fmt(ups1.evaluate(witness)), _fmt(ups2.evaluate(witness))],
        )
        return report
    pairs = zip(_upsilon2s(complex1, ups1), _upsilon2s(complex2, ups2))  # ups1 == ups2
    separating = [{"t": _fmt(t0), "values": [_fmt(v1), _fmt(v2)]}
                  for (t0, _, v1), (_, _, v2) in pairs if v1 != v2]
    if separating:
        report.update(
            distinguished=True,
            by="upsilon2",
            t=separating[0]["t"],
            values=separating[0]["values"],
            separating_singularities=separating,
        )
    else:
        report.update(
            distinguished=False,
            note="not distinguished by these invariants; "
                 "this is not a proof of stable equivalence",
        )
    return report


def _distinguish(expr1: str, expr2: str, args) -> int:
    sides = []
    for expression in (expr1, expr2):
        sides.append(canonical_factors(expression))
        _check_size(sides[-1], args.max_generators)
    report = _compare(*sides)
    if args.json:
        _emit_text(_json_text(report))
    elif report["distinguished"]:
        print(
            f"DISTINGUISHED at t0={report['t']} via {report['by']}: "
            f"{report['values'][0]} vs {report['values'][1]}"
        )
    else:
        print("NOT DISTINGUISHED BY THESE INVARIANTS")
        print("(upsilon and secondary upsilon agree; this does not prove stable equivalence)")
    return EXIT_OK if report["distinguished"] else EXIT_NOT_DISTINGUISHED


def cmd_distinguish(args) -> int:
    return _distinguish(args.expression_1, args.expression_2, args)


def cmd_conjecture(args) -> int:
    p, k = args.p, args.k
    if p < 5 or not 2 <= k <= p - 2 or gcd(p, k) != 1:
        raise InvalidTorusKnotError("conjecture test needs p >= 5 and coprime 2 <= k <= p-2")
    return _distinguish(f"T({p},{p + k})", f"T({k},{p}) # T({p},{p + 1})", args)


def _svg_plot(ups: PiecewiseLinear) -> str:
    width, height, margin = 640, 480, 48
    values = [v for _, v in ups.breakpoints]
    vmin = min(min(values), Fraction(0))
    vmax = max(max(values), Fraction(0))
    if vmin == vmax:
        vmin -= 1
        vmax += 1

    def sx(t: Fraction) -> str:
        return f"{float(margin + (width - 2 * margin) * t / 2):.2f}"

    def sy(v: Fraction) -> str:
        frac = (vmax - v) / (vmax - vmin)
        return f"{float(margin + (height - 2 * margin) * frac):.2f}"

    points = " ".join(f"{sx(t)},{sy(v)}" for t, v in ups.breakpoints)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<line x1="{sx(Fraction(0))}" y1="{sy(Fraction(0))}" x2="{sx(Fraction(2))}" '
        f'y2="{sy(Fraction(0))}" stroke="#999" stroke-width="1"/>',
        f'<polyline fill="none" stroke="#1f5fa8" stroke-width="2" points="{points}"/>',
    ]
    for t0, _ in ups.singularities():
        lines.append(
            f'<circle cx="{sx(t0)}" cy="{sy(ups.evaluate(t0))}" r="4" fill="#c03020">'
            f"<title>t={t0}</title></circle>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_plot(args) -> int:
    factors = canonical_factors(args.expression)
    _check_size(factors, args.max_generators)
    ups = upsilon(knot_complex(factors))
    payload = ups.to_csv() if args.format == "csv" else _svg_plot(ups)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_staircase(args) -> int:
    _check_size(((1, args.p, args.q),), args.max_generators)
    a, b = _torus_pair(args.p, args.q)
    complex_ = torus_knot_complex(args.p, args.q)
    steps = [] if a == 1 else list(step_vector(alexander_torus(a, b)).steps)
    _emit_text(_json_text({
        "schema_version": SCHEMA_VERSION,
        "p": args.p,
        "q": args.q,
        "steps": steps,
        "complex": complex_.to_json_dict(),
    }))
    return EXIT_OK


class _AtLeastOne(argparse.Action):
    def __call__(self, parser, namespace, value, option_string=None):
        if value < 1:
            raise argparse.ArgumentError(self, f"must be at least 1, got {value}")
        setattr(namespace, self.dest, value)


def _add_size_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-generators", type=int, action=_AtLeastOne, default=DEFAULT_MAX_GENERATORS,
        metavar="N",
        help="refuse (exit 2) an expression whose complex has more than N generators "
             f"(default {DEFAULT_MAX_GENERATORS})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfk",
        description="Exact upsilon and secondary upsilon invariants of "
                    "staircase knot complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="full invariant report for an expression")
    p_inv.add_argument("expression")
    p_inv.add_argument("--cache", metavar="DIR", default=None,
                       help=f"report cache directory (or ${CACHE_ENV_VAR})")
    p_inv.add_argument("--no-timing", action="store_true",
                       help="omit the timing field for byte-stable output")
    _add_size_option(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_fk = sub.add_parser(
        "verify-recursion",
        help="check upsilon[T(p,q)] = upsilon[T(p,q-p)] + upsilon[T(p,p+1)]",
    )
    p_fk.add_argument("p", type=int)
    p_fk.add_argument("q", type=int)
    p_fk.add_argument("--json", action="store_true")
    _add_size_option(p_fk)
    p_fk.set_defaults(func=cmd_verify_recursion)

    p_dis = sub.add_parser("distinguish",
                           help="compare the invariants of two expressions")
    p_dis.add_argument("expression_1")
    p_dis.add_argument("expression_2")
    p_dis.add_argument("--json", action="store_true")
    _add_size_option(p_dis)
    p_dis.set_defaults(func=cmd_distinguish)

    p_conj = sub.add_parser(
        "conjecture",
        help="compare T(p,p+k) against T(k,p) # T(p,p+1)",
    )
    p_conj.add_argument("p", type=int)
    p_conj.add_argument("k", type=int)
    p_conj.add_argument("--json", action="store_true")
    _add_size_option(p_conj)
    p_conj.set_defaults(func=cmd_conjecture)

    p_plot = sub.add_parser("plot", help="write upsilon as CSV breakpoints or SVG")
    p_plot.add_argument("expression")
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--format", choices=("csv", "svg"), default="csv")
    _add_size_option(p_plot)
    p_plot.set_defaults(func=cmd_plot)

    p_st = sub.add_parser("staircase", help="step vector and generators of T(p,q)")
    p_st.add_argument("p", type=int)
    p_st.add_argument("q", type=int)
    _add_size_option(p_st)
    p_st.set_defaults(func=cmd_staircase)

    return parser


_DASHED = ("-T(", "-(")


def _pad_dash_expressions(argv):
    # argparse reads "-T(2,3)" as an option; a leading space makes it a
    # positional.  run() takes the space off again once parsed.
    return [" " + a if a.startswith(_DASHED) else a for a in argv]


def _unpad_dash_expressions(args, argv) -> None:
    # so that a syntax error's position indexes the user's own text
    padded = {" " + a for a in argv if a.startswith(_DASHED)}
    for name, value in vars(args).items():
        if isinstance(value, str) and value in padded:
            setattr(args, name, value[1:])


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    # the top parser and its subparsers by command name, built on the first
    # run(), not at import, and reused by every later call: a parse returns a
    # fresh Namespace with every default reapplied, and help and usage text
    # are formatted when printed.  The cmd_* functions are bound through
    # set_defaults(func=...) when the parser is built, so a patch of a cmd_*
    # name made after the first run() in a process is not seen; the names
    # those functions call (upsilon, upsilon2_at, ...) are still looked up on
    # each call
    parser = build_parser()
    # argparse names no public way to the subparsers action
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    return parser, commands


def _parse(argv: list[str]) -> argparse.Namespace:
    """The top parser's parse_args(argv), in one parse where argv[0] is a command.

    Like the top parser, hand all after a command word to its subparser and
    refuse what that leaves over; any other argv goes through the top parser.
    """
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        # argparse's own message, translated as argparse translates it
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    return args


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    dashed = any(a.startswith(_DASHED) for a in argv)  # else there is nothing to pad
    args = _parse(_pad_dash_expressions(argv) if dashed else argv)
    if dashed:
        _unpad_dash_expressions(args, argv)
    # the one boundary for bad input; anything else is a bug and propagates
    try:
        return args.func(args)
    except (KnotExpressionError, InvalidTorusKnotError, ComplexTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())
