"""The knot expression language: scanning, canonical form and spelling.

An expression such as 'T(2,5) # -(T(3,4) # T(2,3))' is read into signed
torus factors (sign, p, q) by one scan with a compiled token pattern.  This
module needs nothing but ``re``, so a command that only reads an expression,
as a cache hit or a syntax error does, loads none of the complexes or searches.
It also holds ``InvalidTorusKnotError``, which :mod:`cfk.semigroup` raises, so
that the command line's error boundary loads neither.
"""

from __future__ import annotations

import re


class KnotExpressionError(ValueError):
    """Syntax error in a knot expression, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidTorusKnotError(ValueError):
    """The pair (p, q) does not describe a torus knot in scope."""


# parentheses nested deeper than this are refused
_MAX_NESTING = 100

# After optional whitespace, an optional '-' (group 1), then a whole T(p,q)
# with the digits of p and q in groups 3 and 4, or else the next character or
# '' at the end (group 2).  \s and \d match str.isspace and str.isdecimal.
_TERM = re.compile(r"\s*(-?)\s*(T\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)|.?)", re.DOTALL)
_NEXT = re.compile(r"\s*(.?)", re.DOTALL)
_DIGITS = re.compile(r"\s*(\d*)")


def _refuse_term(text: str, pos: int) -> None:
    """Raise the error at text[pos]: a '(' past the nesting limit, or a T(p,q)'s first bad part."""
    if text.startswith("(", pos):
        raise KnotExpressionError(f"parentheses nested deeper than {_MAX_NESTING}", pos)
    if not text.startswith("T", pos):
        raise KnotExpressionError("expected 'T(p,q)' or a parenthesised expression", pos)
    after = _NEXT.match(text, pos + 1)
    for part in "(,":
        if after[1] != part:
            raise KnotExpressionError(f"expected {part!r}", after.start(1))
        digits = _DIGITS.match(text, after.end())
        if not digits[1]:
            raise KnotExpressionError("expected an integer", digits.start(1))
        try:
            int(digits[1])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise KnotExpressionError(
                f"integer of {len(digits[1])} digits is too long", digits.start(1))
        after = _NEXT.match(text, digits.end())
    raise KnotExpressionError("expected ')'", after.start(1))


def parse_knot_factors(text: str) -> tuple[tuple[int, int, int], ...]:
    """Flatten a knot expression into signed torus factors (sign, p, q).

    Grammar: Expr := Term ('#' Term)*; Term := ['-'] 'T(' int ',' int ')'
    or ['-'] '(' Expr ')'.  A leading '-' dualises everything it governs.
    Whitespace may precede any token; an error names the first token that
    breaks the grammar, at its position.
    """
    factors, outer, sign, pos = [], [], 1, 0  # outer: the sign outside each open '('
    while True:
        term = _TERM.match(text, pos)
        term_sign = -sign if term[1] else sign
        if term[2] == "(" and len(outer) < _MAX_NESTING:
            outer.append(sign)
            sign, pos = term_sign, term.end()
            continue
        try:
            factors.append((term_sign, int(term[3]), int(term[4])))
        except (TypeError, ValueError):  # no whole T(p,q), or more digits than int() reads
            _refuse_term(text, term.start(2))
        # then the ')' of each parenthesis it closes, and '#' or the end
        after = _NEXT.match(text, term.end())
        while outer and after[1] == ")":
            sign = outer.pop()
            after = _NEXT.match(text, after.end())
        if after[1] != "#":
            if outer:
                raise KnotExpressionError("expected ')'", after.start(1))
            if after[1]:
                raise KnotExpressionError("unexpected trailing input", after.start(1))
            return tuple(factors)
        pos = after.end()


def canonical_factors(text: str) -> tuple[tuple[int, int, int], ...]:
    """The factors (sign, p, q) of canonical_expression(text), from one scan."""
    ordered = sorted([(p, q, sign) if p <= q else (q, p, sign)
                      for sign, p, q in parse_knot_factors(text)])
    return tuple([(sign, p, q) for p, q, sign in ordered if p != 1]) or ((1, 1, 1),)


def spell_expression(factors) -> str:
    """The knot expression of factors (sign, p, q), in their order."""
    return " # ".join(("-" if sign < 0 else "") + f"T({p},{q})" for sign, p, q in factors)


def canonical_expression(text: str) -> str:
    """Canonical form: factors normalised to p <= q and sorted by (p, q, sign).

    Unknot factors T(1,n) and T(n,1) are dropped; 'T(1,1)' stands for the
    unknot when nothing else remains.
    """
    return spell_expression(canonical_factors(text))
