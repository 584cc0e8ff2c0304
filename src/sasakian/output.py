"""Classification report and the JSON writer, with no numpy.

``classify`` needs only this module, ``classifier`` and ``shape_algebra``, so
a classify run imports neither numpy nor the jet and verify stack; ``report``
imports ``json_text``, ``format_value`` and ``classification_report`` back.  ``symbolize`` and ``format_value`` print a
value with its closed form when it matches one of ``SYMBOLIC_FORMS``.

Every JSON output, verify and classify alike, is written by ``json_text``: a
recursive writer that appends to one list of strings and joins it once.  Its
text is ``json.dumps(obj, indent=2, sort_keys=True) + "\n"`` byte for byte,
at about half the cost, because with ``indent`` the stdlib falls back to its
generator-based pure-Python encoder.  The bytes agree because the writer
follows that encoder's rules: strings go through the same C escape
(``_json.encode_basestring_ascii``, which ``json.encoder`` re-exports;
importing it from ``_json`` loads no ``json`` package), floats through
``float.__repr__`` with ``NaN``/``Infinity``/``-Infinity`` for non-finite
values, ints through ``int.__repr__`` after ``True``/``False``/``None``,
lists and tuples as arrays, keys sorted, ``{}``/``[]`` for empty containers,
each item on its own line indented two spaces per level, items separated by
``,`` and keys by ``": "``.  Any other value raises ``TypeError``, and so
does a key that is not a ``str`` (``json.dumps`` would convert it; no report
has one).  The writer dispatches on the exact type first and writes float and
str leaves inline in its container loops; subclasses, such as ``np.float64``
or an ``IntEnum``, take the ``isinstance`` path and are written as their base
type.  Separators and quoted keys come from tables built once per process.
"""

from __future__ import annotations

import bisect
import math
from _json import encode_basestring_ascii as _quote

from . import classifier

SQ2, SQ3, SQ5, SQ13 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0), math.sqrt(13.0)

# closed forms recognized when printing radicals symbolically
SYMBOLIC_FORMS: tuple[tuple[float, str], ...] = (
    (-1.0 / SQ5, "-1/sqrt(5)"),
    (3.0 * SQ3 / math.sqrt(10.0), "3*sqrt(3)/sqrt(10)"),
    (-SQ3 / math.sqrt(10.0), "-sqrt(3)/sqrt(10)"),
    (SQ2, "sqrt(2)"),
    (4.0 / SQ5, "4*sqrt(5)/5"),
    (1.0, "1"),
    (math.sqrt(29.0 / 10.0), "sqrt(29)/sqrt(10)"),
    (9.0 * SQ2 / math.sqrt(145.0), "9*sqrt(2)/sqrt(145)"),
    (2.0 * SQ3 / math.sqrt(145.0), "2*sqrt(3)/sqrt(145)"),
    (SQ5 / SQ2, "sqrt(5)/sqrt(2)"),
    (2.0 * SQ3 / math.sqrt(10.0), "2*sqrt(3)/sqrt(10)"),
    (SQ3 / math.sqrt(10.0), "sqrt(3)/sqrt(10)"),
    (2.0 / 3.0, "2/3"),
    (0.5, "1/2"),
    (1.0 / SQ2, "1/sqrt(2)"),
    (1.0 / math.sqrt(6.0), "1/sqrt(6)"),
    (SQ3 / 2.0, "sqrt(3)/2"),
    (-math.sqrt((4.0 - SQ13) / 3.0), "-sqrt((4-sqrt(13))/3)"),
    (math.sqrt((7.0 - SQ13) / 6.0), "sqrt((7-sqrt(13))/6)"),
    (-math.sqrt((7.0 - SQ13) / 6.0), "-sqrt((7-sqrt(13))/6)"),
    (-math.sqrt(1.0 / (5.0 + 2.0 * SQ3)), "-sqrt(1/(5+2*sqrt(3)))"),
    (math.sqrt((45.0 + 21.0 * SQ3) / 13.0), "sqrt((45+21*sqrt(3))/13)"),
    (-math.sqrt(6.0 / (21.0 + 11.0 * SQ3)), "-sqrt(6/(21+11*sqrt(3)))"),
    (-math.sqrt(1.0 / (6.0 + SQ13)), "-sqrt(1/(6+sqrt(13)))"),
    (math.sqrt((523.0 + 139.0 * SQ13) / 138.0), "sqrt((523+139*sqrt(13))/138)"),
    (-math.sqrt((79.0 - 17.0 * SQ13) / 138.0), "-sqrt((79-17*sqrt(13))/138)"),
    (math.sqrt((14.0 + 2.0 * SQ13) / 3.0), "sqrt((14+2*sqrt(13))/3)"),
    (math.sqrt((5.0 - SQ13) / 12.0), "sqrt((5-sqrt(13))/12)"),
    (math.sqrt((7.0 + SQ13) / 36.0), "sqrt((7+sqrt(13))/36)"),
    (math.sqrt((3.0 + SQ3) / 12.0), "sqrt((3+sqrt(3))/12)"),
    (math.sqrt((3.0 - SQ3) / 12.0), "sqrt((3-sqrt(3))/12)"),
    (math.sqrt((5.0 + SQ13) / 12.0), "sqrt((5+sqrt(13))/12)"),
    (math.sqrt((7.0 - SQ13) / 36.0), "sqrt((7-sqrt(13))/36)"),
    ((SQ13 - 1.0) / math.sqrt(12.0 - 3.0 * SQ13), "(sqrt(13)-1)/sqrt(12-3*sqrt(13))"),
    (math.sqrt(3.0 / (7.0 - SQ13)), "sqrt(3/(7-sqrt(13)))"),
)


# the forms in ascending order of value, with the match tolerance of each;
# neighbours lie further apart than the sum of their tolerances, so a value
# matches at most one form, and it is a neighbour of the value's place in this order
_SORTED_FORMS = sorted(SYMBOLIC_FORMS)
_SORTED_VALUES = [v for v, _ in _SORTED_FORMS]
_SORTED_SYMBOLS = [s for _, s in _SORTED_FORMS]
_MATCH_TOLS = [1e-12 * max(1.0, abs(v)) for v in _SORTED_VALUES]


def symbolize(value: float) -> str | None:
    # every form before i is below value and the form at i is not: |value - v|
    # is value - v before i and v - value at i, without a call to abs
    i = bisect.bisect_left(_SORTED_VALUES, value)
    if i and value - _SORTED_VALUES[i - 1] <= _MATCH_TOLS[i - 1]:
        return _SORTED_SYMBOLS[i - 1]
    if i < len(_SORTED_VALUES) and _SORTED_VALUES[i] - value <= _MATCH_TOLS[i]:
        return _SORTED_SYMBOLS[i]
    return None


def format_value(value: float) -> dict:
    out = {"value": float(value), "decimal": f"{value:.17g}"}
    sym = symbolize(value)
    if sym is not None:
        out["symbolic"] = sym
    return out


# float.__repr__ of the non-finite values, as json.dumps writes them
_FLOAT_TOKENS = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _separators(depth: int) -> tuple[str, str, str, str, str]:
    """(opening of a dict, opening of a list, between items, closing of a dict,
    closing of a list) for a container at ``depth``."""
    outer = "\n" + "  " * depth
    inner = outer + "  "
    return "{" + inner, "[" + inner, "," + inner, outer + "}", outer + "]"


# the separators at the depths reports use; deeper containers build theirs
_LEVELS = tuple(_separators(depth) for depth in range(16))
# a str key -> its quoted text and ": "; the reports' keys are a fixed set of
# a few dozen names
_KEY_PREFIXES: dict[str, str] = {}


def _key_prefix(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    prefix = _quote(key) + ": "
    if type(key) is str:
        _KEY_PREFIXES[key] = prefix
    return prefix


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte (see module docstring)."""
    out: list[str] = []
    _write_json(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _write_json(o, out: list[str], depth: int) -> None:
    # exact dicts, lists, tuples, floats and strs by type; their subclasses and
    # the other scalars by isinstance, with True, False and None before int
    t = type(o)
    if t is not dict and t is not list and t is not tuple:
        if isinstance(o, str):
            out.append(_quote(o))
            return
        if isinstance(o, float):
            r = float.__repr__(o)
            out.append(_FLOAT_TOKENS.get(r, r))
            return
        if isinstance(o, dict):
            t = dict
        elif isinstance(o, (list, tuple)):
            t = list
        elif o is None:
            out.append("null")
            return
        elif o is True:
            out.append("true")
            return
        elif o is False:
            out.append("false")
            return
        elif isinstance(o, int):
            out.append(int.__repr__(o))
            return
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not o:
        out.append("{}" if t is dict else "[]")
        return
    opening_dict, opening_list, comma, closing_dict, closing_list = (
        _LEVELS[depth] if depth < len(_LEVELS) else _separators(depth)
    )
    depth += 1
    if t is dict:
        sep = opening_dict
        for key in sorted(o):
            prefix = _KEY_PREFIXES.get(key) or _key_prefix(key)
            value = o[key]
            vt = type(value)
            if vt is float:
                r = float.__repr__(value)
                out += (sep, prefix, _FLOAT_TOKENS.get(r, r))
            elif vt is str:
                out += (sep, prefix, _quote(value))
            else:
                out += (sep, prefix)
                _write_json(value, out, depth)
            sep = comma
        out.append(closing_dict)
    else:
        sep = opening_list
        for item in o:
            vt = type(item)
            if vt is float:
                r = float.__repr__(item)
                out += (sep, _FLOAT_TOKENS.get(r, r))
            elif vt is str:
                out += (sep, _quote(item))
            else:
                out.append(sep)
                _write_json(item, out, depth)
            sep = comma
        out.append(closing_list)


def classification_report(c: float | None = None, mode: str = "biharmonic") -> dict:
    """Classification output (flat tuples, curve-x-sphere data, traces) as a dict."""
    if mode == "minus4":
        solutions, traces = classifier.solve_minus4_flat()
        case_ii = classifier.solve_caseII("minus4")
        c_val = 1.0
    else:
        c_val = float(c)
        solutions, traces = classifier.solve_flat(c_val)
        case_ii = classifier.solve_caseII(c_val)

    def tuple_entry(s):
        return {
            "case": s.case,
            "c": s.c,
            "lam": format_value(s.lam),
            "alpha": format_value(s.alpha),
            "gamma": format_value(s.gamma),
            "delta": format_value(s.delta),
            "omega": s.omega,
            "source": s.source,
            "system_residual": s.system_residual,
            "curvature_tables": {
                k: [format_value(v) for v in vs] for k, vs in classifier.curvature_tables(s).items()
            },
        }

    return {
        "mode": mode,
        "c": c_val,
        "flat_solutions": [tuple_entry(s) for s in solutions],
        "case_ii": [
            {
                "subcase": s.subcase,
                "c": s.c,
                "lam": None if s.lam is None else format_value(s.lam),
                "kappa1": format_value(s.kappa1),
                "kappa2": format_value(s.kappa2),
                "radius": format_value(s.radius),
            }
            for s in case_ii
        ],
        "reduction_traces": [
            {
                "omega_branch": t.omega_branch,
                "polynomial": list(t.polynomial),
                "factors": [list(f) for f in t.factors],
                "roots": [{"omega": w, "multiplicity": m} for w, m in t.roots],
                "accepted": list(t.accepted),
                "rejected": [{"omega": r.omega, "reason": r.reason} for r in t.rejected],
                "notes": list(t.notes),
            }
            for t in traces
        ],
    }
