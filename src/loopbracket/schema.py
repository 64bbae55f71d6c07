"""The JSON schemas of the bracket path, on the standard library alone.

Curve files are {"genus": g, "curves": {name: "a1 b1 ..", ..}} and are
read; loop sums are [{"coef": "1/2", "word": "a1 b1"}, ..] and are only
written, since no command reads one.  `serialize` holds the numeric
schemas.  SchemaError and DglaError are the two kinds of malformed
input, a file or flag that does not fit its schema and a DGLA whose
tensors do not fit together; the CLI maps both to exit code 2.
"""

from __future__ import annotations

from . import bracket as B
from . import words as W


class SchemaError(ValueError):
    pass


class DglaError(ValueError):
    pass


def is_integer(value) -> bool:
    """A JSON integer: true, false and 2.0 are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def curves_from_json(obj) -> tuple[int, dict]:
    if not isinstance(obj, dict) or "genus" not in obj or "curves" not in obj:
        raise SchemaError("curve file needs 'genus' and 'curves'")
    genus = obj["genus"]
    if not is_integer(genus) or genus < 1:
        raise SchemaError("'genus' must be a positive integer")
    curves = obj["curves"]
    if not isinstance(curves, dict) or not curves:
        raise SchemaError("'curves' must be a non-empty name -> word map")
    out = {}
    for name, text in curves.items():
        if not isinstance(text, str):
            raise SchemaError(f"curve {name!r} must be a word string")
        try:
            word = W.parse_word(text)
            W.check_word(word, genus)
        except W.WordError as err:
            raise SchemaError(f"curve {name!r}: {err}") from err
        out[name] = word
    return genus, out


def loopsum_to_json(ls: B.LoopSum) -> list:
    return [{"coef": str(c), "word": W.format_word(w)} for w, c in ls.items()]

