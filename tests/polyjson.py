"""Readers for the CLI's canonical polynomial JSON, for round-trip tests.

The CLI only writes this JSON (``casimir_eigen.cli.emit_polynomial_json``
and the ``*_to_obj`` helpers); reading it back is needed only to check
that the written form determines the value exactly.
"""

import json
from fractions import Fraction

from casimir_eigen.ratpoly import ClosedForm, MPoly


def mpoly_from_obj(obj: dict) -> MPoly:
    return MPoly(obj["nvars"], {tuple(t["e"]): Fraction(t["c"]) for t in obj["terms"]})


def closed_form_from_obj(obj: dict) -> ClosedForm:
    return ClosedForm(
        {
            tuple(entry["parts"]): tuple(Fraction(c) for c in entry["coeff_n"])
            for entry in obj["partitions"]
        }
    )


def parse_polynomial_json(text: str) -> MPoly | ClosedForm:
    obj = json.loads(text)
    return mpoly_from_obj(obj) if "nvars" in obj else closed_form_from_obj(obj)
