"""Every value of the verdict path, pinned bit for bit.

``tests/data/verdict_values.json`` holds what the library returned, or the
error it raised, for the whole verdict path on seeded points of each model:
``build_joint``, ``classify_covariate``, ``check_lemma1``, the seven
hypotheses both numerically and algebraically at two tolerances,
``closed_form_summary`` and ``summary_from_joint``.  Float points run at
the classify verb's tolerance, rational points at 0; mixed points (some
fields ``Fraction``, some float) and boundary points (fields of exactly 0
or 1) are in the set too.  Explicit joints with empty cells reach the
degenerate messages no parameter set can, and bad cells at every index
give ``JointDistribution``'s rejection messages.

A float is recorded as ``float.hex()`` and every other number as its type
and ``str``, so a changed rounding, summation order or result type shows
up as a changed string.  The file was recorded before the verdict path's
fast paths (the iteration over ``Hypothesis``, the screen of all-float
cells, positional reports).  To record it again from the library on the
path:

    PYTHONPATH=src python tests/test_verdict_values.py > tests/data/verdict_values.json
"""

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from confound_kit import (
    ConfoundKitError,
    Hypothesis,
    JointDistribution,
    build_joint,
    check_lemma1,
    classify_covariate,
    closed_form_summary,
    conditional_prob,
    confounding_bias,
    holds_algebraic,
    holds_numeric,
    hypothetical_proportion,
    observed_proportion,
    params_type,
    standardized_proportion,
    summary_from_joint,
)

SEED = 28
FLOAT_TOL = 1e-9  # the classify verb's float default
LOOSE_TOL = {"float": 1e-3, "exact": Fraction(1, 1000)}
HYPOTHESES = ("H1", "H2", "H3", "H4", "H5", "H6", "H7")
BAD_CELLS = (math.nan, True, "x", None, -0.25, Fraction(-1, 4))


def _num(value) -> str:
    if type(value) is float:
        return "float:" + value.hex()
    return f"{type(value).__name__}:{value}"


def _outcome(call):
    """What ``call()`` gives, as JSON: its value, or the error it raised."""
    try:
        value = call()
    except (ConfoundKitError, ArithmeticError) as exc:
        return {"raises": type(exc).__name__, "message": str(exc)}
    if isinstance(value, bool):
        return value
    if isinstance(value, tuple):  # a MeasureSummary
        return [_num(v) for v in value]
    if hasattr(value, "verdict"):  # a ClassificationReport
        return [_num(getattr(value, name)) for name in value._fields[:-1]] + [value.verdict.value]
    return _num(value)


def _grid(rng, kind, name):
    """A thousandths-grid value inside (0, 1); at a boundary point half the
    fields but ``a``, which must lie inside, are 0 or 1 instead."""
    if kind == "boundary" and name != "a" and rng.random() < 0.5:
        return Fraction(rng.choice((0, 1)))
    return Fraction(rng.randint(10, 990), 1000)


# boundary points the seeded ones may miss: Model 2 with a covariate stratum
# empty (its algebraic H5 raises), and Model 1 with an exposure arm empty in
# one stratum (algebraic H2 and H7 read conditionals of zero mass)
CORNERS = (
    ("model 2 corner C=0 empty", 2, (Fraction(1, 2), 1, 1, Fraction(1, 4), Fraction(3, 4), Fraction(1, 8), 0)),
    ("model 2 corner C=1 empty", 2, (Fraction(3, 10), 0, 0, Fraction(1, 5), 1, Fraction(2, 5), Fraction(7, 8))),
    ("model 1 corner a0 = 0", 1, (Fraction(2, 5), 0, Fraction(3, 5), Fraction(1, 10), Fraction(7, 10), 1, 0)),
    ("model 3 corner t = 1", 3, (Fraction(1, 3), 1, Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), 1)),
)


def _points():
    """(label, model, mode, field values) of every point: seeded ones, on
    the thousandths grid, then the corners."""
    rng = random.Random(SEED)
    for model in (1, 2, 3):
        fields = params_type(model)._fields
        for kind, count in (("interior", 8), ("boundary", 10), ("mixed", 3)):
            for index in range(count):
                values = [_grid(rng, kind, name) for name in fields]
                modes = ("float", "exact") if kind != "mixed" else ("mixed",)
                for mode in modes:
                    if mode == "float":
                        cast = [float(v) for v in values]
                    elif mode == "mixed":
                        cast = [v if rng.random() < 0.5 else float(v) for v in values]
                    else:
                        cast = values
                    label = f"model {model} {kind} {index} {mode}"
                    yield label, model, mode, cast
    for label, model, values in CORNERS:
        yield f"{label} float", model, "float", [float(v) for v in values]
        yield f"{label} exact", model, "exact", [Fraction(v) for v in values]


def _path_record(params, mode):
    tol = 0 if mode == "exact" else FLOAT_TOL
    loose = LOOSE_TOL["exact" if mode == "exact" else "float"]
    joint = build_joint(params)
    record = {
        "classify": _outcome(lambda: classify_covariate(joint, tol)),
        "lemma1": _outcome(lambda: check_lemma1(joint, tol)),
    }
    for name, check, subject in (("numeric", holds_numeric, joint), ("algebraic", holds_algebraic, params)):
        for key, t in ((name, tol), (f"{name}_loose", loose)):
            record[key] = [_outcome(lambda h=h: check(subject, Hypothesis(h), t)) for h in HYPOTHESES]
    record["closed_form"] = _outcome(lambda: closed_form_summary(params))
    record["summary"] = _outcome(lambda: summary_from_joint(joint))
    # read last: an exact joint builds its cells on first access, which the
    # verdict path never makes
    record["joint"] = [_num(w) for w in joint.p]
    return record


def _joint_record(joint):
    """The measures and hypotheses of an explicit joint, at tol 0."""
    tol = 0 if joint.is_exact else FLOAT_TOL
    return {
        "classify": _outcome(lambda: classify_covariate(joint, tol)),
        "lemma1": _outcome(lambda: check_lemma1(joint, tol)),
        "summary": _outcome(lambda: summary_from_joint(joint)),
        "measures": [
            _outcome(lambda f=f: f(joint))
            for f in (hypothetical_proportion, observed_proportion, standardized_proportion, confounding_bias)
        ],
        "numeric": [_outcome(lambda h=h: holds_numeric(joint, Hypothesis(h), tol)) for h in HYPOTHESES],
        "conditional": [
            _outcome(lambda given=given: conditional_prob(joint, {"D": 1}, given))
            for given in ({"E": "e"}, {"E": "ebar", "C": 0}, {"E": "ebar", "C": 1}, {"C": 1})
        ],
    }


def _explicit_joints():
    """(label, cells): joints with empty cells, in float and exact weights."""
    rng = random.Random(SEED + 1)
    for index in range(24):
        # empty a random subset of cells, then weight the rest on a 1/64 grid
        raw = [0 if rng.random() < 0.45 else rng.randint(1, 9) for _ in range(8)]
        if not any(raw):
            raw[rng.randrange(8)] = 1
        total = sum(raw)
        exact = tuple(Fraction(w, total) for w in raw)
        yield f"joint {index} exact", exact
        yield f"joint {index} float", tuple(float(w) for w in exact)
    yield "joint mixed ints and floats", (0.5, 0, 0, 0.25, 0, 0.125, 0.125, 0)
    yield "joint mixed fractions and floats", (Fraction(1, 2), 0.0, 0.125, Fraction(1, 8), 0.0, 0.125, 0.0, 0.125)
    yield "joint signed zeros", (0.25, -0.0, 0.25, -0.0, 0.25, 0.0, 0.25, -0.0)


def _rejections():
    """(label, cells) that ``JointDistribution`` rejects: a bad cell at each
    index, the wrong number of cells and sums off one."""
    for base_name, base in (("float", (0.125,) * 8), ("exact", (Fraction(1, 8),) * 8)):
        for index in range(8):
            for bad in BAD_CELLS:
                cells = list(base)
                cells[index] = bad
                yield f"{base_name} cell {index} = {bad!r}", tuple(cells)
        yield f"{base_name} 7 cells", base[:7]
        yield f"{base_name} 9 cells", base + base[:1]
    yield "float sum 1.5", (0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
    yield "float sum 1 + 2e-12", (0.125,) * 7 + (0.125 + 2e-12,)
    yield "float infinite cell", (math.inf,) + (0.0,) * 7
    yield "float negative cell, sum 1", (0.5, -0.25, 0.75, 0.0, 0.0, 0.0, 0.0, 0.0)
    yield "float NaN after a negative", (0.5, -0.25, math.nan, 0.75, 0.0, 0.0, 0.0, 0.0)
    yield "float negative after a NaN", (math.nan, -0.25, 0.5, 0.75, 0.0, 0.0, 0.0, 0.0)
    yield "exact sum 2/3", (Fraction(1, 12),) * 8
    yield "ints sum 2", (1, 1, 0, 0, 0, 0, 0, 0)


def record() -> dict:
    points = {}
    for label, model, mode, values in _points():
        try:
            params = params_type(model)(*values)
        except ConfoundKitError as exc:
            points[label] = {"params": [_num(v) for v in values], "rejected": str(exc)}
            continue
        points[label] = {"params": [_num(v) for v in values], **_path_record(params, mode)}
    joints = {label: _joint_record(JointDistribution(cells)) for label, cells in _explicit_joints()}
    rejections = {label: _outcome(lambda c=cells: JointDistribution(c)) for label, cells in _rejections()}
    return {"points": points, "joints": joints, "rejections": rejections}


PINNED = Path(__file__).parent / "data" / "verdict_values.json"


def test_verdict_path_values_pinned():
    pinned = json.loads(PINNED.read_text())
    got = record()
    for section in ("points", "joints", "rejections"):
        assert list(got[section]) == list(pinned[section])
        for label, value in pinned[section].items():
            assert got[section][label] == value, label


def test_pin_reaches_every_degenerate_message():
    # the boundary points and explicit joints are only worth pinning if they
    # reach each way the verdict path can raise
    messages = set()

    def walk(value):
        if isinstance(value, dict):
            if "raises" in value:
                messages.add(value["message"])
            for item in value.values():
                walk(item)
        elif isinstance(value, list):
            for item in value:
                walk(item)

    walk(json.loads(PINNED.read_text()))
    for expected in (
        "P(E=e) = 0; the hypothetical proportion is undefined",
        "P(E=ebar) = 0; the observed proportion is undefined",
        "P(E=e) = 0; the standardized proportion is undefined",
        *(
            f"P(E=ebar, C={k}) = 0 while P(C={k} | E=e) > 0; the standardized proportion is undefined"
            for k in (0, 1)
        ),
        "H2 conditions on {'C': 0}, which has probability zero",
        "H3 conditions on {'C': 1}, which has probability zero",
        "H6 conditions on {'E': 'ebar'}, which has probability zero",
        "H7 conditions on {'E': 'e'}, which has probability zero",
        *(f"H5 compares P(D_ebar=1 | C=k) across strata, but P(C={k}) = 0" for k in (0, 1)),
        *(f"cell {i} weight is NaN" for i in range(8)),
        *(f"cell {i} weight -0.25 is negative" for i in range(8)),
        *(f"cell {i} weight Fraction(-1, 4) is negative" for i in range(8)),
        *(f"cell {i} weight {bad!r} is not a real number" for i in range(8) for bad in (True, "x", None)),
    ):
        assert expected in messages, expected


if __name__ == "__main__":
    # one line per entry, so a changed value shows as a changed line
    sections = record().items()
    sys.stdout.write("{\n" + ",\n".join(
        f" {json.dumps(section)}: {{\n" + ",\n".join(
            f"  {json.dumps(label)}: {json.dumps(value, ensure_ascii=False)}" for label, value in entries.items()
        ) + "\n }"
        for section, entries in sections
    ) + "\n}\n")
