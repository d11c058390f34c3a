"""Joint distributions over (E, C, D_ebar) for three binary causal structures.

E is a binary exposure with values e (exposed) and ebar (unexposed).  C is a
binary covariate.  D_ebar is the potential disease outcome under
non-exposure; it is defined for everyone, exposed individuals included, which
is what makes quantities such as P(D_ebar = 1 | E = e) hypothetical rather
than observable.  Throughout the package "D" in assignments and rendered
output always means this potential outcome, never the factual outcome.

Three parameterizations are supported, one per structure:

* Model 1, covariate influences exposure (C -> E, C -> D, E -> D):
  t = P(C=1), a_j = P(E=e | C=j), b_j = P(D_ebar=1 | E=ebar, C=j),
  u_j = P(D_ebar=1 | E=e, C=j).
* Model 2, exposure influences covariate (E -> C, C -> D, E -> D):
  a = P(E=e), c_0 = P(C=1 | E=ebar), c_1 = P(C=1 | E=e), and b_j, u_j
  as above.
* Model 3, exposure and covariate independent (C -> D, E -> D):
  a = P(E=e), t = P(C=1), and b_j, u_j as above.

Every parameter set expands to an explicit joint over the eight assignments
of (E, C, D_ebar), and every downstream quantity is a finite sum over those
cells, so the joint is the single ground truth the rest of the package
reduces to.  Cells are kept in a fixed order for serialization and
comparison:

    (e,0,0), (e,0,1), (e,1,0), (e,1,1),
    (ebar,0,0), (ebar,0,1), (ebar,1,0), (ebar,1,1)

where a triple reads (E, C, D_ebar).  Weights may be floats or exact
rationals (``fractions.Fraction``); arithmetic follows the inputs, so
rational parameters yield a rational joint and exact downstream comparisons.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Union

from .errors import DegenerateEventError, ParameterError

Numeric = Union[int, float, Fraction]

_SUM_TOL = 1e-12
# the tolerance of a float verdict when none is given (``measures``); kept
# here so a request that only reads it need not load ``measures``
DEFAULT_FLOAT_TOL = 1e-9
_EIGHT_FLOATS = (float,) * 8
_FLOAT_MAX = sys.float_info.max


class Exposure(Enum):
    EXPOSED = "e"
    UNEXPOSED = "ebar"


def _as_exposure(value: object) -> Exposure:
    if isinstance(value, Exposure):
        return value
    if value == "e":
        return Exposure.EXPOSED
    if value == "ebar":
        return Exposure.UNEXPOSED
    raise ParameterError(f"invalid exposure value {value!r}; expected 'e' or 'ebar'")


def _as_bit(name: str, value: object) -> int:
    if value in (0, 1):
        return int(value)
    raise ParameterError(f"invalid {name} value {value!r}; expected 0 or 1")


def _is_exact(values) -> bool:
    return all(isinstance(v, numbers.Rational) for v in values)


# _check_number's messages (NaN, then kind) for a parameter field and a joint cell
_FIELD = ("parameter {} is NaN", "parameter {} = {!r} is not a real number")
_CELL = ("cell {} weight is NaN", "cell {} weight {!r} is not a real number")


def _check_number(value, key, messages) -> None:
    """Reject a number that is not an int, a float or a ``numbers.Rational``,
    or is a bool or NaN; a ``Decimal`` may only be a tolerance.  The common
    types pass on their class, and a message is built only when raising."""
    cls = value.__class__
    if cls is int or cls is Fraction:
        return
    if cls is not float and (cls is bool or not isinstance(value, (float, numbers.Rational))):
        raise ParameterError(messages[1].format(key, value))
    if value != value:
        raise ParameterError(messages[0].format(key))


def _check_mapping(value, message: str, *args) -> None:
    """Reject a value that is not a mapping: ParameterError with ``message``,
    formatted with ``args``, and the value's type."""
    if not isinstance(value, Mapping):
        raise ParameterError(f"{message.format(*args)}, got {type(value).__name__}")


def _check_unit(name: str, value: Numeric) -> None:
    _check_number(value, name, _FIELD)
    if not 0 <= value <= 1:
        raise ParameterError(f"parameter {name} = {value!r} outside [0, 1]")


def _check_open_unit(name: str, value: Numeric) -> None:
    _check_unit(name, value)
    if value == 0 or value == 1:
        raise ParameterError(f"parameter {name} = {value!r} must lie strictly inside (0, 1)")


def _check_tolerance(tol) -> None:
    """Reject a tolerance that is NaN, not finite as a float, negative or
    not a real number (a bool included).

    Against a NaN or infinite tolerance every comparison comes out the same
    whatever the data, so a false claim could pass unnoticed.  So does one
    past the largest float, an int or ``Decimal`` the float kernels could
    not even take.  A bool is rejected as ``_check_integer`` rejects one: a
    ``True`` meant for a flag would otherwise be a tolerance of 1, which
    passes nearly any claim.
    """
    cls = type(tol)
    if (cls is float or cls is int) and 0 <= tol <= _FLOAT_MAX:
        return  # the common case, a plain finite nonnegative number
    if cls is bool:
        raise ParameterError(f"tolerance must be a real number, got {tol!r}")
    try:
        finite = math.isfinite(tol)
    except TypeError:
        raise ParameterError(f"tolerance must be a real number, got {tol!r}") from None
    except (OverflowError, ValueError):  # past the largest float, or a signaling NaN
        finite = False
    if not finite:
        raise ParameterError(f"tolerance must be finite, got {tol!r}")
    if tol < 0:
        raise ParameterError(f"tolerance must be nonnegative, got {tol!r}")


def _check_integer(name: str, value) -> None:
    """Reject a count, seed or budget that is not an integer (2.5, "3", True)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


def _num_to_json(value: Numeric) -> object:
    if isinstance(value, float):
        return value
    return str(Fraction(value))


def _num_to_text(value: Numeric) -> str:
    """A number as the text reports print: its JSON form, as text."""
    return str(_num_to_json(value))


def _render_columns(rows) -> str:
    """Rows of text cells as left-aligned columns two spaces apart."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(map(str.ljust, row, widths)).rstrip() for row in rows)


def _num_from_json(value: object) -> Numeric:
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ParameterError(f"invalid numeric value {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterError(f"invalid numeric value {value!r}")
    return value


class _Frozen:
    """Value semantics of a frozen dataclass over the fields named in ``_fields``.

    Instances are equal when their classes are identical and their field
    tuples are equal, hash as that tuple, print as ``Name(field=value, ...)``
    and refuse assignment and deletion.  Plain attributes outside
    ``_fields`` (``_unit``, ``_numerators``, ``_proportions``, ``_codes``)
    take no part in any of these.  The constructor binds the fields
    positionally or by keyword, with Python's own messages for a bad call,
    then runs ``__post_init__``; classes on hot paths define their own
    ``__init__`` instead.
    """

    _fields: tuple = ()

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = _bind(type(self), args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _bind(cls, args: tuple, kwargs: dict) -> list:
    """``cls._fields`` values from constructor arguments, or the TypeError
    Python raises for a call that does not fit the signature."""
    names = cls._fields
    call = f"{cls.__qualname__}.__init__()"
    bound = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
        if name in bound:
            raise TypeError(f"{call} got multiple values for argument {name!r}")
        bound[name] = value
    if len(args) > len(names):
        raise TypeError(
            f"{call} takes {len(names) + 1} positional arguments but {len(args) + 1} were given"
        )
    missing = [repr(name) for name in names if name not in bound]
    if len(missing) == 1:
        raise TypeError(f"{call} missing 1 required positional argument: {missing[0]}")
    if missing:
        listed = ", ".join(missing[:-1]) + ("," if len(missing) > 2 else "") + " and " + missing[-1]
        raise TypeError(f"{call} missing {len(missing)} required positional arguments: {listed}")
    return [bound[name] for name in names]


class _ParamsBase(_Frozen):
    """Shared range checks, serialization and exactness helpers for parameter sets.

    Each parameter set keeps ``_unit = (model, one, values, exact)`` for the
    model algebra (see ``_masses``).  When every field holds a ``Fraction``,
    ``values`` are the fields' integer numerators over one = L, the least
    common multiple of their denominators, and exact is True.  Otherwise
    ``values`` are the fields themselves over one = 1, so a bare int stays
    an int.  Like ``JointDistribution._numerators`` it is a plain attribute,
    not a field, so equality, hashing, ``repr`` and ``to_dict`` see the
    fields alone.
    """

    def __post_init__(self) -> None:
        # a structural mixing weight named a must lie strictly inside (0, 1)
        for name, value in zip(self._fields, self._field_values(self)):
            check = _check_open_unit if name == "a" else _check_unit
            check(name, value)
        self._keep_unit_values()

    def _keep_unit_values(self) -> None:
        values = self._field_values(self)
        if set(map(type, values)) == {Fraction}:
            denominators = [v.denominator for v in values]
            one = math.lcm(*denominators)
            numerators = tuple([v.numerator * (one // d) for v, d in zip(values, denominators)])
            unit = (self._model, one, numerators, True)
        else:
            unit = (self._model, 1, values, False)
        self.__dict__["_unit"] = unit

    @property
    def is_exact(self) -> bool:
        return _is_exact(self._field_values(self))

    def to_dict(self) -> dict:
        """Serialize to plain JSON types; rationals become 'n/d' strings."""
        return {name: _num_to_json(getattr(self, name)) for name in self._fields}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]):
        _check_mapping(data, "expected a mapping of parameter fields")
        names = list(cls._fields)
        if set(data) != set(names):
            raise ParameterError(
                f"expected exactly the fields {names}, got {sorted(data)}"
            )
        return cls(**{n: _num_from_json(data[n]) for n in names})


class Model1Params(_ParamsBase):
    """Covariate-influences-exposure structure (C -> E, C -> D, E -> D)."""

    _fields = ("t", "a0", "a1", "b0", "b1", "u0", "u1")

    def __post_init__(self) -> None:
        super().__post_init__()
        # Both exposure arms must be reachable, or every conditional on E is
        # undefined downstream.
        _, one, v, _ = self._unit
        exposed0, exposed1, unexposed0, unexposed1 = _masses(1, v, one)
        if exposed0 + exposed1 == 0:
            raise ParameterError("degenerate exposure marginal: P(E=e) = 0")
        if unexposed0 + unexposed1 == 0:
            raise ParameterError("degenerate exposure marginal: P(E=ebar) = 0")


class Model2Params(_ParamsBase):
    """Exposure-influences-covariate structure (E -> C, C -> D, E -> D)."""

    _fields = ("a", "c0", "c1", "b0", "b1", "u0", "u1")


class Model3Params(_ParamsBase):
    """Independent exposure and covariate structure (C -> D, E -> D)."""

    _fields = ("a", "t", "b0", "b1", "u0", "u1")


ModelParams = Union[Model1Params, Model2Params, Model3Params]

_PARAMS_TYPES = {1: Model1Params, 2: Model2Params, 3: Model3Params}
for _model, _cls in _PARAMS_TYPES.items():
    _cls._model = _model
    _cls._field_values = attrgetter(*_cls._fields)  # a tuple in field order
del _cls, _model


def model_number(params: ModelParams) -> int:
    """1, 2, or 3 for the structure a parameter set belongs to."""
    return _unit_values(params)[0]


def params_type(model: int):
    """The parameter class for a model number.

    Only an ``int`` is a model number, although ``True == 1`` and
    ``2.0 == 2`` as keys.
    """
    if model.__class__ is int:
        try:
            return _PARAMS_TYPES[model]
        except KeyError:
            pass
    raise ParameterError(f"unknown model number {model!r}; expected 1, 2, or 3")


def params_from_dict(data: Mapping[str, object]) -> ModelParams:
    """Rebuild a parameter set from its serialized fields.

    The three field sets are pairwise distinct, so the structure is inferred
    from the keys alone.
    """
    _check_mapping(data, "expected a mapping of parameter fields")
    keys = set(data)
    for cls in (Model1Params, Model2Params, Model3Params):
        if keys == set(cls._fields):
            return cls.from_dict(data)
    raise ParameterError(f"field set {sorted(keys)} matches no model parameterization")


class JointDistribution(_Frozen):
    """An explicit distribution over the eight (E, C, D_ebar) assignments.

    ``p`` lists cell weights in the canonical order given in the module
    docstring.  Weights must be nonnegative and sum to one: exactly when all
    are rational, within 1e-12 otherwise.

    A rational joint also keeps its cells as integer numerators over a
    common denominator in ``_numerators`` (None for any other joint), so
    exact measures and hypothesis tests add integers instead of
    ``Fraction``s; those are scale-invariant, so any common denominator
    serves.  Built from weights, the denominator is the cells' least common
    one; ``build_joint`` on rational parameters passes its integer cells
    over L**3 straight through ``_from_numerators``, and ``p`` is built from
    them, one ``Fraction`` per cell over their sum, on first access: the
    exact verdict path never reads it.  ``_numerators`` is a plain
    attribute, not a field: equality, hashing, ``repr``, ``to_dict``, copies
    and pickles see ``p`` alone, whether or not it was read before.

    ``_proportions`` keeps what ``measures`` derives from the cells once it
    is computed (see ``measures._proportions``); it is None until then.  A
    joint is frozen, so the kept value cannot go stale, and it is not
    pickled.
    """

    _fields = ("p",)
    _proportions = None

    def __init__(self, p) -> None:
        try:
            weights = tuple(p)
        except TypeError:
            raise ParameterError(f"joint needs a sequence of 8 cell weights, got {type(p).__name__}") from None
        # One screen passes the common case, eight float weights that every
        # check below accepts: a NaN weight makes min() or the sum NaN, and
        # NaN fails both comparisons.  Anything else takes the checks, which
        # give the message.
        if (
            tuple(map(type, weights)) == _EIGHT_FLOATS
            and min(weights) >= 0
            and abs(sum(weights) - 1) <= _SUM_TOL
        ):
            self.__dict__.update(p=weights, _numerators=None)
            return
        if len(weights) != 8:
            raise ParameterError(f"joint needs exactly 8 cell weights, got {len(weights)}")
        for i, w in enumerate(weights):
            _check_number(w, i, _CELL)
            if w < 0:
                raise ParameterError(f"cell {i} weight {w!r} is negative")
        numerators = None
        if _is_exact(weights):
            denominator = math.lcm(*(w.denominator for w in weights))
            numerators = tuple(w.numerator * (denominator // w.denominator) for w in weights)
            if sum(numerators) != denominator:
                raise ParameterError(f"exact cell weights sum to {sum(weights)}, not 1")
        else:
            total = sum(weights)
            if abs(total - 1) > _SUM_TOL:
                raise ParameterError(f"cell weights sum to {total!r}, not 1 within {_SUM_TOL}")
        self.__dict__.update(p=weights, _numerators=numerators)

    @classmethod
    def _from_numerators(cls, numerators: tuple, denominator: int) -> "JointDistribution":
        """The rational joint with cells ``numerators[i] / denominator``.

        Runs the checks ``__init__`` runs on rational weights, with the
        same messages, on the integers; ``p`` is built on first access.
        """
        for i, n in enumerate(numerators):
            if n < 0:
                raise ParameterError(f"cell {i} weight {Fraction(n, denominator)!r} is negative")
        total = sum(numerators)
        if total != denominator:
            raise ParameterError(
                f"exact cell weights sum to {Fraction(total, denominator)}, not 1"
            )
        joint = object.__new__(cls)
        joint.__dict__["_numerators"] = numerators
        return joint

    @cached_property
    def p(self) -> tuple:
        # only a joint from _from_numerators gets here; its numerators sum
        # to their denominator
        numerators = self._numerators
        denominator = sum(numerators)
        return tuple([Fraction(n, denominator) for n in numerators])

    def __getstate__(self) -> dict:
        return {"p": self.p, "_numerators": self._numerators}

    @staticmethod
    def index(e: object, c: object, d: object) -> int:
        """Canonical cell index of the assignment (E=e, C=c, D_ebar=d)."""
        exposure = _as_exposure(e)
        c = _as_bit("C", c)
        d = _as_bit("D", d)
        return (0 if exposure is Exposure.EXPOSED else 4) + 2 * c + d

    @property
    def is_exact(self) -> bool:
        return self._numerators is not None

    def prob(self, e: object = None, c: object = None, d: object = None) -> Numeric:
        """Probability of the event fixing any subset of E, C, D_ebar."""
        exposure = None if e is None else _as_exposure(e)
        if c is not None:
            c = _as_bit("C", c)
        if d is not None:
            d = _as_bit("D", d)
        total = 0
        for i, w in enumerate(self.p):
            if exposure is not None and (i < 4) != (exposure is Exposure.EXPOSED):
                continue
            if c is not None and (i >> 1) & 1 != c:
                continue
            if d is not None and i & 1 != d:
                continue
            total = total + w
        return total

    def to_dict(self) -> dict:
        """Serialize as {"p": [...]} in canonical cell order."""
        return {"p": [_num_to_json(w) for w in self.p]}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JointDistribution":
        _check_mapping(data, "expected a mapping with the field 'p'")
        if set(data) != {"p"}:
            raise ParameterError(f"expected exactly the field ['p'], got {sorted(data)}")
        weights = data["p"]
        if not isinstance(weights, (list, tuple)):
            raise ParameterError("field 'p' must be a list of 8 cell weights")
        return cls(tuple(_num_from_json(w) for w in weights))


def _not_a_joint(value) -> ParameterError:
    return ParameterError(f"expected a JointDistribution, got {type(value).__name__}")


def _assignment_kwargs(assignment: Mapping[str, object], name: str) -> dict:
    """``assignment``'s variables as ``prob`` keywords; ``name`` is the
    argument it came in, for the ParameterError when it is no mapping."""
    _check_mapping(assignment, "{} must be a mapping of 'E', 'C' and 'D' to values", name)
    out = {}
    for key, value in assignment.items():
        if key == "E":
            out["e"] = value
        elif key == "C":
            out["c"] = value
        elif key == "D":
            out["d"] = value
        else:
            raise ParameterError(f"unknown variable {key!r}; expected 'E', 'C', or 'D'")
    return out


def conditional_prob(
    joint: JointDistribution,
    event: Mapping[str, object],
    given: Mapping[str, object],
) -> Numeric:
    """P(event | given) by brute-force summation over cells.

    Variables are named "E", "C", "D" (the last meaning D_ebar).  A variable
    fixed to conflicting values in ``event`` and ``given`` makes the event
    impossible, so the result is 0.  Conditioning on a zero-probability event
    raises DegenerateEventError.
    """
    given_kw = _assignment_kwargs(given, "given")
    try:
        prob = joint.prob
    except AttributeError:
        raise _not_a_joint(joint) from None
    denominator = prob(**given_kw)
    if denominator == 0:
        raise DegenerateEventError(f"conditioning event {dict(given)!r} has probability zero")
    merged = dict(given_kw)
    for key, value in _assignment_kwargs(event, "event").items():
        if key in merged and merged[key] != value:
            return 0 * denominator  # impossible event; keeps the result's type
        merged[key] = value
    return prob(**merged) / denominator


def _masses(model: int, v, one) -> tuple:
    """(exposed0, exposed1, unexposed0, unexposed1): P(E, C=j) over ``one``**2.

    ``v`` holds the model's values in field order (t, a0, a1 / a, c0, c1 /
    a, t first), over the unit ``one``: the values themselves with one = 1,
    or integer numerators over one = L.  The campaign's seven-slot layout
    starts the same way, so it passes its slots unchanged.
    """
    if model == 1:
        t, a0, a1 = v[0], v[1], v[2]
        return a0 * (one - t), a1 * t, (one - a0) * (one - t), (one - a1) * t
    if model == 2:
        a, c0, c1 = v[0], v[1], v[2]
        return a * (one - c1), a * c1, (one - a) * (one - c0), (one - a) * c0
    a, t = v[0], v[1]
    return a * (one - t), a * t, (one - a) * (one - t), (one - a) * t


def _cells(model: int, v, one) -> tuple:
    """The eight joint cells over ``one``**3, in canonical order.

    ``v`` and ``one`` are as for ``_masses``; the outcome values b0, b1,
    u0, u1 are the last four.  Each cell is a mass times one outcome factor.
    """
    exposed0, exposed1, unexposed0, unexposed1 = _masses(model, v, one)
    b0, b1, u0, u1 = v[-4:]
    return (
        exposed0 * (one - u0),
        exposed0 * u0,
        exposed1 * (one - u1),
        exposed1 * u1,
        unexposed0 * (one - b0),
        unexposed0 * b0,
        unexposed1 * (one - b1),
        unexposed1 * b1,
    )


# The proportions of the cells, which the verdict path (``measures``) and
# the pure campaign kernel both read; kept here so the kernel need not load
# ``measures``.
def _float_proportions(p: tuple) -> tuple:
    """(hypothetical, observed, standardized) of float cells ``p``: the
    per-measure functions' sums, quotients and errors, in their order, on
    one read of the cells."""
    exposed = p[0] + p[1] + p[2] + p[3]
    if exposed == 0:
        raise DegenerateEventError("P(E=e) = 0; the hypothetical proportion is undefined")
    unexposed = p[4] + p[5] + p[6] + p[7]
    if unexposed == 0:
        raise DegenerateEventError("P(E=ebar) = 0; the observed proportion is undefined")
    return (p[1] + p[3]) / exposed, (p[5] + p[7]) / unexposed, _standardized(p, exposed)


def _standardized(p: tuple, exposed) -> Numeric:
    """The standardized proportion of cells ``p`` whose exposed mass
    ``exposed`` is nonzero."""
    total = 0
    for k, (cases, stratum, weight) in enumerate(
        ((p[5], p[4] + p[5], p[0] + p[1]), (p[7], p[6] + p[7], p[2] + p[3]))
    ):
        if weight == 0:
            continue
        if stratum == 0:
            raise DegenerateEventError(
                f"P(E=ebar, C={k}) = 0 while P(C={k} | E=e) > 0; "
                "the standardized proportion is undefined"
            )
        total = total + (cases / stratum) * (weight / exposed)
    return total


def _exact_pairs(n: tuple) -> tuple:
    """(h, hd, o, od, s, sd): the hypothetical, observed and standardized
    proportions of a rational joint as integer ratios h/hd, o/od and s/sd.

    ``n`` is the joint's integer numerators over any common denominator.
    Every denominator is positive, so comparisons of the proportions can be
    cross-multiplied.  Raises the per-measure functions' errors in their
    order.
    """
    exposed = n[0] + n[1] + n[2] + n[3]
    if exposed == 0:
        raise DegenerateEventError("P(E=e) = 0; the hypothetical proportion is undefined")
    unexposed = n[4] + n[5] + n[6] + n[7]
    if unexposed == 0:
        raise DegenerateEventError("P(E=ebar) = 0; the observed proportion is undefined")
    # standardized = (sum_k cases_k * weight_k / stratum_k) / exposed over the
    # strata with weight_k > 0, summed as numerator / denominator
    numerator, denominator = 0, 1
    for k, (cases, stratum, weight) in enumerate(
        ((n[5], n[4] + n[5], n[0] + n[1]), (n[7], n[6] + n[7], n[2] + n[3]))
    ):
        if weight == 0:
            continue
        if stratum == 0:
            raise DegenerateEventError(
                f"P(E=ebar, C={k}) = 0 while P(C={k} | E=e) > 0; "
                "the standardized proportion is undefined"
            )
        numerator = numerator * stratum + cases * weight * denominator
        denominator *= stratum
    return n[1] + n[3], exposed, n[5] + n[7], unexposed, numerator, denominator * exposed


def _unit_values(params: ModelParams) -> tuple:
    """(model, one, values, exact) of a parameter set, for ``_masses``.

    Rational parameters give their integer numerators over one = L and
    exact = True; any other parameters give their own values over one = 1
    (see ``_ParamsBase``).
    """
    try:
        return params._unit
    except AttributeError:
        raise ParameterError(f"not a model parameter set: {params!r}") from None


def build_joint(params: ModelParams) -> JointDistribution:
    """Expand any parameter set to its joint distribution.

    The cells are ``_cells``, shared with exact campaigns: one of the
    model's masses times one outcome factor each.  Float and mixed
    parameters multiply their own values, in the operand order of the
    model's factorization, so cells and their types are those of the plain
    products bit for bit.  Rational parameters multiply their integer
    numerators over L, the least common multiple of their denominators; the
    joint keeps those integer cells over L**3 and builds one ``Fraction``
    per cell on first access.  The tests hold the plain ``Fraction``
    products as the oracle.
    """
    model, one, v, exact = _unit_values(params)
    cells = _cells(model, v, one)
    if exact:
        return JointDistribution._from_numerators(cells, one * one * one)
    return JointDistribution(cells)
