"""Stratified response-type count tables and their exact analysis.

A table counts individuals by response type, exposure arm, and covariate
stratum.  The four response types fix both potential outcomes:

    doomed      diseased either way        (D_e=1, D_ebar=1)
    causative   diseased only if exposed   (D_e=1, D_ebar=0)
    preventive  diseased only if unexposed (D_e=0, D_ebar=1)
    immune      healthy either way         (D_e=0, D_ebar=0)

so D_ebar is read directly off the type (doomed and preventive count as
potential cases) and every analysis here is exact rational arithmetic over
integer counts.  Strata carry arbitrary string labels; binary analyses
(``analyze_counts``, ``counts_to_joint``) require exactly two strata and
identify C=0 and C=1 with the first and second label.  ``coarsen`` folds a
finer table into the binary shape by assigning each stratum to group 0 or 1.

CSV sources use the header ``type,exposure,stratum,count`` with exposure
values ``e`` and ``ebar``; lines starting with ``#`` are comments.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from enum import Enum
from pathlib import Path
from types import MappingProxyType

from .errors import DegenerateEventError, ParameterError, TableFormatError
from .joint import Exposure, JointDistribution, _check_mapping, _Frozen
from .measures import ClassificationReport, classify_covariate


class ResponseType(Enum):
    DOOMED = 1
    CAUSATIVE = 2
    PREVENTIVE = 3
    IMMUNE = 4

    @property
    def diseased_if_exposed(self) -> int:
        return 1 if self in (ResponseType.DOOMED, ResponseType.CAUSATIVE) else 0

    @property
    def diseased_if_unexposed(self) -> int:
        return 1 if self in (ResponseType.DOOMED, ResponseType.PREVENTIVE) else 0


_TYPE_NAMES = {t.name.lower(): t for t in ResponseType}
_EXPOSURE_NAMES = {"e": Exposure.EXPOSED, "ebar": Exposure.UNEXPOSED}
# a count in ASCII digits, as ``int`` reads it without its other forms
# ("1_0", non-ASCII digits)
_INTEGER = re.compile(r"[+-]?[0-9]+")
# the groups of a coarsening spec, written exactly
_GROUPS = {"0": 0, "1": 1}


class StratifiedCounts(_Frozen):
    """Immutable counts indexed by (response type, exposure, stratum).

    ``strata`` (a tuple of labels) fixes the stratum labels and their order;
    ``counts`` maps (response type, exposure, stratum) keys to counts, and
    missing cells count as zero.  A table must contain at least one exposed
    and one unexposed individual overall.
    """

    _fields = ("strata", "counts")

    def __post_init__(self) -> None:
        if not isinstance(self.strata, (tuple, list)):
            raise ParameterError(f"strata must be a tuple or list, got {type(self.strata).__name__}")
        strata = tuple(self.strata)
        if not strata:
            raise ParameterError("a table needs at least one stratum")
        for label in strata:
            try:
                hash(label)
            except TypeError:
                raise ParameterError(f"stratum label {label!r} is not hashable") from None
        if len(set(strata)) != len(strata):
            raise ParameterError(f"duplicate stratum labels in {strata!r}")
        _check_mapping(self.counts, "counts must be a mapping of (type, exposure, stratum) keys to counts")
        cleaned = {}
        for key, value in self.counts.items():
            rtype, exposure, stratum = key if isinstance(key, tuple) and len(key) == 3 else (None,) * 3
            if not isinstance(rtype, ResponseType) or not isinstance(exposure, Exposure):
                raise ParameterError(f"malformed count key {key!r}")
            if stratum not in strata:
                raise ParameterError(f"count key names unknown stratum {stratum!r}")
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ParameterError(f"count for {key!r} must be a nonnegative int, got {value!r}")
            if value:
                cleaned[key] = value
        self.__dict__.update(strata=strata, counts=MappingProxyType(cleaned))
        for exposure in Exposure:
            if self.exposure_total(exposure) == 0:
                raise ParameterError(
                    f"table has no {exposure.value} individuals; both arms must be nonempty"
                )

    def __hash__(self) -> int:
        return hash((self.strata, frozenset(self.counts.items())))

    def __reduce__(self):
        # pickle and copy cannot copy the read-only counts view; rebuild instead
        return type(self), (self.strata, dict(self.counts))

    def count(self, rtype: ResponseType, exposure: Exposure, stratum: str) -> int:
        return self.counts.get((rtype, exposure, stratum), 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def exposure_total(self, exposure: Exposure) -> int:
        return sum(n for (_, e, _), n in self.counts.items() if e is exposure)

    def stratum_total(self, exposure: Exposure, stratum: str) -> int:
        return sum(
            n for (_, e, s), n in self.counts.items() if e is exposure and s == stratum
        )


class CoarseningMap(_Frozen):
    """Assignment of each stratum label to binary group 0 or 1."""

    _fields = ("assignment",)

    def __post_init__(self) -> None:
        _check_mapping(self.assignment, "assignment must be a mapping of stratum labels to groups 0 and 1")
        cleaned = dict(self.assignment)
        for stratum, group in cleaned.items():
            # True == 1 and 1.0 == 1, yet coarsen names the group str(group)
            if isinstance(group, bool) or not isinstance(group, int) or group not in (0, 1):
                raise ParameterError(
                    f"stratum {stratum!r} assigned to group {group!r}; groups are 0 and 1"
                )
        self.__dict__["assignment"] = MappingProxyType(cleaned)

    def __hash__(self) -> int:
        return hash(frozenset(self.assignment.items()))

    def __reduce__(self):
        # pickle and copy cannot copy the read-only assignment view; rebuild instead
        return type(self), (dict(self.assignment),)

    @classmethod
    def from_spec(cls, spec: str) -> "CoarseningMap":
        """Parse a spec like ``0=1,2,3;1=4`` (group=comma-separated strata)."""
        if not isinstance(spec, str):
            raise ParameterError(f"a coarsening spec must be a str, got {type(spec).__name__}")
        assignment = {}
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            group_text, _, strata_text = part.partition("=")
            group = _GROUPS.get(group_text.strip())
            if group is None:
                raise ParameterError(f"bad coarsening group {group_text!r} in {spec!r}")
            labels = [s.strip() for s in strata_text.split(",") if s.strip()]
            if not labels:
                raise ParameterError(f"no strata listed for group {group} in {spec!r}")
            for label in labels:
                if label in assignment:
                    raise ParameterError(f"stratum {label!r} assigned twice in {spec!r}")
                assignment[label] = group
        if not assignment:
            raise ParameterError(f"empty coarsening spec {spec!r}")
        return cls(assignment)


def coarsen(counts: StratifiedCounts, mapping: CoarseningMap) -> StratifiedCounts:
    """Fold strata into the binary groups "0" and "1"."""
    try:
        strata, assignment = counts.strata, mapping.assignment
    except AttributeError:
        raise ParameterError(
            "coarsen needs a StratifiedCounts and a CoarseningMap, got "
            f"{type(counts).__name__} and {type(mapping).__name__}"
        ) from None
    for stratum in strata:
        if stratum not in assignment:
            raise ParameterError(f"stratum {stratum!r} missing from the coarsening map")
    merged: dict = {}
    for (rtype, exposure, stratum), n in counts.counts.items():
        key = (rtype, exposure, str(assignment[stratum]))
        merged[key] = merged.get(key, 0) + n
    return StratifiedCounts(strata=("0", "1"), counts=merged)


def _strata(counts: StratifiedCounts, name: str) -> tuple:
    """``counts.strata``; ParameterError, naming the function ``name``,
    unless ``counts`` is a table."""
    try:
        return counts.strata
    except AttributeError:
        raise ParameterError(f"{name} needs a StratifiedCounts, got {type(counts).__name__}") from None


def analyze_counts(counts: StratifiedCounts) -> ClassificationReport:
    """Exact classification of a binary-stratum table.

    The report is ``classify_covariate`` on the table's joint
    (``counts_to_joint``): the verdict is decided on the integer counts and
    the proportions are Fractions of them.  Requires both exposure arms
    nonempty (a type invariant) and, for the standardized proportion,
    unexposed individuals in every stratum that has exposed ones; that
    error names the stratum's label.
    """
    strata = _strata(counts, "analyze_counts")
    if len(strata) != 2:
        raise ParameterError(
            f"binary analysis needs exactly 2 strata, got {len(strata)}; "
            "coarsen the table first"
        )
    for stratum in strata:
        exposed = counts.stratum_total(Exposure.EXPOSED, stratum)
        if exposed and counts.stratum_total(Exposure.UNEXPOSED, stratum) == 0:
            raise DegenerateEventError(
                f"stratum {stratum!r} has exposed individuals but no unexposed ones; "
                "the standardized proportion is undefined"
            )
    return classify_covariate(counts_to_joint(counts))


def counts_to_joint(counts: StratifiedCounts) -> JointDistribution:
    """The empirical joint over (E, C, D_ebar) of a binary-stratum table.

    The cells are the integer counts over the table's total.
    """
    strata = _strata(counts, "counts_to_joint")
    if len(strata) != 2:
        raise ParameterError(
            f"the joint over a binary covariate needs exactly 2 strata, "
            f"got {len(strata)}; coarsen the table first"
        )
    cells = [0] * 8
    for (rtype, exposure, stratum), n in counts.counts.items():
        index = JointDistribution.index(exposure, strata.index(stratum), rtype.diseased_if_unexposed)
        cells[index] += n
    return JointDistribution._from_numerators(tuple(cells), counts.total())


def load_counts(source) -> StratifiedCounts:
    """Read a table from a CSV path or text stream.

    The header must be exactly ``type,exposure,stratum,count``; ``#`` lines
    are skipped.  Errors carry the 1-based line number of the offending row.
    Raises TableFormatError for every bad source: a file that cannot be
    read or is not UTF-8, a stream its codec cannot decode, a source that is
    not text (a binary stream, a list of rows), a line the CSV reader
    rejects, and a bad row.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8", newline="") as handle:
                return _parse_counts(handle)
        except OSError as exc:
            raise TableFormatError(f"cannot read {source}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise TableFormatError(f"cannot read {source}: not UTF-8 text ({exc.reason})") from None
    try:
        return _parse_counts(source)
    except UnicodeDecodeError as exc:  # a stream opened with a codec the file is not in
        name = getattr(source, "name", "the stream")
        raise TableFormatError(f"cannot read {name}: not {exc.encoding} text ({exc.reason})") from None


def _parse_counts(source) -> StratifiedCounts:
    # the first line shows whether the source is text: csv.reader would
    # raise csv.Error for bytes and TypeError for a source it cannot iterate
    try:
        lines = iter(source)
        first = next(lines, "")
    except TypeError:
        first = None
    if not isinstance(first, str):
        raise TableFormatError(
            f"expected a CSV path or a text stream, got {type(source).__name__} "
            "(open the file in text mode)"
        )
    rows = csv.reader(itertools.chain((first,), lines))
    header_seen = False
    strata: list = []
    counts: dict = {}
    line_no = 0
    try:
        for line_no, row in enumerate(rows, start=1):
            if not row or (row[0].lstrip().startswith("#")):
                continue
            cells = [c.strip() for c in row]
            if not header_seen:
                if cells != ["type", "exposure", "stratum", "count"]:
                    raise TableFormatError(
                        f"line {line_no}: expected header 'type,exposure,stratum,count', "
                        f"got {','.join(cells)!r}"
                    )
                header_seen = True
                continue
            if len(cells) != 4:
                raise TableFormatError(f"line {line_no}: expected 4 fields, got {len(cells)}")
            type_text, exposure_text, stratum, count_text = cells
            rtype = _TYPE_NAMES.get(type_text)
            if rtype is None:
                raise TableFormatError(
                    f"line {line_no}: unknown response type {type_text!r}; "
                    f"expected one of {sorted(_TYPE_NAMES)}"
                )
            exposure = _EXPOSURE_NAMES.get(exposure_text)
            if exposure is None:
                raise TableFormatError(
                    f"line {line_no}: unknown exposure {exposure_text!r}; expected 'e' or 'ebar'"
                )
            if not _INTEGER.fullmatch(count_text):
                raise TableFormatError(f"line {line_no}: count {count_text!r} is not an integer")
            count = int(count_text)
            if count < 0:
                raise TableFormatError(f"line {line_no}: count {count} is negative")
            if stratum not in strata:
                strata.append(stratum)
            key = (rtype, exposure, stratum)
            if key in counts:
                raise TableFormatError(
                    f"line {line_no}: duplicate row for "
                    f"({type_text}, {exposure_text}, {stratum}); one row per cell"
                )
            counts[key] = count
    except csv.Error as exc:  # a later line that is not text, or an oversized field
        raise TableFormatError(f"line {line_no + 1}: {exc}") from None
    if not header_seen:
        raise TableFormatError("empty source: no header line found")
    return StratifiedCounts(strata=tuple(strata), counts=counts)


def dump_counts(counts: StratifiedCounts) -> str:
    """Render a table back to its CSV form (deterministic row order)."""
    strata = _strata(counts, "dump_counts")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["type", "exposure", "stratum", "count"])
    for rtype in ResponseType:
        for exposure in Exposure:
            for stratum in strata:
                n = counts.count(rtype, exposure, stratum)
                if n:
                    writer.writerow([rtype.name.lower(), exposure.value, stratum, n])
    return out.getvalue()


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled example table.

    Only the bundled ``.csv`` names are accepted, so a name cannot reach
    outside the package's data directory.
    """
    data = Path(__file__).parent / "data"
    available = sorted(path.name for path in data.glob("*.csv"))
    if name not in available:
        raise ParameterError(f"no bundled table {name!r}; available: {available}")
    return data / name
