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
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Tuple, Union

from .errors import DegenerateEventError, ParameterError, TableFormatError
from .joint import Exposure, JointDistribution
from .measures import ClassificationReport, _classify, summary_from_joint


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

CountKey = Tuple[ResponseType, Exposure, str]


@dataclass(frozen=True)
class StratifiedCounts:
    """Immutable counts indexed by (response type, exposure, stratum).

    ``strata`` fixes the stratum labels and their order; missing cells count
    as zero.  A table must contain at least one exposed and one unexposed
    individual overall.
    """

    strata: Tuple[str, ...]
    counts: Mapping[CountKey, int]

    def __post_init__(self) -> None:
        strata = tuple(self.strata)
        if not strata:
            raise ParameterError("a table needs at least one stratum")
        if len(set(strata)) != len(strata):
            raise ParameterError(f"duplicate stratum labels in {strata!r}")
        cleaned = {}
        for key, value in dict(self.counts).items():
            rtype, exposure, stratum = key
            if not isinstance(rtype, ResponseType) or not isinstance(exposure, Exposure):
                raise ParameterError(f"malformed count key {key!r}")
            if stratum not in strata:
                raise ParameterError(f"count key names unknown stratum {stratum!r}")
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ParameterError(f"count for {key!r} must be a nonnegative int, got {value!r}")
            if value:
                cleaned[key] = value
        object.__setattr__(self, "strata", strata)
        object.__setattr__(self, "counts", MappingProxyType(cleaned))
        for exposure in Exposure:
            if self.exposure_total(exposure) == 0:
                raise ParameterError(
                    f"table has no {exposure.value} individuals; both arms must be nonempty"
                )

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

    def potential_cases(self, exposure: Exposure, stratum: str) -> int:
        """Individuals with D_ebar = 1 in one (exposure, stratum) cell."""
        return sum(
            n
            for (t, e, s), n in self.counts.items()
            if e is exposure and s == stratum and t.diseased_if_unexposed
        )


@dataclass(frozen=True)
class CoarseningMap:
    """Assignment of each stratum label to binary group 0 or 1."""

    assignment: Mapping[str, int]

    def __post_init__(self) -> None:
        cleaned = dict(self.assignment)
        for stratum, group in cleaned.items():
            if group not in (0, 1):
                raise ParameterError(
                    f"stratum {stratum!r} assigned to group {group!r}; groups are 0 and 1"
                )
        object.__setattr__(self, "assignment", MappingProxyType(cleaned))

    @classmethod
    def from_spec(cls, spec: str) -> "CoarseningMap":
        """Parse a spec like ``0=1,2,3;1=4`` (group=comma-separated strata)."""
        assignment = {}
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            group_text, _, strata_text = part.partition("=")
            try:
                group = int(group_text.strip())
            except ValueError:
                raise ParameterError(f"bad coarsening group {group_text!r} in {spec!r}") from None
            if group not in (0, 1):
                raise ParameterError(f"coarsening group must be 0 or 1, got {group}")
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
    for stratum in counts.strata:
        if stratum not in mapping.assignment:
            raise ParameterError(f"stratum {stratum!r} missing from the coarsening map")
    merged: dict = {}
    for (rtype, exposure, stratum), n in counts.counts.items():
        key = (rtype, exposure, str(mapping.assignment[stratum]))
        merged[key] = merged.get(key, 0) + n
    return StratifiedCounts(strata=("0", "1"), counts=merged)


def analyze_counts(counts: StratifiedCounts) -> ClassificationReport:
    """Exact classification of a binary-stratum table.

    The table's joint (``counts_to_joint``) goes through the exact
    ``summary_from_joint`` and the verdict at tolerance zero, so the
    proportions are Fractions of integer counts and the report is that of
    ``classify_covariate`` on the joint.  Requires both exposure arms
    nonempty (a type invariant) and, for the standardized proportion,
    unexposed individuals in every stratum that has exposed ones; that
    error names the stratum's label.
    """
    if len(counts.strata) != 2:
        raise ParameterError(
            f"binary analysis needs exactly 2 strata, got {len(counts.strata)}; "
            "coarsen the table first"
        )
    for stratum in counts.strata:
        exposed = counts.stratum_total(Exposure.EXPOSED, stratum)
        if exposed and counts.stratum_total(Exposure.UNEXPOSED, stratum) == 0:
            raise DegenerateEventError(
                f"stratum {stratum!r} has exposed individuals but no unexposed ones; "
                "the standardized proportion is undefined"
            )
    return _classify(summary_from_joint(counts_to_joint(counts)), 0)


def counts_to_joint(counts: StratifiedCounts) -> JointDistribution:
    """The empirical joint over (E, C, D_ebar) of a binary-stratum table.

    The cells are the integer counts over the table's total.
    """
    if len(counts.strata) != 2:
        raise ParameterError(
            f"the joint over a binary covariate needs exactly 2 strata, "
            f"got {len(counts.strata)}; coarsen the table first"
        )
    total = counts.total()
    if total == 0:
        raise ParameterError("empty table has no joint distribution")
    cells = [0] * 8
    for (rtype, exposure, stratum), n in counts.counts.items():
        index = JointDistribution.index(
            exposure, counts.strata.index(stratum), rtype.diseased_if_unexposed
        )
        cells[index] += n
    return JointDistribution._from_numerators(tuple(cells), total)


def load_counts(source) -> StratifiedCounts:
    """Read a table from a CSV path or text stream.

    The header must be exactly ``type,exposure,stratum,count``; ``#`` lines
    are skipped.  Errors carry the 1-based line number of the offending row.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8", newline="") as handle:
                return _parse_counts(handle)
        except OSError as exc:
            raise TableFormatError(f"cannot read {source}: {exc.strerror}") from exc
    return _parse_counts(source)


def _parse_counts(handle) -> StratifiedCounts:
    header_seen = False
    strata: list = []
    counts: dict = {}
    for line_no, row in enumerate(csv.reader(handle), start=1):
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
        try:
            count = int(count_text)
        except ValueError:
            raise TableFormatError(
                f"line {line_no}: count {count_text!r} is not an integer"
            ) from None
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
    if not header_seen:
        raise TableFormatError("empty source: no header line found")
    return StratifiedCounts(strata=tuple(strata), counts=counts)


def dump_counts(counts: StratifiedCounts) -> str:
    """Render a table back to its CSV form (deterministic row order)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["type", "exposure", "stratum", "count"])
    for rtype in ResponseType:
        for exposure in Exposure:
            for stratum in counts.strata:
                n = counts.count(rtype, exposure, stratum)
                if n:
                    writer.writerow([rtype.name.lower(), exposure.value, stratum, n])
    return out.getvalue()


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled example table."""
    path = resources.files("confound_kit").joinpath("data", name)
    if not path.is_file():
        available = sorted(
            entry.name
            for entry in resources.files("confound_kit").joinpath("data").iterdir()
            if entry.name.endswith(".csv")
        )
        raise ParameterError(f"no bundled table {name!r}; available: {available}")
    with resources.as_file(path) as concrete:
        return Path(concrete)
