"""Tests for stratified count tables, coarsening, and the bridge to joints."""

import copy
import io
import pickle
from fractions import Fraction

import pytest

from confound_kit import (
    CoarseningMap,
    DegenerateEventError,
    Exposure,
    JointDistribution,
    ParameterError,
    ResponseType,
    StratifiedCounts,
    TableFormatError,
    Verdict,
    analyze_counts,
    classify_covariate,
    coarsen,
    counts_to_joint,
    dump_counts,
    fixture_path,
    load_counts,
)
from confound_kit._rng import SplitMix64

F = Fraction
RT = ResponseType
E = Exposure


def counts_from(rows):
    strata = []
    table = {}
    for rtype, exposure, stratum, n in rows:
        if stratum not in strata:
            strata.append(stratum)
        table[(rtype, exposure, stratum)] = n
    return StratifiedCounts(tuple(strata), table)


def table1():
    return load_counts(fixture_path("table1_coarse.csv"))


def table2():
    return load_counts(fixture_path("table2_coarse.csv"))


# --- response types --------------------------------------------------------


def test_response_type_outcome_mapping():
    assert [t.value for t in RT] == [1, 2, 3, 4]
    assert (RT.DOOMED.diseased_if_exposed, RT.DOOMED.diseased_if_unexposed) == (1, 1)
    assert (RT.CAUSATIVE.diseased_if_exposed, RT.CAUSATIVE.diseased_if_unexposed) == (1, 0)
    assert (RT.PREVENTIVE.diseased_if_exposed, RT.PREVENTIVE.diseased_if_unexposed) == (0, 1)
    assert (RT.IMMUNE.diseased_if_exposed, RT.IMMUNE.diseased_if_unexposed) == (0, 0)


# --- counts container ------------------------------------------------------


def test_counts_validation():
    with pytest.raises(ParameterError):
        counts_from([(RT.DOOMED, E.EXPOSED, "0", -1), (RT.DOOMED, E.UNEXPOSED, "0", 1)])
    with pytest.raises(ParameterError):
        counts_from([(RT.DOOMED, E.EXPOSED, "0", 5)])  # no unexposed arm
    with pytest.raises(ParameterError):
        StratifiedCounts(("0", "0"), {})  # duplicate labels
    with pytest.raises(ParameterError):
        StratifiedCounts(
            ("0",), {(RT.DOOMED, E.EXPOSED, "1"): 2}
        )  # unknown stratum


def _csv(row):
    return io.StringIO("type,exposure,stratum,count\n" + row + "\n")


def _three_strata():
    return counts_from([(RT.DOOMED, E.EXPOSED, s, 1) for s in "012"] + [(RT.IMMUNE, E.UNEXPOSED, "0", 1)])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: StratifiedCounts((), {}), ParameterError, "a table needs at least one stratum"),
        (
            lambda: StratifiedCounts(("0",), {("doomed", E.EXPOSED, "0"): 1}),
            ParameterError,
            "malformed count key ('doomed', <Exposure.EXPOSED: 'e'>, '0')",
        ),
        (
            lambda: CoarseningMap({"a": 2}),
            ParameterError,
            "stratum 'a' assigned to group 2; groups are 0 and 1",
        ),
        # True == 1 and 1.0 == 1, so these once passed, and coarsen then
        # failed on the unknown stratum str(group)
        (
            lambda: CoarseningMap({"a": True, "b": 0}),
            ParameterError,
            "stratum 'a' assigned to group True; groups are 0 and 1",
        ),
        (
            lambda: CoarseningMap({"a": 1.0, "b": 0}),
            ParameterError,
            "stratum 'a' assigned to group 1.0; groups are 0 and 1",
        ),
        # tables of the wrong kind once escaped as TypeError, ValueError or
        # AttributeError
        *(
            (lambda strata=strata: StratifiedCounts(strata, {}), ParameterError,
             f"strata must be a tuple or list, got {type(strata).__name__}")
            for strata in (None, 1, "ab")
        ),
        # an unhashable label once escaped from set(strata) as TypeError
        *(
            (lambda strata=strata: StratifiedCounts(strata, {}), ParameterError,
             f"stratum label {strata[0]!r} is not hashable")
            for strata in ([[1]], [{}])
        ),
        *(
            (lambda counts=counts: StratifiedCounts(("0",), counts), ParameterError,
             f"counts must be a mapping of (type, exposure, stratum) keys to counts, got {type(counts).__name__}")
            for counts in (None, [((RT.DOOMED, E.EXPOSED, "0"), 1)])
        ),
        *(
            (lambda key=key: StratifiedCounts(("0",), {key: 1}), ParameterError, f"malformed count key {key!r}")
            for key in ("x", (1, 2), None)
        ),
        *(
            (lambda assignment=assignment: CoarseningMap(assignment), ParameterError,
             f"assignment must be a mapping of stratum labels to groups 0 and 1, got {type(assignment).__name__}")
            for assignment in (None, "x")
        ),
        (lambda: CoarseningMap.from_spec(None), ParameterError, "a coarsening spec must be a str, got NoneType"),
        (lambda: CoarseningMap.from_spec("x=1"), ParameterError, "bad coarsening group 'x' in 'x=1'"),
        (lambda: CoarseningMap.from_spec(";"), ParameterError, "empty coarsening spec ';'"),
        (
            lambda: counts_to_joint(_three_strata()),
            ParameterError,
            "the joint over a binary covariate needs exactly 2 strata, got 3; coarsen the table first",
        ),
        (
            lambda: load_counts(_csv("doomed,x,0,1")),
            TableFormatError,
            "line 2: unknown exposure 'x'; expected 'e' or 'ebar'",
        ),
        (
            lambda: load_counts(_csv("doomed,e,0,1.5")),
            TableFormatError,
            "line 2: count '1.5' is not an integer",
        ),
        # int() reads these as 10, 3 and 10; a count is ASCII digits
        *(
            (lambda count=count: load_counts(_csv(f"doomed,e,0,{count}")), TableFormatError,
             f"line 2: count {count!r} is not an integer")
            for count in ("1_0", "\u0663", "\uff11\uff10")
        ),
        (lambda: load_counts(_csv("doomed,e,0,-3")), TableFormatError, "line 2: count -3 is negative"),
        # int() reads these groups as 0 or 1; a group is exactly 0 or 1
        *(
            (lambda spec=spec: CoarseningMap.from_spec(spec), ParameterError,
             f"bad coarsening group {spec.partition('=')[0]!r} in {spec!r}")
            for spec in ("\u0660=a;\uff11=b", "0_0=a", "00=a;1=b", "+1=a", "2=a")
        ),
    ],
    ids=["no-strata", "str-response-type", "map-group", "map-group-bool", "map-group-float", "strata-none",
         "strata-int", "strata-str", "strata-label-list", "strata-label-dict", "counts-none", "counts-list", "count-key-str", "count-key-pair",
         "count-key-none", "map-none", "map-str", "spec-none", "spec-group", "spec-empty", "three-strata",
         "csv-exposure", "csv-count", "csv-count-underscore", "csv-count-arabic-indic", "csv-count-fullwidth",
         "csv-count-negative", "spec-group-arabic-indic", "spec-group-underscore", "spec-group-zero-padded",
         "spec-group-signed", "spec-group-two"],
)
def test_malformed_tables_rejected(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_counts_drop_zero_cells_and_total():
    counts = counts_from([
        (RT.DOOMED, E.EXPOSED, "0", 3),
        (RT.IMMUNE, E.EXPOSED, "0", 0),
        (RT.IMMUNE, E.UNEXPOSED, "0", 7),
    ])
    assert (RT.IMMUNE, E.EXPOSED, "0") not in counts.counts
    assert counts.count(RT.IMMUNE, E.EXPOSED, "0") == 0
    assert counts.total() == 10
    assert counts.exposure_total(E.EXPOSED) == 3
    assert counts.stratum_total(E.UNEXPOSED, "0") == 7


# --- coarsening ------------------------------------------------------------


def test_coarsening_map_parser():
    mapping = CoarseningMap.from_spec("0=1,2,3;1=4")
    assert dict(mapping.assignment) == {"1": 0, "2": 0, "3": 0, "4": 1}
    with pytest.raises(ParameterError):
        CoarseningMap.from_spec("0=1;1=")  # empty group
    with pytest.raises(ParameterError):
        CoarseningMap.from_spec("0=1;1=1")  # stratum in both groups
    with pytest.raises(ParameterError):
        CoarseningMap.from_spec("0=1;2=4")  # group label out of range


def test_coarsen_reproduces_table1():
    base = load_counts(fixture_path("table1.csv"))
    got = coarsen(base, CoarseningMap.from_spec("0=1,2,3;1=4"))
    assert got.strata == ("0", "1")
    want = {
        (RT.DOOMED, E.EXPOSED, "0"): 133,
        (RT.DOOMED, E.EXPOSED, "1"): 23,
        (RT.DOOMED, E.UNEXPOSED, "0"): 122,
        (RT.DOOMED, E.UNEXPOSED, "1"): 52,
        (RT.IMMUNE, E.EXPOSED, "0"): 117,
        (RT.IMMUNE, E.EXPOSED, "1"): 27,
        (RT.IMMUNE, E.UNEXPOSED, "0"): 78,
        (RT.IMMUNE, E.UNEXPOSED, "1"): 48,
    }
    assert dict(got.counts) == want
    assert dict(table1().counts) == want
    assert got.total() == base.total() == 600


def test_coarsen_reproduces_table2():
    base = load_counts(fixture_path("table2_base.csv"))
    got = coarsen(base, CoarseningMap.from_spec("0=1,3,4;1=2"))
    want = {
        (RT.DOOMED, E.EXPOSED, "0"): 46,
        (RT.DOOMED, E.EXPOSED, "1"): 110,
        (RT.DOOMED, E.UNEXPOSED, "0"): 26,
        (RT.DOOMED, E.UNEXPOSED, "1"): 148,
        (RT.IMMUNE, E.EXPOSED, "0"): 54,
        (RT.IMMUNE, E.EXPOSED, "1"): 90,
        (RT.IMMUNE, E.UNEXPOSED, "0"): 24,
        (RT.IMMUNE, E.UNEXPOSED, "1"): 102,
    }
    assert dict(got.counts) == want
    assert dict(table2().counts) == want
    assert got.total() == base.total() == 600


def test_equal_tables_and_maps_hash_equal():
    # the coarsened Table 2 equals the coarse fixture; neither the order of
    # the counts nor a zero cell (dropped on construction) changes the hash
    coarse = table2()
    folded = coarsen(load_counts(fixture_path("table2_base.csv")), CoarseningMap.from_spec("0=1,3,4;1=2"))
    backwards = StratifiedCounts(coarse.strata, dict(reversed(coarse.counts.items())))
    padded = StratifiedCounts(coarse.strata, {**coarse.counts, (RT.CAUSATIVE, E.EXPOSED, "0"): 0})
    assert list(backwards.counts) != list(coarse.counts)
    assert coarse == folded == backwards == padded
    assert hash(coarse) == hash(folded) == hash(backwards) == hash(padded)
    assert {coarse, folded, backwards, padded} == {coarse}
    assert table1() not in {coarse}
    relabeled = StratifiedCounts(("1", "0"), dict(coarse.counts))
    assert relabeled != coarse and len({coarse, relabeled}) == 2

    mapping = CoarseningMap.from_spec("0=1,2,3;1=4")
    reordered = CoarseningMap({"4": 1, "3": 0, "2": 0, "1": 0})
    assert mapping == reordered and hash(mapping) == hash(reordered)
    assert {mapping, reordered} == {mapping}
    assert CoarseningMap.from_spec("0=1,2;1=3,4") not in {mapping}


@pytest.mark.parametrize(
    "make",
    [
        lambda: load_counts(fixture_path("table2_coarse.csv")),
        lambda: load_counts(fixture_path("table1.csv")),
        lambda: CoarseningMap.from_spec("0=1,2,3;1=4"),
    ],
    ids=["table2_coarse", "table1", "coarsening_map"],
)
def test_tables_and_maps_survive_pickle_and_copy(make):
    # the read-only mapping views cannot be pickled; both classes rebuild
    # through their constructors instead
    value = make()
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)


def test_identity_map_keeps_counts():
    base = table1()
    got = coarsen(base, CoarseningMap.from_spec("0=0;1=1"))
    assert dict(got.counts) == dict(base.counts)


def test_coarsen_requires_every_stratum_mapped():
    base = load_counts(fixture_path("table1.csv"))
    with pytest.raises(ParameterError):
        coarsen(base, CoarseningMap.from_spec("0=1,2;1=4"))  # level 3 unmapped


def test_no_common_refinement_exists():
    # the two coarse tables cannot come from one shared 4-level table: the
    # {1,2,3} group's unexposed doomed total (122) is smaller than level 2's
    # alone (148), so separate reconstructions are shipped per table
    group0 = table1().count(RT.DOOMED, E.UNEXPOSED, "0")
    level2 = table2().count(RT.DOOMED, E.UNEXPOSED, "1")
    assert level2 > group0


# --- exact analysis --------------------------------------------------------


def test_table1_analysis_exact():
    report = analyze_counts(table1())
    assert report.hypothetical == F(156, 300) == F(13, 25)
    assert report.observed == F(174, 300) == F(29, 50)
    assert report.standardized == F(122, 200) * F(250, 300) + F(52, 100) * F(50, 300)
    assert report.standardized == F(119, 200)
    assert report.bias == F(-3, 50)
    assert report.adjusted_gap == F(3, 40)
    assert report.verdict is Verdict.NEITHER


def test_table2_analysis_exact():
    report = analyze_counts(table2())
    assert report.hypothetical == F(13, 25)
    assert report.observed == F(29, 50)
    assert report.standardized == F(26, 50) * F(100, 300) + F(148, 250) * F(200, 300)
    assert report.standardized == F(71, 125)  # 0.568
    assert report.adjusted_gap == F(6, 125)   # 0.048 < 0.06
    assert report.verdict is Verdict.CONFOUNDER


def test_matched_stratum_distributions_are_irrelevant():
    counts = counts_from([
        (RT.DOOMED, E.EXPOSED, "0", 6), (RT.IMMUNE, E.EXPOSED, "0", 4),
        (RT.DOOMED, E.EXPOSED, "1", 9), (RT.IMMUNE, E.EXPOSED, "1", 21),
        (RT.DOOMED, E.UNEXPOSED, "0", 12), (RT.IMMUNE, E.UNEXPOSED, "0", 8),
        (RT.DOOMED, E.UNEXPOSED, "1", 27), (RT.IMMUNE, E.UNEXPOSED, "1", 33),
    ])
    report = analyze_counts(counts)
    assert report.standardized == report.observed == F(39, 80)
    assert report.verdict is Verdict.IRRELEVANT


def test_analyze_requires_binary_covariate():
    base = load_counts(fixture_path("table1.csv"))
    with pytest.raises(ParameterError):
        analyze_counts(base)  # four levels


def test_analyze_reports_vanished_stratum():
    counts = counts_from([
        (RT.DOOMED, E.EXPOSED, "0", 5),
        (RT.DOOMED, E.EXPOSED, "1", 5),
        (RT.DOOMED, E.UNEXPOSED, "0", 5),
    ])
    with pytest.raises(DegenerateEventError) as err:
        analyze_counts(counts)
    assert "1" in str(err.value)


def test_analyze_names_vanished_stratum_label():
    # the label, not the covariate index the joint knows the stratum by
    counts = StratifiedCounts(
        ("young", "old"),
        {
            (RT.DOOMED, E.EXPOSED, "young"): 5,
            (RT.IMMUNE, E.EXPOSED, "old"): 5,
            (RT.DOOMED, E.UNEXPOSED, "young"): 5,
        },
    )
    with pytest.raises(DegenerateEventError) as err:
        analyze_counts(counts)
    assert str(err.value) == (
        "stratum 'old' has exposed individuals but no unexposed ones; "
        "the standardized proportion is undefined"
    )


def test_no_effect_premise_on_fixtures():
    # doomed/immune-only populations show no exposure effect among the exposed
    for name in ("table1.csv", "table1_coarse.csv", "table2_base.csv", "table2_coarse.csv"):
        counts = load_counts(fixture_path(name))
        assert {t for (t, _, _) in counts.counts} <= {RT.DOOMED, RT.IMMUNE}
        actual = sum(
            n for (t, e, _), n in counts.counts.items()
            if e is E.EXPOSED and t.diseased_if_exposed
        )
        hypothetical = sum(
            n for (t, e, _), n in counts.counts.items()
            if e is E.EXPOSED and t.diseased_if_unexposed
        )
        assert actual == hypothetical


# --- bridge to joints ------------------------------------------------------


def test_counts_to_joint_table1_matches_analysis():
    counts = table1()
    joint = counts_to_joint(counts)
    assert sum(joint.p) == 1
    assert joint.p[JointDistribution.index("e", 0, 1)] == F(133, 600)
    direct = analyze_counts(counts)
    bridged = classify_covariate(joint, tol=0)
    assert direct == bridged


def test_counts_to_joint_two_individuals():
    counts = StratifiedCounts(
        ("0", "1"),
        {(RT.DOOMED, E.EXPOSED, "0"): 1, (RT.IMMUNE, E.UNEXPOSED, "0"): 1},
    )
    joint = counts_to_joint(counts)
    assert joint.p[JointDistribution.index("e", 0, 1)] == F(1, 2)
    assert joint.p[JointDistribution.index("ebar", 0, 0)] == F(1, 2)
    assert sum(1 for w in joint.p if w) == 2


def test_table2_bridge_verdict():
    joint = counts_to_joint(table2())
    assert classify_covariate(joint, tol=0).verdict is analyze_counts(table2()).verdict


def test_bridge_consistency_random_tables():
    rng = SplitMix64(606)
    for _ in range(100):
        rows = []
        strata = ("0", "1")
        for rtype in RT:
            for exposure in E:
                for stratum in strata:
                    rows.append((rtype, exposure, stratum, rng.next_u64() % 9))
        try:
            counts = counts_from(rows)
            direct = analyze_counts(counts)
        except (ParameterError, DegenerateEventError):
            continue
        assert direct == classify_covariate(counts_to_joint(counts), tol=0)


# --- CSV parsing -----------------------------------------------------------


def test_load_counts_accepts_all_types_and_comments():
    text = (
        "# leading comment\n"
        "type,exposure,stratum,count\n"
        "doomed,e,0,3\n"
        "causative,e,0,2\n"
        "# interior comment\n"
        "preventive,ebar,1,4\n"
        "immune,ebar,1,1\n"
    )
    counts = load_counts(io.StringIO(text))
    assert counts.strata == ("0", "1")
    assert counts.count(RT.CAUSATIVE, E.EXPOSED, "0") == 2
    assert counts.count(RT.PREVENTIVE, E.UNEXPOSED, "1") == 4
    # preventive individuals carry D_ebar = 1
    assert counts_to_joint(counts).prob(e="ebar", c=1, d=1) == Fraction(4, 10)


def test_load_counts_error_line_numbers():
    with pytest.raises(TableFormatError) as err:
        load_counts(io.StringIO("kind,exposure,stratum,count\n"))
    assert "line 1" in str(err.value)

    bad_type = "type,exposure,stratum,count\ndoomed,e,0,1\nzombie,ebar,0,1\n"
    with pytest.raises(TableFormatError) as err:
        load_counts(io.StringIO(bad_type))
    assert "line 3" in str(err.value)

    bad_count = "type,exposure,stratum,count\ndoomed,e,0,1\nimmune,ebar,0,-2\n"
    with pytest.raises(TableFormatError) as err:
        load_counts(io.StringIO(bad_count))
    assert "line 3" in str(err.value)

    bad_arity = "type,exposure,stratum,count\ndoomed,e,0\n"
    with pytest.raises(TableFormatError) as err:
        load_counts(io.StringIO(bad_arity))
    assert "line 2" in str(err.value)


def test_load_counts_empty_is_an_error():
    with pytest.raises(TableFormatError):
        load_counts(io.StringIO(""))
    with pytest.raises(TableFormatError):
        load_counts(io.StringIO("# only a comment\n"))


@pytest.mark.parametrize(
    "source, name",
    [
        (io.BytesIO(b"type,exposure,stratum,count\n"), "BytesIO"),
        ([["type", "exposure", "stratum", "count"]], "list"),
        ([b"type,exposure,stratum,count\n"], "list"),
        (None, "NoneType"),
        (7, "int"),
    ],
)
def test_load_counts_rejects_a_source_that_is_not_text(source, name):
    # a binary stream or a list of rows once raised _csv.Error, a number
    # TypeError
    with pytest.raises(TableFormatError) as err:
        load_counts(source)
    assert str(err.value) == f"expected a CSV path or a text stream, got {name} (open the file in text mode)"


def test_load_counts_stream_its_codec_cannot_decode(tmp_path):
    # a path is opened as UTF-8 and its decode error was already a
    # TableFormatError; a stream the caller opened raised UnicodeDecodeError
    path = tmp_path / "latin1.csv"
    path.write_bytes("type,exposure,stratum,count\ndoomed,e,caf\xe9,1\nimmune,ebar,caf\xe9,1\n".encode("latin-1"))
    with open(path, encoding="utf-8", newline="") as handle:
        with pytest.raises(TableFormatError) as err:
            load_counts(handle)
    assert str(err.value) == f"cannot read {path}: not utf-8 text (invalid continuation byte)"
    stream = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="ascii")
    with pytest.raises(TableFormatError, match=r"^cannot read the stream: not ascii text \(ordinal not in range\(128\)\)$"):
        load_counts(stream)
    # the codec the file is in reads it
    with open(path, encoding="latin-1", newline="") as handle:
        assert load_counts(handle).strata == ("café",)


@pytest.mark.parametrize(
    "lines, message",
    [
        (["type,exposure,stratum,count\n", b"doomed,e,0,1\n"], "line 2: iterator should return strings, not bytes"),
        (["type,exposure,stratum,count\n", "# note\n", "doomed,e,0," + "9" * 200_000 + "\n"], "line 3: field larger than field limit"),
    ],
)
def test_load_counts_csv_errors_carry_their_line(lines, message):
    # the CSV reader's own errors once escaped as _csv.Error
    with pytest.raises(TableFormatError, match=message):
        load_counts(lines)


def test_duplicate_row_rejected_with_line():
    text = "type,exposure,stratum,count\ndoomed,e,0,1\ndoomed,e,0,2\nimmune,ebar,0,1\n"
    with pytest.raises(TableFormatError) as err:
        load_counts(io.StringIO(text))
    assert "line 3" in str(err.value)


def test_dump_then_load_round_trip():
    counts = table2()
    again = load_counts(io.StringIO(dump_counts(counts)))
    assert dict(again.counts) == dict(counts.counts)
    assert again.strata == counts.strata


def test_fixture_paths_exist():
    for name in ("table1.csv", "table1_coarse.csv", "table2_base.csv", "table2_coarse.csv"):
        assert fixture_path(name).is_file()
    for name in ("missing.csv", "../__init__.py", "../joint.py"):
        with pytest.raises(ParameterError, match="no bundled table"):
            fixture_path(name)
