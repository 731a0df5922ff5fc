"""Trace data model, validation, stats, and text-format round trips."""

from __future__ import annotations

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corrcache.trace as trace_mod
from corrcache.trace import (
    NO_VERSION,
    ObjectCatalog,
    Trace,
    TraceFormatError,
    _plain_block,
    _read_lines,
    pack_key,
    read_trace,
    trace_stats,
    trace_to_string,
    unpack_key,
    validate_trace,
    write_trace,
)

from conftest import make_trace, naive_write_trace


def empty_trace() -> Trace:
    cat = ObjectCatalog()
    cat.add(1, 1.0)
    return Trace(np.empty(0), np.empty(0, np.int64), np.empty(0, np.int64), None, cat)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_empty_trace_ok():
    assert validate_trace(empty_trace()).ok


def test_validate_unsorted_times_names_index():
    tr = make_trace([(5.0, 1, 1), (3.0, 1, 2)])
    tr.times = np.array([5.0, 3.0])  # undo canonical sorting
    report = validate_trace(tr)
    assert not report.ok
    assert any("unsorted at index 1" in v for v in report.violations)


def test_validate_unknown_object():
    tr = make_trace([(1.0, 1, 1)])
    tr.objects = np.array([7], dtype=np.int64)  # 7 has no catalog entry
    report = validate_trace(tr)
    assert not report.ok
    assert any("unknown object" in v for v in report.violations)


def test_validate_tie_order_client_then_object():
    ok = make_trace([(1.0, 1, 2), (1.0, 2, 1)])
    assert validate_trace(ok).ok
    bad = make_trace([(1.0, 1, 1), (1.0, 1, 2)])
    bad.objects = bad.objects[::-1].copy()
    assert not validate_trace(bad).ok


def test_validate_rejects_ids_below_one():
    tr = make_trace([(1.0, 1, 1)])
    tr.clients = np.array([0], dtype=np.int64)
    assert any("client id 0 below 1" in v for v in validate_trace(tr).violations)
    tr2 = make_trace([(1.0, 1, 1)])
    tr2.objects = np.array([0], dtype=np.int64)
    assert any("object id 0 below 1" in v for v in validate_trace(tr2).violations)


def test_validate_rejects_negative_and_nonfinite_times():
    tr = make_trace([(1.0, 1, 1)])
    tr.times = np.array([-2.0])
    assert any("negative time" in v for v in validate_trace(tr).violations)
    tr.times = np.array([float("nan")])
    assert any("non-finite time" in v for v in validate_trace(tr).violations)


def unknown_messages_by_lookup(trace: Trace, earlier: int, max_violations: int) -> list[str]:
    """The coverage messages of a per-identity catalog lookup in ascending key
    order, stopping once `max_violations` problems are listed."""
    out = []
    for key in np.unique(trace.identity_keys()).tolist():
        oid, ver = unpack_key(key)
        if (oid, ver) not in trace.catalog:
            out.append(f"unknown object ({oid}, {ver}): referenced but not in catalog")
            if earlier + len(out) >= max_violations:
                break
    return out


def test_validate_lists_unknown_identities_in_key_order_up_to_the_cap():
    cat = ObjectCatalog()
    for oid in (1, 4, 9):
        cat.add(oid, 1.0)
    cat.add(5, 1.0, version=0)
    idents = [(oid, ver) for oid in range(1, 13) for ver in (None, 0, 7)]
    tr = Trace(
        np.arange(len(idents), dtype=np.float64)[::-1],  # unsorted: one earlier problem
        np.ones(len(idents), dtype=np.int64),
        np.array([o for o, _ in idents]),
        np.array([NO_VERSION if v is None else v for _, v in idents]),
        cat,
    )
    missing = unknown_messages_by_lookup(tr, 1, 10**6)
    assert len(missing) == 3 * 12 - 4 > 20
    assert missing[:2] == [
        "unknown object (1, 0): referenced but not in catalog",
        "unknown object (1, 7): referenced but not in catalog",
    ]
    for cap in (0, 1, 2, 5, 20, 33, 100):
        report = validate_trace(tr, max_violations=cap)
        expected = (["unsorted at index 1"] + unknown_messages_by_lookup(tr, 1, cap))[:cap]
        assert report.violations == expected
        assert not report.ok
    # only coverage problems: the cap counts them alone
    tr.sort_events()
    assert validate_trace(tr).violations == unknown_messages_by_lookup(tr, 0, 20)
    assert len(validate_trace(tr).violations) == 20
    assert not validate_trace(tr, max_violations=0).ok


def test_validate_reports_a_catalog_that_keys_cannot_hold():
    # the catalog refuses such identities at once, so validation never sees them
    cat = ObjectCatalog()
    for oid, ver, match in [
        (2, 300, "version 300 out of range"),
        (2, -2, "version -2 out of range"),
        (0, None, "object id 0 out of range"),
        (2**32, None, "object id 4294967296 out of range"),
    ]:
        with pytest.raises(ValueError, match=match):
            cat.add(oid, 1.0, ver)
    assert len(cat) == 0
    with pytest.raises(TraceFormatError, match="line 3: version 300 out of range") as ei:
        read_trace(io.StringIO("#meta a=b\n#obj 1 - 1.0\n#obj 2 300 1.0\n0.5 1 1 -\n"))
    assert ei.value.line == 3


def test_catalog_stores_explicit_version_minus_one_as_none():
    tr = read_trace(io.StringIO("#obj 1 -1 1.0\n0.5 1 1 -\n1.5 1 1 -\n"))
    assert tr.catalog.identities() == [(1, None)]
    assert validate_trace(tr).ok
    s = trace_stats(tr)
    assert (s.distinct_identities, s.footprint_volume) == (1, 1.0)


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_stats_empty_trace_all_zero():
    s = trace_stats(empty_trace())
    assert (s.num_events, s.num_clients, s.distinct_objects) == (0, 0, 0)
    assert s.time_span == (0.0, 0.0) and s.footprint_volume == 0.0


def test_stats_counts_and_duration():
    tr = make_trace(
        [(0.0, 1, 1), (1.0, 2, 1), (2.5, 1, 2), (4.0, 2, 2)], sizes={1: 1.0, 2: 1.0}
    )
    s = trace_stats(tr)
    assert s.num_events == 4
    assert s.distinct_objects == 2 and s.distinct_identities == 2
    assert s.num_clients == 2
    assert s.time_span == (0.0, 4.0)
    assert s.footprint_volume == 2.0
    assert s.events_per_client == {1: 2, 2: 2}


def test_stats_footprint_counts_only_referenced_objects():
    tr = make_trace([(0.0, 1, 1)])
    tr.catalog.add(99, 5.0)  # catalogued but never requested
    s = trace_stats(tr)
    assert s.footprint_volume == 1.0
    assert s.catalog_volume == 6.0


def test_stats_on_main_grouped_preset_object_bound():
    from corrcache.presets import get_preset

    tr = get_preset("grouped-4.1").build_trace(scale=1.0, seed=0, horizon=20.0)
    s = trace_stats(tr)
    assert s.distinct_objects <= 3000
    assert s.num_clients == 3 + 8 + 6 + 4


# ---------------------------------------------------------------------------
# ordering and construction
# ---------------------------------------------------------------------------


def test_sort_events_orders_by_time_client_object():
    cat = ObjectCatalog({(4, 1): 1.0, (5, None): 1.0, (7, None): 1.0, (9, 0): 1.0})
    tr = Trace(
        np.array([2.0, 1.0, 1.0, 1.0]),
        np.array([1, 3, 2, 2]),
        np.array([5, 9, 7, 4]),
        np.array([NO_VERSION, 0, NO_VERSION, 1]),
        cat,
    )
    tr.sort_events()
    got = list(
        zip(tr.times.tolist(), tr.clients.tolist(), tr.objects.tolist(), tr.versions.tolist())
    )
    assert got == [(1.0, 2, 4, 1), (1.0, 2, 7, NO_VERSION), (1.0, 3, 9, 0), (2.0, 1, 5, NO_VERSION)]
    assert validate_trace(tr).ok


def test_trace_arrays_keep_events_and_default_versions():
    tr = make_trace([(0.5, 1, 2), (1.5, 2, 3)])
    got = list(
        zip(tr.times.tolist(), tr.clients.tolist(), tr.objects.tolist(), tr.versions.tolist())
    )
    assert got == [(0.5, 1, 2, NO_VERSION), (1.5, 2, 3, NO_VERSION)]
    assert [unpack_key(k) for k in tr.identity_keys().tolist()] == [(2, None), (3, None)]


# ---------------------------------------------------------------------------
# identity packing
# ---------------------------------------------------------------------------


def test_pack_unpack_round_trip():
    for oid, ver in [(1, None), (1, 0), (77, 2), (5000, 254), (123456, None)]:
        assert unpack_key(pack_key(oid, ver)) == (oid, ver)


def test_pack_rejects_out_of_range_versions():
    with pytest.raises(ValueError):
        pack_key(1, 255)
    with pytest.raises(ValueError):
        pack_key(1, -2)


def test_identity_keys_distinguish_versions():
    tr = make_trace([(0.0, 1, 1, 0), (1.0, 1, 1, 1), (2.0, 1, 1, None)], versions=True)
    assert len(set(tr.identity_keys().tolist())) == 3


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_write_read_round_trip_three_events(tmp_path):
    tr = make_trace(
        [(0.25, 1, 1), (1.0, 2, 2), (2.75, 1, 2)],
        sizes={1: 2.0, 2: 5.0},
        meta={"generator": "test", "seed": "7"},
    )
    path = tmp_path / "t.trace"
    write_trace(tr, path)
    back = read_trace(path)
    assert np.array_equal(back.times, tr.times)
    assert np.array_equal(back.clients, tr.clients)
    assert np.array_equal(back.objects, tr.objects)
    assert np.array_equal(back.versions, tr.versions)
    assert back.catalog == tr.catalog
    assert back.meta == tr.meta


def test_round_trip_preserves_versions():
    tr = make_trace(
        [(0.0, 1, 1, 0), (1.0, 1, 1, 1), (2.0, 2, 1, None)],
        sizes={(1, 0): 1.0, (1, 1): 0.5, (1, None): 0.1},
        versions=True,
    )
    back = read_trace(io.StringIO(trace_to_string(tr)))
    assert np.array_equal(back.versions, tr.versions)
    assert back.catalog == tr.catalog


def test_text_format_layout():
    tr = make_trace([(0.5, 1, 2)], sizes={2: 5.0}, meta={"seed": "3"})
    text = trace_to_string(tr)
    assert text.splitlines() == ["#meta seed=3", "#obj 2 - 5.0", "0.5 1 2 -"]


def test_malformed_event_line_reports_line_number():
    with pytest.raises(TraceFormatError) as ei:
        read_trace(io.StringIO("#obj 1 - 1.0\nabc\n"))
    assert ei.value.line == 2
    assert "4 fields" in str(ei.value)


def test_malformed_meta_and_directive_lines():
    with pytest.raises(TraceFormatError, match="missing '='"):
        read_trace(io.StringIO("#meta noequals\n"))
    with pytest.raises(TraceFormatError, match="unknown directive"):
        read_trace(io.StringIO("#bogus 1\n"))
    with pytest.raises(TraceFormatError, match="malformed #obj"):
        read_trace(io.StringIO("#obj 1 -\n"))


@pytest.mark.parametrize("meta", [{"note": "a\rb"}, {"a\rb": "note"}, {"note": "a\nb"}])
def test_writer_rejects_meta_that_the_reader_would_split(meta):
    tr = make_trace([(0.5, 1, 1)], meta=meta)
    with pytest.raises(TraceFormatError, match="not representable"):
        trace_to_string(tr)


def test_non_numeric_event_fields_raise_with_line():
    with pytest.raises(TraceFormatError) as ei:
        read_trace(io.StringIO("#obj 1 - 1.0\n0.5 one 1 -\n"))
    assert ei.value.line == 2


HEAD = "#meta seed=3\n#obj 1 - 1.0\n#obj 10 - 2.0\n#obj 10 0 2.0\n"

READER_CASES = {
    "plain": HEAD + "0.5 1 1 -\n1.5 2 10 0\n",
    "3 then 5 fields": HEAD + "0.5 1 1\n1.5 2 10 0 9\n",
    "5 then 3 fields": HEAD + "0.5 1 1 - 9\n1.5 2 10\n",
    "tab separator": HEAD + "0.5\t1 1 -\n1.5 2 10 0\n",
    "double space": HEAD + "0.5  1 1 -\n",
    "leading spaces": HEAD + "  0.5 1 1 -\n1.5 2 10 0\n",
    "trailing spaces": HEAD + "0.5 1 1 -  \n1.5 2 10 0\n",
    "blank line": HEAD + "0.5 1 1 -\n\n1.5 2 10 0\n",
    "whitespace-only line": HEAD + "0.5 1 1 -\n \t \n1.5 2 10 0\n",
    "CRLF": HEAD.replace("\n", "\r\n") + "0.5 1 1 -\r\n1.5 2 10 0\r\n",
    "#meta after events": HEAD + "0.5 1 1 -\n#meta late=yes\n1.5 2 10 0\n",
    "#obj after events": HEAD + "0.5 1 1 -\n#obj 2 - 3.0\n1.5 2 2 -\n",
    "unknown directive after events": HEAD + "0.5 1 1 -\n#bogus 1 2 3\n",
    "no final newline": HEAD + "0.5 1 1 -\n1.5 2 10 0",
    "+5, 1_0 and -1": HEAD + "0.5 +5 1_0 -1\n1_5.5 2 +10 0\n",
    "arabic-indic digit": HEAD + "0.5 \u0663 1 -\n",
    "non-numeric client": HEAD + "0.5 one 1 -\n",
    "float as an int": HEAD + "0.5 1.0 1 -\n",
    "float as a version": HEAD + "0.5 1 1 0.0\n",
    "int too large": HEAD + "0.5 99999999999999999999 1 -\n",
    "non-finite times": HEAD + "nan 1 1 -\ninf 1 1 -\n1e500 1 1 -\n",
    "mixed versions": HEAD + "".join(f"{t}.5 1 10 {'-' if t % 3 else t % 2}\n" for t in range(40)),
    "empty file": "",
    "header only": HEAD,
    "header only, no final newline": HEAD.rstrip("\n"),
    "blank line in the header": "#meta a=b\n\n#obj 1 - 1.0\n0.5 1 1 -\n",
    "bad header line": "#meta a=b\n#obj 1 - one\n0.5 1 1 -\n",
}


def parse_outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 - the reference may raise anything
        return exc


@pytest.mark.parametrize("block_chars", [None, 1, 12])
@pytest.mark.parametrize("name", sorted(READER_CASES))
def test_reader_matches_the_line_loop(name, block_chars):
    text = READER_CASES[name]
    want = parse_outcome(_read_lines, text)
    with mock.patch.object(trace_mod, "_BLOCK_CHARS", block_chars or trace_mod._BLOCK_CHARS):
        got = parse_outcome(lambda t: read_trace(io.StringIO(t)), text)
    assert_same_outcome(got, want)


EVENTS = "0.5 1 1 -\n1.5 2 10 0\n"

# header lines that `_parse_header` must hand to the line loop, or parse as it
HEADER_CASES = {
    "plain": HEAD + EVENTS,
    "no #obj lines": "#meta a=b\n#meta c=d=e\n",
    "#meta only, no final newline": "#meta a=b",
    "#obj before #meta": "#obj 1 - 1.0\n#meta a=b\n#obj 10 0 2.0\n#obj 10 - 2.0\n" + EVENTS,
    "repeated identity": HEAD + "#obj 1 - 3.0\n#obj 1 -1 4.0\n" + EVENTS,
    "signs, underscores, exponents": "#obj +1 -1 1_0.5\n#obj 1_0 +0 2e0\n#obj 10 - inf\n" + EVENTS,
    "#meta without '='": "#meta a=b\n#meta ab\n#obj 1 - 1.0\n",
    "#meta with '=' only in the key part": "#meta =\n#obj 1 - 1.0\n",
    "#metax": "#metax a=b\n#obj 1 - 1.0\n",
    "#obj with 3 fields": "#obj 1 - 1.0\n#obj 1 1.0\n",
    "#obj with 5 fields": "#obj 1 - 1.0\n#obj 1 - 1.0 2\n",
    "#obj with a tab": "#obj 1\t- 1.0\n",
    "#obj with two spaces": "#obj 1 -  1.0\n",
    "#obj with CRLF": "#obj 1 - 1.0\r\n#obj 2 - 1.0\r\n",
    "#obj, no final newline": "#obj 1 - 1.0\n#obj 2 - 3.0",
    "#obj size 0": "#obj 1 - 1.0\n#obj 2 - 0\n",
    "#obj size nan": "#obj 1 - 1.0\n#obj 2 - nan\n",
    "#obj size negative": "#obj 1 - 1.0\n#obj 2 - -1.0\n",
    "#obj size not a number": "#obj 1 - 1.0\n#obj 2 - big\n",
    "#obj id 0": "#obj 1 - 1.0\n#obj 0 - 1.0\n",
    "#obj id 2**32": "#obj 1 - 1.0\n#obj 4294967296 - 1.0\n",
    "#obj id too large for int64": "#obj 1 - 1.0\n#obj 99999999999999999999 - 1.0\n",
    "#obj version 255": "#obj 1 - 1.0\n#obj 2 255 1.0\n",
    "#obj version -2": "#obj 1 - 1.0\n#obj 2 -2 1.0\n",
    "#obj float id": "#obj 1 - 1.0\n#obj 2.0 - 1.0\n",
    "#obj non-ASCII digit": "#obj 1 - 1.0\n#obj \u0663 - 1.0\n",
    "#obj with '#' inside": "#obj 1 - 1.0\n#obj 2 #obj 1.0\n",
}


@pytest.mark.parametrize("name", sorted(HEADER_CASES))
def test_header_parser_matches_the_line_loop(name):
    text = HEADER_CASES[name]
    want = parse_outcome(_read_lines, text)
    got = parse_outcome(lambda t: read_trace(io.StringIO(t)), text)
    assert_same_outcome(got, want)


def assert_same_outcome(got, want) -> None:
    """`read_trace` gave what the line loop gave: an equal exception at the
    same line, or an equal trace whose catalog and meta keep the same
    insertion order."""
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        assert getattr(got, "line", None) == getattr(want, "line", None)
    else:
        assert isinstance(got, Trace), got
        assert_same_trace(got, want)
        assert list(got.catalog._sizes.items()) == list(want.catalog._sizes.items())
        assert list(got.meta.items()) == list(want.meta.items())


# Tokens for the reader property.  Digit strings are parsed from their bytes
# up to 18 digits (15 before ".0" for floats); every other form, and a block
# that holds one, goes through int()/float() or the line loop.
DIGITS = "0123456789"
digit_token = st.one_of(
    st.integers(1, 300).map(str),
    st.tuples(st.integers(1, 20), st.integers(0, 999)).map(lambda t: "0" * t[0] + str(t[1])),
    st.text(DIGITS, min_size=1, max_size=18),
)
other_int_token = st.one_of(
    st.tuples(st.sampled_from("+-"), digit_token).map("".join),
    st.tuples(st.integers(1, 999), st.integers(0, 999)).map(lambda t: f"{t[0]}_{t[1]:03d}"),
    st.integers(10**18, 2**63 - 1).map(str),
)
bad_int_token = st.sampled_from(
    ["_1", "1_", "1__0", "+_1", "0x1", "1.0", "1e3", "-", "one", str(2**63), str(-(2**63) - 1)]
)
whole_token = st.one_of(
    st.integers(0, 3000).map(lambda i: f"{i}.0"),
    st.text(DIGITS, min_size=1, max_size=16).map(lambda d: d + ".0"),
)
other_float_token = st.one_of(
    st.sampled_from(["+1.0", "1e3", "1_0.0", ".5", "5.", "0.5", "1e400", "inf"]),
    st.integers(0, 3000).map(str),
    st.text(DIGITS, min_size=15, max_size=16).map(lambda d: d + ".0"),
    st.floats(min_value=1e-300, allow_infinity=False, width=64).map(repr),
)
# refused as times or as sizes: sizes must be above 0
bad_float_token = st.sampled_from(["x", "1__0.0", "0x1p3", ".", "-", "0.0", "-0.0", "-1.0", "nan"])
catalog_id_token = st.one_of(
    st.integers(1, 2**32 - 1).map(str),
    st.integers(1, 999).map(lambda i: f"{i:06d}"),
)
catalog_version_token = st.one_of(st.just("-"), st.integers(0, 254).map(str))


@st.composite
def token_texts(draw) -> str:
    """A trace text of plain lines whose tokens mix the forms above.  Each
    field draws its tokens from the byte-parsed forms only or from those and
    the other forms int()/float() accept, so that some texts take the byte
    path in every block; in about half the texts one field also draws forms
    that the line loop refuses."""
    fields = iter(range(7))
    refused = draw(st.integers(0, 13))

    def tokens(plain, other, bad):
        if next(fields) == refused:
            return st.one_of(plain, other, bad)
        return draw(st.sampled_from([plain, st.one_of(plain, other)]))

    time = tokens(whole_token, other_float_token, bad_float_token)
    client = tokens(digit_token, other_int_token, bad_int_token)
    obj = tokens(digit_token, other_int_token, bad_int_token)
    version = tokens(st.one_of(st.just("-"), digit_token), other_int_token, bad_int_token)
    # catalog ids and versions that `ObjectCatalog.add` accepts, then others
    head_id = tokens(catalog_id_token, st.just("+7"), st.one_of(digit_token, bad_int_token))
    head_version = tokens(catalog_version_token, st.just("-1"), bad_int_token)
    size = tokens(whole_token.filter(lambda t: t.strip("0.")), other_float_token, bad_float_token)
    meta = draw(st.lists(st.tuples(st.text("ab=", max_size=3), st.text("ab=", max_size=3)),
                         max_size=2))
    lines = [f"#meta {k}={v}" for k, v in meta]
    lines += ["#obj " + " ".join(draw(st.tuples(head_id, head_version, size)))
              for _ in range(draw(st.integers(0, 8)))]
    lines += [" ".join(draw(st.tuples(time, client, obj, version)))
              for _ in range(draw(st.integers(0, 30)))]
    return "".join(line + "\n" for line in lines)


@settings(max_examples=300, deadline=None)
@given(token_texts(), st.sampled_from([None, 1, 9, 40]))
# 19 digits: the most an int64 holds, one more, and a version with leading
# zeros; 15 and 16 digits before ".0"; -0.0, whose sign must survive
@example("0.0 9223372036854775807 1 -\n", None)
@example("0.0 1 9223372036854775808 -\n", None)
@example("#obj 1 - 1.0\n1.0 1 1 0000000000000000001\n", None)
@example("999999999999999.0 1 1 -\n9999999999999999.0 1 1 -\n", 1)
@example("0.0 1 1 -\n-0.0 1 1 -\n", None)
def test_reader_matches_the_line_loop_on_every_token_form(text, block_chars):
    want = parse_outcome(_read_lines, text)
    with mock.patch.object(trace_mod, "_BLOCK_CHARS", block_chars or trace_mod._BLOCK_CHARS):
        got = parse_outcome(lambda t: read_trace(io.StringIO(t)), text)
    assert_same_outcome(got, want)


def test_reader_cases_cover_errors_and_traces():
    outcomes = {name: parse_outcome(_read_lines, text) for name, text in READER_CASES.items()}
    assert isinstance(outcomes["3 then 5 fields"], TraceFormatError)
    assert outcomes["3 then 5 fields"].line == 5
    assert isinstance(outcomes["int too large"], OverflowError)
    assert outcomes["+5, 1_0 and -1"].clients.tolist() == [5, 2]
    assert outcomes["+5, 1_0 and -1"].objects.tolist() == [10, 10]
    assert outcomes["+5, 1_0 and -1"].times.tolist() == [0.5, 15.5]
    assert outcomes["+5, 1_0 and -1"].versions.tolist() == [NO_VERSION, 0]
    assert outcomes["arabic-indic digit"].clients.tolist() == [3]
    assert outcomes["#meta after events"].meta == {"seed": "3", "late": "yes"}
    assert len(outcomes["empty file"]) == 0 and len(outcomes["header only"]) == 0


def test_crlf_file_reads_like_lf_file(tmp_path):
    lf = READER_CASES["plain"]
    path = tmp_path / "crlf.trace"
    path.write_bytes(lf.replace("\n", "\r\n").encode())
    assert_same_trace(read_trace(path), _read_lines(lf))


@pytest.mark.parametrize(
    "block, plain",
    [
        ("0.5 1 2 -\n1.5 3 4 0\n", True),
        ("0.5 +5 1_0 -1\n", True),
        ("0.5 1 2\n1.5 3 4 0 9\n", False),
        ("0.5 1 2 - 9\n1.5 3 4\n", False),
        ("0.5 1 2 -\n#obj 5 - 2.0\n", False),
        ("#obj 5 - 2.0\n", False),
        ("0.5 1 2 -\n\n1.5 3 4 0\n", False),
        ("\n0.5 1 2 -\n", False),
        ("0.5 1 2 -\n\n", False),
        ("0.5  1 2 -\n", False),
        ("0.5  1 2\n", False),
        (" 0.5 1 2\n", False),
        ("0.5 1 2 \n", False),
        ("0.5\t1 2 -\n", False),
        ("0.5 1 2 -\r\n", False),
        ("0.5 1 2 -\x0c\n", False),
        ("0.5 1\x1f2 - 3\n", False),
        ("0.5 1 2 -", False),
        ("0.5 \u0663 2 -\n", False),
        ("0.5 1 2\u3000-\n", False),
        ("", False),
    ],
)
def test_plain_block_accepts_only_four_single_spaced_fields_a_line(block, plain):
    assert (_plain_block(block) is not None) is plain


def test_writer_output_never_falls_back_to_the_line_loop(monkeypatch):
    rng = np.random.default_rng(5)
    events = [
        (float(t), int(c), int(o), None if v < 0 else int(v))
        for t, c, o, v in zip(
            np.cumsum(rng.exponential(0.7, 400)),
            rng.integers(1, 9, 400),
            rng.integers(1, 60, 400),
            rng.integers(-1, 3, 400),
        )
    ]
    tr = make_trace(events, sizes={o: 0.1 * o for o in range(1, 60)}, versions=True,
                    meta={"seed": "5"})
    text = trace_to_string(tr)
    parsed = []

    def spy(chunk):
        parsed.append(chunk)
        return _read_lines(chunk)

    monkeypatch.setattr(trace_mod, "_BLOCK_CHARS", 100)
    monkeypatch.setattr(trace_mod, "_read_lines", spy)
    for variant in (text, text.rstrip("\n")):  # also without the final newline
        parsed.clear()
        assert_same_trace(read_trace(io.StringIO(variant)), tr)
        # neither the header nor any event block reaches the line loop
        assert parsed == []


def test_catalog_rejects_nonpositive_size():
    cat = ObjectCatalog()
    with pytest.raises(ValueError, match="size must be > 0"):
        cat.add(1, 0.0)


def added_one_by_one(objects, versions, sizes):
    """What `ObjectCatalog.add` builds from the identities in order, or the
    exception it raises."""
    catalog = ObjectCatalog()
    try:
        for o, v, s in zip(objects, versions, sizes):
            catalog.add(o, s, v)
    except ValueError as exc:
        return exc
    return catalog


@pytest.mark.parametrize(
    "objects, versions, sizes",
    [
        ([1, 0], [-1, -1], [1.0, 1.0]),
        ([1, -5], [-1, 0], [1.0, 1.0]),
        ([1, 2**32], [-1, -1], [1.0, 1.0]),
        ([1, 2], [-1, -2], [1.0, 1.0]),
        ([1, 2], [0, 255], [1.0, 1.0]),
        ([1, 2], [0, 1], [1.0, 0.0]),
        ([1, 2], [0, 1], [1.0, -0.0]),
        ([1, 2], [0, 1], [-2.5, 1.0]),
        ([1, 2], [0, 1], [1.0, float("nan")]),
        # the first failing identity is reported, in whichever check fails
        ([1, 0, 3], [-1, 0, 300], [float("nan"), 1.0, 0.0]),
        ([5, 2**32, 3], [300, 0, 0], [1.0, 0.0, 1.0]),
    ],
)
def test_bulk_catalog_raises_what_add_raises(objects, versions, sizes):
    want = added_one_by_one(objects, versions, sizes)
    with pytest.raises(ValueError) as got:
        ObjectCatalog._from_arrays(objects, versions, sizes)
    assert type(got.value) is type(want)
    assert str(got.value) == str(want)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(1, 2**32 - 1) | st.integers(1, 4),
            st.integers(-1, 254) | st.integers(-1, 1),
            st.sampled_from([0.5, 1.0, 2.0, 1e300, float("inf")]),
        ),
        max_size=20,
    )
)
def test_bulk_catalog_equals_adds_in_order(identities):
    objects, versions, sizes = (list(c) for c in zip(*identities)) if identities else ([], [], [])
    want = added_one_by_one(objects, versions, sizes)
    got = ObjectCatalog._from_arrays(objects, versions, sizes)
    # same identities, sizes and insertion order, a repeated identity keeping
    # its first position and its last size
    assert list(got._sizes.items()) == list(want._sizes.items())
    assert got.size_arrays()[0].tobytes() == want.size_arrays()[0].tobytes()


def test_catalog_volume_and_unit_checks():
    cat = ObjectCatalog()
    cat.add(1, 2.0)
    cat.add(2, 5.0)
    cat.add(2, 1.0, version=1)
    assert cat.total_volume() == 8.0
    assert not cat.unit_sized()
    assert (2, 1) in cat and (2, None) in cat and (3, None) not in cat
    assert cat.identities() == [(1, None), (2, None), (2, 1)]


def test_equal_catalogs_report_equal_volumes():
    # a builtin sum in insertion order gives 0.6000000000000001 and 0.6
    forward = ObjectCatalog({(1, None): 0.1, (2, None): 0.2, (3, None): 0.3})
    backward = ObjectCatalog({(3, None): 0.3, (2, None): 0.2, (1, None): 0.1})
    assert forward == backward
    assert repr(forward.total_volume()) == repr(backward.total_volume()) == "0.6000000000000001"
    assert ObjectCatalog().total_volume() == 0.0


def test_volume_survives_a_write_read_round_trip():
    cat = ObjectCatalog({(3, None): 0.3, (2, None): 0.2, (1, None): 0.1})
    tr = Trace(np.array([0.0]), np.array([1]), np.array([1]), None, cat)
    back = read_trace(io.StringIO(trace_to_string(tr)))
    assert repr(back.catalog.total_volume()) == repr(cat.total_volume())


def test_catalog_lookups_read_version_minus_one_as_none():
    cat = ObjectCatalog()
    cat.add(4, 2.5, NO_VERSION)
    assert (4, NO_VERSION) in cat and (4, None) in cat and (4, 0) not in cat
    assert cat.size(4, NO_VERSION) == cat.size(4) == 2.5


def test_catalog_arrays_include_identities_added_later():
    cat = ObjectCatalog()
    cat.add(2, 5.0)
    keys, sizes = cat.size_arrays()
    assert keys.tolist() == [pack_key(2, None)] and sizes.tolist() == [5.0]
    assert cat.identities() == [(2, None)]
    cat.add(1, 2.0, version=3)
    cat.add(2, 4.0)  # a new size for a known identity
    keys, sizes = cat.size_arrays()
    assert keys.tolist() == [pack_key(1, 3), pack_key(2, None)]
    assert sizes.tolist() == [2.0, 4.0]
    assert cat.identities() == [(1, 3), (2, None)]


def test_catalog_arrays_are_read_only_and_built_once():
    cat = ObjectCatalog({(1, None): 1.0, (1, 0): 0.5})
    keys, sizes = cat.size_arrays()
    assert not keys.flags.writeable and not sizes.flags.writeable
    with pytest.raises(ValueError):
        keys[0] = 7
    with pytest.raises(ValueError):
        sizes[0] = 7.0
    assert cat.size_arrays()[0] is keys
    cat.identities().append((9, None))  # a copy: the cached list is untouched
    assert cat.identities() == [(1, None), (1, 0)]


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

event_strategy = st.tuples(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, width=64),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=40),
)

time_strategy = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, width=64),
    st.floats(min_value=0.0, max_value=1e-300, allow_nan=False, width=64),  # subnormals
    st.sampled_from([0.1 + 0.2, 123456.78901234567, 1e15, 5e-324, 2.225073858507201e-308]),
)
id_strategy = st.integers(min_value=1, max_value=2**32 - 1)
version_strategy = st.one_of(st.none(), st.integers(min_value=0, max_value=254))
size_strategy = st.sampled_from([0.1, 0.5, 2.5, 1e-300, 1e300])
meta_key = st.text(st.characters(blacklist_characters="\n\r=", blacklist_categories=("Cs",)))
meta_value = st.text(st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)))


def assert_same_trace(got: Trace, want: Trace) -> None:
    for name in ("times", "clients", "objects", "versions"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name  # bit for bit, NaN included
    assert got.catalog == want.catalog
    assert got.meta == want.meta


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(time_strategy, id_strategy, id_strategy, version_strategy), max_size=60),
    st.data(),
    st.dictionaries(meta_key, meta_value, max_size=3),
    st.one_of(st.none(), st.integers(min_value=1, max_value=200)),
)
def test_round_trip_identity_property(events, data, meta, block_chars):
    sizes = {
        (o, v): data.draw(size_strategy) for o, v in sorted({(e[2], e[3]) for e in events}, key=str)
    }
    tr = make_trace(events, sizes=sizes, versions=True) if events else empty_trace()
    tr.meta = meta
    text = trace_to_string(tr)
    with mock.patch.object(trace_mod, "_BLOCK_CHARS", block_chars or trace_mod._BLOCK_CHARS):
        back = read_trace(io.StringIO(text))
    assert_same_trace(back, tr)
    assert_same_trace(back, _read_lines(text))
    assert validate_trace(back).ok == validate_trace(tr).ok


# times that repr() writes as digits plus ".0", and their edges: -0.0, the
# exponent form from 1e16 on, non-finite values and fractions
writer_time = st.one_of(
    st.integers(0, 3000).map(float),
    st.integers(2**53 - 4, 2**53 + 4).map(float),
    st.integers(10**16 - 4, 10**16 + 4).map(float),
    st.sampled_from([-0.0, -1.0, -2.0**53, 1e16 - 2, 1e16, 2.0**53, 1e300, 5e-324]),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)
writer_ids = (st.integers(1, 2**23 - 1), st.integers(1, 2**32 - 1), st.integers(-1, 254))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.tuples(writer_time, *writer_ids), max_size=40),
        # whole-number times only, so that whole blocks take the table path
        st.lists(st.tuples(st.integers(0, 50).map(float), *writer_ids), max_size=40),
    ),
    st.integers(1, 9),
)
def test_block_writer_equals_the_line_writer(events, block):
    times, clients, objects, versions = (np.array(c) for c in list(zip(*events)) or [()] * 4)
    identities = sorted({(o, v) for _, _, o, v in events} | {(1, -1)})
    catalog = ObjectCatalog._from_arrays(*zip(*identities), [0.5] * len(identities))
    tr = Trace(times, clients, objects, versions, catalog, {"k": "v"})
    want = io.StringIO()
    naive_write_trace(tr, want)
    with mock.patch.object(trace_mod, "_WRITE_BLOCK", block):
        assert trace_to_string(tr) == want.getvalue()
    assert trace_to_string(tr) == want.getvalue()


@settings(max_examples=30, deadline=None)
@given(st.lists(event_strategy, min_size=2, max_size=40))
def test_sort_is_canonical_and_idempotent(events):
    tr = make_trace(events)
    assert validate_trace(tr).ok
    before = trace_to_string(tr)
    tr.sort_events()
    assert trace_to_string(tr) == before


# ---------------------------------------------------------------------------
# catalog ranks and the time-first sort, against np.unique / np.lexsort
# ---------------------------------------------------------------------------


@st.composite
def ranked_traces(draw) -> Trace:
    """A sorted trace over a dense or a sparse catalog, some of whose events
    may name identities the catalog lacks (inside or outside its rank table),
    with dense or sparse client ids."""
    mode = draw(st.sampled_from(["dense", "sparse", "high versions"]))
    if mode == "dense":
        # every object of 1..k has at least one version: the table is full
        k = draw(st.integers(1, 8))
        idents = {(o, draw(st.sampled_from([None, 0, 1, 2]))) for o in range(1, k + 1)}
        idents |= set(draw(st.lists(st.tuples(
            st.integers(1, k), st.sampled_from([None, 0, 1, 2])), max_size=12)))
    else:
        objects = st.one_of(st.integers(1, 6), st.integers(2**32 - 6, 2**32 - 1))
        versions = st.sampled_from([None, 0, 3] + ([253, 254] if mode == "high versions" else []))
        idents = set(draw(st.lists(st.tuples(objects, versions), min_size=1, max_size=10)))
        if mode == "sparse":
            idents |= {(1, None), (2**32 - 1, None)}
    catalog = ObjectCatalog({iv: draw(st.sampled_from([0.1, 0.2, 0.5, 1.0, 3.0]))
                             for iv in idents})
    unknown = st.tuples(
        st.one_of(st.integers(1, 12), st.integers(2**32 - 8, 2**32 - 1)),
        st.sampled_from([None, 0, 1, 2, 3, 7, 254]),
    )
    chosen = draw(st.lists(
        st.one_of(st.sampled_from(sorted(idents, key=lambda iv: pack_key(*iv))), unknown),
        min_size=1, max_size=30,
    ))
    clients = st.one_of(st.integers(1, 4), st.integers(2**23 - 3, 2**23 - 1))
    events = [(float(draw(st.integers(0, 5))), draw(clients), o, NO_VERSION if v is None else v)
              for o, v in chosen]
    tr = Trace(
        np.array([e[0] for e in events]),
        np.array([e[1] for e in events], dtype=np.int64),
        np.array([e[2] for e in events], dtype=np.int64),
        np.array([e[3] for e in events], dtype=np.int64),
        catalog,
    )
    tr.sort_events()
    return tr


def unique_ranks(tr: Trace) -> np.ndarray:
    """Catalog ranks through `np.unique` of the packed keys and a search of
    the catalog keys; -1 for an identity the catalog lacks."""
    keys, inverse = np.unique(tr.identity_keys(), return_inverse=True)
    cat_keys = tr.catalog.size_arrays()[0]
    pos = np.searchsorted(cat_keys, keys)
    known = pos < len(cat_keys)
    known[known] = cat_keys[pos[known]] == keys[known]
    return np.where(known, pos, -1)[inverse]


def unique_coverage_messages(tr: Trace, max_violations: int) -> list[str]:
    """The coverage violations as listed from `np.unique` of every key."""
    keys = np.unique(tr.identity_keys())
    missing = [unpack_key(k) for k in keys.tolist() if unpack_key(k) not in tr.catalog]
    return [f"unknown object ({o}, {v}): referenced but not in catalog"
            for o, v in missing[: max(max_violations, 1)]]


def key_loop_stats(tr: Trace):
    """`trace_stats`' identity figures by a Python loop over the distinct keys."""
    volume = 0.0
    keys = np.unique(tr.identity_keys()).tolist()
    for key in keys:
        volume += tr.catalog.size(*unpack_key(key))
    return len(keys), len(np.unique(tr.objects)), volume


@settings(max_examples=200, deadline=None)
@given(ranked_traces(), st.integers(0, 4))
def test_catalog_ranks_and_coverage_equal_np_unique(tr, max_violations):
    ranks = tr.catalog._ranks(tr.objects, tr.versions)
    assert ranks.dtype == np.int32
    assert ranks.tolist() == unique_ranks(tr).tolist()
    report = validate_trace(tr, max_violations)
    want = unique_coverage_messages(tr, max_violations)
    assert report.ok == (not want)
    assert report.violations == want[:max_violations]
    problems, sizes, got_ranks = trace_mod._checked_sizes(tr, max_violations)
    if not want:
        assert sizes.tolist() == [tr.catalog.size(*unpack_key(k))
                                  for k in tr.identity_keys().tolist()]
        assert got_ranks.tolist() == ranks.tolist()
    else:
        assert sizes is None and got_ranks is None


@settings(max_examples=200, deadline=None)
@given(ranked_traces())
def test_trace_stats_equal_a_loop_over_distinct_keys(tr):
    try:
        want = key_loop_stats(tr)
    except KeyError as exc:
        with pytest.raises(KeyError) as got:
            trace_stats(tr)
        assert got.value.args == exc.args
        return
    s = trace_stats(tr)
    got = (s.distinct_identities, s.distinct_objects, s.footprint_volume)
    assert repr(got) == repr(want)  # the volume bit for bit


def test_stats_footprint_adds_sizes_in_key_order_one_by_one():
    # np.sum's pairwise order gives 933.9333333333334 here
    sizes = {(o, None): 0.1 * ((7 * o) % 13) + 1 / 3 for o in range(1, 1001)}
    objects = np.arange(1000, 0, -1, dtype=np.int64)
    tr = Trace(np.arange(1000.0), np.ones(1000, np.int64), objects, None, ObjectCatalog(sizes))
    volume = 0.0
    for o in range(1, 1001):
        volume += sizes[(o, None)]
    assert repr(trace_stats(tr).footprint_volume) == repr(volume) == "933.9333333333301"


def test_rank_table_is_built_for_compact_catalogs_only():
    dense = ObjectCatalog({(o, v): 1.0 for o in range(5, 9) for v in (None, 0, 2)})
    table, first, span = dense._rank_table()
    assert (first, span, len(table)) == (5, 4, 16)  # 12 identities
    sparse = ObjectCatalog({(1, None): 1.0, (2**32 - 1, None): 1.0})
    assert sparse._rank_table()[0] is None
    high = ObjectCatalog({(1, None): 1.0, (1, 254): 1.0})
    assert high._rank_table()[0] is None  # 256 version slots for 2 identities
    assert ObjectCatalog()._rank_table()[0] is None
    dense.add(9, 1.0)  # add drops the table
    assert dense._rank_table()[1:] == (5, 4) and len(dense._rank_table()[0]) == 20


@pytest.mark.parametrize("catalog", [
    ObjectCatalog({(o, None): 1.0 for o in range(3, 7)}),
    ObjectCatalog({(3, None): 1.0, (2**32 - 1, 0): 1.0}),
], ids=["table", "search"])
def test_ranks_of_ids_outside_the_packable_ranges_are_unknown(catalog):
    # (4, 255) packs to the key of (5, None), (2, 255) to that of (3, None)
    objects = np.array([3, 4, 2, 0, -5, 2**32 + 3, 2**62, 3, 6], dtype=np.int64)
    versions = np.array([-1, 255, 255, -1, -1, -1, -1, -2, 300], dtype=np.int64)
    ranks = catalog._ranks(objects, versions)
    assert ranks.tolist() == [0] + [-1] * 8
    tr = Trace(np.arange(9.0), np.ones(9, np.int64), objects, versions, catalog)
    with pytest.raises(KeyError) as got:
        trace_stats(tr)
    assert got.value.args == ((-5, None),)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(0, 6).map(float),
                      st.sampled_from([-0.0, 0.0, 2.5, float("nan"), float("inf")])),
            st.integers(1, 3),
            st.integers(1, 3),
            st.integers(-1, 2),  # duplicates that differ only in version
        ),
        max_size=40,
    ),
    st.booleans(),
)
def test_sort_events_equals_a_three_key_lexsort(events, spread):
    times = np.array([e[0] for e in events])
    if spread:  # fewer ties, so that both sides of the "most neighbours tie" choice are met
        times = times + 0.37 * (np.arange(len(events)) % 5)
    cols = [times] + [np.array([e[k] for e in events], dtype=np.int64) for k in (1, 2, 3)]
    tr = Trace(*cols, ObjectCatalog())
    tr.sort_events()
    order = np.lexsort((cols[2], cols[1], cols[0]))
    for got, col in zip((tr.times, tr.clients, tr.objects, tr.versions), cols):
        assert got.tobytes() == col[order].tobytes()


def test_sort_events_lexsorts_only_tied_runs_unless_most_tie(monkeypatch):
    sorted_lengths = []
    lexsort = np.lexsort

    def spy(keys):
        sorted_lengths.append(len(keys[0]))
        return lexsort(keys)

    monkeypatch.setattr(trace_mod.np, "lexsort", spy)

    def sort(times):
        n = len(times)
        tr = Trace(np.array(times), np.arange(n, 0, -1), np.ones(n, np.int64), None,
                   ObjectCatalog())
        tr.sort_events()
        return tr.clients.tolist()

    assert sort([3.0, 2.0, 1.0, 0.0]) == [1, 2, 3, 4] and sorted_lengths == []
    # one run of three tied times among six events
    assert sort([5.0, 1.0, 1.0, 0.0, 1.0, 2.0]) == [3, 2, 4, 5, 1, 6]
    assert sorted_lengths == [3]
    # four of five neighbours tie: one lexsort of every event
    assert sort([1.0, 1.0, 1.0, 0.0, 1.0, 1.0]) == [3, 1, 2, 4, 5, 6]
    assert sorted_lengths == [3, 6]
