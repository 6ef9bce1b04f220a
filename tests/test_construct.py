import gc
import hashlib
import json

import pytest

import oracles
from gallai import (
    BASE14_DIGEST,
    BaseTrace,
    BlowupTrace,
    EdgeColoring,
    PatternSpec,
    PreconditionError,
    build_lower_bound_witness,
    canonical_digest,
    find_mono,
    find_rainbow_triangle,
    has_mono_p3_in_color,
    mono_complete_between,
    read_document,
    random_gallai,
    restrict,
    trace_from_json,
    trace_to_json,
    validate_trace,
    f_value,
)
from gallai.cli import main

W4 = PatternSpec.wheel(4)


def test_f_value_table():
    assert [f_value(k) for k in range(2, 7)] == [14, 28, 70, 140, 350]
    # the bound each witness certifies is one more than its size
    assert [f_value(k) + 1 for k in range(2, 7)] == [15, 29, 71, 141, 351]


def test_f_value_level_one_special_case():
    assert f_value(1) == 4
    with pytest.raises(ValueError):
        f_value(1, coeff=10)


def test_f_value_recurrences():
    for base in (2, 9, 14):
        for s in range(3, 13):
            if s % 2 == 1:
                assert f_value(s, base) == 2 * f_value(s - 1, base)
            if s >= 4:
                assert f_value(s, base) == 5 * f_value(s - 2, base)
        assert f_value(4, base) == 5 * base


def test_f_value_validation():
    with pytest.raises(ValueError):
        f_value(0)
    with pytest.raises(ValueError):
        f_value(3, 0)


def test_levels_coefficients_and_rims_are_exact_ints(base14):
    # f_value(2.0) returned 14.0 and f_value(True) 4; a float level
    # reached range() in the builder and raised TypeError there
    for value in (2.0, True, "2"):
        with pytest.raises(ValueError, match="level must be an integer"):
            f_value(value)
        with pytest.raises(ValueError, match="coefficient must be an integer"):
            f_value(4, value)
    for value in (4.0, True):
        with pytest.raises(ValueError, match="k must be an integer"):
            build_lower_bound_witness(value, base14)
        with pytest.raises(ValueError, match="rim length must be an integer"):
            build_lower_bound_witness(3, base14, rim=value)


def test_pentagon_shape(pentagon):
    assert pentagon.n == 5 and pentagon.k == 2
    for i in range(5):
        assert pentagon.color_of(i, (i + 1) % 5) == 1
        assert pentagon.color_of(i, (i + 2) % 5) == 2
    for color in (1, 2):
        assert not oracles.has_mono_clique(pentagon, color, 3)
    assert not oracles.rainbow_triangles(pentagon)


def test_base14_is_pinned_and_wheel_free(base14):
    assert base14.n == 14 and base14.k == 2
    assert canonical_digest(base14) == BASE14_DIGEST
    for color in (1, 2):
        assert find_mono(base14, W4, color) is None
        assert not oracles.has_mono_w4(base14, color)
        assert has_mono_p3_in_color(base14, color)


def test_witness_level_two_is_the_base(base14):
    w, trace = build_lower_bound_witness(2, base14)
    assert w == base14
    assert isinstance(trace, BaseTrace)
    assert trace.digest == BASE14_DIGEST and trace.size == 14


def test_witness_level_three_structure(base14):
    w, trace = build_lower_bound_witness(3, base14)
    assert w.n == 28 == f_value(3)
    # the join is traced as the blow-up of K2 in its fresh color
    assert isinstance(trace, BlowupTrace)
    assert trace.quotient == EdgeColoring(2, 3, [3])
    assert trace.children == (build_lower_bound_witness(2, base14)[1],) * 2
    validate_trace(trace)
    # both halves are the base, cross edges are color 3
    assert restrict(w, range(14)).edge_colors == base14.edge_colors
    assert restrict(w, range(14, 28)).edge_colors == base14.edge_colors
    assert mono_complete_between(w, range(14), range(14, 28)) == 3


def test_witness_level_four_structure(base14):
    w, trace = build_lower_bound_witness(4, base14)
    assert w.n == 70 == f_value(4)
    assert isinstance(trace, BlowupTrace)
    assert len(trace.children) == 5
    assert trace.quotient.colors_used() == {3, 4}
    validate_trace(trace)


def test_f_values_and_palettes(base14):
    for k in range(2, 7):
        w, trace = build_lower_bound_witness(k, base14)
        assert w.n == f_value(k)
        assert w.k == k and w.colors_used() == set(range(1, k + 1))
        validate_trace(trace)


def test_witness_builder_validation(base14, pentagon):
    with pytest.raises(ValueError):
        build_lower_bound_witness(1, base14)
    with pytest.raises(ValueError):
        build_lower_bound_witness(3, base14, rim=5)
    with pytest.raises(ValueError):
        build_lower_bound_witness(3, base14, rim=2)
    # wrong palette: single used color
    with pytest.raises(ValueError):
        build_lower_bound_witness(3, EdgeColoring(3, 2, [1, 1, 1]))
    # wrong palette: declared k above 2
    with pytest.raises(ValueError):
        build_lower_bound_witness(3, EdgeColoring(3, 3, [1, 2, 1]))


def test_witness_builder_rejects_wheel_in_base():
    # K6 with one recolored edge still has a wheel in color 1
    flat = [1] * 15
    flat[0] = 2
    bad = EdgeColoring(6, 2, flat)
    with pytest.raises(PreconditionError):
        build_lower_bound_witness(3, bad)


def test_witness_builder_accepts_pentagon_for_its_rim(pentagon):
    # the pentagon itself is fine as a base: no wheel fits in 5 vertices
    # per color class (each class is a 5-cycle)
    w, _ = build_lower_bound_witness(4, pentagon)
    assert w.n == f_value(4, 5) == 25


# the trace JSON, compact and key-sorted, that `construct --k 3` wrote
# while a join was a trace node of its own
LEGACY_K3_TRACE = (
    '{"colors":[1,2,3],"fresh_color":3,"left":{"colors":[1,2],"digest":'
    '"a80daa3d37265d9b9bc4ce3f812e723a15394fbb625d1b573052fa7ac966ab41",'
    '"label":"base14","op":"base","size":14},"op":"join","right":{"colors":'
    '[1,2],"digest":"a80daa3d37265d9b9bc4ce3f812e723a15394fbb625d1b573052fa7ac966ab41",'
    '"label":"base14","op":"base","size":14},"size":28}'
)
# sha256 of the same JSON for k = 5 and 7: a join node over blow-ups
LEGACY_TRACE_SHA256 = {
    5: "29998a8202f45ec8f6bbfb2778c589cdc503ef51048d90574287c5bbdc5774d6",
    7: "a24f31e9fbcd75ca0f528aa8f168838b9751497dfc7a3517da8c3bc6df19b034",
}


def _as_legacy_join(data):
    # an odd level's K2 blow-up node, written as the join node it once was
    left, right = data["children"]
    [[_, _, fresh]] = data["quotient"]["edges"]
    return {
        "op": "join",
        "left": left,
        "right": right,
        "fresh_color": fresh,
        "size": data["size"],
        "colors": data["colors"],
    }


def _compact(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def test_legacy_join_traces_read_as_the_new_builds_traces(base14):
    _, trace = build_lower_bound_witness(3, base14, base_label="base14")
    assert trace_from_json(json.loads(LEGACY_K3_TRACE)) == trace
    assert _compact(_as_legacy_join(trace_to_json(trace))) == LEGACY_K3_TRACE
    for k, sha in LEGACY_TRACE_SHA256.items():
        _, trace = build_lower_bound_witness(k, base14, base_label="base14")
        legacy = _compact(_as_legacy_join(trace_to_json(trace)))
        assert hashlib.sha256(legacy.encode("ascii")).hexdigest() == sha
        assert trace_from_json(json.loads(legacy)) == trace


def test_traces_replay_to_the_built_towers(base14, tmp_path, capsys):
    # a second route to each tower: its recorded trace, rebuilt by
    # substitute alone, against the document `construct` wrote
    digests = {}
    for k in range(2, 8):
        path = tmp_path / f"w{k}.grc"
        assert main(["construct", "--k", str(k), "--out", str(path)]) == 0
        doc = read_document(path)
        assert capsys.readouterr().out.endswith(f" digest={doc.digest}\n")
        trace = trace_from_json(doc.provenance["trace"])
        validate_trace(trace)
        digests[k] = canonical_digest(oracles.replay(trace, base14))
        assert digests[k] == doc.digest
    legacy = trace_from_json(json.loads(LEGACY_K3_TRACE))
    assert canonical_digest(oracles.replay(legacy, base14)) == digests[3]
    w, trace = build_lower_bound_witness(8, base14)
    validate_trace(trace)
    assert oracles.replay(trace, base14) == w


def test_random_gallai_determinism():
    a = random_gallai(30, 4, 7)
    b = random_gallai(30, 4, 7)
    assert a == b
    c = random_gallai(30, 4, 8)
    assert a != c  # overwhelmingly likely; pinned seeds keep it stable


def test_random_gallai_leaves_no_garbage():
    # its recursion was a closure that referred to itself, so each call
    # left a cycle holding the Random (about 2.5 KB of state) until the
    # cyclic collector ran.  The draws are unchanged
    gc.collect()
    gc.disable()
    try:
        c = random_gallai(40, 5, 7)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert canonical_digest(c) == (
        "a43a89612426f0884e244f2a64e6dfc17e5bf912f48bf06fd23a9b9c8f3ef868"
    )


def test_random_gallai_trivial_cases():
    assert random_gallai(1, 3, 0).n == 1
    two = random_gallai(2, 2, 0)
    assert two.n == 2
    with pytest.raises(ValueError):
        random_gallai(0, 1, 0)
    with pytest.raises(ValueError):
        random_gallai(3, 0, 0)
    # exact integers only: True is not one vertex, 3.0 is not three
    for n, k in ((True, 2), (3.0, 2), (3, 2.0), (3, True)):
        with pytest.raises(ValueError, match="must be an integer"):
            random_gallai(n, k, 0)


def test_random_gallai_sweep_never_rainbow():
    # 10_000 seeded samples across the documented parameter box
    for i in range(10_000):
        n = 2 + (i * 7919) % 39  # 2..40
        k = 1 + i % 5
        c = random_gallai(n, k, i)
        assert find_rainbow_triangle(c) is None


def test_load_base14_matches_search_provenance(base14):
    # the bundled file records the deriving task; digest already checked
    from gallai.formats import parse_text
    from importlib import resources

    text = resources.files("gallai").joinpath("data/base14.grc").read_text("ascii")
    doc = parse_text(text)
    assert doc.digest == BASE14_DIGEST
    assert doc.provenance is not None and doc.provenance["kind"] == "search"
    assert doc.provenance["task"]["n"] == 14
