import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dgssm.graphs import (
    DiGraph,
    GraphFormatError,
    GraphBatch,
    batch_graphs,
    load_graphs,
    reverse_graph,
    save_graphs,
)

from conftest import make_random_digraph


def test_load_minimal_graph(tmp_path):
    path = tmp_path / "g.jsonl"
    path.write_text('{"n": 1, "edges": [], "x": [[0.5]]}\n')
    (g,) = load_graphs(path)
    assert g.num_nodes == 1 and g.num_edges == 0
    assert g.node_features[0, 0] == 0.5


def test_load_chain(tmp_path):
    path = tmp_path / "g.jsonl"
    path.write_text('{"n": 3, "edges": [[0,1],[1,2]], "x": [[1.0],[2.0],[3.0]], "y": 7}\n')
    (g,) = load_graphs(path)
    assert g.num_edges == 2 and g.y == 7


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n": 1, "edges": [], "x": [[0.0]]}\nnot json\n')
    with pytest.raises(GraphFormatError, match="line 2"):
        load_graphs(path)


def _constructor_error(record: dict) -> str:
    """The error DiGraph raises for a record's values, passed as json parses them."""
    with pytest.raises(GraphFormatError) as e:
        DiGraph(record["n"], record.get("edges", []), record["x"], record.get("y"),
                record.get("id"), record.get("node_ids"))
    return str(e.value)


def _assert_load_error(path, lineno: int, field: str, own: str | None = None) -> None:
    """load_graphs fails at ``lineno`` naming ``field``, with the file-only
    rule's text ``own`` or else exactly DiGraph's error for the same values,
    so that no second check of a field can creep back into the loader."""
    with pytest.raises(GraphFormatError, match=f"^line {lineno}: .*{field}") as e:
        load_graphs(path)
    record = json.loads(path.read_text().splitlines()[lineno - 1])
    assert str(e.value) == f"line {lineno}: {own or _constructor_error(record)}"


@pytest.mark.parametrize(
    "n, edges, field, own",
    [
        ("2.7", "[]", "num_nodes", None),
        ('"2"', "[]", "num_nodes", None),
        ("true", "[]", "num_nodes", None),
        ("2", "[[0.9, 1]]", "edge", "edge endpoints must be JSON integers; got 0.9"),
        ("2", "[[true, 1]]", "edge", None),
        ("3", "[[0, 1, 2, 0]]", "edge", None),
        ("3", "[[1.0, 0]]", "edge", "edge endpoints must be JSON integers; got 1.0"),
    ],
    ids=["float-n", "string-n", "bool-n", "float-endpoint", "bool-endpoint", "four-values",
         "whole-float-endpoint"],
)
def test_non_integer_size_or_endpoint_rejected(tmp_path, n, edges, field, own):
    # Each of these used to load, silently changed: 2.7 -> 2, [true, 1] -> the
    # self-loop [1, 1], [0, 1, 2, 0] -> the two edges [0, 1] and [2, 0].
    # Endpoints must be JSON integers, a rule for files only: DiGraph takes
    # the whole float 1.0 from code.
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n": 1, "edges": [], "x": [[0.0]]}\n'
                    f'{{"n": {n}, "edges": {edges}, "x": [[0.0], [1.0], [2.0]]}}\n')
    _assert_load_error(path, 2, field, own)


@pytest.mark.parametrize(
    "x, y, field",
    [
        ('[["1.5"], [true]]', '"3"', "node_features"),
        ("[[1.5], [true]]", "3", "node_features"),
        ("[[1.5], [null]]", "3", "node_features"),
        ("[[1.5], [2.0]]", '"3"', "label"),
        ("[[1.5], [2.0]]", "true", "label"),
        ("[[1.5], [2.0]]", '[0, "1"]', "label"),
    ],
    ids=["string-feature", "bool-feature", "null-feature", "string-label", "bool-label", "string-in-labels"],
)
def test_non_number_feature_or_label_rejected(tmp_path, x, y, field):
    # The first line used to load as features [[1.5], [1.0]] and the string
    # label '3'.
    path = tmp_path / "bad.jsonl"
    path.write_text(f'{{"n": 2, "edges": [], "x": {x}, "y": {y}}}\n')
    _assert_load_error(path, 1, field)


@pytest.mark.parametrize(
    "extra, field",
    [
        ('"id": 5', "graph_id"),
        ('"id": ["g"]', "graph_id"),
        ('"node_ids": "abc"', "node_ids"),
        ('"node_ids": ["a"]', "node_ids"),
        ('"node_ids": ["a", 7]', "node_ids"),
    ],
    ids=["int-id", "list-id", "string-node-ids", "short-node-ids", "int-node-id"],
)
def test_non_string_ids_rejected(tmp_path, extra, field):
    # The first and third used to load: graph id 5, and the three node ids
    # ('a', 'b', 'c') for two nodes.
    path = tmp_path / "bad.jsonl"
    path.write_text(f'{{"n": 2, "edges": [], "x": [[1.5], [2.0]], {extra}}}\n')
    _assert_load_error(path, 1, field)


def test_string_ids_load(tmp_path):
    path = tmp_path / "g.jsonl"
    path.write_text('{"n": 2, "edges": [], "x": [[1.5], [2.0]], "id": "g", "node_ids": ["a", "b"]}\n')
    (g,) = load_graphs(path)
    assert g.graph_id == "g" and g.node_ids == ("a", "b")


def test_node_id_count_must_match_num_nodes():
    with pytest.raises(GraphFormatError, match="^node_ids must be one string per node; got 3 for n=2$"):
        DiGraph(2, np.zeros((0, 2), np.int64), np.zeros((2, 1)), node_ids=("a", "b", "c"))


@pytest.mark.parametrize("n", [10**30, "3", 3.0, True, -1], ids=["huge", "string", "float", "bool", "negative"])
def test_num_nodes_must_be_an_int64_integer(n):
    # The huge count used to die as a bare OverflowError in the duplicate-edge
    # key, the string as a bare TypeError, and 3.0 and True constructed.
    with pytest.raises(GraphFormatError, match=f"^num_nodes must be an integer in \\[0, 2\\*\\*63\\), got {n!r}$"):
        DiGraph(n, [[0, 1]], np.zeros((3, 1)))


def test_numpy_integer_num_nodes_is_taken_as_an_int(tmp_path):
    g = DiGraph(np.int32(3), [[0, 1]], np.zeros((3, 1)))
    assert type(g.num_nodes) is int and g.num_nodes == 3
    save_graphs([g], tmp_path / "g.jsonl")
    assert load_graphs(tmp_path / "g.jsonl")[0].num_nodes == 3


@pytest.mark.parametrize(
    "record, field",
    [('{"n": 1000000000000000000000000000000, "edges": [], "x": [[0.0]]}', "num_nodes"),
     ('{"n": 1, "edges": [], "x": [[1%s]]}' % ("0" * 400), "node_features")],
    ids=["huge-n", "huge-feature"],
)
def test_numbers_past_int64_or_float_range_name_the_line(tmp_path, record, field):
    # Both used to escape load_graphs as a bare OverflowError.
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n": 1, "edges": [], "x": [[0.0]]}\n' + record + "\n")
    _assert_load_error(path, 2, field)


@pytest.mark.parametrize(
    "record, field, own",
    [('{"edges": [], "x": [[0.0]]}', "'n'", "missing key 'n'"),
     ('{"n": 1, "edges": []}', "'x'", "missing key 'x'"),
     ('[1, [], [[0.0]]]', "JSON object", "a graph record must be a JSON object, got list")],
    ids=["missing-n", "missing-x", "list-record"],
)
def test_record_that_is_not_a_graph_object_names_the_line(tmp_path, record, field, own):
    # These used to read "line 2: 'n'" and "line 2: list indices must be
    # integers or slices, not str".
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n": 1, "edges": [], "x": [[0.0]]}\n' + record + "\n")
    _assert_load_error(path, 2, field, own)


def test_line_that_is_not_utf8_names_the_line(tmp_path):
    # It used to escape load_graphs as a bare UnicodeDecodeError.
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"n": 1, "edges": [], "x": [[0.0]]}\n{"n": 1, "id": "\xff"}\n')
    with pytest.raises(GraphFormatError, match="^line 2: invalid JSON"):
        load_graphs(path)


# No node_ids: their count check would catch a bad "n" before DiGraph does.
_RECORD = {"n": 3, "edges": [[0, 1], [1, 2]], "x": [[0.5], [1.0], [2.0]], "y": [1, 2, 3], "id": "g"}
# Edge values of each JSON type, then anything JSON can hold.
_LEAVES = st.sampled_from([None, True, False, 0, 1, 2, -1, 2**63, 10**30, 10**400, 0.5, float("nan"), float("inf"), "", "a"])
_JSON_VALUES = st.recursive(
    _LEAVES | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=10,
)


@pytest.fixture(scope="module")
def _fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g.jsonl"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_record_raises_only_a_format_error_naming_its_line(_fuzz_path, data):
    record = dict(_RECORD)
    for _ in range(data.draw(st.integers(1, 2))):
        key = data.draw(st.sampled_from([*_RECORD, "node_ids", "e", "extra"]))
        kind = data.draw(st.sampled_from(["drop", "edge value", "any value"]))
        if kind == "drop":
            record.pop(key, None)
        else:
            record[key] = data.draw(_LEAVES if kind == "edge value" else _JSON_VALUES)
    _fuzz_path.write_text(json.dumps(record) + "\n")
    try:
        load_graphs(_fuzz_path)
    except GraphFormatError as e:
        assert str(e).startswith("line 1: "), e


def test_inconsistent_feature_dim_rejected(tmp_path):
    # The error names the file line of the mismatched record, blank lines
    # included, not its index among the graphs.
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"n": 1, "edges": [], "x": [[0.0]]}\n'
        "\n\n"
        '{"n": 1, "edges": [], "x": [[0.0, 1.0]]}\n'
    )
    with pytest.raises(GraphFormatError, match="line 4: feature dimension 2 != 1"):
        load_graphs(path)


def test_non_finite_features_rejected(tmp_path):
    with pytest.raises(GraphFormatError, match="finite"):
        DiGraph(2, [[0, 1]], [[np.nan], [np.inf]])
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n": 1, "edges": [], "x": [[0.0]]}\n{"n": 1, "edges": [], "x": [[NaN]]}\n')
    with pytest.raises(GraphFormatError, match="line 2: .*finite"):
        load_graphs(path)


def test_duplicate_edges_rejected():
    with pytest.raises(GraphFormatError, match="duplicate"):
        DiGraph(2, np.array([[0, 1], [0, 1]]), np.zeros((2, 1)))


@pytest.mark.parametrize("n", [3037000499, 3037000500, 2**33, 2**59])
def test_duplicate_edge_check_past_the_int64_key_range(n):
    # src * n + dst wraps in int64 once n**2 passes 2**63: at n = 2**33 and
    # 2**59 the distinct edges (2**31, 0) and (0, 0) both used to key to 0.
    x = np.zeros((n, 0))
    assert DiGraph(n, [[2**31, 0], [0, 0], [n - 1, n - 1]], x).num_edges == 3
    with pytest.raises(GraphFormatError, match="duplicate"):
        DiGraph(n, [[0, 0], [2**31, 0], [2**31, 0]], x)


@pytest.mark.parametrize(
    "x, error",
    [([["1.5"]], "got '1.5'"),
     ([[b"1.5"]], "got b'1.5'"),
     ([[True]], "got True"),
     ([[1.0, True]], "got True"),
     (np.array([[1 + 2j]]), "got complex128 values"),
     ([[1 + 2j]], r"got \(1\+2j\)"),
     (np.array([["1.5"]]), "got <U3 values"),
     ({"a": 1.0}, "got {'a': 1.0}"),
     ([[1.0], [1.0, 2.0]], r"got \[1.0\]")],
    ids=["string", "bytes", "bool", "bool-in-row", "complex-array", "complex-list", "string-array", "dict", "ragged"],
)
def test_constructor_refuses_non_number_features(x, error):
    # The string, bytes and bools used to be converted to floats, the complex
    # array lost its imaginary part, and the rest escaped as a bare ValueError
    # or TypeError; load_graphs refuses each of them by type.
    with pytest.raises(GraphFormatError, match=f"^node_features must be integer or float numbers; {error}$"):
        DiGraph(len(x), [], x)


@pytest.mark.parametrize(
    "field, value, error",
    [("y", [[1], [1, 2]], r"label values must be integer or float numbers; got \[1\]"),
     ("graph_id", 5, "graph_id must be a string or None, got 5"),
     ("node_ids", 5, "node_ids must be a list or tuple of strings, got 5"),
     ("node_ids", "ab", "node_ids must be a list or tuple of strings, got 'ab'"),
     ("node_ids", ("a", 7), r"node_ids must be a list or tuple of strings, got \('a', 7\)")],
    ids=["ragged-label", "int-graph-id", "int-node-ids", "string-node-ids", "int-in-node-ids"],
)
def test_constructor_refuses_labels_and_ids_of_another_type(field, value, error):
    # The ragged label and node_ids=5 used to escape as a bare ValueError or
    # TypeError; the rest constructed.
    with pytest.raises(GraphFormatError, match=f"^{error}"):
        DiGraph(2, [[0, 1]], np.zeros((2, 1)), **{field: value})


_GRAPH = dict(num_nodes=3, edges=[[0, 1], [1, 2]], node_features=[[0.5], [1.0], [2.0]],
              y=[1, 2, 3], graph_id="g", node_ids=("a", "b", "c"))
# Values of each Python and numpy scalar type, nested in lists, tuples and
# dicts, and numpy arrays of each dtype kind.
_SCALARS = st.sampled_from(
    [None, True, 0, 1, 2, 3, -1, 2**63, 10**30, 10**400, 0.5, float("nan"), float("inf"),
     1 + 2j, "", "1.5", b"1", np.int32(2), np.uint64(2**64 - 1), np.float32(0.5), np.bool_(True)]
) | st.integers() | st.floats() | st.text(max_size=3)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4) | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=2), children, max_size=2),
    max_leaves=12,
) | hnp.arrays(
    st.sampled_from([np.int64, np.int32, np.uint64, np.float64, np.float32, np.bool_, np.complex128, "U2", "S2"]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=st.data())
def test_constructor_builds_a_well_formed_graph_or_raises_a_format_error(data):
    args = dict(_GRAPH)
    for _ in range(data.draw(st.integers(1, 3))):
        args[data.draw(st.sampled_from(list(_GRAPH)))] = data.draw(_VALUES)
    try:
        g = DiGraph(**args)
    except GraphFormatError:
        return
    n = g.num_nodes
    assert type(n) is int and g.edges.dtype == np.int64 and g.edges.shape[1:] == (2,)
    assert g.node_features.dtype == np.float64 and g.node_features.shape[0] == n
    assert g.graph_id is None or isinstance(g.graph_id, str)
    assert g.node_ids is None or (len(g.node_ids) == n and all(isinstance(t, str) for t in g.node_ids))
    assert g.y is None or np.asarray(g.y).dtype.kind in "iuf"


def test_edge_out_of_range_rejected():
    with pytest.raises(GraphFormatError, match="out of range"):
        DiGraph(2, np.array([[0, 2]]), np.zeros((2, 1)))


@pytest.mark.parametrize(
    "edges, error",
    [([[0, 1, 2], [1, 2, 0]], r"\(m, 2\) array .*got shape \(2, 3\)"),
     ([0, 1], r"got shape \(2,\)"),
     (np.zeros((0, 3), np.int64), r"got shape \(0, 3\)"),
     ([[0, 1], [2]], r"\(m, 2\) array"),
     ([[0, 1.5]], "whole numbers; got 1.5"),
     ([[0, np.nan]], "whole numbers; got nan"),
     (np.array([["0", "1"]]), "whole numbers; got <U1 values"),
     ([["0", "1"]], "whole numbers; got '0'"),
     ([[0, True]], "whole numbers; got True")],
)
def test_edges_must_be_an_m_by_2_array_of_whole_numbers(edges, error):
    # A (2, m) edge_index used to be read row-major as the wrong pairs, an
    # endpoint of 1.5 was truncated to node 1, and [0, True] was the edge (0, 1).
    with pytest.raises(GraphFormatError, match=error):
        DiGraph(3, edges, np.zeros((3, 1)))


@pytest.mark.parametrize("edges", [[], (), np.zeros((0, 2)), [[0, 1.0], [2, 0]], np.array([[0, 1], [2, 0]], np.int32)])
def test_edge_forms_accepted(edges):
    g = DiGraph(3, edges, np.zeros((3, 1)))
    assert g.edges.dtype == np.int64 and g.edges.shape == (len(edges), 2)


def test_int64_edges_are_not_copied_or_frozen():
    edges = np.array([[0, 1], [1, 2]], np.int64)
    g = DiGraph(3, edges, np.zeros((3, 1)))
    assert np.shares_memory(g.edges, edges) and not g.edges.flags.writeable
    assert edges.flags.writeable


@pytest.mark.parametrize("field", ["node_features", "y"])
def test_caller_float64_arrays_stay_writable(field):
    # The graph used to freeze the caller's own array instead of a view of it.
    args = dict(num_nodes=3, edges=[], node_features=np.zeros((3, 1)), y=np.zeros(3))
    g = DiGraph(**args)
    assert np.shares_memory(getattr(g, field), args[field]) and not getattr(g, field).flags.writeable
    assert args[field].flags.writeable


def test_unused_edge_feature_key_ignored(tmp_path):
    path = tmp_path / "g.jsonl"
    path.write_text('{"n": 2, "edges": [[0,1]], "x": [[0.0],[1.0]], "e": [[0.9]]}\n')
    (g,) = load_graphs(path)
    assert g.num_edges == 1


def _empty_graph(width: int, graph_id: str) -> DiGraph:
    return DiGraph(0, np.zeros((0, 2), np.int64), np.zeros((0, width)), y=0.5, graph_id=graph_id)


def test_round_trip_100_records(tmp_path):
    gs = [make_random_digraph(seed) for seed in range(100)]
    gs = [
        DiGraph(g.num_nodes, g.edges, g.node_features, y=float(i), graph_id=f"g{i}")
        for i, g in enumerate(gs)
    ]
    # 0-node graphs first, in the middle and last: each is written as "x": []
    # and read back with the width of the other graphs.
    gs = [_empty_graph(3, "e0"), *gs[:50], _empty_graph(3, "e1"), *gs[50:], _empty_graph(3, "e2")]
    path = tmp_path / "all.jsonl"
    save_graphs(gs, path)
    back = load_graphs(path)
    assert len(back) == len(gs)
    for a, b in zip(gs, back):
        assert a.num_nodes == b.num_nodes
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.node_features, b.node_features)
        assert a.y == b.y and a.graph_id == b.graph_id


def test_only_0_node_graphs_load_with_width_0(tmp_path):
    path = tmp_path / "empty.jsonl"
    save_graphs([_empty_graph(3, "e0"), _empty_graph(3, "e1")], path)
    assert [g.node_features.shape for g in load_graphs(path)] == [(0, 0), (0, 0)]


def test_save_rejects_mixed_feature_widths(tmp_path):
    # The file would hold widths 3 and 5, which load_graphs refuses; 0-node
    # graphs have no width to mix, as in load_graphs.
    gs = [DiGraph(2, [[0, 1]], np.ones((2, 3))), _empty_graph(4, "e0"),
          DiGraph(2, [[0, 1]], np.ones((2, 5)))]
    path = tmp_path / "mixed.jsonl"
    with pytest.raises(GraphFormatError, match="save_graphs: graph 2 has feature dimension 5, but graph 0 has 3"):
        save_graphs(gs, path)
    assert not path.exists()
    save_graphs(gs[:2], path)
    assert len(load_graphs(path)) == 2


def test_numpy_scalar_labels_round_trip(tmp_path):
    # save_graphs used to stop on a numpy scalar label with a TypeError from
    # json, leaving a truncated file.
    gs = [DiGraph(2, [[0, 1]], np.ones((2, 3)), y=y) for y in (np.int64(1), np.float64(0.5))]
    path = tmp_path / "scalars.jsonl"
    save_graphs(gs, path)
    assert [g.y for g in load_graphs(path)] == [1, 0.5]


@pytest.mark.parametrize(
    "y",
    ["abc", True, ["a", "b"], np.array([True, False]), [1.0, None], [1, True]],
    ids=["string", "bool", "string-list", "bool-array", "none-in-list", "bool-in-list"],
)
def test_label_of_another_type_rejected(y):
    # These used to construct, and failed only later, in check_dataset or the
    # loss; [1, True] was the label [1, 1].
    with pytest.raises(GraphFormatError, match="label values must be integer or float numbers"):
        DiGraph(2, [[0, 1]], np.ones((2, 3)), y=y)


@pytest.mark.parametrize(
    "y",
    [[[1], [2]], np.zeros((2, 1)), np.zeros((1, 2)), [1.0], np.zeros(3), (1, 2, 3)],
    ids=["2-d-list", "column", "row", "too-few", "too-many", "tuple"],
)
def test_label_of_another_shape_rejected(y):
    # The first three used to be accepted as 2-D "per-node" labels, and the
    # tuple as a label that save_graphs writes and load_graphs then refuses.
    with pytest.raises(GraphFormatError, match=r"label must be a scalar or one per node; got shape \("):
        DiGraph(2, [[0, 1]], np.ones((2, 3)), y=y)


@pytest.mark.parametrize("y", [np.array(2.0), np.array(2), 2, 2.0], ids=["0-d-float", "0-d-int", "int", "float"])
def test_scalar_label_forms_accepted(y):
    # A 0-d array used to fail with a bare IndexError.
    g = DiGraph(2, [[0, 1]], np.ones((2, 3)), y=y)
    assert batch_graphs([g, g]).labels().tolist() == [2, 2]


@pytest.mark.parametrize(
    "ys, want",
    [
        ([np.array([1.0, 2.0]), np.zeros(0), np.array([3.0, 4.0, 5.0])], [1.0, 2.0, 3.0, 4.0, 5.0]),
        ([1.5, np.array(2.5), 3.5], [1.5, 2.5, 3.5]),
    ],
    ids=["node-task", "graph-task"],
)
def test_labels_with_a_0_node_graph(ys, want):
    # The middle graph has no nodes: no label for a node task, one for a graph task.
    gs = [DiGraph(n, np.zeros((0, 2), np.int64), np.zeros((n, 2)), y=y) for n, y in zip([2, 0, 3], ys)]
    assert batch_graphs(gs).labels().tolist() == want


def test_reverse_trivial_cases():
    g = DiGraph(2, np.zeros((0, 2), dtype=np.int64), np.zeros((2, 1)))
    assert reverse_graph(g).num_edges == 0
    g = DiGraph(2, np.array([[0, 1]]), np.zeros((2, 1)))
    assert reverse_graph(g).edges.tolist() == [[1, 0]]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_reverse_is_involution(seed):
    g = make_random_digraph(seed, max_nodes=30)
    back = reverse_graph(reverse_graph(g))
    assert sorted(map(tuple, back.edges.tolist())) == sorted(map(tuple, g.edges.tolist()))
    assert np.array_equal(back.node_features, g.node_features)


def test_batch_offsets_and_index():
    g2 = DiGraph(2, np.array([[0, 1]]), np.zeros((2, 1)))
    g3 = DiGraph(3, np.array([[0, 2]]), np.ones((3, 1)))
    b = batch_graphs([g2, g3])
    assert b.offsets.tolist() == [0, 2]
    assert b.batch_index.tolist() == [0, 0, 1, 1, 1]
    assert b.edges.tolist() == [[0, 1], [2, 4]]


def test_batch_single_graph_all_zero_index():
    g = make_random_digraph(1)
    b = batch_graphs([g])
    assert np.all(b.batch_index == 0)


def test_batch_empty_list_rejected():
    with pytest.raises(ValueError):
        batch_graphs([])


def test_cross_graph_edge_rejected():
    with pytest.raises(GraphFormatError, match="crosses"):
        GraphBatch(
            num_graphs=2,
            num_nodes=4,
            edges=np.array([[1, 2]]),
            node_features=np.zeros((4, 1)),
            batch_index=np.array([0, 0, 1, 1]),
            offsets=np.array([0, 2]),
            node_counts=np.array([2, 2]),
        )


def test_batch_keeps_the_caller_arrays_writable():
    # The batch used to freeze the caller's own arrays instead of views of them.
    args = dict(edges=np.array([[0, 1], [2, 3]]), node_features=np.zeros((4, 1)),
                batch_index=np.array([0, 0, 1, 1]))
    b = GraphBatch(num_graphs=2, num_nodes=4, offsets=np.array([0, 2]), node_counts=np.array([2, 2]), **args)
    for name, arr in args.items():
        field = getattr(b, name)
        assert np.shares_memory(field, arr) and not field.flags.writeable, name
        assert arr.flags.writeable, name


@settings(max_examples=25, deadline=None)
@given(seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=6))
def test_batch_places_each_graph_in_its_rows(seeds):
    gs = [make_random_digraph(s) for s in seeds]
    b = batch_graphs(gs)
    assert b.edges.shape == (sum(g.num_edges for g in gs), 2)
    for i, g in enumerate(gs):
        rows = slice(b.offsets[i], b.offsets[i] + g.num_nodes)
        assert b.node_counts[i] == g.num_nodes
        assert np.all(b.batch_index[rows] == i)
        assert np.array_equal(b.node_features[rows], g.node_features)
        own = b.edges[b.batch_index[b.edges[:, 0]] == i]
        assert np.array_equal(own - b.offsets[i], g.edges)
