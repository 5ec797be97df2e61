"""Unit tests for the chunked (out-of-core) edge-list loader.

The contract under test: :func:`read_edge_list_chunked` and
:func:`read_edge_list` return exactly the graph a
:class:`~repro.graphs.builder.GraphBuilder` builds from the file's lines
(the oracle below), at any chunk size, with or without NumPy — and for
malformed input they raise :class:`GraphFormatError` naming the
offending ``path:line``, never silently dropping a line.
"""

from __future__ import annotations

import pytest

import repro.kernels as kernels
from repro.exceptions import GraphError, GraphFormatError
from repro.graphs.builder import GraphBuilder
from repro.graphs.generators.random_graphs import gnp_graph, random_weighted
from repro.graphs.io import read_edge_list, read_edge_list_chunked, write_edge_list


def _oracle(path):
    """The file's graph built line by line through GraphBuilder."""
    edges = []
    for line in path.read_text().splitlines():
        parts = line.split()
        if not parts or parts[0].startswith(("#", "%")):
            continue
        weight = float(parts[2]) if len(parts) == 3 else 1
        if weight == int(weight):
            weight = int(weight)
        edges.append((int(parts[0]), int(parts[1]), weight))
    ids = sorted({u for u, _, _ in edges} | {v for _, v, _ in edges})
    compact = {orig: i for i, orig in enumerate(ids)}
    builder = GraphBuilder(len(ids))
    for u, v, w in edges:
        builder.add_edge(compact[u], compact[v], w)
    return builder.build(), ids


def _assert_same_graph(a, b):
    graph_a, ids_a = a
    graph_b, ids_b = b
    assert ids_a == ids_b
    assert graph_a.n == graph_b.n
    assert graph_a.m == graph_b.m
    assert graph_a.unweighted == graph_b.unweighted
    for v in range(graph_a.n):
        assert list(graph_a.neighbors(v)) == list(graph_b.neighbors(v))
        assert list(map(type, graph_a.neighbor_weights(v))) == list(
            map(type, graph_b.neighbor_weights(v))
        )


@pytest.fixture(params=["numpy", "python"])
def loader(request, monkeypatch):
    """The chunked loader, once per backend (NumPy and pure-Python)."""
    if request.param == "python":
        monkeypatch.setattr(kernels, "_NUMPY_STATE", False)
    elif not kernels.numpy_available():
        pytest.skip("NumPy not installed")
    return read_edge_list_chunked


class TestEquivalence:
    @pytest.mark.parametrize("chunk_edges", [1, 3, 64, 1 << 18])
    def test_matches_buffered_loader(self, tmp_path, loader, chunk_edges):
        path = tmp_path / "g.edges"
        path.write_text(
            "# header\n"
            "10 40\n"
            "40 7 2.5\n"
            "7 10 3\n"
            "10 40 9\n"   # duplicate: min weight wins
            "40 10 1.5\n"  # duplicate, reversed orientation
            "5 5\n"        # self-loop: dropped
            "% other comment\n"
            "1000000 7\n"
        )
        _assert_same_graph(loader(path, chunk_edges=chunk_edges), _oracle(path))
        _assert_same_graph(read_edge_list(path), _oracle(path))

    def test_roundtrip_generated_graphs(self, tmp_path, loader):
        base = gnp_graph(40, 0.2, seed=3)
        for graph in (base, random_weighted(base, 2, 9, seed=4)):
            path = tmp_path / "g.edges"
            write_edge_list(graph, path)
            _assert_same_graph(loader(path, chunk_edges=7), _oracle(path))
            _assert_same_graph(read_edge_list(path), _oracle(path))

    def test_empty_file(self, tmp_path, loader):
        path = tmp_path / "g.edges"
        path.write_text("# nothing but comments\n\n")
        graph, ids = loader(path)
        assert graph.n == 0 and graph.m == 0 and ids == []

    def test_all_self_loops(self, tmp_path, loader):
        path = tmp_path / "g.edges"
        path.write_text("3 3\n9 9\n")
        graph, ids = loader(path)
        assert ids == [3, 9]
        assert graph.n == 2 and graph.m == 0

    def test_duplicate_weights_keep_minimum(self, tmp_path, loader):
        path = tmp_path / "g.edges"
        path.write_text("0 1 5\n1 0 2\n0 1 7\n")
        graph, _ = loader(path, chunk_edges=2)
        assert graph.edge_weight(0, 1) == 2

    def test_unweighted_flag_after_dedup(self, tmp_path, loader):
        # The only non-1 weight belongs to a duplicate that loses the
        # min-merge; the surviving graph is unweighted, exactly as the
        # buffered loader (via GraphBuilder) decides it.
        path = tmp_path / "g.edges"
        path.write_text("0 1 3\n0 1 1\n1 2\n")
        graph, _ = loader(path, chunk_edges=2)
        assert _oracle(path)[0].unweighted == graph.unweighted
        assert read_edge_list(path)[0].unweighted == graph.unweighted


class TestMalformed:
    """Every bad line fails loudly, naming file:line and the chunk."""

    def test_trailing_garbage_columns(self, tmp_path, loader):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 2\n2 3 1.5 extra\n")
        with pytest.raises(GraphFormatError, match=r"g\.edges:3: .*chunk 1"):
            loader(path, chunk_edges=2)

    def test_truncated_line(self, tmp_path, loader):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n7\n")
        with pytest.raises(GraphFormatError, match=r"g\.edges:2:"):
            loader(path)

    def test_non_integer_endpoint(self, tmp_path, loader):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 x\n")
        with pytest.raises(GraphFormatError, match="non-integer"):
            loader(path)

    def test_negative_endpoint(self, tmp_path, loader):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n-4 2\n")
        with pytest.raises(GraphFormatError, match="negative node id"):
            loader(path)

    def test_bad_weight(self, tmp_path, loader):
        path = tmp_path / "g.edges"
        path.write_text("0 1 abc\n")
        with pytest.raises(GraphFormatError, match="bad weight"):
            loader(path)

    def test_non_positive_weight(self, tmp_path, loader):
        path = tmp_path / "g.edges"
        path.write_text("0 1 0\n")
        with pytest.raises(GraphFormatError, match="non-positive weight"):
            loader(path)

    def test_error_in_later_chunk_names_that_chunk(self, tmp_path, loader):
        lines = [f"{i} {i + 1}\n" for i in range(10)]
        lines.append("bad line here\n")
        path = tmp_path / "g.edges"
        path.write_text("".join(lines))
        with pytest.raises(GraphFormatError, match=r"g\.edges:11: .*chunk 3"):
            loader(path, chunk_edges=3)

    def test_error_is_a_graph_error(self, tmp_path, loader):
        path = tmp_path / "g.edges"
        path.write_text("nope\n")
        with pytest.raises(GraphError):
            loader(path)

    def test_invalid_chunk_size(self, tmp_path, loader):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n")
        with pytest.raises(GraphFormatError, match="chunk_edges"):
            loader(path, chunk_edges=0)

    def test_no_silent_drops(self, tmp_path, loader):
        # A valid prefix must not be returned when a later line is bad:
        # the loader either returns the whole file or raises.
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 2\nbroken\n")
        with pytest.raises(GraphFormatError):
            loader(path, chunk_edges=1)


class TestBulkLoader:
    """:func:`read_edge_list`: bulk parse, line-numbered errors from a re-scan."""

    @pytest.fixture(params=["numpy", "python"])
    def bulk(self, request, monkeypatch):
        if request.param == "python":
            monkeypatch.setattr(kernels, "_NUMPY_STATE", False)
        elif not kernels.numpy_available():
            pytest.skip("NumPy not installed")
        return read_edge_list

    def test_mixed_columns_and_whitespace(self, tmp_path, bulk):
        path = tmp_path / "g.edges"
        path.write_text("  # lead\n0\t1\n1 2 2.5\n\n   2 3 4\r\n3 0\n% tail\n")
        _assert_same_graph(bulk(path), _oracle(path))

    def test_ids_beyond_int64(self, tmp_path, bulk):
        path = tmp_path / "g.edges"
        path.write_text(f"{1 << 70} 3\n3 {1 << 65}\n")
        graph, ids = bulk(path)
        assert ids == [3, 1 << 65, 1 << 70]
        assert graph.m == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0 1 nan", "non-finite weight"),
            ("0 1 inf", "non-finite weight"),
            ("0 1 1e400", "non-finite weight"),
            ("0 1 -inf", "non-finite weight"),
            ("0 1 0", "non-positive weight"),
            ("0 1 -2", "non-positive weight"),
            ("0 1 x", "bad weight"),
            ("0 -1", "negative node id"),
            ("0 a", "non-integer node id"),
            ("0 1 2 3", "expected 'u v' or 'u v w'"),
            ("7", "expected 'u v' or 'u v w'"),
        ],
    )
    def test_bad_line_names_path_and_line(self, tmp_path, bulk, line, message):
        path = tmp_path / "g.edges"
        path.write_text(f"# header\n0 1\n1 2\n{line}\n2 3\n")
        with pytest.raises(GraphFormatError, match=rf"g\.edges:4: {message}"):
            bulk(path)

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_chunked_rejects_non_finite(self, tmp_path, loader, weight):
        path = tmp_path / "g.edges"
        path.write_text(f"0 1\n1 2 {weight}\n")
        with pytest.raises(GraphFormatError, match=r"g\.edges:2: non-finite weight"):
            loader(path, chunk_edges=1)


@pytest.mark.parametrize(
    "text",
    [
        "0 1\r\n1 2 3\r\n",  # CRLF
        "0 1\r1 2\r",  # old-Mac line ends
        "007 1\n+2 1\n",  # leading zeros, a sign
        "0\x1c1\n1\x0b2\x0c3\n",  # ASCII separators str.split() knows
        "0\u00a01\n",  # a non-ASCII space splits the tokens for str.split()
        "# caf\u00e9 \u00fcber\n% \u2603\n0 1\n",  # non-ASCII comments
        "\u3000# indented comment\n0 1\n",
        "\u0661 2\n",  # a non-ASCII digit
        "1_0 2\n",  # an underscore int() accepts
        f"{10**18} 1\n{10**17} 2\n",  # 19- and 18-digit ids
        "0 1 5\u00a0\n1 2 1.5\n",  # trailing non-ASCII space on a weight
        "0 1 \u0665\n",  # a non-ASCII digit weight
        "0 1 1e2\n1 2 2.0\n2 0 .5\n",
        "\n\n   \t\n",
        "0 1",  # no final newline
        "1 2\n0 1 2 3\n",
        "#only\n0\n",
    ],
)
def test_bulk_parse_agrees_with_line_scanner(tmp_path, monkeypatch, text):
    """Whatever the bulk tokenizer accepts, it reads as the line scanner does."""
    if not kernels.numpy_available():
        pytest.skip("NumPy not installed")
    path = tmp_path / "g.edges"
    path.write_bytes(text.encode("utf-8"))

    def outcome():
        try:
            return read_edge_list(path)
        except GraphFormatError as exc:
            return str(exc)

    fast = outcome()
    monkeypatch.setattr(kernels, "_NUMPY_STATE", False)
    slow = outcome()
    if isinstance(slow, str):
        assert fast == slow
    else:
        _assert_same_graph(fast, slow)


def test_bulk_parse_takes_common_files(tmp_path):
    """SNAP / KONECT layouts stay on the bulk path, without a re-scan."""
    pytest.importorskip("numpy")
    from repro.graphs.io import _parse_bulk

    path = tmp_path / "g.edges"
    path.write_text(
        "# Directed graph: caf\u00e9.txt\n% sym unweighted\n"
        "0\t1\n  1 2 2.5\r\n2 30000000000 4\n\n30000000000 0\n"
    )
    us, vs, ws = _parse_bulk(path)
    assert us.tolist() == [0, 1, 2, 30000000000]
    assert vs.tolist() == [1, 2, 30000000000, 0]
    assert ws.tolist() == [1.0, 2.5, 4.0, 1.0]
    path.write_text("0 1\n1 2\n")
    assert _parse_bulk(path)[2] is None
