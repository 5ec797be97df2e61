"""End-to-end tests of the ``repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli.main import main
from repro.graphs.generators.random_graphs import gnp_graph
from repro.graphs.io import write_edge_list
from repro.serving import ServerConfig


@pytest.fixture
def edge_file(tmp_path):
    graph = gnp_graph(40, 0.15, seed=23)
    path = tmp_path / "graph.edges"
    write_edge_list(graph, path)
    return path


class TestStats:
    def test_stats(self, edge_file, capsys):
        assert main(["stats", str(edge_file)]) == 0
        out = capsys.readouterr().out
        assert "degeneracy" in out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "nope.edges")])
        assert code != 0 or "error" in capsys.readouterr().err


class TestBuildAndQuery:
    def test_build_query_roundtrip(self, edge_file, tmp_path, capsys):
        index_path = tmp_path / "idx.json"
        assert main(["build", str(edge_file), "-d", "3", "-o", str(index_path)]) == 0
        assert index_path.exists()
        assert main(["query", str(index_path), "0", "1", "2", "5"]) == 0
        out = capsys.readouterr().out
        assert "dist(0, 1)" in out
        assert "dist(2, 5)" in out

    def test_query_odd_node_count(self, edge_file, tmp_path, capsys):
        index_path = tmp_path / "idx.json"
        main(["build", str(edge_file), "-d", "2", "-o", str(index_path)])
        capsys.readouterr()
        assert main(["query", str(index_path), "0", "1", "2"]) == 2

    def test_build_with_memory_limit_om(self, edge_file, tmp_path, capsys):
        code = main(
            [
                "build",
                str(edge_file),
                "-d",
                "0",
                "-o",
                str(tmp_path / "i.json"),
                "--memory-mb",
                "0.0001",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_path_command(self, edge_file, tmp_path, capsys):
        index_path = tmp_path / "idx.json"
        main(["build", str(edge_file), "-d", "3", "-o", str(index_path)])
        capsys.readouterr()
        assert main(["path", str(index_path), "0", "7"]) == 0
        out = capsys.readouterr().out
        assert "->" in out or "cannot reach" in out

    def test_no_reduction_flag(self, edge_file, tmp_path):
        index_path = tmp_path / "idx.json"
        assert (
            main(["build", str(edge_file), "-d", "2", "--no-reduction", "-o", str(index_path)])
            == 0
        )


class TestOtherCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "uk07" in out
        assert "stands in for" in out

    def test_generate(self, tmp_path, capsys):
        out_path = tmp_path / "talk.edges"
        assert main(["generate", "talk", "-o", str(out_path)]) == 0
        assert out_path.exists()

    def test_generate_unknown_dataset(self, tmp_path, capsys):
        assert main(["generate", "nope", "-o", str(tmp_path / "x.edges")]) == 1

    def test_find_bandwidth(self, edge_file, capsys):
        assert main(["find-bandwidth", str(edge_file), "--memory-mb", "10"]) == 0
        out = capsys.readouterr().out
        assert "d = 0" in out

    def test_bench_unknown_experiment(self, capsys):
        assert main(["bench", "exp99"]) == 2

    def test_bench_lemma3(self, capsys):
        assert main(["bench", "lemma3"]) == 0
        assert "rolling" in capsys.readouterr().out.lower()

    def test_audit(self, edge_file, tmp_path, capsys):
        index_path = tmp_path / "idx.json"
        main(["build", str(edge_file), "-d", "3", "-o", str(index_path)])
        capsys.readouterr()
        assert main(["audit", str(index_path), "--samples", "60"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_compare(self, edge_file, capsys):
        assert main(["compare", str(edge_file), "--methods", "PLL,CT-3", "--queries", "50"]) == 0
        out = capsys.readouterr().out
        assert "PLL" in out and "CT-3" in out
        assert "size_mb" in out

    def test_serve_bench(self, edge_file, capsys):
        assert (
            main(
                [
                    "serve-bench",
                    str(edge_file),
                    "-d",
                    "3",
                    "--queries",
                    "300",
                    "--hot-pairs",
                    "6",
                    "--cache",
                    "128",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "uncached" in out
        assert "ext+pair-cache" in out
        assert "core_probes" in out

    def test_serve_bench_missing_graph(self, tmp_path, capsys):
        assert main(["serve-bench", str(tmp_path / "nope.edges")]) == 1
        assert "error" in capsys.readouterr().err


class TestServeBenchKernel:
    def _run(self, edge_file, kernel):
        return main(
            [
                "serve-bench",
                str(edge_file),
                "-d",
                "3",
                "--queries",
                "200",
                "--kernel",
                kernel,
            ]
        )

    def test_kernel_python_is_reported_in_the_title(self, edge_file, capsys):
        assert self._run(edge_file, "python") == 0
        assert "kernel=python" in capsys.readouterr().out

    def test_kernel_numpy_serves_the_vectorized_path(self, edge_file, capsys):
        pytest.importorskip("numpy")
        assert self._run(edge_file, "numpy") == 0
        assert "kernel=numpy" in capsys.readouterr().out

    def test_kernel_auto_resolves_and_reports(self, edge_file, capsys):
        assert self._run(edge_file, "auto") == 0
        out = capsys.readouterr().out
        assert "kernel=python" in out or "kernel=numpy" in out

    def test_unknown_kernel_rejected_by_argparse(self, edge_file, capsys):
        with pytest.raises(SystemExit):
            self._run(edge_file, "vectorized")
        assert "invalid choice" in capsys.readouterr().err


class TestStorageCli:
    def test_build_binary_and_query(self, edge_file, tmp_path, capsys):
        index_path = tmp_path / "idx.ctsnap"
        assert (
            main(
                [
                    "build",
                    str(edge_file),
                    "-d",
                    "3",
                    "--format",
                    "binary",
                    "-o",
                    str(index_path),
                ]
            )
            == 0
        )
        assert index_path.read_bytes()[:8] == b"RCTINDEX"
        assert "[binary]" in capsys.readouterr().out
        # query auto-detects the snapshot format from the magic.
        assert main(["query", str(index_path), "0", "1"]) == 0
        assert "dist(0, 1)" in capsys.readouterr().out

    def test_build_flat_backend(self, edge_file, tmp_path, capsys):
        index_path = tmp_path / "idx.json"
        assert (
            main(
                [
                    "build",
                    str(edge_file),
                    "-d",
                    "3",
                    "--backend",
                    "flat",
                    "-o",
                    str(index_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["query", str(index_path), "0", "5"]) == 0

    def test_binary_and_json_answer_identically(self, edge_file, tmp_path, capsys):
        json_path = tmp_path / "idx.json"
        binary_path = tmp_path / "idx.ctsnap"
        main(["build", str(edge_file), "-d", "3", "-o", str(json_path)])
        main(
            [
                "build",
                str(edge_file),
                "-d",
                "3",
                "--format",
                "binary",
                "-o",
                str(binary_path),
            ]
        )
        capsys.readouterr()
        def distances(text):
            return [line for line in text.splitlines() if line.startswith("dist(")]

        main(["query", str(json_path), "0", "9", "3", "17"])
        from_json = distances(capsys.readouterr().out)
        main(["query", str(binary_path), "0", "9", "3", "17"])
        from_binary = distances(capsys.readouterr().out)
        assert from_json and from_json == from_binary

    def test_audit_binary_snapshot(self, edge_file, tmp_path, capsys):
        index_path = tmp_path / "idx.ctsnap"
        main(
            [
                "build",
                str(edge_file),
                "-d",
                "3",
                "--format",
                "binary",
                "-o",
                str(index_path),
            ]
        )
        capsys.readouterr()
        assert main(["audit", str(index_path), "--samples", "60"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_storage_bench(self, edge_file, tmp_path, capsys):
        out_path = tmp_path / "BENCH_storage.json"
        assert (
            main(
                [
                    "storage-bench",
                    str(edge_file),
                    "-d",
                    "3",
                    "--queries",
                    "100",
                    "-o",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "storage-bench" in out
        assert "resident" in out
        import json as json_module

        document = json_module.loads(out_path.read_text())
        assert document["entries"][0]["answers_verified"] is True

    def test_storage_bench_skip_output(self, edge_file, capsys):
        assert (
            main(["storage-bench", str(edge_file), "-d", "2", "--queries", "50", "-o", "-"])
            == 0
        )
        assert "verified" in capsys.readouterr().out


class TestParallelBuild:
    def test_build_with_workers_matches_serial(self, edge_file, tmp_path, capsys):
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        assert main(["build", str(edge_file), "-d", "3", "-o", str(serial_path)]) == 0
        assert (
            main(
                [
                    "build",
                    str(edge_file),
                    "-d",
                    "3",
                    "-o",
                    str(parallel_path),
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 workers" in out
        import json

        serial = json.loads(serial_path.read_text())
        parallel = json.loads(parallel_path.read_text())
        serial.pop("build_seconds")
        parallel.pop("build_seconds")
        assert serial == parallel

    def test_build_bench(self, edge_file, tmp_path, capsys):
        bench_path = tmp_path / "BENCH_build.json"
        assert (
            main(
                [
                    "build-bench",
                    str(edge_file),
                    "-d",
                    "3",
                    "--workers",
                    "1,2",
                    "-o",
                    str(bench_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "speedup" in out
        assert bench_path.exists()

    def test_build_bench_skip_recording(self, edge_file, capsys):
        assert main(["build-bench", str(edge_file), "-d", "3", "--workers", "1", "-o", "-"]) == 0
        assert "recorded entry" not in capsys.readouterr().out

    def test_build_bench_bad_workers(self, edge_file, capsys):
        assert main(["build-bench", str(edge_file), "--workers", "1,x"]) == 2
        assert "error" in capsys.readouterr().err


class TestServerBenchWindow:
    def test_default_window_follows_server_config(self, edge_file, tmp_path, capsys):
        out = tmp_path / "BENCH_serve.json"
        argv = ["server-bench", str(edge_file), "-d", "3", "--requests", "40",
                "--concurrency", "2", "-o", str(out)]
        assert main(argv) == 0
        assert main([*argv, "--batch-window-ms", "0.5"]) == 0
        default, held = json.loads(out.read_text())["entries"]
        assert default["batch_window_ms"] == ServerConfig().batch_window_ms
        assert held["batch_window_ms"] == 0.5
        assert default["answers_verified"] and held["answers_verified"]
