"""CLI coverage for ``--config``, ``--chunked``, and ``scale-bench``."""

from __future__ import annotations

import json

import pytest

from repro.cli.main import _build_parser, main
from repro.core.config import CORE_ORDERS, BuildConfig
from repro.core.serialization import index_fingerprint, load_ct_index
from repro.exceptions import ConfigurationError
from repro.graphs.generators.random_graphs import connected_gnp_graph
from repro.graphs.io import write_edge_list
from repro.kernels import KERNEL_NAMES
from repro.labeling.base import HUB_BUILDERS, LABEL_BACKENDS


@pytest.fixture
def edge_file(tmp_path):
    graph = connected_gnp_graph(60, 0.08, seed=31)
    path = tmp_path / "graph.edges"
    write_edge_list(graph, path)
    return path


class TestBuildConfigFlag:
    def test_config_round_trips_to_the_same_fingerprint(
        self, edge_file, tmp_path, capsys
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {"bandwidth": 3, "backend": "flat", "core_backend": "psl"}
            )
        )
        by_config = tmp_path / "a.idx"
        by_flags = tmp_path / "b.idx"
        assert (
            main(
                [
                    "build",
                    str(edge_file),
                    "--config",
                    str(config_path),
                    "-o",
                    str(by_config),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "build",
                    str(edge_file),
                    "-d",
                    "3",
                    "--backend",
                    "flat",
                    "--core-backend",
                    "psl",
                    "-o",
                    str(by_flags),
                ]
            )
            == 0
        )
        assert index_fingerprint(load_ct_index(by_config)) == index_fingerprint(
            load_ct_index(by_flags)
        )

    def test_conflicting_flag_fails_cleanly(self, edge_file, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"bandwidth": 3}))
        code = main(
            [
                "build",
                str(edge_file),
                "--config",
                str(config_path),
                "-d",
                "9",
                "-o",
                str(tmp_path / "x.idx"),
            ]
        )
        captured = capsys.readouterr()
        assert code != 0
        assert "conflict" in captured.err + captured.out

    def test_unknown_config_key_fails_cleanly(self, edge_file, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"bandwith": 3}))
        code = main(
            [
                "build",
                str(edge_file),
                "--config",
                str(config_path),
                "-o",
                str(tmp_path / "x.idx"),
            ]
        )
        assert code != 0

    @pytest.mark.parametrize(
        "flags",
        [
            ["--core-backend", "hopdb"],
            ["--order", "is"],
            ["--hopdb-order", "degree"],
        ],
    )
    def test_removed_build_flags_exit_2(self, edge_file, tmp_path, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["build", str(edge_file), "-d", "3", "-o", str(tmp_path / "x.idx"), *flags]
            )
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flag, field, values",
        [
            ("--backend", "backend", LABEL_BACKENDS),
            ("--order", "order", CORE_ORDERS),
            ("--core-backend", "core_backend", HUB_BUILDERS),
            ("--kernel", "kernel", KERNEL_NAMES),
        ],
    )
    def test_build_flag_choices_are_the_build_config_values(
        self, flag, field, values
    ):
        parser = _build_parser()
        base = ["build", "graph.edges", "-o", "x.idx"]
        for value in values:
            BuildConfig(**{field: value})
            assert getattr(parser.parse_args([*base, flag, value]), field) == value
        for value in ("bogus", "", values[0].upper()):
            with pytest.raises(ConfigurationError):
                BuildConfig(**{field: value})
            with pytest.raises(SystemExit) as excinfo:
                parser.parse_args([*base, flag, value])
            assert excinfo.value.code == 2

    def test_chunked_loader_builds_the_same_index(self, edge_file, tmp_path):
        plain = tmp_path / "a.idx"
        chunked = tmp_path / "b.idx"
        assert main(["build", str(edge_file), "-d", "3", "-o", str(plain)]) == 0
        assert (
            main(
                ["build", str(edge_file), "-d", "3", "--chunked", "-o", str(chunked)]
            )
            == 0
        )
        assert index_fingerprint(load_ct_index(plain)) == index_fingerprint(
            load_ct_index(chunked)
        )


class TestScaleBenchCommand:
    def test_smallest_tier_smoke(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "BENCH_scale.json"
        assert (
            main(["scale-bench", "--tiers", "cp-1k", "-o", str(out)]) == 0
        )
        printed = capsys.readouterr().out
        assert "cp-1k" in printed
        assert "recorded 1 entries" in printed
        document = json.loads(out.read_text())
        assert document["entries"][0]["verify"]["identical"] is True

    def test_hopdb_ablation_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["scale-bench", "--tiers", "cp-1k", "--hopdb-ablation", "-o", "-"])
        assert excinfo.value.code == 2

    def test_dash_output_skips_recording(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["scale-bench", "--tiers", "rmat-10", "-o", "-"]) == 0
        assert not (tmp_path / "BENCH_scale.json").exists()
