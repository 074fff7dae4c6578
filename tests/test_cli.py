"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["summary", "nosuchbench"])

    def test_bad_target_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["pinpoints", "art", "--target", "128u"]
            )


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out and "wupwise" in out
        assert out.count("\n") >= 22  # header + 21 benchmarks

    def test_summary(self, capsys):
        assert main(["summary", "art"]) == 0
        out = capsys.readouterr().out
        assert "mappable points" in out
        assert "32u" in out and "64o" in out
        assert "speedup errors" in out

    def test_summary_detail(self, capsys):
        assert main(["summary", "art", "--detail"]) == 0
        out = capsys.readouterr().out
        assert "memory system, art/32u" in out
        assert "DRAM MPKI" in out
        assert "miss rate" in out

    def test_pinpoints_writes_files(self, tmp_path, capsys):
        assert main([
            "pinpoints", "art", "--target", "32o",
            "--output", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "simulation points" in out
        assert (tmp_path / "art_32o.simpoints").exists()
        assert (tmp_path / "art_32o.weights").exists()

    def test_regions_writes_file(self, tmp_path, capsys):
        assert main(["regions", "art", "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "mappable" in out
        assert (tmp_path / "art.regions").exists()

    def test_figures_json_export(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "results.json"
        assert main([
            "figures", "--benchmarks", "art", "--json", str(out_path),
        ]) == 0
        assert out_path.exists()
        payload = json.loads(out_path.read_text())
        assert set(payload["figures"]) == {
            "figure1", "figure2", "figure3", "figure4", "figure5",
        }
        assert "art" in payload["benchmarks"]

    def test_figures_subset(self, capsys):
        assert main(["figures", "--benchmarks", "art"]) == 0
        out = capsys.readouterr().out
        assert "Memory System Configuration" in out
        assert "Number of SimPoints" in out
        assert "Speedup error, cross platform" in out
        # gcc/apsi tables are skipped when those benchmarks are absent.
        assert "phase comparison" not in out


class TestRuntimeFlags:
    """Flags beat the environment, which beats the CLI defaults."""

    def _options_seen_by(self, monkeypatch, argv):
        from repro import cli
        from repro.runtime import current_options

        seen = []
        monkeypatch.setitem(
            cli._COMMANDS, "list",
            lambda args: seen.append(current_options()) or 0,
        )
        assert main(argv) == 0
        return seen[0]

    def test_flags_beat_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setenv("REPRO_MATCH_CONFIDENCE", "0.9")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        options = self._options_seen_by(monkeypatch, [
            "list", "--jobs", "4", "--match-confidence", "0.6",
            "--cache-dir", str(tmp_path / "flag"),
        ])
        assert options.jobs == 4
        assert options.match_confidence == 0.6
        assert options.cache.root == tmp_path / "flag"
        options = self._options_seen_by(monkeypatch, ["list", "--no-cache"])
        assert options.cache is None

    def test_environment_beats_defaults(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setenv("REPRO_MATCH_CONFIDENCE", "0.9")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        options = self._options_seen_by(monkeypatch, ["list"])
        assert options.jobs == 2
        assert options.match_confidence == 0.9
        assert options.cache.root == tmp_path
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert self._options_seen_by(monkeypatch, ["list"]).cache is None
