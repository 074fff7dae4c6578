"""Remaining serialization and suite-estimator tests."""

import pytest

from repro.experiments.serialize import load_json, save_json
from repro.programs.inputs import ProgramInput, REF_INPUT
from repro.programs.suite import (
    build_benchmark,
    estimate_source_instructions,
)


class TestSaveJson:
    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "nested" / "deeper" / "out.json"
        path = save_json({"a": 1}, target)
        assert path.exists()
        assert load_json(path) == {"a": 1}

    def test_output_is_stable(self, tmp_path):
        """sort_keys makes byte-identical output for equal data."""
        a = save_json({"b": 2, "a": 1}, tmp_path / "a.json")
        b = save_json({"a": 1, "b": 2}, tmp_path / "b.json")
        assert a.read_text() == b.read_text()


class TestSourceEstimator:
    def test_estimator_scales_with_input(self):
        program = build_benchmark("art")
        full = estimate_source_instructions(program, REF_INPUT)
        half = estimate_source_instructions(
            program, ProgramInput("half", 0.5)
        )
        assert half < full
        # main_loop dominates, so halving its trips roughly halves work.
        assert half >= 0.3 * full

    def test_estimator_close_to_executed_source_work(self):
        """The static estimator approximates the dynamic 32o run within
        the compiler's O2 shrink factor band."""
        from repro.compilation.compiler import compile_standard_binaries
        from repro.compilation.targets import TARGET_32O
        from repro.execution.engine import run_binary

        program = build_benchmark("art")
        estimate = estimate_source_instructions(program)
        binary = compile_standard_binaries(program, (TARGET_32O,))[
            TARGET_32O
        ]
        executed = run_binary(binary).instructions
        # O2 multiplies source work by ~0.75-1.0 (kernel o2_mult) plus
        # overhead blocks; the estimate must land in that band.
        assert 0.6 * estimate <= executed <= 1.3 * estimate


class TestSerialization:
    def test_figure_roundtrip(self, tmp_path):
        from repro.experiments.figures import FigureData
        from repro.experiments.serialize import (
            figure_to_dict,
            load_json,
            save_json,
        )

        figure = FigureData(
            figure="figureX",
            title="test",
            unit="units",
            benchmarks=("a", "b"),
            series={"S": (1.0, 3.0)},
        )
        data = figure_to_dict(figure)
        assert data["averages"]["S"] == pytest.approx(2.0)
        path = save_json(data, tmp_path / "fig.json")
        assert load_json(path) == data

    def test_benchmark_run_summary(self):
        from repro.experiments.runner import run_benchmark
        from repro.experiments.serialize import benchmark_run_to_dict

        run = run_benchmark("art")
        data = benchmark_run_to_dict(run)
        assert data["benchmark"] == "art"
        assert set(data["outcomes"]) == {"32u", "32o", "64u", "64o"}
        assert data["k"] == run.cross.simpoint.k
        weights = data["outcomes"]["32u"]["vli"]["weights"]
        assert sum(weights.values()) == pytest.approx(1.0)
        import json

        json.dumps(data)  # must be JSON-serializable

    def test_design_space_dict(self):
        from repro.experiments.design_space import (
            DesignPoint,
            DesignSpaceResult,
        )
        from repro.experiments.serialize import design_space_to_dict

        result = DesignSpaceResult(
            program="p",
            points=(
                DesignPoint("32u", "a", 10.0, 11.0, 10.5),
                DesignPoint("32o", "a", 5.0, 5.5, 5.2),
            ),
        )
        data = design_space_to_dict(result)
        assert data["true_best"] == ["32o", "a"]
        assert len(data["points"]) == 2
