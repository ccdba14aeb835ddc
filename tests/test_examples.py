"""Smoke tests: every example script runs end to end and tells its story."""

import importlib.util
import pathlib
import sys

import pytest


EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{name[:-3]}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() in (None, 0)  # sql_exchange.py returns 1 on a mismatch
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "core of the universal solution" in out
        assert "sigma equivalent to its reordering: True" in out

    def test_clio_order_exchange(self, capsys):
        out = run_example("clio_order_exchange.py", capsys)
        assert "nested implies flat: True" in out
        assert "flat implies nested: False" in out
        assert "expressible as a GLAV mapping: False" in out

    def test_expressiveness_tour(self, capsys):
        out = run_example("expressiveness_tour.py", capsys)
        assert "NOT nested-GLAV expressible" in out
        assert "inconclusive" in out
        assert "path-length bound (Theorem 4.16) is 2" in out

    def test_mapping_optimization(self, capsys):
        out = run_example("mapping_optimization.py", capsys)
        assert "after redundancy removal: 2 dependencies" in out
        assert "not GLAV-expressible" in out
        assert "equivalent GLAV mapping (relative to the egd)" in out

    def test_turing_demo(self, capsys):
        out = run_example("turing_demo.py", capsys)
        assert "halting machine" in out and "looping machine" in out

    def test_data_integration(self, capsys):
        out = run_example("data_integration.py", capsys)
        assert "certain under nested mapping" in out
        assert "nested implies flat: True" in out

    def test_composition_pipeline(self, capsys):
        out = run_example("composition_pipeline.py", capsys)
        assert "two-step chase agrees (hom-equivalent): True" in out
        assert "nested Skolem terms" in out

    def test_sql_exchange(self, capsys):
        out = run_example("sql_exchange.py", capsys)
        assert 'INSERT INTO "tgt_Purchase"' in out
        assert "equals the oblivious chase, null labels included: True" in out
