"""Package-level sanity tests: public API surface, version, error hierarchy."""

import importlib
import re
from pathlib import Path

import pytest

import repro
from repro import errors


def test_version_is_exposed():
    assert repro.__version__


def test_public_api_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.core",
        "repro.agca",
        "repro.delta",
        "repro.optimizer",
        "repro.compiler",
        "repro.runtime",
        "repro.sql",
        "repro.streams",
        "repro.workloads",
        "repro.bench",
    ],
)
def test_subpackages_import_and_export_their_all(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name}"


def test_error_hierarchy_roots_at_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception) and obj is not Exception:
            assert issubclass(obj, errors.ReproError)


def test_specific_errors_carry_context():
    err = errors.UnboundVariableError("x", "R(x)")
    assert "x" in str(err) and "R(x)" in str(err)
    sql_err = errors.SQLSyntaxError("boom", position=12)
    assert sql_err.position == 12 and "12" in str(sql_err)


def test_nothing_under_src_depends_on_the_bench_harness():
    """``repro.bench`` sits on top of the stack: no other package imports it."""
    package = Path(repro.__file__).parent
    importing = re.compile(r"^\s*(from|import)\s+repro\.bench\b", re.MULTILINE)
    offenders = [
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if "bench" not in path.relative_to(package).parts[:1]
        and importing.search(path.read_text())
    ]
    assert offenders == []
