"""The benchmark's tracer patches library names by module and attribute;
a rename that breaks it should fail here, in seconds, and not only in the
benchmark's own self-test."""

import importlib
import importlib.util
from pathlib import Path

import lirep.polylog as pl

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


def test_every_wrapped_name_resolves():
    wrapped = _wrapped()
    assert wrapped
    for span, module, attr in wrapped:
        owner = importlib.import_module(f"lirep.{module}")
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        assert attr in owner.__dict__, (span, module, attr)


def test_cache_registry_read_by_the_tracer():
    assert isinstance(pl._caches, dict)
    assert isinstance(pl._NodeCache(2.5 + 0j, 1e-10).pairs, dict)
