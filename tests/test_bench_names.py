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


def test_theorem_route_reaches_the_traced_layers(monkeypatch):
    # The tracer times quadrature.panel and polylog.node_cache by patching
    # quadrature.gauss_kronrod_panel and polylog._NodeCache.channel, and
    # counts a channel call's nodes as its lookups: a warm theorem6b
    # request must reach both through those attributes, a panel per call.
    import lirep.quadrature as quad

    panel, channel = quad.gauss_kronrod_panel, pl._NodeCache.channel
    rounds, panels = [], []

    def panel_spy(f, a, b):
        rounds.append(len(a))
        return panel(f, a, b)

    def channel_spy(self, t_arr, idx):
        panels.append(t_arr.shape)
        return channel(self, t_arr, idx)

    request = pl.PolylogRequest(s=2.75, z=0.6 + 0.3j, representation=pl.RepresentationTag.THEOREM_6B, tol=1e-10)
    pl.li_eval(request)
    monkeypatch.setattr(quad, "gauss_kronrod_panel", panel_spy)
    monkeypatch.setattr(pl._NodeCache, "channel", channel_spy)
    result = pl.li_eval(request)
    assert rounds
    assert panels == [(quad.PANEL_SIZE,)] * (result.quadrature.evaluations // quad.PANEL_SIZE)
    assert sum(rounds) == len(panels)
