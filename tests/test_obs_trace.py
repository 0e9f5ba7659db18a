"""Tracer: span nesting, aggregation, scoping, and the no-op fast path."""

import pytest

from repro.obs import (
    NULL_SPAN, Tracer, disable_tracing, enable_tracing, get_tracer,
    reset_tracing, span, tracing_enabled,
)


@pytest.fixture(autouse=True)
def clean_global():
    """Every test starts (and leaves) the global tracer disabled + empty."""
    disable_tracing()
    reset_tracing()
    yield
    disable_tracing()
    reset_tracing()


class TestSpans:
    def test_records_total_and_count(self):
        t = Tracer(enabled=True)
        for _ in range(3):
            with t.span("work"):
                pass
        stats = t.stats()
        assert stats["work"]["count"] == 3
        assert stats["work"]["total"] >= 0.0
        assert stats["work"]["min"] <= stats["work"]["mean"] <= stats["work"]["max"]

    def test_nesting_builds_slash_paths(self):
        t = Tracer(enabled=True)
        with t.span("rollout"):
            with t.span("encode"):
                pass
            with t.span("process"):
                with t.span("gather"):
                    pass
        paths = set(t.stats())
        assert paths == {"rollout", "rollout/encode", "rollout/process",
                         "rollout/process/gather"}

    def test_span_objects_are_reusable(self):
        t = Tracer(enabled=True)
        s = t.span("stage")
        for _ in range(5):
            with s:
                pass
        assert t.stats()["stage"]["count"] == 5

    def test_exception_still_closes_span(self):
        t = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with t.span("outer"):
                with t.span("inner"):
                    raise ValueError("boom")
        stats = t.stats()
        assert stats["outer"]["count"] == 1
        assert stats["outer/inner"]["count"] == 1
        # the name stack unwound: a new span is top-level again
        with t.span("after"):
            pass
        assert "after" in t.stats()

    def test_snapshot_scopes_stats(self):
        t = Tracer(enabled=True)
        with t.span("stage"):
            pass
        mark = t.snapshot()
        with t.span("stage"):
            pass
        with t.span("stage"):
            pass
        assert t.stats()["stage"]["count"] == 3
        assert t.stats(since=mark)["stage"]["count"] == 2

    def test_reset_clears(self):
        t = Tracer(enabled=True)
        with t.span("x"):
            pass
        t.reset()
        assert t.stats() == {}


class TestNoOpFastPath:
    def test_disabled_module_span_is_shared_null(self):
        assert not tracing_enabled()
        assert span("anything") is NULL_SPAN
        assert span("other") is NULL_SPAN

    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        with t.span("x"):
            pass
        assert t.stats() == {}

    def test_enable_disable_roundtrip(self):
        enable_tracing()
        assert tracing_enabled()
        with span("live"):
            pass
        assert get_tracer().stats()["live"]["count"] == 1
        disable_tracing()
        assert span("dead") is NULL_SPAN

    def test_disabled_span_does_no_work(self):
        # the null path is one flag read: every disabled span() is the
        # shared stateless NULL_SPAN and nothing reaches the tracer
        assert not tracing_enabled()
        for _ in range(100):
            with span("hot") as s:
                assert s is NULL_SPAN
        assert type(NULL_SPAN).__slots__ == ()
        assert get_tracer().stats() == {}
