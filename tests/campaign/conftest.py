"""Campaign test fixtures."""

import pytest


class SolveCounter:
    """Counts Section 3.4 solves, split by where they happen.

    Wraps the ``size_duplicated_network`` binding that
    :meth:`StreamingApplication.sizing` calls — above the sizing memo, so
    memo hits count too — and the :class:`ScenarioGenerator` methods that
    build scenarios.  A solve made while one of those methods runs counts
    as ``generating``; any other solve counts as ``elsewhere``.
    """

    def __init__(self, monkeypatch) -> None:
        import repro.apps.base
        from repro.campaign.scenario import ScenarioGenerator

        self.generating = 0
        self.elsewhere = 0
        self._depth = 0
        real = repro.apps.base.size_duplicated_network

        def counting(*args, **kwargs):
            if self._depth:
                self.generating += 1
            else:
                self.elsewhere += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.apps.base, "size_duplicated_network",
                            counting)
        for name in ("generate", "scenario", "self_tests"):
            monkeypatch.setattr(ScenarioGenerator, name,
                                self._tracked(getattr(ScenarioGenerator,
                                                      name)))

    def _tracked(self, method):
        def tracked(generator, *args, **kwargs):
            self._depth += 1
            try:
                return method(generator, *args, **kwargs)
            finally:
                self._depth -= 1

        return tracked


@pytest.fixture
def solve_counter(monkeypatch):
    return SolveCounter(monkeypatch)
