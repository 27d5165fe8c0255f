"""Tests for the sweep-executor identity smoke check."""

import repro.tools.sweep_smoke as sweep_smoke

ARGS = ["--runs", "1", "--warmup", "10", "--jobs", "2"]


def test_identical_sweeps_pass(capsys):
    assert sweep_smoke.main(ARGS) == 0
    assert "JSON identical" in capsys.readouterr().out


def test_diverging_cached_replay_fails(monkeypatch, capsys):
    # Calls run in order: serial, parallel, warm cache, cached replay.
    # Only the cached replay diverges, so warm still equals serial.
    real = sweep_smoke._table2_json
    calls = []

    def diverging(*args, **kwargs):
        calls.append(None)
        out = real(*args, **kwargs)
        return out + " " if len(calls) == 4 else out

    monkeypatch.setattr(sweep_smoke, "_table2_json", diverging)
    assert sweep_smoke.main(ARGS) == 1
    assert len(calls) == 4
    assert "FAIL: cached replay JSON differs" in capsys.readouterr().out
