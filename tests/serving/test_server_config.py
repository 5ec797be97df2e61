"""``ServerConfig`` refuses settings the server cannot honour.

Each of these was once accepted and then misbehaved at run time: a
negative drain timeout abandoned admitted requests at once, an infinite
window held short batches forever, and a ``bool`` passed as a size.
"""

from __future__ import annotations

import math

import pytest

from repro.cli.main import main
from repro.exceptions import ConfigurationError
from repro.serving import ServerConfig


@pytest.mark.parametrize(
    "kwargs",
    [
        {"drain_timeout_s": -1.0},
        {"drain_timeout_s": math.nan},
        {"batch_window_ms": math.inf},
        {"batch_window_ms": math.nan},
        {"batch_max_size": True},
        {"max_queue_depth": True},
    ],
    ids=[
        "negative-drain-timeout",
        "nan-drain-timeout",
        "infinite-window",
        "nan-window",
        "bool-batch-max-size",
        "bool-queue-depth",
    ],
)
def test_unhonourable_settings_raise(kwargs):
    (name,) = kwargs
    with pytest.raises(ConfigurationError, match=name):
        ServerConfig(**kwargs)


def test_boundary_values_are_accepted():
    config = ServerConfig(
        batch_window_ms=0, drain_timeout_s=0, batch_max_size=1, max_queue_depth=1
    )
    assert config.as_dict()["batch_window_ms"] == 0.0


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--batch-window-ms", "inf"], "batch_window_ms"),
        (["--drain-timeout", "-1"], "drain_timeout_s"),
    ],
)
def test_repro_serve_shows_the_message(tmp_path, capsys, flags, name):
    code = main(["serve", str(tmp_path / "absent.ctsnap"), *flags])
    assert code == 1
    assert f"error: {name} must be" in capsys.readouterr().err
