"""The ``repro.*`` logger hierarchy.

Every module logs through :func:`get_logger`, which namespaces under the
single ``repro`` root logger — so one :func:`setup_logging` call (or a
stdlib ``logging.config`` setup targeting ``"repro"``) controls the whole
repository.  Nothing is configured at import time: library users who
never call :func:`setup_logging` see the stdlib default (warnings and
above to stderr via the last-resort handler), and the CLI's
``--log-level`` flag is just ``setup_logging(level)``.

Logger names mirror the package layout::

    repro.engine          decision routing, cache-tier hits
    repro.engine.stores   disk store reads/writes/skips
    repro.obs.report      run-report emission
"""

from __future__ import annotations

import logging

ROOT_LOGGER_NAME = "repro"

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
    "critical": logging.CRITICAL,
}

#: Handler installed by :func:`setup_logging`, kept so repeated calls
#: reconfigure instead of stacking duplicate handlers.
_HANDLER: logging.Handler | None = None


def get_logger(name: str) -> logging.Logger:
    """The logger ``repro.<name>`` (or the root ``repro`` logger for
    an empty name)."""
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name.startswith(ROOT_LOGGER_NAME + ".") or name == ROOT_LOGGER_NAME:
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def parse_level(level: str | int) -> int:
    """``"debug"``/``"INFO"``/numeric → stdlib level number."""
    if isinstance(level, int):
        return level
    try:
        return _LEVELS[level.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; use one of {', '.join(_LEVELS)}"
        ) from None


def setup_logging(level: str | int = "warning", stream=None) -> logging.Logger:
    """Attach (or re-level) one stderr handler on the ``repro`` root
    logger.  Idempotent: repeated calls adjust the level of the same
    handler rather than installing another one."""
    global _HANDLER
    root = logging.getLogger(ROOT_LOGGER_NAME)
    resolved = parse_level(level)
    if _HANDLER is None or (stream is not None and _HANDLER.stream is not stream):
        if _HANDLER is not None:
            root.removeHandler(_HANDLER)
        _HANDLER = logging.StreamHandler(stream)
        _HANDLER.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)-7s %(name)s: %(message)s")
        )
        root.addHandler(_HANDLER)
    root.setLevel(resolved)
    _HANDLER.setLevel(resolved)
    # The dedicated handler replaces propagation to the stdlib root.
    root.propagate = False
    return root
