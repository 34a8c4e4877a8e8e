"""Structured logging for runner/CLI/bench progress output.

One small helper instead of scattered ``print(..., file=sys.stderr)``:
every line is machine-parseable ``logger event key=value ...``, level
filtering is global (the CLI's ``--verbose``/``-q`` flags), and tests
can capture and parse the output deterministically.

Result *tables* (the product of an experiment run) still go to stdout
via plain ``print`` — this module is for progress and diagnostics,
which belong on stderr.

Worker processes (the sharded runner's long-lived shard workers) do not
share the parent's stderr ordering: raw writes from K workers interleave
mid-line.  :func:`set_capture` diverts emitted records into a buffer the
worker ships back over its pipe with every protocol reply; the parent
replays them through its own logger (see
:meth:`StructuredLogger.emit_at`), tagged with the worker's shard block.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, Optional, TextIO, Tuple

#: one captured record: (logger name, level, event, fields)
LogRecord = Tuple[str, int, str, Dict[str, Any]]

DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40

LEVELS: Dict[str, int] = {
    "debug": DEBUG,
    "info": INFO,
    "warning": WARNING,
    "error": ERROR,
}

_level = INFO
_stream: TextIO = sys.stderr
_capture: Optional[Callable[[LogRecord], None]] = None


def set_level(level: object) -> None:
    """Set the global threshold (a name from :data:`LEVELS` or an int)."""
    global _level
    if isinstance(level, str):
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r}; known: {sorted(LEVELS)}")
        _level = LEVELS[level]
    else:
        _level = int(level)  # type: ignore[arg-type]


def get_level() -> int:
    return _level


def set_stream(stream: TextIO) -> None:
    """Redirect log output (tests point this at a buffer)."""
    global _stream
    _stream = stream


def set_capture(sink: Optional[Callable[[LogRecord], None]]) -> None:
    """Divert records that pass the level filter into ``sink`` instead of
    the stream (``None`` restores direct output).  Worker processes
    install a buffer here so their records travel the pipe instead of
    interleaving raw on a shared stderr."""
    global _capture
    _capture = sink


def format_value(value: Any) -> str:
    """One ``key=value`` right-hand side: floats compact, strings quoted
    only when they contain whitespace or ``=``/``"``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    if text == "" or any(c in text for c in ' \t"='):
        return '"' + text.replace('"', '\\"') + '"'
    return text


def kv_line(logger: str, event: str, fields: Dict[str, Any]) -> str:
    parts = [logger, event]
    parts.extend(f"{key}={format_value(value)}" for key, value in fields.items())
    return " ".join(parts)


class StructuredLogger:
    """A named logger emitting ``key=value`` lines to the shared stream."""

    def __init__(self, name: str) -> None:
        self.name = name

    def _emit(self, level: int, event: str, fields: Dict[str, Any]) -> None:
        if level < _level:
            return
        if _capture is not None:
            _capture((self.name, level, event, dict(fields)))
            return
        try:
            print(kv_line(self.name, event, fields), file=_stream, flush=True)
        except ValueError:
            # the stream can be closed under us (a swapped-in stream
            # torn down before a late record); drop, don't die
            pass

    def emit_at(self, level: int, event: str, **fields: Any) -> None:
        """Emit at an explicit numeric level (the replay path for records
        captured in worker processes)."""
        self._emit(level, event, fields)

    def debug(self, event: str, **fields: Any) -> None:
        self._emit(DEBUG, event, fields)

    def info(self, event: str, **fields: Any) -> None:
        self._emit(INFO, event, fields)

    def warning(self, event: str, **fields: Any) -> None:
        self._emit(WARNING, event, fields)

    def error(self, event: str, **fields: Any) -> None:
        self._emit(ERROR, event, fields)


_loggers: Dict[str, StructuredLogger] = {}


def get_logger(name: str) -> StructuredLogger:
    logger = _loggers.get(name)
    if logger is None:
        logger = _loggers[name] = StructuredLogger(name)
    return logger
