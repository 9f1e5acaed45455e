"""Configuration for the batch pipeline.

Config files are in the ``key: value`` format of ``fields``, with no empty
values; lines starting with ``#`` are comments.  ``heading_pattern`` may
repeat and, when present, replaces the default heading patterns; the field
name ``heading_patterns`` is an unknown key, warned about and ignored.  Command
line flags override file values; the file path comes from ``--config`` or
the BIBLIOFORGE_CONFIG environment variable.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, fields
from pathlib import Path

from .citegraph import check_rank_settings
from .errors import MalformedLine
from .fields import key_value_lines, reading
from .refextract import DEFAULT_HEADING_PATTERNS, default_journal_kb_path

logger = logging.getLogger(__name__)

CONFIG_ENV_VAR = "BIBLIOFORGE_CONFIG"


@dataclass
class Config:
    store_dir: Path = Path("records")
    taxonomy_path: Path | None = None
    kb_path: Path | None = None  # None falls back to the packaged KB
    log_path: Path | None = None
    alerts_dir: Path = Path("alerts")
    notifications_dir: Path = Path("notifications")
    damping: float = 0.85
    rank_tolerance: float = 1e-10
    rank_max_iters: int = 1000
    heading_patterns: tuple[str, ...] = DEFAULT_HEADING_PATTERNS

    def __post_init__(self) -> None:
        check_rank_settings(self.damping, self.rank_tolerance, self.rank_max_iters)
        for pattern in self.heading_patterns:
            try:
                re.compile(pattern)
            except re.error as exc:
                raise ValueError(f"bad heading_pattern {pattern!r}: {exc}") from None

    def resolved_kb_path(self) -> Path:
        return self.kb_path if self.kb_path is not None else default_journal_kb_path()


# Config annotation (a string: annotations are postponed) -> parser; str for the rest
_PARSERS = {"Path": Path, "Path | None": Path, "float": float, "int": int}


def load_config(path: str | Path) -> Config:
    """Parse a config file into a Config; unknown keys warn and are ignored."""
    values: dict[str, object] = {}
    patterns: list[str] = []
    # heading_patterns is set only by heading_pattern lines, so as a key it is unknown
    types = {f.name: f.type for f in fields(Config) if f.name != "heading_patterns"}
    with reading(path) as text:
        # a comment reads as a blank line, so later line numbers stay put
        lines = ("" if line.lstrip().startswith("#") else line for line in text.splitlines())
        for line_no, key, value in key_value_lines(lines):
            if not value:
                raise MalformedLine(f"empty value for key {key!r}", line_no)
            if key == "heading_pattern":
                patterns.append(value)
            elif key in types:
                try:
                    values[key] = _PARSERS.get(types[key], str)(value)
                except ValueError:
                    raise MalformedLine(f"bad number for {key}: {value!r}", line_no) from None
            else:
                logger.warning("config %s line %d: ignoring unknown key %r", path, line_no, key)
        if patterns:
            values["heading_patterns"] = tuple(patterns)
        return Config(**values)  # type: ignore[arg-type]
