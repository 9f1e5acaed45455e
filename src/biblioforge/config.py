"""Configuration for the batch pipeline.

Config files are in the ``key: value`` format of ``fields``, read through
the ``_FIELDS`` table, with no empty values.  The config's own rules: a line
whose first non-blank character is ``#`` is a comment, and a repeated key
keeps its last value, but all ``heading_pattern`` values together replace
the default heading patterns (the field name ``heading_patterns`` is an
unknown key).  Command line flags override file values; the file path
comes from ``--config`` or the BIBLIOFORGE_CONFIG environment variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from .citegraph import check_rank_settings
from .fields import read_fields, reading
from .refextract import DEFAULT_HEADING_PATTERNS, default_journal_kb_path

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


def _number(key: str, parse: Callable[[str], float], text: str) -> float:
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"bad number for {key}: {text!r}") from None


# The fields of a config file; every key repeats, see load_config.
_FIELDS = {
    "store_dir": ("store_dir", True, Path, str),
    "taxonomy_path": ("taxonomy_path", True, Path, str),
    "kb_path": ("kb_path", True, Path, str),
    "log_path": ("log_path", True, Path, str),
    "alerts_dir": ("alerts_dir", True, Path, str),
    "notifications_dir": ("notifications_dir", True, Path, str),
    "damping": ("damping", True, partial(_number, "damping", float), str),
    "rank_tolerance": ("rank_tolerance", True, partial(_number, "rank_tolerance", float), str),
    "rank_max_iters": ("rank_max_iters", True, partial(_number, "rank_max_iters", int), str),
    "heading_pattern": ("heading_patterns", True, str, str),
}


def load_config(path: str | Path) -> Config:
    """Parse a config file into a Config; unknown keys warn and are ignored."""
    with reading(path) as text:
        # a comment reads as a blank line, so later line numbers stay put
        lines = ("" if line.lstrip().startswith("#") else line for line in text.splitlines())
        values = read_fields(lines, _FIELDS, f"config {path}")
        return Config(**{
            attr: tuple(items) if attr == "heading_patterns" else items[-1]
            for attr, items in values.items()
        })
