"""Persistent cache for expensive high-precision constants.

The store is a small versioned text file mapping a constant key
``(kind, arg)`` to the most precise decimal value computed so far:

    mahlerzeta-constants 1
    zeta 3 50 1.2020569031595942853997381615114499907649862923405
    l3_ii 1 30 2.82711656135535384846204864476

Loading refuses any line other than a kind, an integer argument, a digit
count of at least 1 and a finite decimal literal.  A load, like a write,
keeps whichever entry for a key has more digits (the earlier on a tie):
both go through :meth:`ConstantStore.put`.  A lookup hits only when the
stored entry carries at least as many digits as requested.  The default
path ``~/.cache/mahlerzeta/constants.txt`` yields to ``MAHLERZETA_STORE``.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = ["ConstantStore", "STORE_ENV_VAR"]

STORE_ENV_VAR = "MAHLERZETA_STORE"

_HEADER = "mahlerzeta-constants 1"

# kind, argument, digits, value
_LINE = re.compile(
    r"(\S+)\s+([+-]?[0-9]+)\s+(0*[1-9][0-9]*)\s+([+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
)


class ConstantStore:
    """File-backed map from ``(kind, arg)`` to ``(digits, decimal string)``."""

    def __init__(self, path: Optional[os.PathLike] = None):
        self.path = Path(path) if path is not None else self.default_path()
        self._entries: Dict[Tuple[str, int], Tuple[int, str]] = {}
        if self.path.exists():
            self._load()

    @staticmethod
    def default_path() -> Path:
        env = os.environ.get(STORE_ENV_VAR)
        if env:
            return Path(env)
        return Path.home() / ".cache" / "mahlerzeta" / "constants.txt"

    def _load(self) -> None:
        lines = self.path.read_text().splitlines()
        body = [ln.strip() for ln in lines if ln.strip()]
        if not body:
            return
        if body[0] != _HEADER:
            raise ValueError(
                f"unsupported constant-store format in {self.path}: {body[0]!r}"
            )
        for ln in body[1:]:
            match = _LINE.fullmatch(ln)
            if match is None:
                raise ValueError(f"malformed constant-store line: {ln!r}")
            kind, arg_s, digits_s, value = match.groups()
            self.put(kind, int(arg_s), int(digits_s), value)

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        lines = [_HEADER]
        for (kind, arg), (digits, value) in sorted(self._entries.items()):
            lines.append(f"{kind} {arg} {digits} {value}")
        # Each save writes its own temp file, so concurrent savers never
        # rename one another's file away; 0o666 under the umask is the mode a
        # plain open() gives.  os.urandom gives the bytes secrets would,
        # without importing hmac and _hashlib in every process.
        tmp = self.path.with_name("%s.%s.tmp" % (self.path.name, os.urandom(8).hex()))
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write("\n".join(lines) + "\n")
            os.replace(tmp, self.path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def get(self, kind: str, arg: int, digits: int) -> Optional[str]:
        """The stored decimal string, or None unless stored digits >= digits."""
        entry = self._entries.get((kind, arg))
        if entry is None or entry[0] < digits:
            return None
        return entry[1]

    def put(self, kind: str, arg: int, digits: int, value: str) -> None:
        """Record a value; an existing higher-precision entry is kept."""
        entry = self._entries.get((kind, arg))
        if entry is not None and entry[0] >= digits:
            return
        self._entries[(kind, arg)] = (digits, value)

    def entries(self) -> List[Tuple[str, int, int, str]]:
        return [
            (kind, arg, digits, value)
            for (kind, arg), (digits, value) in sorted(self._entries.items())
        ]

    def __len__(self) -> int:
        return len(self._entries)
