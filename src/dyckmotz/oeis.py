"""OEIS b-file access: URL scheme, parser, fetch with local cache.

A b-file is plain text with one `n a(n)` pair per line; `#` comments and
blank lines are allowed anywhere. Cache files keep the downloaded bytes
verbatim under `<id>.txt` and are never rewritten unless a refresh is
forced. Offline mode reads only the cache (or embedded table prefixes
supplied by the caller); it never touches the network.
"""
from __future__ import annotations

import os
import re
from typing import Callable, Optional


class NetworkUnavailableError(OSError):
    """Download attempted and failed (and offline mode was not set)."""


class MalformedBFileError(ValueError):
    def __init__(self, line_number: int, content: str):
        self.line_number = line_number
        super().__init__(f"malformed b-file line {line_number}: {content!r}")


class CacheMissError(FileNotFoundError):
    """Offline fetch with no cached copy and no embedded fallback."""


_ID_RE = re.compile(r"A\d{6}")


def _check_id(oeis_id: str) -> str:
    if not _ID_RE.fullmatch(oeis_id):  # "^A\d{6}$" would pass "A000001\n"
        raise ValueError(f"bad OEIS id {oeis_id!r}; expected like A025566")
    return oeis_id


def bfile_url(oeis_id: str) -> str:
    _check_id(oeis_id)
    return f"https://oeis.org/{oeis_id}/b{oeis_id[1:]}.txt"


def parse_bfile(text: str):
    """(offset, terms) from b-file text. Indices must be contiguous."""
    offset = None
    expected = 0
    terms = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedBFileError(lineno, raw)
        try:
            n, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedBFileError(lineno, raw) from None
        if offset is None:
            offset = expected = n
        if n != expected:
            raise MalformedBFileError(lineno, raw)
        terms.append(value)
        expected += 1
    if offset is None:
        raise MalformedBFileError(0, "no data lines")
    return offset, terms


def _default_opener(url: str) -> str:
    # imported here: urllib.request is about a third of `import dyckmotz`
    import urllib.error
    import urllib.request
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.read().decode("utf-8")
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise NetworkUnavailableError(f"cannot fetch {url}: {exc}") from exc


def oeis_fetch(oeis_id: str,
               cache_dir: Optional[str] = None,
               offline: bool = False,
               refresh: bool = False,
               opener: Optional[Callable[[str], str]] = None,
               embedded: Optional[dict] = None):
    """(offset, terms) for one sequence.

    Resolution order: fresh cache file, then (online) download, then for
    offline mode the caller-supplied embedded prefixes. The download is
    parsed, then written to a temporary file renamed into place, so
    neither a malformed body nor a torn write poisons the cache.
    `embedded` maps id -> (offset, terms).
    """
    _check_id(oeis_id)
    cache_path = os.path.join(cache_dir, f"{oeis_id}.txt") if cache_dir else None
    if cache_path and not refresh and os.path.exists(cache_path):
        with open(cache_path, "r", encoding="utf-8") as f:
            return parse_bfile(f.read())
    if offline:
        if embedded and oeis_id in embedded:
            return embedded[oeis_id]
        raise CacheMissError(f"no cached b-file for {oeis_id} and offline set")
    text = (opener or _default_opener)(bfile_url(oeis_id))
    parsed = parse_bfile(text)
    if cache_path:
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{cache_path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                f.write(text)
            os.replace(tmp, cache_path)
        finally:
            if os.path.exists(tmp):  # the write or the rename failed
                os.remove(tmp)
    return parsed
