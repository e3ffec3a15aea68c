"""The golden tables: reference records transcribed from the literature
(data/golden_tables.txt), read into named tuples. Each pattern a record
names must be one of patterns.PATTERNS; reading them needs neither the
series ring nor the campaign (verifier), which compares them."""
from __future__ import annotations

import os
import re
from typing import NamedTuple, Optional

from .patterns import PATTERNS


class GoldenTable(NamedTuple):
    pattern: str
    source: str
    cells: tuple  # of (n, k, count)


class PopularityCell(NamedTuple):
    source: str
    patterns: tuple  # usually one name; ("UU", "DD") share a row
    n: int
    printed: int
    misprint_computed: Optional[int] = None


class SequenceRef(NamedTuple):
    oeis_id: str
    status: str  # stated | conjectured
    target: str  # pop:<P> | avoid:<P> | row:<P>:<k> | diag:<P>:<j>
    offset: int  # n of the first known term
    known_terms: tuple
    provenance: str = "table"


class GoldenData(NamedTuple):
    tables: dict  # source label -> GoldenTable
    sums: tuple  # of (source, n, value)
    popularity: tuple  # of PopularityCell
    seq_refs: tuple  # of SequenceRef


# fields per golden record; a pop record may carry one misprint tag after its five
_FIELDS = {"dist": 6, "sum": 4, "pop": 5, "seq": 6}
# the sequence targets _resolve_target reads, each naming one pattern
_TARGET_RE = re.compile(r"(?:pop|avoid):([^:]+)|(?:row|diag):([^:]+):\d+")


def load_golden_tables(path: Optional[str] = None) -> GoldenData:
    if path is None:  # the packaged file beside this module
        path = os.path.join(os.path.dirname(__file__), "data", "golden_tables.txt")
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    cells, sums, pops, seqs = {}, [], [], []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:  # int() and the checks below name the line through the except
            if kind not in _FIELDS:
                raise ValueError(f"unknown record kind {kind!r}")
            if not _FIELDS[kind] <= len(parts) <= _FIELDS[kind] + (kind == "pop"):
                raise ValueError(f"a {kind} record has {_FIELDS[kind]} fields"
                                 f"{' and at most one tag' * (kind == 'pop')}, not {len(parts)}")
            names = {"dist": [parts[2]], "pop": parts[2].split(",")}.get(kind, [])
            if kind == "seq":
                target = _TARGET_RE.fullmatch(parts[3])
                if target is None:
                    raise ValueError(f"sequence target {parts[3]!r} is not pop:P, "
                                     f"avoid:P, row:P:k or diag:P:j")
                names = [target.group(1) or target.group(2)]
            for name in names:
                if name not in PATTERNS:
                    raise ValueError(f"unknown pattern {name!r}")
            if kind == "dist":
                _, label, pattern, n, k, value = parts
                cells.setdefault((label, pattern), []).append((int(n), int(k), int(value)))
            elif kind == "sum":
                _, label, n, value = parts
                sums.append((label, int(n), int(value)))
            elif kind == "pop":
                _, label, _, n, value, *tag = parts
                if tag and not tag[0].startswith("misprint:"):
                    raise ValueError(f"tag {tag[0]!r} is not misprint:<computed>")
                pops.append(PopularityCell(label, tuple(names), int(n), int(value),
                                           int(tag[0].removeprefix("misprint:")) if tag else None))
            else:
                _, sid, status, target, first_n, terms = parts
                if status not in ("stated", "conjectured"):
                    raise ValueError(f"status {status!r} is not stated or conjectured")
                seqs.append(SequenceRef(sid, status, target, int(first_n),
                                        tuple(map(int, terms.split(",")))))
        except ValueError as exc:
            raise ValueError(f"golden record on line {number}: {exc}: {line}") from None
    tables = {label: GoldenTable(pattern, label, tuple(tableCells))
              for (label, pattern), tableCells in cells.items()}
    return GoldenData(tables, tuple(sums), tuple(pops), tuple(seqs))


def embedded_prefixes() -> dict:
    """id -> (offset, terms) from the packaged reference rows, for
    offline sequence lookups. An id listed twice keeps its first row."""
    return {ref.oeis_id: (ref.offset, list(ref.known_terms))
            for ref in reversed(load_golden_tables().seq_refs)}
