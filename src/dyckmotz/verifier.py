"""One-command verification campaign.

Runs, in order: family cardinality against Motzkin numbers, exhaustive
bijectivity, every transport rule, the step-pattern identity systems on
unrestricted Dyck and Motzkin paths, three-way generating function
agreement, every transcribed distribution cell, every transcribed
popularity row, and sequence cross-references. The family checks share
one pass per semilength (patterns.family_reductions), judged a chunk at
a time and shared across the CPUs, and read only its reduction, so
memory does not grow with the family. Each image comes from the
unvalidated _phi, and the bijectivity round trip is its one validation.
TransportSweep judges every linear claim as integer linear forms over
raw read tuples, its reads and forms generated once as straight-line
functions (patterns._reader): the transport rules on the first pair of
each vector of that pass, whose raw Dyck tuples the brute-force rows
and the structural check also read, and the identities, each path fed
as both texts of a pair. A failed comparison lands in the report, one
record per check (info when nothing was compared), so a single run
gives the complete picture: a route whose series fails its own check
fails its pattern's three-way record, and each record that would read a
closed series that failed fails and names why. The report's stages time
each part of the campaign, and render_text names the two slowest.

Golden data is loaded from the packaged reference file (overridable) and
is never regenerated: cells marked with a misprint tag are expected to
disagree with the computation in exactly the recorded way, producing a
notice instead of a failure, and a stale tag is itself a failure.
Sequence references marked as conjectured can never fail the suite; they
report consistency notices instead.
"""
from __future__ import annotations

import math
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from itertools import pairwise
from typing import Optional

from .bijection import _bijectivity_report
from .enumeration import enumerate_dyck, enumerate_motzkin, motzkin_numbers
from .genfun import (FIXED_POINT_PATTERNS, PATTERNS, NoConvergenceError, RouteCheckError,
                     _brute_force, _distribution_row, _pop_closed_length2, _popularity,
                     distribution_gf_closed, distribution_gf_fixed_point, du_from_ud,
                     popularity_gf)
from .oeis import CacheMissError, MalformedBFileError, oeis_fetch
from .patterns import (TransportRule, TransportSweep, _unchecked, family_reductions,
                       parse_pattern, parse_statistic, transport_rules)

DEFAULT_MAX_N = 12

# identity systems that hold on every *unrestricted* Dyck path; the
# anchored terms classify each occurrence by its left or right neighbor
DYCK_IDENTITIES = (
    ("UU", "UUU + UUD", 0),
    ("UU", "UUU + DUU + ^UU", 0),
    ("UD", "UUD + DUD + ^UD", 0),
    ("DU", "DUU + DUD", 0),
    ("DD", "DDD + UDD", 0),
    ("DD", "DDD + DDU + DD$", 0),
    ("UD", "UDD + UDU + UD$", 0),
    ("DU", "DDU + UDU", 0),
    ("UU + UD", "n", 0),
    ("UU", "DD", 0),
    ("DU", "UD - 1", 1),
)

MOTZKIN_IDENTITIES = (
    ("U", "D", 0),
    ("U + F + D", "n", 0),
    ("UF", "UF+D + UF+U", 0),
    ("F", "F$ + FF + FD + FUU + FUD + FUF", 0),
)


@dataclass(frozen=True)
class GoldenTable:
    pattern: str
    source: str
    cells: tuple  # of (n, k, count)


@dataclass(frozen=True)
class PopularityCell:
    source: str
    patterns: tuple  # usually one name; ("UU", "DD") share a row
    n: int
    printed: int
    misprint_computed: Optional[int] = None


@dataclass(frozen=True)
class SequenceRef:
    oeis_id: str
    status: str  # stated | conjectured
    target: str  # pop:<P> | avoid:<P> | row:<P>:<k> | diag:<P>:<j>
    offset: int  # n of the first known term
    known_terms: tuple
    provenance: str = "table"


@dataclass(frozen=True)
class GoldenData:
    tables: dict  # source label -> GoldenTable
    sums: tuple  # of (source, n, value)
    popularity: tuple  # of PopularityCell
    seq_refs: tuple  # of SequenceRef


# fields per golden record; a pop record may carry tags after its five
_FIELDS = {"dist": 6, "sum": 4, "pop": 5, "seq": 6}
# the sequence targets _resolve_target reads, each naming one pattern
_TARGET_RE = re.compile(r"(?:pop|avoid):([^:]+)|(?:row|diag):([^:]+):\d+")


def load_golden_tables(path: Optional[str] = None) -> GoldenData:
    if path is None:
        text = (resources.files("dyckmotz") / "data/golden_tables.txt").read_text()
    else:
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
            if not (len(parts) == _FIELDS[kind] or (kind == "pop" and len(parts) > 5)):
                raise ValueError(f"a {kind} record has {_FIELDS[kind]} fields, "
                                 f"not {len(parts)}")
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
                _, label, _, n, value = parts[:5]
                mis = None
                for tag in parts[5:]:
                    if tag.startswith("misprint:"):
                        mis = int(tag.split(":", 1)[1])
                pops.append(PopularityCell(label, tuple(names), int(n), int(value), mis))
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


def compare_sequence(computed, ref: SequenceRef) -> dict:
    """Align computed terms against the reference within a small shift
    window and judge the overlap. Conjectured references downgrade any
    verdict to a notice."""
    known = ref.known_terms
    # shift s pairs computed[i] with known[i + s]
    overlaps = {shift: list(zip(computed[max(0, -shift):], known[max(0, shift):]))
                for shift in range(-2, 3)}
    agrees, overlap, _, alignment = max(
        (0 < len(pairs) == sum(a == b for a, b in pairs), len(pairs), -abs(shift), shift)
        for shift, pairs in overlaps.items())
    matched = agrees and overlap >= min(6, len(computed), len(known))
    if ref.status == "conjectured":
        verdict = "CONJECTURE-CONSISTENT" if matched else "CONJECTURE-BROKEN"
    else:
        verdict = "MATCH" if matched else "MISMATCH"
    return {
        "id": ref.oeis_id,
        "target": ref.target,
        "provenance": ref.provenance,
        "alignment": alignment,
        "overlap": overlap,
        "matched": matched,
        "verdict": verdict,
    }


def _add(checks, name, status, details, counterexample=None):
    record = {"check": name, "status": status, "details": details}
    if counterexample is not None:
        record["counterexample"] = counterexample
    checks.append(record)


def _judge(checks, name, details, counterexample, compared=1):
    # a counterexample fails a check; with none, it passes if it compared anything
    status = "fail" if counterexample is not None else "pass" if compared else "info"
    _add(checks, name, status, details, counterexample)


def run_full_verification(max_n: int = DEFAULT_MAX_N,
                          seed_tables: Optional[str] = None,
                          oeis_cache_dir: Optional[str] = None) -> dict:
    """Execute the whole campaign up to semilength max_n.

    Returns {"max_n", "ok", "elapsed_seconds", "stages", "checks"}; ok
    means no check failed (notices and conjecture verdicts never count).
    stages gives the seconds of each stage, in run order, once the golden
    tables are loaded: family (the family pass, which cardinality,
    bijectivity and transport read), identities, routes (the three-way
    agreement), golden (the distribution cells), popularity (with the
    structural facts after it) and sequences. Never touches the network:
    sequence references use transcribed terms unless a cached b-file is
    present in oeis_cache_dir. Each three-way and popularity-closed-forms
    record also gives elapsed_seconds, the time of its routes, and truncation
    (max_n; max(24, max_n) for the printed popularity forms).
    """
    if max_n < 0:
        raise ValueError(f"max_n must be nonnegative, not {max_n}")
    t_start = time.monotonic()
    golden = load_golden_tables(seed_tables)
    checks: list = []
    laps = [(None, time.monotonic())]  # (stage, its end), after a start mark

    # one pass over the family per semilength, reduced a chunk at a time
    # (patterns.family_reductions) and read by cardinality, bijectivity,
    # transport, the brute-force rows and the structural check
    counts, rows = [], []
    bad = structural_worst = None
    transport = TransportSweep(transport_rules(), map(parse_pattern, PATTERNS))
    uud, duu = map(transport.dyck_keys.index, ("UUD", "DUU"))
    for n, reduction in family_reductions(range(max_n + 1), transport.read_dyck,
                                          transport.read_motzkin):
        transport.judge(n, reduction)
        report = _bijectivity_report(n, reduction)
        counts.append(report["domain"] + len(reduction["refused"]))
        if reduction["refused"]:  # the walker yielded paths phi rejects; the pass skipped them
            bad = bad or {"n": n, "error": report.pop("rejected_examples")[0]}
        elif bad is None and not report["ok"]:
            bad = report
        rows.append(_distribution_row(reduction["counts"], transport.dyck_keys,
                                      transport.dyck_values))
        # a pair's raw tuple decides the check, so the first pair of each vector will do
        for (_, _, raw, _), (_, path, _) in sorted(reduction["firsts"].items(),
                                                   key=lambda item: item[1][0]):
            vector = transport.dyck_values(raw)
            if structural_worst is None and vector[uud] > 1 and vector[duu] == 0:
                structural_worst = {"n": n, "path": path, "UUD": vector[uud]}
        del reduction  # before the next semilength's is built

    # (1) cardinality
    wanted = motzkin_numbers(max_n)
    _judge(checks, "cardinality",
           f"family sizes for n=0..{max_n}: {', '.join(map(str, counts))}",
           None if counts == wanted else {"computed": counts, "expected": wanted})

    # (2) bijectivity
    _judge(checks, "bijectivity",
           f"injective with full Motzkin image and exact round trip for n=0..{max_n}",
           bad)

    # (3) transport rules
    for result in transport.results:
        rule, checked = result["rule"], result["checked"]
        _judge(checks, f"transport:{rule.name}",
               f"{rule.name} -> {rule.motzkin_side.text} over {checked} paths, "
               f"n={rule.min_n}..{max_n}" if checked else _unchecked(rule, max_n),
               result["counterexample"], checked)

    laps.append(("family", time.monotonic()))

    # (4) identity systems on unrestricted paths, one sweep per side fed each
    # path as both texts of a pair (sizes are tiny; the Catalan explosion
    # makes larger exhaustive sweeps pointless here)
    id_bound = min(max_n, 8)
    for side, walk, identities in (("dyck", enumerate_dyck, DYCK_IDENTITIES),
                                   ("motzkin", enumerate_motzkin, MOTZKIN_IDENTITIES)):
        sweep = TransportSweep([
            TransportRule(f"{lhs} = {rhs}", parse_statistic(lhs, side),
                          parse_statistic(rhs, side), min_n)
            for lhs, rhs, min_n in identities])
        for n in range(id_bound + 1):
            sweep.add(n, ((t, t) for t in map(str, walk(n))))
        for result in sweep.results:
            rule, bad_path = result["rule"], result["counterexample"]
            _judge(checks, f"identity:{side}:{rule.name}",
                   f"all {side.capitalize()} paths, n={rule.min_n}..{id_bound}",
                   bad_path and {key: bad_path[key] for key in ("path", "lhs", "rhs")},
                   result["checked"])

    laps.append(("identities", time.monotonic()))

    # (5) three-way generating function agreement, one route table per pattern
    # a route that fails its own check (a walker that dropped a member, a
    # fixed point that misses its equations, a wrong M_n) is left out, and
    # unread names why a pattern has no closed series for the records after
    routes, unread = {}, {}
    builds = {"closed": distribution_gf_closed, "brute": lambda p, _: _brute_force(p, rows),
              "fixed": distribution_gf_fixed_point}
    for pattern in PATTERNS:
        start, errors = time.perf_counter(), {}
        built = routes[pattern] = {}
        for name, build in builds.items():
            if name != "fixed" or pattern in FIXED_POINT_PATTERNS:
                try:
                    built[name] = build(pattern, max_n)
                except (NoConvergenceError, RouteCheckError) as exc:
                    errors[name] = str(exc)
        if "closed" in errors:
            unread[pattern] = f"no closed series for {pattern}: {errors['closed']}"
        elapsed = time.perf_counter() - start
        if errors:
            _add(checks, f"three-way:{pattern}", "fail", next(iter(errors.values())))
        else:
            verdicts = {f"{name}=brute": series == built["brute"]
                        for name, series in built.items() if name != "brute"}
            _judge(checks, f"three-way:{pattern}",
                   f"routes over n<=..{max_n}: " + ", ".join(
                       f"{k} {'ok' if v else 'DISAGREE'}" for k, v in verdicts.items()),
                   None if all(verdicts.values()) else verdicts)
        checks[-1].update(elapsed_seconds=round(elapsed, 4), truncation=max_n)
    start = time.perf_counter()
    try:
        du_from_ud(max_n)
    except ValueError as exc:
        _add(checks, "three-way:DU-from-UD", "fail", str(exc))
    else:
        _add(checks, "three-way:DU-from-UD", "pass",
             "peak-free-strip identity rebuilds the DU series exactly")
    checks[-1].update(elapsed_seconds=round(time.perf_counter() - start, 4), truncation=max_n)

    laps.append(("routes", time.monotonic()))

    # (6) golden distribution cells
    # each record counts its in-range cells and shows its first mismatch
    for label, table in sorted(golden.tables.items()):
        if not routes[table.pattern]:
            _add(checks, f"golden:{label}", "fail", unread[table.pattern])
            continue
        cells = [cell for cell in table.cells if cell[0] <= max_n]
        worst = next(({"n": n, "k": k, "printed": value,
                       "computed": series.coefficient(n, k), "route": route_name}
                      for n, k, value in cells
                      for route_name, series in routes[table.pattern].items()
                      if series.coefficient(n, k) != value), None)
        _judge(checks, f"golden:{label}",
               f"{len(cells)} transcribed cells (of {len(table.cells)}) against "
               f"{len(routes[table.pattern])} routes", worst, len(cells))
    sums = [cell for cell in golden.sums if cell[1] <= max_n]
    ud = routes["UD"].get("brute", routes["UD"].get("closed"))  # brute, unless it fell short
    if ud is None:
        _add(checks, "golden:sum-row", "fail", unread["UD"])
    else:
        row_total = lambda n: sum(ud.y_poly(n))
        worst = next(({"label": label, "n": n, "printed": value, "computed": row_total(n)}
                      for label, n, value in sums
                      if row_total(n) != value or wanted[n] != value), None)
        _judge(checks, "golden:sum-row",
               f"{len(sums)} column sums against row totals and M_n", worst, len(sums))

    laps.append(("golden", time.monotonic()))

    # (7) popularity rows, with the misprint protocol
    pop_series = {p: _popularity(routes[p]["closed"]) for p in PATTERNS if p not in unread}
    pop_failures, pop_counts, notices = {}, Counter(), []
    for cell in golden.popularity:
        if cell.n > max_n:
            continue
        for pattern in filter(pop_series.__contains__, cell.patterns):
            computed = pop_series[pattern].coefficient(cell.n)
            key = f"{cell.source}:{pattern}"
            pop_counts[key] += 1
            failure = {"n": cell.n, "printed": cell.printed, "computed": computed}
            if cell.misprint_computed is None:
                if computed == cell.printed:
                    continue
            elif computed != cell.misprint_computed:
                failure.update(annotated=cell.misprint_computed,
                               reason="computation disagrees with misprint annotation")
            elif computed == cell.printed:
                failure["reason"] = "stale misprint tag: printed value matches"
            else:
                notices.append(f"{key} n={cell.n}: printed {cell.printed}, "
                               f"computed {computed} (annotated misprint)")
                continue
            pop_failures.setdefault(key, []).append(failure)
    for source, pattern in dict.fromkeys((cell.source, pattern) for cell in golden.popularity
                                         for pattern in cell.patterns):
        key = f"{source}:{pattern}"
        if pattern in unread:
            _add(checks, f"golden:pop:{key}", "fail", unread[pattern])
            continue
        compared = pop_counts[key]
        _judge(checks, f"golden:pop:{key}",
               f"{compared} transcribed terms against the derivative route",
               pop_failures.get(key), compared)
    for note in notices:
        _add(checks, "misprint-notice", "notice", note)
    printed_n, start = max(24, max_n), time.perf_counter()
    try:
        for pattern in _pop_closed_length2:
            popularity_gf(pattern, printed_n)
        _add(checks, "popularity-closed-forms", "pass",
             "printed length-2 popularity formulas equal the derivative "
             f"route through x^{printed_n}")
    except ValueError as exc:
        _add(checks, "popularity-closed-forms", "fail", str(exc))
    checks[-1].update(elapsed_seconds=round(time.perf_counter() - start, 4), truncation=printed_n)

    # structural facts and informational items
    _judge(checks, "structural:DUU-avoiders-have-at-most-one-UUD",
           f"exhaustive over n=0..{max_n}", structural_worst)
    expected_two = [1, 5, 18, 56, 160, 432]
    got_two = [row["UUD"].get(2, 0) for row in rows[4:10]]
    _judge(checks, "column:UUD-exactly-twice",
           f"n=4..{min(max_n, 9)}: {', '.join(map(str, got_two))}",
           None if got_two == expected_two[:len(got_two)]
           else {"computed": got_two, "expected": expected_two}, len(got_two))

    if "DUU" in unread:
        _add(checks, "info:DUU-avoider-shape", "fail", unread["DUU"])
    else:
        avoiders = [routes["DUU"]["closed"].coefficient(n, 0)
                    for n in range(1, min(max_n, 9) + 1)]
        powers = [2 ** (n - 1) for n in range(1, len(avoiders) + 1)]
        squares = all(math.isqrt(a) ** 2 == a for a in avoiders)
        _add(checks, "info:DUU-avoider-shape", "info",
             f"zero-occurrence counts for DUU at n=1..{len(avoiders)} are "
             f"{', '.join(map(str, avoiders))}: "
             + ("powers of two" if avoiders == powers else "NOT powers of two")
             + ("; also all perfect squares" if squares
                else "; not all perfect squares"))

    laps.append(("popularity", time.monotonic()))

    # (8) sequence cross-references
    refs = golden.seq_refs
    if oeis_cache_dir:
        refreshed = []
        for ref in refs:
            try:
                offset, terms = oeis_fetch(ref.oeis_id, cache_dir=oeis_cache_dir,
                                           offline=True)
                refreshed.append(SequenceRef(ref.oeis_id, ref.status, ref.target,
                                             offset, tuple(terms), "b-file"))
            except (CacheMissError, MalformedBFileError):
                refreshed.append(ref)
        refs = tuple(refreshed)
    for ref in refs:
        target = _TARGET_RE.fullmatch(ref.target)
        pattern = target.group(1) or target.group(2)
        if pattern in unread:  # nothing compared, so a conjecture is not broken
            _add(checks, f"oeis:{ref.oeis_id}:{ref.target}",
                 "fail" if ref.status == "stated" else "info", unread[pattern])
            continue
        computed = _resolve_target(ref, routes, pop_series, max_n)
        if not computed:
            _add(checks, f"oeis:{ref.oeis_id}:{ref.target}", "info",
                 f"no terms up to n = {max_n}; not compared")
            continue
        result = compare_sequence(computed, ref)
        verdict = result["verdict"]
        status = {"MATCH": "pass", "MISMATCH": "fail"}.get(verdict, verdict.lower())
        _add(checks, f"oeis:{ref.oeis_id}:{ref.target}", status,
             f"{verdict} ({ref.provenance} terms, "
             f"alignment {result['alignment']:+d}, overlap {result['overlap']})",
             None if result["matched"] else {"computed": computed,
                                             "known": list(ref.known_terms)})

    laps.append(("sequences", time.monotonic()))

    ok = all(c["status"] != "fail" for c in checks)
    return {
        "max_n": max_n,
        "ok": ok,
        "elapsed_seconds": round(time.monotonic() - t_start, 3),
        "stages": {stage: round(end - start, 3) for (_, start), (stage, end) in pairwise(laps)},
        "checks": checks,
    }


def _resolve_target(ref: SequenceRef, routes, pop_series, max_n):
    kind, rest = ref.target.split(":", 1)
    if kind == "pop":
        return [pop_series[rest].coefficient(n) for n in range(1, max_n + 1)]
    if kind == "avoid":
        return [routes[rest]["closed"].coefficient(n, 0)
                for n in range(1, max_n + 1)]
    if kind == "row":
        pattern, k = rest.rsplit(":", 1)
        return [routes[pattern]["closed"].coefficient(n, int(k))
                for n in range(ref.offset, max_n + 1)]
    if kind == "diag":
        pattern, j = rest.rsplit(":", 1)
        return [routes[pattern]["closed"].coefficient(n, n - int(j))
                for n in range(ref.offset, max_n + 1)]
    raise ValueError(f"unknown sequence target {ref.target!r}")


def render_text(report: dict) -> str:
    lines = [f"verification up to n = {report['max_n']} "
             f"({report['elapsed_seconds']}s)"]
    width = max(len(c["check"]) for c in report["checks"])
    for c in report["checks"]:
        lines.append(f"{c['status'].upper():>22}  {c['check']:<{width}}  "
                     f"{c['details']}")
        if c.get("counterexample") is not None:
            lines.append(f"{'':>24}counterexample: {c['counterexample']}")
    lines.append("RESULT: " + ("OK" if report["ok"] else "FAILED"))
    stages = report.get("stages")
    if stages:
        slowest = sorted(stages, key=stages.get, reverse=True)[:2]
        lines.append("slowest stages: " + ", ".join(f"{s} {stages[s]}s" for s in slowest))
    return "\n".join(lines)
