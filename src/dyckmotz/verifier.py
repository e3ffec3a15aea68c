"""One-command verification campaign.

run_full_verification runs _SECTIONS, (stage, section) in run order:
family (cardinality against Motzkin numbers, exhaustive bijectivity,
every transport rule), identities (step-pattern identity systems on
unrestricted Dyck and Motzkin paths), routes (three-way generating
function agreement), golden (transcribed distribution cells), popularity
(transcribed popularity rows, then structural facts) and sequences
(cross-references). Each section yields its records. The runner times
each as a stage (render_text names the two slowest), _record gives each
record its status (info when nothing was compared), and _timed times a
series record and fails it with the error of a route that failed its own
check. So a single run gives the complete picture, and each record that
would read a closed series that failed fails and names why.

The family checks share one pass per semilength, family.family_reductions,
whose TransportSweep judges the transport rules on each pair as it is
read; its raw Dyck tuples give the brute-force rows and decide the
structural check. The identities run through sweeps of their own.

Golden data is read from the packaged reference file (overridable) by
golden.load_golden_tables, which this module binds too, and is never
regenerated: a cell with a misprint tag must disagree with the
computation in exactly the recorded way, giving a notice instead of a
failure, and a stale tag is itself a failure. Sequence references marked
as conjectured never fail the suite; they report consistency notices.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from contextlib import suppress
from types import SimpleNamespace
from typing import Optional

from . import family
from .enumeration import _require_size, _walk, motzkin_numbers
from .family import TransportSweep, _unchecked
from .genfun import (PATTERNS, _ROUTE_FAILURES, _ROUTES, _brute_force, _distribution_row,
                     _popularity, cross_check, du_from_ud, popularity_gf)
from .golden import SequenceRef, _TARGET_RE, load_golden_tables
from .oeis import CacheMissError, MalformedBFileError, oeis_fetch
from .patterns import TransportRule, parse_pattern, parse_statistic, transport_rules

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


def _record(name, details, counterexample=None, compared=1, status=None) -> dict:
    """One check record: status where one is given; else a counterexample
    fails it, and with none it passes if it compared anything, else info."""
    record = {"check": name,
              "status": status or ("fail" if counterexample is not None
                                   else "pass" if compared else "info"),
              "details": details}
    if counterexample is not None:
        record["counterexample"] = counterexample
    return record


def _timed(name, truncation, build) -> dict:
    """build()'s record, or a fail carrying the route error it raised,
    with the seconds it took and the truncation its series were built to."""
    start = time.perf_counter()
    try:
        record = build()
    except _ROUTE_FAILURES as exc:
        record = _record(name, str(exc), status="fail")
    record.update(elapsed_seconds=round(time.perf_counter() - start, 4), truncation=truncation)
    return record


def _family_checks(ns):
    """Cardinality, bijectivity and transport: one family pass per semilength."""
    counts, ns.rows = [], []
    bad = ns.structural = None
    transport = TransportSweep(transport_rules(), map(parse_pattern, PATTERNS))
    uud, duu = map(transport.dyck_keys.index, ("UUD", "DUU"))
    for n, reduction in family.family_reductions(range(ns.max_n + 1), transport):
        report = family._bijectivity_report(n, reduction)
        counts.append(report["domain"] + len(reduction["refused"]))
        if reduction["refused"]:  # the walker yielded paths phi rejects; the pass skipped them
            bad = bad or {"n": n, "error": report.pop("rejected_examples")[0]}
        elif bad is None and not report["ok"]:
            bad = report
        ns.rows.append(_distribution_row(reduction["counts"], transport.dyck_keys,
                                         transport.dyck_values))
        # raw tuples decide the check; a second walk names the first pair that breaks it
        broken = {raw: v[uud] for raw in reduction["counts"]
                  if (v := transport.dyck_values(raw))[uud] > 1 and v[duu] == 0}
        if ns.structural is None and broken:
            path = next(p for p in family._members(n)
                        if transport.read_dyck(p) in broken and family._phi(p) is not None)
            ns.structural = {"n": n, "path": path, "UUD": broken[transport.read_dyck(path)]}
        del reduction  # before the next semilength's is built

    ns.wanted = motzkin_numbers(ns.max_n)
    yield _record("cardinality",
                  f"family sizes for n=0..{ns.max_n}: {', '.join(map(str, counts))}",
                  None if counts == ns.wanted else {"computed": counts, "expected": ns.wanted})
    yield _record("bijectivity", "injective with full Motzkin image and exact round trip "
                  f"for n=0..{ns.max_n}", bad)
    for result in transport.results:
        rule, checked = result["rule"], result["checked"]
        yield _record(f"transport:{rule.name}",
                      f"{rule.name} -> {rule.motzkin_side.text} over {checked} paths, "
                      f"n={rule.min_n}..{ns.max_n}" if checked else _unchecked(rule, ns.max_n),
                      result["counterexample"], checked)


def _identity_checks(ns):
    """The identity systems on unrestricted paths to n = 8 (the Catalan
    explosion makes more pointless), each path fed as both texts of a pair."""
    id_bound = min(ns.max_n, 8)
    for side, flat, identities in (("dyck", False, DYCK_IDENTITIES),
                                   ("motzkin", True, MOTZKIN_IDENTITIES)):
        sweep = TransportSweep([
            TransportRule(f"{lhs} = {rhs}", parse_statistic(lhs, side),
                          parse_statistic(rhs, side), min_n)
            for lhs, rhs, min_n in identities])
        for n in range(id_bound + 1):
            sweep.add(n, ((t, t) for t in _walk(n if flat else 2 * n, flat, False)))
        for result in sweep.results:
            rule, bad_path = result["rule"], result["counterexample"]
            yield _record(f"identity:{side}:{rule.name}",
                          f"all {side.capitalize()} paths, n={rule.min_n}..{id_bound}",
                          bad_path and {key: bad_path[key] for key in ("path", "lhs", "rhs")},
                          result["checked"])


def _route_checks(ns):
    """Three-way agreement; a route that fails its own check is left out."""
    ns.routes, ns.unread = {}, {}
    for pattern in PATTERNS:
        yield _timed(f"three-way:{pattern}", ns.max_n, lambda: _three_way(ns, pattern))
    # du_from_ud raises when the rebuilt series is not DU's closed form
    yield _timed("three-way:DU-from-UD", ns.max_n, lambda: _record(
        "three-way:DU-from-UD", "peak-free-strip identity rebuilds the DU series exactly",
        compared=du_from_ud(ns.max_n) is not None))


def _three_way(ns, pattern):
    ns.routes[pattern], agree, errors = cross_check(
        "distribution", pattern, ns.max_n, brute=lambda: _brute_force(pattern, ns.rows))
    if "closed" in errors:
        ns.unread[pattern] = f"no closed series for {pattern}: {errors['closed']}"
    if errors:
        raise next(iter(errors.values()))
    verdicts = {f"{name}=brute": same for name, same in agree.items()}
    # it compared only if every route built besides brute was compared with brute
    return _record(f"three-way:{pattern}", f"routes over n<={ns.max_n}: " + ", ".join(
        f"{k} {'ok' if v else 'DISAGREE'}" for k, v in verdicts.items()),
        None if all(verdicts.values()) else verdicts,
        agree.keys() == ns.routes[pattern].keys() - {"brute"})


def _golden_checks(ns):
    """Golden cells and sums: each record counts them and shows its first mismatch."""
    for label, table in sorted(ns.golden.tables.items()):
        if not ns.routes[table.pattern]:
            yield _record(f"golden:{label}", ns.unread[table.pattern], status="fail")
            continue
        cells = [cell for cell in table.cells if cell[0] <= ns.max_n]
        worst = next(({"n": n, "k": k, "printed": value,
                       "computed": series.coefficient(n, k), "route": route_name}
                      for n, k, value in cells
                      for route_name, series in ns.routes[table.pattern].items()
                      if series.coefficient(n, k) != value), None)
        yield _record(f"golden:{label}",
                      f"{len(cells)} transcribed cells (of {len(table.cells)}) against "
                      f"{len(ns.routes[table.pattern])} routes", worst, len(cells))
    sums = [cell for cell in ns.golden.sums if cell[1] <= ns.max_n]
    ud = ns.routes["UD"].get("brute", ns.routes["UD"].get("closed"))  # brute, unless it fell short
    if ud is None:
        yield _record("golden:sum-row", ns.unread["UD"], status="fail")
        return
    row_total = lambda n: sum(ud.y_poly(n))
    worst = next(({"label": label, "n": n, "printed": value, "computed": row_total(n)}
                  for label, n, value in sums
                  if row_total(n) != value or ns.wanted[n] != value), None)
    yield _record("golden:sum-row", f"{len(sums)} column sums against row totals and M_n",
                  worst, len(sums))


def _popularity_checks(ns):
    """Popularity rows with the misprint protocol, then structural and info items."""
    routes, unread = ns.routes, ns.unread
    ns.pop_series = {p: _popularity(routes[p]["closed"]) for p in PATTERNS if p not in unread}
    pop_failures, pop_counts, notices = {}, Counter(), []
    for cell in ns.golden.popularity:
        if cell.n > ns.max_n:
            continue
        for pattern in filter(ns.pop_series.__contains__, cell.patterns):
            computed = ns.pop_series[pattern].coefficient(cell.n)
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
    for source, pattern in dict.fromkeys((cell.source, pattern) for cell in ns.golden.popularity
                                         for pattern in cell.patterns):
        key = f"{source}:{pattern}"
        if pattern in unread:
            yield _record(f"golden:pop:{key}", unread[pattern], status="fail")
            continue
        yield _record(f"golden:pop:{key}",
                      f"{pop_counts[key]} transcribed terms against the derivative route",
                      pop_failures.get(key), pop_counts[key])
    for note in notices:
        yield _record("misprint-notice", note, status="notice")
    printed_n, (reference, table) = max(24, ns.max_n), _ROUTES["popularity"]
    # each pattern that other routes cover, by how many: popularity_gf raises unless all agree
    covered = Counter(p for name, (_, covers) in table.items() if name != reference for p in covers)
    yield _timed("popularity-closed-forms", printed_n, lambda: _record(
        "popularity-closed-forms", "printed length-2 popularity formulas equal the derivative "
        f"route through x^{printed_n}",
        compared=sum(n for p, n in covered.items() if popularity_gf(p, printed_n) is not None)))

    yield _record("structural:DUU-avoiders-have-at-most-one-UUD",
                  f"exhaustive over n=0..{ns.max_n}", ns.structural)
    expected_two = [1, 5, 18, 56, 160, 432]
    got_two = [row["UUD"].get(2, 0) for row in ns.rows[4:10]]
    yield _record("column:UUD-exactly-twice",
                  f"n=4..{min(ns.max_n, 9)}: {', '.join(map(str, got_two))}",
                  None if got_two == expected_two[:len(got_two)]
                  else {"computed": got_two, "expected": expected_two}, len(got_two))
    if "DUU" in unread:
        yield _record("info:DUU-avoider-shape", unread["DUU"], status="fail")
        return
    avoiders = [routes["DUU"]["closed"].coefficient(n, 0) for n in range(1, min(ns.max_n, 9) + 1)]
    powers = [2 ** (n - 1) for n in range(1, len(avoiders) + 1)]
    squares = all(math.isqrt(a) ** 2 == a for a in avoiders)
    yield _record("info:DUU-avoider-shape",
                  f"zero-occurrence counts for DUU at n=1..{len(avoiders)} are "
                  f"{', '.join(map(str, avoiders))}: "
                  + ("powers of two" if avoiders == powers else "NOT powers of two")
                  + ("; also all perfect squares" if squares else "; not all perfect squares"),
                  status="info")


def _sequence_checks(ns):
    """Sequence cross-references, from a b-file where oeis_cache_dir has one."""
    for ref in ns.golden.seq_refs:
        if ns.oeis_cache_dir:
            with suppress(CacheMissError, MalformedBFileError):  # else the transcribed terms
                offset, terms = oeis_fetch(ref.oeis_id, cache_dir=ns.oeis_cache_dir, offline=True)
                ref = ref._replace(offset=offset, known_terms=tuple(terms), provenance="b-file")
        name = f"oeis:{ref.oeis_id}:{ref.target}"
        target = _TARGET_RE.fullmatch(ref.target)
        pattern = target.group(1) or target.group(2)
        if pattern in ns.unread:  # nothing compared, so a conjecture is not broken
            yield _record(name, ns.unread[pattern],
                          status="fail" if ref.status == "stated" else "info")
            continue
        computed = _resolve_target(ref, ns)
        if not computed:
            yield _record(name, f"no terms up to n = {ns.max_n}; not compared", compared=0)
            continue
        result = compare_sequence(computed, ref)
        verdict = result["verdict"]
        # a stated reference passes or fails by its counterexample
        yield _record(name, f"{verdict} ({ref.provenance} terms, "
                      f"alignment {result['alignment']:+d}, overlap {result['overlap']})",
                      None if result["matched"] else {"computed": computed,
                                                      "known": list(ref.known_terms)},
                      status=None if ref.status == "stated" else verdict.lower())


def _resolve_target(ref: SequenceRef, ns):
    kind, rest = ref.target.split(":", 1)
    if kind == "pop":
        return [ns.pop_series[rest].coefficient(n) for n in range(1, ns.max_n + 1)]
    if kind == "avoid":
        return [ns.routes[rest]["closed"].coefficient(n, 0) for n in range(1, ns.max_n + 1)]
    pattern, k = rest.rsplit(":", 1)  # row k, or diag k (y-degree n - k): _TARGET_RE's last two
    return [ns.routes[pattern]["closed"].coefficient(n, int(k) if kind == "row" else n - int(k))
            for n in range(ref.offset, ns.max_n + 1)]


# (stage, section) in run order
_SECTIONS = (("family", _family_checks), ("identities", _identity_checks),
             ("routes", _route_checks), ("golden", _golden_checks),
             ("popularity", _popularity_checks), ("sequences", _sequence_checks))


def run_full_verification(max_n: int = DEFAULT_MAX_N,
                          seed_tables: Optional[str] = None,
                          oeis_cache_dir: Optional[str] = None) -> dict:
    """Execute the whole campaign up to semilength max_n, a size (see paths).

    Returns {"max_n", "ok", "elapsed_seconds", "stages", "checks"}; ok
    means no check failed (notices and conjecture verdicts never count).
    stages gives the seconds of each section of _SECTIONS, in run order,
    once the golden tables are loaded. The sections share one namespace:
    max_n, golden and oeis_cache_dir, and what a section leaves for those
    after it (rows, structural, wanted; routes, unread; pop_series). Never
    touches the network: sequence references use transcribed terms unless a
    cached b-file is present in oeis_cache_dir. Each three-way and
    popularity-closed-forms record also gives elapsed_seconds, the time of
    its routes, and truncation (max_n; max(24, max_n) for the printed
    popularity forms).
    """
    _require_size(max_n, "max_n")
    t_start = time.monotonic()
    ns = SimpleNamespace(max_n=max_n, golden=load_golden_tables(seed_tables),
                         oeis_cache_dir=oeis_cache_dir)
    checks, stages = [], {}
    for stage, section in _SECTIONS:
        start = time.monotonic()
        checks.extend(section(ns))
        stages[stage] = round(time.monotonic() - start, 3)
    return {
        "max_n": max_n,
        "ok": all(c["status"] != "fail" for c in checks),
        "elapsed_seconds": round(time.monotonic() - t_start, 3),
        "stages": stages,
        "checks": checks,
    }


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
