"""Consecutive-step patterns, linear statistics over them, and the rules
carrying each Dyck-side statistic through the bijection.

Pattern language (no whitespace inside a token):

    pattern := '^'? atom+ '$'? | 'delta'
    atom    := ('U' | 'D' | 'F') '+'?

'^' anchors at the first step, '$' at the last, 'delta' is the indicator
of the all-flat path. An atom with '+' stands for every positive
repetition of its letter: the count of a pattern holding X+ is the sum
over k >= 1 of the counts of the pattern with X+ replaced by X^k. Plain
occurrences may overlap ("UU" occurs twice in "UUU"); anchored patterns
evaluate to 0 or 1.

Statistics are integer-linear combinations of patterns plus the
constants 1 and n. Their text form separates terms with '+' or '-'
surrounded by whitespace, which keeps repetition '+' (never spaced)
unambiguous: "UF+D + 2*UF+U + 2*UU". The symbol n means semilength on
the Dyck side and length on the Motzkin side; each statistic records
which side it lives on.

The checks of the family read one pass per semilength, family_reductions:
the walk is mapped through _phi, _phi_inverse and the readers a chunk at
a time, reduced to data that merges, and shared across the CPUs, and
TransportSweep judges the rules on each distinct vector of reads.
"""
from __future__ import annotations

import marshal
import os
import re
import threading
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from operator import eq
from typing import Iterator, Optional, Union

from . import bijection
from .bijection import NotConstrainedError, _member_image, _phi
from .enumeration import enumerate_constrained, motzkin_number
from .paths import LatticePath


class PatternSyntaxError(ValueError):
    """Malformed pattern or statistic text."""

    def __init__(self, text: str, position: int, reason: str = "invalid character"):
        self.position, self.reason = position, reason
        super().__init__(f"{reason} at position {position} in {text!r}")


class EmptyPatternError(ValueError):
    """A pattern needs at least one atom (or must be 'delta')."""


@dataclass(frozen=True)
class PatternExpr:
    atoms: tuple
    start_anchor: bool = False
    end_anchor: bool = False
    dirac: bool = False
    text: str = ""
    # the exact counter parse_pattern compiles for the shapes _PROFILED_RE
    # admits: ((read, coefficient), ...), where a read (f, arg) is
    # f(text, arg) and the count is the sum of coefficient * read
    counter: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return self.text


def _only(text: str, letters: str) -> bool:
    """text holds no letter outside letters (true on the empty text)."""
    return not text.strip(letters)


def _ends_run(text: str, xy: str) -> bool:
    """text ends with a run X Y+."""
    return text.endswith(xy[1]) and text.rstrip(xy[1]).endswith(xy[0])


def _runs(text: str, regex: re.Pattern) -> int:
    """Matches of a flanked run XY+Z with X != Z, which cannot overlap."""
    return len(regex.findall(text))


DIRAC = PatternExpr(atoms=(), dirac=True, text="delta", counter=(((_only, "F"), 1),))

_ATOM_RE = re.compile(r"([UDF])(\+?)")
# the texts that get a compiled counter: a word of <= 3 plain letters,
# unanchored or with one anchor, or a run XY+Z with X != Y and Z != Y
# (one term per maximal run)
_PROFILED_RE = re.compile(
    r"\^?[UDF]{1,3}|[UDF]{1,3}\$|([UDF])(?!\1)([UDF])\+(?!\2)[UDF]")


def _counter(text: str) -> Counter:
    """read -> coefficient for a pattern _PROFILED_RE admits, by the border
    argument of Knuth, Morris & Pratt (1977); each identity holds on
    every U/D/F text."""
    if text[0] == "^":
        return Counter({(str.startswith, text[1:]): 1})
    if text[-1] == "$":
        return Counter({(str.endswith, text[:-1]): 1})
    if "+" in text:
        x, y, z = text[0], text[1], text[-1]
        if x != z:
            return Counter({(_runs, re.compile(text)): 1})
        # a run after XY is followed by X, by the third letter Z or by nothing
        z = "UDF".replace(x, "").replace(y, "")
        return Counter({(str.count, x + y): 1, (_ends_run, x + y): -1,
                        (_runs, re.compile(f"{x}{y}+{z}")): -1})
    # a word with no proper prefix that is also a suffix cannot overlap
    # itself, so str.count, which counts without overlaps, is exact for it
    if all(text[:i] != text[-i:] for i in range(1, len(text))):
        return Counter({(str.count, text): 1})
    # each occurrence of head = w minus its last letter is followed by
    # that letter, by another letter or by nothing
    head, last = text[:-1], text[-1]
    counter = _counter(head)
    counter[(str.endswith, head)] -= 1
    for c in "UDF".replace(last, ""):
        counter.subtract(_counter(head + c))
    return counter


def parse_pattern(text: str) -> PatternExpr:
    if text == "delta":
        return DIRAC
    pos = 0
    start_anchor = end_anchor = False
    if text.startswith("^"):
        start_anchor = True
        pos = 1
    body_end = len(text)
    if text.endswith("$") and body_end > pos:
        end_anchor = True
        body_end -= 1
    if start_anchor and end_anchor:
        raise PatternSyntaxError(text, body_end, "both anchors on one pattern")
    atoms = []
    while pos < body_end:
        m = _ATOM_RE.match(text, pos)
        if m is None or m.end() > body_end:
            raise PatternSyntaxError(text, pos)
        atoms.append((m.group(1), m.group(2) == "+"))
        pos = m.end()
    if not atoms:
        raise EmptyPatternError(f"no atoms in pattern {text!r}")
    return PatternExpr(tuple(atoms), start_anchor, end_anchor, False, text,
                       tuple(_counter(text).items()) if _PROFILED_RE.fullmatch(text) else None)


def count_occurrences(p: Union[str, LatticePath], pat: PatternExpr) -> int:
    """Number of occurrences of pat in p under the module's semantics."""
    s = str(p if isinstance(p, LatticePath) else LatticePath(p))
    if pat.dirac:
        return int(all(c == "F" for c in s))
    if pat.end_anchor:
        # a match ending at the last step starts at step 0 of the reversal
        return _count_matches(s[::-1], pat.atoms[::-1], True)
    return _count_matches(s, pat.atoms, pat.start_anchor)


def _count_matches(s: str, atoms, anchored: bool) -> int:
    """Matches of atoms in s in one left-to-right pass; when anchored,
    only those starting at step 0, as 0 or 1.

    ends[j] counts the ways the first j atoms match ending at the current
    step; ends[0] is a match opening at the next step.
    """
    k = len(atoms)
    ends = [1] + [0] * k
    total = 0
    for c in s:
        for j in range(k, 0, -1):
            step, repeated = atoms[j - 1]
            if c != step:
                ends[j] = 0
            elif repeated:  # the atom also runs on from the previous step
                ends[j] += ends[j - 1]
            else:
                ends[j] = ends[j - 1]
        if anchored:
            if ends[k]:
                return 1
            ends[0] = 0
            if not any(ends):
                return 0
        total += ends[k]
    return total


def _reads(pat: PatternExpr) -> tuple:
    """pat's counter, or the one read of the generic counter."""
    return pat.counter or (((count_occurrences, pat), 1),)


class PathProfile:
    """A path with the raw reads made of it so far.

    A read (f, arg) is f(path, arg), made once and kept; value sums a
    linear form ((read, coefficient), ...) over them, so each distinct
    read runs once per path whichever pattern or statistic asks for it.
    count values a pattern's counter (see _reads).
    """

    __slots__ = ("path", "text", "reads")

    def __init__(self, path: Union[str, LatticePath]):
        self.path = path if isinstance(path, LatticePath) else LatticePath(path)
        self.text = str(self.path)
        self.reads = {}

    def value(self, form: tuple) -> int:
        reads, total = self.reads, 0
        for read, c in form:
            got = reads.get(read)
            if got is None:
                got = reads[read] = read[0](self.path, read[1])
            total += c * got
        return total

    def count(self, pat: PatternExpr) -> int:
        return self.value(_reads(pat))


def _form(terms, index, const=0, n_coeff=0, shift=0) -> str:
    """Source of const + n_coeff * (size >> shift) + the sum of c * raw[index[read]]
    over terms ((read, c), ...): integers and the names raw and size only."""
    parts = [f"{c:d}*raw[{index[read]:d}]" for read, c in terms if c]
    parts += [f"{n_coeff:d}*(size >> {shift:d})"] if n_coeff else []
    parts += [f"{const:d}"] if const else []
    return " + ".join(parts) or "0"


def _reader(patterns, statistics=()) -> tuple:
    """The patterns of statistics, then patterns, each once, compiled into
    (keys, read, values, sides), three straight-line lambdas generated
    once, as dataclasses generates __init__. read(text) is the raw tuple
    (r0(text, a0), r1(text, a1), ...) of every distinct read (f, arg)
    their counters make (a pattern without a counter is one read of the
    generic counter). values(raw) is the tuple of the patterns' counts, in
    keys order; sides(raw, size) that of the statistics on a text of
    length size, each const + n_coeff * n plus its form over raw by read
    index, with n size // 2 on a Dyck statistic and size on a Motzkin
    one. Every function and argument reaches the source through
    the namespace, so no pattern text is ever spliced into it."""
    statistics = list(statistics)
    pats = dict.fromkeys([*(t for s in statistics for _, t in s.terms if t not in (ONE, N)),
                          *patterns])
    counters = list(map(_reads, pats))
    reads = list(dict.fromkeys(read for counter in counters for read, _ in counter))
    index = {read: i for i, read in enumerate(reads)}
    # n is size >> shift, by the statistic's side, not its slot
    forms = [_form(s.form, index, s.const, s.n_coeff, int(s.side == "dyck")) for s in statistics]
    namespace = {"__builtins__": {}}
    for i, (f, arg) in enumerate(reads):
        namespace[f"r{i}"], namespace[f"a{i}"] = f, arg

    def tuple_lambda(args, exprs):
        return eval(f"lambda {args}: ({''.join(e + ', ' for e in exprs)})", namespace)

    return (tuple(p.text for p in pats),
            tuple_lambda("t", (f"r{i}(t, a{i})" for i in range(len(reads)))),
            tuple_lambda("raw", (_form(counter, index) for counter in counters)),
            tuple_lambda("raw, size", forms))


ONE, N = "1", "n"  # the constant and size terms of a statistic


@dataclass(frozen=True)
class StatisticExpr:
    terms: tuple  # of (int coefficient, PatternExpr | ONE | N)
    side: str  # "dyck" or "motzkin": fixes what n means
    text: str = ""
    # compiled from terms once: the value is const + n_coeff * n plus form,
    # the pattern terms' reads merged ((read, coefficient), ...), no zero term
    const: int = field(init=False, repr=False, compare=False)
    n_coeff: int = field(init=False, repr=False, compare=False)
    form: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        const, n_coeff, form = 0, 0, Counter()
        for coeff, term in self.terms:
            if term == ONE:
                const += coeff
            elif term == N:
                n_coeff += coeff
            else:
                form.update({read: coeff * c for read, c in _reads(term)})
        for name, value in (("const", const), ("n_coeff", n_coeff),
                            ("form", tuple((r, c) for r, c in form.items() if c))):
            object.__setattr__(self, name, value)

    def __str__(self) -> str:
        return self.text


_TERM_SPLIT = re.compile(r"\s+([+-])\s+")


def parse_statistic(text: str, side: str) -> StatisticExpr:
    if side not in ("dyck", "motzkin"):
        raise ValueError(f"side must be 'dyck' or 'motzkin', not {side!r}")
    stripped = text.strip()
    if not stripped:
        raise EmptyPatternError("empty statistic expression")
    # each term with its sign and its offset in text
    offset = len(text) - len(text.lstrip())
    terms, sign, start = [], 1, 0
    for sep in _TERM_SPLIT.finditer(stripped):
        terms.append(_parse_term(stripped[start:sep.start()], sign, text, offset + start))
        sign, start = (1 if sep.group(1) == "+" else -1), sep.end()
    terms.append(_parse_term(stripped[start:], sign, text, offset + start))
    return StatisticExpr(tuple(terms), side, stripped)


def _parse_term(token: str, sign: int, whole: str, position: int):
    end = position + len(token)  # the term's end in whole
    if token.startswith("-"):
        sign = -sign
        token = token[1:]
    m = re.fullmatch(r"(?:(\d+)\*)?(.*)", token)
    coeff = sign * (int(m.group(1)) if m.group(1) else 1)
    body = m.group(2)
    if not body:
        raise PatternSyntaxError(whole, position, "empty term")
    if body == "1":
        return coeff, ONE
    if body in ("n", "N"):
        return coeff, N
    try:
        return coeff, parse_pattern(body)
    except PatternSyntaxError as e:  # placed in the whole statistic
        raise PatternSyntaxError(whole, end - len(body) + e.position, e.reason) from None


def evaluate_statistic(p: Union[str, LatticePath], e: StatisticExpr,
                       profile: Optional[PathProfile] = None) -> int:
    """Value of the statistic on one path: its form valued by the profile
    of p, a prebuilt one keeping its reads for the next statistic."""
    if profile is None:
        profile = PathProfile(p)
    elif p is not profile.path and profile.text != p:
        raise ValueError(f"the profile is of another path than {str(p)!r}")
    size = len(profile.text)
    return (e.const + e.n_coeff * (size // 2 if e.side == "dyck" else size)
            + profile.value(e.form))


@dataclass(frozen=True)
class TransportRule:
    """dyck_side(P) = motzkin_side(phi(P)) for every family member of
    semilength >= min_n."""
    name: str
    dyck_side: StatisticExpr
    motzkin_side: StatisticExpr
    min_n: int = 0


def _rule(name: str, motzkin_text: str, min_n: int = 0) -> TransportRule:
    return TransportRule(
        name=name,
        dyck_side=parse_statistic(name, "dyck"),
        motzkin_side=parse_statistic(motzkin_text, "motzkin"),
        min_n=min_n,
    )


_RULES = (
    _rule("U", "U + D + F"),
    _rule("D", "U + D + F"),
    _rule("UD", "F + UD"),
    _rule("UU", "U + UU + UF"),
    _rule("DU", "FF + FU + DF + DU"),
    _rule("UUD", "UF+D + UD"),
    _rule("UUU", "UF+D + 2*UF+U + 2*UU"),
    _rule("DUU", "UF+D + UD + delta - 1", min_n=1),
    _rule("DUD", "F - UF+D - delta", min_n=1),
    _rule("UDU", "FF + FUD"),
    _rule("UDD", "FD + UD + FUU + FUF"),
    _rule("DDU", "DF + DU + FUU + FUF"),
    _rule("DDD", "2*UU + 2*UF - FD - FUU - FUF"),
    _rule("^UD", "delta", min_n=1),
    _rule("^UU", "1 - delta", min_n=1),
)

_RULES_BY_NAME = {r.name: r for r in _RULES}
# the UU and DD statistics agree on every Dyck path and share one image
_RULES_BY_NAME["DD"] = _RULES_BY_NAME["UU"]


def transport_rules() -> list:
    """The full registry: Eq-style step rules, all twelve length <= 3
    pattern rules, and the two anchored rules. DD resolves to the UU
    rule by name lookup rather than a separate entry."""
    return list(_RULES)


def transport_rule(name: str) -> TransportRule:
    try:
        return _RULES_BY_NAME[name]
    except KeyError:
        raise KeyError(f"no transport rule named {name!r}; "
                       f"known: {', '.join(sorted(_RULES_BY_NAME))}") from None


def family_pairs(n: int) -> Iterator:
    """Yield (member, image) as plain texts for every family member of
    semilength n, in enumeration order, each pair built when reached. A
    walker output that phi refuses raises phi's error. The checks read
    family_reductions instead."""
    for p in enumerate_constrained(n):
        yield str(p), _member_image(p)


# walker outputs per chunk of the family pass: a few hundred keep each
# chunk's lists small beside the reduction and each map long
_CHUNK = 512


def _image(p: str) -> Optional[str]:
    """_phi(p), or None for a walker output that it refuses."""
    try:
        return _phi(p)
    except (NotConstrainedError, IndexError):
        return None


def _reduction() -> dict:
    """An empty reduction (see family_reductions); raws interns its raw Dyck tuples."""
    return {"counts": Counter(), "firsts": {}, "order": [], "roundtrip": [], "refused": [],
            "raws": {}}


def _tally(reduction: dict, indices, members, images, read_dyck, read_motzkin) -> None:
    """Fold one chunk of pairs (member, image), at walk indices, into reduction."""
    raws = list(map(read_dyck, members))
    reduction["counts"].update(raws)
    # nested: CPython 3.11 never reuses the freed 20-tuples a flat one made
    vectors = list(zip(map(len, members), map(len, images), raws, map(read_motzkin, images)))
    firsts, canon = reduction["firsts"], reduction["raws"]
    at = dict(zip(reversed(vectors), range(len(vectors) - 1, -1, -1)))  # first place in chunk
    for vector in at.keys() - firsts.keys():
        # the vectors share one object per raw Dyck tuple, which marshal sends once
        (dyck_size, motz_size, raw, motz_raw), j = vector, at[vector]
        firsts[dyck_size, motz_size, canon.setdefault(raw, raw), motz_raw] = (
            indices[j], str(members[j]), images[j])


def _judge_share(n: int, part: int, parts: int, read_dyck, read_motzkin) -> dict:
    """The reduction of chunks part, part + parts, ... of semilength n's
    walk, which is read whole, so each chunk's order check starts from
    the last pair before it."""
    # 'V' sorts above every U/D word
    reduction, walk, start, last = _reduction(), iter(enumerate_constrained(n)), 0, "V"
    for c, chunk in enumerate(iter(lambda: list(islice(walk, _CHUNK)), [])):
        indices = range(start, start + len(chunk))
        start += len(chunk)
        if c % parts != part:
            last = next((p for p in reversed(chunk) if _image(p) is not None), last)
            continue
        images = list(map(_image, chunk))
        if None in images:  # walker outputs that _phi refuses make no pair
            reduction["refused"] += [(i, str(p)) for i, p, m in zip(indices, chunk, images)
                                     if m is None]
            indices, chunk, images = ([t[k] for t in zip(indices, chunk, images)
                                       if t[2] is not None] for k in range(3))
        before, last = [last, *chunk], chunk[-1] if chunk else last
        for key, oks in (("order", map(str.__lt__, chunk, before)),
                         ("roundtrip", map(eq, chunk, map(bijection._phi_inverse, images)))):
            if not all(oks := list(oks)):
                reduction[key] += [(i, str(p)) for i, p, ok in zip(indices, chunk, oks) if not ok]
        _tally(reduction, indices, chunk, images, read_dyck, read_motzkin)
    return reduction


def _merge(reduction: dict, theirs: dict) -> None:
    reduction["counts"].update(theirs["counts"])
    firsts = reduction["firsts"]
    for vector, first in theirs["firsts"].items():
        firsts[vector] = min(firsts.get(vector, first), first)
    for key in ("order", "roundtrip", "refused"):
        reduction[key] = sorted(reduction[key] + theirs[key])


def family_reductions(ns, read_dyck=len, read_motzkin=len) -> Iterator[tuple]:
    """Yield (n, reduction) for each semilength n of ns: the reduction of
    the family's pairs (member, _phi(member)) there, the one pass over the
    family that its checks share. A pair's vector is its two lengths and
    the raw tuples read_dyck(member) and read_motzkin(image). counts maps
    each raw Dyck tuple to its pairs, firsts each vector to the (index,
    member, image) of its first pair, and order, roundtrip and refused
    list the (index, member), an index being a place in the walk, of each
    member not below the one before it, that _phi_inverse does not give
    back from its image, or that _phi refused (no pair). The walk is
    mapped through a chunk at a time. Reductions merge by sum and by
    least index, so with P usable CPUs and no other thread, P - 1 forked
    children judge every P-th chunk of each semilength with at least P
    chunks and send their shares back through a pipe with marshal; a
    share that does not come is judged here."""
    ns, children = list(ns), {}
    parts = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             and hasattr(os, "fork") and threading.active_count() == 1 else 1)
    shared = [n for n in ns if motzkin_number(n) > (parts - 1) * _CHUNK]  # P chunks or more
    try:
        for part in range(1, parts if shared else 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no child: its share is judged here
                os.close(read), os.close(write)
                continue
            if not pid:  # the child, which ends here whatever happens
                try:
                    with open(write, "wb") as pipe:
                        for n in shared:
                            reduction = _judge_share(n, part, parts, read_dyck, read_motzkin)
                            data = marshal.dumps({**reduction, "counts": dict(reduction["counts"])})
                            pipe.write(len(data).to_bytes(8, "little") + data)
                            pipe.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children[part] = pid, open(read, "rb")
        for n in ns:
            reduction = _judge_share(n, 0, parts if n in shared else 1, read_dyck, read_motzkin)
            for part in range(1, parts if n in shared else 1):
                try:  # one read: marshal.load from a file reads item by item
                    pipe = children[part][1]
                    theirs = marshal.loads(pipe.read(int.from_bytes(pipe.read(8), "little")))
                except (KeyError, EOFError, ValueError, TypeError):  # the share did not come
                    theirs = _judge_share(n, part, parts, read_dyck, read_motzkin)
                _merge(reduction, theirs)
            yield n, reduction
            del reduction  # the caller's alone while the next is built
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def _unchecked(rule: TransportRule, max_n: int) -> str:
    """Why a rule that a TransportSweep up to max_n never checked has no
    verdict: every semilength in its claimed range has a member."""
    return f"claimed only for n >= {rule.min_n}; nothing to check up to n = {max_n}"


def check_transport(rule: Union[TransportRule, str], n: int) -> dict:
    """Exhaustively verify one rule at semilength n on its family
    reduction; checked counts the pairs up to and including the first
    counterexample. TransportSweep takes any other stream of pairs."""
    if isinstance(rule, str):
        rule = transport_rule(rule)
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    if n < rule.min_n:
        raise ValueError(f"rule {rule.name} is claimed only for n >= {rule.min_n}")
    sweep = TransportSweep([rule])
    ((_, reduction),) = family_reductions([n], sweep.read_dyck, sweep.read_motzkin)
    if reduction["refused"]:
        _member_image(reduction["refused"][0][1])  # raises the refusal, worded
    sweep.judge(n, reduction)
    (result,) = sweep.results
    counterexample = result["counterexample"]
    if counterexample is not None:
        del counterexample["n"]
    return {"rule": rule.name, "n": n, "checked": result["checked"],
            "ok": counterexample is None, "counterexample": counterexample}


class TransportSweep:
    """check_transport for several rules from n = rule.min_n up, fed in
    increasing n the reduction of each semilength (family_reductions, with
    read_dyck and read_motzkin) by judge, or its pairs of texts by add. A
    rule's dyck_side reads a pair's first text (a member, or an identity's
    path) and its motzkin_side the second (the image, or the same path).
    results holds per rule its first counterexample (with its n), at which
    the rule stops, or None, and checked: the pairs from the first pair of
    the rule's first claimed semilength up to that counterexample, or now.

    Each rule side compiles once into an integer linear form over its
    reader's raw tuple (_reader): read_dyck reads every Dyck side plus
    dyck_patterns from the first text, read_motzkin every Motzkin side
    from the second, and dyck_sides(raw, size) and motzkin_sides(raw,
    size) value every rule at once; dyck_values gives the counts of a
    read_dyck tuple in dyck_keys order. Equal vectors give every rule the
    same values, so only the first pair of each vector is judged, in walk
    order, and the others pass every rule still open.
    """

    def __init__(self, rules, dyck_patterns=()):
        self._results = [{"rule": rule, "checked": 0, "counterexample": None}
                         for rule in rules]
        # per rule, the pairs read when its first claimed semilength began (None before)
        self._starts = [None] * len(self._results)
        self._open, self._read = len(self._results), 0
        self.dyck_keys, self.read_dyck, self.dyck_values, self.dyck_sides = _reader(
            dyck_patterns, (r["rule"].dyck_side for r in self._results))
        _, self.read_motzkin, _, self.motzkin_sides = _reader(
            (), (r["rule"].motzkin_side for r in self._results))

    @property
    def done(self) -> bool:
        """Every rule has its counterexample: nothing is left to check."""
        return not self._open

    @property
    def results(self) -> list:
        for r, start in zip(self._results, self._starts):
            if start is not None and r["counterexample"] is None:
                r["checked"] = self._read - start
        return self._results

    def add(self, n: int, pairs) -> None:
        """judge the reduction of an iterable of pairs of texts, read a chunk at a time."""
        reduction, pairs, start = _reduction(), iter(pairs), 0
        for chunk in iter(lambda: list(islice(pairs, _CHUNK)), []):
            _tally(reduction, range(start, start + len(chunk)), *zip(*chunk),
                   self.read_dyck, self.read_motzkin)
            start += len(chunk)
        self.judge(n, reduction)

    def judge(self, n: int, reduction: dict) -> None:
        self._starts = [self._read if start is None and n >= r["rule"].min_n else start
                        for r, start in zip(self._results, self._starts)]
        refused = [i for i, _ in reduction["refused"]]
        for (dyck_size, motz_size, dyck_raw, motz_raw), (i, dyck, motz) in sorted(
                reduction["firsts"].items(), key=lambda item: item[1][0]):  # in walk order
            if self.done:
                break
            lhs = self.dyck_sides(dyck_raw, dyck_size)
            rhs = self.motzkin_sides(motz_raw, motz_size)
            for k, start in enumerate(self._starts):
                # a rule not yet claimed has no start; a failed one stays frozen
                if lhs[k] == rhs[k] or start is None or self._results[k]["counterexample"]:
                    continue
                r = self._results[k]
                # the pairs up to this one: the walk to index i, less its refusals
                r["checked"] = self._read + i + 1 - bisect_right(refused, i) - start
                r["counterexample"] = {"n": n, "path": dyck, "image": motz,
                                       "lhs": lhs[k], "rhs": rhs[k]}
                self._open -= 1
        self._read += sum(reduction["counts"].values())
