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
"""
from __future__ import annotations

import re
from collections import Counter, namedtuple
from functools import lru_cache
from typing import NamedTuple, Optional, Union

from .paths import LatticePath


class PatternSyntaxError(ValueError):
    """Malformed pattern or statistic text."""

    def __init__(self, text: str, position: int, reason: str = "invalid character"):
        self.position, self.reason = position, reason
        super().__init__(f"{reason} at position {position} in {text!r}")


class EmptyPatternError(ValueError):
    """A pattern needs at least one atom (or must be 'delta')."""


class _Frozen(tuple):
    """Base of a named tuple with computed fields: every field is read-only."""
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace computes them again

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")
    __delattr__ = __setattr__


class PatternExpr(_Frozen, namedtuple("PatternExpr", "atoms start_anchor end_anchor dirac text")):
    # counter (in the instance dict, out of ==, hash and repr): the exact
    # counter parse_pattern compiles for _PROFILED_RE's shapes, ((read, c), ...),
    # a read (f, arg) being f(text, arg) and the count the sum of c * read
    def __new__(cls, atoms: tuple, start_anchor: bool = False, end_anchor: bool = False,
                dirac: bool = False, text: str = "", counter: Optional[tuple] = None):
        self = super().__new__(cls, atoms, start_anchor, end_anchor, dirac, text)
        vars(self)["counter"] = counter
        return self

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
    count values a pattern's counter (see _reads). The first transport
    rule side that evaluate_statistic asks of a profile reads the text
    once through its side's compiled reader (_side_reader) and keeps, in
    sides, that side's 15 values; the others are read from that tuple.
    """

    __slots__ = ("path", "text", "reads", "sides")

    def __init__(self, path: Union[str, LatticePath]):
        self.path = path if isinstance(path, LatticePath) else LatticePath(path)
        self.text = str(self.path)
        self.reads, self.sides = {}, {}

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
    """Source of const + n_coeff * (size >> shift) + the sum of c * raw[index[read]] over
    terms ((read, c), ...), no product by 1: integers and the names raw and size only.
    Its leading sign stays, so a lone bool read (an anchor, delta) values as an int."""
    parts = [f"{c:+d}*raw[{index[read]:d}]" for read, c in terms if c]
    parts += [f"{n_coeff:+d}*(size >> {shift:d})"] if n_coeff else []
    parts += [f"{const:+d}"] if const else []
    return re.sub(r"\b1\*", "", "".join(parts)) or "0"


def _reader(patterns, statistics=()) -> tuple:
    """The patterns of statistics, then patterns, each once, compiled into
    (keys, read, values, sides), three straight-line lambdas generated
    once, as namedtuple generates __new__. read(text) is the raw tuple
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


class StatisticExpr(_Frozen, namedtuple("StatisticExpr", "terms side text")):
    # terms: of (int coefficient, PatternExpr | ONE | N); side: "dyck" or
    # "motzkin", which fixes what n means. Compiled once into the instance
    # dict, out of ==, hash and repr: the value is const + n_coeff * n plus
    # form, the terms' pattern reads merged ((read, c), ...), no zero c;
    # slot is None but on a transport rule's own side (its index in _RULES)
    def __new__(cls, terms: tuple, side: str, text: str = ""):
        self = super().__new__(cls, terms, side, text)
        const, n_coeff, form = 0, 0, Counter()
        for coeff, term in terms:
            if term == ONE:
                const += coeff
            elif term == N:
                n_coeff += coeff
            else:
                form.update({read: coeff * c for read, c in _reads(term)})
        vars(self).update(const=const, n_coeff=n_coeff,
                          form=tuple((r, c) for r, c in form.items() if c), slot=None)
        return self

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
    """Value of the statistic on one path, from the profile of p, a prebuilt
    one keeping what it read for the next statistic. A transport rule's own
    side (the object in transport_rules(), not one equal to it) is its slot
    in the profile's values of every rule side on its side, read once per
    profile; any other statistic is its form valued by the profile."""
    if profile is None:
        profile = PathProfile(p)
    elif p is not profile.path and profile.text != p:
        raise ValueError(f"the profile is of another path than {str(p)!r}")
    size = len(profile.text)
    if e.slot is not None:
        values = profile.sides.get(e.side)
        if values is None:
            read, sides = _side_reader(e.side)
            values = profile.sides[e.side] = sides(read(profile.text), size)
        return values[e.slot]
    return (e.const + e.n_coeff * (size // 2 if e.side == "dyck" else size)
            + profile.value(e.form))


class TransportRule(NamedTuple):
    """dyck_side(P) = motzkin_side(phi(P)) for every family member of
    semilength >= min_n."""
    name: str
    dyck_side: StatisticExpr
    motzkin_side: StatisticExpr
    min_n: int = 0


def _rule(name: str, motzkin_text: str, min_n: int = 0) -> TransportRule:
    return TransportRule(name, parse_statistic(name, "dyck"),
                         parse_statistic(motzkin_text, "motzkin"), min_n)


# the twelve length <= 3 step patterns of genfun's series and the golden tables
PATTERNS = ("UD", "UU", "DD", "DU", "UUU", "UUD", "DUU", "DUD", "UDU", "UDD", "DDU", "DDD")

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

# a rule side is registered by identity, its index in _RULES set on the object:
# a statistic rebuilt with other reads is == to it and takes the dict path
for _k, _r in enumerate(_RULES):
    vars(_r.dyck_side)["slot"] = vars(_r.motzkin_side)["slot"] = _k


@lru_cache(maxsize=2)
def _side_reader(side: str) -> tuple:
    """(read, sides) over every rule's side on side, in _RULES order, compiled on first use."""
    _, read, _, sides = _reader((), (getattr(r, f"{side}_side") for r in _RULES))
    return read, sides


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
