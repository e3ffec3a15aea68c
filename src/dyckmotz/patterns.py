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

A pattern _PROFILED_RE admits is one read: an anchor, delta, or a word or
run XY+Z over the bit-planes (_windows, _flanked); others count_occurrences.
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
    # counter ((read, c), ...), a read (f, arg) being f(text, arg) and the
    # count the sum of c * read; _counter's one read on _PROFILED_RE's shapes
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


# the planes' bytes.translate tables: the letter to 1, U/D/F to 0, else x, which int refuses
_TABLES = {c: bytes(b"10x"[(b != ord(c)) + (b not in b"UDF")] for b in range(256)) for c in "UDF"}
_PLANE_NAMES = dict(zip("UDF", "udf"))  # in a compiled reader's source (see _reader)


def _plane(text: str, letter: str) -> int:
    """The bits of text that are letter, its first step the top bit (0 on the empty text)."""
    return int(text.encode().translate(_TABLES[letter]), 2) if text else 0


def _windows(text: str, word: str) -> int:
    """Occurrences of word, overlaps included: the AND of its letters' shifted planes."""
    hits = -1
    for shift, letter in enumerate(word):
        hits &= _plane(text, letter) << shift
    return hits.bit_count()


def _flanked(text: str, xyz: str) -> int:
    """Occurrences of XY+Z, X and Z not Y: adding to the Y plane the last Y of each
    run before a Z carries across the run onto the letter before it, an X or not."""
    x, y, z = (_plane(text, c) for c in xyz)
    return ((y + (y & z << 1)) & x).bit_count()


DIRAC = PatternExpr(atoms=(), dirac=True, text="delta", counter=(((_only, "F"), 1),))

_ATOM_RE = re.compile(r"([UDF])(\+?)")
# the texts that get a compiled counter: a word of <= 3 plain letters,
# unanchored or with one anchor, or a run XY+Z with X != Y and Z != Y
# (one term per maximal run)
_PROFILED_RE = re.compile(
    r"\^?[UDF]{1,3}|[UDF]{1,3}\$|([UDF])(?!\1)([UDF])\+(?!\2)[UDF]")


def _counter(text: str) -> tuple:
    """The counter of a pattern _PROFILED_RE admits: its one read, an anchor,
    a window (_windows) or a flanked run (_flanked, "XYZ")."""
    if text[0] == "^":
        read = str.startswith, text[1:]
    elif text[-1] == "$":
        read = str.endswith, text[:-1]
    else:
        read = (_flanked if "+" in text else _windows), text.replace("+", "")
    return ((read, 1),)


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
                       _counter(text) if _PROFILED_RE.fullmatch(text) else None)


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
    (keys, read, values, sides), three straight-line functions generated
    once, as namedtuple generates __new__. read(text) is the raw tuple of
    every distinct read (f, arg) their counters make (a pattern without a
    counter is one read of the generic counter): a window or run inlined
    over the planes of text it uses, built once, any other the call f(text,
    arg). values(raw) is the tuple of the patterns' counts, in keys order;
    sides(raw, size) that of the statistics on a text of length size, each
    const + n_coeff * n plus its form over raw by read index, with n size
    // 2 on a Dyck statistic and size on a Motzkin one. No pattern text is
    spliced into the source: a read's letter enters it as its plane's name."""
    statistics = list(statistics)
    pats = dict.fromkeys([*(t for s in statistics for _, t in s.terms if t not in (ONE, N)),
                          *patterns])
    counters = list(map(_reads, pats))
    reads = list(dict.fromkeys(read for counter in counters for read, _ in counter))
    index = {read: i for i, read in enumerate(reads)}
    # n is size >> shift, by the statistic's side, not its slot
    forms = [_form(s.form, index, s.const, s.n_coeff, int(s.side == "dyck")) for s in statistics]
    namespace, used, exprs = {"__builtins__": {}, "int": int, **_TABLES}, {}, []
    for i, (f, arg) in enumerate(reads):
        if f is _windows or f is _flanked:
            x, *rest = [used.setdefault(c, _PLANE_NAMES[c]) for c in arg]
            if f is _windows:  # x & y << 1 & z << 2
                hits = " & ".join([x, *(f"{q} << {k}" for k, q in enumerate(rest, 1))])
            else:  # (y + (y & z << 1)) & x
                hits = f"({rest[0]} + ({rest[0]} & {rest[1]} << 1)) & {x}"
            exprs.append(f"({hits}).bit_count()")
        else:
            namespace[f"r{i}"], namespace[f"a{i}"] = f, arg
            exprs.append(f"r{i}(t, a{i})")
    planes = "".join(f" {p} = int(b.translate({c}), 2) if b else 0\n"
                     for c, p in _PLANE_NAMES.items() if c in used)

    def tuple_function(args, exprs, body=""):
        exec(f"def f({args}):\n{body} return ({''.join(e + ', ' for e in exprs)})",
             namespace, scope := {})
        return scope["f"]

    return (tuple(p.text for p in pats),
            tuple_function("t", exprs, planes and " b = t.encode()\n" + planes),
            tuple_function("raw", (_form(counter, index) for counter in counters)),
            tuple_function("raw, size", forms))


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
