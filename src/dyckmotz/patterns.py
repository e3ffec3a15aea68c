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
A compiled reader (_reader) reads one text, or a chunk of texts of one
length at once, each in its own lane of one big int (_read_chunk).
A statistic with a rule side's side, constant, n coefficient and form
(_SLOTS) is read with its side's 15, once per PathProfile (_side_reader).
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


# the planes' bytes.translate tables: the letter to 1, U/D/F and the filler to 0, else x,
# which int refuses. The filler, byte 0xff, pads each text of a chunk to its lane (see
# _reader); UTF-8 never uses it, so no str.encode() output passes a stray letter off as it
_FILL = b"\xff"
_TABLES = {c: bytes(b"10x"[(b != ord(c)) + (b not in b"UDF\xff")] for b in range(256))
           for c in "UDF"}
_PLANE_NAMES = dict(zip("UDF", "udf"))  # in a compiled reader's source (see _reader)
_POPCOUNT = bytes(b.bit_count() for b in range(256))  # bytes.translate: each byte's popcount


# the last text's planes, so the window and run reads of one text build each once
@lru_cache(maxsize=3)
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


@lru_cache(maxsize=8)
def _lanes(k: int, w: int) -> tuple:
    """(ones, count) for k lanes of w bits, the first on top: ones is 1 in each lane,
    count(hits) each lane's popcount of hits, in its low byte. One product sums each
    lane's byte popcounts into its top byte; no byte carries, as any w bits in a row
    hold a filler bit, never a hit."""
    b = w >> 3
    ones = int.from_bytes((1).to_bytes(b, "big") * k, "big")
    spread, low = int.from_bytes(b"\1" * b, "big"), ones * 255

    def count(hits: int) -> int:
        return (int.from_bytes(hits.to_bytes(k * b, "big").translate(_POPCOUNT), "big")
                * spread >> w - 8 & low)
    return ones, count


def _lane_width(texts, size: int = 0, weight: int = 1) -> int:
    """The lane width w for a chunk of texts of one length L (see _reader): the least
    power of two of at least 8 above L and size with 2^w > weight * max(L, size, 1),
    a bound on a linear form of absolute coefficient sum weight over reads of texts
    that long. 0, for one text at a time, on fewer than two texts, mixed lengths or
    L > 255, which a byte cannot count."""
    sizes = set(map(len, texts))
    if len(texts) < 2 or len(sizes) > 1 or max(sizes) > 255:
        return 0
    top = max(*sizes, size)
    return 1 << (max(8, top + 1, (weight * max(top, 1)).bit_length()) - 1).bit_length()


def _columns(packed: tuple, k: int, w: int) -> list:
    """The raw tuples of k lanes of w bits from a chunk's packed reads, one byte each."""
    b = w >> 3
    return list(zip(*(p.to_bytes(k * b, "big")[b - 1::b] for p in packed)))


def _read_chunk(read, texts) -> list:
    """list(map(read, texts)), on lanes (read.lanes) where _lane_width gives them."""
    w = read.lanes and _lane_width(texts)
    return _columns(read.lanes(texts, w), len(texts), w) if w else list(map(read, texts))


def _read_pairs(dyck, motzkin, members, images, weight: int) -> tuple:
    """(raws, agree) over the pairs (members[i], images[i]), dyck and motzkin each a
    (read, sides) of _reader: dyck's raw tuple of each member, and whether the two
    sides agree on every pair. Each is valued once on lanes so wide (_lane_width)
    that each lane's difference is below 2^w: packed, the sides are equal exactly
    when every lane's are. agree is None where the texts are read one at a time."""
    (left, left_sides), (right, right_sides) = dyck, motzkin
    w = (left.lanes and right.lanes and _lane_width(images)
         and _lane_width(members, len(images[0]), weight))
    if not w:
        return list(map(left, members)), None
    k = len(members)
    packed, ones = left.lanes(members, w), _lanes(k, w)[0]
    return _columns(packed, k, w), (left_sides(packed, len(members[0]), ones)
                                    == right_sides(right.lanes(images, w), len(images[0]), ones))


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
    """A path, and its transport rule sides' values, read once per side.

    value sums a linear form ((read, coefficient), ...), a read (f, arg) being
    f(path, arg); count values a pattern's counter (see _reads). The first
    statistic with a slot that evaluate_statistic asks of a profile reads the
    text through its side's compiled reader (_side_reader) and keeps that
    side's 15 values in sides."""

    __slots__ = ("path", "text", "sides")

    def __init__(self, path: Union[str, LatticePath]):
        self.path = path if isinstance(path, LatticePath) else LatticePath(path)
        self.text, self.sides = str(self.path), {}

    def value(self, form: tuple) -> int:
        return sum(c * f(self.path, arg) for (f, arg), c in form)

    def count(self, pat: PatternExpr) -> int:
        return self.value(_reads(pat))


def _form(terms, index, const=0, n_coeff=0, shift=0) -> str:
    """Source of (const + n_coeff * (size >> shift)) * one + the sum of c * raw[index[read]]
    over terms ((read, c), ...), no product by 1: integers and the names raw, size and one
    only. Its leading sign stays, so a lone bool read (an anchor, delta) values as an int."""
    parts = [f"{c:+d}*raw[{index[read]:d}]" for read, c in terms if c]
    parts += [f"{n_coeff:+d}*(size >> {shift:d})*one"] if n_coeff else []
    parts += [f"{const:+d}*one"] if const else []
    return re.sub(r"\b1\*", "", "".join(parts)) or "0"


def _hits(f, arg: str, used: dict) -> str:
    """Source of the hits of the window (f _windows) or run (f _flanked) read arg over
    the planes of its letters, whose names it sets in used."""
    x, *rest = [used.setdefault(c, _PLANE_NAMES[c]) for c in arg]
    if f is _windows:  # x & y << 1 & z << 2
        return " & ".join([x, *(f"{q} << {k}" for k, q in enumerate(rest, 1))])
    return f"({rest[0]} + ({rest[0]} & {rest[1]} << 1)) & {x}"  # (y + (y & z << 1)) & x


_WORD = re.compile(r"[UDF]+")


def _reader(patterns, statistics=()) -> tuple:
    """The patterns of statistics, then patterns, each once, compiled into
    (keys, read, values, sides), straight-line functions generated once, as
    namedtuple generates __new__. read(text) is the raw tuple of every
    distinct read (f, arg) their counters make (a pattern without a counter
    is one read of the generic counter): a window or run inlined over the
    planes of text it uses, built once, any other the call f(text, arg).
    values(raw) is the tuple of the patterns' counts, in keys order;
    sides(raw, size) that of the statistics on a text of length size, each
    const + n_coeff * n plus its form over raw by read index, with n size
    // 2 on a Dyck statistic and size on a Motzkin one. No pattern text is
    spliced into the source: a read's letter enters it as its plane's name.

    read.lanes(texts, w), None unless every read is a window, a run, an
    anchor or delta, reads texts of one length L at once: joined, each
    padded with the filler to a lane of w bits (_lane_width), whose planes
    are 0 there, so no window or run carry crosses a lane. Each read is one
    int with each lane's value in its low byte: a window or run counted per
    lane (_lanes), an anchor its word's window at the lane's first (or
    L - len(word)-th) letter, delta 1 where the lane's F count is L.
    _columns splits them into raw tuples; sides(packed, L, ones) values
    every statistic on every lane at once."""
    statistics = list(statistics)
    pats = dict.fromkeys([*(t for s in statistics for _, t in s.terms if t not in (ONE, N)),
                          *patterns])
    counters = list(map(_reads, pats))
    reads = list(dict.fromkeys(read for counter in counters for read, _ in counter))
    index = {read: i for i, read in enumerate(reads)}
    # n is size >> shift, by the statistic's side, not its slot
    forms = [_form(s.form, index, s.const, s.n_coeff, int(s.side == "dyck")) for s in statistics]
    namespace = {"__builtins__": {}, "int": int, "len": len, "map": map, "encode": str.encode,
                 "lanes": _lanes, "FILL": _FILL, **_TABLES}
    used, lane_used, exprs, lane_exprs = {}, {}, [], []
    for i, (f, arg) in enumerate(reads):
        if f is _windows or f is _flanked:
            hits = _hits(f, arg, used)
            exprs.append(f"({hits}).bit_count()")
            lane_exprs.append(f"count({hits})")
            continue
        namespace[f"r{i}"], namespace[f"a{i}"] = f, arg
        exprs.append(f"r{i}(t, a{i})")
        word = type(arg) is str and _WORD.fullmatch(arg)  # an anchor's U/D/F word
        if f is str.startswith and word:
            lane_exprs.append(f"({_hits(_windows, arg, lane_used)}) >> w - 1 & ones")
        elif f is str.endswith and word:
            lane_exprs.append(f"(({_hits(_windows, arg, lane_used)}) >> w - 1 - n + {len(arg):d}"
                              f" & ones if n >= {len(arg):d} else 0)")
        elif f is _only and arg == "F":  # c + 2^m - n, m the bits of n, reaches 2^m at c = n
            lane_exprs.append(f"count({_hits(_windows, 'F', lane_used)})"
                              " + ((1 << n.bit_length()) - n) * ones >> n.bit_length() & ones")
        else:
            lane_exprs.append(None)

    def tuple_function(args, exprs, body=""):
        exec(f"def f({args}):\n{body} return ({''.join(e + ', ' for e in exprs)})",
             namespace, scope := {})
        return scope["f"]

    def planes(letters):  # the lines building the planes of letters from the bytes b
        return "".join(f" {p} = int(b.translate({c}), 2) if b else 0\n"
                       for c, p in _PLANE_NAMES.items() if c in letters)

    read = tuple_function("t", exprs, " b = t.encode()\n" + planes(used) if used else "")
    read.lanes = None if not reads or None in lane_exprs else tuple_function(
        "ts, w", lane_exprs, " n = len(ts[0])\n ones, count = lanes(len(ts), w)\n"
        " pad = FILL * (w - n)\n b = pad.join(map(encode, ts)) + pad\n"
        + planes({**used, **lane_used}))
    return (tuple(p.text for p in pats), read,
            tuple_function("raw", (_form(counter, index) for counter in counters)),
            tuple_function("raw, size, one=1", forms))


ONE, N = "1", "n"  # the constant and size terms of a statistic


class StatisticExpr(_Frozen, namedtuple("StatisticExpr", "terms side text")):
    # terms: of (int coefficient, PatternExpr | ONE | N); side: "dyck" or
    # "motzkin", which fixes what n means. Compiled once into the instance
    # dict, out of ==, hash and repr: the value is const + n_coeff * n plus
    # form, the terms' pattern reads merged ((read, c), ...), no zero c;
    # slot is the index in _RULES of a rule side it values as (_SLOTS), else None
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
        form = tuple((r, c) for r, c in form.items() if c)
        vars(self).update(const=const, n_coeff=n_coeff, form=form,
                          slot=_SLOTS.get((side, const, n_coeff, form)))
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
    one keeping the rule sides it read for the next statistic. A statistic
    that values as a transport rule's side (its slot: the same side, const,
    n_coeff and form, a re-parsed twin included) is that slot of the
    profile's values of every rule side on its side, read once per profile;
    any other statistic is its form valued on the path (PathProfile.value)."""
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

_SLOTS = {}  # rule sides by value: (side, const, n_coeff, form) -> first index in _RULES
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

# the rule sides, built before _SLOTS was filled, take their slots from it now
for _k, _r in enumerate(_RULES):
    for _s in (_r.dyck_side, _r.motzkin_side):
        vars(_s)["slot"] = _SLOTS.setdefault((_s.side, _s.const, _s.n_coeff, _s.form), _k)


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
