"""The family pass, one walk per semilength of the constrained family
whose members bijection's cores map, and the checks that read it.

family_reductions splits the walk across the CPUs by subtree; each share
maps a chunk at a time through _phi, _phi_inverse and a TransportSweep's
readers, which read and judge a chunk at once (pair by pair only where
its sides differ), and reduces to data that merges, plain text that
marshals as it is. The pass and its sweep have one owner, so
bijection, the map, loads neither the walker nor the pattern language.
"""
from __future__ import annotations

import marshal
import os
import threading
from collections import Counter
from itertools import groupby, islice
from operator import eq
from typing import Iterator, Union

from .bijection import _member_image, _phi, _phi_inverse, _refusal
from .enumeration import _require_size, _walk, motzkin_number
from .patterns import TransportRule, _read_pairs, _reader, transport_rule


def check_bijectivity(n: int) -> dict:
    """Exhaustively verify that phi is a bijection at semilength n, a size
    (see paths), on its family reduction (see _bijectivity_report). Failures
    are report contents, not raises: a walker output that phi refuses fails
    the report, with phi's first three refusals under rejected_examples."""
    _require_size(n, "semilength")
    ((_, reduction),) = family_reductions([n], TransportSweep([]))
    return _bijectivity_report(n, reduction)


def _bijectivity_report(n: int, reduction: dict) -> dict:
    """check_bijectivity's report for semilength n from its reduction,
    whose images _phi made unvalidated: counts, and the first three
    members of each kind of failure. The proof needs no image set:

    - Distinct members: the pairs come in the walker's order, strictly
      increasing with U < D (see enumeration), which on words of one
      length is strictly decreasing str order, as 'D' < 'U'. So each
      member below the one before it is the whole check; a change in the
      walker's order would give a false alarm, never a false proof.
    - Injective, into Motzkin words of length n: _phi_inverse gives a
      member only for a Motzkin word (None for a stray letter, a D with
      no open arch or an arch left open), and it writes two letters per
      letter read (F is UD, an arch's U...D is UU...D...D). So a round
      trip _phi_inverse(m) == p proves m a Motzkin word of length n, the
      image's only validation, and makes phi injective on the members.
    - Onto: domain == M_n distinct images of length n are all of them.
    An image set would catch nothing more: two members on one image break
    the later one's round trip, and a repeated member breaks the order.
    """
    domain, expected = sum(reduction["counts"].values()), motzkin_number(n)
    order, roundtrip, refused = (reduction[key] for key in ("order", "roundtrip", "refused"))
    report = {"n": n, "domain": domain, "expected": expected, "out_of_order": len(order),
              "roundtrip_failures": len(roundtrip),
              "ok": not (order or roundtrip or refused) and domain == expected}
    report.update((key, [p for _, p in found[:3]]) for key, found in (
        ("out_of_order_examples", order), ("roundtrip_examples", roundtrip)) if found)
    if refused:
        report["rejected_examples"] = [_refusal(p) for _, p in refused[:3]]
    return report


# walker outputs per chunk of the family pass: a few hundred keep each
# chunk's lists small beside the reduction and each map long
_CHUNK = 256


# the depth of a shared walk's subtrees: 42 from n = 9, below the 255 tokens
_SPLIT = 9


def _members(n: int, claim=None) -> Iterator:
    """The family pass's one way to the walker: semilength n's members, or
    the subtrees at depth min(n, _SPLIT) that claim hands out (_walk)."""
    return _walk(2 * n, False, True, *((min(n, _SPLIT), claim) if claim else ()))


def _claims(tokens: int):
    """A share's claim: the next number on the shared pipe tokens, or 255 (none)."""
    return lambda: (os.read(tokens, 1) or b"\xff")[0]


def _reduction() -> dict:
    """An empty reduction (see family_reductions and _judge_share)."""
    return {"counts": Counter(), "fails": {}, "order": [], "roundtrip": [], "refused": [],
            "subtrees": {}}


def _tally(reduction: dict, indices, members, images, sweep) -> None:
    """Fold one chunk of pairs (member, image), at walk indices, into reduction's
    counts and fails (see family_reductions), judged by sweep: a chunk whose
    lanes agree (TransportSweep.read_chunk) at once, any other pair by pair."""
    raws, agree = sweep.read_chunk(members, images)
    reduction["counts"].update(raws)
    if agree:
        return
    lhs = list(map(sweep.dyck_sides, raws, map(len, members)))
    rhs = list(map(sweep.motzkin_sides, map(sweep.read_motzkin, images), map(len, images)))
    if lhs == rhs:
        return
    fails = reduction["fails"]
    for i, member, image, left, right in zip(indices, members, images, lhs, rhs):
        if left != right:
            for k in range(len(left)):
                if left[k] != right[k] and k not in fails:
                    fails[k] = i, member, image, left[k], right[k]


# a share places output j of subtree k at (k << _PLACE) + j, in walk order
_PLACE = 64


def _judge_share(n: int, claim, sweep) -> dict:
    """The reduction of the subtrees of semilength n that claim hands out
    (all of it when claim is None), each chunk of pairs judged by sweep as
    it is read (_tally). Its subtrees map each subtree k to [outputs, place
    and member of its first pair, member of its last pair]: _close
    order-checks each first pair against the pair before it."""
    reduction, k = _reduction(), 0
    for kind, run in groupby(_members(n, claim), type):
        if kind is int:  # a subtree's number, then its walker outputs
            *_, k = run
            continue
        for chunk in iter(lambda: list(islice(run, _CHUNK)), []):
            record = reduction["subtrees"].setdefault(k, [0, None, None, "V"])  # 'V' > U/D words
            start = (k << _PLACE) + record[0]
            indices = range(start, start + len(chunk))
            record[0] += len(chunk)
            images = list(map(_phi, chunk))
            if None in images:  # walker outputs that _phi refuses make no pair
                reduction["refused"] += [(i, p) for i, p, m in zip(indices, chunk, images)
                                         if m is None]
                indices, chunk, images = ([t[c] for t in zip(indices, chunk, images)
                                           if t[2] is not None] for c in range(3))
                if not chunk:
                    continue
            if record[2] is None:
                record[1:3] = indices[0], chunk[0]
            before, record[3] = [record[3], *chunk], chunk[-1]
            for key, oks in (("order", map(str.__lt__, chunk, before)),
                             ("roundtrip", map(eq, chunk, map(_phi_inverse, images)))):
                if not all(oks := list(oks)):
                    reduction[key] += [(i, p) for i, p, ok in zip(indices, chunk, oks)
                                       if not ok]
            _tally(reduction, indices, chunk, images, sweep)
    return reduction


def _merge(reduction: dict, theirs: dict) -> None:
    reduction["counts"].update(theirs["counts"])
    for k, first in theirs["fails"].items():  # the lowest place per rule
        reduction["fails"][k] = min(reduction["fails"].get(k, first), first)
    for key in ("order", "roundtrip", "refused"):
        reduction[key] += theirs[key]
    reduction["subtrees"].update(theirs["subtrees"])


def _close(reduction: dict) -> None:
    """Turn the places of a reduction merged from every share into walk
    indices, the subtrees laid end to end, and order-check each subtree's
    first pair against the last pair before it."""
    offsets, at, last = {}, 0, "V"
    for k, (outputs, place, first, final) in sorted(reduction.pop("subtrees").items()):
        offsets[k], at = at - (k << _PLACE), at + outputs
        if first is not None:
            if not first < last:
                reduction["order"].append((place, first))
            last = final
    for key in ("order", "roundtrip", "refused"):
        reduction[key] = sorted((i + offsets[i >> _PLACE], p) for i, p in reduction[key])
    for k, (i, *first) in reduction["fails"].items():
        reduction["fails"][k] = i + offsets[i >> _PLACE], *first


def family_reductions(ns, sweep) -> Iterator[tuple]:
    """Yield (n, reduction) for each semilength n of ns: the reduction of
    the family's pairs (member, _phi(member)) there, the one pass over the
    family that its checks share, judged by the TransportSweep sweep, and
    by sweep.judge before it is yielded.
    counts maps each raw tuple sweep.read_dyck(member) to its pairs, and
    fails each rule k to the (index, member, image, lhs, rhs) of its first
    pair on which the sweep's sides differ at k; no other entry
    is kept per raw tuple or per pair. order, roundtrip and refused
    list the (index, member), an index being a place in the walk, of each
    member not below the one before it, that _phi_inverse does not give
    back from its image, or that _phi refused (None: no pair). The walk is
    mapped through a chunk at a time. With P usable CPUs and no other
    thread, P - 1 forked children and this process, which also consumes
    the reductions, each take the next subtree (_members) of a semilength
    of at least P chunks from its pipe of tokens whenever they are free.
    The children send their shares back through a pipe with marshal;
    if one does not come, the whole semilength is judged here."""
    ns, children, tokens = list(ns), {}, {}
    parts = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             and hasattr(os, "fork") and threading.active_count() == 1 else 1)
    try:
        for i, n in enumerate(ns):  # by place in ns, each semilength of P chunks or more
            if parts > 1 and motzkin_number(n) > (parts - 1) * _CHUNK:
                tokens[i], write = os.pipe()  # a token per subtree number below 255
                os.write(write, bytes(range(255)))
                os.close(write)
        for part in range(parts - 1 if tokens else 0):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no child: this process takes its subtrees
                os.close(read), os.close(write)
                continue
            if not pid:  # the child, which ends here whatever happens
                try:
                    with open(write, "wb") as pipe:
                        for i, fd in tokens.items():
                            reduction = _judge_share(ns[i], _claims(fd), sweep)
                            data = marshal.dumps({**reduction, "counts": dict(reduction["counts"])})
                            pipe.write(len(data).to_bytes(8, "little") + data)
                            pipe.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children[part] = pid, open(read, "rb")
        for i, n in enumerate(ns):
            claim = _claims(tokens[i]) if i in tokens else None
            reduction = _judge_share(n, claim, sweep)
            whole = False
            for pid, pipe in children.values() if i in tokens else ():
                try:  # one read: marshal.load from a file reads item by item
                    theirs = marshal.loads(pipe.read(int.from_bytes(pipe.read(8), "little")))
                except (EOFError, ValueError, TypeError):  # the share did not come
                    whole = True
                else:
                    _merge(reduction, theirs)
            if whole:  # so the whole semilength is judged here
                reduction = _judge_share(n, None, sweep)
            _close(reduction)
            sweep.judge(n, reduction)
            yield n, reduction
            del reduction  # the caller's alone while the next is built
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        for read in tokens.values():
            os.close(read)


def _unchecked(rule: TransportRule, max_n: int) -> str:
    """Why a rule that a TransportSweep up to max_n never checked has no
    verdict: every semilength in its claimed range has a member."""
    return f"claimed only for n >= {rule.min_n}; nothing to check up to n = {max_n}"


def check_transport(rule: Union[TransportRule, str], n: int) -> dict:
    """Exhaustively verify one rule at semilength n, a size (see paths), on
    its family reduction; checked counts the pairs up to and including the
    first counterexample. TransportSweep takes any other stream of pairs."""
    _require_size(n, "semilength")
    if isinstance(rule, str):
        rule = transport_rule(rule)
    if n < rule.min_n:
        raise ValueError(f"rule {rule.name} is claimed only for n >= {rule.min_n}")
    sweep = TransportSweep([rule])
    ((_, reduction),) = family_reductions([n], sweep)
    if reduction["refused"]:
        _member_image(reduction["refused"][0][1])  # raises the refusal, worded
    (result,) = sweep.results
    counterexample = result["counterexample"]
    if counterexample is not None:
        del counterexample["n"]
    return {"rule": rule.name, "n": n, "checked": result["checked"],
            "ok": counterexample is None, "counterexample": counterexample}


class TransportSweep:
    """check_transport for several rules from n = rule.min_n up, fed in
    increasing n the reduction of each semilength by judge, which
    family_reductions(ns, sweep) calls as it yields, or its pairs of texts
    by add. A rule's dyck_side reads a pair's first text (a member, or an
    identity's path) and its motzkin_side the second (the image, or the
    same path). results holds per rule its first counterexample (with its
    n), at which the rule stops, or None, and checked: the sum over its
    claimed semilengths judged so far of their pairs, or, in the semilength
    of its counterexample, of the pairs up to and including that one.

    Each rule side compiles once into an integer linear form over its
    reader's raw tuple (patterns._reader): read_dyck reads every Dyck side
    plus dyck_patterns from the first text, read_motzkin every Motzkin
    side from the second, and dyck_sides(raw, size) and motzkin_sides(raw,
    size) value every rule at once; dyck_values gives the counts of a
    read_dyck tuple in dyck_keys order. Each chunk of pairs is judged as it
    is read (read_chunk, _tally), and judge reads the first failing pair of
    each rule.
    """

    def __init__(self, rules, dyck_patterns=()):
        self.results = [{"rule": rule, "checked": 0, "counterexample": None} for rule in rules]
        self.dyck_keys, self.read_dyck, self.dyck_values, self.dyck_sides = _reader(
            dyck_patterns, (r["rule"].dyck_side for r in self.results))
        _, self.read_motzkin, _, self.motzkin_sides = _reader(
            (), (r["rule"].motzkin_side for r in self.results))
        # |dyck_side - motzkin_side| <= weight * max(size, 1) on texts of length <= size
        # where 1, n and each read a lane reads (_reader) are at most max(size, 1)
        self.weight = max((sum(abs(c) for side in (r["rule"].dyck_side, r["rule"].motzkin_side)
                               for c in (side.const, side.n_coeff, *(c for _, c in side.form)))
                           for r in self.results), default=1)

    @property
    def done(self) -> bool:
        """Every rule has its counterexample: nothing is left to check."""
        return all(r["counterexample"] for r in self.results)

    def read_chunk(self, members, images) -> tuple:
        """(raws, agree) of a chunk of pairs (patterns._read_pairs), read and judged."""
        return _read_pairs((self.read_dyck, self.dyck_sides),
                           (self.read_motzkin, self.motzkin_sides), members, images, self.weight)

    def add(self, n: int, pairs) -> None:
        """judge the reduction of an iterable of pairs of texts, read a chunk at a time."""
        reduction, pairs, start = _reduction(), iter(pairs), 0
        for chunk in iter(lambda: list(islice(pairs, _CHUNK)), []):
            _tally(reduction, range(start, start + len(chunk)), *zip(*chunk), self)
            start += len(chunk)
        self.judge(n, reduction)

    def judge(self, n: int, reduction: dict) -> None:
        pairs, fails = sum(reduction["counts"].values()), reduction["fails"]
        for k, r in enumerate(self.results):
            if n < r["rule"].min_n or r["counterexample"]:  # not yet claimed, or frozen
                continue
            if k not in fails:
                r["checked"] += pairs
                continue
            i, dyck, motz, lhs, rhs = fails[k]
            # the pairs up to this one: the walk to index i, less its refusals
            r["checked"] += i + 1 - sum(j < i for j, _ in reduction["refused"])
            r["counterexample"] = {"n": n, "path": dyck, "image": motz, "lhs": lhs, "rhs": rhs}
