"""Brute-force opacity and durable-opacity oracle.

The verdicts follow the definitions: a sequence is valid when reads see the
latest successfully written value starting from all-zero memory; a
non-interleaved history is legal when, at every index, the projection onto
committed transactions plus the current transaction is valid; a history is
end-to-end opaque when some completion admits a legal sequential
arrangement of its transactions respecting real-time order; and opacity
demands that of every prefix.  Durable opacity applies the same test to the
crash-erased history, after checking durable well-formedness.

The helpers index a history in one pass instead of projecting it once per
transaction or once per pair of transactions: ``well_formed``,
``durably_well_formed`` and ``first_ill_formed`` (one status per
transaction), ``completions_unchecked``'s pending invocations (each
transaction's last position and the parity of its event count),
``real_time_precedes``, ``_check_bounds``, and ``_order_search``, which
derives real-time order for all pairs from each block's first and last
positions.  The tests in ``test_histories.py`` compare them with the
per-transaction definitions they replaced, on every enumerated (2,2,2)
history of at most 7 events and its one-event extensions, and on random
sequences; ``test_oracle_verdicts_and_witnesses_are_unchanged`` pins every
verdict and witness of ``end_to_end_opaque`` and ``durably_opaque`` on
the histories of at most 6 events.

The search is exponential by design (it is the trusted oracle, not the
implementation under test), so inputs are gated by size bounds.

``opaque`` searches only the prefixes that can fail, by this lemma: when a
well-formed crash-free history h is end-to-end opaque and h·e is
well-formed, h·e is end-to-end opaque too unless ``may_break_opacity(e)``,
that is unless e is a successful read response or a commit response.  Any
other e either invokes an operation, and the completions of h·e that drop
it are those of h; or it is a begin response, a write acknowledgement or an
operation abort, which a completion of h may append to answer the same
invocation, and that completion differs from one of h·e only in where e
stands among responses that all follow every transaction's first event, so
both have the same per-transaction projections and the same real-time
order.  Either way h's sequential witness serves h·e.  Hence the shortest
failing prefix of any history ends at an event that may break opacity, or
is the whole history.
``test_opaque_matches_every_prefix_loop_exhaustively`` and
``test_opaque_matches_every_prefix_loop_on_random_histories`` compare
``opaque`` with the every-prefix loop; the explorer tests its prefixes by
the same predicate.

The second strategy, ``end_to_end_opaque_alt``, stays definitional: it
still judges every candidate arrangement with ``sequential``, that is with
``legal_at``'s own per-index check at every index.  ``legal`` only avoids
repeating work across indices: it checks the preconditions once and grows
the committed set as it goes.  ``sequential`` remembers its last
``SEQUENTIAL_MEMO_SIZE`` (8,192) verdicts, since the same candidates recur
across histories; the first strategy keeps no memo.
"""
from __future__ import annotations

from collections.abc import Sized
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations, product
from typing import Sequence

from .histories import (
    Domain,
    Event,
    History,
    completions,
    completions_unchecked,
    first_ill_formed,
    is_committed,
    is_crash,
    is_invocation,
    matches,
    non_interleaved,
    ops,
    project,
    real_time_precedes,
    res_begin,
    res_commit,
    res_commit_abort,
    res_read,
    res_read_abort,
    res_write,
    res_write_abort,
    rval,
    txn_ids,
    well_formed,
)


class TooLargeError(Exception):
    """Input exceeds the oracle's brute-force bounds."""


@dataclass(frozen=True)
class OracleBounds:
    max_txns: int = 4
    max_addrs: int = 3
    max_vals: int = 3

    @classmethod
    def covering(cls, domain: Domain) -> OracleBounds:
        """The default bounds, raised where needed so that every history
        over ``domain`` (with ``range(domain.num_vals)`` as its values)
        passes them."""
        return cls(max(cls.max_txns, domain.num_txns),
                   max(cls.max_addrs, domain.num_addrs),
                   max(cls.max_vals, domain.num_vals))


@dataclass
class Verdict:
    ok: bool
    sequential_witness: History | None = None
    completion_witness: History | None = None
    failing_prefix: int | None = None
    reason: str = ""


def _check_bounds(h: Sequence[Event], value_domain, bounds: OracleBounds | None) -> None:
    b = bounds or OracleBounds()
    tids, addrs = set(), set()
    for e in h:
        if e.ev != "crash":
            tids.add(e.tx)
        if e.addr is not None:
            addrs.add(e.addr)
    if len(tids) > b.max_txns:
        raise TooLargeError(f"more than {b.max_txns} transactions")
    if len(addrs) > b.max_addrs:
        raise TooLargeError(f"more than {b.max_addrs} addresses")
    if isinstance(value_domain, Sized):
        nvals = len(value_domain)
    else:  # count no further than the first value over the bound
        nvals = sum(1 for _ in islice(value_domain, b.max_vals + 1))
    if nvals > b.max_vals:
        raise TooLargeError(f"more than {b.max_vals} values")


def valid(h: Sequence[Event]) -> list[dict] | None:
    """Memory-snapshot validity of a completed alternating sequence.

    Returns the snapshot sequence (one state per operation pair, all-zero
    start, missing addresses read as 0) or None when some read disagrees.
    Malformed pairing is a usage error, distinct from invalidity.
    """
    h = tuple(h)
    if any(is_crash(e) for e in h):
        raise ValueError("validity is defined on crash-free sequences")
    if len(h) % 2:
        raise ValueError("sequence must pair each invocation with a response")
    states: list[dict] = [{}]
    for i in range(0, len(h), 2):
        inv, res = h[i], h[i + 1]
        if not matches(inv, res):
            raise ValueError(f"events {i} and {i + 1} do not form a matching pair")
        sigma = states[-1]
        r = rval(res)
        if inv.ev == "invWrite" and r == "ok":
            nxt = dict(sigma)
            nxt[inv.addr] = inv.val
            states.append(nxt)
        elif inv.ev == "invRead" and r != "abort":
            if sigma.get(inv.addr, 0) != r:
                return None
            states.append(dict(sigma))
        else:
            # aborting reads/writes, begins, commits all stutter
            states.append(dict(sigma))
    return states


def _legal_at(hs: History, i: int, committed: set[int]) -> bool:
    """Legality of hs at index i given the transactions committed in
    hs[: i + 1]: the one definition that legal_at and legal share."""
    cur = hs[i].tx
    proj = [e for e in hs[: i + 1] if e.tx == cur or e.tx in committed]
    if is_invocation(proj[-1]):  # hs[i] itself, whose tx is cur
        proj.pop()
    return valid(proj) is not None


def legal_at(hs: Sequence[Event], i: int) -> bool:
    """Is hs legal at index i: project everything up to and including hs[i]
    onto committed transactions plus hs[i]'s own transaction and test
    validity.  When hs[i] is an invocation the projection ends with that
    unmatched invocation; it is stripped, there being nothing to validate
    for an operation that has not responded yet."""
    hs = tuple(hs)
    if any(is_crash(e) for e in hs):
        raise ValueError("legality is defined on crash-free histories")
    if not non_interleaved(hs):
        raise ValueError("legality is defined on non-interleaved histories")
    if not 0 <= i < len(hs):
        raise IndexError(i)
    prefix = hs[: i + 1]
    committed = {t for t in txn_ids(prefix) if is_committed(prefix, t)}
    return _legal_at(hs, i, committed)


def _legal(hs: History) -> bool:
    """legal_at at every index of a well-formed non-interleaved hs, with
    the committed set grown at each successful commit response."""
    committed: set[int] = set()
    for i, e in enumerate(hs):
        if rval(e) == "commit":
            committed.add(e.tx)
        if not _legal_at(hs, i, committed):
            return False
    return True


def legal(hs: Sequence[Event]) -> bool:
    """legal_at holds at every index of hs.

    The preconditions (well-formed, so crash-free, and non-interleaved) are
    checked once for the whole history, and the committed set is grown one
    event at a time instead of being rebuilt from the prefix at each index.
    """
    hs = tuple(hs)
    if not well_formed(hs):
        raise ValueError("legality is defined on well-formed histories")
    if not non_interleaved(hs):
        raise ValueError("legality is defined on non-interleaved histories")
    return _legal(hs)


# The verdict depends on the candidate tuple alone (no domain, no bounds),
# so one memo per process is sound.  end_to_end_opaque_alt judges the same
# block concatenations again and again (9,606 calls on 464 distinct
# candidates over the histories of <=6 events); 8,192 entries hold all
# 7,044 distinct candidates of the <=8-event space of 2x2x2 histories.
SEQUENTIAL_MEMO_SIZE = 8192


@lru_cache(maxsize=SEQUENTIAL_MEMO_SIZE)
def _sequential(hs: History) -> bool:
    return well_formed(hs) and non_interleaved(hs) and _legal(hs)


def sequential(hs: Sequence[Event]) -> bool:
    """Well-formed, non-interleaved and legal (crash-free input required).

    Remembers its last ``SEQUENTIAL_MEMO_SIZE`` verdicts."""
    return _sequential(tuple(hs))


def _replay_block(blk: History, sigma: dict) -> dict | None:
    """Replay one transaction's projection against the committed state.
    Returns the committed state afterwards (changed only if the block
    commits), or None if one of its reads is inconsistent.  A trailing
    pending invocation imposes nothing."""
    local = dict(sigma)
    for i in range(0, len(blk) - 1, 2):
        inv, res = blk[i], blk[i + 1]
        r = rval(res)
        if inv.ev == "invWrite" and r == "ok":
            local[inv.addr] = inv.val
        elif inv.ev == "invRead" and r != "abort":
            if local.get(inv.addr, 0) != r:
                return None
    if blk and rval(blk[-1]) == "commit":
        return local
    return dict(sigma)


def _order_search(hc: History) -> History | None:
    """Find a legal concatenation order of hc's transaction blocks that
    extends hc's real-time precedence, or None.

    One pass indexes hc: each transaction's block and its first and last
    positions.  hc is a completion, so well-formed, and a transaction has
    completed exactly when its block ends in a commit or an abort."""
    blocks: dict[int, list[Event]] = {}
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, e in enumerate(hc):
        t = e.tx
        if t in blocks:
            blocks[t].append(e)
        else:
            blocks[t] = [e]
            first[t] = i
        last[t] = i
    tids = sorted(blocks)
    # t1 precedes t2 in real time: t1 completed before t2's first event
    done = [t for t in tids if rval(blocks[t][-1]) in ("commit", "abort")]
    before: dict[int, set[int]] = {
        t2: {t1 for t1 in done if last[t1] < first[t2]} for t2 in tids}
    order: list[int] = []
    placed: set[int] = set()

    def dfs(sigma: dict) -> bool:
        if len(order) == len(tids):
            return True
        for t in tids:
            if t in placed or not before[t] <= placed:
                continue
            nxt = _replay_block(blocks[t], sigma)
            if nxt is None:
                continue
            placed.add(t)
            order.append(t)
            if dfs(nxt):
                return True
            placed.discard(t)
            order.pop()
        return False

    if dfs({}):
        return tuple(e for t in order for e in blocks[t])
    return None


def _first_witness(h: History, candidates) -> Verdict:
    """Search the completions ``candidates`` of h, in order, for one with a
    legal block order."""
    for hc in candidates:
        hs = _order_search(hc)
        if hs is not None:
            return Verdict(True, sequential_witness=hs, completion_witness=hc)
    return Verdict(
        False,
        failing_prefix=len(h),
        reason="no completion admits a legal order-respecting sequential arrangement",
    )


def end_to_end_opaque(h: Sequence[Event], value_domain, bounds: OracleBounds | None = None) -> Verdict:
    """Search completions and block orders for a sequential witness."""
    h = tuple(h)
    _check_bounds(h, value_domain, bounds)
    return _first_witness(h, completions(h, value_domain))


def may_break_opacity(e: Event) -> bool:
    """Whether a history that is opaque can stop being so when e is
    appended: only a successful read response (it fixes an observed value)
    or a commit response (it fixes a transaction's fate) can."""
    return (e.ev == "resRead" and not e.abort) or e.ev == "resCommit"


def opaque(h: Sequence[Event], value_domain, bounds: OracleBounds | None = None) -> Verdict:
    """Every prefix end-to-end opaque; reports the shortest failing prefix.

    Only the prefixes that end at an event that ``may_break_opacity``, and h
    itself, are tested.  By the lemma in the module docstring, an opaque
    prefix extended by any other event stays opaque, so the shortest
    failing prefix is among those tested, and the verdict, the failing
    prefix and the witnesses are those of testing every prefix; the
    ``test_opaque_matches_every_prefix_loop_*`` tests compare the two.  The
    lemma speaks of well-formed crash-free histories; on any other input
    every prefix is tested, so that the error is raised where it always was.
    """
    h = tuple(h)
    _check_bounds(h, value_domain, bounds)
    if not any(is_crash(e) for e in h) and well_formed(h):
        return _opaque(h, tuple(value_domain))
    for k in range(len(h) + 1):
        last = end_to_end_opaque(h[:k], value_domain, bounds)
        if not last.ok:
            return last
    return last


def _opaque(h: History, vals: tuple[int, ...]) -> Verdict:
    """``opaque`` on a well-formed crash-free history within the bounds,
    which its caller has checked once for all of h: every prefix passes
    them too."""
    last = Verdict(True, sequential_witness=(), completion_witness=())
    for k in range(1, len(h) + 1):
        if k == len(h) or may_break_opacity(h[k - 1]):
            prefix = h[:k]
            last = _first_witness(prefix, completions_unchecked(prefix, vals))
            if not last.ok:
                return last
    return last


def durably_opaque(h: Sequence[Event], value_domain, bounds: OracleBounds | None = None) -> Verdict:
    """Durably well-formed and crash-erasure opaque.  The failing prefix of
    a well-formedness failure is measured in h; an opacity failing prefix is
    measured in ops(h).  The bounds and well-formedness are checked once,
    on h: ops(h) is then well-formed and crash-free, and within them."""
    h = tuple(h)
    _check_bounds(h, value_domain, bounds)
    k = first_ill_formed(h)
    if k is not None:
        return Verdict(False, failing_prefix=k, reason="history is not durably well-formed")
    return _opaque(ops(h), tuple(value_domain))


# ---------------------------------------------------------------------------
# Independent second search strategy.  Used to cross-check the canonical
# end-placement of completion responses: here every matching response is
# inserted at every position after its invocation, and candidates are tested
# with the definitional sequential() predicate over explicit block
# permutations.  Deliberately shares no search code with end_to_end_opaque,
# and computes real-time order on its own, pair by pair through
# real_time_precedes, so that A9 compares two derivations of it.

def _pending(h: History) -> list[tuple[int, Event]]:
    out = []
    for t in txn_ids(h):
        proj = project(h, t)
        if len(proj) % 2 == 1:
            pos = max(i for i, e in enumerate(h) if e.tx == t)
            out.append((pos, h[pos]))
    out.sort()
    return out


# a second statement of the matching responses, apart from the grammar table
# in ``histories`` on purpose: A9 compares two independent derivations, so
# this strategy shares no completion code with ``end_to_end_opaque``
def _responses_for(inv: Event, vals: tuple[int, ...]) -> list[Event]:
    t = inv.tx
    if inv.ev == "invBegin":
        return [res_begin(t)]
    if inv.ev == "invRead":
        return [res_read(t, v) for v in vals] + [res_read_abort(t)]
    if inv.ev == "invWrite":
        return [res_write(t), res_write_abort(t)]
    return [res_commit(t), res_commit_abort(t)]


def _insertions(seq: list[Event], items: list[tuple[int, Event]]):
    if not items:
        yield tuple(seq)
        return
    (qpos, resp), rest = items[0], items[1:]
    for i in range(qpos + 1, len(seq) + 1):
        shifted = [(p if p < i else p + 1, r) for p, r in rest]
        yield from _insertions(seq[:i] + [resp] + seq[i:], shifted)


def end_to_end_opaque_alt(h: Sequence[Event], value_domain, bounds: OracleBounds | None = None) -> bool:
    h = tuple(h)
    _check_bounds(h, value_domain, bounds)
    if not well_formed(h):
        raise ValueError("end-to-end opacity needs a well-formed crash-free history")
    vals = tuple(value_domain)
    pend = _pending(h)
    options = [[None] + _responses_for(inv, vals) for _, inv in pend]
    for combo in product(*options):
        dropped = {pos for (pos, _), c in zip(pend, combo) if c is None}
        base = [e for i, e in enumerate(h) if i not in dropped]
        kept = []
        for (pos, _), c in zip(pend, combo):
            if c is not None:
                shift = sum(1 for d in dropped if d < pos)
                kept.append((pos - shift, c))
        for hc in set(_insertions(base, kept)):
            tids = txn_ids(hc)
            prec = [
                (t1, t2)
                for t1 in tids
                for t2 in tids
                if t1 != t2 and real_time_precedes(hc, t1, t2)
            ]
            blocks = {t: project(hc, t) for t in tids}
            for perm in permutations(tids):
                rank = {t: i for i, t in enumerate(perm)}
                if any(rank[t1] > rank[t2] for t1, t2 in prec):
                    continue
                hs = tuple(e for t in perm for e in blocks[t])
                if sequential(hs):
                    return True
    return False
