"""PV4xx invariants as pure predicates over model states and events.

Each checker returns ``(rule, message)`` pairs; the explorer attaches
the counterexample trace.  Secrecy (PV401) is phrased against the
Dolev-Yao knowledge closure: everything derivable from the recorded
message pool plus the adversary's innate knowledge (public keys, its
own keypair and session values).
"""

from __future__ import annotations

from .model import (
    ATK, ATK_PK, ATK_SESS, ATK_SK_PRIV, SRV_PK,
    dev_pk, fmt, sk_for,
)

__all__ = ["close_knowledge", "is_secret", "state_violations",
           "event_violations"]


def is_secret(t) -> bool:
    """True for terms that must never reach the adversary."""
    if not isinstance(t, tuple) or not t:
        return False
    if t == ("srv", "sk") or t == ("bio-template",) \
            or t == ("reset-password",):
        return True
    if t[0] in ("devcert", "svc") and t[-1] == "sk":
        return True
    # Honest FLock session keys ("sess", <int>); ATK_SESS is the
    # adversary's own value, not a secret.
    if t[0] == "sess" and isinstance(t[-1], int):
        return True
    return False


def _base_knowledge(devices) -> frozenset:
    base = {SRV_PK, ATK, ATK_PK, ATK_SK_PRIV, ATK_SESS}
    for name in devices:
        base.add(dev_pk(name))
    return frozenset(base)


def close_knowledge(pool: frozenset, devices: tuple,
                    _memo: dict | None = None) -> frozenset:
    """Dolev-Yao closure of the adversary's knowledge.

    Decomposition rules: a message exposes its fields; a seal opens iff
    the matching private key is known; MAC and signature terms expose
    their payload (conservative — real MACs leak nothing, but the
    payload always travelled next to the tag anyway) and never their
    key.  There is no composition step: synthesized terms are modelled
    explicitly in the adversary transitions, and composition cannot
    create atoms, so secrecy only needs decomposition.
    """
    if _memo is not None and pool in _memo:
        return _memo[pool]
    known = set(_base_knowledge(devices)) | set(pool)
    frontier = list(known)
    while frontier:
        t = frontier.pop()
        if not isinstance(t, tuple) or not t:
            continue
        new: list = []
        if t[0] == "!msg":
            new.extend(v for _k, v in t[2])
        elif t[0] == "!seal":
            if sk_for(t[1]) in known:
                new.extend(t[2])
        elif t[0] in ("!mac", "!sig"):
            new.extend(t[2])
        for x in new:
            if x not in known:
                known.add(x)
                frontier.append(x)
    # Seals may become openable only after their key arrives; iterate
    # until no seal opens anew.
    changed = True
    while changed:
        changed = False
        for t in list(known):
            if (isinstance(t, tuple) and t and t[0] == "!seal"
                    and sk_for(t[1]) in known):
                for x in t[2]:
                    if x not in known:
                        known.add(x)
                        changed = True
        if changed:
            # Re-run plain decomposition over anything a seal released.
            frontier = [t for t in known]
            while frontier:
                t = frontier.pop()
                if not isinstance(t, tuple) or not t:
                    continue
                if t[0] == "!msg":
                    inner = [v for _k, v in t[2]]
                elif t[0] in ("!mac", "!sig"):
                    inner = list(t[2])
                else:
                    continue
                for x in inner:
                    if x not in known:
                        known.add(x)
                        frontier.append(x)
    result = frozenset(known)
    if _memo is not None:
        _memo[pool] = result
    return result


def state_violations(world, knowledge: frozenset):
    """Invariant checks that depend only on the reached state."""
    leaked = sorted((t for t in knowledge if is_secret(t)), key=repr)
    if leaked:
        shown = ", ".join(fmt(t) for t in leaked[:3])
        yield ("PV401",
               f"secret reaches the adversary's knowledge set: {shown}")
    for sess in world.srv.sessions:
        if sess.origin != "dev":
            yield ("PV402",
                   f"authenticated session {fmt(sess.s)} opened without "
                   "a fresh verified touch (session value "
                   f"{fmt(sess.sk)} was not minted by a FLock)")
    bound_devs = [d for d in world.devs if d.bound]
    if len(bound_devs) > 1:
        names = ", ".join(d.name for d in bound_devs)
        yield ("PV404",
               f"two devices hold records for one account: {names}")
    if world.srv.bound is not None and world.srv.bound[0] == "atkkey":
        yield ("PV404",
               "the account is bound to an adversary-controlled key")
    if world.srv.bound is None and world.srv.sessions:
        live = ", ".join(fmt(s.s) for s in world.srv.sessions)
        yield ("PV405",
               "identity was reset but authenticated sessions survive: "
               f"{live}")
    for d in world.devs:
        if d.sk is not None and d.sess is None:
            yield ("PV405",
                   f"device {d.name} holds an open FLock session key "
                   "after its login failed (error path did not clean "
                   "up)")


def event_violations(events):
    """Invariant checks on what happened during one transition."""
    for ev in events:
        if ev[0] == "forged-accept":
            _tag, handler, guard = ev
            yield ("PV403",
                   f"{handler} accepted a message its {guard} check "
                   "should have rejected (replay or forgery)")
        elif ev == ("challenge-cleared", "forged"):
            yield ("PV402",
                   "a re-authentication challenge was cleared without a "
                   "genuine FLock attestation (no verified touch behind "
                   "it)")
