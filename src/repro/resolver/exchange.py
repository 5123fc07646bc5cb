"""The one retrying exchange step behind every measurement query.

The scanner's point queries and the resolver's delegation walk both ask
"one address, one question" through :meth:`Exchanger.ask`: one message-id
counter, one ``(qname, qtype)`` → wire-template cache, one rate-limiter
charge per datagram *and* per TCP retry (the paper's 50 qps/NS budget
covers all measurement traffic), one RFC 7766 truncation fallback, one
capped-backoff retry loop.  It is a step generator (:mod:`repro.sched`):
the limiter deficit and the backoff are yielded as sleeps, the query as
an exchange, so nothing here touches the network or the clock.

The *asker* — the :class:`~repro.scanner.yodns.Scanner` or the
:class:`~repro.resolver.iterative.IterativeResolver` — brings what
differs between the two: its ``limiter`` (optional), its ``retry``
policy and the ``retry_key`` that namespaces its backoff jitter stream,
and the ``retry_attempts`` / ``retry_backoff_seconds`` counters charged.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.dns.message import Message, Question, make_query
from repro.dns.name import Name
from repro.dns.types import Rcode, RRType
from repro.sched import Exchange, Sleep
from repro.server.network import NetworkTimeout

_TEMPLATE_CACHE_MAX = 2048
# Simulated seconds a query waits for its answer before it counts as lost.
QUERY_TIMEOUT = 2.0


class Exchanger:
    """Shared by a scanner and its resolver (or owned by a lone resolver)."""

    def __init__(self):
        self.tcp_fallbacks = 0
        self._msg_id = 0
        # (qname, qtype) -> (question, wire encoded with id 0).  The same
        # question is asked of every selected server address, so it is
        # encoded once and each datagram patches in its own 2-byte id.
        # Reuse is temporally local (within one zone's scan), so the
        # cache is simply cleared when it grows large.
        self._templates: Dict[Tuple[Name, int], Tuple[Question, bytes]] = {}

    def _template(self, qname: Name, qtype: RRType) -> Tuple[Question, bytes]:
        key = (qname, int(qtype))
        entry = self._templates.get(key)
        if entry is None:
            if len(self._templates) >= _TEMPLATE_CACHE_MAX:
                self._templates.clear()
            query = make_query(qname, qtype, msg_id=0)
            entry = self._templates[key] = (query.question, query.to_wire())
        return entry

    def ask(
        self, asker, ip: str, qname: Name, qtype: RRType
    ) -> Generator[object, object, Tuple[Optional[Message], Optional[NetworkTimeout]]]:
        """Ask *ip* one question under *asker*'s retry policy.

        Timeouts — and, when the policy says so, SERVFAILs — are retried
        with capped exponential backoff on the simulated clock, bounded
        by the policy's per-query budget; every datagram and every TCP
        retry of a truncated answer (RFC 7766) is paced.  Returns
        ``(response, timeout)``: the most recent *response-bearing*
        outcome (``None`` exactly when every attempt timed out — a
        property of the server being dead, not of fault interleaving),
        and the :class:`NetworkTimeout` of the final attempt if that is
        how it ended.
        """
        policy = asker.retry
        limiter = asker.limiter
        question, template = self._template(qname, qtype)
        key: Optional[str] = None
        waited = 0.0
        last: Optional[Message] = None
        timeout: Optional[NetworkTimeout] = None
        for attempt in range(policy.attempts):
            if attempt:
                if key is None:
                    key = f"{asker.retry_key}{ip}/{qname.to_text()}/{int(qtype)}"
                wait = policy.backoff(attempt, key, waited)
                if wait is None:
                    break  # per-query backoff budget exhausted
                if wait:
                    yield Sleep(wait)
                    waited += wait
                    asker.retry_backoff_seconds += wait
                asker.retry_attempts += 1
            self._msg_id = (self._msg_id + 1) & 0xFFFF
            wire = self._msg_id.to_bytes(2, "big") + template[2:]
            tcp = False
            try:
                while True:
                    if limiter is not None:
                        wait = limiter.reserve(ip)
                        if wait:
                            yield Sleep(wait)
                    response = yield Exchange(ip, question, wire, tcp, QUERY_TIMEOUT)
                    if tcp or not response.truncated:
                        break
                    self.tcp_fallbacks += 1
                    tcp = True
            except NetworkTimeout as exc:
                # Kept as a value, never re-raised: drop the traceback,
                # whose frames (this one among them) would otherwise hold
                # it — and the whole world — in a reference cycle.
                timeout = exc.with_traceback(None)
                continue
            last, timeout = response, None
            if (
                policy.retry_servfail
                and response.rcode == Rcode.SERVFAIL
                and attempt + 1 < policy.attempts
            ):
                continue  # transient-SERVFAIL model: retry this address
            break
        return last, timeout
