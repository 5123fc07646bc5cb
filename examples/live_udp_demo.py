#!/usr/bin/env python3
"""Serve a signed zone over *real* UDP on localhost and validate answers.

Proves the wire codec and DNSSEC engine interoperate over actual
datagrams — the same code path the simulated fabric exercises in memory.

Run:  python examples/live_udp_demo.py
"""

from repro.dns import A, NS, Name, RRType, SOA, Zone, make_query
from repro.dns.message import Message
from repro.dnssec import Algorithm, KeyPair, sign_zone, validate_rrset
from repro.dnssec.validator import extract_rrsigs
from repro.server import AuthoritativeServer
from repro.wire import WireEngine

ZONE = "demo.example"


def main() -> None:
    key = KeyPair.generate(Algorithm.ED25519, ksk=True, seed=b"udp-demo")
    zone = Zone(ZONE)
    zone.add(ZONE, 3600, SOA(f"ns1.{ZONE}", f"hostmaster.{ZONE}", 2025070601))
    zone.add(ZONE, 3600, NS(f"ns1.{ZONE}"))
    zone.add(f"ns1.{ZONE}", 3600, A("127.0.0.1"))
    zone.add(f"www.{ZONE}", 300, A("192.0.2.80"))
    sign_zone(zone, [key])

    server = AuthoritativeServer("udp-demo")
    server.add_zone(zone)

    with WireEngine() as engine:
        endpoint = engine.serve_udp(server.answer_wire)
        print(f"authoritative server listening on {endpoint[0]}:{endpoint[1]}\n")

        def ask(query: Message) -> Message:
            return Message.from_wire(engine.send_udp(endpoint, query.to_wire()).result(2.0))

        query = make_query(f"www.{ZONE}", RRType.A, msg_id=1234)
        response = ask(query)
        print(f"query : www.{ZONE} A (DO bit set)")
        print(f"answer: rcode={response.rcode.name} AA={response.authoritative}")
        for rrset in response.answer:
            for line in rrset.to_text().splitlines():
                print(f"        {line}")

        a_rrset = response.get_rrset(response.answer, Name.from_text(f"www.{ZONE}"), RRType.A)
        rrsigs = extract_rrsigs(
            response.get_rrset(response.answer, Name.from_text(f"www.{ZONE}"), RRType.RRSIG)
        )
        outcome = validate_rrset(a_rrset, rrsigs, [key.dnskey()])
        print(f"\nsignature validation over UDP round trip: "
              f"{'SECURE' if outcome.ok else outcome.reason.value}")

        nx = ask(make_query(f"nope.{ZONE}", RRType.A, msg_id=1235))
        print(f"\nnonexistent name: rcode={nx.rcode.name}, "
              f"{sum(1 for r in nx.authority if int(r.rrtype) == int(RRType.NSEC))} NSEC proof(s) attached")


if __name__ == "__main__":
    main()
