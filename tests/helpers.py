"""Hand-built miniature DNS world used across server/resolver/scanner tests.

Independent of the ecosystem generator so substrate tests don't depend on
higher layers.  The topology:

* root zone (signed) on 198.41.0.4, delegating ``com`` (signed, DS) and
  ``net`` (signed, DS)
* ``com`` registry on 192.5.6.30, delegating:
    - ``example.com``  — signed, DS present (SECURE)
    - ``unsigned.com`` — no DNSSEC
    - ``island.com``   — signed, no DS (secure island) + CDS published
    - ``broken.com``   — signed, DS present, but signatures corrupted (BOGUS)
* ``net`` registry on 192.5.6.31, delegating ``opdns.net`` (the operator's
  nameserver-hostname zone, unsigned) with glue
* operator server on 203.0.113.10 / 203.0.113.11 hosting all customer
  zones, ``opdns.net``, and the RFC 9615 signal zones under the NS names
"""

from __future__ import annotations

from repro.dns.name import Name
from repro.dns.rdata import A, AAAA, NS, SOA, TXT
from repro.dns.rrset import RRset
from repro.dns.types import RRType
from repro.dns.zone import Zone
from repro.dnssec import Algorithm, KeyPair, ds_from_dnskey, sign_zone
from repro.dnssec.ds import cds_from_dnskey
from repro.dnssec.signer import corrupt_signature
from repro.server.nameserver import AuthoritativeServer
from repro.server.network import SimulatedNetwork

ROOT_IP = "198.41.0.4"
COM_IP = "192.5.6.30"
NET_IP = "192.5.6.31"
OP_IP_1 = "203.0.113.10"
OP_IP_2 = "203.0.113.11"

NS1 = "ns1.opdns.net"
NS2 = "ns2.opdns.net"


def _soa(origin: str) -> SOA:
    return SOA(f"ns1.{origin}", f"hostmaster.{origin}", 2025_01_01)


def make_key(name: str, ksk: bool = False) -> KeyPair:
    return KeyPair.generate(Algorithm.ED25519, ksk=ksk, seed=name.encode())


def build_mini_world():
    """Return a dict with the network, servers, zones, and keys."""
    network = SimulatedNetwork()

    keys = {
        "root": make_key("root", ksk=True),
        "com": make_key("com", ksk=True),
        "net": make_key("net", ksk=True),
        "example.com": make_key("example.com", ksk=True),
        "island.com": make_key("island.com", ksk=True),
        "broken.com": make_key("broken.com", ksk=True),
    }

    # --- customer zones (hosted by the operator) -------------------------
    def customer_zone(origin: str, extra=None) -> Zone:
        zone = Zone(origin)
        zone.add(origin, 3600, _soa(origin))
        zone.add(origin, 3600, NS(NS1))
        zone.add(origin, 3600, NS(NS2))
        zone.add(f"www.{origin}", 300, A("192.0.2.80"))
        if extra:
            extra(zone)
        return zone

    example_com = customer_zone("example.com")
    sign_zone(example_com, [keys["example.com"]])

    unsigned_com = customer_zone("unsigned.com")

    island_com = customer_zone("island.com")
    sign_zone(island_com, [keys["island.com"]])
    island_cds = cds_from_dnskey(
        Name.from_text("island.com"), keys["island.com"].dnskey()
    )
    island_com.add_rrset(RRset("island.com", RRType.CDS, 3600, [island_cds]))
    # Re-sign just the CDS RRset (simplest: sign manually).
    from repro.dnssec.signer import sign_rrset

    cds_rrset = island_com.get_rrset("island.com", RRType.CDS)
    sig = sign_rrset(cds_rrset, keys["island.com"], Name.from_text("island.com"))
    island_com.add_rrset(RRset("island.com", RRType.RRSIG, 3600, [sig]))

    broken_com = customer_zone("broken.com")
    sign_zone(broken_com, [keys["broken.com"]])
    # Corrupt every signature.
    for name in list(broken_com.names()):
        sig_rrset = broken_com.get_rrset(name, RRType.RRSIG)
        if sig_rrset is None:
            continue
        corrupted = RRset(
            name, RRType.RRSIG, sig_rrset.ttl, [corrupt_signature(s) for s in sig_rrset.rdatas]
        )
        broken_com.remove_rrset(name, RRType.RRSIG)
        broken_com.add_rrset(corrupted)

    # --- operator NS hostname zone + signal zones ------------------------------
    keys["opdns.net"] = make_key("opdns.net", ksk=True)
    opdns = Zone("opdns.net")
    opdns.add("opdns.net", 3600, _soa("opdns.net"))
    opdns.add("opdns.net", 3600, NS(NS1))
    opdns.add("opdns.net", 3600, NS(NS2))
    for host, ip4, ip6 in ((NS1, OP_IP_1, "2001:db8::10"), (NS2, OP_IP_2, "2001:db8::11")):
        opdns.add(host, 3600, A(ip4))
        opdns.add(host, 3600, AAAA(ip6))
    # Signal zones (_signal.ns1.opdns.net) carrying island.com's CDS,
    # securely delegated from opdns.net so the RFC 9615 chain validates.
    signal_zones = []
    for ns_host in (NS1, NS2):
        origin = Name.from_text(f"_signal.{ns_host}")
        signal_key = make_key(f"signal-{ns_host}", ksk=True)
        keys[origin.to_text()] = signal_key
        signal = Zone(origin)
        signal.add(origin, 3600, _soa(origin.to_text().rstrip(".")))
        signal.add(origin, 3600, NS(NS1))
        signal.add(origin, 3600, NS(NS2))
        boot_name = Name.from_text("_dsboot.island.com").concatenate(origin)
        signal.add_rrset(RRset(boot_name, RRType.CDS, 3600, [island_cds]))
        sign_zone(signal, [signal_key])
        signal_zones.append(signal)
        opdns.add(origin, 3600, NS(NS1))
        opdns.add(origin, 3600, NS(NS2))
        opdns.add(origin, 3600, ds_from_dnskey(origin, signal_key.dnskey()))
    sign_zone(opdns, [keys["opdns.net"]])

    # --- registries -----------------------------------------------------------------
    com = Zone("com")
    com.add("com", 3600, _soa("com"))
    com.add("com", 3600, NS("a.gtld-servers.net"))
    for child, zone_keys in (
        ("example.com", keys["example.com"]),
        ("broken.com", keys["broken.com"]),
    ):
        com.add(child, 3600, NS(NS1))
        com.add(child, 3600, NS(NS2))
        com.add(child, 3600, ds_from_dnskey(Name.from_text(child), zone_keys.dnskey()))
    for child in ("unsigned.com", "island.com"):
        com.add(child, 3600, NS(NS1))
        com.add(child, 3600, NS(NS2))
    sign_zone(com, [keys["com"]])

    net = Zone("net")
    net.add("net", 3600, _soa("net"))
    net.add("net", 3600, NS("a.gtld-servers.net"))
    net.add("opdns.net", 3600, NS(NS1))
    net.add("opdns.net", 3600, NS(NS2))
    net.add("opdns.net", 3600, ds_from_dnskey(Name.from_text("opdns.net"), keys["opdns.net"].dnskey()))
    net.add(NS1, 3600, A(OP_IP_1))  # glue
    net.add(NS2, 3600, A(OP_IP_2))
    sign_zone(net, [keys["net"]])

    root = Zone(".")
    root.add(".", 3600, SOA("a.root-servers.net", "nstld.verisign-grs.com", 2025010101))
    root.add(".", 3600, NS("a.root-servers.net"))
    root.add("a.root-servers.net", 3600, A(ROOT_IP))
    for tld, key in (("com", keys["com"]), ("net", keys["net"])):
        root.add(tld, 3600, NS("a.gtld-servers.net"))
        root.add(tld, 3600, ds_from_dnskey(Name.from_text(tld), key.dnskey()))
    # Glue for the shared registry host (com on one IP, net on another is
    # modelled by registering both IPs to the respective servers below).
    root.add("a.gtld-servers.net", 3600, A(COM_IP))
    sign_zone(root, [keys["root"]])

    # --- servers -------------------------------------------------------------------------
    root_server = AuthoritativeServer("root")
    root_server.add_zone(root)

    com_server = AuthoritativeServer("registry-com")
    com_server.add_zone(com)
    net_server = AuthoritativeServer("registry-net")
    net_server.add_zone(net)

    operator = AuthoritativeServer("operator")
    for zone in (example_com, unsigned_com, island_com, broken_com, opdns, *signal_zones):
        operator.add_zone(zone)

    network.register(ROOT_IP, root_server)
    network.register(COM_IP, com_server)
    network.register(NET_IP, net_server)
    # The registry host serves com and net from the same address in the
    # root glue; register the com IP for both servers' zones by merging.
    com_server.add_zone(net)
    network.register(OP_IP_1, operator)
    network.register(OP_IP_2, operator)
    network.register("2001:db8::10", operator)
    network.register("2001:db8::11", operator)

    return {
        "network": network,
        "root_ips": [ROOT_IP],
        "keys": keys,
        "zones": {
            "root": root,
            "com": com,
            "net": net,
            "example.com": example_com,
            "unsigned.com": unsigned_com,
            "island.com": island_com,
            "broken.com": broken_com,
            "opdns.net": opdns,
        },
        "servers": {
            "root": root_server,
            "com": com_server,
            "operator": operator,
        },
        "island_cds": island_cds,
    }


def run_with_faults(config, faults):
    """Run a ``workers=N`` campaign with worker *faults* injected
    (``{worker index: crash after N zones}``, the hook of
    :func:`repro.parallel.engine.scan_with_workers`)."""
    from repro.campaign import _execute

    return _execute(config, None, resume=False, faults=faults)


def folded(report):
    """The sum of *report*'s per-zone contributions, recomputed."""
    from collections import Counter

    from repro.core.pipeline import contribution

    total = Counter()
    for verdict in report.verdicts:
        total.update(contribution(verdict))
    return total


def run_recording_rescans(config):
    """Run an in-memory campaign; return it with the records its §4.4
    re-check scanned (every ``assess_zone`` call of ``recheck_pass``)."""
    import pytest

    import repro.campaign as campaign_module

    rescanned = []
    assess = campaign_module.assess_zone

    def recording(result):
        rescanned.append(result)
        return assess(result)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign_module, "assess_zone", recording)
        campaign = campaign_module.run_campaign(config)
    return campaign, rescanned


def assert_rescans_change_only_the_signal(campaign, rescanned):
    """The re-check keeps a zone's first verdict but for its signal
    report and outcome: pin that nothing else a rescan sees differs."""
    from repro.core.pipeline import zone_verdict

    db = campaign.world.operator_db
    first = {result.zone: zone_verdict(result, db) for result in campaign.results}
    assert rescanned
    for result in rescanned:
        was, now = first[result.zone], zone_verdict(result, db)
        zone = was.assessment.zone
        assert now.assessment.status == was.assessment.status, zone
        assert now.assessment.eligibility == was.assessment.eligibility, zone
        assert now.assessment.cds == was.assessment.cds, zone
        assert now.attribution == was.attribution, zone
        assert now.signal_operator == was.signal_operator, zone
