"""Every number the paper publishes, and the reconciliation into a
single consistent population table.

Sources (see DESIGN.md §2 for the handling of in-paper inconsistencies):

* §4.1 / Figure 1 — global DNSSEC status split and island breakdown.
* Table 1 — per-operator status for the top-20 DNS operators.
* Table 2 — top-20 CDS publishers (count + % of portfolio).
* Table 3 — the RFC 9615 signal funnel per AB operator.
* §4.2 / §4.4 in-text counts (CDS-in-unsigned, delete sentinels, query
  failures, consistency, signal misconfiguration taxonomy).

Priority order when sections disagree: Figure 1 > Table 3 > Table 1 >
Table 2 > in-text approximations.  ``build_cells`` emits the population
cells; every constraint it relies on is re-checked with assertions so a
bad edit fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.ecosystem.spec import Cell, CdsScenario, SignalScenario, StatusScenario

# --------------------------------------------------------------------------
# Global targets (Figure 1, §4.1, §4.3).
# --------------------------------------------------------------------------

TOTAL_DOMAINS = 287_600_000

SECURE_TOTAL = 15_786_327  # Fig. 1 "Already secured"
INVALID_TOTAL = 640_048  # Fig. 1 "Invalid DNSSEC"
ISLAND_NO_CDS = 2_654_912  # Fig. 1 "Without CDS"
ISLAND_CDS_INVALID = 5  # Fig. 1 "Invalid CDS"
ISLAND_CDS_DELETE = 165_010  # Fig. 1 "CDS Delete"
BOOTSTRAPPABLE = 302_985  # Fig. 1 "Possible to bootstrap"
ISLAND_TOTAL = ISLAND_NO_CDS + ISLAND_CDS_INVALID + ISLAND_CDS_DELETE + BOOTSTRAPPABLE
UNSIGNED_TOTAL = TOTAL_DOMAINS - SECURE_TOTAL - INVALID_TOTAL - ISLAND_TOTAL

# §4.2 in-text counts.
CDS_IN_UNSIGNED = 2_854
CDS_IN_UNSIGNED_CANAL = 2_469  # Canal Dominios' misconfiguration
CDS_DELETE_UNSIGNED = 16
CDS_DELETE_SIGNED = 3_289  # signed zones with delete request, still signed
CDS_QUERY_FAILURES = 7_600_000  # NSes erroring on CDS queries
ISLAND_CDS_INCONSISTENT = 5_333
ISLAND_CDS_INCONSISTENT_MULTI = 4_637
ISLAND_CDS_NO_DNSKEY_MATCH = 7  # §4.2 (Fig. 1 prints 5; we keep 5 + 2 extra → see below)
ISLAND_CDS_BAD_SIGS = 3

# §4.4: deSEC's transiently-bogus signal responses, re-checked fine.
DESEC_TRANSIENT_SIG_FAILURES = 70

# Long-tail shape: enough small hosters that none outranks the paper's
# #20 operator (SiteGround, 1 535 176 domains).
N_MASS_OPS = 150
N_LEGACY_OPS = 8

# --------------------------------------------------------------------------
# Table 1 (reconciled; see DESIGN.md: WIX secured = 174 423,
# BlueHost invalid = 1 136, and the 7 no-DNSSEC operators' second
# column is Invalid).  Columns: unsigned, secured, invalid, islands.
# --------------------------------------------------------------------------

TABLE1: Dict[str, Tuple[int, int, int, int]] = {
    "GoDaddy": (56_326_752, 107_550, 8_550, 3_507),
    "Cloudflare": (26_541_985, 799_377, 16_694, 432_152),
    "Namecheap": (10_119_070, 126_601, 5_300, 1_615),
    "Google Domains": (5_197_647, 4_496_848, 109_499, 127_137),
    "WIX": (5_989_947, 174_423, 2_954, 1_151_200),
    "Hostinger": (6_556_301, 0, 5_360, 0),
    "AfterNIC": (5_349_129, 0, 11_034, 0),
    "HiChina": (4_628_516, 0, 9_481, 0),
    "AWS": (3_653_373, 30_005, 4_345, 10_776),
    "GName": (3_556_082, 1_145, 1_002, 572),
    "NameBright": (3_515_548, 73, 680, 2),
    "SquareSpace": (2_710_040, 24_278, 1_023, 174),
    "OVH": (1_469_425, 1_169_714, 2_839, 20_886),
    "Sedo": (2_336_383, 0, 3_645, 0),
    "BlueHost": (1_960_552, 13_188, 1_136, 1_215),
    "NameSilo": (1_846_251, 0, 1_223, 0),
    "Alibaba": (1_564_980, 2_675, 1_216, 2_032),
    "DynaDot": (1_552_431, 0, 461, 0),
    "Wordpress": (1_541_499, 7_824, 347, 60),
    "SiteGround": (1_533_874, 0, 1_302, 0),
}

# Operators that do not offer DNSSEC at all (their invalid zones stem
# from errant DS records left in the parent).
NO_DNSSEC_OPERATORS = frozenset(
    {"Hostinger", "AfterNIC", "HiChina", "Sedo", "NameSilo", "DynaDot", "SiteGround"}
)


# --------------------------------------------------------------------------
# Table 2: operators *not* already in Table 1, with (domains-with-CDS,
# % of portfolio).  Swiss operators marked for the §6 discussion.
# --------------------------------------------------------------------------

TABLE2_EXTRA: Dict[str, Tuple[int, float, bool]] = {
    "Simply.com": (218_590, 96.8, False),
    "cyon": (60_981, 48.1, True),
    "Gransy": (54_690, 98.9, False),
    "METANET": (54_522, 70.5, True),
    "Porkbun": (34_989, 3.2, False),
    "netim": (34_586, 40.9, False),
    "Gandi": (34_486, 3.6, False),
    "Webland": (26_416, 76.3, True),
    "green.ch": (24_674, 16.8, True),
    "WebHouse": (18_766, 60.0, False),
    "Vas Hosting": (13_066, 98.3, False),
    "HostFactory": (12_897, 68.4, True),
    "INWX": (11_303, 7.8, False),
    "OpenProvider": (10_312, 79.5, False),
    "AWARDIC": (8_898, 99.9, False),
    "3DNS": (8_112, 75.6, False),
}

# Table 2 rows for operators that are also in Table 1.
TABLE2_T1 = {"Google Domains": 4_624_357, "WIX": 1_326_336, "Cloudflare": 1_232_531, "GoDaddy": 111_078}


def table2_domains(name: str) -> int:
    with_cds, pct, _ = TABLE2_EXTRA[name]
    return round(with_cds / pct * 100)


# --------------------------------------------------------------------------
# Table 3: the AB signal funnel.  Column sums are used where the printed
# totals row disagrees (207/271 828 printed vs 208/271 850 summed).
# --------------------------------------------------------------------------

AB_OPERATORS = ("Cloudflare", "deSEC", "Glauca")

TABLE3 = {
    #                 Cloudflare   deSEC  Glauca  Others
    "with_signal": (1_229_568, 7_314, 290, 279),
    "already_secured": (799_169, 5_439, 233, 113),
    "cannot_total": (160_268, 20, 8, 143),
    "deletion_request": (159_503, 0, 7, 20),
    "invalid_dnssec": (765, 20, 1, 123),
    "potential": (270_131, 1_855, 49, 23),
    "incorrect": (34, 155, 1, 18),
    "correct": (270_097, 1_700, 48, 5),
}

# §4.4 breakdown of the 909 "invalid DNSSEC" signal zones, reconciled to
# hit the per-column totals (43 unsigned + 787 invalidly signed + 32
# CDS-inconsistent + 47 bad CDS signatures = 909).
TABLE3_INVALID_BREAKDOWN = {
    # reason:          (CF,  deSEC, Glauca, Others)
    "zone_unsigned": (20, 0, 0, 23),  # 43
    "zone_badsig": (713, 10, 1, 63),  # 787
    "cds_inconsistent": (17, 5, 0, 10),  # 32
    "cds_badsig": (15, 5, 0, 27),  # 47
}

# §4.4 breakdown of the 208 incorrect signal zones.
TABLE3_INCORRECT_BREAKDOWN = {
    # reason:        (CF, deSEC, Glauca, Others)
    "ns_coverage": (34, 154, 1, 17),  # 206 (CF incl. the fonswitch transient)
    "zone_cut": (0, 0, 0, 1),  # the desc.io / Afternic incident
    "sig_expired": (0, 1, 0, 0),  # the forgotten personal test zone
}


@dataclass
class PaperTargets:
    """Scaled expectations a generated world should reproduce."""

    scale: float
    cells: List[Cell] = field(default_factory=list)

    def count_where(self, **attrs) -> int:
        total = 0
        for cell in self.cells:
            if all(getattr(cell, key) == value for key, value in attrs.items()):
                total += cell.count
        return total

    @property
    def total(self) -> int:
        return sum(cell.count for cell in self.cells)


PAPER = "Misell et al., IMC 2025, doi:10.1145/3730567.3764501"


def _col(table_row: Tuple[int, int, int, int], operator: str) -> int:
    index = {"Cloudflare": 0, "deSEC": 1, "Glauca": 2, "Others": 3}[operator]
    return table_row[index]


def build_cells() -> List[Cell]:
    """Construct the full paper-scale population table.

    Every count in the returned cells is at paper scale (287.6 M zones
    total); :func:`repro.ecosystem.allocator.scale_cells` shrinks it.
    Computed once: a fresh list of the shared, frozen cells.
    """
    return list(_paper_cells())


@lru_cache(maxsize=1)
def _paper_cells() -> Tuple[Cell, ...]:
    cells: List[Cell] = []

    def add(
        operator: str,
        status: StatusScenario,
        cds: CdsScenario,
        signal: SignalScenario,
        count: int,
        preserve: bool = False,
        secondary: str | None = None,
        legacy: bool = False,
    ) -> None:
        if count < 0:
            raise AssertionError(
                f"negative cell count for {operator}/{status}/{cds}/{signal}: {count}"
            )
        if count == 0:
            return
        cells.append(
            Cell(
                operator=operator,
                status=status,
                cds=cds,
                signal=signal,
                count=count,
                preserve=preserve,
                secondary_operator=secondary,
                legacy_ns=legacy,
            )
        )

    # ---- Cloudflare (Table 1 row + Table 3 column) ----------------------
    cf_unsigned, cf_secured, cf_invalid, cf_islands = TABLE1["Cloudflare"]
    cf = lambda row: _col(TABLE3[row], "Cloudflare")  # noqa: E731
    cf_inv = {k: v[0] for k, v in TABLE3_INVALID_BREAKDOWN.items()}
    cf_bad = {k: v[0] for k, v in TABLE3_INCORRECT_BREAKDOWN.items()}

    add("Cloudflare", StatusScenario.SECURE, CdsScenario.OK, SignalScenario.OK, cf("already_secured"))
    add(
        "Cloudflare",
        StatusScenario.SECURE,
        CdsScenario.OK,
        SignalScenario.NONE,
        cf_secured - cf("already_secured"),
    )
    add("Cloudflare", StatusScenario.UNSIGNED, CdsScenario.NONE, SignalScenario.OK, cf_inv["zone_unsigned"], preserve=True)
    add(
        "Cloudflare",
        StatusScenario.UNSIGNED,
        CdsScenario.NONE,
        SignalScenario.NONE,
        cf_unsigned - cf_inv["zone_unsigned"],
    )
    add("Cloudflare", StatusScenario.INVALID_BADSIG, CdsScenario.OK, SignalScenario.NONE, cf_invalid)
    # Islands: deletes (with/without signal), bootstrappable (correct +
    # ns-coverage), invalid sub-populations, and plain no-CDS islands.
    cf_delete_total = round(ISLAND_CDS_DELETE * 0.967)  # §4.2: 96.7 % on Cloudflare
    add("Cloudflare", StatusScenario.ISLAND, CdsScenario.DELETE, SignalScenario.OK, cf("deletion_request"))
    add(
        "Cloudflare",
        StatusScenario.ISLAND,
        CdsScenario.DELETE,
        SignalScenario.NONE,
        cf_delete_total - cf("deletion_request"),
    )
    add("Cloudflare", StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.OK, cf("correct"))
    add("Cloudflare", StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.NS_COVERAGE, cf_bad["ns_coverage"], preserve=True)
    add("Cloudflare", StatusScenario.ISLAND_BADSIG, CdsScenario.OK, SignalScenario.OK, cf_inv["zone_badsig"], preserve=True)
    add(
        "Cloudflare",
        StatusScenario.ISLAND,
        CdsScenario.INCONSISTENT,
        SignalScenario.OK,
        cf_inv["cds_inconsistent"],
        preserve=True,
        secondary="MassHost-1",
    )
    add("Cloudflare", StatusScenario.ISLAND, CdsScenario.BADSIG, SignalScenario.OK, cf_inv["cds_badsig"], preserve=True)
    cf_island_no_cds = cf_islands - (
        cf_delete_total
        + cf("potential")
        + cf_inv["zone_badsig"]
        + cf_inv["cds_inconsistent"]
        + cf_inv["cds_badsig"]
    )
    add("Cloudflare", StatusScenario.ISLAND, CdsScenario.NONE, SignalScenario.NONE, cf_island_no_cds)

    # ---- deSEC (Table 3 column; portfolio = its signal population) -------
    de = lambda row: _col(TABLE3[row], "deSEC")  # noqa: E731
    de_inv = {k: v[1] for k, v in TABLE3_INVALID_BREAKDOWN.items()}
    de_bad = {k: v[1] for k, v in TABLE3_INCORRECT_BREAKDOWN.items()}
    add("deSEC", StatusScenario.SECURE, CdsScenario.OK, SignalScenario.OK, de("already_secured"))
    add("deSEC", StatusScenario.ISLAND_BADSIG, CdsScenario.OK, SignalScenario.OK, de_inv["zone_badsig"], preserve=True)
    add(
        "deSEC",
        StatusScenario.ISLAND,
        CdsScenario.INCONSISTENT,
        SignalScenario.OK,
        de_inv["cds_inconsistent"],
        preserve=True,
        secondary="MassHost-2",
    )
    add("deSEC", StatusScenario.ISLAND, CdsScenario.BADSIG, SignalScenario.OK, de_inv["cds_badsig"], preserve=True)
    correct_stable = de("correct") - DESEC_TRANSIENT_SIG_FAILURES
    add("deSEC", StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.OK, correct_stable)
    add("deSEC", StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.SIG_TRANSIENT, DESEC_TRANSIENT_SIG_FAILURES, preserve=True)
    add("deSEC", StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.NS_COVERAGE, de_bad["ns_coverage"], preserve=True)
    add("deSEC", StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.SIG_EXPIRED, de_bad["sig_expired"], preserve=True)

    # ---- Glauca Digital ----------------------------------------------------
    gl = lambda row: _col(TABLE3[row], "Glauca")  # noqa: E731
    add("Glauca", StatusScenario.SECURE, CdsScenario.OK, SignalScenario.OK, gl("already_secured"))
    add("Glauca", StatusScenario.ISLAND, CdsScenario.DELETE, SignalScenario.OK, gl("deletion_request"), preserve=True)
    add("Glauca", StatusScenario.ISLAND_BADSIG, CdsScenario.OK, SignalScenario.OK, 1, preserve=True)
    add("Glauca", StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.OK, gl("correct"))
    add("Glauca", StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.NS_COVERAGE, 1, preserve=True)

    # ---- "Others" signal zones (test setups on unknown operators) --------
    ot_inv = {k: v[3] for k, v in TABLE3_INVALID_BREAKDOWN.items()}
    ot_bad = {k: v[3] for k, v in TABLE3_INCORRECT_BREAKDOWN.items()}
    add("indie", StatusScenario.SECURE, CdsScenario.OK, SignalScenario.OK, _col(TABLE3["already_secured"], "Others"), preserve=True)
    add("indie", StatusScenario.ISLAND, CdsScenario.DELETE, SignalScenario.OK, _col(TABLE3["deletion_request"], "Others"), preserve=True)
    add("indie", StatusScenario.UNSIGNED, CdsScenario.NONE, SignalScenario.OK, ot_inv["zone_unsigned"], preserve=True)
    add("indie", StatusScenario.ISLAND_BADSIG, CdsScenario.OK, SignalScenario.OK, ot_inv["zone_badsig"], preserve=True)
    add(
        "indie",
        StatusScenario.ISLAND,
        CdsScenario.INCONSISTENT,
        SignalScenario.OK,
        ot_inv["cds_inconsistent"],
        preserve=True,
        secondary="Gandi",
    )
    add("indie", StatusScenario.ISLAND, CdsScenario.BADSIG, SignalScenario.OK, ot_inv["cds_badsig"], preserve=True)
    add(
        "indie",
        StatusScenario.ISLAND,
        CdsScenario.OK,
        SignalScenario.NS_COVERAGE,
        ot_bad["ns_coverage"],
        preserve=True,
        secondary="Gandi",  # "17 ... due to the zone having multiple DNS operators"
    )
    add("indie", StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.ZONE_CUT, ot_bad["zone_cut"], preserve=True)
    add("indie", StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.OK, _col(TABLE3["correct"], "Others"), preserve=True)

    # ---- remaining Table 1 operators ------------------------------------------
    # Non-signal bootstrappable islands: GoDaddy's islands carry CDS
    # (Table 2: GoDaddy with_cds ≈ secured + islands), the rest is spread
    # over the Table 2 CDS specialists.
    bootstrap_no_signal = BOOTSTRAPPABLE - sum(TABLE3["potential"])
    godaddy_island_cds = TABLE1["GoDaddy"][3]
    remaining_bootstrap = bootstrap_no_signal - godaddy_island_cds

    for name, (unsigned, secured, invalid, islands) in TABLE1.items():
        if name == "Cloudflare":
            continue
        add(name, StatusScenario.UNSIGNED, CdsScenario.NONE, SignalScenario.NONE, unsigned)
        cds_secured = name in TABLE2_T1 or name in ("Google Domains", "WIX")
        add(
            name,
            StatusScenario.SECURE,
            CdsScenario.OK if cds_secured else CdsScenario.NONE,
            SignalScenario.NONE,
            secured,
        )
        if name in NO_DNSSEC_OPERATORS:
            add(name, StatusScenario.INVALID_ERRANT_DS, CdsScenario.NONE, SignalScenario.NONE, invalid)
        else:
            add(name, StatusScenario.INVALID_BADSIG, CdsScenario.OK if cds_secured else CdsScenario.NONE, SignalScenario.NONE, invalid)
        if name == "GoDaddy":
            # Bootstrappable-without-signal is its own taxonomy branch:
            # keep it populated at any scale.
            add(name, StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.NONE, islands, preserve=True)
        else:
            add(name, StatusScenario.ISLAND, CdsScenario.NONE, SignalScenario.NONE, islands)

    # ---- Table 2 specialists (mostly Swiss registrar-operators) --------------
    t2_total_cds = sum(v[0] for v in TABLE2_EXTRA.values())
    allocated_bootstrap = 0
    t2_names = list(TABLE2_EXTRA)
    for i, name in enumerate(t2_names):
        with_cds, pct, _swiss = TABLE2_EXTRA[name]
        domains = table2_domains(name)
        if i == len(t2_names) - 1:
            island_ok = remaining_bootstrap - allocated_bootstrap
        else:
            island_ok = round(remaining_bootstrap * with_cds / t2_total_cds)
        allocated_bootstrap += island_ok
        island_ok = min(island_ok, with_cds)
        secured = with_cds - island_ok
        add(name, StatusScenario.ISLAND, CdsScenario.OK, SignalScenario.NONE, island_ok)
        add(name, StatusScenario.SECURE, CdsScenario.OK, SignalScenario.NONE, secured)
        add(name, StatusScenario.UNSIGNED, CdsScenario.NONE, SignalScenario.NONE, domains - with_cds)

    # ---- named rarities -----------------------------------------------------------
    add("Canal Dominios", StatusScenario.UNSIGNED, CdsScenario.UNSIGNED_CDS, SignalScenario.NONE, CDS_IN_UNSIGNED_CANAL, preserve=True)
    other_unsigned_cds = CDS_IN_UNSIGNED - CDS_IN_UNSIGNED_CANAL - CDS_DELETE_UNSIGNED
    add("MassHost-3", StatusScenario.UNSIGNED, CdsScenario.UNSIGNED_CDS, SignalScenario.NONE, other_unsigned_cds, preserve=True)
    add("MassHost-3", StatusScenario.UNSIGNED, CdsScenario.DELETE, SignalScenario.NONE, CDS_DELETE_UNSIGNED, preserve=True)
    add("MassHost-4", StatusScenario.SECURE, CdsScenario.DELETE, SignalScenario.NONE, CDS_DELETE_SIGNED, preserve=True)

    # Islands with mismatching / bogus / inconsistent CDS (§4.2, §4.3).
    add("MassHost-5", StatusScenario.ISLAND, CdsScenario.MISMATCH, SignalScenario.NONE, ISLAND_CDS_INVALID, preserve=True)
    add("MassHost-5", StatusScenario.ISLAND, CdsScenario.BADSIG, SignalScenario.NONE, ISLAND_CDS_BAD_SIGS, preserve=True)
    signal_inconsistent = sum(TABLE3_INVALID_BREAKDOWN["cds_inconsistent"])
    plain_multi = ISLAND_CDS_INCONSISTENT_MULTI - signal_inconsistent
    plain_single = ISLAND_CDS_INCONSISTENT - ISLAND_CDS_INCONSISTENT_MULTI
    add(
        "MassHost-6",
        StatusScenario.ISLAND,
        CdsScenario.INCONSISTENT,
        SignalScenario.NONE,
        plain_multi,
        preserve=True,
        secondary="MassHost-7",
    )
    add("MassHost-6", StatusScenario.ISLAND, CdsScenario.INCONSISTENT, SignalScenario.NONE, plain_single, preserve=True)

    # Island delete-requests not on Cloudflare / Glauca / indie.
    allocated_delete = (
        cf_delete_total
        + _col(TABLE3["deletion_request"], "Glauca")
        + _col(TABLE3["deletion_request"], "Others")
    )
    add("MassHost-4", StatusScenario.ISLAND, CdsScenario.DELETE, SignalScenario.NONE, ISLAND_CDS_DELETE - allocated_delete, preserve=True)

    # ---- the long tail -----------------------------------------------------------------
    # The remaining ~63 % of the dataset is spread across many small
    # hosters — each *below* SiteGround (the paper's #20, 1.54 M), so the
    # top-20 of the regenerated Table 1 stays the paper's top-20.
    # Legacy nameservers that error on CDS queries (7.6 M domains).
    legacy_per_op = CDS_QUERY_FAILURES // N_LEGACY_OPS
    for i in range(N_LEGACY_OPS):
        count = (
            legacy_per_op
            if i < N_LEGACY_OPS - 1
            else CDS_QUERY_FAILURES - (N_LEGACY_OPS - 1) * legacy_per_op
        )
        add(f"LegacyHost-{i + 1}", StatusScenario.UNSIGNED, CdsScenario.NONE, SignalScenario.NONE, count, legacy=True)

    # Residuals: whatever the named operators do not account for lands on
    # the mass hosters so the global Figure 1 totals hold exactly.
    def allocated(status: StatusScenario) -> int:
        return sum(cell.count for cell in cells if cell.status == status)

    tail_unsigned = UNSIGNED_TOTAL - allocated(StatusScenario.UNSIGNED)
    tail_secured = SECURE_TOTAL - allocated(StatusScenario.SECURE)
    tail_invalid = INVALID_TOTAL - (
        allocated(StatusScenario.INVALID_ERRANT_DS) + allocated(StatusScenario.INVALID_BADSIG)
    )
    tail_islands = ISLAND_TOTAL - (
        allocated(StatusScenario.ISLAND) + allocated(StatusScenario.ISLAND_BADSIG)
    )
    assert tail_unsigned >= 0, tail_unsigned
    assert tail_secured >= 0, tail_secured
    assert tail_invalid >= 0, tail_invalid
    assert tail_islands >= 0, tail_islands

    mass_ops = [f"MassHost-{i + 1}" for i in range(N_MASS_OPS)]
    for i, op in enumerate(mass_ops):
        share = lambda total: total // len(mass_ops) if i < len(mass_ops) - 1 else total - (total // len(mass_ops)) * (len(mass_ops) - 1)  # noqa: E731
        add(op, StatusScenario.UNSIGNED, CdsScenario.NONE, SignalScenario.NONE, share(tail_unsigned))
        add(op, StatusScenario.SECURE, CdsScenario.NONE, SignalScenario.NONE, share(tail_secured))
        add(op, StatusScenario.INVALID_ERRANT_DS, CdsScenario.NONE, SignalScenario.NONE, share(tail_invalid) // 2)
        add(op, StatusScenario.INVALID_BADSIG, CdsScenario.OK, SignalScenario.NONE, share(tail_invalid) - share(tail_invalid) // 2)
        add(op, StatusScenario.ISLAND, CdsScenario.NONE, SignalScenario.NONE, share(tail_islands))

    # Rounding dust from the per-op integer shares.
    dust = TOTAL_DOMAINS - sum(cell.count for cell in cells)
    assert abs(dust) < 2 * N_MASS_OPS, dust
    if dust > 0:
        add("MassHost-1", StatusScenario.UNSIGNED, CdsScenario.NONE, SignalScenario.NONE, dust)

    _check_invariants(cells)
    return tuple(cells)


def _check_invariants(cells: List[Cell]) -> None:
    def total(**attrs) -> int:
        out = 0
        for cell in cells:
            if all(getattr(cell, key) == value for key, value in attrs.items()):
                out += cell.count
        return out

    assert sum(cell.count for cell in cells) == TOTAL_DOMAINS
    assert total(status=StatusScenario.SECURE) == SECURE_TOTAL
    invalid = total(status=StatusScenario.INVALID_ERRANT_DS) + total(status=StatusScenario.INVALID_BADSIG)
    assert invalid == INVALID_TOTAL, invalid
    islands = total(status=StatusScenario.ISLAND) + total(status=StatusScenario.ISLAND_BADSIG)
    assert islands == ISLAND_TOTAL, islands
    # Table 3 column checks.
    for op_index, op in enumerate(("Cloudflare", "deSEC", "Glauca", "indie")):
        paper_col = ("Cloudflare", "deSEC", "Glauca", "Others")[op_index]
        with_signal = sum(
            cell.count
            for cell in cells
            if cell.operator == op and cell.signal != SignalScenario.NONE
        )
        assert with_signal == _col(TABLE3["with_signal"], paper_col), (op, with_signal)
