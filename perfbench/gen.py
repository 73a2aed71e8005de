"""Seeded inputs for the smnsim benchmark.

Every input is plain text in the formats the ``smnsim`` CLI reads, and the
same seed always gives byte-identical text:

* ``topology(seed)``: a depth-3 / degree-9 tree of 91 nodes -- one root
  management node, nine site management nodes and 81 devices of mixed kinds
  -- plus the asset table, classification map and vulnerability map.
* ``idle_scenario(seed)``: no directives, only enough drain to run
  ``SPAN_TICKS`` ticks.
* ``attack_scenario(seed)``: about ``ATTACK_EMITS`` emits over the same span.
* ``storm_events(seed)``: an event-line trace for ``smnsim correlate`` with
  ``STORM_PAIRS`` concurrent endpoint pairs.

Write the files for a hand replay with::

    python3 perfbench/gen.py --seed 1 --out inputs
    smnsim simulate --topology inputs/topology.cfg --scenario inputs/attack.scn --out report
    smnsim correlate --config inputs/topology.cfg --events inputs/storm.events
"""

from __future__ import annotations

import argparse
import os
import random

DEGREE = 9
SPAN_TICKS = 1200  # ticks 0 .. SPAN_TICKS - 1
LAST_EMIT_TICK = 1030  # leaves enough drain for sessions to end and report
ATTACK_EMITS = 8_000
STORM_PAIRS = 1_000
STORM_EVENTS = 1_000  # events after every pair has connected

_SPARE_KINDS = ("Firewall", "IDS", "AntiVirus", "Scanner", "HostMonitor")
_VULNS = ("CVE-2014-7", "CVE-2015-3", "CVE-2016-1")
_CLASSIFY = (
    ("IDS sig.2001", "exploit.attempt"),
    ("IDS sig.2002", "exploit.overflow"),
    ("IDS sig.3001", "recon.probe"),
    ("Firewall fw.deny", "access.denied"),
    ("AntiVirus av.trojan", "malware.dropper"),
    ("AntiVirus av.adware", "malware.adware"),
    ("Scanner scan.vuln", "vuln.found"),
    ("HostMonitor hm.login", "auth.failure"),
)
_VULNMAP = (
    ("exploit.attempt", "CVE-2014-7"),
    ("exploit.overflow", "CVE-2016-1"),
    ("malware.dropper", "CVE-2015-3"),
)
#: Native classes a device of each kind reports outside any session.
_LONE_CLASSES = {
    "Firewall": ("fw.deny",),
    "IDS": ("sig.2001", "sig.2002", "sig.3001"),
    "AntiVirus": ("av.trojan", "av.adware"),
    "Scanner": ("scan.vuln",),
    "HostMonitor": ("hm.login",),
}
_HIT_CLASSES = ("sig.2001", "sig.2002", "sig.3001")
#: IDS hits per session, taken in turn; port-scan sizes likewise run 10..16.
_SESSION_HITS = (0, 2, 3, 4, 5, 6)
SERVERS_PER_SITE = 10
LATERAL_HOSTS_PER_SITE = 20


def _server(site: int, n: int) -> str:
    return f"10.1.{site}.{n}"


def _lateral_host(site: int, n: int) -> str:
    return f"10.3.{site}.{n}"


def _workstation(rng: random.Random, site: int) -> str:
    """An address outside the asset table: asset value 1."""
    return f"10.2.{site}.{rng.randint(1, 250)}"


def device_kinds(seed: int) -> dict[tuple[int, int], str]:
    """Kind of device ``1.site.slot``; slot 1 is a firewall, slot 2 an IDS."""
    rng = random.Random(f"kinds-{seed}")
    kinds = {}
    for site in range(1, DEGREE + 1):
        kinds[(site, 1)] = "Firewall"
        kinds[(site, 2)] = "IDS"
        for slot in range(3, DEGREE + 1):
            kinds[(site, slot)] = rng.choice(_SPARE_KINDS)
    return kinds


def topology(seed: int) -> str:
    rng = random.Random(f"topology-{seed}")
    kinds = device_kinds(seed)
    out = [
        f"# smnsim benchmark topology, seed {seed}: 1 root, {DEGREE} sites,",
        f"# {DEGREE * DEGREE} devices.",
        "",
        "[tree]",
        "depth = 3",
        f"degree = {DEGREE}",
        "",
        "[heartbeat]",
        "network_test_interval = 5",
        "state_pkg_interval = 8",
        "network_test_timeout = 30",
        "state_pkg_timeout = 20",
        "",
        "[pipeline]",
        "validation_threshold = 5",
        "similarity_weights = 0.25,0.25,0.15,0.25,0.10",
        "merge_threshold = 0.7",
        "time_horizon = 300",
        "window_ticks = 10",
        "portscan_threshold = 10",
        "grace = 60",
        "connect_ttl = 600",
        "report_interval = 50",
        "command_delay = 3",
        "",
        "[node 1.0.0]",
        "kind = SMN",
        "label = hq",
    ]
    for site in range(1, DEGREE + 1):
        out += ["", f"[node 1.{site}.0]", "kind = SMN", f"label = site-{site}"]
        for slot in range(1, DEGREE + 1):
            out += [
                "",
                f"[node 1.{site}.{slot}]",
                f"kind = {kinds[(site, slot)]}",
                f"ip = 10.0.{site}.{slot}",
                f"asset_value = {rng.randint(1, 5)}",
            ]
            if rng.random() < 0.3:
                out.append(f"vulnerabilities = {rng.choice(_VULNS)}")
    out += ["", "[filter]", "drop = kind=HostMonitor class=hm.heartbeat", "", "[classify]"]
    out += [f"{native} = {canonical}" for native, canonical in _CLASSIFY]
    out += ["", "[vulnmap]"]
    out += [f"{canonical} = {cve}" for canonical, cve in _VULNMAP]
    out += ["", "[assets]"]
    for site in range(1, DEGREE + 1):
        for n in range(1, SERVERS_PER_SITE + 1):
            vulns = sorted(v for v in _VULNS if rng.random() < 0.4)
            out.append(f"{_server(site, n)} = {rng.randint(2, 5)} {','.join(vulns)}".rstrip())
        for n in range(1, LATERAL_HOSTS_PER_SITE + 1):
            out.append(f"{_lateral_host(site, n)} = {rng.randint(2, 4)}")
    return "\n".join(out) + "\n"


def idle_scenario(seed: int) -> str:
    return (
        f"# smnsim benchmark fleet-idle scenario: no directives, {SPAN_TICKS} ticks.\n"
        f"seed = {seed}\ndrain = {SPAN_TICKS - 1}\n"
    )


class _AttackBuilder:
    """Collects emit directives; they are sorted by tick when rendered."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"attack-{seed}")
        self.kinds = device_kinds(seed)
        self.emits: list[tuple[int, int, str]] = []
        self.session_src = 0
        self.prober = 0

    def emit(self, tick: int, device: str, cls: str, src: str, dst: str, sev: int) -> None:
        line = f"at {tick} emit {device} class={cls} src={src} dst={dst} sev={sev}"
        self.emits.append((tick, len(self.emits), line))

    def session(self, start: int) -> None:
        """Connect/disconnect bracket from the site firewall with IDS hits
        inside. Every session has its own source address, so live session
        keys never collide."""
        rng = self.rng
        site = rng.randint(1, DEGREE)
        self.session_src += 1
        src = f"172.16.{self.session_src // 250}.{self.session_src % 250 + 1}"
        sport = rng.randint(1024, 65535)
        dst = _server(site, rng.randint(1, SERVERS_PER_SITE))
        dur = rng.randint(15, 60)
        start = min(start, LAST_EMIT_TICK - dur)
        fw, ids = f"1.{site}.1", f"1.{site}.2"
        self.emit(start, fw, "fw.connect", f"{src}:{sport}", f"{dst}:80", 1)
        for _ in range(_SESSION_HITS[self.session_src % len(_SESSION_HITS)]):
            t = rng.randint(start, start + dur - 1)
            self.emit(t, ids, rng.choice(_HIT_CLASSES), f"{src}:{sport}", f"{dst}:80",
                      rng.randint(3, 5))
        self.emit(start + dur, fw, "fw.disconnect", f"{src}:{sport}", f"{dst}:80", 1)

    def portscan(self, start: int) -> None:
        """Enough distinct target ports inside one aggregation window that
        the device collapses them into one port-scan record."""
        rng = self.rng
        site = rng.randint(1, DEGREE)
        self.prober += 1
        src = f"203.0.{self.prober // 250}.{self.prober % 250 + 1}"
        dst = _server(site, rng.randint(1, SERVERS_PER_SITE))
        device, cls = rng.choice(((f"1.{site}.1", "fw.deny"), (f"1.{site}.2", "sig.3001")))
        window = min(start // 10, LAST_EMIT_TICK // 10 - 1) * 10
        for port in rng.sample(range(1, 1024), 10 + self.prober % 7):
            self.emit(window + rng.randint(1, 9), device, cls, f"{src}:{rng.randint(1024, 65535)}",
                      f"{dst}:{port}", rng.randint(2, 3))

    def _device(self) -> tuple[int, str, str]:
        site = self.rng.randint(1, DEGREE)
        slot = self.rng.randint(1, DEGREE)
        return site, f"1.{site}.{slot}", self.kinds[(site, slot)]

    def lone(self, start: int) -> None:
        rng = self.rng
        site, device, kind = self._device()
        src = f"198.51.{site}.{rng.randint(1, 8)}:{rng.randint(1024, 65535)}"
        dst = f"{_server(site, rng.randint(1, SERVERS_PER_SITE))}:{rng.choice((22, 80, 443, 3389))}"
        self.emit(start, device, rng.choice(_LONE_CLASSES[kind]), src, dst, rng.randint(2, 5))

    def below_threshold(self, start: int) -> None:
        """Low severity against an unlisted workstation scores under the
        validation threshold; host-monitor heartbeats are filtered on the
        device before they are even sent."""
        rng = self.rng
        site, device, kind = self._device()
        cls = rng.choice(_LONE_CLASSES[kind])
        if kind == "HostMonitor" and rng.random() < 0.3:
            cls = "hm.heartbeat"
        src = f"198.51.{rng.randint(100, 199)}.{rng.randint(1, 250)}:{rng.randint(1024, 65535)}"
        dst = f"{_workstation(rng, site)}:{rng.choice((139, 445))}"
        self.emit(start, device, cls, src, dst, rng.randint(1, 4))

    def render(self, seed: int) -> str:
        self.emits.sort()
        last = self.emits[-1][0]
        head = [
            f"# smnsim benchmark fleet-attack scenario, {len(self.emits)} emits.",
            f"seed = {seed}",
            f"drain = {SPAN_TICKS - 1 - last}",
        ]
        return "\n".join(head + [line for _, _, line in self.emits]) + "\n"


def attack_scenario(seed: int) -> str:
    """About 40% of emits in sessions (5.33 emits each on average), 25% in
    port scans (13 each), 20% lone alerts and 15% under the threshold.

    Each kind has a fixed item count, and item ``i`` of ``n`` starts at a
    random tick inside the ``i``-th of ``n`` equal slices of the span. So
    every window carries about the same load, whatever the seed."""
    b = _AttackBuilder(seed)
    for make, emits_each, share in (
        (b.session, 16 / 3, 0.40),
        (b.portscan, 13, 0.25),
        (b.lone, 1, 0.20),
        (b.below_threshold, 1, 0.15),
    ):
        n = round(ATTACK_EMITS * share / emits_each)
        for i in range(n):
            make(1 + int((i + b.rng.random()) * (LAST_EMIT_TICK - 1) / n))
    return b.render(seed)


def _event_line(ev_id: str, analyzer: str, kind: str, time: int, cls: str,
                src: str, sport: int, dst: str, dport: int, sev: int, conn: str) -> str:
    return (
        f'<event id="{ev_id}" analyzer="{analyzer}" kind="{kind}" time="{time}" '
        f'class="{cls}" src="{src}" sport="{sport}" dst="{dst}" dport="{dport}" '
        f'sev="{sev}" count="1" conn="{conn}"/>'
    )


def storm_events(seed: int) -> str:
    """Correlation stress: every pair connects early and most stay open, so
    live alerts and their queues only grow. Ordinary events hit a pair's
    target directly, move laterally from it to internal hosts and onward
    from those hosts; some pairs disconnect and later reconnect. A share of
    events matches nothing (independent) or scores under the threshold."""
    rng = random.Random(f"storm-{seed}")
    seq: dict[str, int] = {}
    lines: list[tuple[int, int, str]] = []

    def add(time: int, site: int, kind: str, cls: str, src: str, dst: str, sev: int,
            conn: str = "none", sport: int = 0, dport: int = 0) -> None:
        analyzer = f"1.{site}.{1 if kind == 'Firewall' else 2}"
        seq[analyzer] = seq.get(analyzer, 0) + 1
        ev_id = f"{analyzer}-{seq[analyzer]}"
        lines.append((time, len(lines), _event_line(
            ev_id, analyzer, kind, time, cls, src, sport or rng.randint(1024, 65535),
            dst, dport or rng.choice((22, 80, 443)), sev, conn)))

    ramp = 300
    # Connect ticks spread evenly over the ramp (one per equal slice, dealt
    # to pairs in random order), so no ramp tick gets much more than its share.
    starts = [int((i + rng.random()) * (ramp - 10) / STORM_PAIRS) for i in range(STORM_PAIRS)]
    rng.shuffle(starts)
    pairs = []
    for i, start in enumerate(starts):
        site = rng.randint(1, DEGREE)
        src = f"172.{16 + i // 62500}.{i // 250 % 250}.{i % 250 + 1}"
        dst = _server(site, rng.randint(1, SERVERS_PER_SITE))
        add(start, site, "Firewall", "fw.connect", src, dst, 1, "connect", dport=80)
        add(start + 1, site, "IDS", "exploit.attempt", src, dst, 4)
        pairs.append({"site": site, "src": src, "dst": dst, "hosts": [], "up": True})

    hot = STORM_PAIRS // 10  # most events go to these pairs, so their queues grow long
    span = 3 * ramp + STORM_EVENTS // 4
    for n in range(STORM_EVENTS):
        t = ramp + n * (span - ramp) // STORM_EVENTS
        p = rng.choice(pairs[:hot] if rng.random() < 0.7 else pairs)
        site = p["site"]
        roll = rng.random()
        if roll < 0.05:
            stranger = f"198.51.{rng.randint(0, 99)}.{rng.randint(1, 250)}"
            add(t, site, "IDS", "recon.probe", stranger, _server(site, 1), 3)
        elif roll < 0.15:
            add(t, site, "IDS", "recon.probe", p["src"], _workstation(rng, site), 1)
        elif not p["up"] and t > p["down_at"]:
            # reconnect from a fresh source port; the old alert has ended
            add(t, site, "Firewall", "fw.connect", p["src"], p["dst"], 1, "connect", dport=80)
            add(t, site, "IDS", "exploit.attempt", p["src"], p["dst"], 4)
            p["up"] = True
        elif not p["up"]:
            add(t, site, "IDS", "recon.probe", p["src"], _workstation(rng, site), 1)
        elif roll < 0.18:
            add(t, site, "Firewall", "fw.disconnect", p["src"], p["dst"], 1, "disconnect",
                dport=80)
            p["up"] = False
            p["down_at"] = t
            p["hosts"] = []
        elif roll < 0.55:
            add(t, site, "IDS", rng.choice(("exploit.attempt", "exploit.overflow")),
                p["src"], p["dst"], rng.randint(3, 5))
        elif roll < 0.75 or not p["hosts"]:
            host = _lateral_host(site, rng.randint(1, LATERAL_HOSTS_PER_SITE))
            add(t, site, "IDS", "exploit.attempt", p["dst"], host, rng.randint(3, 5))
            p["hosts"].append(host)
        else:
            hop = _lateral_host(site, rng.randint(1, LATERAL_HOSTS_PER_SITE))
            add(t, site, "IDS", "exploit.overflow", rng.choice(p["hosts"]), hop,
                rng.randint(3, 5))
            p["hosts"].append(hop)
    lines.sort()
    return "\n".join(line for _, _, line in lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input files")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    files = {
        "topology.cfg": topology(args.seed),
        "idle.scn": idle_scenario(args.seed),
        "attack.scn": attack_scenario(args.seed),
        "storm.events": storm_events(args.seed),
    }
    for name, text in files.items():
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"wrote {', '.join(files)} to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
