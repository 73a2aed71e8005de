"""The visit-every-node tick loop, kept as the reference for the agenda.

``ReferenceSimulation.run`` is the loop ``Simulation.run`` replaced: on
every tick every node polls its mailbox and acts, whether or not it is due
or addressed, every management node's correlation engine is swept to the
tick after its clock runs (an engine sweeps itself only when an event
reaches it), and every frame travels, numbered and sent, but a silenced
node's, which ``_visit`` drops by the one rule ``_run_node`` keeps. Its nodes
get back the default ``hear`` hook, which takes nothing, so each heartbeat
is built as a frame and reaches its parent's ``on_frame``, and
``SmnNode.heard`` is never called. Both loops must leave byte-identical
reports.

    PYTHONPATH=src python tests/reference_loop.py TOPOLOGY SCENARIO...

runs each scenario through both loops and exits 1 when any report differs,
or 2, with a one-line usage, when no scenario is given: a run that compares
nothing must not pass.
"""

import sys

from smnsim.config import load_scenario, load_topology
from smnsim.messaging import Frame
from smnsim.simulator import RunReport, Simulation


class ReferenceSimulation(Simulation):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for node in self._nodes:
            node.hear = type(node).hear

    def _visit(self, addr, tick: int) -> list[Frame]:
        node = self.smns.get(addr) or self.agents[addr]
        out: list[Frame] = []
        while True:
            frame = self.network.poll(addr)
            if frame is None:
                break
            out.extend(node.on_frame(frame, tick))
        if addr in self.smns:
            ticked = node.on_tick(tick)
            node.engine.sweep(tick)
        else:
            ticked = node.step(tick)
        if node.silenced(tick):
            return []
        out.extend(ticked)
        return out

    def run(self) -> RunReport:
        for tick in range(self.end_tick + 1):
            self._tick = tick
            outbound: list[Frame] = []
            self._apply_directives(tick, outbound)
            for addr in self.order:
                outbound.extend(self._visit(addr, tick))
            for addr in self.order:
                node = self.smns.get(addr) or self.agents[addr]
                self.collected.extend(node.drain_lines())
            for frame in outbound:
                self._builders[frame.src].build(frame)
                self.network.send(frame)
            for change in self.root.drain_changesets():
                self.mirror.apply_changeset(change)
            if self.debug:
                self._check_mirror()
            self.network.step()
            if self.debug:
                self._check_invariants()
        return self._report()


USAGE = "usage: reference_loop.py TOPOLOGY SCENARIO..."


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(USAGE, file=sys.stderr)
        return 2
    topology_path, *scenario_paths = argv
    status = 0
    for path in scenario_paths:
        got = Simulation(load_topology(topology_path), load_scenario(path)).run().files()
        want = ReferenceSimulation(load_topology(topology_path), load_scenario(path)).run().files()
        differ = [name for name in sorted(want) if got.get(name) != want[name]]
        if differ:
            print(f"{path}: reports differ: {', '.join(differ)}")
            status = 1
        else:
            print(f"{path}: reports equal")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
