"""The visit-every-node tick loop, kept as the reference for the agenda.

``ReferenceSimulation.run`` is the loop ``Simulation.run`` replaced: on
every tick every node polls its mailbox and acts, whether or not it is due
or addressed. Both loops must leave byte-identical reports.
"""

from smnsim.messaging import Frame
from smnsim.simulator import RunReport, Simulation


class ReferenceSimulation(Simulation):
    def _visit(self, addr, tick: int) -> list[Frame]:
        node = self.smns.get(addr) or self.agents[addr]
        out: list[Frame] = []
        while True:
            frame = self.network.poll(addr)
            if frame is None:
                break
            out.extend(node.on_frame(frame, tick))
        if addr in self.smns:
            smn = self.smns[addr]
            ticked = smn.on_tick(tick)
            if smn.silenced(tick):
                return []
            out.extend(ticked)
        else:
            out.extend(self.agents[addr].step(tick))
        return out

    def run(self) -> RunReport:
        end_tick = self.scenario.last_tick + self.scenario.drain
        for tick in range(end_tick + 1):
            self._tick = tick
            outbound: list[Frame] = []
            self._apply_directives(tick, outbound)
            for addr in self.order:
                outbound.extend(self._visit(addr, tick))
            for addr in self.order:
                node = self.smns.get(addr) or self.agents[addr]
                self.collected.extend(node.drain_lines())
            for frame in outbound:
                self.network.send(frame)
            for changes in self.root.drain_changesets():
                self.mirror.apply_changeset(changes)
            if self.debug:
                self._check_mirror()
            for addr in self.smns:
                if addr != self.root.address:
                    self.smns[addr].drain_changesets()
            self.network.step()
            if self.debug:
                self._check_invariants()
        return self._report()
