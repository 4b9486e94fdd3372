//! Ground-truth dynamic state of the network during an episode.

use crate::compromise::{CompromiseCondition, CompromiseSet};
use crate::plc_state::{PlcState, PlcStatus};
use ics_net::{NodeId, NodeKind, PlcId, Topology, VlanId};
use serde::{Deserialize, Serialize};

/// The full (hidden) state of the simulated network: every node's compromise
/// conditions and current VLAN, and every PLC's operational state.
///
/// The defender never observes this directly — it observes
/// [`crate::Observation`]s — but baselines, the DBN training data generator
/// and the evaluation metrics read it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkState {
    node_compromise: Vec<CompromiseSet>,
    node_vlan: Vec<VlanId>,
    node_is_server: Vec<bool>,
    node_home_vlan: Vec<VlanId>,
    plcs: Vec<PlcState>,
    /// Sorted dense indices of nodes the APT currently controls. Maintained
    /// by [`NetworkState::update_compromise`] so the per-step hot paths
    /// (IDS passive alerts, reward shaping, metrics) touch only active nodes
    /// instead of scanning the whole world.
    compromised_index: Vec<usize>,
    /// Compromised nodes that are workstations or HMIs (not servers).
    compromised_workstations: usize,
    /// Compromised servers.
    compromised_servers: usize,
    /// Sorted dense indices of nodes currently on a quarantine VLAN.
    quarantined_index: Vec<usize>,
}

impl NetworkState {
    /// Creates the initial (fully clean) state for a topology.
    pub fn new(topology: &Topology) -> Self {
        let node_compromise = vec![CompromiseSet::clean(); topology.node_count()];
        let node_vlan = topology.nodes().map(|n| n.home_vlan).collect();
        let node_home_vlan = topology.nodes().map(|n| n.home_vlan).collect();
        let node_is_server = topology
            .nodes()
            .map(|n| matches!(n.kind, NodeKind::Server(_)))
            .collect();
        let plcs = vec![PlcState::new(); topology.plc_count()];
        Self {
            node_compromise,
            node_vlan,
            node_is_server,
            node_home_vlan,
            plcs,
            compromised_index: Vec::new(),
            compromised_workstations: 0,
            compromised_servers: 0,
            quarantined_index: Vec::new(),
        }
    }

    /// Number of computing nodes.
    pub fn node_count(&self) -> usize {
        self.node_compromise.len()
    }

    /// Number of PLCs.
    pub fn plc_count(&self) -> usize {
        self.plcs.len()
    }

    /// Compromise conditions currently on a node.
    pub fn compromise(&self, node: NodeId) -> &CompromiseSet {
        &self.node_compromise[node.index()]
    }

    /// Applies a mutation to a node's compromise conditions while keeping the
    /// sparse compromised-node index and the per-kind counters in sync.
    ///
    /// All writes to compromise state go through here: the closure may insert
    /// or remove any conditions (including cascading removals), and the index
    /// is updated only when the node's overall compromised status flips.
    pub fn update_compromise<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut CompromiseSet) -> R,
    ) -> R {
        let idx = node.index();
        let was = self.node_compromise[idx].is_compromised();
        let result = f(&mut self.node_compromise[idx]);
        let now = self.node_compromise[idx].is_compromised();
        if was != now {
            match self.compromised_index.binary_search(&idx) {
                Err(pos) if now => self.compromised_index.insert(pos, idx),
                Ok(pos) if !now => {
                    self.compromised_index.remove(pos);
                }
                _ => unreachable!("compromised index out of sync with compromise sets"),
            }
            let counter = if self.node_is_server[idx] {
                &mut self.compromised_servers
            } else {
                &mut self.compromised_workstations
            };
            if now {
                *counter += 1;
            } else {
                *counter -= 1;
            }
        }
        result
    }

    /// VLAN the node is currently connected to (reflects quarantine moves).
    pub fn vlan_of(&self, node: NodeId) -> VlanId {
        self.node_vlan[node.index()]
    }

    /// Whether the node is currently on its level's quarantine VLAN.
    pub fn is_quarantined(&self, node: NodeId) -> bool {
        self.node_vlan[node.index()].is_quarantine()
    }

    /// Whether the node is a server (cost and severity bookkeeping).
    pub fn is_server(&self, node: NodeId) -> bool {
        self.node_is_server[node.index()]
    }

    /// Moves the node to its level's quarantine VLAN, or back to its home
    /// VLAN if already quarantined. Returns the VLAN the node now sits on.
    pub fn toggle_quarantine(&mut self, node: NodeId) -> VlanId {
        let idx = node.index();
        self.node_vlan[idx] = if self.node_vlan[idx].is_quarantine() {
            self.node_home_vlan[idx]
        } else {
            self.node_home_vlan[idx].counterpart()
        };
        let quarantined = self.node_vlan[idx].is_quarantine();
        match self.quarantined_index.binary_search(&idx) {
            Err(pos) if quarantined => self.quarantined_index.insert(pos, idx),
            Ok(pos) if !quarantined => {
                self.quarantined_index.remove(pos);
            }
            _ => unreachable!("quarantine index out of sync with VLAN assignments"),
        }
        self.node_vlan[idx]
    }

    /// State of a PLC.
    pub fn plc(&self, plc: PlcId) -> &PlcState {
        &self.plcs[plc.index()]
    }

    /// Mutable access to a PLC's state.
    pub fn plc_mut(&mut self, plc: PlcId) -> &mut PlcState {
        &mut self.plcs[plc.index()]
    }

    /// Iterator over all PLC states in identifier order.
    pub fn plc_states(&self) -> impl Iterator<Item = &PlcState> {
        self.plcs.iter()
    }

    /// Identifiers of all nodes the APT currently controls (initial
    /// compromise or beyond), in ascending node order.
    pub fn compromised_nodes(&self) -> Vec<NodeId> {
        self.compromised_index
            .iter()
            .map(|&i| NodeId::from_index(i))
            .collect()
    }

    /// Sorted dense indices of all compromised nodes. The borrow-free sibling
    /// of [`NetworkState::compromised_nodes`] for hot loops that must not
    /// allocate.
    pub fn compromised_indices(&self) -> &[usize] {
        &self.compromised_index
    }

    /// Sorted dense indices of all nodes currently on a quarantine VLAN.
    pub fn quarantined_indices(&self) -> &[usize] {
        &self.quarantined_index
    }

    /// Number of compromised nodes.
    pub fn compromised_count(&self) -> usize {
        self.compromised_index.len()
    }

    /// Number of compromised nodes that are workstations or HMIs.
    pub fn compromised_workstation_count(&self) -> usize {
        self.compromised_workstations
    }

    /// Number of compromised servers.
    pub fn compromised_server_count(&self) -> usize {
        self.compromised_servers
    }

    /// Whether the APT currently controls at least one node.
    pub fn any_compromised(&self) -> bool {
        !self.compromised_index.is_empty()
    }

    /// Number of PLCs currently disrupted.
    pub fn disrupted_plc_count(&self) -> usize {
        self.plcs
            .iter()
            .filter(|p| p.status == PlcStatus::Disrupted)
            .count()
    }

    /// Number of PLCs currently destroyed.
    pub fn destroyed_plc_count(&self) -> usize {
        self.plcs
            .iter()
            .filter(|p| p.status == PlcStatus::Destroyed)
            .count()
    }

    /// Number of PLCs offline (disrupted or destroyed).
    pub fn offline_plc_count(&self) -> usize {
        self.plcs.iter().filter(|p| p.status.is_offline()).count()
    }

    /// Number of PLCs whose firmware the APT has flashed.
    pub fn firmware_compromised_count(&self) -> usize {
        self.plcs.iter().filter(|p| p.firmware_compromised).count()
    }

    /// Removes the `MalwareCleaned` condition from a node if present. Used by
    /// attacker actions that generate fresh artifacts on a node.
    pub fn dirty_node(&mut self, node: NodeId) {
        self.update_compromise(node, |c| c.remove(CompromiseCondition::MalwareCleaned));
    }

    /// Recomputes the compromise counters and indices with a dense scan and
    /// checks them against the incrementally maintained sparse state. Used by
    /// the sparse-vs-dense equivalence tests.
    #[cfg(test)]
    pub(crate) fn sparse_indices_match_dense_scan(&self) -> bool {
        let dense_compromised: Vec<usize> = self
            .node_compromise
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_compromised())
            .map(|(i, _)| i)
            .collect();
        let dense_servers = dense_compromised
            .iter()
            .filter(|&&i| self.node_is_server[i])
            .count();
        let dense_quarantined: Vec<usize> = self
            .node_vlan
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_quarantine())
            .map(|(i, _)| i)
            .collect();
        dense_compromised == self.compromised_index
            && dense_servers == self.compromised_servers
            && dense_compromised.len() - dense_servers == self.compromised_workstations
            && dense_quarantined == self.quarantined_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compromise::CompromiseCondition as C;
    use ics_net::TopologySpec;

    fn state() -> (Topology, NetworkState) {
        let topo = Topology::build(&TopologySpec::tiny()).unwrap();
        let state = NetworkState::new(&topo);
        (topo, state)
    }

    #[test]
    fn initial_state_is_clean() {
        let (topo, state) = state();
        assert_eq!(state.node_count(), topo.node_count());
        assert_eq!(state.plc_count(), topo.plc_count());
        assert_eq!(state.compromised_count(), 0);
        assert!(!state.any_compromised());
        assert_eq!(state.offline_plc_count(), 0);
    }

    #[test]
    fn compromise_counters_distinguish_servers() {
        let (topo, mut state) = state();
        let ws = topo.workstations().next().unwrap().id;
        let srv = topo.servers().next().unwrap().id;
        for n in [ws, srv] {
            state.update_compromise(n, |c| {
                c.try_insert(C::Scanned);
                c.try_insert(C::InitialCompromise);
            });
        }
        assert_eq!(state.compromised_count(), 2);
        assert_eq!(state.compromised_workstation_count(), 1);
        assert_eq!(state.compromised_server_count(), 1);
        assert!(state.is_server(srv));
        assert!(!state.is_server(ws));
        assert_eq!(state.compromised_nodes().len(), 2);
        assert!(state.sparse_indices_match_dense_scan());
        state.update_compromise(srv, |c| c.clear_all());
        assert_eq!(state.compromised_count(), 1);
        assert_eq!(state.compromised_server_count(), 0);
        assert!(state.sparse_indices_match_dense_scan());
    }

    #[test]
    fn quarantine_toggle_round_trips() {
        let (topo, mut state) = state();
        let ws = topo.workstations().next().unwrap().id;
        let home = state.vlan_of(ws);
        assert!(!state.is_quarantined(ws));
        let q = state.toggle_quarantine(ws);
        assert!(q.is_quarantine());
        assert!(state.is_quarantined(ws));
        assert_eq!(state.quarantined_indices(), &[ws.index()]);
        let back = state.toggle_quarantine(ws);
        assert_eq!(back, home);
        assert!(!state.is_quarantined(ws));
        assert!(state.quarantined_indices().is_empty());
        assert!(state.sparse_indices_match_dense_scan());
    }

    #[test]
    fn plc_counters() {
        let (_, mut state) = state();
        state.plc_mut(PlcId::from_index(0)).status = PlcStatus::Disrupted;
        state.plc_mut(PlcId::from_index(1)).status = PlcStatus::Destroyed;
        state.plc_mut(PlcId::from_index(2)).firmware_compromised = true;
        assert_eq!(state.disrupted_plc_count(), 1);
        assert_eq!(state.destroyed_plc_count(), 1);
        assert_eq!(state.offline_plc_count(), 2);
        assert_eq!(state.firmware_compromised_count(), 1);
    }

    #[test]
    fn dirty_node_clears_cleaned_flag() {
        let (topo, mut state) = state();
        let ws = topo.workstations().next().unwrap().id;
        state.update_compromise(ws, |c| {
            c.try_insert(C::Scanned);
            c.try_insert(C::InitialCompromise);
            c.try_insert(C::AdminAccess);
            c.try_insert(C::MalwareCleaned);
        });
        assert!(state.compromise(ws).contains(C::MalwareCleaned));
        state.dirty_node(ws);
        assert!(!state.compromise(ws).contains(C::MalwareCleaned));
        assert!(state.compromise(ws).has_admin());
    }
}
