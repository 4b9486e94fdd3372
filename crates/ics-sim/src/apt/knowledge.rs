//! What the attacker knows about the network.
//!
//! The APT has full knowledge of the compromise state of nodes under its
//! control, but must discover everything else: which VLANs exist, where the
//! servers are, which PLCs exist. If a node the APT previously scanned has
//! been moved (quarantined), the APT is not aware until an action against it
//! fails and it re-scans.

use ics_net::{NodeId, PlcId, ServerRole, VlanId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The attacker's accumulated knowledge during an episode.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AptKnowledge {
    /// Node locations as of the last scan that observed them. May be stale if
    /// the defender has quarantined a node since.
    pub known_locations: HashMap<NodeId, VlanId>,
    /// VLANs the APT has discovered (network discovery phase).
    pub discovered_vlans: HashSet<VlanId>,
    /// Servers the APT has located, by role.
    pub located_servers: HashMap<ServerRole, NodeId>,
    /// PLCs discovered during PLC discovery. Ordered, because the attacker
    /// iterates it to emit firmware and execute actions: a hashed set would
    /// emit them in a per-instance random order and break episode replay.
    pub discovered_plcs: BTreeSet<PlcId>,
    /// Whether analysis of the data historian has started.
    pub historian_analysis_started: bool,
    /// Whether analysis of the data historian has completed.
    pub historian_analysis_complete: bool,
}

impl AptKnowledge {
    /// Fresh, empty knowledge (start of an episode).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that a node was observed on a VLAN.
    pub fn record_location(&mut self, node: NodeId, vlan: VlanId) {
        self.known_locations.insert(node, vlan);
    }

    /// Forgets the location of a node (after an action against it failed
    /// because it had been moved).
    pub fn forget_location(&mut self, node: NodeId) {
        self.known_locations.remove(&node);
    }

    /// The VLAN the APT believes the node is on, if known.
    pub fn believed_location(&self, node: NodeId) -> Option<VlanId> {
        self.known_locations.get(&node).copied()
    }

    /// Records a located server.
    pub fn record_server(&mut self, role: ServerRole, node: NodeId) {
        self.located_servers.insert(role, node);
    }

    /// The node the APT believes hosts the given server role.
    pub fn server(&self, role: ServerRole) -> Option<NodeId> {
        self.located_servers.get(&role).copied()
    }

    /// Records discovery of a PLC.
    pub fn record_plc(&mut self, plc: PlcId) {
        self.discovered_plcs.insert(plc);
    }

    /// Number of PLCs discovered so far.
    pub fn discovered_plc_count(&self) -> usize {
        self.discovered_plcs.len()
    }

    /// Whether the given VLAN has been discovered.
    pub fn knows_vlan(&self, vlan: VlanId) -> bool {
        self.discovered_vlans.contains(&vlan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_bookkeeping() {
        let mut k = AptKnowledge::new();
        let n = NodeId::from_index(4);
        assert_eq!(k.believed_location(n), None);
        k.record_location(n, VlanId::ops(2));
        assert_eq!(k.believed_location(n), Some(VlanId::ops(2)));
        k.forget_location(n);
        assert_eq!(k.believed_location(n), None);
    }

    #[test]
    fn server_and_plc_bookkeeping() {
        let mut k = AptKnowledge::new();
        assert_eq!(k.server(ServerRole::Opc), None);
        k.record_server(ServerRole::Opc, NodeId::from_index(25));
        assert_eq!(k.server(ServerRole::Opc), Some(NodeId::from_index(25)));

        assert_eq!(k.discovered_plc_count(), 0);
        k.record_plc(PlcId::from_index(0));
        k.record_plc(PlcId::from_index(0));
        k.record_plc(PlcId::from_index(1));
        assert_eq!(k.discovered_plc_count(), 2);
    }

    #[test]
    fn vlan_discovery() {
        let mut k = AptKnowledge::new();
        assert!(!k.knows_vlan(VlanId::ops(1)));
        k.discovered_vlans.insert(VlanId::ops(1));
        assert!(k.knows_vlan(VlanId::ops(1)));
    }
}
