//! The baseline finite-state-machine attacker (Fig. 3 / Fig. 8 of the paper).
//!
//! The policy is deliberately *stateless across calls*: the current machine
//! state is re-derived every hour from the exit criteria in Fig. 3, which
//! automatically implements the paper's reversion rule ("if during execution
//! an earlier phase criteria is no longer satisfied, the policy will revert to
//! that earlier phase before continuing").

use crate::apt::action::{AptAction, AptActionKind, AptTarget};
use crate::apt::params::{AptParams, AttackObjective, AttackVector};
use crate::apt::policy::{AptContext, AptPolicy};
use crate::compromise::CompromiseCondition as C;
use crate::plc_state::PlcStatus;
use ics_net::{Level, NodeId, ServerRole, VlanId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The machine states of the attacker FSM (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AptPhase {
    /// The attacker has lost every foothold and is re-entering the network.
    Reestablish,
    /// Discover, compromise and escalate level-2 hosts.
    LateralMovement,
    /// Discover VLAN subnets and switches.
    NetworkDiscovery,
    /// Compromise and analyze the data historian server.
    ProcessDiscovery,
    /// Compromise the OPC server (OPC attack vector only).
    OpcCompromise,
    /// Compromise the initial level-1 HMI node (HMI vector only).
    HmiCapture,
    /// Discover, compromise and escalate additional HMIs (HMI vector only).
    HmiLateralMovement,
    /// Locate the PLCs required for the attack.
    PlcDiscovery,
    /// Flash firmware on targeted PLCs (destroy objective only).
    FirmwareCompromise,
    /// Disrupt or destroy PLC processes.
    Execute,
    /// The attack objective has been achieved.
    Complete,
}

impl AptPhase {
    /// Short name used in logs.
    pub fn name(&self) -> &'static str {
        match self {
            AptPhase::Reestablish => "re-establish",
            AptPhase::LateralMovement => "lateral movement",
            AptPhase::NetworkDiscovery => "network discovery",
            AptPhase::ProcessDiscovery => "process discovery",
            AptPhase::OpcCompromise => "OPC compromise",
            AptPhase::HmiCapture => "HMI capture",
            AptPhase::HmiLateralMovement => "HMI lateral movement",
            AptPhase::PlcDiscovery => "PLC discovery",
            AptPhase::FirmwareCompromise => "firmware compromise",
            AptPhase::Execute => "execute attack",
            AptPhase::Complete => "complete",
        }
    }
}

impl fmt::Display for AptPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The baseline stochastic finite-state-machine attack policy.
#[derive(Debug, Default)]
pub struct FsmAptPolicy {
    last_phase: Option<AptPhase>,
}

impl FsmAptPolicy {
    /// Creates the baseline FSM attacker.
    pub fn new() -> Self {
        Self::default()
    }

    /// The machine state implied by the current network state and attacker
    /// knowledge (re-derived every hour; see module docs).
    pub fn derive_phase(ctx: &AptContext<'_>) -> AptPhase {
        let s = ctx.state;
        let k = ctx.knowledge;
        let p = ctx.params;
        let topo = ctx.topology;

        if !s.any_compromised() {
            return AptPhase::Reestablish;
        }

        let l2_compromised = topo
            .nodes()
            .filter(|n| n.level == Level::Engineering2)
            .filter(|n| s.compromise(n.id).is_compromised())
            .count();
        if l2_compromised < p.lateral_threshold {
            return AptPhase::LateralMovement;
        }

        if !topo.ops_vlans().iter().all(|v| k.knows_vlan(*v)) {
            return AptPhase::NetworkDiscovery;
        }

        if !k.historian_analysis_started {
            return AptPhase::ProcessDiscovery;
        }

        match p.vector {
            AttackVector::Opc => {
                let opc_ok = topo
                    .server(ServerRole::Opc)
                    .map(|n| s.compromise(n.id).is_compromised())
                    .unwrap_or(false);
                if !opc_ok {
                    return AptPhase::OpcCompromise;
                }
            }
            AttackVector::Hmi => {
                let hmi_total = topo.hmis().count();
                let hmi_compromised = topo
                    .hmis()
                    .filter(|n| s.compromise(n.id).is_compromised())
                    .count();
                if hmi_compromised == 0 {
                    return AptPhase::HmiCapture;
                }
                if hmi_compromised < p.lateral_threshold.min(hmi_total) {
                    return AptPhase::HmiLateralMovement;
                }
            }
        }

        let plc_goal = p.plc_threshold.min(topo.plc_count());
        if k.discovered_plc_count() < plc_goal {
            return AptPhase::PlcDiscovery;
        }

        if p.objective == AttackObjective::Destroy {
            let flashed = s.firmware_compromised_count();
            let destroyed = s.destroyed_plc_count();
            if flashed + destroyed < plc_goal {
                return AptPhase::FirmwareCompromise;
            }
            if destroyed < plc_goal {
                return AptPhase::Execute;
            }
        } else {
            let offline = s.offline_plc_count();
            if offline < plc_goal {
                return AptPhase::Execute;
            }
        }
        AptPhase::Complete
    }

    /// Whether an identical (kind, target) action is already in flight.
    fn in_progress(ctx: &AptContext<'_>, kind: AptActionKind, target: AptTarget) -> bool {
        ctx.in_progress
            .iter()
            .any(|a| a.kind == kind && a.target == target)
    }

    /// A controlled node usable as the source of an action, preferring nodes
    /// on the given level.
    fn pick_source(
        ctx: &AptContext<'_>,
        prefer_level: Option<Level>,
        rng: &mut StdRng,
    ) -> Option<NodeId> {
        let controlled: Vec<NodeId> = ctx
            .state
            .compromised_nodes()
            .into_iter()
            .filter(|n| !ctx.state.is_quarantined(*n))
            .collect();
        if controlled.is_empty() {
            return None;
        }
        if let Some(level) = prefer_level {
            let on_level: Vec<NodeId> = controlled
                .iter()
                .copied()
                .filter(|n| ctx.topology.node(*n).map(|x| x.level) == Ok(level))
                .collect();
            if !on_level.is_empty() {
                return on_level.choose(rng).copied();
            }
        }
        controlled.choose(rng).copied()
    }

    /// The node commands to the PLCs are sent from: the OPC server for the
    /// OPC vector, a compromised HMI for the HMI vector.
    fn attack_access_node(ctx: &AptContext<'_>, rng: &mut StdRng) -> Option<NodeId> {
        match ctx.params.vector {
            AttackVector::Opc => ctx
                .topology
                .server(ServerRole::Opc)
                .map(|n| n.id)
                .filter(|n| {
                    ctx.state.compromise(*n).is_compromised() && !ctx.state.is_quarantined(*n)
                }),
            AttackVector::Hmi => {
                let hmis: Vec<NodeId> = ctx
                    .topology
                    .hmis()
                    .map(|n| n.id)
                    .filter(|n| {
                        ctx.state.compromise(*n).is_compromised() && !ctx.state.is_quarantined(*n)
                    })
                    .collect();
                hmis.choose(rng).copied()
            }
        }
    }

    fn lateral_movement_actions(
        &self,
        ctx: &AptContext<'_>,
        level: Level,
        rng: &mut StdRng,
    ) -> Vec<AptAction> {
        let mut actions = Vec::new();
        let s = ctx.state;
        let topo = ctx.topology;

        // Candidate targets: nodes the attacker has scanned (knows about) on
        // the level, not yet compromised, believed reachable.
        let known_uncompromised: Vec<NodeId> = topo
            .nodes()
            .filter(|n| n.level == level && !n.kind.is_server())
            .map(|n| n.id)
            .filter(|id| {
                ctx.knowledge.believed_location(*id).is_some()
                    && !s.compromise(*id).is_compromised()
            })
            .collect();

        // 1. Scan the level's operations VLANs (every segment) if we have no
        //    fresh targets.
        if known_uncompromised.is_empty() {
            for vlan in topo
                .ops_vlans()
                .into_iter()
                .filter(|v| v.level_number() == level.number())
            {
                if Self::in_progress(ctx, AptActionKind::ScanVlan, AptTarget::Vlan(vlan)) {
                    continue;
                }
                if let Some(src) = Self::pick_source(ctx, Some(level), rng) {
                    actions.push(AptAction::new(
                        AptActionKind::ScanVlan,
                        Some(src),
                        AptTarget::Vlan(vlan),
                    ));
                }
            }
        }

        // 2. Compromise known nodes.
        for target in &known_uncompromised {
            if Self::in_progress(ctx, AptActionKind::Compromise, AptTarget::Node(*target)) {
                continue;
            }
            if let Some(src) = Self::pick_source(ctx, Some(level), rng) {
                actions.push(AptAction::new(
                    AptActionKind::Compromise,
                    Some(src),
                    AptTarget::Node(*target),
                ));
            }
        }

        // 3. Consolidate control of nodes we already own: escalate, persist,
        //    and clean up in escalation order.
        for node in s.compromised_nodes() {
            let comp = s.compromise(node);
            let maintenance = [
                (AptActionKind::EscalatePrivilege, !comp.has_admin()),
                (
                    AptActionKind::RebootPersist,
                    !comp.contains(C::RebootPersistence),
                ),
                (
                    AptActionKind::CredentialPersist,
                    comp.has_admin() && !comp.contains(C::CredentialPersistence),
                ),
                (
                    AptActionKind::Cleanup,
                    comp.has_admin() && !comp.contains(C::MalwareCleaned),
                ),
            ];
            for (kind, needed) in maintenance {
                if needed && !Self::in_progress(ctx, kind, AptTarget::Node(node)) {
                    actions.push(AptAction::new(kind, Some(node), AptTarget::Node(node)));
                }
            }
        }
        actions
    }

    fn phase_actions(
        &self,
        phase: AptPhase,
        ctx: &AptContext<'_>,
        rng: &mut StdRng,
    ) -> Vec<AptAction> {
        let topo = ctx.topology;
        let s = ctx.state;
        let k = ctx.knowledge;
        match phase {
            AptPhase::Reestablish => {
                if Self::in_progress(ctx, AptActionKind::InitialIntrusion, AptTarget::None) {
                    Vec::new()
                } else {
                    vec![AptAction::new(
                        AptActionKind::InitialIntrusion,
                        None,
                        AptTarget::None,
                    )]
                }
            }
            AptPhase::LateralMovement => {
                self.lateral_movement_actions(ctx, Level::Engineering2, rng)
            }
            AptPhase::NetworkDiscovery => {
                let mut actions = Vec::new();
                if !Self::in_progress(ctx, AptActionKind::DiscoverVlan, AptTarget::None) {
                    if let Some(src) = Self::pick_source(ctx, Some(Level::Engineering2), rng) {
                        actions.push(AptAction::new(
                            AptActionKind::DiscoverVlan,
                            Some(src),
                            AptTarget::None,
                        ));
                    }
                }
                // Keep consolidating while discovery runs.
                actions.extend(self.lateral_movement_actions(ctx, Level::Engineering2, rng));
                actions
            }
            AptPhase::ProcessDiscovery => {
                let mut actions = Vec::new();
                match k.server(ServerRole::Historian) {
                    None => {
                        let target = AptTarget::Vlan(VlanId::ops(2));
                        if !Self::in_progress(ctx, AptActionKind::DiscoverServer, target) {
                            if let Some(src) =
                                Self::pick_source(ctx, Some(Level::Engineering2), rng)
                            {
                                actions.push(AptAction::new(
                                    AptActionKind::DiscoverServer,
                                    Some(src),
                                    target,
                                ));
                            }
                        }
                    }
                    Some(historian) => {
                        if !s.compromise(historian).is_compromised() {
                            let target = AptTarget::Node(historian);
                            if !Self::in_progress(ctx, AptActionKind::Compromise, target) {
                                if let Some(src) =
                                    Self::pick_source(ctx, Some(Level::Engineering2), rng)
                                {
                                    actions.push(AptAction::new(
                                        AptActionKind::Compromise,
                                        Some(src),
                                        target,
                                    ));
                                }
                            }
                        } else if !k.historian_analysis_started
                            && !Self::in_progress(
                                ctx,
                                AptActionKind::AnalyzeHistorian,
                                AptTarget::Node(historian),
                            )
                        {
                            actions.push(AptAction::new(
                                AptActionKind::AnalyzeHistorian,
                                Some(historian),
                                AptTarget::Node(historian),
                            ));
                        }
                    }
                }
                actions.extend(self.lateral_movement_actions(ctx, Level::Engineering2, rng));
                actions
            }
            AptPhase::OpcCompromise => {
                let mut actions = Vec::new();
                match k.server(ServerRole::Opc) {
                    None => {
                        let target = AptTarget::Vlan(VlanId::ops(2));
                        if !Self::in_progress(ctx, AptActionKind::DiscoverServer, target) {
                            if let Some(src) =
                                Self::pick_source(ctx, Some(Level::Engineering2), rng)
                            {
                                actions.push(AptAction::new(
                                    AptActionKind::DiscoverServer,
                                    Some(src),
                                    target,
                                ));
                            }
                        }
                    }
                    Some(opc) => {
                        let target = AptTarget::Node(opc);
                        if !Self::in_progress(ctx, AptActionKind::Compromise, target) {
                            if let Some(src) =
                                Self::pick_source(ctx, Some(Level::Engineering2), rng)
                            {
                                actions.push(AptAction::new(
                                    AptActionKind::Compromise,
                                    Some(src),
                                    target,
                                ));
                            }
                        }
                    }
                }
                actions
            }
            AptPhase::HmiCapture | AptPhase::HmiLateralMovement => {
                let mut actions = Vec::new();
                let known_hmis: Vec<NodeId> = topo
                    .hmis()
                    .map(|n| n.id)
                    .filter(|id| k.believed_location(*id).is_some())
                    .filter(|id| !s.compromise(*id).is_compromised())
                    .collect();
                if known_hmis.is_empty() {
                    for vlan in topo
                        .ops_vlans()
                        .into_iter()
                        .filter(|v| v.level_number() == 1)
                    {
                        let target = AptTarget::Vlan(vlan);
                        if Self::in_progress(ctx, AptActionKind::ScanVlan, target) {
                            continue;
                        }
                        if let Some(src) = Self::pick_source(ctx, Some(Level::Engineering2), rng) {
                            actions.push(AptAction::new(
                                AptActionKind::ScanVlan,
                                Some(src),
                                target,
                            ));
                        }
                    }
                } else {
                    for hmi in known_hmis {
                        let target = AptTarget::Node(hmi);
                        if !Self::in_progress(ctx, AptActionKind::Compromise, target) {
                            if let Some(src) = Self::pick_source(ctx, None, rng) {
                                actions.push(AptAction::new(
                                    AptActionKind::Compromise,
                                    Some(src),
                                    target,
                                ));
                            }
                        }
                    }
                }
                actions
            }
            AptPhase::PlcDiscovery => {
                let mut actions = Vec::new();
                let target = AptTarget::Vlan(VlanId::ops(1));
                if !Self::in_progress(ctx, AptActionKind::DiscoverPlc, target) {
                    if let Some(src) = Self::attack_access_node(ctx, rng) {
                        actions.push(AptAction::new(
                            AptActionKind::DiscoverPlc,
                            Some(src),
                            target,
                        ));
                    }
                }
                actions
            }
            AptPhase::FirmwareCompromise => {
                let mut actions = Vec::new();
                if let Some(src) = Self::attack_access_node(ctx, rng) {
                    for plc in &k.discovered_plcs {
                        let plc_state = s.plc(*plc);
                        if plc_state.firmware_compromised
                            || plc_state.status == PlcStatus::Destroyed
                        {
                            continue;
                        }
                        let target = AptTarget::Plc(*plc);
                        if !Self::in_progress(ctx, AptActionKind::FlashFirmware, target) {
                            actions.push(AptAction::new(
                                AptActionKind::FlashFirmware,
                                Some(src),
                                target,
                            ));
                        }
                    }
                }
                actions
            }
            AptPhase::Execute => {
                let mut actions = Vec::new();
                if let Some(src) = Self::attack_access_node(ctx, rng) {
                    for plc in &k.discovered_plcs {
                        let plc_state = s.plc(*plc);
                        let (kind, ready) = match ctx.params.objective {
                            AttackObjective::Disrupt => (
                                AptActionKind::DisruptPlc,
                                plc_state.status == PlcStatus::Nominal,
                            ),
                            AttackObjective::Destroy => (
                                AptActionKind::DestroyPlc,
                                plc_state.firmware_compromised
                                    && plc_state.status != PlcStatus::Destroyed,
                            ),
                        };
                        if !ready {
                            continue;
                        }
                        let target = AptTarget::Plc(*plc);
                        if !Self::in_progress(ctx, kind, target) {
                            actions.push(AptAction::new(kind, Some(src), target));
                        }
                    }
                }
                actions
            }
            AptPhase::Complete => Vec::new(),
        }
    }
}

impl AptPolicy for FsmAptPolicy {
    fn reset(&mut self, _params: &AptParams) {
        self.last_phase = None;
    }

    fn decide(&mut self, ctx: &AptContext<'_>, rng: &mut StdRng) -> Vec<AptAction> {
        let phase = Self::derive_phase(ctx);
        self.last_phase = Some(phase);
        if ctx.free_labor == 0 {
            return Vec::new();
        }
        let mut actions = self.phase_actions(phase, ctx, rng);
        actions.truncate(ctx.free_labor);
        actions
    }

    fn phase_name(&self) -> &'static str {
        self.last_phase.map(|p| p.name()).unwrap_or("not started")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apt::knowledge::AptKnowledge;
    use crate::state::NetworkState;
    use ics_net::{PlcId, Topology, TopologySpec};
    use rand::SeedableRng;

    struct Fixture {
        topo: Topology,
        state: NetworkState,
        knowledge: AptKnowledge,
        params: AptParams,
    }

    impl Fixture {
        fn new() -> Self {
            let topo = Topology::build(&TopologySpec::paper_small()).unwrap();
            let state = NetworkState::new(&topo);
            let knowledge = AptKnowledge::new();
            let params = AptParams::apt1(AttackObjective::Disrupt, AttackVector::Opc);
            Self {
                topo,
                state,
                knowledge,
                params,
            }
        }

        fn ctx<'a>(&'a self, in_progress: &'a [AptAction]) -> AptContext<'a> {
            AptContext {
                topology: &self.topo,
                state: &self.state,
                knowledge: &self.knowledge,
                params: &self.params,
                in_progress,
                free_labor: self.params.labor_rate,
                time: 0,
            }
        }

        fn compromise(&mut self, node: NodeId, admin: bool) {
            self.state.update_compromise(node, |c| {
                c.try_insert(C::Scanned);
                c.try_insert(C::InitialCompromise);
                if admin {
                    c.try_insert(C::AdminAccess);
                }
            });
        }
    }

    #[test]
    fn phase_is_reestablish_with_no_footholds() {
        let f = Fixture::new();
        assert_eq!(
            FsmAptPolicy::derive_phase(&f.ctx(&[])),
            AptPhase::Reestablish
        );
    }

    #[test]
    fn phase_progression_follows_fig_3() {
        let mut f = Fixture::new();
        // Beachhead only -> lateral movement.
        let ws: Vec<NodeId> = f.topo.workstations().map(|n| n.id).collect();
        f.compromise(ws[0], false);
        assert_eq!(
            FsmAptPolicy::derive_phase(&f.ctx(&[])),
            AptPhase::LateralMovement
        );

        // Threshold compromised -> network discovery.
        f.compromise(ws[1], false);
        f.compromise(ws[2], false);
        assert_eq!(
            FsmAptPolicy::derive_phase(&f.ctx(&[])),
            AptPhase::NetworkDiscovery
        );

        // All VLANs discovered -> process discovery.
        for v in f.topo.ops_vlans() {
            f.knowledge.discovered_vlans.insert(v);
        }
        assert_eq!(
            FsmAptPolicy::derive_phase(&f.ctx(&[])),
            AptPhase::ProcessDiscovery
        );

        // Historian analysis started -> OPC compromise (OPC vector).
        f.knowledge.historian_analysis_started = true;
        assert_eq!(
            FsmAptPolicy::derive_phase(&f.ctx(&[])),
            AptPhase::OpcCompromise
        );

        // OPC compromised -> PLC discovery.
        let opc = f.topo.server(ServerRole::Opc).unwrap().id;
        f.compromise(opc, true);
        assert_eq!(
            FsmAptPolicy::derive_phase(&f.ctx(&[])),
            AptPhase::PlcDiscovery
        );

        // Enough PLCs discovered -> execute (disrupt objective skips firmware).
        for plc in f.topo.plc_ids().take(f.params.plc_threshold) {
            f.knowledge.record_plc(plc);
        }
        assert_eq!(FsmAptPolicy::derive_phase(&f.ctx(&[])), AptPhase::Execute);

        // All targeted PLCs offline -> complete.
        for plc in f.topo.plc_ids().take(f.params.plc_threshold) {
            f.state.plc_mut(plc).status = PlcStatus::Disrupted;
        }
        assert_eq!(FsmAptPolicy::derive_phase(&f.ctx(&[])), AptPhase::Complete);
    }

    #[test]
    fn destroy_objective_requires_firmware_phase() {
        let mut f = Fixture::new();
        f.params = AptParams::apt1(AttackObjective::Destroy, AttackVector::Opc);
        let ws: Vec<NodeId> = f.topo.workstations().map(|n| n.id).collect();
        for w in ws.iter().take(3) {
            f.compromise(*w, false);
        }
        for v in f.topo.ops_vlans() {
            f.knowledge.discovered_vlans.insert(v);
        }
        f.knowledge.historian_analysis_started = true;
        let opc = f.topo.server(ServerRole::Opc).unwrap().id;
        f.compromise(opc, true);
        for plc in f.topo.plc_ids().take(f.params.plc_threshold) {
            f.knowledge.record_plc(plc);
        }
        assert_eq!(
            FsmAptPolicy::derive_phase(&f.ctx(&[])),
            AptPhase::FirmwareCompromise
        );
        for plc in f.topo.plc_ids().take(f.params.plc_threshold) {
            f.state.plc_mut(plc).firmware_compromised = true;
        }
        assert_eq!(FsmAptPolicy::derive_phase(&f.ctx(&[])), AptPhase::Execute);
    }

    #[test]
    fn reversion_when_defender_evicts_nodes() {
        let mut f = Fixture::new();
        let ws: Vec<NodeId> = f.topo.workstations().map(|n| n.id).collect();
        for w in ws.iter().take(3) {
            f.compromise(*w, false);
        }
        for v in f.topo.ops_vlans() {
            f.knowledge.discovered_vlans.insert(v);
        }
        assert_eq!(
            FsmAptPolicy::derive_phase(&f.ctx(&[])),
            AptPhase::ProcessDiscovery
        );
        // Defender re-images two of the three footholds: revert to lateral
        // movement.
        f.state.update_compromise(ws[0], |c| c.clear_all());
        f.state.update_compromise(ws[1], |c| c.clear_all());
        assert_eq!(
            FsmAptPolicy::derive_phase(&f.ctx(&[])),
            AptPhase::LateralMovement
        );
    }

    #[test]
    fn decide_respects_labor_budget() {
        let mut f = Fixture::new();
        let ws: Vec<NodeId> = f.topo.workstations().map(|n| n.id).collect();
        f.compromise(ws[0], false);
        // Give the attacker knowledge of many targets so it wants to start
        // more actions than the budget allows.
        for w in &ws {
            f.knowledge.record_location(*w, VlanId::ops(2));
        }
        let mut policy = FsmAptPolicy::new();
        policy.reset(&f.params);
        let mut rng = StdRng::seed_from_u64(0);
        let actions = policy.decide(&f.ctx(&[]), &mut rng);
        assert!(actions.len() <= f.params.labor_rate);
        assert!(!actions.is_empty());
        assert_eq!(policy.phase_name(), "lateral movement");
    }

    #[test]
    fn hmi_vector_goes_through_hmi_capture() {
        let mut f = Fixture::new();
        f.params = AptParams::apt1(AttackObjective::Disrupt, AttackVector::Hmi);
        let ws: Vec<NodeId> = f.topo.workstations().map(|n| n.id).collect();
        for w in ws.iter().take(3) {
            f.compromise(*w, false);
        }
        for v in f.topo.ops_vlans() {
            f.knowledge.discovered_vlans.insert(v);
        }
        f.knowledge.historian_analysis_started = true;
        assert_eq!(
            FsmAptPolicy::derive_phase(&f.ctx(&[])),
            AptPhase::HmiCapture
        );
        let hmis: Vec<NodeId> = f.topo.hmis().map(|n| n.id).collect();
        f.compromise(hmis[0], false);
        assert_eq!(
            FsmAptPolicy::derive_phase(&f.ctx(&[])),
            AptPhase::HmiLateralMovement
        );
        f.compromise(hmis[1], false);
        f.compromise(hmis[2], false);
        assert_eq!(
            FsmAptPolicy::derive_phase(&f.ctx(&[])),
            AptPhase::PlcDiscovery
        );
    }

    #[test]
    fn plc_actions_do_not_depend_on_discovery_order() {
        // Two attackers that discovered the same PLCs in opposite orders
        // must emit the same firmware and execute actions, in ascending PLC
        // order, whatever the set's hashing or insertion history.
        let build = |objective: AttackObjective, reverse: bool| {
            let mut f = Fixture::new();
            f.params = AptParams::apt1(objective, AttackVector::Opc);
            let opc = f.topo.server(ServerRole::Opc).unwrap().id;
            f.compromise(opc, true);
            let mut plcs: Vec<PlcId> = f.topo.plc_ids().collect();
            if reverse {
                plcs.reverse();
            }
            for plc in plcs {
                f.knowledge.record_plc(plc);
            }
            f
        };
        let actions = |f: &Fixture, phase: AptPhase| {
            let mut rng = StdRng::seed_from_u64(7);
            FsmAptPolicy::new().phase_actions(phase, &f.ctx(&[]), &mut rng)
        };
        for (phase, objective) in [
            (AptPhase::FirmwareCompromise, AttackObjective::Destroy),
            (AptPhase::Execute, AttackObjective::Disrupt),
        ] {
            let ascending = actions(&build(objective, false), phase);
            let descending = actions(&build(objective, true), phase);
            assert_eq!(ascending, descending, "{phase:?}");
            let targets: Vec<AptTarget> = ascending.iter().map(|a| a.target).collect();
            let every_plc: Vec<AptTarget> =
                Fixture::new().topo.plc_ids().map(AptTarget::Plc).collect();
            assert_eq!(targets, every_plc, "{phase:?}");
        }
    }

    #[test]
    fn quarantined_access_node_is_not_used() {
        let mut f = Fixture::new();
        let opc = f.topo.server(ServerRole::Opc).unwrap().id;
        f.compromise(opc, true);
        f.state.toggle_quarantine(opc);
        let ctx = f.ctx(&[]);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(FsmAptPolicy::attack_access_node(&ctx, &mut rng), None);
    }
}
