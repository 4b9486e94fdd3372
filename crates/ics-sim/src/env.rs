//! The INASIM environment: the step/reset API the defender interacts with.
//!
//! The environment advances in one-hour steps. Each step the defender submits
//! zero or more actions, the attacker policy starts new actions subject to its
//! labor budget, in-flight actions whose durations have elapsed take effect,
//! the IDS emits alerts, and the reward module scores the resulting state.

use crate::alert::{Alert, AlertCause, AlertSource};
use crate::apt::{
    AptAction, AptActionKind, AptContext, AptKnowledge, AptParams, AptPolicy, AptTarget,
    FsmAptPolicy, InitialAccess,
};
use crate::compromise::CompromiseCondition as C;
use crate::config::SimConfig;
use crate::ids::IdsModule;
use crate::observation::{NodeObservation, Observation};
use crate::orchestrator::{DefenderAction, InvestigationKind, MitigationKind, PlcRecoveryKind};
use crate::plc_state::PlcStatus;
use crate::state::NetworkState;
use ics_net::{NodeId, ServerRole, Topology};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A defender action in flight.
#[derive(Debug, Clone, Copy)]
struct PendingDefender {
    action: DefenderAction,
    complete_at: u64,
    cost: f64,
}

/// An attacker action in flight.
#[derive(Debug, Clone, Copy)]
struct PendingApt {
    action: AptAction,
    complete_at: u64,
    success: bool,
}

/// Extra diagnostic information returned with every step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepInfo {
    /// Name of the attacker FSM phase after the step.
    pub apt_phase: &'static str,
    /// Number of compromised nodes after the step.
    pub nodes_compromised: usize,
    /// Number of PLCs offline after the step.
    pub plcs_offline: usize,
    /// Number of attacker actions currently in flight.
    pub apt_actions_in_flight: usize,
}

/// Result of a single environment step.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// What the defender observes this hour.
    pub observation: Observation,
    /// Task reward (eq. 1) for the step.
    pub reward: f64,
    /// Potential-based shaping reward (eq. 6) for the step. Added to the task
    /// reward during training only.
    pub shaping_reward: f64,
    /// Total cost of defender actions that completed this step.
    pub it_cost: f64,
    /// Whether the episode has reached its time limit.
    pub done: bool,
    /// Diagnostics.
    pub info: StepInfo,
}

/// The ICS network attack simulation environment.
///
/// See the crate-level documentation for an overview and an example.
pub struct IcsEnvironment {
    config: SimConfig,
    topology: Topology,
    ids: IdsModule,
    state: NetworkState,
    knowledge: AptKnowledge,
    apt_params: AptParams,
    apt_policy: Box<dyn AptPolicy>,
    pending_defender: Vec<PendingDefender>,
    pending_apt: Vec<PendingApt>,
    time: u64,
    rng: StdRng,
    /// Persistent per-node observation buffer. Quiet entries carry over from
    /// hour to hour; only the entries dirtied by alerts or completed defender
    /// actions are reset, so per-step observation assembly scales with
    /// activity instead of world size.
    obs_buffer: Vec<NodeObservation>,
    /// Indices into `obs_buffer` written this hour (reset to quiet at the
    /// start of the next hour). May contain duplicates.
    dirty_obs: Vec<usize>,
    /// When set, the observation buffer is rebuilt densely every hour — the
    /// bit-identical reference the sparse-vs-dense equivalence tests compare
    /// against.
    #[cfg(test)]
    dense_observation_mode: bool,
}

impl std::fmt::Debug for IcsEnvironment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IcsEnvironment")
            .field("time", &self.time)
            .field("nodes", &self.state.node_count())
            .field("plcs", &self.state.plc_count())
            .field("compromised", &self.state.compromised_count())
            .finish()
    }
}

impl IcsEnvironment {
    /// Creates an environment with the baseline finite-state-machine attacker.
    ///
    /// # Panics
    ///
    /// Panics if the configured topology spec fails validation; use
    /// [`IcsEnvironment::try_new`] for untrusted configurations (e.g.
    /// scenarios loaded from files).
    pub fn new(config: SimConfig) -> Self {
        Self::try_new(config).expect("invalid topology spec in SimConfig")
    }

    /// Fallible constructor: validates the topology spec instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns the [`ics_net::TopologyError`] produced by
    /// [`Topology::build`] when the configured spec is degenerate.
    pub fn try_new(config: SimConfig) -> Result<Self, ics_net::TopologyError> {
        Self::try_with_apt_policy(config, Box::new(FsmAptPolicy::new()))
    }

    /// Creates an environment with a custom attacker policy.
    ///
    /// # Panics
    ///
    /// Panics if the configured topology spec fails validation; use
    /// [`IcsEnvironment::try_with_apt_policy`] for untrusted configurations.
    pub fn with_apt_policy(config: SimConfig, apt_policy: Box<dyn AptPolicy>) -> Self {
        Self::try_with_apt_policy(config, apt_policy).expect("invalid topology spec in SimConfig")
    }

    /// Fallible variant of [`IcsEnvironment::with_apt_policy`].
    ///
    /// # Errors
    ///
    /// Returns the [`ics_net::TopologyError`] produced by
    /// [`Topology::build`] when the configured spec is degenerate.
    pub fn try_with_apt_policy(
        config: SimConfig,
        apt_policy: Box<dyn AptPolicy>,
    ) -> Result<Self, ics_net::TopologyError> {
        let topology = Topology::build(&config.topology)?;
        let state = NetworkState::new(&topology);
        let ids = IdsModule::new(config.ids);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let apt_params = config.apt.sample(&mut rng);
        let mut env = Self {
            config,
            topology,
            ids,
            state,
            knowledge: AptKnowledge::new(),
            apt_params,
            apt_policy,
            pending_defender: Vec::new(),
            pending_apt: Vec::new(),
            time: 0,
            rng,
            obs_buffer: Vec::new(),
            dirty_obs: Vec::new(),
            #[cfg(test)]
            dense_observation_mode: false,
        };
        env.reset_internal();
        Ok(env)
    }

    /// The static topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The ground-truth network state (hidden from the defender; exposed for
    /// baselines with oracle access, metrics and DBN training data).
    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    /// The attacker's accumulated knowledge (diagnostics).
    pub fn apt_knowledge(&self) -> &AptKnowledge {
        &self.knowledge
    }

    /// The attack configuration sampled for the current episode.
    pub fn apt_params(&self) -> &AptParams {
        &self.apt_params
    }

    /// The environment configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Current simulation hour.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Discount factor of the episode's reward.
    pub fn gamma(&self) -> f64 {
        self.config.reward.gamma
    }

    /// Episode horizon in hours.
    pub fn max_time(&self) -> u64 {
        self.config.reward.max_time
    }

    /// Resets the environment to the start of a fresh episode and returns the
    /// initial (quiet) observation.
    pub fn reset(&mut self) -> Observation {
        self.reset_internal();
        self.quiet_observation()
    }

    fn reset_internal(&mut self) {
        self.state = NetworkState::new(&self.topology);
        self.knowledge = AptKnowledge::new();
        self.pending_defender.clear();
        self.pending_apt.clear();
        self.time = 0;
        self.apt_params = self.config.apt.sample(&mut self.rng);
        self.apt_policy.reset(&self.apt_params);
        self.establish_beachhead();
        self.rebuild_obs_buffer();
    }

    /// Rebuilds the persistent observation buffer with a dense pass: every
    /// node quiet, quarantine flags read from the current state. Runs once
    /// per reset (and, in test builds, every hour in the dense reference
    /// mode).
    fn rebuild_obs_buffer(&mut self) {
        self.dirty_obs.clear();
        self.obs_buffer.clear();
        self.obs_buffer.extend(
            self.topology
                .node_ids()
                .map(|id| NodeObservation::quiet(id, self.state.is_quarantined(id))),
        );
    }

    /// Switches per-step observation assembly between the sparse dirty-set
    /// path (default) and a dense rebuild-everything-every-hour reference.
    /// The two produce bit-identical observations; the dense path exists so
    /// the equivalence tests have an independent baseline to compare against.
    #[cfg(test)]
    pub(crate) fn set_dense_observation_reference(&mut self, dense: bool) {
        self.dense_observation_mode = dense;
    }

    /// Candidate nodes for the attacker's initial foothold, per the sampled
    /// [`InitialAccess`]: level-2 workstations for the paper's phishing-style
    /// entry, level-1 HMIs for the insider archetype.
    fn beachhead_candidates(&self) -> Vec<NodeId> {
        match self.apt_params.initial_access {
            InitialAccess::EngineeringWorkstation => {
                self.topology.workstations().map(|n| n.id).collect()
            }
            InitialAccess::OperationsHmi => self.topology.hmis().map(|n| n.id).collect(),
        }
    }

    /// Gives the attacker its initial foothold: one random entry node (see
    /// [`IcsEnvironment::beachhead_candidates`]) is scanned and compromised,
    /// and the attacker knows the operations VLAN it landed on.
    fn establish_beachhead(&mut self) {
        let candidates = self.beachhead_candidates();
        if let Some(beachhead) = candidates.choose(&mut self.rng).copied() {
            self.state.update_compromise(beachhead, |comp| {
                comp.try_insert(C::Scanned);
                comp.try_insert(C::InitialCompromise);
            });
            let vlan = self.state.vlan_of(beachhead);
            self.knowledge.record_location(beachhead, vlan);
            self.knowledge.discovered_vlans.insert(vlan);
        }
    }

    fn quiet_observation(&self) -> Observation {
        Observation {
            time: self.time,
            nodes: self
                .topology
                .node_ids()
                .map(|id| NodeObservation::quiet(id, self.state.is_quarantined(id)))
                .collect(),
            plc_status: self.state.plc_states().map(|p| p.status).collect(),
            alerts: Vec::new(),
            active_nodes: Vec::new(),
        }
    }

    /// Advances the simulation by one hour.
    ///
    /// The defender may submit any number of actions; each is charged its
    /// cost when it completes. Returns the observation, rewards and
    /// diagnostics for the step.
    pub fn step(&mut self, actions: &[DefenderAction]) -> StepResult {
        self.time += 1;
        let prev_potential = self.config.shaping.potential(&self.state);

        let mut alerts: Vec<Alert> = Vec::new();
        // The dense reference starts the hour from a rebuilt buffer, which
        // leaves no dirty entry for the sparse reset below.
        #[cfg(test)]
        if self.dense_observation_mode {
            self.rebuild_obs_buffer();
        }
        // Reset only the entries written last hour; everything else is
        // already quiet and its quarantine flag is kept current by
        // `apply_mitigation`.
        let mut dirty = std::mem::take(&mut self.dirty_obs);
        dirty.sort_unstable();
        dirty.dedup();
        for idx in dirty.drain(..) {
            let id = NodeId::from_index(idx);
            self.obs_buffer[idx] = NodeObservation::quiet(id, self.state.is_quarantined(id));
        }
        self.dirty_obs = dirty;

        // 1. Enqueue defender actions.
        for action in actions {
            if matches!(action, DefenderAction::NoAction) {
                continue;
            }
            let is_server = action
                .target_node()
                .map(|n| self.state.is_server(n))
                .unwrap_or(false);
            self.pending_defender.push(PendingDefender {
                action: *action,
                complete_at: self.time + action.duration().max(1) - 1,
                cost: action.cost(is_server),
            });
        }

        // 2. Attacker decides and starts new actions.
        self.start_apt_actions(&mut alerts);

        // 3. Apply attacker actions whose durations have elapsed.
        self.complete_apt_actions();

        // 4. Apply defender actions whose durations have elapsed.
        let it_cost = self.complete_defender_actions(&mut alerts);

        // 5. Passive and false alerts.
        alerts.extend(self.ids.passive_alerts(
            &self.topology,
            &self.state,
            self.apt_params.cleanup_effectiveness,
            self.time,
            &mut self.rng,
        ));
        alerts.extend(
            self.ids
                .false_alerts(&self.topology, self.time, &mut self.rng),
        );

        // 6. Aggregate alerts into per-node counts — driven by the raw alert
        // stream, so only nodes that actually alerted this hour are touched.
        for alert in &alerts {
            if let AlertSource::Node(node) = alert.source {
                let sev = (alert.severity.level() - 1) as usize;
                self.obs_buffer[node.index()].alert_counts[sev] += 1;
                self.dirty_obs.push(node.index());
            }
        }
        #[cfg(test)]
        if self.dense_observation_mode {
            for (idx, obs) in self.obs_buffer.iter_mut().enumerate() {
                obs.quarantined = self.state.is_quarantined(NodeId::from_index(idx));
            }
        }

        // 7. Score the step.
        let reward = self
            .config
            .reward
            .step_reward(&self.state, it_cost, self.time);
        let next_potential = self.config.shaping.potential(&self.state);
        let shaping_reward = self.config.shaping.weight
            * (self.config.shaping.gamma * next_potential - prev_potential);
        let done = self.time >= self.config.reward.max_time;

        // The step's dirty set doubles as the observation's active-node list:
        // it is exactly the set of entries written this hour.
        let mut active_nodes = self.dirty_obs.clone();
        active_nodes.sort_unstable();
        active_nodes.dedup();
        let observation = Observation {
            time: self.time,
            nodes: self.obs_buffer.clone(),
            plc_status: self.state.plc_states().map(|p| p.status).collect(),
            alerts,
            active_nodes,
        };
        let info = StepInfo {
            apt_phase: self.apt_policy.phase_name(),
            nodes_compromised: self.state.compromised_count(),
            plcs_offline: self.state.offline_plc_count(),
            apt_actions_in_flight: self.pending_apt.len(),
        };
        StepResult {
            observation,
            reward,
            shaping_reward,
            it_cost,
            done,
            info,
        }
    }

    /// Samples a duration from the Binomial(n, p) distribution of Table 5.
    fn sample_duration(&mut self, kind: AptActionKind) -> u64 {
        let (n, p) = kind.time_dist();
        let mut hours = 0u64;
        for _ in 0..n {
            if self.rng.gen_bool(p) {
                hours += 1;
            }
        }
        hours.max(1)
    }

    fn start_apt_actions(&mut self, alerts: &mut Vec<Alert>) {
        let in_progress: Vec<AptAction> = self.pending_apt.iter().map(|p| p.action).collect();
        let free_labor = self
            .apt_params
            .labor_rate
            .saturating_sub(self.pending_apt.len());
        let decided = {
            let ctx = AptContext {
                topology: &self.topology,
                state: &self.state,
                knowledge: &self.knowledge,
                params: &self.apt_params,
                in_progress: &in_progress,
                free_labor,
                time: self.time,
            };
            self.apt_policy.decide(&ctx, &mut self.rng)
        };
        for action in decided.into_iter().take(free_labor) {
            let success = self.rng.gen_bool(action.kind.success_prob());
            let duration = self.sample_duration(action.kind);
            // Starting analysis is itself the exit criterion of the process
            // discovery phase (Fig. 3), so record it at launch time.
            if action.kind == AptActionKind::AnalyzeHistorian {
                self.knowledge.historian_analysis_started = true;
            }
            if let Some(alert) = self.ids.roll_action_alert(
                &action,
                &self.topology,
                &self.state,
                self.apt_params.cleanup_effectiveness,
                self.time,
                &mut self.rng,
            ) {
                alerts.push(alert);
            }
            self.pending_apt.push(PendingApt {
                action,
                complete_at: self.time + duration,
                success,
            });
        }
    }

    fn complete_apt_actions(&mut self) {
        let due: Vec<PendingApt> = {
            let (due, rest): (Vec<_>, Vec<_>) = self
                .pending_apt
                .drain(..)
                .partition(|p| p.complete_at <= self.time);
            self.pending_apt = rest;
            due
        };
        for pending in due {
            if pending.success {
                self.apply_apt_effect(pending.action);
            }
        }
    }

    /// Whether the attacker can still act from a source node (it is still
    /// compromised and has not been isolated on a quarantine VLAN).
    fn source_usable(&self, source: Option<NodeId>) -> bool {
        match source {
            None => true,
            Some(node) => {
                self.state.compromise(node).is_compromised() && !self.state.is_quarantined(node)
            }
        }
    }

    fn apply_apt_effect(&mut self, action: AptAction) {
        if !self.source_usable(action.source) {
            return;
        }
        match action.kind {
            AptActionKind::InitialIntrusion => {
                let candidates: Vec<NodeId> = self
                    .beachhead_candidates()
                    .into_iter()
                    .filter(|n| !self.state.is_quarantined(*n))
                    .collect();
                if let Some(node) = candidates.choose(&mut self.rng).copied() {
                    self.state.update_compromise(node, |comp| {
                        comp.try_insert(C::Scanned);
                        comp.try_insert(C::InitialCompromise);
                    });
                    let vlan = self.state.vlan_of(node);
                    self.knowledge.record_location(node, vlan);
                    self.knowledge.discovered_vlans.insert(vlan);
                }
            }
            AptActionKind::ScanVlan => {
                if let AptTarget::Vlan(vlan) = action.target {
                    let on_vlan: Vec<NodeId> = self
                        .topology
                        .node_ids()
                        .filter(|id| self.state.vlan_of(*id) == vlan)
                        .collect();
                    for node in on_vlan {
                        self.state
                            .update_compromise(node, |c| c.try_insert(C::Scanned));
                        self.knowledge.record_location(node, vlan);
                    }
                }
            }
            AptActionKind::Compromise => {
                if let Some(target) = action.target_node() {
                    // Stale knowledge: if the node moved since the scan, the
                    // attempt fails and the attacker forgets its location.
                    let believed = self.knowledge.believed_location(target);
                    let actual = self.state.vlan_of(target);
                    if believed != Some(actual) {
                        self.knowledge.forget_location(target);
                        return;
                    }
                    self.state
                        .update_compromise(target, |c| c.try_insert(C::InitialCompromise));
                    if self.state.compromise(target).is_compromised() {
                        self.state.dirty_node(target);
                    }
                }
            }
            AptActionKind::RebootPersist => {
                if let Some(target) = action.target_node() {
                    self.state
                        .update_compromise(target, |c| c.try_insert(C::RebootPersistence));
                }
            }
            AptActionKind::EscalatePrivilege => {
                if let Some(target) = action.target_node() {
                    self.state
                        .update_compromise(target, |c| c.try_insert(C::AdminAccess));
                }
            }
            AptActionKind::CredentialPersist => {
                if let Some(target) = action.target_node() {
                    self.state
                        .update_compromise(target, |c| c.try_insert(C::CredentialPersistence));
                }
            }
            AptActionKind::Cleanup => {
                if let Some(target) = action.target_node() {
                    self.state
                        .update_compromise(target, |c| c.try_insert(C::MalwareCleaned));
                }
            }
            AptActionKind::DiscoverVlan => {
                for vlan in self.topology.ops_vlans() {
                    self.knowledge.discovered_vlans.insert(vlan);
                }
            }
            AptActionKind::DiscoverServer => {
                if let AptTarget::Vlan(vlan) = action.target {
                    let servers: Vec<(ServerRole, NodeId)> = self
                        .topology
                        .servers()
                        .filter(|n| self.state.vlan_of(n.id) == vlan)
                        .filter_map(|n| n.kind.server_role().map(|r| (r, n.id)))
                        .collect();
                    for (role, node) in servers {
                        self.knowledge.record_server(role, node);
                        self.knowledge.record_location(node, vlan);
                        self.state
                            .update_compromise(node, |c| c.try_insert(C::Scanned));
                    }
                }
            }
            AptActionKind::AnalyzeHistorian => {
                self.knowledge.historian_analysis_complete = true;
            }
            AptActionKind::DiscoverPlc => {
                let undiscovered: Vec<_> = self
                    .topology
                    .plc_ids()
                    .filter(|p| !self.state.plc(*p).discovered_by_apt)
                    .collect();
                for plc in undiscovered
                    .into_iter()
                    .take(self.config.plc_discovery_batch)
                {
                    self.state.plc_mut(plc).discovered_by_apt = true;
                    self.knowledge.record_plc(plc);
                }
            }
            AptActionKind::FlashFirmware => {
                if let Some(plc) = action.target_plc() {
                    if self.state.plc(plc).discovered_by_apt {
                        self.state.plc_mut(plc).firmware_compromised = true;
                    }
                }
            }
            AptActionKind::DisruptPlc => {
                if let Some(plc) = action.target_plc() {
                    let p = self.state.plc_mut(plc);
                    if p.discovered_by_apt && p.status == PlcStatus::Nominal {
                        p.status = PlcStatus::Disrupted;
                    }
                }
            }
            AptActionKind::DestroyPlc => {
                if let Some(plc) = action.target_plc() {
                    let p = self.state.plc_mut(plc);
                    if p.discovered_by_apt && p.firmware_compromised {
                        p.status = PlcStatus::Destroyed;
                    }
                }
            }
        }
    }

    fn complete_defender_actions(&mut self, alerts: &mut Vec<Alert>) -> f64 {
        let due: Vec<PendingDefender> = {
            let (due, rest): (Vec<_>, Vec<_>) = self
                .pending_defender
                .drain(..)
                .partition(|p| p.complete_at <= self.time);
            self.pending_defender = rest;
            due
        };
        let mut cost = 0.0;
        for pending in due {
            cost += pending.cost;
            match pending.action {
                DefenderAction::NoAction => {}
                DefenderAction::Investigate { kind, node } => {
                    let detected = self.roll_investigation(kind, node);
                    self.obs_buffer[node.index()].investigation = Some((kind, detected));
                    self.dirty_obs.push(node.index());
                    if detected {
                        alerts.push(Alert {
                            time: self.time,
                            source: AlertSource::Node(node),
                            ip: self.topology.ip_of(node),
                            severity: IdsModule::severity_for_node(&self.state, node),
                            cause: AlertCause::Investigation,
                        });
                    }
                }
                DefenderAction::Mitigate { kind, node } => {
                    self.apply_mitigation(kind, node);
                    let idx = node.index();
                    self.obs_buffer[idx].mitigation = Some(kind);
                    // A quarantine toggle is the only way a node changes VLAN;
                    // refreshing the flag here keeps every untouched buffer
                    // entry's flag permanently current.
                    self.obs_buffer[idx].quarantined = self.state.is_quarantined(node);
                    self.dirty_obs.push(idx);
                }
                DefenderAction::RecoverPlc { kind, plc } => match kind {
                    PlcRecoveryKind::ResetPlc => self.state.plc_mut(plc).reset(),
                    PlcRecoveryKind::ReplacePlc => self.state.plc_mut(plc).replace(),
                },
            }
        }
        cost
    }

    fn roll_investigation(&mut self, kind: InvestigationKind, node: NodeId) -> bool {
        if !self.state.compromise(node).is_compromised() {
            return false;
        }
        let mut p = kind.detect_prob();
        if self.state.compromise(node).contains(C::MalwareCleaned) {
            p *= 1.0 - self.apt_params.cleanup_effectiveness;
        }
        // The advanced scan keeps scanning (one draw per hour) until it
        // detects something or its maximum duration elapses.
        let draws = if kind == InvestigationKind::AdvancedScan {
            kind.duration()
        } else {
            1
        };
        let miss_all = (1.0 - p).powi(draws as i32);
        self.rng.gen_bool((1.0 - miss_all).clamp(0.0, 1.0))
    }

    fn apply_mitigation(&mut self, kind: MitigationKind, node: NodeId) {
        if kind == MitigationKind::Quarantine {
            self.state.toggle_quarantine(node);
            return;
        }
        if let Some(counter) = kind.countermeasure() {
            if self.state.compromise(node).contains(counter) {
                return;
            }
        }
        self.state.update_compromise(node, |c| c.clear_all());
    }

    /// Runs one full episode with a fixed defender action callback, returning
    /// the accumulated evaluation metrics. Convenience for baselines, tests
    /// and benchmarks.
    pub fn run_episode<F>(&mut self, mut defender: F) -> crate::metrics::EpisodeMetrics
    where
        F: FnMut(&Observation, &Self) -> Vec<DefenderAction>,
    {
        let mut metrics = crate::metrics::EpisodeMetrics::new();
        let mut obs = self.reset();
        let gamma = self.gamma();
        let mut discount = 1.0;
        loop {
            let actions = defender(&obs, self);
            let step = self.step(&actions);
            metrics.record_step(
                step.reward,
                discount,
                step.it_cost,
                step.info.nodes_compromised,
                step.info.plcs_offline,
            );
            discount *= gamma;
            obs = step.observation;
            if step.done {
                break;
            }
        }
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apt::{AptProfile, AttackObjective, AttackVector};
    use ics_net::TopologySpec;
    use proptest::prelude::*;

    fn no_defense_config() -> SimConfig {
        SimConfig::small()
            .with_seed(3)
            .with_max_time(4_000)
            .with_apt(
                AptProfile::apt1()
                    .with_objective(AttackObjective::Disrupt)
                    .with_vector(AttackVector::Opc),
            )
    }

    #[test]
    fn reset_establishes_a_single_beachhead() {
        let mut env = IcsEnvironment::new(SimConfig::tiny().with_seed(1));
        let obs = env.reset();
        assert_eq!(env.time(), 0);
        assert_eq!(env.state().compromised_count(), 1);
        assert_eq!(obs.plcs_offline(), 0);
        assert_eq!(obs.nodes.len(), env.topology().node_count());
    }

    #[test]
    fn undefended_network_is_eventually_attacked() {
        let mut env = IcsEnvironment::new(no_defense_config());
        env.reset();
        let mut offline_seen = 0;
        for _ in 0..4_000 {
            let step = env.step(&[DefenderAction::NoAction]);
            offline_seen = offline_seen.max(step.info.plcs_offline);
            if step.done {
                break;
            }
        }
        assert!(
            offline_seen >= 10,
            "expected the undefended APT to take PLCs offline, saw {offline_seen}"
        );
    }

    #[test]
    fn attack_progression_visits_expected_phases() {
        let mut env = IcsEnvironment::new(no_defense_config().with_seed(11));
        env.reset();
        let mut phases = std::collections::HashSet::new();
        for _ in 0..4_000 {
            let step = env.step(&[DefenderAction::NoAction]);
            phases.insert(step.info.apt_phase);
            if step.done {
                break;
            }
        }
        for expected in [
            "lateral movement",
            "network discovery",
            "process discovery",
            "PLC discovery",
            "execute attack",
        ] {
            assert!(
                phases.contains(expected),
                "missing phase {expected}: {phases:?}"
            );
        }
    }

    #[test]
    fn rewards_are_bounded_and_terminal_reward_fires() {
        let cfg = SimConfig::tiny().with_seed(5).with_max_time(50);
        let mut env = IcsEnvironment::new(cfg);
        env.reset();
        let mut last = None;
        for _ in 0..50 {
            let step = env.step(&[DefenderAction::NoAction]);
            assert!(step.reward <= 1.1 + 2_000.1);
            last = Some(step);
        }
        let last = last.unwrap();
        assert!(last.done);
        assert!(last.reward > 1_000.0, "terminal reward should dominate");
    }

    #[test]
    fn defender_costs_are_charged_on_completion() {
        let mut env = IcsEnvironment::new(SimConfig::tiny().with_seed(2).with_max_time(100));
        env.reset();
        let node = env.topology().workstations().next().unwrap().id;
        let action = DefenderAction::Investigate {
            kind: InvestigationKind::SimpleScan,
            node,
        };
        // Simple scan takes 2 hours: cost appears when it completes.
        let step1 = env.step(&[action]);
        let step2 = env.step(&[]);
        assert_eq!(step1.it_cost, 0.0);
        assert!((step2.it_cost - 0.01).abs() < 1e-12);
    }

    #[test]
    fn reimage_evicts_attacker_and_quarantine_isolates() {
        let mut env = IcsEnvironment::new(SimConfig::tiny().with_seed(9).with_max_time(500));
        env.reset();
        let beachhead = env.state().compromised_nodes()[0];
        // Re-image the beachhead; after the 8-hour duration the node is clean.
        let reimage = DefenderAction::Mitigate {
            kind: MitigationKind::ReimageNode,
            node: beachhead,
        };
        env.step(&[reimage]);
        for _ in 0..8 {
            env.step(&[]);
        }
        assert!(!env.state().compromise(beachhead).is_compromised());

        // Quarantining a node moves it to the quarantine VLAN next step.
        let other = env.topology().workstations().nth(1).unwrap().id;
        let quarantine = DefenderAction::Mitigate {
            kind: MitigationKind::Quarantine,
            node: other,
        };
        env.step(&[quarantine]);
        assert!(env.state().is_quarantined(other));
    }

    #[test]
    fn reboot_is_defeated_by_reboot_persistence() {
        let mut env = IcsEnvironment::new(SimConfig::tiny().with_seed(4));
        env.reset();
        let node = env.state().compromised_nodes()[0];
        env_force_persistence(&mut env, node);
        let reboot = DefenderAction::Mitigate {
            kind: MitigationKind::Reboot,
            node,
        };
        env.step(&[reboot]);
        assert!(env.state().compromise(node).is_compromised());
        // A re-image has no countermeasure and always works.
        let reimage = DefenderAction::Mitigate {
            kind: MitigationKind::ReimageNode,
            node,
        };
        env.step(&[reimage]);
        for _ in 0..8 {
            env.step(&[]);
        }
        assert!(!env.state().compromise(node).is_compromised());
    }

    fn env_force_persistence(env: &mut IcsEnvironment, node: NodeId) {
        env.state.update_compromise(node, |comp| {
            comp.try_insert(C::Scanned);
            comp.try_insert(C::InitialCompromise);
            comp.try_insert(C::RebootPersistence);
        });
    }

    #[test]
    fn plc_recovery_actions_restore_service() {
        let mut env = IcsEnvironment::new(SimConfig::tiny().with_seed(8));
        env.reset();
        let plc = env.topology().plc_ids().next().unwrap();
        env.state.plc_mut(plc).status = PlcStatus::Disrupted;
        env.step(&[DefenderAction::RecoverPlc {
            kind: PlcRecoveryKind::ResetPlc,
            plc,
        }]);
        assert_eq!(env.state().plc(plc).status, PlcStatus::Nominal);

        env.state.plc_mut(plc).status = PlcStatus::Destroyed;
        env.step(&[DefenderAction::RecoverPlc {
            kind: PlcRecoveryKind::ReplacePlc,
            plc,
        }]);
        // Replacement takes 24 hours.
        for _ in 0..24 {
            env.step(&[]);
        }
        assert_eq!(env.state().plc(plc).status, PlcStatus::Nominal);
    }

    /// Deterministic scripted defender that exercises every observation
    /// channel: investigations, re-images, and quarantine toggles.
    fn scripted_defender(obs: &Observation, env: &IcsEnvironment) -> Vec<DefenderAction> {
        let n = env.topology().node_count();
        let t = obs.time;
        let mut actions = Vec::new();
        if t.is_multiple_of(5) {
            actions.push(DefenderAction::Investigate {
                kind: InvestigationKind::SimpleScan,
                node: NodeId::from_index((t as usize * 3) % n),
            });
        }
        if t.is_multiple_of(7) {
            actions.push(DefenderAction::Mitigate {
                kind: MitigationKind::Quarantine,
                node: NodeId::from_index((t as usize * 5) % n),
            });
        }
        if t.is_multiple_of(11) {
            actions.push(DefenderAction::Mitigate {
                kind: MitigationKind::ReimageNode,
                node: NodeId::from_index((t as usize * 7) % n),
            });
        }
        actions
    }

    #[test]
    fn sparse_observation_path_matches_dense_reference() {
        let cfg = no_defense_config().with_seed(21).with_max_time(400);
        let run = |dense: bool| {
            let mut env = IcsEnvironment::new(cfg.clone());
            env.set_dense_observation_reference(dense);
            let mut obs = env.reset();
            let mut transcript = Vec::new();
            loop {
                let actions = scripted_defender(&obs, &env);
                let step = env.step(&actions);
                let done = step.done;
                obs = step.observation.clone();
                transcript.push((step.observation, step.reward.to_bits(), step.info));
                if done {
                    break;
                }
            }
            assert!(env.state().sparse_indices_match_dense_scan());
            transcript
        };
        assert_eq!(run(false), run(true));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The sparse world model's equivalence, over arbitrary topology
        /// shapes from tiny up to ~1200 hosts — beyond the 1003-host
        /// registry scenario, across multi-segment layouts where segment 0
        /// spills into overflow /24 subnets: dirty-set observation assembly
        /// is bit-identical to the dense rebuild-everything reference.
        /// Observations, rewards and IT cost must match exactly at every
        /// step while the defender churns quarantine and investigation
        /// actions across the fleet. (acso-core's test of the same name
        /// checks the active-node feature encoding on these observations.)
        #[test]
        fn sparse_and_dense_world_models_are_bit_identical(
            l2_workstations in 1usize..901,
            l1_hmis in 1usize..251,
            plcs in 1usize..121,
            l2_segments in 1usize..9,
            l1_segments in 1usize..9,
            seed in 0u64..100,
        ) {
            let spec = TopologySpec {
                l2_workstations,
                l1_hmis,
                plcs,
                l2_segments,
                l1_segments,
                host_budget: 1_200,
                ..TopologySpec::paper_full()
            };
            prop_assert!(spec.validate().is_ok(), "generated spec must validate");
            let sim = SimConfig {
                topology: spec,
                ..SimConfig::small()
            }
            .with_max_time(40);

            let mut sparse_env = IcsEnvironment::new(sim.clone().with_seed(seed));
            let mut dense_env = IcsEnvironment::new(sim.with_seed(seed));
            dense_env.set_dense_observation_reference(true);
            let nodes = sparse_env.topology().node_count();

            let first_sparse = sparse_env.reset();
            let first_dense = dense_env.reset();
            prop_assert_eq!(&first_sparse, &first_dense);

            for t in 0..40u64 {
                // Deterministic action churn touching nodes all over the
                // fleet: quarantines (VLAN moves), their eventual lifts, and
                // scans.
                let mut actions = vec![DefenderAction::NoAction];
                if t % 5 == 0 {
                    actions.push(DefenderAction::Mitigate {
                        kind: MitigationKind::Quarantine,
                        node: NodeId::from_index((t as usize * 7) % nodes),
                    });
                }
                if t % 3 == 0 {
                    actions.push(DefenderAction::Investigate {
                        kind: InvestigationKind::SimpleScan,
                        node: NodeId::from_index((t as usize * 11) % nodes),
                    });
                }
                let sparse_step = sparse_env.step(&actions);
                let dense_step = dense_env.step(&actions);
                prop_assert_eq!(&sparse_step.observation, &dense_step.observation);
                prop_assert_eq!(sparse_step.reward.to_bits(), dense_step.reward.to_bits());
                prop_assert_eq!(sparse_step.it_cost.to_bits(), dense_step.it_cost.to_bits());
                if sparse_step.done {
                    break;
                }
            }
        }
    }

    #[test]
    fn episodes_are_reproducible_for_a_fixed_seed() {
        let run = |seed: u64| {
            let mut env =
                IcsEnvironment::new(no_defense_config().with_seed(seed).with_max_time(600));
            env.run_episode(|_, _| vec![DefenderAction::NoAction])
        };
        let a = run(17);
        let b = run(17);
        let c = run(18);
        assert_eq!(a, b);
        assert!(a != c || a.discounted_return != c.discounted_return);
    }

    #[test]
    fn run_episode_accumulates_metrics() {
        let mut env = IcsEnvironment::new(SimConfig::tiny().with_seed(6).with_max_time(100));
        let metrics = env.run_episode(|_, _| vec![DefenderAction::NoAction]);
        assert_eq!(metrics.steps, 100);
        assert!(metrics.discounted_return > 0.0);
        assert_eq!(metrics.average_it_cost(), 0.0);
    }

    #[test]
    fn shaping_reward_is_zero_when_disabled() {
        let cfg = SimConfig::tiny()
            .with_seed(12)
            .with_shaping(crate::reward::ShapingConfig::disabled());
        let mut env = IcsEnvironment::new(cfg);
        env.reset();
        for _ in 0..50 {
            let step = env.step(&[DefenderAction::NoAction]);
            assert_eq!(step.shaping_reward, 0.0);
        }
    }
}
