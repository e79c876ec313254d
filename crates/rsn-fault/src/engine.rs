//! Structural accessibility engine for faulty RSNs.
//!
//! For a given [`FaultEffect`], the engine decides for every scan segment
//! whether an *activatable, clean* scan path exists from a scan-in port
//! through the segment to a scan-out port:
//!
//! * **clean** — avoiding all corrupted nodes and multiplexer input edges
//!   (the paper's first access condition: a secondary path that does not
//!   use the faulty scan element),
//! * **activatable** — every multiplexer on the path can be set to the
//!   required input: its address is either free (the controlling register
//!   is itself writable through a clean prefix) or pinned to the required
//!   value (the paper's second access condition: the path must be
//!   configurable by CSU operations).
//!
//! Control writability is a fixed point: a register is writable only via a
//! clean path whose multiplexers are configurable, which may depend on
//! other registers' writability. The fixed point bootstraps from the
//! reset configuration and monotonically *promotes* control bits to fully
//! controllable once their owner is proven writable — starting pessimistic
//! keeps the verdict sound (no circular self-justification).
//!
//! # Engine architecture
//!
//! The fault-tolerance metric evaluates accessibility once per stuck-at
//! fault, so everything that does not depend on the fault is precomputed
//! once in [`AccessEngine::new`]: the dense control-bit index, reset
//! values, roots/sinks, per-node edge lists with multiplexer input
//! indices, and the multiplexer address expressions *compiled* against the
//! dense index ([`CompiledExpr`]), so the per-fault fixed point evaluates
//! over a flat `Vec<BitState>` instead of hash-map lookups. Per-fault
//! working memory lives in a caller-owned [`Scratch`] so sweeps over
//! thousands of faults allocate nothing in the hot loop.

use std::sync::Arc;

use rsn_core::{CompiledExpr, Config, NodeId, NodeKind, Rsn};

use crate::effect::FaultEffect;

/// Per-segment accessibility under one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accessibility {
    /// `accessible[node.index()]` for segment nodes; `false` elsewhere.
    pub accessible: Vec<bool>,
    /// Number of accessible segments.
    pub accessible_segments: usize,
    /// Total number of segments.
    pub total_segments: usize,
    /// Scan bits in accessible segments.
    pub accessible_bits: u64,
    /// Total scan bits.
    pub total_bits: u64,
}

impl Accessibility {
    /// Fraction of accessible segments (1.0 for an empty network).
    pub fn segment_fraction(&self) -> f64 {
        if self.total_segments == 0 {
            1.0
        } else {
            self.accessible_segments as f64 / self.total_segments as f64
        }
    }

    /// Fraction of accessible scan bits (1.0 for an empty network).
    pub fn bit_fraction(&self) -> f64 {
        if self.total_bits == 0 {
            1.0
        } else {
            self.accessible_bits as f64 / self.total_bits as f64
        }
    }
}

/// Attainable-value lattice of one control bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BitState {
    /// The bit can hold 0 in some reachable configuration.
    can0: bool,
    /// The bit can hold 1 in some reachable configuration.
    can1: bool,
    /// Pinned by the fault (stuck cell): never promoted.
    pinned: bool,
}

impl BitState {
    fn pinned(v: bool) -> Self {
        BitState {
            can0: !v,
            can1: v,
            pinned: true,
        }
    }

    fn known(v: bool) -> Self {
        BitState {
            can0: !v,
            can1: v,
            pinned: false,
        }
    }

    fn both(self) -> Self {
        BitState {
            can0: true,
            can1: true,
            pinned: self.pinned,
        }
    }

    fn with_value(self, v: bool) -> Self {
        BitState {
            can0: self.can0 || !v,
            can1: self.can1 || v,
            pinned: self.pinned,
        }
    }

    fn is_both(self) -> bool {
        self.can0 && self.can1
    }
}

/// Decides whether a compiled expression can be made to evaluate to
/// `want` given the current control-bit states. Unresolved references are
/// conservatively unsatisfiable; primary inputs are always drivable.
fn can_set(expr: &CompiledExpr, want: bool, states: &[BitState]) -> bool {
    match expr {
        CompiledExpr::Const(b) => *b == want,
        CompiledExpr::Bit(i) => {
            let s = states[*i as usize];
            if want {
                s.can1
            } else {
                s.can0
            }
        }
        CompiledExpr::Input(_) => true,
        CompiledExpr::Unknown => false,
        CompiledExpr::Not(e) => can_set(e, !want, states),
        CompiledExpr::And(es) => {
            if want {
                es.iter().all(|e| can_set(e, true, states))
            } else {
                es.iter().any(|e| can_set(e, false, states))
            }
        }
        CompiledExpr::Or(es) => {
            if want {
                es.iter().any(|e| can_set(e, true, states))
            } else {
                es.iter().all(|e| can_set(e, false, states))
            }
        }
    }
}

/// One dataflow edge in the flat CSR adjacency arrays. `other` is the
/// far endpoint (target for forward edges, source for backward edges);
/// `slot` is the guarding multiplexer's slot (`u32::MAX` for plain
/// edges) and `k` its input index. The guarding mux is the edge's target
/// node in both directions, so its slot is inlined here to keep the
/// flood inner loop free of `mux_slot` indirections.
#[derive(Debug, Clone, Copy)]
struct CsrEdge {
    other: u32,
    slot: u32,
    k: u32,
}

const NO_MUX: u32 = u32::MAX;

/// Fault-independent data of one multiplexer: its address bits compiled
/// against the engine's dense control-bit index.
#[derive(Debug, Clone)]
struct MuxInfo {
    node: NodeId,
    addr: Vec<CompiledExpr>,
    inputs: u32,
    /// Driving node of each input, in input order (for incremental edge
    /// enabling: mask bit `k` gained ⇒ edge `input_nodes[k] → node`).
    input_nodes: Vec<NodeId>,
}

/// Reusable, fault-independent accessibility engine over one network.
///
/// Construction precomputes the dense control-bit index, reset states,
/// roots/sinks, per-node edge lists and compiled multiplexer addresses;
/// [`AccessEngine::accessibility`] then evaluates one [`FaultEffect`]
/// using caller-owned [`Scratch`] buffers.
///
/// # Example
///
/// ```
/// use rsn_core::examples::fig2;
/// use rsn_fault::{AccessEngine, FaultEffect};
///
/// let rsn = fig2();
/// let engine = AccessEngine::new(&rsn);
/// let mut scratch = engine.scratch();
/// let acc = engine.accessibility(&FaultEffect::benign(), &mut scratch);
/// assert_eq!(acc.segment_fraction(), 1.0);
/// ```
#[derive(Debug)]
pub struct AccessEngine {
    rsn: Arc<Rsn>,
    /// All control bits referenced by any multiplexer address, sorted —
    /// position is the dense index used by `CompiledExpr::Bit`.
    bits: Vec<(NodeId, u32)>,
    /// Reset-value bootstrap state per dense bit.
    reset_states: Vec<BitState>,
    /// Dataflow roots (primary + secondary scan-in).
    roots: Vec<NodeId>,
    /// Dataflow sinks (primary + secondary scan-out).
    sinks: Vec<NodeId>,
    /// Compiled multiplexers, in arena order.
    muxes: Vec<MuxInfo>,
    /// node index → index into `muxes` (`u32::MAX` for non-mux nodes).
    mux_slot: Vec<u32>,
    /// CSR offsets into `fwd_edges` (length `node_count + 1`).
    fwd_off: Vec<u32>,
    /// Successor edges, grouped by source node (CSR layout — one flat
    /// allocation so the flood inner loops stay cache-resident).
    fwd_edges: Vec<CsrEdge>,
    /// CSR offsets into `bwd_edges` (length `node_count + 1`).
    bwd_off: Vec<u32>,
    /// Predecessor edges, grouped by target node (CSR layout).
    bwd_edges: Vec<CsrEdge>,
    /// Segment nodes with their scan-bit lengths.
    segments: Vec<(NodeId, u64)>,
    /// Total scan bits over all segments.
    total_bits: u64,
    /// Cached reset configuration.
    reset: Config,
    /// Per-mux configurability masks under the reset control-bit states
    /// (the fault-free round-1 masks — every warm start copies these).
    reset_masks: Vec<u64>,
    /// Fault-free round-1 any-reachability from roots under `reset_masks`.
    /// Any-traversals ignore corruption, so effects without forced bits or
    /// a forced mux can memcpy this instead of re-walking the network.
    baseline_reach_any: Vec<bool>,
    /// Fault-free round-1 any-exit (backward from sinks) under
    /// `reset_masks`; same reuse rule as `baseline_reach_any`.
    baseline_exit_any: Vec<bool>,
    /// Dense bit index → mux slots whose address reads that bit (the
    /// dirty-frontier dependency index: a promoted bit only re-derives the
    /// masks of these muxes).
    bit_muxes: Vec<Vec<u32>>,
    /// Number of distinct control bits each mux's address reads.
    mux_dep_count: Vec<u32>,
    /// Per-mux configurability masks with every control bit fully
    /// controllable. A mux whose address deps are all `both` must have
    /// exactly this mask (`can_set` only reads the deps), so the warm
    /// path's delta rounds copy it instead of re-evaluating the address
    /// expressions — the dominant cost of a sweep on synthesized
    /// networks.
    full_masks: Vec<u64>,
    /// `true` if any mux has more than 64 inputs: those edges bypass the
    /// mask fast path, so incremental mask deltas cannot see them and the
    /// engine falls back to the cold whole-network fixed point.
    wide_mux: bool,
}

/// Caller-owned per-fault working memory of an [`AccessEngine`].
///
/// One `Scratch` serves any number of sequential `accessibility` calls on
/// the engine that created it; parallel sweeps use one per worker.
#[derive(Debug, Clone)]
pub struct Scratch {
    /// Attainable-value state per dense control bit.
    states: Vec<BitState>,
    /// Per-node cleanliness under the current fault.
    clean: Vec<bool>,
    reach_clean: Vec<bool>,
    reach_any: Vec<bool>,
    /// Backward any-reachability from sinks (the fixed point's exit set).
    can_exit: Vec<bool>,
    /// Backward *clean* reachability from sinks (the final verdict's exit
    /// set — kept separate so the warm path never clobbers `can_exit`).
    exit_clean: Vec<bool>,
    /// DFS stack shared by all traversals.
    stack: Vec<NodeId>,
    /// Per-mux configurable-input bitmask for the current round (bit `k`
    /// set ⇔ input `k` selectable; inputs ≥ 64 use the slow path).
    mux_mask: Vec<u64>,
    /// Per-address-bit `(can0, can1)` staging used while building masks.
    addr_can: Vec<(bool, bool)>,
    /// Warm-path worklist: dense bit indices not yet fully controllable.
    pending: Vec<u32>,
    /// Warm-path bits promoted in the current round.
    changed: Vec<u32>,
    /// Warm-path mux slots whose mask may have grown this round.
    touched: Vec<u32>,
    /// Per-slot dedup stamp for `touched` (`== stamp` ⇔ already queued
    /// this round); replaces a sort + dedup in the round hot loop.
    touch_stamp: Vec<u32>,
    /// Current round's stamp value.
    stamp: u32,
    /// Per-mux count of address deps not yet fully controllable; at zero
    /// the mask is the engine's precomputed `full_masks` entry.
    deps_not_both: Vec<u32>,
    /// Warm-path newly enabled edges `(src, mux, input)` this round.
    new_edges: Vec<(NodeId, NodeId, u32)>,
}

// Compile-time guarantee: the engine stays shareable across threads
// (sweep workers and resident-service requests hold `&`/`Arc` views).
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<AccessEngine>()
};

impl AccessEngine {
    /// Precomputes all fault-independent state of `rsn`.
    ///
    /// Clones the network into an [`Arc`]; callers that already hold one
    /// use [`AccessEngine::from_arc`] to share it instead.
    pub fn new(rsn: &Rsn) -> Self {
        AccessEngine::from_arc(Arc::new(rsn.clone()))
    }

    /// Precomputes all fault-independent state of a shared network. The
    /// engine owns (a handle to) the network, so it carries no borrow —
    /// cacheable and shareable across threads/requests.
    pub fn from_arc(rsn_arc: Arc<Rsn>) -> Self {
        let rsn: &Rsn = &rsn_arc;
        let n = rsn.node_count();

        // Dense control-bit index: every register bit referenced by any
        // multiplexer address, sorted and deduplicated.
        let mut bits = Vec::new();
        for m in rsn.muxes() {
            for expr in &rsn
                .node(m)
                .as_mux()
                .expect("muxes() yields muxes")
                .addr_bits
            {
                expr.collect_reg_refs(&mut bits);
            }
        }
        bits.sort_unstable();
        bits.dedup();

        let reset = rsn.reset_config();
        let reset_states: Vec<BitState> = bits
            .iter()
            .map(|&(node, bit)| {
                let v = match rsn.shadow_offset(node) {
                    Some(off) => reset.bit((off + bit) as usize),
                    None => false,
                };
                BitState::known(v)
            })
            .collect();

        // Compiled multiplexers and edge lists.
        let lookup = |node: NodeId, bit: u32| -> Option<u32> {
            bits.binary_search(&(node, bit)).ok().map(|i| i as u32)
        };
        let mut muxes = Vec::new();
        let mut mux_slot = vec![u32::MAX; n];
        let mut fwd: Vec<Vec<CsrEdge>> = vec![Vec::new(); n];
        let mut bwd: Vec<Vec<CsrEdge>> = vec![Vec::new(); n];
        for id in rsn.node_ids() {
            match rsn.node(id).kind() {
                NodeKind::Mux(m) => {
                    let slot = muxes.len() as u32;
                    mux_slot[id.index()] = slot;
                    muxes.push(MuxInfo {
                        node: id,
                        addr: m
                            .addr_bits
                            .iter()
                            .map(|e| e.compile(&mut |node, bit| lookup(node, bit)))
                            .collect(),
                        inputs: m.inputs.len() as u32,
                        input_nodes: m.inputs.clone(),
                    });
                    for (k, &inp) in m.inputs.iter().enumerate() {
                        fwd[inp.index()].push(CsrEdge {
                            other: id.index() as u32,
                            slot,
                            k: k as u32,
                        });
                        bwd[id.index()].push(CsrEdge {
                            other: inp.index() as u32,
                            slot,
                            k: k as u32,
                        });
                    }
                }
                _ => {
                    if let Some(src) = rsn.node(id).source() {
                        fwd[src.index()].push(CsrEdge {
                            other: id.index() as u32,
                            slot: NO_MUX,
                            k: 0,
                        });
                        bwd[id.index()].push(CsrEdge {
                            other: src.index() as u32,
                            slot: NO_MUX,
                            k: 0,
                        });
                    }
                }
            }
        }
        let flatten = |lists: Vec<Vec<CsrEdge>>| -> (Vec<u32>, Vec<CsrEdge>) {
            let mut off = Vec::with_capacity(lists.len() + 1);
            let mut edges = Vec::with_capacity(lists.iter().map(Vec::len).sum());
            off.push(0);
            for list in lists {
                edges.extend_from_slice(&list);
                off.push(edges.len() as u32);
            }
            (off, edges)
        };
        let (fwd_off, fwd_edges) = flatten(fwd);
        let (bwd_off, bwd_edges) = flatten(bwd);

        let mut roots = vec![rsn.scan_in()];
        roots.extend(rsn.secondary_scan_in());
        let mut sinks = vec![rsn.scan_out()];
        sinks.extend(rsn.secondary_scan_out());

        let segments: Vec<(NodeId, u64)> = rsn
            .segments()
            .map(|s| {
                (
                    s,
                    rsn.node(s)
                        .as_segment()
                        .expect("segments() yields segments")
                        .length as u64,
                )
            })
            .collect();
        let total_bits = segments.iter().map(|&(_, l)| l).sum();

        // Bit → mux dependency index and the wide-mux escape hatch.
        let mut bit_muxes: Vec<Vec<u32>> = vec![Vec::new(); bits.len()];
        let mut mux_dep_count = vec![0u32; muxes.len()];
        let mut refs = Vec::new();
        for (slot, info) in muxes.iter().enumerate() {
            for e in &info.addr {
                e.collect_bits(&mut refs);
            }
            refs.sort_unstable();
            refs.dedup();
            mux_dep_count[slot] = refs.len() as u32;
            for &b in &refs {
                bit_muxes[b as usize].push(slot as u32);
            }
            refs.clear();
        }
        let wide_mux = muxes.iter().any(|m| m.inputs > 64);

        let mut engine = AccessEngine {
            rsn: Arc::clone(&rsn_arc),
            bits,
            reset_states,
            roots,
            sinks,
            muxes,
            mux_slot,
            fwd_off,
            fwd_edges,
            bwd_off,
            bwd_edges,
            segments,
            total_bits,
            reset,
            reset_masks: Vec::new(),
            baseline_reach_any: Vec::new(),
            baseline_exit_any: Vec::new(),
            bit_muxes,
            mux_dep_count,
            full_masks: Vec::new(),
            wide_mux,
        };

        // Fault-free baseline caches: reset-state masks, the round-1
        // any-traversals, and the all-bits-controllable masks. Computed
        // once per engine; every warm start copies these instead of
        // re-deriving them.
        let benign = FaultEffect::benign();
        let mut scratch = engine.scratch();
        scratch.states.copy_from_slice(&engine.reset_states);
        engine.refresh_masks(&benign, &mut scratch);
        engine.reset_masks = scratch.mux_mask.clone();
        engine.forward(&benign, &mut scratch, false);
        engine.backward(&benign, &mut scratch, false);
        engine.baseline_reach_any = scratch.reach_any.clone();
        engine.baseline_exit_any = scratch.can_exit.clone();
        for s in scratch.states.iter_mut() {
            *s = s.both();
        }
        engine.refresh_masks(&benign, &mut scratch);
        engine.full_masks = scratch.mux_mask.clone();
        engine
    }

    /// The network this engine was built for.
    pub fn rsn(&self) -> &Rsn {
        &self.rsn
    }

    /// A shared handle to the network this engine was built for.
    pub fn rsn_arc(&self) -> Arc<Rsn> {
        Arc::clone(&self.rsn)
    }

    /// The cached reset configuration of the network.
    pub fn reset_config(&self) -> &Config {
        &self.reset
    }

    /// Dataflow roots (primary + secondary scan-in ports).
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Dataflow sinks (primary + secondary scan-out ports).
    pub fn sinks(&self) -> &[NodeId] {
        &self.sinks
    }

    /// Number of control bits in the dense index.
    pub fn control_bit_count(&self) -> usize {
        self.bits.len()
    }

    /// Allocates a [`Scratch`] sized for this engine.
    pub fn scratch(&self) -> Scratch {
        let n = self.rsn.node_count();
        Scratch {
            states: vec![BitState::known(false); self.bits.len()],
            clean: vec![true; n],
            reach_clean: vec![false; n],
            reach_any: vec![false; n],
            can_exit: vec![false; n],
            exit_clean: vec![false; n],
            stack: Vec::with_capacity(n),
            mux_mask: vec![0; self.muxes.len()],
            addr_can: Vec::with_capacity(8),
            pending: Vec::with_capacity(self.bits.len()),
            changed: Vec::new(),
            touched: Vec::new(),
            touch_stamp: vec![0; self.muxes.len()],
            stamp: 0,
            deps_not_both: vec![0; self.muxes.len()],
            new_edges: Vec::new(),
        }
    }

    /// Rebuilds the per-mux configurable-input masks from the current
    /// control-bit states (called once per fixed-point round — states
    /// only change *between* traversals).
    fn refresh_masks(&self, effect: &FaultEffect, scratch: &mut Scratch) {
        for slot in 0..self.muxes.len() {
            if let Some(&forced) = effect.forced_mux.get(&self.muxes[slot].node) {
                scratch.mux_mask[slot] = if forced < 64 { 1u64 << forced } else { 0 };
                continue;
            }
            scratch.mux_mask[slot] = self.mask_for(slot, scratch);
        }
    }

    /// Derives one mux's configurable-input mask from the current
    /// control-bit states (per-address-bit attainability, combined per
    /// input index). Does not apply `forced_mux` pins — callers do.
    fn mask_for(&self, slot: usize, scratch: &mut Scratch) -> u64 {
        let info = &self.muxes[slot];
        scratch.addr_can.clear();
        for e in &info.addr {
            scratch.addr_can.push((
                can_set(e, false, &scratch.states),
                can_set(e, true, &scratch.states),
            ));
        }
        let mut mask = 0u64;
        for k in 0..info.inputs.min(64) {
            let ok =
                scratch.addr_can.iter().enumerate().all(
                    |(i, &(c0, c1))| {
                        if (k >> i) & 1 == 1 {
                            c1
                        } else {
                            c0
                        }
                    },
                );
            if ok {
                mask |= 1 << k;
            }
        }
        mask
    }

    /// `true` if input `k` of the mux in `slot` can be selected under the
    /// current states (mask fast path; direct evaluation for inputs ≥ 64).
    fn configurable_slot(
        &self,
        effect: &FaultEffect,
        scratch: &Scratch,
        slot: u32,
        k: u32,
    ) -> bool {
        if k < 64 {
            return scratch.mux_mask[slot as usize] & (1 << k) != 0;
        }
        let info = &self.muxes[slot as usize];
        if let Some(&forced) = effect.forced_mux.get(&info.node) {
            return forced == k as usize;
        }
        info.addr.iter().enumerate().all(|(i, e)| {
            let want = (k >> i) & 1 == 1;
            can_set(e, want, &scratch.states)
        })
    }

    /// Forward reachability from roots into `out`. `require_clean`
    /// restricts traversal to clean nodes and uncorrupted edges.
    fn forward(&self, effect: &FaultEffect, scratch: &mut Scratch, require_clean: bool) {
        let mut out = std::mem::take(if require_clean {
            &mut scratch.reach_clean
        } else {
            &mut scratch.reach_any
        });
        out.fill(false);
        scratch.stack.clear();
        for &r in &self.roots {
            if !require_clean || scratch.clean[r.index()] {
                out[r.index()] = true;
                scratch.stack.push(r);
            }
        }
        self.flood_forward(effect, scratch, require_clean, &mut out);
        if require_clean {
            scratch.reach_clean = out;
        } else {
            scratch.reach_any = out;
        }
    }

    /// Drains `scratch.stack`, growing `out` along forward edges under the
    /// current masks (the DFS body shared by full and incremental forward
    /// traversals — seeds must already be marked in `out`).
    fn flood_forward(
        &self,
        effect: &FaultEffect,
        scratch: &mut Scratch,
        require_clean: bool,
        out: &mut [bool],
    ) {
        let mut stack = std::mem::take(&mut scratch.stack);
        while let Some(u) = stack.pop() {
            let (lo, hi) = (self.fwd_off[u.index()], self.fwd_off[u.index() + 1]);
            for e in &self.fwd_edges[lo as usize..hi as usize] {
                let vi = e.other as usize;
                if out[vi] {
                    continue;
                }
                if require_clean && !scratch.clean[vi] {
                    continue;
                }
                let edge_ok = e.slot == NO_MUX || {
                    self.configurable_slot(effect, scratch, e.slot, e.k)
                        && (!require_clean
                            || !effect
                                .corrupt_mux_inputs
                                .contains(&(NodeId(e.other), e.k as usize)))
                };
                if edge_ok {
                    out[vi] = true;
                    stack.push(NodeId(e.other));
                }
            }
        }
        scratch.stack = stack;
    }

    /// Backward reachability from sinks: the any variant fills
    /// `scratch.can_exit` (the fixed point's exit set), the clean variant
    /// fills `scratch.exit_clean` (the final verdict's exit set).
    fn backward(&self, effect: &FaultEffect, scratch: &mut Scratch, require_clean: bool) {
        let mut out = std::mem::take(if require_clean {
            &mut scratch.exit_clean
        } else {
            &mut scratch.can_exit
        });
        out.fill(false);
        scratch.stack.clear();
        for &s in &self.sinks {
            if !require_clean || scratch.clean[s.index()] {
                out[s.index()] = true;
                scratch.stack.push(s);
            }
        }
        self.flood_backward(effect, scratch, require_clean, &mut out);
        if require_clean {
            scratch.exit_clean = out;
        } else {
            scratch.can_exit = out;
        }
    }

    /// Drains `scratch.stack`, growing `out` along backward edges (the
    /// DFS body shared by full and incremental backward traversals).
    fn flood_backward(
        &self,
        effect: &FaultEffect,
        scratch: &mut Scratch,
        require_clean: bool,
        out: &mut [bool],
    ) {
        let mut stack = std::mem::take(&mut scratch.stack);
        while let Some(v) = stack.pop() {
            let (lo, hi) = (self.bwd_off[v.index()], self.bwd_off[v.index() + 1]);
            for e in &self.bwd_edges[lo as usize..hi as usize] {
                let ui = e.other as usize;
                if out[ui] {
                    continue;
                }
                if require_clean && !scratch.clean[ui] {
                    continue;
                }
                let edge_ok = e.slot == NO_MUX || {
                    self.configurable_slot(effect, scratch, e.slot, e.k)
                        && (!require_clean
                            || !effect.corrupt_mux_inputs.contains(&(v, e.k as usize)))
                };
                if edge_ok {
                    out[ui] = true;
                    stack.push(NodeId(e.other));
                }
            }
        }
        scratch.stack = stack;
    }

    /// Loads the per-fault bootstrap into `scratch` (cleanliness and
    /// initial control-bit states).
    fn load_effect(&self, effect: &FaultEffect, scratch: &mut Scratch) {
        scratch.clean.fill(true);
        for &c in &effect.corrupt_nodes {
            scratch.clean[c.index()] = false;
        }
        // Fault-pinned bits are fixed; bits of a corrupt register are NOT
        // pinned: they hold the reset value until the first CSU through
        // the fault, and the dirty-growth rule adds the stuck value. All
        // other bits start at their reset value and are promoted to
        // fully-controllable once their owner is proven writable.
        scratch.states.copy_from_slice(&self.reset_states);
        for (&(node, bit), &v) in &effect.forced_bits {
            if let Ok(i) = self.bits.binary_search(&(node, bit)) {
                scratch.states[i] = BitState::pinned(v);
            }
        }
    }

    /// Runs the control-writability fixed point: grow the attainable-value
    /// sets from the bootstrap (reset) configuration. A bit becomes fully
    /// controllable when its owner has a *clean* configurable write path;
    /// a *dirty* write path (through the fault site) still
    /// deterministically delivers the fault's stuck value, so it adds
    /// exactly that value (the adapted transition relation of Sec. III-A).
    /// Monotone increasing, hence terminating; starting pessimistic keeps
    /// the verdict sound. Returns the number of rounds run.
    fn fixed_point(&self, effect: &FaultEffect, scratch: &mut Scratch) -> u64 {
        let mut rounds_run = 0u64;
        for _ in 0..=2 * self.bits.len() {
            rounds_run += 1;
            self.refresh_masks(effect, scratch);
            self.forward(effect, scratch, true);
            self.forward(effect, scratch, false);
            self.backward(effect, scratch, false);
            let mut changed = false;
            for (i, &(node, _)) in self.bits.iter().enumerate() {
                let cur = scratch.states[i];
                if cur.pinned || cur.is_both() {
                    continue;
                }
                let mut next = cur;
                let ni = node.index();
                if scratch.clean[ni] && scratch.reach_clean[ni] && scratch.can_exit[ni] {
                    next = next.both();
                } else if let Some(stuck) = effect.stuck {
                    if scratch.reach_any[ni] && scratch.can_exit[ni] {
                        next = next.with_value(stuck);
                    }
                }
                if next != cur {
                    scratch.states[i] = next;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        rounds_run
    }

    /// The warm-start fixed point: identical trajectory to
    /// [`AccessEngine::fixed_point`], but instead of re-deriving every
    /// mask and re-walking the whole network each round it
    ///
    /// 1. memcpys the cached reset masks and (when the effect pins
    ///    nothing) the cached fault-free round-1 any-traversals,
    /// 2. keeps a worklist of still-promotable bits, and
    /// 3. after each promotion round re-derives only the masks of muxes
    ///    whose address reads a promoted bit (`bit_muxes`), growing the
    ///    three reachability sets incrementally from the newly enabled
    ///    edges.
    ///
    /// Exactness: the bit states grow monotonically and `can_set` is
    /// monotone in them, so masks only ever gain bits; a reachability set
    /// grown by flooding from every newly enabled edge equals the set
    /// recomputed from scratch under the grown masks. On convergence
    /// `reach_clean` therefore already equals the final clean forward
    /// pass, and only the clean backward pass still needs a full walk.
    ///
    /// Not valid for engines with > 64-input muxes (edges beyond the mask
    /// fast path would never appear as mask deltas) — callers dispatch on
    /// `wide_mux`.
    fn fixed_point_warm(&self, effect: &FaultEffect, scratch: &mut Scratch) -> u64 {
        debug_assert!(!self.wide_mux);
        // Effects that corrupt nothing (pin-only faults) keep every node
        // clean, so the clean traversals coincide with the any-traversals
        // bit for bit: skip them and copy instead.
        let no_corrupt = effect.corrupt_nodes.is_empty() && effect.corrupt_mux_inputs.is_empty();
        // Round-1 masks: reset masks plus the effect's pins.
        scratch.mux_mask.copy_from_slice(&self.reset_masks);
        let pins = !effect.forced_mux.is_empty() || !effect.forced_bits.is_empty();
        if pins {
            for &(node, bit) in effect.forced_bits.keys() {
                if let Ok(i) = self.bits.binary_search(&(node, bit)) {
                    for &slot in &self.bit_muxes[i] {
                        scratch.mux_mask[slot as usize] = self.mask_for(slot as usize, scratch);
                    }
                }
            }
            for (&m, &forced) in &effect.forced_mux {
                let slot = self.mux_slot[m.index()];
                if slot != u32::MAX {
                    scratch.mux_mask[slot as usize] = if forced < 64 { 1u64 << forced } else { 0 };
                }
            }
        }

        // Round-1 traversals. The any-traversals ignore cleanliness and
        // corrupt edges entirely, so without pins they equal the cached
        // fault-free baselines bit for bit.
        if pins {
            self.forward(effect, scratch, false);
            self.backward(effect, scratch, false);
        } else {
            scratch.reach_any.copy_from_slice(&self.baseline_reach_any);
            scratch.can_exit.copy_from_slice(&self.baseline_exit_any);
        }
        if !no_corrupt {
            self.forward(effect, scratch, true);
        }

        scratch.pending.clear();
        for (i, s) in scratch.states.iter().enumerate() {
            if !s.pinned && !s.is_both() {
                scratch.pending.push(i as u32);
            }
        }
        scratch.deps_not_both.copy_from_slice(&self.mux_dep_count);

        let mut rounds_run = 0u64;
        for _ in 0..=2 * self.bits.len() {
            rounds_run += 1;
            // Promotion round over the unresolved bits (same rule as the
            // cold path; resolved bits leave the worklist). Newly
            // fully-controllable bits retire from their muxes'
            // `deps_not_both` counters.
            scratch.changed.clear();
            let mut kept = 0usize;
            for r in 0..scratch.pending.len() {
                let i = scratch.pending[r] as usize;
                let cur = scratch.states[i];
                let ni = self.bits[i].0.index();
                let mut next = cur;
                let rc = if no_corrupt {
                    scratch.reach_any[ni]
                } else {
                    scratch.clean[ni] && scratch.reach_clean[ni]
                };
                if rc && scratch.can_exit[ni] {
                    next = next.both();
                } else if let Some(stuck) = effect.stuck {
                    if scratch.reach_any[ni] && scratch.can_exit[ni] {
                        next = next.with_value(stuck);
                    }
                }
                if next != cur {
                    scratch.states[i] = next;
                    scratch.changed.push(i as u32);
                    if next.is_both() {
                        for &slot in &self.bit_muxes[i] {
                            scratch.deps_not_both[slot as usize] -= 1;
                        }
                    }
                }
                if !next.is_both() {
                    scratch.pending[kept] = i as u32;
                    kept += 1;
                }
            }
            scratch.pending.truncate(kept);
            if scratch.changed.is_empty() {
                break;
            }

            // Mask deltas: only muxes reading a promoted bit can change,
            // and monotonicity means they only gain input bits. A mux
            // whose deps are all fully controllable copies its
            // precomputed full mask; only muxes straddling the promotion
            // wave re-evaluate their address expressions.
            scratch.stamp = scratch.stamp.wrapping_add(1);
            if scratch.stamp == 0 {
                // Wrapped: invalidate every stale stamp once per 2^32
                // rounds.
                scratch.touch_stamp.fill(u32::MAX);
                scratch.stamp = 1;
            }
            scratch.touched.clear();
            for r in 0..scratch.changed.len() {
                let i = scratch.changed[r] as usize;
                for &slot in &self.bit_muxes[i] {
                    if scratch.touch_stamp[slot as usize] != scratch.stamp {
                        scratch.touch_stamp[slot as usize] = scratch.stamp;
                        scratch.touched.push(slot);
                    }
                }
            }
            let touched = std::mem::take(&mut scratch.touched);
            let mut new_edges = std::mem::take(&mut scratch.new_edges);
            new_edges.clear();
            for &slot in &touched {
                let sl = slot as usize;
                let info = &self.muxes[sl];
                if !effect.forced_mux.is_empty() && effect.forced_mux.contains_key(&info.node) {
                    continue;
                }
                let old = scratch.mux_mask[sl];
                let new = if scratch.deps_not_both[sl] == 0 {
                    self.full_masks[sl]
                } else {
                    self.mask_for(sl, scratch)
                };
                debug_assert_eq!(old & !new, 0, "masks must grow monotonically");
                if new != old {
                    scratch.mux_mask[sl] = new;
                    let mut gained = new & !old;
                    while gained != 0 {
                        let k = gained.trailing_zeros();
                        gained &= gained - 1;
                        new_edges.push((info.input_nodes[k as usize], info.node, k));
                    }
                }
            }
            scratch.touched = touched;

            // Incremental growth of the reachability sets from the newly
            // enabled edges (the clean set needs no growth pass when
            // nothing is corrupt — it is read through `reach_any` then).
            if !new_edges.is_empty() {
                if !no_corrupt {
                    self.expand_forward(effect, scratch, true, &new_edges);
                }
                self.expand_forward(effect, scratch, false, &new_edges);
                self.expand_backward(effect, scratch, &new_edges);
            }
            scratch.new_edges = new_edges;
        }
        if no_corrupt {
            // Re-sync the clean sets the fast path skipped — the verdict
            // and callers read them.
            let (rc, ra) = (&mut scratch.reach_clean, &scratch.reach_any);
            rc.copy_from_slice(ra);
        }
        rounds_run
    }

    /// Grows a forward reachability set from newly enabled mux edges.
    fn expand_forward(
        &self,
        effect: &FaultEffect,
        scratch: &mut Scratch,
        require_clean: bool,
        edges: &[(NodeId, NodeId, u32)],
    ) {
        let mut out = std::mem::take(if require_clean {
            &mut scratch.reach_clean
        } else {
            &mut scratch.reach_any
        });
        scratch.stack.clear();
        for &(src, mux, k) in edges {
            if !out[src.index()] || out[mux.index()] {
                continue;
            }
            if require_clean
                && (!scratch.clean[mux.index()]
                    || effect.corrupt_mux_inputs.contains(&(mux, k as usize)))
            {
                continue;
            }
            out[mux.index()] = true;
            scratch.stack.push(mux);
        }
        self.flood_forward(effect, scratch, require_clean, &mut out);
        if require_clean {
            scratch.reach_clean = out;
        } else {
            scratch.reach_any = out;
        }
    }

    /// Grows the backward any-exit set from newly enabled mux edges.
    fn expand_backward(
        &self,
        effect: &FaultEffect,
        scratch: &mut Scratch,
        edges: &[(NodeId, NodeId, u32)],
    ) {
        let mut out = std::mem::take(&mut scratch.can_exit);
        scratch.stack.clear();
        for &(src, mux, _) in edges {
            if out[mux.index()] && !out[src.index()] {
                out[src.index()] = true;
                scratch.stack.push(src);
            }
        }
        self.flood_backward(effect, scratch, false, &mut out);
        scratch.can_exit = out;
    }

    /// Computes per-segment accessibility under one fault effect, reusing
    /// the engine's precomputation and the caller's scratch buffers.
    ///
    /// Uses the delta-propagation warm start (baseline memcpy + dirty
    /// frontier); engines with > 64-input muxes fall back to
    /// [`AccessEngine::accessibility_cold`]. Both paths produce identical
    /// results — the property tests enforce it.
    pub fn accessibility(&self, effect: &FaultEffect, scratch: &mut Scratch) -> Accessibility {
        if self.wide_mux {
            return self.accessibility_cold(effect, scratch);
        }
        self.load_effect(effect, scratch);
        let rounds_run = self.fixed_point_warm(effect, scratch);
        // One batched export per call keeps registry lock contention out
        // of the per-round hot loop (this runs once per fault). The
        // histogram is the warm-start hit/miss depth distribution: 0
        // rounds means the baseline absorbed the effect outright.
        rsn_obs::counter_add("fault.engine_rounds", rounds_run);
        rsn_obs::hist_record("fault.warm_rounds", rounds_run);
        rsn_obs::debug!(
            "warm fixed point converged after {rounds_run} rounds over {} control bits",
            self.bits.len()
        );
        // reach_clean is maintained incrementally and already final; only
        // the clean exit set needs its (single) full backward walk — and
        // even that collapses to a copy when the effect corrupts nothing
        // (all nodes clean ⇒ clean exit ≡ any exit).
        if effect.corrupt_nodes.is_empty() && effect.corrupt_mux_inputs.is_empty() {
            let (ec, ce) = (&mut scratch.exit_clean, &scratch.can_exit);
            ec.copy_from_slice(ce);
        } else {
            self.backward(effect, scratch, true);
        }
        self.verdict(effect, scratch)
    }

    /// The cold whole-network evaluation (the pre-warm-start path, kept
    /// verbatim): full mask refresh + three full traversals per round.
    /// Reference semantics for the equivalence tests and the fallback for
    /// wide-mux engines.
    pub fn accessibility_cold(&self, effect: &FaultEffect, scratch: &mut Scratch) -> Accessibility {
        self.load_effect(effect, scratch);
        let rounds_run = self.fixed_point(effect, scratch);
        rsn_obs::counter_add("fault.engine_rounds", rounds_run);
        rsn_obs::debug!(
            "fixed point converged after {rounds_run} rounds over {} control bits",
            self.bits.len()
        );

        self.refresh_masks(effect, scratch);
        self.forward(effect, scratch, true);
        self.backward(effect, scratch, true);
        self.verdict(effect, scratch)
    }

    /// Final per-segment verdict from the converged scratch sets.
    fn verdict(&self, effect: &FaultEffect, scratch: &Scratch) -> Accessibility {
        let n = self.rsn.node_count();
        let mut accessible = vec![false; n];
        let mut accessible_segments = 0usize;
        let mut accessible_bits = 0u64;
        for &(seg, len) in &self.segments {
            let si = seg.index();
            let ok = scratch.clean[si]
                && !effect.local_loss.contains(&seg)
                && scratch.reach_clean[si]
                && scratch.exit_clean[si];
            if ok {
                accessible[si] = true;
                accessible_segments += 1;
                accessible_bits += len;
            }
        }

        Accessibility {
            accessible,
            accessible_segments,
            total_segments: self.segments.len(),
            accessible_bits,
            total_bits: self.total_bits,
        }
    }

    /// Diagnostic snapshot of the engine's internal sets for one fault
    /// effect after the fixed point: clean-reachability/clean-exit flags
    /// per node and the list of fully-controllable control bits. Intended
    /// for debugging and tests.
    pub fn internals(
        &self,
        effect: &FaultEffect,
        scratch: &mut Scratch,
    ) -> (Vec<bool>, Vec<bool>, Vec<(NodeId, u32)>) {
        self.load_effect(effect, scratch);
        let rounds_run = self.fixed_point(effect, scratch);
        rsn_obs::counter_add("fault.engine_rounds", rounds_run);
        self.refresh_masks(effect, scratch);
        self.forward(effect, scratch, true);
        self.backward(effect, scratch, true);
        let free: Vec<(NodeId, u32)> = self
            .bits
            .iter()
            .enumerate()
            .filter(|&(i, _)| scratch.states[i].is_both())
            .map(|(_, &b)| b)
            .collect();
        (
            scratch.reach_clean.clone(),
            scratch.exit_clean.clone(),
            free,
        )
    }
}

/// The original HashMap-based accessibility computation, kept verbatim as
/// a slow reference oracle for the equivalence property tests.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use rsn_core::{Config, ControlExpr, NodeId, NodeKind, Rsn};

    use super::{Accessibility, BitState};
    use crate::effect::FaultEffect;

    fn can_set(expr: &ControlExpr, want: bool, states: &HashMap<(NodeId, u32), BitState>) -> bool {
        match expr {
            ControlExpr::Const(b) => *b == want,
            ControlExpr::Reg(n, bit) => match states.get(&(*n, *bit)) {
                Some(s) => {
                    if want {
                        s.can1
                    } else {
                        s.can0
                    }
                }
                None => false,
            },
            ControlExpr::Input(_) => true, // primary inputs are always drivable
            ControlExpr::Not(e) => can_set(e, !want, states),
            ControlExpr::And(es) => {
                if want {
                    es.iter().all(|e| can_set(e, true, states))
                } else {
                    es.iter().any(|e| can_set(e, false, states))
                }
            }
            ControlExpr::Or(es) => {
                if want {
                    es.iter().any(|e| can_set(e, true, states))
                } else {
                    es.iter().all(|e| can_set(e, false, states))
                }
            }
        }
    }

    struct EngineCtx<'a> {
        rsn: &'a Rsn,
        clean: Vec<bool>,
        corrupt_inputs: HashMap<(NodeId, usize), ()>,
        forced_mux: &'a HashMap<NodeId, usize>,
        states: HashMap<(NodeId, u32), BitState>,
        roots: Vec<NodeId>,
        sinks: Vec<NodeId>,
    }

    impl EngineCtx<'_> {
        fn configurable(&self, m: NodeId, k: usize) -> bool {
            if let Some(&forced) = self.forced_mux.get(&m) {
                return forced == k;
            }
            let mux = self.rsn.node(m).as_mux().expect("mux");
            mux.addr_bits.iter().enumerate().all(|(i, expr)| {
                let want = (k >> i) & 1 == 1;
                can_set(expr, want, &self.states)
            })
        }

        fn forward(&self, require_clean: bool) -> Vec<bool> {
            let n = self.rsn.node_count();
            let mut seen = vec![false; n];
            let mut stack = Vec::new();
            for &r in &self.roots {
                if !require_clean || self.clean[r.index()] {
                    seen[r.index()] = true;
                    stack.push(r);
                }
            }
            while let Some(u) = stack.pop() {
                for &v in self.rsn.successors(u) {
                    if seen[v.index()] {
                        continue;
                    }
                    if require_clean && !self.clean[v.index()] {
                        continue;
                    }
                    let edge_ok = match self.rsn.node(v).kind() {
                        NodeKind::Mux(mux) => mux.inputs.iter().enumerate().any(|(k, &inp)| {
                            inp == u
                                && self.configurable(v, k)
                                && (!require_clean || !self.corrupt_inputs.contains_key(&(v, k)))
                        }),
                        _ => true,
                    };
                    if edge_ok {
                        seen[v.index()] = true;
                        stack.push(v);
                    }
                }
            }
            seen
        }

        fn backward(&self, require_clean: bool) -> Vec<bool> {
            let n = self.rsn.node_count();
            let mut seen = vec![false; n];
            let mut stack = Vec::new();
            for &s in &self.sinks {
                if !require_clean || self.clean[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
            while let Some(v) = stack.pop() {
                let preds: Vec<(NodeId, Option<usize>)> = match self.rsn.node(v).kind() {
                    NodeKind::Mux(mux) => mux
                        .inputs
                        .iter()
                        .enumerate()
                        .map(|(k, &inp)| (inp, Some(k)))
                        .collect(),
                    _ => self
                        .rsn
                        .node(v)
                        .source()
                        .map(|s| (s, None))
                        .into_iter()
                        .collect(),
                };
                for (u, edge) in preds {
                    if seen[u.index()] {
                        continue;
                    }
                    if require_clean && !self.clean[u.index()] {
                        continue;
                    }
                    let edge_ok = match edge {
                        Some(k) => {
                            self.configurable(v, k)
                                && (!require_clean || !self.corrupt_inputs.contains_key(&(v, k)))
                        }
                        None => true,
                    };
                    if edge_ok {
                        seen[u.index()] = true;
                        stack.push(u);
                    }
                }
            }
            seen
        }
    }

    fn control_bits(rsn: &Rsn) -> Vec<(NodeId, u32)> {
        let mut bits = Vec::new();
        for m in rsn.muxes() {
            for expr in &rsn.node(m).as_mux().expect("mux").addr_bits {
                expr.collect_reg_refs(&mut bits);
            }
        }
        bits.sort_unstable();
        bits.dedup();
        bits
    }

    fn reset_bit(cfg: &Config, idx: u32) -> bool {
        cfg.bit(idx as usize)
    }

    /// The pre-engine `accessibility` implementation, verbatim.
    pub fn accessibility(rsn: &Rsn, effect: &FaultEffect) -> Accessibility {
        let n = rsn.node_count();
        let mut clean = vec![true; n];
        for &c in &effect.corrupt_nodes {
            clean[c.index()] = false;
        }
        let corrupt_inputs: HashMap<(NodeId, usize), ()> =
            effect.corrupt_mux_inputs.iter().map(|&e| (e, ())).collect();

        let reset = rsn.reset_config();
        let bits = control_bits(rsn);
        let reset_value = |node: NodeId, bit: u32| -> bool {
            match rsn.shadow_offset(node) {
                Some(off) => reset_bit(&reset, off + bit),
                None => false,
            }
        };
        let states: HashMap<(NodeId, u32), BitState> = bits
            .iter()
            .map(|&(node, bit)| {
                let state = match effect.forced_bits.get(&(node, bit)) {
                    Some(&v) => BitState::pinned(v),
                    None => BitState::known(reset_value(node, bit)),
                };
                ((node, bit), state)
            })
            .collect();

        let mut roots = vec![rsn.scan_in()];
        roots.extend(rsn.secondary_scan_in());
        let mut sinks = vec![rsn.scan_out()];
        sinks.extend(rsn.secondary_scan_out());

        let mut ctx = EngineCtx {
            rsn,
            clean,
            corrupt_inputs,
            forced_mux: &effect.forced_mux,
            states,
            roots,
            sinks,
        };

        for _ in 0..=2 * bits.len() {
            let reach_clean = ctx.forward(true);
            let reach_any = ctx.forward(false);
            let can_exit = ctx.backward(false);
            let mut changed = false;
            for &(node, bit) in &bits {
                let cur = match ctx.states.get(&(node, bit)) {
                    Some(s) if !s.pinned && !s.is_both() => *s,
                    _ => continue,
                };
                let mut next = cur;
                if ctx.clean[node.index()] && reach_clean[node.index()] && can_exit[node.index()] {
                    next = next.both();
                } else if let Some(stuck) = effect.stuck {
                    if reach_any[node.index()] && can_exit[node.index()] {
                        next = next.with_value(stuck);
                    }
                }
                if next != cur {
                    ctx.states.insert((node, bit), next);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let reach_clean = ctx.forward(true);
        let exit_clean = ctx.backward(true);

        let mut accessible = vec![false; n];
        let mut accessible_segments = 0usize;
        let mut total_segments = 0usize;
        let mut accessible_bits = 0u64;
        let mut total_bits = 0u64;
        for seg in rsn.segments() {
            total_segments += 1;
            let len = rsn
                .node(seg)
                .as_segment()
                .expect("segments() yields segments")
                .length as u64;
            total_bits += len;
            let ok = ctx.clean[seg.index()]
                && !effect.local_loss.contains(&seg)
                && reach_clean[seg.index()]
                && exit_clean[seg.index()];
            if ok {
                accessible[seg.index()] = true;
                accessible_segments += 1;
                accessible_bits += len;
            }
        }

        Accessibility {
            accessible,
            accessible_segments,
            total_segments,
            accessible_bits,
            total_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::effect_of;
    use crate::fault::{fault_universe, Fault, FaultSite};
    use crate::metric::HardeningProfile;
    use rsn_core::examples::{chain, fig2, sib_tree};
    use rsn_itc02::parse_soc;
    use rsn_sib::generate;

    fn acc_for(rsn: &Rsn, fault: Fault) -> Accessibility {
        let e = effect_of(rsn, &fault, HardeningProfile::unhardened());
        let engine = AccessEngine::new(rsn);
        engine.accessibility(&e, &mut engine.scratch())
    }

    #[test]
    fn fault_free_everything_accessible() {
        let rsn = fig2();
        let engine = AccessEngine::new(&rsn);
        let acc = engine.accessibility(&FaultEffect::benign(), &mut engine.scratch());
        assert_eq!(acc.accessible_segments, 4);
        assert_eq!(acc.segment_fraction(), 1.0);
        assert_eq!(acc.bit_fraction(), 1.0);
    }

    #[test]
    fn scan_in_fault_disconnects_everything() {
        let rsn = fig2();
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::ScanInPort(rsn.scan_in()),
                value: false,
                weight: 1,
            },
        );
        assert_eq!(acc.accessible_segments, 0);
        assert_eq!(acc.segment_fraction(), 0.0);
    }

    #[test]
    fn fault_on_a_kills_all_of_fig2() {
        // A is on every path in Fig. 2.
        let rsn = fig2();
        let a = rsn.find("A").expect("A");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::SegmentData(a),
                value: false,
                weight: 2,
            },
        );
        assert_eq!(acc.accessible_segments, 0);
    }

    #[test]
    fn fault_on_b_leaves_a_c_d_accessible() {
        // B has the C-branch as an alternative in Fig. 2.
        let rsn = fig2();
        let b = rsn.find("B").expect("B");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::SegmentData(b),
                value: false,
                weight: 2,
            },
        );
        assert_eq!(acc.accessible_segments, 3);
        assert!(!acc.accessible[b.index()]);
        for name in ["A", "C", "D"] {
            let id = rsn.find(name).expect("exists");
            assert!(acc.accessible[id.index()], "{name} must stay accessible");
        }
    }

    #[test]
    fn forced_mux_address_limits_branch() {
        // Address stuck at 0 pins the B branch: C inaccessible.
        let rsn = fig2();
        let m = rsn.find("M").expect("mux");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::MuxAddress(m),
                value: false,
                weight: 1,
            },
        );
        let c = rsn.find("C").expect("C");
        let b = rsn.find("B").expect("B");
        assert!(!acc.accessible[c.index()]);
        assert!(acc.accessible[b.index()]);
        assert_eq!(acc.accessible_segments, 3);
    }

    #[test]
    fn control_register_data_fault_freezes_control() {
        // A's data fault: A unwritable, so the mux stays at reset (B
        // branch) — but A itself is corrupt, killing every path anyway.
        let rsn = fig2();
        let a = rsn.find("A").expect("A");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::SegmentData(a),
                value: true,
                weight: 2,
            },
        );
        assert_eq!(acc.accessible_segments, 0);
    }

    #[test]
    fn sib_rsn_fault_in_subtree_spares_other_modules() {
        let soc = parse_soc("SocName t\n1 0 0 0 1 : 4\n2 0 0 0 1 : 4\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        let leaf1 = rsn.find("m1.c0.seg").expect("leaf");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::SegmentData(leaf1),
                value: false,
                weight: 2,
            },
        );
        // Only that leaf is lost: its SIB and module 2 remain accessible.
        assert_eq!(acc.accessible_segments, acc.total_segments - 1);
        assert!(!acc.accessible[leaf1.index()]);
    }

    #[test]
    fn sib_rsn_top_level_sib_fault_kills_everything() {
        let soc = parse_soc("SocName t\n1 0 0 0 1 : 4\n2 0 0 0 1 : 4\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        let sib = rsn.find("m1.sib").expect("sib");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::SegmentData(sib),
                value: false,
                weight: 2,
            },
        );
        // The module SIB register sits on the one-and-only top-level chain.
        assert_eq!(acc.accessible_segments, 0);
    }

    #[test]
    fn sib_shadow_stuck_closed_loses_subtree_only() {
        let soc = parse_soc("SocName t\n1 0 0 0 2 : 4 4\n2 0 0 0 1 : 4\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        let sib = rsn.find("m1.sib").expect("sib");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::SegmentShadow(sib),
                value: false,
                weight: 1,
            },
        );
        // m1's subtree (2 chain SIBs + 2 leaves) is unreachable; the SIB
        // register itself is still on the scan path and accessible, as is
        // all of m2 and the tdr-free top level.
        let lost = 4;
        assert_eq!(acc.accessible_segments, acc.total_segments - lost);
        assert!(acc.accessible[sib.index()]);
    }

    #[test]
    fn sib_shadow_stuck_open_keeps_everything_accessible() {
        let soc = parse_soc("SocName t\n1 0 0 0 2 : 4 4\n2 0 0 0 1 : 4\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        let sib = rsn.find("m1.sib").expect("sib");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::SegmentShadow(sib),
                value: true,
                weight: 1,
            },
        );
        // Stuck-open only forces the subtree onto the path; everything is
        // still reachable and clean.
        assert_eq!(acc.accessible_segments, acc.total_segments);
    }

    #[test]
    fn mux_bypass_input_fault_loses_bypass_only_when_needed() {
        // Bypass input corrupt: paths that need the bypass (i.e. everything
        // while the SIB is closed) must open the SIB instead; all segments
        // remain accessible because opening is always possible.
        let soc = parse_soc("SocName t\n1 0 0 0 1 : 4\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        let mux = rsn.find("m1.c0.mux").expect("mux");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::MuxInput(mux, 0),
                value: false,
                weight: 1,
            },
        );
        assert_eq!(acc.accessible_segments, acc.total_segments);
    }

    #[test]
    fn scratch_is_reusable_across_faults() {
        let rsn = fig2();
        let engine = AccessEngine::new(&rsn);
        let mut scratch = engine.scratch();
        let profile = HardeningProfile::unhardened();
        for fault in fault_universe(&rsn) {
            let effect = effect_of(&rsn, &fault, profile);
            let fresh = engine.accessibility(&effect, &mut engine.scratch());
            let reused = engine.accessibility(&effect, &mut scratch);
            assert_eq!(fresh, reused, "scratch reuse must not leak state");
        }
    }

    #[test]
    fn internals_report_free_bits_in_fault_free_network() {
        let rsn = fig2();
        let engine = AccessEngine::new(&rsn);
        let (reach, exit, free) = engine.internals(&FaultEffect::benign(), &mut engine.scratch());
        let a = rsn.find("A").expect("A");
        assert!(reach[a.index()] && exit[a.index()]);
        // A[0] is the only control bit and becomes fully controllable.
        assert_eq!(free, vec![(a, 0)]);
    }

    /// Deterministic splitmix64 generator for reproducible random cases.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random multi-module SIB SoC description: 1–3 modules with 1–3
    /// scan chains of 1–6 bits each.
    fn random_sib_rsn(rng: &mut Rng) -> Rsn {
        let modules = 1 + rng.below(3);
        let mut text = String::from("SocName rand\n");
        for m in 1..=modules {
            let chains = 1 + rng.below(3);
            let lengths: Vec<String> = (0..chains)
                .map(|_| (1 + rng.below(6)).to_string())
                .collect();
            text.push_str(&format!("{m} 0 0 0 {chains} : {}\n", lengths.join(" ")));
        }
        let soc = parse_soc(&text).expect("generated SoC parses");
        generate(&soc).expect("SIB generation succeeds")
    }

    fn assert_engine_matches_reference(rsn: &Rsn, label: &str) {
        let engine = AccessEngine::new(rsn);
        let mut scratch = engine.scratch();
        for profile in [HardeningProfile::unhardened(), HardeningProfile::hardened()] {
            for fault in fault_universe(rsn) {
                let effect = effect_of(rsn, &fault, profile);
                let fast = engine.accessibility(&effect, &mut scratch);
                let cold = engine.accessibility_cold(&effect, &mut scratch);
                let slow = reference::accessibility(rsn, &effect);
                assert_eq!(
                    fast, cold,
                    "{label}: warm/cold engine mismatch under {fault} \
                     (select_hardened {})",
                    profile.select_hardened
                );
                assert_eq!(
                    fast, slow,
                    "{label}: engine/reference mismatch under {fault} \
                     (select_hardened {})",
                    profile.select_hardened
                );
            }
        }
    }

    #[test]
    fn engine_matches_reference_on_examples() {
        assert_engine_matches_reference(&fig2(), "fig2");
        assert_engine_matches_reference(&chain(4, 3), "chain(4,3)");
        assert_engine_matches_reference(&sib_tree(2, 2, 3), "sib_tree(2,2,3)");
    }

    #[test]
    fn engine_matches_reference_on_random_sib_networks() {
        let mut rng = Rng(0x5eed_acce55);
        for case in 0..12 {
            let rsn = random_sib_rsn(&mut rng);
            assert_engine_matches_reference(&rsn, &format!("random case {case}"));
        }
    }

    #[test]
    fn engine_matches_reference_on_synthesized_ft_network() {
        // The FT network exercises secondary ports, XOR mux addresses and
        // hardened muxes — the structurally richest family.
        let rsn = fig2();
        let ft = rsn_synth_like_fixture(&rsn);
        assert_engine_matches_reference(&ft, "fig2 double-branch fixture");
    }

    /// A hand-built network with a secondary scan-in/out and a 4-input
    /// mux, covering engine paths the SIB family never exercises
    /// (multi-bit addresses, multiple roots/sinks). rsn-fault cannot
    /// depend on rsn-synth (cycle), so the fixture is built directly.
    fn rsn_synth_like_fixture(_base: &Rsn) -> Rsn {
        use rsn_core::{ControlExpr, RsnBuilder};
        let mut b = RsnBuilder::new("fixture");
        let ctl = b.add_segment("CTL", 2);
        b.set_select(ctl, ControlExpr::TRUE);
        b.connect(b.scan_in(), ctl);
        let si2 = b.add_secondary_scan_in("scan_in2");
        let s0 = b.add_segment("S0", 2);
        let s1 = b.add_segment("S1", 3);
        let s2 = b.add_segment("S2", 4);
        let s3 = b.add_segment("S3", 5);
        for s in [s0, s1, s2, s3] {
            b.set_select(s, ControlExpr::TRUE);
        }
        b.connect(ctl, s0);
        b.connect(ctl, s1);
        b.connect(si2, s2);
        b.connect(si2, s3);
        let m = b.add_mux(
            "M4",
            vec![s0, s1, s2, s3],
            vec![ControlExpr::reg(ctl, 0), ControlExpr::reg(ctl, 1)],
        );
        let so2 = b.add_secondary_scan_out("scan_out2");
        b.connect(s3, so2);
        b.connect(m, b.scan_out());
        b.finish().expect("fixture is structurally valid")
    }
}
