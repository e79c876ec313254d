//! The check catalog: graph-theoretic passes and SAT-proven properties.
//!
//! Every check here is exhaustive — either a reachability/SCC argument
//! over the dataflow graph or a satisfiability proof over *all*
//! configurations. Nothing samples.

use std::collections::BTreeMap;

use rsn_core::{NodeId, NodeKind, Rsn};
use rsn_graph::DiGraph;

use crate::diag::{Code, Diagnostic};
use crate::encode::{NetworkSat, SatScratch};

/// Structural passes: reachability in both directions (`RSN007`,
/// `RSN008`) and shadow-less address sources (`RSN006`). Only graph
/// reachability and expression syntax are read; no configuration is
/// evaluated.
pub(crate) fn structural(rsn: &Rsn) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Reachability in both directions.
    let n = rsn.node_count();
    let mut fwd = vec![false; n];
    let mut stack: Vec<NodeId> = rsn
        .node_ids()
        .filter(|&id| matches!(rsn.node(id).kind(), NodeKind::ScanIn))
        .collect();
    for &r in &stack {
        fwd[r.index()] = true;
    }
    while let Some(u) = stack.pop() {
        for &v in rsn.successors(u) {
            if !fwd[v.index()] {
                fwd[v.index()] = true;
                stack.push(v);
            }
        }
    }
    let mut bwd = vec![false; n];
    let mut stack: Vec<NodeId> = rsn
        .node_ids()
        .filter(|&id| matches!(rsn.node(id).kind(), NodeKind::ScanOut))
        .collect();
    for &s in &stack {
        bwd[s.index()] = true;
    }
    while let Some(u) = stack.pop() {
        for p in rsn.predecessors(u) {
            if !bwd[p.index()] {
                bwd[p.index()] = true;
                stack.push(p);
            }
        }
    }
    for id in rsn.node_ids().filter(|id| !fwd[id.index()]) {
        out.push(Diagnostic::new(
            Code::UnreachableFromScanIn,
            rsn,
            id,
            "node is unreachable from any scan-in port",
        ));
    }
    for id in rsn.node_ids().filter(|id| !bwd[id.index()]) {
        out.push(Diagnostic::new(
            Code::CannotReachScanOut,
            rsn,
            id,
            "no scan-out port is reachable from the node",
        ));
    }

    // Shadow-less address sources.
    for m in rsn.muxes() {
        let mux = rsn.node(m).as_mux().expect("mux");
        let mut refs = Vec::new();
        for e in &mux.addr_bits {
            e.collect_reg_refs(&mut refs);
        }
        for (register, _) in refs {
            if rsn.shadow_offset(register).is_none() {
                out.push(
                    Diagnostic::new(
                        Code::AddressWithoutShadow,
                        rsn,
                        m,
                        format!(
                            "mux address reads register {} ({}) which has no shadow",
                            register,
                            rsn.node(register).name()
                        ),
                    )
                    .with_related(vec![register]),
                );
            }
        }
    }
    out
}

/// Select checks (`RSN002`, `RSN001`): for every segment, prove that the
/// select predicate is satisfiable and that it agrees with active-path
/// membership in *every* configuration, or extract a witness.
///
/// Like every SAT-backed family, returns its findings with `true` when
/// every query was decided. An undecided query emits no finding.
pub(crate) fn select_checks(
    rsn: &Rsn,
    sat: &NetworkSat,
    scr: &mut SatScratch,
) -> (Vec<Diagnostic>, bool) {
    let mut out = Vec::new();
    let mut decided = true;
    for s in rsn.segments() {
        let sel = sat.select(s);
        let outcome = sat.satisfiable(scr, &[sel]);
        decided &= !outcome.is_unknown();
        if outcome.is_unsat() {
            out.push(Diagnostic::new(
                Code::NeverSelected,
                rsn,
                s,
                "select predicate is unsatisfiable: the segment can never be selected",
            ));
        }
        let mismatch = sat.select_mismatch(s);
        let found = sat.witness(rsn, scr, &[mismatch]);
        decided &= found.is_ok();
        if let Ok(Some(witness)) = found {
            out.push(
                Diagnostic::new(
                    Code::SelectPathMismatch,
                    rsn,
                    s,
                    "a configuration exists where the select predicate disagrees \
                     with active-scan-path membership",
                )
                .with_witness(witness),
            );
        }
    }
    (out, decided)
}

/// Multiplexer checks (`RSN003`, `RSN004`, `RSN005`): per input, prove
/// selectability; per mux, prove the decoded address stays in range.
pub(crate) fn mux_checks(
    rsn: &Rsn,
    sat: &NetworkSat,
    scr: &mut SatScratch,
) -> (Vec<Diagnostic>, bool) {
    let mut out = Vec::new();
    let mut decided = true;
    for m in rsn.muxes() {
        let mux = rsn.node(m).as_mux().expect("mux");
        let n_inputs = mux.inputs.len();
        let mut alive = Vec::with_capacity(n_inputs);
        for k in 0..n_inputs {
            let c = sat.mux_cond(m, k);
            alive.push(sat.satisfiable(scr, &[c]));
        }
        let alive_count = alive.iter().filter(|a| a.is_sat()).count();
        if alive.iter().any(|a| a.is_unknown()) {
            // Both findings below count the live inputs.
            decided = false;
        } else if alive_count <= 1 {
            out.push(Diagnostic::new(
                Code::MuxNeverSwitches,
                rsn,
                m,
                format!(
                    "at most one of {n_inputs} inputs is ever selectable: \
                     the multiplexer never switches"
                ),
            ));
        } else {
            for (k, a) in alive.iter().enumerate() {
                if a.is_unsat() {
                    out.push(
                        Diagnostic::new(
                            Code::DeadMuxInput,
                            rsn,
                            m,
                            format!(
                                "input {k} (driven by {}) is never selectable",
                                rsn.node(mux.inputs[k]).name()
                            ),
                        )
                        .with_related(vec![mux.inputs[k]]),
                    );
                }
            }
        }
        if let Some(overflow) = sat.addr_overflow(m) {
            let found = sat.witness(rsn, scr, &[overflow]);
            decided &= found.is_ok();
            if let Ok(Some(witness)) = found {
                out.push(
                    Diagnostic::new(
                        Code::MuxAddressOverflow,
                        rsn,
                        m,
                        format!(
                            "a configuration decodes an address beyond the \
                             {n_inputs} inputs"
                        ),
                    )
                    .with_witness(witness),
                );
            }
        }
    }
    (out, decided)
}

/// Shadow-controllability (`RSN010`): every register whose bits feed
/// control logic must be placeable on a scan path, otherwise the control
/// state is stuck at its reset value forever.
pub(crate) fn controllability(
    rsn: &Rsn,
    sat: &NetworkSat,
    scr: &mut SatScratch,
) -> (Vec<Diagnostic>, bool) {
    let consumers = control_consumers(rsn);
    let mut out = Vec::new();
    let mut decided = true;
    for (reg, users) in consumers {
        if rsn.shadow_offset(reg).is_none() {
            continue; // reported as RSN006 by the structural pass
        }
        let on = sat.onpath(reg);
        let outcome = sat.satisfiable(scr, &[on]);
        decided &= !outcome.is_unknown();
        if outcome.is_unsat() {
            out.push(
                Diagnostic::new(
                    Code::UncontrollableControlRegister,
                    rsn,
                    reg,
                    format!(
                        "shadow register drives control logic of {} node(s) but can \
                         never lie on a scan path: its bits are stuck at reset",
                        users.len()
                    ),
                )
                .with_related(users),
            );
        }
    }
    (out, decided)
}

/// Control-dependency cycles (`RSN009`): SCCs of the graph with an edge
/// `owner → consumer` whenever a consumer's control expression reads the
/// owner's shadow register. Self-loops are excluded — a segment gating
/// itself is idiomatic (SIB-style) and routing bits of the synthesis
/// live in the segment they steer.
pub(crate) fn control_cycles(rsn: &Rsn) -> Vec<Diagnostic> {
    let n = rsn.node_count();
    let mut g = DiGraph::new(n);
    for (owner, users) in control_consumers(rsn) {
        for u in users {
            if u != owner {
                g.add_edge(owner.index(), u.index());
            }
        }
    }
    let mut out = Vec::new();
    for comp in g.cyclic_components() {
        let members: Vec<NodeId> = comp.iter().map(|&v| NodeId(v as u32)).collect();
        let names: Vec<&str> = members.iter().map(|&m| rsn.node(m).name()).collect();
        out.push(
            Diagnostic::new(
                Code::ControlDependencyCycle,
                rsn,
                members[0],
                format!(
                    "cyclic control dependency between {{{}}}: no update order \
                     can change these registers independently",
                    names.join(", ")
                ),
            )
            .with_related(members),
        );
    }
    out
}

/// `register → nodes whose control expressions read it`, deterministic
/// order, deduplicated.
fn control_consumers(rsn: &Rsn) -> BTreeMap<NodeId, Vec<NodeId>> {
    let mut map: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    let mut refs = Vec::new();
    for id in rsn.node_ids() {
        refs.clear();
        match rsn.node(id).kind() {
            NodeKind::Segment(s) => {
                s.select.collect_reg_refs(&mut refs);
                s.capture_disable.collect_reg_refs(&mut refs);
                s.update_disable.collect_reg_refs(&mut refs);
            }
            NodeKind::Mux(m) => {
                for e in &m.addr_bits {
                    e.collect_reg_refs(&mut refs);
                }
            }
            _ => {}
        }
        for &(reg, _) in refs.iter() {
            let users = map.entry(reg).or_default();
            if users.last() != Some(&id) {
                users.push(id);
            }
        }
    }
    map
}
