//! Bit-accurate simulation of a *faulty* RSN.
//!
//! Wraps the CSU simulator of `rsn-core` and applies stuck-at fault
//! semantics at the shift-chain level:
//!
//! * a **segment data fault** forces the segment's first shift cell to the
//!   stuck value after every shift cycle — data passing through the
//!   segment is corrupted exactly as a stuck scan cell corrupts it,
//! * a **shadow/control fault** pins the faulty register bit after every
//!   update,
//! * a **multiplexer address fault** pins the multiplexer's decoded input
//!   to the address [`effect_of`] pins (simulated by rewriting the traced
//!   path); on a TMR-hardened multiplexer it is masked,
//! * **scan port faults** force the injected/observed stream.
//!
//! The simulator is the executable ground truth used to validate faulty
//! access plans (`plan` module): a plan is only as good as the data that
//! actually round-trips through the stuck silicon.

use rsn_core::csu::SimState;
use rsn_core::{NodeId, NodeKind, Result, Rsn};

use crate::effect::effect_of;
use crate::fault::{Fault, FaultSite};
use crate::metric::HardeningProfile;

/// A faulty-network simulator: an [`Rsn`], one injected [`Fault`], and the
/// dynamic [`SimState`].
#[derive(Debug, Clone)]
pub struct FaultySim<'a> {
    rsn: &'a Rsn,
    fault: Fault,
    /// The multiplexer input index a (non-masked) address fault pins.
    pinned_mux: Option<(NodeId, usize)>,
    /// Dynamic state (shift registers + configuration).
    pub state: SimState,
}

impl<'a> FaultySim<'a> {
    /// Creates a simulator in the reset state with the fault injected.
    ///
    /// # Panics
    ///
    /// Panics if the fault site class is not simulatable
    /// ([`FaultSite::SegmentSelect`] is approximated at the metric level
    /// only).
    pub fn new(rsn: &'a Rsn, fault: Fault) -> Self {
        assert!(
            !matches!(fault.site, FaultSite::SegmentSelect(_)),
            "select-stem faults are not simulated at bit level"
        );
        // Address faults pin exactly what the fault model pins; the
        // hardening profile only concerns select stems.
        let pinned_mux = match fault.site {
            FaultSite::MuxAddress(m) => effect_of(rsn, &fault, HardeningProfile::unhardened())
                .forced_mux
                .get(&m)
                .map(|&addr| (m, addr)),
            _ => None,
        };
        let mut sim = FaultySim {
            rsn,
            fault,
            pinned_mux,
            state: SimState::reset(rsn),
        };
        sim.apply_state_fault();
        sim
    }

    /// The injected fault.
    pub fn fault(&self) -> Fault {
        self.fault
    }

    /// Applies persistent state corruption (stuck cells, pinned shadow
    /// bits) to the current state.
    fn apply_state_fault(&mut self) {
        match self.fault.site {
            FaultSite::SegmentData(s) => {
                // First shift cell stuck.
                let mut bits = self.state.shift_register(s).to_vec();
                if let Some(first) = bits.first_mut() {
                    *first = self.fault.value;
                }
                self.state.set_shift_register(s, &bits);
            }
            FaultSite::SegmentShadow(s) => {
                if let Some(off) = self.rsn.shadow_offset(s) {
                    // Pin the first mux-referenced bit (the collapsed
                    // class), or bit 0 for instrument registers.
                    let bit = crate::effect::first_control_bit(self.rsn, s).unwrap_or(0);
                    self.state
                        .config
                        .set_bit((off + bit) as usize, self.fault.value);
                }
            }
            _ => {}
        }
    }

    /// Performs one CSU operation under the fault.
    ///
    /// The shift phase is simulated cycle by cycle so the stuck cell
    /// corrupts pass-through data; state faults are re-applied after the
    /// update phase.
    ///
    /// # Errors
    ///
    /// Propagates path tracing errors. Under `MuxAddress` faults the
    /// forced address may produce paths the select logic contradicts; the
    /// simulator traces structurally (no validity check), mirroring the
    /// silicon.
    pub fn csu(&mut self, scan_in_data: &[bool]) -> Result<Vec<bool>> {
        // Trace the path with forced-address semantics.
        let path = self.trace_faulty_path()?;
        let segs: Vec<NodeId> = path
            .iter()
            .copied()
            .filter(|&n| matches!(self.rsn.node(n).kind(), NodeKind::Segment(_)))
            .collect();

        // Build the chain and locate stuck cells / port faults.
        let mut chain: Vec<bool> = Vec::new();
        let mut stuck_pos: Option<(usize, bool)> = None;
        for &seg in &segs {
            if let FaultSite::SegmentData(s) = self.fault.site {
                if s == seg {
                    stuck_pos = Some((chain.len(), self.fault.value));
                }
            }
            chain.extend_from_slice(self.state.shift_register(seg));
        }

        let in_forced =
            matches!(self.fault.site, FaultSite::ScanInPort(p) if p == self.rsn.scan_in());
        let out_forced =
            matches!(self.fault.site, FaultSite::ScanOutPort(p) if p == self.rsn.scan_out());

        let mut out = Vec::with_capacity(scan_in_data.len());
        for &in_bit in scan_in_data {
            let in_bit = if in_forced { self.fault.value } else { in_bit };
            if chain.is_empty() {
                out.push(if out_forced { self.fault.value } else { in_bit });
                continue;
            }
            let emitted = *chain.last().expect("nonempty");
            out.push(if out_forced {
                self.fault.value
            } else {
                emitted
            });
            for i in (1..chain.len()).rev() {
                chain[i] = chain[i - 1];
            }
            chain[0] = in_bit;
            if let Some((pos, v)) = stuck_pos {
                chain[pos] = v;
            }
        }

        // Write back, update shadows, re-apply state faults.
        let mut pos = 0;
        for &seg in &segs {
            let len = self.state.shift_register(seg).len();
            let slice = chain[pos..pos + len].to_vec();
            self.state.set_shift_register(seg, &slice);
            pos += len;
        }
        for &seg in &segs {
            let s = self.rsn.node(seg).as_segment().expect("segment");
            if !s.has_shadow {
                continue;
            }
            if self.rsn.eval(&s.update_disable, &self.state.config)? {
                continue;
            }
            let off = self.rsn.shadow_offset(seg).expect("has shadow") as usize;
            let bits = self.state.shift_register(seg).to_vec();
            for (i, b) in bits.iter().enumerate() {
                self.state.config.set_bit(off + i, *b);
            }
        }
        self.apply_state_fault();
        Ok(out)
    }

    /// Traces the active path under forced-address semantics (no validity
    /// check — faulty silicon routes whatever the addresses decode to).
    pub fn trace_faulty_path(&self) -> Result<Vec<NodeId>> {
        let rsn = self.rsn;
        let mut rev = vec![rsn.scan_out()];
        let mut cur = rsn.scan_out();
        let limit = rsn.node_count() + 1;
        while !matches!(rsn.node(cur).kind(), NodeKind::ScanIn) {
            let prev = match rsn.node(cur).kind() {
                NodeKind::Mux(m) => match self.pinned_mux {
                    Some((f, addr)) if f == cur => m.inputs[addr],
                    _ => rsn.mux_selected_input(cur, &self.state.config)?,
                },
                _ => rsn
                    .node(cur)
                    .source()
                    .ok_or(rsn_core::Error::NodeUnconnected(cur))?,
            };
            rev.push(prev);
            cur = prev;
            if rev.len() > limit {
                return Err(rsn_core::Error::SensitizedCycle);
            }
        }
        rev.reverse();
        Ok(rev)
    }

    /// Writes `value` into `target`'s shift register through the faulty
    /// network (target must be on the current faulty path) and returns
    /// whether the register then holds exactly `value`.
    ///
    /// # Errors
    ///
    /// Propagates CSU errors; returns `Ok(false)` when the fault corrupted
    /// the written data.
    pub fn write_and_verify(&mut self, target: NodeId, value: &[bool]) -> Result<bool> {
        let path = self.trace_faulty_path()?;
        if !path.contains(&target) {
            return Ok(false);
        }
        let segs: Vec<NodeId> = path
            .iter()
            .copied()
            .filter(|&n| matches!(self.rsn.node(n).kind(), NodeKind::Segment(_)))
            .collect();
        let total: usize = segs
            .iter()
            .map(|&s| self.state.shift_register(s).len())
            .sum();
        let mut offset = 0usize;
        for &s in &segs {
            if s == target {
                break;
            }
            offset += self.state.shift_register(s).len();
        }
        let mut stream = vec![false; total];
        for (i, &v) in value.iter().enumerate() {
            let p = offset + i;
            stream[total - 1 - p] = v;
        }
        // Preserve current control values for on-path registers so the
        // write does not tear down the configuration.
        for (ci, &s) in segs.iter().enumerate() {
            if s == target {
                continue;
            }
            let mut p0 = 0usize;
            for &q in segs.iter().take(ci) {
                p0 += self.state.shift_register(q).len();
            }
            for (i, &b) in self.state.shift_register(s).to_vec().iter().enumerate() {
                stream[total - 1 - (p0 + i)] = b;
            }
        }
        self.csu(&stream)?;
        Ok(self.state.shift_register(target) == value)
    }

    /// Captures-and-reads `target` through the faulty network: loads
    /// `data` as the captured instrument value and returns the bits
    /// observed at the scan-out port for `target`'s chain positions.
    ///
    /// # Errors
    ///
    /// Propagates CSU errors; `Ok(None)` when the target is off-path.
    pub fn read(&mut self, target: NodeId, data: &[bool]) -> Result<Option<Vec<bool>>> {
        let path = self.trace_faulty_path()?;
        if !path.contains(&target) {
            return Ok(None);
        }
        self.state.set_shift_register(target, data);
        // Stuck cell inside the target corrupts even the capture.
        if let FaultSite::SegmentData(s) = self.fault.site {
            if s == target {
                let mut bits = self.state.shift_register(target).to_vec();
                if let Some(first) = bits.first_mut() {
                    *first = self.fault.value;
                }
                self.state.set_shift_register(target, &bits);
            }
        }
        let segs: Vec<NodeId> = path
            .iter()
            .copied()
            .filter(|&n| matches!(self.rsn.node(n).kind(), NodeKind::Segment(_)))
            .collect();
        let total: usize = segs
            .iter()
            .map(|&s| self.state.shift_register(s).len())
            .sum();
        let mut offset = 0usize;
        for &s in &segs {
            if s == target {
                break;
            }
            offset += self.state.shift_register(s).len();
        }
        let out = self.csu(&vec![false; total])?;
        let mut bits = Vec::with_capacity(data.len());
        for i in 0..data.len() {
            bits.push(out[total - 1 - (offset + i)]);
        }
        Ok(Some(bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_core::examples::{chain, fig2};
    use rsn_core::{ControlExpr, RsnBuilder};

    #[test]
    fn stuck_cell_corrupts_pass_through_data() {
        let rsn = chain(3, 4);
        let s1 = rsn.find("S1").expect("middle segment");
        let fault = Fault {
            site: FaultSite::SegmentData(s1),
            value: false,
            weight: 2,
        };
        let mut sim = FaultySim::new(&rsn, fault);
        // Shift an all-ones pattern through the whole chain (12 bits) and
        // keep shifting another 12 to observe it at scan-out.
        let mut observed = Vec::new();
        for _ in 0..2 {
            let out = sim.csu(&[true; 12]).expect("csu");
            observed.extend(out);
        }
        // Bits that passed the stuck cell must be 0 somewhere.
        assert!(observed[12..].iter().any(|&b| !b), "corruption visible");
    }

    #[test]
    fn fault_free_positions_survive() {
        // Data written into S0 (before the fault site) is intact.
        let rsn = chain(3, 4);
        let s0 = rsn.find("S0").expect("first segment");
        let s2 = rsn.find("S2").expect("last segment");
        let fault = Fault {
            site: FaultSite::SegmentData(s2),
            value: true,
            weight: 2,
        };
        let mut sim = FaultySim::new(&rsn, fault);
        let ok = sim
            .write_and_verify(s0, &[true, false, true, false])
            .expect("csu");
        assert!(ok, "write before the fault site must land");
    }

    #[test]
    fn write_through_fault_site_fails_verification() {
        let rsn = chain(3, 4);
        let s0 = rsn.find("S0").expect("first");
        let s2 = rsn.find("S2").expect("last");
        let fault = Fault {
            site: FaultSite::SegmentData(s0),
            value: false,
            weight: 2,
        };
        let mut sim = FaultySim::new(&rsn, fault);
        // Writing 1s into s2 requires passing the stuck-0 cell in s0.
        let ok = sim
            .write_and_verify(s2, &[true, true, true, true])
            .expect("csu");
        assert!(!ok, "data through the stuck cell must corrupt");
    }

    #[test]
    fn read_before_fault_is_clean_after_fault_corrupt() {
        let rsn = chain(3, 2);
        let s0 = rsn.find("S0").expect("s0");
        let s2 = rsn.find("S2").expect("s2");
        let s1 = rsn.find("S1").expect("s1");
        let fault = Fault {
            site: FaultSite::SegmentData(s1),
            value: false,
            weight: 2,
        };
        // Read of s2 (downstream of fault): clean; read of s0: corrupted.
        let mut sim = FaultySim::new(&rsn, fault);
        let got = sim.read(s2, &[true, true]).expect("csu").expect("on path");
        assert_eq!(got, vec![true, true], "suffix after fault is clean");
        let mut sim = FaultySim::new(&rsn, fault);
        let got = sim.read(s0, &[true, true]).expect("csu").expect("on path");
        assert_ne!(got, vec![true, true], "data must pass the stuck cell");
    }

    #[test]
    fn pinned_shadow_bit_stays_pinned() {
        let rsn = fig2();
        let a = rsn.find("A").expect("A");
        let fault = Fault {
            site: FaultSite::SegmentShadow(a),
            value: true,
            weight: 1,
        };
        let mut sim = FaultySim::new(&rsn, fault);
        let off = rsn.shadow_offset(a).expect("shadow") as usize;
        assert!(sim.state.config.bit(off), "pinned at 1 from the start");
        // A CSU writing zeros does not unpin it.
        let path = sim.trace_faulty_path().expect("trace");
        let bits: usize = path
            .iter()
            .filter_map(|&n| rsn.node(n).as_segment().map(|s| s.length as usize))
            .sum();
        sim.csu(&vec![false; bits]).expect("csu");
        assert!(sim.state.config.bit(off), "still pinned after update");
    }

    #[test]
    fn mux_address_fault_reroutes_structurally() {
        let rsn = fig2();
        let m = rsn.find("M").expect("mux");
        let c = rsn.find("C").expect("C");
        let fault = Fault {
            site: FaultSite::MuxAddress(m),
            value: true,
            weight: 1,
        };
        let sim = FaultySim::new(&rsn, fault);
        let path = sim.trace_faulty_path().expect("trace");
        assert!(path.contains(&c), "stuck-1 address forces the C branch");
    }

    #[test]
    fn address_faults_on_hardened_muxes_leave_the_path_alone() {
        // The paper's FT synthesis TMR-hardens every mux address net, so
        // the fault model masks every address fault: the simulated path
        // must stay the fault-free one.
        let soc =
            rsn_itc02::parse_soc("SocName t\n1 0 0 0 2 : 3 2\n2 0 0 0 1 : 4\n").expect("parse");
        let rsn = rsn_sib::generate(&soc).expect("generate");
        let ft = rsn_synth::synthesize(&rsn, &rsn_synth::SynthesisOptions::new())
            .expect("synthesize")
            .rsn;
        let fault_free = ft
            .trace_path(&ft.reset_config())
            .expect("trace")
            .nodes()
            .to_vec();
        let mut checked = 0;
        for m in ft.muxes() {
            assert!(ft.node(m).as_mux().expect("mux").hardened);
            for value in [false, true] {
                let fault = Fault {
                    site: FaultSite::MuxAddress(m),
                    value,
                    weight: 1,
                };
                assert!(effect_of(&ft, &fault, HardeningProfile::hardened()).is_benign());
                let path = FaultySim::new(&ft, fault)
                    .trace_faulty_path()
                    .expect("trace");
                assert_eq!(
                    path,
                    fault_free,
                    "{} stuck-at-{}",
                    ft.node(m).name(),
                    value as u8
                );
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn four_input_mux_stuck_at_one_routes_the_last_input() {
        let mut b = RsnBuilder::new("mux4");
        let i = b.add_inputs(2);
        let segs: Vec<NodeId> = (0..4)
            .map(|k| {
                let s = b.add_segment(format!("S{k}"), 1);
                b.set_select(s, ControlExpr::TRUE);
                b.connect(b.scan_in(), s);
                s
            })
            .collect();
        let m = b.add_mux(
            "M",
            segs.clone(),
            vec![ControlExpr::input(i), ControlExpr::input(i + 1)],
        );
        b.connect(m, b.scan_out());
        let rsn = b.finish().expect("valid structure");
        let fault = Fault {
            site: FaultSite::MuxAddress(m),
            value: true,
            weight: 1,
        };
        let path = FaultySim::new(&rsn, fault)
            .trace_faulty_path()
            .expect("trace");
        assert!(
            path.contains(&segs[3]),
            "address 11 routes input 3: {path:?}"
        );
        assert!(!path.contains(&segs[1]));
    }

    #[test]
    fn scan_out_port_fault_forces_observation() {
        let rsn = chain(2, 2);
        let fault = Fault {
            site: FaultSite::ScanOutPort(rsn.scan_out()),
            value: true,
            weight: 1,
        };
        let mut sim = FaultySim::new(&rsn, fault);
        let out = sim.csu(&[false, false, false, false]).expect("csu");
        assert!(out.iter().all(|&b| b), "observed stream pinned to 1");
    }
}
