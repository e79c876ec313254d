//! Seeded ITC'02-style SoC generator.
//!
//! Every synthetic SoC is a pure function of `(seed, index)`: a splitmix64
//! stream picks the module count, the hierarchy (parents always precede
//! children, at most three levels like the embedded suite), the scan
//! chains per module and their lengths, and the top-level registers. The
//! shapes stay inside the range of the small and mid-size embedded
//! benchmarks (u226 … d695), so the full Table I pipeline and its slow
//! reference path finish in well under a second per SoC.

use rsn_itc02::{Module, Soc};

/// The splitmix64 generator (Steele, Lea and Flood).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The `index`-th synthetic SoC of `seed`.
pub fn soc(seed: u64, index: u64) -> Soc {
    let mut rng = SplitMix64::new(seed ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03));
    let n_modules = rng.range(5, 12) as usize;
    let mut modules: Vec<Module> = Vec::with_capacity(n_modules);
    for i in 0..n_modules {
        let n_chains = rng.range(1, 6) as usize;
        let chains: Vec<u32> = (0..n_chains).map(|_| rng.range(8, 400) as u32).collect();
        let name = format!("core{i}");
        // A third of the modules nest one or two levels deep under an
        // earlier module, as in the 3-level embedded SoCs.
        let depth_of = |p: usize, modules: &[Module]| {
            let mut d = 1;
            let mut cur = p;
            while let Some(q) = modules[cur].parent {
                d += 1;
                cur = q;
            }
            d
        };
        let parent = if i > 0 && rng.range(0, 2) == 0 {
            let p = rng.range(0, i as u64 - 1) as usize;
            (depth_of(p, &modules) < 3).then_some(p)
        } else {
            None
        };
        modules.push(match parent {
            Some(p) => Module::child(name, p, chains),
            None => Module::top(name, chains),
        });
    }
    let top_registers = (0..rng.range(0, 3))
        .map(|_| rng.range(4, 32) as u32)
        .collect();
    let soc = Soc {
        name: format!("syn{seed}x{index}"),
        modules,
        top_registers,
    };
    soc.validate()
        .expect("generator keeps parents before children");
    soc
}

/// `count` synthetic SoCs of `seed`.
pub fn socs(seed: u64, count: u64) -> Vec<Soc> {
    (0..count).map(|i| soc(seed, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_itc02::parser::to_soc_text;

    #[test]
    fn one_seed_reproduces_byte_identical_soc_text() {
        for seed in [0, 1, 7, 12345] {
            for i in 0..4 {
                assert_eq!(to_soc_text(&soc(seed, i)), to_soc_text(&soc(seed, i)));
            }
        }
        assert_ne!(to_soc_text(&soc(1, 0)), to_soc_text(&soc(2, 0)));
    }

    #[test]
    fn soc_text_keeps_the_chain_structure() {
        // `.soc` text flattens the hierarchy and drops top registers; the
        // chains of every module survive.
        for seed in 0..8 {
            let s = soc(seed, 0);
            let parsed = rsn_itc02::parse_soc(&to_soc_text(&s)).expect("parses");
            let chains = |soc: &Soc| {
                soc.modules
                    .iter()
                    .map(|m| m.chains.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(chains(&parsed), chains(&s));
        }
    }

    #[test]
    fn every_generated_soc_generates_and_synthesizes() {
        for seed in 0..16 {
            for s in socs(seed, 3) {
                let rsn = rsn_sib::generate(&s).expect("SIB generation");
                let ft = rsn_synth::synthesize(&rsn, &rsn_synth::SynthesisOptions::new())
                    .expect("synthesis");
                assert!(ft.report.added_edges > 0, "{}", s.name);
            }
        }
    }
}
