//! Circuit-to-CNF construction (Tseitin encoding) on top of a [`Solver`].
//!
//! The bounded-model-checking engine builds the RSN transition relation as
//! a circuit; this module provides the gates.

use crate::lit::{Lit, Var};
use crate::solver::Solver;

/// A Tseitin encoder that owns a [`Solver`] and allocates gate outputs as
/// fresh variables.
///
/// # Example
///
/// ```
/// use rsn_budget::Budget;
/// use rsn_sat::{CnfBuilder, Lit, SolveOutcome};
///
/// let mut cnf = CnfBuilder::new();
/// let a = cnf.new_lit();
/// let b = cnf.new_lit();
/// let and = cnf.and([a, b]);
/// cnf.assert_lit(and);
/// assert_eq!(cnf.solver_mut().solve_with_under(&[], &Budget::default()), SolveOutcome::Sat);
/// assert_eq!(cnf.solver_mut().lit_value_model(a), Some(true));
/// assert_eq!(cnf.solver_mut().lit_value_model(b), Some(true));
/// ```
#[derive(Debug, Default)]
pub struct CnfBuilder {
    solver: Solver,
    /// Literal fixed to true (lazily created) for encoding constants.
    true_lit: Option<Lit>,
    /// When enabled, every emitted clause is recorded (flat, no
    /// per-clause allocation) together with the current provenance tag.
    recording: bool,
    tag: u32,
    rec_lits: Vec<Lit>,
    rec_ends: Vec<u32>,
    rec_tags: Vec<u32>,
}

impl CnfBuilder {
    /// Creates a builder with an empty solver.
    pub fn new() -> Self {
        CnfBuilder {
            solver: Solver::new(),
            true_lit: None,
            recording: false,
            tag: 0,
            rec_lits: Vec::new(),
            rec_ends: Vec::new(),
            rec_tags: Vec::new(),
        }
    }

    /// Turns on clause recording: from now on every clause added through
    /// the builder is remembered verbatim (before solver-side
    /// simplification) together with the provenance tag current at the
    /// time of emission (see [`CnfBuilder::set_tag`]). Off by default —
    /// recording costs one flat `Vec` push per clause.
    pub fn record_provenance(&mut self) {
        self.recording = true;
    }

    /// Sets the provenance tag attached to subsequently emitted clauses.
    /// The tag is an opaque index the caller maps to structural origins
    /// in a side table.
    pub fn set_tag(&mut self, tag: u32) {
        self.tag = tag;
    }

    /// Number of recorded clauses.
    pub fn recorded_len(&self) -> usize {
        self.rec_tags.len()
    }

    /// Iterates over the recorded clauses as `(literals, tag)` pairs, in
    /// emission order.
    pub fn recorded(&self) -> impl Iterator<Item = (&[Lit], u32)> + '_ {
        (0..self.rec_tags.len()).map(move |i| {
            let start = if i == 0 {
                0
            } else {
                self.rec_ends[i - 1] as usize
            };
            let end = self.rec_ends[i] as usize;
            (&self.rec_lits[start..end], self.rec_tags[i])
        })
    }

    /// Single funnel for clause emission: records (when enabled) and
    /// forwards to the solver.
    fn emit(&mut self, lits: &[Lit]) {
        if self.recording {
            self.rec_lits.extend_from_slice(lits);
            self.rec_ends.push(self.rec_lits.len() as u32);
            self.rec_tags.push(self.tag);
        }
        self.solver.add_clause(lits.iter().copied());
    }

    /// Allocates a fresh variable and returns its positive literal.
    pub fn new_lit(&mut self) -> Lit {
        Lit::pos(self.solver.new_var())
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        self.solver.new_var()
    }

    /// A literal constrained to be `true`.
    pub fn lit_true(&mut self) -> Lit {
        match self.true_lit {
            Some(l) => l,
            None => {
                let l = self.new_lit();
                self.emit(&[l]);
                self.true_lit = Some(l);
                l
            }
        }
    }

    /// A literal constrained to be `false`.
    pub fn lit_false(&mut self) -> Lit {
        !self.lit_true()
    }

    /// Encodes a constant.
    pub fn constant(&mut self, value: bool) -> Lit {
        if value {
            self.lit_true()
        } else {
            self.lit_false()
        }
    }

    /// Asserts that a literal must hold.
    pub fn assert_lit(&mut self, l: Lit) {
        self.emit(&[l]);
    }

    /// Adds a raw clause.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let c: Vec<Lit> = lits.into_iter().collect();
        self.emit(&c);
    }

    /// Gate `out = AND(inputs)`. Empty input yields constant true.
    pub fn and(&mut self, inputs: impl IntoIterator<Item = Lit>) -> Lit {
        let ins: Vec<Lit> = inputs.into_iter().collect();
        match ins.len() {
            0 => self.lit_true(),
            1 => ins[0],
            _ => {
                let out = self.new_lit();
                // out -> i  for each input
                for &i in &ins {
                    self.emit(&[!out, i]);
                }
                // (AND ins) -> out
                let mut clause: Vec<Lit> = ins.iter().map(|&i| !i).collect();
                clause.push(out);
                self.emit(&clause);
                out
            }
        }
    }

    /// Gate `out = OR(inputs)`. Empty input yields constant false.
    pub fn or(&mut self, inputs: impl IntoIterator<Item = Lit>) -> Lit {
        let ins: Vec<Lit> = inputs.into_iter().collect();
        match ins.len() {
            0 => self.lit_false(),
            1 => ins[0],
            _ => {
                let out = self.new_lit();
                for &i in &ins {
                    self.emit(&[out, !i]);
                }
                let mut clause = ins;
                clause.push(!out);
                self.emit(&clause);
                out
            }
        }
    }

    /// Gate `out = a XOR b`.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let out = self.new_lit();
        self.emit(&[!out, a, b]);
        self.emit(&[!out, !a, !b]);
        self.emit(&[out, !a, b]);
        self.emit(&[out, a, !b]);
        out
    }

    /// Gate `out = if cond { then_ } else { else_ }` (multiplexer).
    pub fn ite(&mut self, cond: Lit, then_: Lit, else_: Lit) -> Lit {
        let out = self.new_lit();
        self.emit(&[!cond, !then_, out]);
        self.emit(&[!cond, then_, !out]);
        self.emit(&[cond, !else_, out]);
        self.emit(&[cond, else_, !out]);
        out
    }

    /// Gate `out = (a == b)` (XNOR).
    pub fn iff(&mut self, a: Lit, b: Lit) -> Lit {
        let x = self.xor(a, b);
        !x
    }

    /// Asserts `a == b`.
    pub fn assert_eq(&mut self, a: Lit, b: Lit) {
        self.emit(&[!a, b]);
        self.emit(&[a, !b]);
    }

    /// Asserts `cond -> (a == b)`.
    pub fn assert_eq_if(&mut self, cond: Lit, a: Lit, b: Lit) {
        self.emit(&[!cond, !a, b]);
        self.emit(&[!cond, a, !b]);
    }

    /// Asserts that at most one of the literals holds (pairwise encoding).
    pub fn at_most_one(&mut self, lits: &[Lit]) {
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                self.emit(&[!lits[i], !lits[j]]);
            }
        }
    }

    /// Asserts that exactly one of the literals holds.
    pub fn exactly_one(&mut self, lits: &[Lit]) {
        let c: Vec<Lit> = lits.to_vec();
        self.emit(&c);
        self.at_most_one(lits);
    }

    /// Access the underlying solver.
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Read-only access to the underlying solver. A pristine (never
    /// solved) builder can be kept immutable and shared; callers clone
    /// the solver to get private search state (`Solver` is `Clone`).
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Consumes the builder and returns the solver.
    pub fn into_solver(self) -> Solver {
        self.solver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveOutcome;
    use rsn_budget::Budget;

    /// Solves without a budget limit; an undecided query fails the test.
    fn sat(s: &mut Solver, assumptions: &[Lit]) -> bool {
        match s.solve_with_under(assumptions, &Budget::default()) {
            SolveOutcome::Unknown { .. } => panic!("undecided solve"),
            outcome => outcome.is_sat(),
        }
    }

    fn model(cnf: &mut CnfBuilder, l: Lit) -> bool {
        cnf.solver_mut().lit_value_model(l).expect("assigned")
    }

    #[test]
    fn and_gate_truth_table() {
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut cnf = CnfBuilder::new();
            let a = cnf.new_lit();
            let b = cnf.new_lit();
            let out = cnf.and([a, b]);
            cnf.assert_lit(if va { a } else { !a });
            cnf.assert_lit(if vb { b } else { !b });
            assert!(sat(cnf.solver_mut(), &[]));
            assert_eq!(model(&mut cnf, out), va && vb);
        }
    }

    #[test]
    fn or_gate_truth_table() {
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut cnf = CnfBuilder::new();
            let a = cnf.new_lit();
            let b = cnf.new_lit();
            let out = cnf.or([a, b]);
            cnf.assert_lit(if va { a } else { !a });
            cnf.assert_lit(if vb { b } else { !b });
            assert!(sat(cnf.solver_mut(), &[]));
            assert_eq!(model(&mut cnf, out), va || vb);
        }
    }

    #[test]
    fn xor_and_ite_truth_tables() {
        for m in 0..8u8 {
            let (va, vb, vc) = (m & 1 == 1, m & 2 == 2, m & 4 == 4);
            let mut cnf = CnfBuilder::new();
            let a = cnf.new_lit();
            let b = cnf.new_lit();
            let c = cnf.new_lit();
            let x = cnf.xor(a, b);
            let i = cnf.ite(c, a, b);
            let e = cnf.iff(a, b);
            cnf.assert_lit(if va { a } else { !a });
            cnf.assert_lit(if vb { b } else { !b });
            cnf.assert_lit(if vc { c } else { !c });
            assert!(sat(cnf.solver_mut(), &[]));
            assert_eq!(model(&mut cnf, x), va ^ vb);
            assert_eq!(model(&mut cnf, i), if vc { va } else { vb });
            assert_eq!(model(&mut cnf, e), va == vb);
        }
    }

    #[test]
    fn empty_gates_are_constants() {
        let mut cnf = CnfBuilder::new();
        let t = cnf.and(std::iter::empty());
        let f = cnf.or(std::iter::empty());
        assert!(sat(cnf.solver_mut(), &[]));
        assert!(model(&mut cnf, t));
        assert!(!model(&mut cnf, f));
    }

    #[test]
    fn exactly_one_enforces_cardinality() {
        let mut cnf = CnfBuilder::new();
        let lits: Vec<Lit> = (0..4).map(|_| cnf.new_lit()).collect();
        cnf.exactly_one(&lits);
        assert!(sat(cnf.solver_mut(), &[]));
        let count = lits
            .iter()
            .filter(|&&l| cnf.solver.lit_value_model(l) == Some(true))
            .count();
        assert_eq!(count, 1);
        // Forcing two to be true is unsatisfiable.
        assert!(!sat(&mut cnf.solver, &[lits[0], lits[1]]));
    }

    #[test]
    fn assert_eq_if_respects_condition() {
        let mut cnf = CnfBuilder::new();
        let c = cnf.new_lit();
        let a = cnf.new_lit();
        let b = cnf.new_lit();
        cnf.assert_eq_if(c, a, b);
        // With c true, a != b is unsat.
        assert!(!sat(&mut cnf.solver, &[c, a, !b]));
        // With c false, a != b is fine.
        assert!(sat(&mut cnf.solver, &[!c, a, !b]));
    }
}
