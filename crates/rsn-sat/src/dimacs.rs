//! DIMACS CNF parsing and emission.

use std::fmt;

use crate::lit::{Lit, Var};
use crate::solver::Solver;

/// A parsed DIMACS CNF problem.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Dimacs {
    /// Declared variable count.
    pub num_vars: usize,
    /// Clauses, each a list of literals.
    pub clauses: Vec<Vec<Lit>>,
}

/// What class of malformed input a [`ParseDimacsError`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DimacsErrorKind {
    /// The `p cnf <vars> <clauses>` line is malformed (wrong shape,
    /// wrong format tag, non-numeric or out-of-range counts).
    MalformedHeader,
    /// A second `p` line was encountered.
    DuplicateHeader,
    /// A clause token is not a valid integer literal.
    BadLiteral,
    /// A literal's magnitude cannot be represented as a [`Var`] index.
    LiteralOutOfRange,
    /// A literal references a variable beyond the declared count.
    UndeclaredVariable,
    /// The input ended inside a clause (missing trailing `0`).
    UnterminatedClause,
    /// The clause count found differs from the header's declaration.
    ClauseCountMismatch,
}

impl DimacsErrorKind {
    /// Stable lowercase name for logs.
    pub fn as_str(self) -> &'static str {
        match self {
            DimacsErrorKind::MalformedHeader => "malformed_header",
            DimacsErrorKind::DuplicateHeader => "duplicate_header",
            DimacsErrorKind::BadLiteral => "bad_literal",
            DimacsErrorKind::LiteralOutOfRange => "literal_out_of_range",
            DimacsErrorKind::UndeclaredVariable => "undeclared_variable",
            DimacsErrorKind::UnterminatedClause => "unterminated_clause",
            DimacsErrorKind::ClauseCountMismatch => "clause_count_mismatch",
        }
    }
}

/// Error produced when DIMACS parsing fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Machine-matchable failure class.
    pub kind: DimacsErrorKind,
    /// Explanation of the failure.
    pub message: String,
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dimacs parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseDimacsError {}

fn err(line: usize, kind: DimacsErrorKind, message: String) -> ParseDimacsError {
    ParseDimacsError {
        line,
        kind,
        message,
    }
}

impl Dimacs {
    /// Parses DIMACS CNF text.
    ///
    /// The `p cnf <vars> <clauses>` header is optional (the variable
    /// count is then inferred), but when present it is enforced: at most
    /// one header, counts must be valid numbers, literals must stay
    /// within the declared variables and the clause count must match.
    /// Malformed input of any kind yields a typed [`ParseDimacsError`];
    /// this function never panics.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDimacsError`] with a [`DimacsErrorKind`]
    /// classifying the failure — see that enum for the full catalog.
    ///
    /// # Example
    ///
    /// ```
    /// use rsn_sat::dimacs::Dimacs;
    ///
    /// let d = Dimacs::parse("p cnf 2 2\n1 -2 0\n2 0\n")?;
    /// assert_eq!(d.num_vars, 2);
    /// assert_eq!(d.clauses.len(), 2);
    /// # Ok::<(), rsn_sat::dimacs::ParseDimacsError>(())
    /// ```
    pub fn parse(text: &str) -> Result<Dimacs, ParseDimacsError> {
        let mut header: Option<(usize, usize)> = None;
        let mut clauses = Vec::new();
        let mut current = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            if line.starts_with('p') {
                if header.is_some() {
                    return Err(err(
                        lineno + 1,
                        DimacsErrorKind::DuplicateHeader,
                        "duplicate problem line".into(),
                    ));
                }
                let parts: Vec<&str> = line.split_whitespace().collect();
                if parts.len() != 4 || parts[1] != "cnf" {
                    return Err(err(
                        lineno + 1,
                        DimacsErrorKind::MalformedHeader,
                        format!("malformed problem line {line:?}"),
                    ));
                }
                let nv = parts[2].parse::<usize>().map_err(|e| {
                    err(
                        lineno + 1,
                        DimacsErrorKind::MalformedHeader,
                        format!("bad variable count: {e}"),
                    )
                })?;
                if nv > u32::MAX as usize {
                    return Err(err(
                        lineno + 1,
                        DimacsErrorKind::MalformedHeader,
                        format!("variable count {nv} exceeds the supported 2^32-1"),
                    ));
                }
                let nc = parts[3].parse::<usize>().map_err(|e| {
                    err(
                        lineno + 1,
                        DimacsErrorKind::MalformedHeader,
                        format!("bad clause count: {e}"),
                    )
                })?;
                header = Some((nv, nc));
                continue;
            }
            for tok in line.split_whitespace() {
                let v: i64 = tok.parse().map_err(|e| {
                    err(
                        lineno + 1,
                        DimacsErrorKind::BadLiteral,
                        format!("bad literal {tok:?}: {e}"),
                    )
                })?;
                if v == 0 {
                    clauses.push(std::mem::take(&mut current));
                } else {
                    let magnitude = v.unsigned_abs();
                    if magnitude > u32::MAX as u64 {
                        return Err(err(
                            lineno + 1,
                            DimacsErrorKind::LiteralOutOfRange,
                            format!("literal {v} exceeds the supported 2^32-1 variables"),
                        ));
                    }
                    let var = Var((magnitude - 1) as u32);
                    if let Some((nv, _)) = header {
                        if var.index() >= nv {
                            return Err(err(
                                lineno + 1,
                                DimacsErrorKind::UndeclaredVariable,
                                format!("literal {v} exceeds declared {nv} vars"),
                            ));
                        }
                    }
                    current.push(Lit::with_polarity(var, v > 0));
                }
            }
        }
        if !current.is_empty() {
            return Err(err(
                text.lines().count(),
                DimacsErrorKind::UnterminatedClause,
                "unterminated clause (missing trailing 0)".into(),
            ));
        }
        if let Some((_, nc)) = header {
            if clauses.len() != nc {
                return Err(err(
                    text.lines().count(),
                    DimacsErrorKind::ClauseCountMismatch,
                    format!("header declares {nc} clauses but found {}", clauses.len()),
                ));
            }
        }
        let num_vars = match header {
            Some((nv, _)) => nv,
            None => clauses
                .iter()
                .flatten()
                .map(|l| l.var().index() + 1)
                .max()
                .unwrap_or(0),
        };
        Ok(Dimacs { num_vars, clauses })
    }

    /// Emits DIMACS CNF text.
    pub fn to_dimacs(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "p cnf {} {}", self.num_vars, self.clauses.len());
        for c in &self.clauses {
            for l in c {
                let n = (l.var().index() + 1) as i64;
                let _ = write!(out, "{} ", if l.is_neg() { -n } else { n });
            }
            let _ = writeln!(out, "0");
        }
        out
    }

    /// Loads the problem into a fresh solver.
    pub fn to_solver(&self) -> Solver {
        let mut s = Solver::new();
        for _ in 0..self.num_vars {
            s.new_var();
        }
        for c in &self.clauses {
            s.add_clause(c.iter().copied());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_budget::Budget;

    #[test]
    fn parse_and_solve_sat_instance() {
        let d = Dimacs::parse("c comment\np cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n").expect("parse");
        assert_eq!(d.num_vars, 3);
        let mut s = d.to_solver();
        assert!(s.solve_with_under(&[], &Budget::default()).is_sat());
    }

    #[test]
    fn parse_unsat_instance() {
        let d = Dimacs::parse("p cnf 1 2\n1 0\n-1 0\n").expect("parse");
        let mut s = d.to_solver();
        assert!(s.solve_with_under(&[], &Budget::default()).is_unsat());
    }

    #[test]
    fn roundtrip_preserves_clauses() {
        let d = Dimacs::parse("p cnf 3 2\n1 -2 0\n-3 2 1 0\n").expect("parse");
        let d2 = Dimacs::parse(&d.to_dimacs()).expect("reparse");
        assert_eq!(d, d2);
    }

    #[test]
    fn missing_terminator_is_error() {
        let err = Dimacs::parse("p cnf 2 1\n1 2\n").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn out_of_range_literal_is_error() {
        let err = Dimacs::parse("p cnf 1 1\n2 0\n").unwrap_err();
        assert!(err.message.contains("exceeds"));
    }

    #[test]
    fn header_is_optional() {
        let d = Dimacs::parse("1 -2 0\n3 0\n").expect("parse");
        assert_eq!(d.num_vars, 3);
        assert_eq!(d.clauses.len(), 2);
    }

    #[test]
    fn malformed_header_is_error() {
        assert!(Dimacs::parse("p sat 2 1\n").is_err());
        assert!(Dimacs::parse("p cnf x 1\n").is_err());
    }

    #[test]
    fn malformed_inputs_yield_typed_errors_without_panicking() {
        use DimacsErrorKind as K;
        // (input, expected kind, expected 1-based error line)
        let cases: &[(&str, K, usize)] = &[
            // Headers.
            ("p\n", K::MalformedHeader, 1),
            ("p cnf\n", K::MalformedHeader, 1),
            ("p cnf 2\n", K::MalformedHeader, 1),
            ("p cnf 2 1 extra\n", K::MalformedHeader, 1),
            ("p sat 2 1\n1 0\n", K::MalformedHeader, 1),
            ("p cnf x 1\n", K::MalformedHeader, 1),
            ("p cnf 2 x\n", K::MalformedHeader, 1),
            ("p cnf -2 1\n", K::MalformedHeader, 1),
            ("p cnf 2 -1\n", K::MalformedHeader, 1),
            ("p cnf 99999999999999999999 1\n", K::MalformedHeader, 1),
            ("p cnf 4294967296 1\n", K::MalformedHeader, 1),
            ("c ok\np cnf 1 1\np cnf 1 1\n1 0\n", K::DuplicateHeader, 3),
            // Literals.
            ("p cnf 2 1\n1 two 0\n", K::BadLiteral, 2),
            ("p cnf 2 1\n1 2.5 0\n", K::BadLiteral, 2),
            ("p cnf 2 1\n1 99999999999999999999 0\n", K::BadLiteral, 2),
            ("5000000000 0\n", K::LiteralOutOfRange, 1),
            ("-5000000000 0\n", K::LiteralOutOfRange, 1),
            ("p cnf 1 1\n2 0\n", K::UndeclaredVariable, 2),
            ("p cnf 1 1\n-2 0\n", K::UndeclaredVariable, 2),
            // Clause-list structure.
            ("p cnf 2 1\n1 2\n", K::UnterminatedClause, 2),
            ("p cnf 2 2\n1 0\n2\n", K::UnterminatedClause, 3),
            ("1 -2\n", K::UnterminatedClause, 1),
            ("p cnf 2 2\n1 0\n", K::ClauseCountMismatch, 2),
            ("p cnf 2 1\n1 0\n2 0\n", K::ClauseCountMismatch, 3),
            ("p cnf 2 1\n", K::ClauseCountMismatch, 1),
        ];
        for &(input, kind, line) in cases {
            let e = Dimacs::parse(input)
                .expect_err(&format!("input {input:?} should fail with {kind:?}"));
            assert_eq!(e.kind, kind, "input {input:?}: got {e:?}");
            assert_eq!(e.line, line, "input {input:?}: got {e:?}");
            // Display stays informative.
            assert!(e.to_string().contains("dimacs parse error"));
        }
    }

    #[test]
    fn well_formed_edge_cases_still_parse() {
        // Empty input, comment-only input, empty clause, clause split
        // across lines, leading/trailing whitespace.
        assert_eq!(Dimacs::parse("").expect("empty").num_vars, 0);
        assert_eq!(
            Dimacs::parse("c only\nc comments\n").expect("comments"),
            Dimacs::default()
        );
        let empty_clause = Dimacs::parse("p cnf 1 1\n0\n").expect("empty clause");
        assert_eq!(empty_clause.clauses, vec![Vec::<Lit>::new()]);
        let split = Dimacs::parse("p cnf 3 1\n1\n2\n3 0\n").expect("split clause");
        assert_eq!(split.clauses.len(), 1);
        assert_eq!(split.clauses[0].len(), 3);
        let padded = Dimacs::parse("  p cnf 1 1  \n  1 0  \n").expect("padded");
        assert_eq!(padded.num_vars, 1);
    }
}
