//! Boolean combinations of linear atoms, and integer models.

use crate::term::{Atom, SymId};
use std::collections::HashMap;
use std::fmt;

/// A quantifier-free formula over linear integer atoms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// Constant true.
    True,
    /// Constant false.
    False,
    /// A linear constraint.
    Atom(Atom),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction.
    And(Vec<Formula>),
    /// N-ary disjunction.
    Or(Vec<Formula>),
}

impl Formula {
    /// Conjunction of two formulas, with trivial simplification.
    pub fn and(a: Formula, b: Formula) -> Formula {
        match (a, b) {
            (Formula::True, x) | (x, Formula::True) => x,
            (Formula::False, _) | (_, Formula::False) => Formula::False,
            (Formula::And(mut xs), Formula::And(ys)) => {
                xs.extend(ys);
                Formula::And(xs)
            }
            (Formula::And(mut xs), y) => {
                xs.push(y);
                Formula::And(xs)
            }
            (x, Formula::And(mut ys)) => {
                ys.insert(0, x);
                Formula::And(ys)
            }
            (x, y) => Formula::And(vec![x, y]),
        }
    }

    /// Disjunction of two formulas, with trivial simplification.
    pub fn or(a: Formula, b: Formula) -> Formula {
        match (a, b) {
            (Formula::False, x) | (x, Formula::False) => x,
            (Formula::True, _) | (_, Formula::True) => Formula::True,
            (Formula::Or(mut xs), Formula::Or(ys)) => {
                xs.extend(ys);
                Formula::Or(xs)
            }
            (Formula::Or(mut xs), y) => {
                xs.push(y);
                Formula::Or(xs)
            }
            (x, Formula::Or(mut ys)) => {
                ys.insert(0, x);
                Formula::Or(ys)
            }
            (x, y) => Formula::Or(vec![x, y]),
        }
    }

    /// Negation (not simplified beyond double-negation removal; NNF
    /// conversion happens in the solver).
    #[allow(clippy::should_implement_trait)] // static constructor, not an operator
    pub fn not(f: Formula) -> Formula {
        match f {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// Converts to negation normal form: negations appear only inside
    /// atoms (via [`Atom::negate`]).
    pub fn to_nnf(&self) -> Formula {
        fn go(f: &Formula, neg: bool) -> Formula {
            match (f, neg) {
                (Formula::True, false) | (Formula::False, true) => Formula::True,
                (Formula::True, true) | (Formula::False, false) => Formula::False,
                (Formula::Atom(a), false) => Formula::Atom(a.clone()),
                (Formula::Atom(a), true) => Formula::Atom(a.negate()),
                (Formula::Not(inner), n) => go(inner, !n),
                (Formula::And(fs), false) => {
                    Formula::And(fs.iter().map(|f| go(f, false)).collect())
                }
                (Formula::And(fs), true) => Formula::Or(fs.iter().map(|f| go(f, true)).collect()),
                (Formula::Or(fs), false) => Formula::Or(fs.iter().map(|f| go(f, false)).collect()),
                (Formula::Or(fs), true) => Formula::And(fs.iter().map(|f| go(f, true)).collect()),
            }
        }
        go(self, false)
    }

    /// Evaluates under a total assignment.
    pub fn eval(&self, m: &Model) -> bool {
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(a) => a.eval(m),
            Formula::Not(f) => !f.eval(m),
            Formula::And(fs) => fs.iter().all(|f| f.eval(m)),
            Formula::Or(fs) => fs.iter().any(|f| f.eval(m)),
        }
    }

    /// Bottom-up algebraic simplification: evaluates constant atoms,
    /// prunes `true`/`false` identities, deduplicates sibling conjuncts
    /// and disjuncts, and flattens nested `And`/`Or`. Equivalence
    /// preserving; the solver applies it before NNF so trace encodings
    /// full of trivial conjuncts do not reach the theory core.
    pub fn simplify(&self) -> Formula {
        match self {
            Formula::True | Formula::False => self.clone(),
            Formula::Atom(a) => {
                if a.term.is_constant() {
                    let c = a.term.constant_part();
                    let holds = match a.rel {
                        crate::term::Rel::Le => c <= 0,
                        crate::term::Rel::Eq => c == 0,
                        crate::term::Rel::Ne => c != 0,
                    };
                    if holds {
                        Formula::True
                    } else {
                        Formula::False
                    }
                } else {
                    self.clone()
                }
            }
            Formula::Not(f) => Formula::not(f.simplify()),
            Formula::And(fs) => {
                let mut out: Vec<Formula> = Vec::with_capacity(fs.len());
                for f in fs {
                    match f.simplify() {
                        Formula::True => {}
                        Formula::False => return Formula::False,
                        Formula::And(inner) => {
                            for g in inner {
                                if !out.contains(&g) {
                                    out.push(g);
                                }
                            }
                        }
                        g => {
                            if !out.contains(&g) {
                                out.push(g);
                            }
                        }
                    }
                }
                match out.len() {
                    0 => Formula::True,
                    1 => out.pop().expect("len checked"),
                    _ => Formula::And(out),
                }
            }
            Formula::Or(fs) => {
                let mut out: Vec<Formula> = Vec::with_capacity(fs.len());
                for f in fs {
                    match f.simplify() {
                        Formula::False => {}
                        Formula::True => return Formula::True,
                        Formula::Or(inner) => {
                            for g in inner {
                                if !out.contains(&g) {
                                    out.push(g);
                                }
                            }
                        }
                        g => {
                            if !out.contains(&g) {
                                out.push(g);
                            }
                        }
                    }
                }
                match out.len() {
                    0 => Formula::False,
                    1 => out.pop().expect("len checked"),
                    _ => Formula::Or(out),
                }
            }
        }
    }

    /// Collects every atom (ignoring polarity) into `out`. Used by the
    /// CEGAR refinement to mine predicates from infeasible slices.
    pub fn collect_atoms<'a>(&'a self, out: &mut Vec<&'a Atom>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => out.push(a),
            Formula::Not(f) => f.collect_atoms(out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_atoms(out);
                }
            }
        }
    }

    /// Collects every symbol mentioned anywhere in the formula.
    pub fn collect_symbols(&self, out: &mut Vec<SymId>) {
        let mut atoms = Vec::new();
        self.collect_atoms(&mut atoms);
        for a in atoms {
            out.extend(a.symbols());
        }
        out.sort_unstable();
        out.dedup();
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(a) => write!(f, "({a})"),
            Formula::Not(x) => write!(f, "¬{x}"),
            Formula::And(fs) => {
                write!(f, "(")?;
                for (i, x) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Formula::Or(fs) => {
                write!(f, "(")?;
                for (i, x) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A total integer assignment to symbols (absent symbols default to 0).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    vals: HashMap<SymId, i64>,
}

impl Model {
    /// The value of `s` (0 if unassigned).
    pub fn get(&self, s: SymId) -> i64 {
        self.vals.get(&s).copied().unwrap_or(0)
    }

    /// Assigns `s := v`.
    pub fn set(&mut self, s: SymId, v: i64) {
        self.vals.insert(s, v);
    }

    /// Iterates over explicit assignments.
    pub fn iter(&self) -> impl Iterator<Item = (SymId, i64)> + '_ {
        self.vals.iter().map(|(&s, &v)| (s, v))
    }

    /// Number of explicit assignments.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// Whether no symbol is explicitly assigned.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::LinTerm;

    fn atom_x_le(c: i128) -> Formula {
        // x - c <= 0, i.e. x <= c
        Formula::Atom(Atom::le(
            LinTerm::sym(SymId(0)).checked_add_const(-c).unwrap(),
        ))
    }

    #[test]
    fn and_or_simplify_constants() {
        assert_eq!(Formula::and(Formula::True, atom_x_le(1)), atom_x_le(1));
        assert_eq!(Formula::and(Formula::False, atom_x_le(1)), Formula::False);
        assert_eq!(Formula::or(Formula::True, atom_x_le(1)), Formula::True);
        assert_eq!(Formula::or(Formula::False, atom_x_le(1)), atom_x_le(1));
    }

    #[test]
    fn nnf_pushes_negation_to_atoms() {
        let f = Formula::not(Formula::and(atom_x_le(1), Formula::not(atom_x_le(5))));
        let nnf = f.to_nnf();
        // ¬(a ∧ ¬b) = ¬a ∨ b — no Not nodes remain.
        fn no_not(f: &Formula) -> bool {
            match f {
                Formula::Not(_) => false,
                Formula::And(fs) | Formula::Or(fs) => fs.iter().all(no_not),
                _ => true,
            }
        }
        assert!(no_not(&nnf));
        // Check equivalence on a few points.
        let mut m = Model::default();
        for v in -1..=7 {
            m.set(SymId(0), v);
            assert_eq!(f.eval(&m), nnf.eval(&m), "x = {v}");
        }
    }

    #[test]
    fn collect_atoms_and_symbols() {
        let f = Formula::or(
            atom_x_le(1),
            Formula::not(Formula::Atom(Atom::eq(LinTerm::sym(SymId(3))))),
        );
        let mut atoms = Vec::new();
        f.collect_atoms(&mut atoms);
        assert_eq!(atoms.len(), 2);
        let mut syms = Vec::new();
        f.collect_symbols(&mut syms);
        assert_eq!(syms, vec![SymId(0), SymId(3)]);
    }

    #[test]
    fn simplify_is_equivalence_preserving_and_canonicalizing() {
        // (x<=1 ∧ x<=1 ∧ true) ∨ false ∨ (0 == 0)  ≡ true
        let f = Formula::Or(vec![
            Formula::And(vec![atom_x_le(1), atom_x_le(1), Formula::True]),
            Formula::False,
            Formula::Atom(Atom::eq(LinTerm::constant(0))),
        ]);
        assert_eq!(f.simplify(), Formula::True);
        // Nested conjunctions flatten and dedup.
        let g = Formula::And(vec![
            Formula::And(vec![atom_x_le(1), atom_x_le(2)]),
            atom_x_le(1),
        ]);
        let Formula::And(parts) = g.simplify() else {
            panic!("expected And")
        };
        assert_eq!(parts.len(), 2);
        // Constant-false atoms collapse conjunctions.
        let h = Formula::and(Formula::Atom(Atom::le(LinTerm::constant(5))), atom_x_le(1));
        assert_eq!(h.simplify(), Formula::False);
        // Equivalence on sample points.
        let mut m = Model::default();
        for v in -3..=3 {
            m.set(SymId(0), v);
            let f2 = Formula::and(atom_x_le(1), Formula::not(atom_x_le(-2)));
            assert_eq!(f2.eval(&m), f2.simplify().eval(&m), "x = {v}");
        }
    }

    #[test]
    fn model_defaults_to_zero() {
        let m = Model::default();
        assert_eq!(m.get(SymId(42)), 0);
        assert!(m.is_empty());
    }
}
