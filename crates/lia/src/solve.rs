//! The satisfiability procedure: DPLL-style splitting over a
//! Fourier–Motzkin / equality-substitution theory core.

use crate::formula::{Formula, Model};
use crate::rat::Rat;
use crate::simplex::{rational_feasible, SimplexResult};
use crate::term::{gcd, Atom, LinTerm, Rel, SymId};
use rt::Budget;
use std::cell::RefCell;
use std::time::Duration;

/// The verdict of a satisfiability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a verified integer model.
    Sat(Model),
    /// Unsatisfiable over the integers (sound: implied by rational
    /// unsatisfiability plus gcd reasoning).
    Unsat,
    /// The solver gave up (resource budget, arithmetic overflow, or an
    /// integer-gap corner FM cannot decide). Callers must treat this
    /// conservatively.
    Unknown,
}

impl SatResult {
    /// Whether the result is [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Whether the result is [`SatResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }

    /// Whether the result is [`SatResult::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, SatResult::Unknown)
    }
}

/// Resource limits for [`Solver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Maximum number of inequalities the FM core may accumulate before
    /// answering [`SatResult::Unknown`].
    pub max_constraints: usize,
    /// Maximum number of case splits (disjunctions + disequalities).
    pub max_splits: usize,
    /// Use the simplex engine ([`crate::rational_feasible`]) instead of
    /// Fourier–Motzkin for the branch-and-bound rational relaxation.
    /// The two engines are differential-tested; FM is the default.
    pub use_simplex_relaxation: bool,
    /// Wall-clock budget per [`Solver::check`] call; expiring yields
    /// [`SatResult::Unknown`]. `None` (the default) means unbounded —
    /// clients with deadlines (the CEGAR checker) set this so a single
    /// enormous trace formula cannot eat the whole check budget, which
    /// is the paper's §5 observation that unreduced trace formulas are
    /// "usually beyond the limit of current decision procedures".
    pub time_budget: Option<Duration>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_constraints: 20_000,
            max_splits: 200_000,
            use_simplex_relaxation: false,
            time_budget: None,
        }
    }
}

/// A satisfiability solver for [`Formula`]s. Stateless between calls
/// (the in-flight budget is re-derived on every [`Solver::check`]); see
/// [`crate::Ctx`] for the incremental interface.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    cfg: SolverConfig,
    /// Budget attached by the embedding layer (checker/driver): carries
    /// the whole run's deadline and cancellation token. Per-call
    /// deadlines from [`SolverConfig::time_budget`] are capped at it.
    attached: RefCell<Budget>,
    /// Budget governing the in-flight `check` call.
    current: RefCell<Budget>,
}

#[derive(Debug)]
struct Overflowed;

type Res<T> = Result<T, Overflowed>;

impl Solver {
    /// Creates a solver with default limits.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Creates a solver with explicit limits.
    pub fn with_config(cfg: SolverConfig) -> Self {
        Solver {
            cfg,
            ..Solver::default()
        }
    }

    /// Attaches the cooperative budget subsequent [`Solver::check`]
    /// calls run under: their [`SolverConfig::time_budget`] deadline is
    /// capped at the attached deadline, and the attached cancellation
    /// token is consulted in the solver's inner loops.
    pub fn attach_budget(&self, budget: Budget) {
        *self.attached.borrow_mut() = budget;
    }

    /// Whether the in-flight check has exhausted its budget
    /// (unconditional clock read).
    fn expired(&self) -> bool {
        self.current.borrow().check().is_err()
    }

    /// Strided variant of [`Solver::expired`] for the hottest inner
    /// loops: consults the cancellation token every call but reads the
    /// clock only every few polls.
    fn expired_fast(&self) -> bool {
        self.current.borrow().poll().is_err()
    }

    /// Decides satisfiability of `f`.
    pub fn check(&self, f: &Formula) -> SatResult {
        obs::counter!("lia.checks").inc();
        *self.current.borrow_mut() = {
            let attached = self.attached.borrow();
            match self.cfg.time_budget {
                Some(b) => attached.child(b),
                None => attached.clone(),
            }
        };
        let nnf = f.simplify().to_nnf();
        let mut splits = 0usize;
        let result = self.split(&mut Vec::new(), &mut vec![nnf], &mut splits);
        obs::counter!("lia.splits").add(splits as u64);
        // Verify any model against the *original* formula.
        match result {
            SatResult::Sat(m) => {
                if f.eval(&m) {
                    SatResult::Sat(m)
                } else {
                    SatResult::Unknown
                }
            }
            other => other,
        }
    }

    /// Processes the work list; `lits` is the conjunction accumulated on
    /// the current branch.
    fn split(
        &self,
        lits: &mut Vec<Atom>,
        work: &mut Vec<Formula>,
        splits: &mut usize,
    ) -> SatResult {
        while let Some(f) = work.pop() {
            if self.expired() {
                return SatResult::Unknown;
            }
            match f {
                Formula::True => {}
                Formula::False => return SatResult::Unsat,
                Formula::Atom(a) => lits.push(a),
                Formula::And(fs) => work.extend(fs),
                Formula::Or(fs) => {
                    *splits += 1;
                    if *splits > self.cfg.max_splits {
                        return SatResult::Unknown;
                    }
                    // Prune: if the current conjunction is already
                    // inconsistent, every disjunct fails with it.
                    if self.theory(lits) == SatResult::Unsat {
                        return SatResult::Unsat;
                    }
                    let mut saw_unknown = false;
                    for d in fs {
                        let mut lits2 = lits.clone();
                        let mut work2 = work.clone();
                        work2.push(d);
                        match self.split(&mut lits2, &mut work2, splits) {
                            SatResult::Sat(m) => return SatResult::Sat(m),
                            SatResult::Unsat => {}
                            SatResult::Unknown => saw_unknown = true,
                        }
                    }
                    return if saw_unknown {
                        SatResult::Unknown
                    } else {
                        SatResult::Unsat
                    };
                }
                Formula::Not(_) => unreachable!("input is in NNF"),
            }
        }
        self.theory(lits)
    }

    /// Decides a conjunction of atoms.
    fn theory(&self, lits: &[Atom]) -> SatResult {
        let mut eqs = Vec::new();
        let mut les = Vec::new();
        let mut nes = Vec::new();
        for a in lits {
            match a.rel {
                Rel::Eq => eqs.push(a.term.clone()),
                Rel::Le => les.push(a.term.clone()),
                Rel::Ne => nes.push(a.term.clone()),
            }
        }
        let mut splits = 0usize;
        let r = self.conj(eqs, les, nes, &mut splits);
        match r {
            Ok(res) => {
                // Verify models against the literal set (guards against
                // incompleteness of back-substitution).
                if let SatResult::Sat(m) = &res {
                    if !lits.iter().all(|a| a.eval(m)) {
                        return SatResult::Unknown;
                    }
                }
                res
            }
            Err(Overflowed) => SatResult::Unknown,
        }
    }

    fn conj(
        &self,
        mut eqs: Vec<LinTerm>,
        mut les: Vec<LinTerm>,
        mut nes: Vec<LinTerm>,
        splits: &mut usize,
    ) -> Res<SatResult> {
        // --- Phase 1: equality elimination by substitution. -------------
        // subs records x := t in elimination order.
        let mut subs: Vec<(SymId, LinTerm)> = Vec::new();
        while let Some(eq) = eqs.pop() {
            if self.expired() {
                return Ok(SatResult::Unknown);
            }
            if eq.is_constant() {
                if eq.constant_part() != 0 {
                    return Ok(SatResult::Unsat);
                }
                continue;
            }
            // gcd divisibility test: Σ aᵢxᵢ = -c solvable only if
            // gcd(aᵢ) | c.
            let g = eq.iter().fold(0i128, |acc, (_, c)| gcd(acc, c));
            if g > 1 {
                if eq.constant_part() % g != 0 {
                    return Ok(SatResult::Unsat);
                }
                // Divide through (exact).
                let mut t = LinTerm::constant(eq.constant_part() / g);
                for (s, c) in eq.iter() {
                    t = t
                        .checked_add(&LinTerm::sym(s).checked_scale(c / g).ok_or(Overflowed)?)
                        .ok_or(Overflowed)?;
                }
                eqs.push(t);
                continue;
            }
            // Find a unit-coefficient symbol to solve for.
            let unit = eq.iter().find(|&(_, c)| c == 1 || c == -1);
            if let Some((x, a)) = unit {
                // a·x + r = 0  ⇒  x = -r/a = r·(-a) since a = ±1.
                let mut r = eq.clone();
                let rx = r.substitute(x, &LinTerm::zero()).ok_or(Overflowed)?;
                r = rx;
                let t = r.checked_scale(-a).ok_or(Overflowed)?;
                for e in eqs.iter_mut() {
                    *e = e.substitute(x, &t).ok_or(Overflowed)?;
                }
                for e in les.iter_mut() {
                    *e = e.substitute(x, &t).ok_or(Overflowed)?;
                }
                for e in nes.iter_mut() {
                    *e = e.substitute(x, &t).ok_or(Overflowed)?;
                }
                subs.push((x, t));
            } else {
                // No unit coefficient: fall back to a pair of
                // inequalities (complete over ℚ; integrality is covered
                // by tightening plus the final model verification).
                les.push(eq.clone());
                les.push(eq.checked_scale(-1).ok_or(Overflowed)?);
            }
        }

        // --- Phase 2: disequality splitting. -----------------------------
        nes.retain(|t| !t.is_constant() || t.constant_part() == 0);
        if let Some(pos) = nes.iter().position(|t| t.is_constant()) {
            // Constant t ≠ 0 where t evaluates to 0: contradiction.
            debug_assert_eq!(nes[pos].constant_part(), 0);
            return Ok(SatResult::Unsat);
        }
        if let Some(t) = nes.pop() {
            *splits += 2;
            if *splits > self.cfg.max_splits {
                return Ok(SatResult::Unknown);
            }
            // t ≠ 0 ⟺ t ≤ -1 ∨ -t ≤ -1.
            let mut les_lo = les.clone();
            les_lo.push(t.checked_add_const(1).ok_or(Overflowed)?);
            let lo = self.conj(Vec::new(), les_lo, nes.clone(), splits)?;
            if let SatResult::Sat(m) = lo {
                return self.finish_model(m, &subs);
            }
            let mut les_hi = les;
            les_hi.push(
                t.checked_scale(-1)
                    .ok_or(Overflowed)?
                    .checked_add_const(1)
                    .ok_or(Overflowed)?,
            );
            let hi = self.conj(Vec::new(), les_hi, nes, splits)?;
            return Ok(match hi {
                SatResult::Sat(m) => return self.finish_model(m, &subs),
                SatResult::Unsat => {
                    if lo == SatResult::Unknown {
                        SatResult::Unknown
                    } else {
                        SatResult::Unsat
                    }
                }
                SatResult::Unknown => SatResult::Unknown,
            });
        }

        // --- Phase 3: branch-and-bound over the FM rational relaxation. --
        match self.branch_and_bound(les, BB_DEPTH, splits)? {
            SatResult::Sat(m) => Ok(self.finish_model(m, &subs)?),
            other => Ok(other),
        }
    }

    /// Decides a pure conjunction of `t ≤ 0` constraints: Fourier–Motzkin
    /// with gcd tightening for (un)satisfiability of the relaxation, a
    /// greedy integer back-substitution for models, and — when integer
    /// rounding fails — classic branch-and-bound on a fractional variable
    /// of the rational solution. The depth limit bounds the cut tree;
    /// exhaustion yields [`SatResult::Unknown`].
    fn branch_and_bound(
        &self,
        les: Vec<LinTerm>,
        depth: usize,
        splits: &mut usize,
    ) -> Res<SatResult> {
        if self.expired() {
            return Ok(SatResult::Unknown);
        }
        let mut sys = Vec::with_capacity(les.len());
        for t in les {
            match tighten(t)? {
                Tightened::Trivial => {}
                Tightened::False => return Ok(SatResult::Unsat),
                Tightened::Term(t) => sys.push(t),
            }
        }
        let ratm: Vec<(SymId, Rat)> = if self.cfg.use_simplex_relaxation {
            match rational_feasible(&sys) {
                SimplexResult::Infeasible => return Ok(SatResult::Unsat),
                SimplexResult::Overflow => return Err(Overflowed),
                SimplexResult::Feasible(pt) => pt,
            }
        } else {
            let elim = match self.fm_eliminate(sys.clone())? {
                Some(e) => e,
                None => return Ok(SatResult::Unsat),
            };
            // Greedy integer back-substitution usually succeeds outright.
            if let Some(m) = integer_model(&elim)? {
                return Ok(SatResult::Sat(m));
            }
            // Rational back-substitution cannot fail (the relaxation is
            // sat); branch on a fractional variable.
            rational_model(&elim)?
        };
        let frac = ratm.iter().find(|(_, v)| !v.is_integer());
        let Some(&(x, v)) = frac else {
            // All-integer rational model: convert directly.
            let mut m = Model::default();
            for (s, v) in ratm {
                m.set(s, v.num().try_into().map_err(|_| Overflowed)?);
            }
            return Ok(SatResult::Sat(m));
        };
        if depth == 0 {
            return Ok(SatResult::Unknown);
        }
        *splits += 2;
        if *splits > self.cfg.max_splits {
            return Ok(SatResult::Unknown);
        }
        let fl = v.floor();
        // Branch x ≤ ⌊v⌋ ∨ x ≥ ⌊v⌋ + 1.
        let mut lo = sys.clone();
        lo.push(LinTerm::sym(x).checked_add_const(-fl).ok_or(Overflowed)?);
        match self.branch_and_bound(lo, depth - 1, splits)? {
            SatResult::Sat(m) => return Ok(SatResult::Sat(m)),
            SatResult::Unknown => return Ok(SatResult::Unknown),
            SatResult::Unsat => {}
        }
        let mut hi = sys;
        hi.push(
            LinTerm::sym(x)
                .checked_scale(-1)
                .ok_or(Overflowed)?
                .checked_add_const(fl + 1)
                .ok_or(Overflowed)?,
        );
        self.branch_and_bound(hi, depth - 1, splits)
    }

    /// Fourier–Motzkin elimination. Returns the elimination stack
    /// (variable, constraints mentioning it at elimination time) or
    /// `None` if the system is unsatisfiable.
    #[allow(clippy::type_complexity)]
    fn fm_eliminate(&self, mut les: Vec<LinTerm>) -> Res<Option<Vec<(SymId, Vec<LinTerm>)>>> {
        let fm_pairings = obs::counter!("lia.fm_pairings");
        let mut elim: Vec<(SymId, Vec<LinTerm>)> = Vec::new();
        loop {
            if self.expired() {
                return Err(Overflowed);
            }
            let mut syms: Vec<SymId> = Vec::new();
            for t in &les {
                syms.extend(t.symbols());
            }
            syms.sort_unstable();
            syms.dedup();
            let Some(&x) = syms.iter().min_by_key(|&&x| {
                let ups = les.iter().filter(|t| t.coeff(x) > 0).count();
                let los = les.iter().filter(|t| t.coeff(x) < 0).count();
                ups * los
            }) else {
                break;
            };
            let (with_x, rest): (Vec<LinTerm>, Vec<LinTerm>) =
                les.into_iter().partition(|t| t.coeff(x) != 0);
            let mut new = rest;
            for u in with_x.iter().filter(|t| t.coeff(x) > 0) {
                for l in with_x.iter().filter(|t| t.coeff(x) < 0) {
                    // The pairing step is quadratic in the constraint
                    // count — the one place a single elimination round
                    // can run for seconds — so it polls the budget and
                    // bails as soon as the output exceeds the cap.
                    if self.expired_fast() || new.len() > self.cfg.max_constraints {
                        return Err(Overflowed);
                    }
                    fm_pairings.inc();
                    let a = u.coeff(x);
                    let b = l.coeff(x); // b < 0
                    let c = u
                        .checked_scale(-b)
                        .ok_or(Overflowed)?
                        .checked_add(&l.checked_scale(a).ok_or(Overflowed)?)
                        .ok_or(Overflowed)?;
                    debug_assert_eq!(c.coeff(x), 0);
                    match tighten(c)? {
                        Tightened::Trivial => {}
                        Tightened::False => return Ok(None),
                        Tightened::Term(t) => new.push(t),
                    }
                }
            }
            if new.len() > self.cfg.max_constraints {
                return Err(Overflowed); // resource exhaustion → Unknown
            }
            elim.push((x, with_x));
            les = new;
        }
        Ok(Some(elim))
    }

    /// Replays equality substitutions (in reverse) to complete a model.
    fn finish_model(&self, mut model: Model, subs: &[(SymId, LinTerm)]) -> Res<SatResult> {
        for (x, t) in subs.iter().rev() {
            let v = t.eval(&model);
            let v64: i64 = v.try_into().map_err(|_| Overflowed)?;
            model.set(*x, v64);
        }
        Ok(SatResult::Sat(model))
    }
}

/// Maximum depth of the branch-and-bound cut tree.
const BB_DEPTH: usize = 64;

/// Greedy integer back-substitution through an FM elimination stack.
/// Returns `None` when some variable's integer range is empty under the
/// greedy choices (the caller then falls back to branch-and-bound).
fn integer_model(elim: &[(SymId, Vec<LinTerm>)]) -> Res<Option<Model>> {
    let mut model = Model::default();
    for (x, constraints) in elim.iter().rev() {
        let mut lb: Option<i128> = None;
        let mut ub: Option<i128> = None;
        for t in constraints {
            let a = t.coeff(*x);
            let rest = t.substitute(*x, &LinTerm::zero()).ok_or(Overflowed)?;
            let r = rest.eval(&model);
            if a > 0 {
                // a·x + r ≤ 0 ⇒ x ≤ ⌊-r/a⌋.
                let bound = div_floor(-r, a);
                ub = Some(ub.map_or(bound, |u: i128| u.min(bound)));
            } else {
                // a < 0 ⇒ x ≥ ⌈r/-a⌉.
                let bound = div_ceil(r, -a);
                lb = Some(lb.map_or(bound, |l: i128| l.max(bound)));
            }
        }
        let v = match (lb, ub) {
            (None, None) => 0,
            (Some(l), None) => l.max(0),
            (None, Some(u)) => u.min(0),
            (Some(l), Some(u)) => {
                if l > u {
                    return Ok(None);
                }
                if l <= 0 && 0 <= u {
                    0
                } else {
                    l
                }
            }
        };
        let v64: i64 = v.try_into().map_err(|_| Overflowed)?;
        model.set(*x, v64);
    }
    Ok(Some(model))
}

/// Exact rational back-substitution; always succeeds because FM
/// elimination certified the relaxation satisfiable.
fn rational_model(elim: &[(SymId, Vec<LinTerm>)]) -> Res<Vec<(SymId, Rat)>> {
    let mut vals: Vec<(SymId, Rat)> = Vec::new();
    let eval = |t: &LinTerm, vals: &[(SymId, Rat)]| -> Res<Rat> {
        let mut v = Rat::int(t.constant_part());
        for (s, c) in t.iter() {
            let sv = vals
                .iter()
                .find(|(vs, _)| *vs == s)
                .map(|(_, f)| *f)
                .unwrap_or(Rat::ZERO);
            let scaled = sv.mul(Rat::int(c)).ok_or(Overflowed)?;
            v = v.add(scaled).ok_or(Overflowed)?;
        }
        Ok(v)
    };
    for (x, constraints) in elim.iter().rev() {
        let mut lb: Option<Rat> = None;
        let mut ub: Option<Rat> = None;
        for t in constraints {
            let a = t.coeff(*x);
            let rest = t.substitute(*x, &LinTerm::zero()).ok_or(Overflowed)?;
            let r = eval(&rest, &vals)?;
            if a > 0 {
                let bound = r.neg().div(Rat::int(a)).ok_or(Overflowed)?;
                ub = Some(match ub {
                    Some(u) => u.min(bound),
                    None => bound,
                });
            } else {
                let bound = r.div(Rat::int(-a)).ok_or(Overflowed)?;
                lb = Some(match lb {
                    Some(l) => l.max(bound),
                    None => bound,
                });
            }
        }
        let v = match (lb, ub) {
            (None, None) => Rat::ZERO,
            // One-sided ranges always contain an integer: ⌈l⌉ / ⌊u⌋.
            (Some(l), None) => Rat::int(l.ceil().max(0)),
            (None, Some(u)) => Rat::int(u.floor().min(0)),
            (Some(l), Some(u)) => {
                debug_assert!(u >= l, "FM certified a nonempty rational box");
                // Prefer an integer in the box if one exists.
                let cand = Rat::int(l.ceil());
                if cand >= l && u >= cand {
                    cand
                } else {
                    l.add(u)
                        .ok_or(Overflowed)?
                        .div(Rat::int(2))
                        .ok_or(Overflowed)?
                }
            }
        };
        vals.push((*x, v));
    }
    Ok(vals)
}

enum Tightened {
    /// Constraint is trivially true; drop it.
    Trivial,
    /// Constraint is trivially false.
    False,
    /// The (possibly strengthened) constraint.
    Term(LinTerm),
}

/// Normalizes `t ≤ 0`: constant check plus gcd tightening
/// (`Σaᵢxᵢ + c ≤ 0 ⟺ Σ(aᵢ/g)xᵢ ≤ ⌊-c/g⌋` for `g = gcd(aᵢ)`).
fn tighten(t: LinTerm) -> Res<Tightened> {
    if t.is_constant() {
        return Ok(if t.constant_part() <= 0 {
            Tightened::Trivial
        } else {
            Tightened::False
        });
    }
    let g = t.iter().fold(0i128, |acc, (_, c)| gcd(acc, c));
    if g <= 1 {
        return Ok(Tightened::Term(t));
    }
    let mut out = LinTerm::constant(-div_floor(-t.constant_part(), g));
    for (s, c) in t.iter() {
        out = out
            .checked_add(&LinTerm::sym(s).checked_scale(c / g).ok_or(Overflowed)?)
            .ok_or(Overflowed)?;
    }
    Ok(Tightened::Term(out))
}

fn div_floor(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

fn div_ceil(a: i128, b: i128) -> i128 {
    debug_assert!(b > 0);
    -((-a).div_euclid(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn x() -> LinTerm {
        LinTerm::sym(SymId(0))
    }
    fn y() -> LinTerm {
        LinTerm::sym(SymId(1))
    }
    fn z() -> LinTerm {
        LinTerm::sym(SymId(2))
    }
    fn le(t: LinTerm) -> Formula {
        Formula::Atom(Atom::le(t))
    }
    fn eq(t: LinTerm) -> Formula {
        Formula::Atom(Atom::eq(t))
    }
    fn ne(t: LinTerm) -> Formula {
        Formula::Atom(Atom::ne(t))
    }

    fn check(f: &Formula) -> SatResult {
        Solver::new().check(f)
    }

    #[test]
    fn trivial_results() {
        assert!(check(&Formula::True).is_sat());
        assert!(check(&Formula::False).is_unsat());
    }

    #[test]
    fn simple_bounds() {
        // x <= 3 ∧ x >= 1  (x - 3 <= 0 ∧ 1 - x <= 0)
        let f = Formula::and(
            le(x().checked_add_const(-3).unwrap()),
            le(x().checked_scale(-1).unwrap().checked_add_const(1).unwrap()),
        );
        let SatResult::Sat(m) = check(&f) else {
            panic!("expected sat")
        };
        let v = m.get(SymId(0));
        assert!((1..=3).contains(&v));
    }

    #[test]
    fn contradictory_bounds_unsat() {
        // x <= 0 ∧ x >= 1.
        let f = Formula::and(
            le(x()),
            le(x().checked_scale(-1).unwrap().checked_add_const(1).unwrap()),
        );
        assert!(check(&f).is_unsat());
    }

    #[test]
    fn equalities_chain() {
        // x = y + 1 ∧ y = z ∧ z = 5 ∧ x <= 5 → unsat (x = 6).
        let f = Formula::And(vec![
            eq(x()
                .checked_sub(&y())
                .unwrap()
                .checked_add_const(-1)
                .unwrap()),
            eq(y().checked_sub(&z()).unwrap()),
            eq(z().checked_add_const(-5).unwrap()),
            le(x().checked_add_const(-5).unwrap()),
        ]);
        assert!(check(&f).is_unsat());
    }

    #[test]
    fn gcd_divisibility_unsat() {
        // 2x + 4y = 3 has no integer solution.
        let t = x()
            .checked_scale(2)
            .unwrap()
            .checked_add(&y().checked_scale(4).unwrap())
            .unwrap()
            .checked_add_const(-3)
            .unwrap();
        assert!(check(&eq(t)).is_unsat());
    }

    #[test]
    fn gcd_tightening_inequalities() {
        // 2x >= 1 ∧ 2x <= 1: rationally sat (x = 1/2) but integer-unsat —
        // tightening turns these into x >= 1 ∧ x <= 0.
        let f = Formula::and(
            le(x().checked_scale(-2).unwrap().checked_add_const(1).unwrap()),
            le(x().checked_scale(2).unwrap().checked_add_const(-1).unwrap()),
        );
        assert!(check(&f).is_unsat());
    }

    #[test]
    fn disequality_split() {
        // x = 0 ∧ x ≠ 0 → unsat; x ≠ 0 ∧ 0 <= x <= 1 → x = 1.
        let f = Formula::and(eq(x()), ne(x()));
        assert!(check(&f).is_unsat());
        let g = Formula::And(vec![
            ne(x()),
            le(x().checked_scale(-1).unwrap()),
            le(x().checked_add_const(-1).unwrap()),
        ]);
        let SatResult::Sat(m) = check(&g) else {
            panic!("expected sat")
        };
        assert_eq!(m.get(SymId(0)), 1);
    }

    #[test]
    fn disjunction_branches() {
        // (x <= -5 ∨ x >= 5) ∧ x = 2 → unsat.
        let f = Formula::and(
            Formula::or(
                le(x().checked_add_const(5).unwrap()),
                le(x().checked_scale(-1).unwrap().checked_add_const(5).unwrap()),
            ),
            eq(x().checked_add_const(-2).unwrap()),
        );
        assert!(check(&f).is_unsat());
        // ... and x = 7 is fine.
        let g = Formula::and(
            Formula::or(
                le(x().checked_add_const(5).unwrap()),
                le(x().checked_scale(-1).unwrap().checked_add_const(5).unwrap()),
            ),
            eq(x().checked_add_const(-7).unwrap()),
        );
        assert!(check(&g).is_sat());
    }

    #[test]
    fn transitive_inequalities() {
        // x <= y ∧ y <= z ∧ z <= x ∧ x ≠ y → unsat (forces x = y = z).
        let f = Formula::And(vec![
            le(x().checked_sub(&y()).unwrap()),
            le(y().checked_sub(&z()).unwrap()),
            le(z().checked_sub(&x()).unwrap()),
            ne(x().checked_sub(&y()).unwrap()),
        ]);
        assert!(check(&f).is_unsat());
    }

    #[test]
    fn the_paper_ex2_slice_wp_is_sat() {
        // Slice WP of Figure 1 (no shaded code): x = 0 ∧ a > 0 … here
        // modeled as x = 0 ∧ a - 1 >= 0.
        let f = Formula::and(
            eq(x()),
            le(y().checked_scale(-1).unwrap().checked_add_const(1).unwrap()),
        );
        assert!(check(&f).is_sat());
    }

    #[test]
    fn nnf_negation_through_solver() {
        // ¬(x <= 0 ∨ x >= 2) ⟺ x = 1.
        let f = Formula::not(Formula::or(
            le(x()),
            le(x().checked_scale(-1).unwrap().checked_add_const(2).unwrap()),
        ));
        let SatResult::Sat(m) = check(&f) else {
            panic!("expected sat")
        };
        assert_eq!(m.get(SymId(0)), 1);
    }

    #[test]
    fn unbounded_directions_still_sat() {
        // x >= 10 ∧ y <= -10, nothing else.
        let f = Formula::and(
            le(x()
                .checked_scale(-1)
                .unwrap()
                .checked_add_const(10)
                .unwrap()),
            le(y().checked_add_const(10).unwrap()),
        );
        let SatResult::Sat(m) = check(&f) else {
            panic!("expected sat")
        };
        assert!(m.get(SymId(0)) >= 10);
        assert!(m.get(SymId(1)) <= -10);
    }

    #[test]
    fn time_budget_yields_unknown_not_hang() {
        use std::time::{Duration, Instant};
        // An adversarial conjunction of disequalities over many symbols:
        // exponential case splits for the DPLL layer.
        let mut parts = Vec::new();
        for i in 0..24u32 {
            for j in (i + 1)..24 {
                let t = LinTerm::sym(SymId(i))
                    .checked_sub(&LinTerm::sym(SymId(j)))
                    .unwrap();
                parts.push(ne(t));
            }
        }
        // Pigeonhole-ish cap making it unsatisfiable but hard: all 24
        // symbols within [0, 10].
        for i in 0..24u32 {
            parts.push(le(LinTerm::sym(SymId(i)).checked_add_const(-10).unwrap()));
            parts.push(le(LinTerm::sym(SymId(i)).checked_scale(-1).unwrap()));
        }
        let f = Formula::And(parts);
        let solver = Solver::with_config(SolverConfig {
            time_budget: Some(Duration::from_millis(100)),
            ..SolverConfig::default()
        });
        let start = Instant::now();
        let r = solver.check(&f);
        // Generous bound: the budget is wall-clock, so on a loaded
        // single-core machine the solver thread may be starved well past
        // its 100ms budget before it gets to observe the deadline.
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "budget respected ({:?})",
            start.elapsed()
        );
        // Either it proved unsat fast or it gave up — never a wrong Sat.
        assert!(!r.is_sat(), "{r:?}");
    }

    #[test]
    fn attached_token_cancels_check() {
        let token = rt::CancelToken::new();
        let solver = Solver::new();
        solver.attach_budget(rt::Budget::unlimited().with_token(token.clone()));
        // Uncancelled: normal verdicts.
        assert!(solver.check(&le(x())).is_sat());
        // Cancelled: even a trivial check yields Unknown, immediately.
        token.cancel();
        assert_eq!(solver.check(&le(x())), SatResult::Unknown);
    }

    #[test]
    fn attached_deadline_caps_config_budget() {
        use std::time::{Duration, Instant};
        // Config allows 1 h, but the attached budget is already expired:
        // the check must give up at once.
        let solver = Solver::with_config(SolverConfig {
            time_budget: Some(Duration::from_secs(3600)),
            ..SolverConfig::default()
        });
        solver.attach_budget(rt::Budget::until(Instant::now() - Duration::from_millis(1)));
        assert_eq!(solver.check(&le(x())), SatResult::Unknown);
    }

    #[test]
    fn budget_resets_between_checks() {
        use std::time::Duration;
        let solver = Solver::with_config(SolverConfig {
            time_budget: Some(Duration::from_secs(5)),
            ..SolverConfig::default()
        });
        // Two easy checks in a row both succeed (deadline is per call).
        for _ in 0..2 {
            let r = solver.check(&le(x().checked_add_const(-3).unwrap()));
            assert!(r.is_sat());
        }
    }

    // ---- property tests against a brute-force oracle --------------------

    /// A small random formula over 3 symbols with coefficients in ±3 and
    /// constants in ±6.
    fn arb_term() -> impl Strategy<Value = LinTerm> {
        (-3i128..=3, -3i128..=3, -3i128..=3, -6i128..=6).prop_map(|(a, b, c, k)| {
            LinTerm::sym(SymId(0))
                .checked_scale(a)
                .unwrap()
                .checked_add(&LinTerm::sym(SymId(1)).checked_scale(b).unwrap())
                .unwrap()
                .checked_add(&LinTerm::sym(SymId(2)).checked_scale(c).unwrap())
                .unwrap()
                .checked_add_const(k)
                .unwrap()
        })
    }

    fn arb_atom() -> impl Strategy<Value = Formula> {
        (arb_term(), 0u8..3).prop_map(|(t, r)| {
            Formula::Atom(match r {
                0 => Atom::le(t),
                1 => Atom::eq(t),
                _ => Atom::ne(t),
            })
        })
    }

    fn arb_formula() -> impl Strategy<Value = Formula> {
        let leaf = arb_atom();
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 1..4).prop_map(Formula::And),
                proptest::collection::vec(inner.clone(), 1..4).prop_map(Formula::Or),
                inner.prop_map(Formula::not),
            ]
        })
    }

    /// Exhaustive search over a small box; sound only for *finding*
    /// models, not for proving unsat.
    fn brute_force_model(f: &Formula, radius: i64) -> Option<Model> {
        let mut m = Model::default();
        for a in -radius..=radius {
            for b in -radius..=radius {
                for c in -radius..=radius {
                    m.set(SymId(0), a);
                    m.set(SymId(1), b);
                    m.set(SymId(2), c);
                    if f.eval(&m) {
                        return Some(m);
                    }
                }
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn solver_agrees_with_brute_force(f in arb_formula()) {
            let res = check(&f);
            let brute = brute_force_model(&f, 7);
            match (&res, &brute) {
                // Solver unsat but brute force found a model: soundness bug.
                (SatResult::Unsat, Some(m)) => {
                    prop_assert!(false, "unsat but model exists: {f} with {m:?}");
                }
                // Solver sat: the model must actually satisfy f (check()
                // verifies this internally, but assert again).
                (SatResult::Sat(m), _) => prop_assert!(f.eval(m)),
                // Brute force found a model: solver must not give up.
                (SatResult::Unknown, Some(_)) => {
                    prop_assert!(false, "solver said unknown on a satisfiable formula: {f}");
                }
                _ => {}
            }
        }

        /// The two relaxation engines (Fourier–Motzkin and simplex)
        /// produce the same verdicts on arbitrary formulas.
        #[test]
        fn fm_and_simplex_engines_agree(f in arb_formula()) {
            let fm = Solver::new().check(&f);
            let sx = Solver::with_config(SolverConfig {
                use_simplex_relaxation: true,
                ..SolverConfig::default()
            })
            .check(&f);
            match (&fm, &sx) {
                (SatResult::Unknown, _) | (_, SatResult::Unknown) => {}
                (a, b) => prop_assert_eq!(
                    a.is_unsat(),
                    b.is_unsat(),
                    "engines disagree on {}: fm={:?} simplex={:?}",
                    f, a, b
                ),
            }
            if let SatResult::Sat(m) = &sx {
                prop_assert!(f.eval(m), "simplex model fails evaluation");
            }
        }

        #[test]
        fn conjunctions_of_bounds_never_unknown(
            bounds in proptest::collection::vec(arb_term(), 1..8)
        ) {
            // Pure inequality conjunctions — the common case for trace
            // WPs — must always be decided.
            let f = Formula::And(bounds.into_iter().map(|t| Formula::Atom(Atom::le(t))).collect());
            let res = check(&f);
            prop_assert!(res != SatResult::Unknown, "gave up on {f}");
        }
    }
}
