//! Predicate pools, tri-state valuations, and the abstract post.
//!
//! The pool hash-conses valuations to dense `u32` ids, so abstract
//! reachability carries a `u32` per state instead of a vector, and the
//! pool's query caches are keyed by ids. A valuation is interned with
//! its trailing unknowns trimmed: predicates are only ever appended, so
//! the trimmed valuation names the same state formula however large the
//! pool has grown since, and cached answers stay valid across
//! refinement rounds.

use crate::idhash::IdMap;
use cfa::{CBool, EdgeId, FuncId, Op, Program};
use dataflow::{Analyses, BitSet};
use lia::{Formula, SatResult, Solver};
use semantics::wp::{cbool_to_formula, wp_bool};

/// A tri-state predicate valuation: one entry per pool predicate.
/// `1` = known true, `-1` = known false, `0` = unknown.
pub type Valuation = Vec<i8>;

/// A valuation interned in a [`PredicatePool`]: an index into its
/// valuation table, stable for the pool's lifetime.
pub(crate) type ValId = u32;

/// The id of the all-unknown valuation (the empty trimmed valuation).
pub(crate) const TOP: ValId = 0;

/// The set of abstraction predicates, with their [`lia`] encodings, the
/// valuation table, and the query caches.
///
/// Only pointer-free linear predicates are admitted (others cannot be
/// reasoned about by the solver and would stay permanently unknown).
/// A pool serves one program: assume conditions are cached by
/// [`EdgeId`], and predicates' read cells are resolved against the
/// analyses of the first op post that sees them.
#[derive(Debug)]
pub struct PredicatePool {
    preds: Vec<CBool>,
    formulas: Vec<Formula>,
    /// Per predicate: `Some(f)` if it mentions a local of `f` (tracked
    /// only inside `f` when scoping is enabled); `None` for predicates
    /// over globals, tracked everywhere.
    scopes: Vec<Option<FuncId>>,
    /// Per predicate: the memory cells it may read. Filled lazily up to
    /// `preds.len()` by [`PredicatePool::post_op_id`].
    read_cells: Vec<BitSet>,
    solver: Solver,
    /// Interned valuations, trailing unknowns trimmed; `vals[TOP]` is
    /// empty.
    vals: Vec<Box<[i8]>>,
    val_ids: IdMap<Box<[i8]>, ValId>,
    /// Per assume edge: the id of its condition in `conds`, or `None`
    /// when the condition is not expressible.
    edge_conds: IdMap<EdgeId, Option<u32>>,
    conds: Vec<Formula>,
    cond_ids: IdMap<Formula, u32>,
    /// Entailment queries: (state, condition, target predicate,
    /// polarity) → holds?
    entail_cache: IdMap<(ValId, u32, u32, bool), bool>,
    /// Assume-consistency queries: (state, condition) → consistent?
    consistent_cache: IdMap<(ValId, u32), bool>,
}

impl PredicatePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        let mut pool = PredicatePool {
            preds: Vec::new(),
            formulas: Vec::new(),
            scopes: Vec::new(),
            read_cells: Vec::new(),
            solver: Solver::new(),
            vals: Vec::new(),
            val_ids: IdMap::default(),
            edge_conds: IdMap::default(),
            conds: Vec::new(),
            cond_ids: IdMap::default(),
            entail_cache: IdMap::default(),
            consistent_cache: IdMap::default(),
        };
        let top = pool.intern(&[]);
        debug_assert_eq!(top, TOP);
        pool
    }

    /// The scope of predicate `i` (see [`PredicatePool::add_scoped`]).
    pub fn scope(&self, i: usize) -> Option<FuncId> {
        self.scopes[i]
    }

    /// Adds a predicate with its scope computed from `program`'s
    /// variable table: predicates reading any local of `f` are scoped to
    /// `f`; all-global predicates are unscoped. Returns whether the pool
    /// grew.
    pub fn add_scoped(&mut self, program: &Program, p: CBool) -> bool {
        let mut reads = Vec::new();
        p.collect_reads(&mut reads);
        let mut scope = None;
        for lv in &reads {
            if let cfa::VarKind::Local(f) = program.vars().kind(lv.base()) {
                scope = Some(f);
            }
        }
        self.add_inner(p, scope)
    }

    /// The predicates currently in the pool.
    pub fn predicates(&self) -> &[CBool] {
        &self.preds
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Adds a predicate if it is new and expressible (unscoped — tracked
    /// everywhere); returns whether the pool grew.
    pub fn add(&mut self, p: CBool) -> bool {
        self.add_inner(p, None)
    }

    fn add_inner(&mut self, p: CBool, scope: Option<FuncId>) -> bool {
        if matches!(p, CBool::True | CBool::False) {
            return false;
        }
        let Some(f) = cbool_to_formula(&p) else {
            return false;
        };
        if self.preds.contains(&p) {
            return false;
        }
        self.preds.push(p);
        self.formulas.push(f);
        self.scopes.push(scope);
        // The caches stay: a cached valuation id names the same trimmed
        // valuation, hence the same query formula, in the grown pool.
        true
    }

    /// The all-unknown valuation.
    pub fn top(&self) -> Valuation {
        vec![0; self.preds.len()]
    }

    /// Interns `vals` (trailing unknowns trimmed) and returns its id.
    fn intern(&mut self, vals: &[i8]) -> ValId {
        let end = vals.iter().rposition(|&v| v != 0).map_or(0, |i| i + 1);
        let key = &vals[..end];
        if let Some(&id) = self.val_ids.get(key) {
            return id;
        }
        let id = ValId::try_from(self.vals.len()).expect("fewer than 2^32 valuations");
        self.vals.push(key.into());
        self.val_ids.insert(key.into(), id);
        id
    }

    /// The valuation `id` names, one entry per current predicate.
    fn valuation(&self, id: ValId) -> Valuation {
        let mut v = self.vals[id as usize].to_vec();
        v.resize(self.preds.len(), 0);
        v
    }

    /// Forces predicates scoped to functions other than `f` to unknown —
    /// the lazy-abstraction-style locality of BLAST [17 in the paper's
    /// bibliography]: facts about one function's locals are not carried
    /// through other functions' exploration, shrinking the abstract
    /// state space. Sound (unknown over-approximates).
    pub fn mask_for(&self, vals: &mut Valuation, f: FuncId) {
        for (i, s) in self.scopes.iter().enumerate() {
            if let Some(g) = s {
                if *g != f {
                    vals[i] = 0;
                }
            }
        }
    }

    /// [`PredicatePool::mask_for`] on an interned valuation.
    pub(crate) fn mask_id(&mut self, id: ValId, f: FuncId) -> ValId {
        let masks = self.vals[id as usize]
            .iter()
            .zip(&self.scopes)
            .any(|(&v, s)| v != 0 && s.is_some_and(|g| g != f));
        if !masks {
            return id;
        }
        let mut out = self.valuation(id);
        self.mask_for(&mut out, f);
        self.intern(&out)
    }

    /// The conjunction of the known predicate values.
    fn state_formula(&self, id: ValId) -> Formula {
        let parts = self.vals[id as usize]
            .iter()
            .zip(&self.formulas)
            .filter_map(|(&v, f)| match v {
                1 => Some(f.clone()),
                -1 => Some(Formula::not(f.clone())),
                _ => None,
            })
            .collect();
        Formula::And(parts)
    }

    /// The condition id of assume edge `edge`, whose condition is `p`;
    /// translated once per edge.
    fn cond_id(&mut self, edge: EdgeId, p: &CBool) -> Option<u32> {
        if let Some(&c) = self.edge_conds.get(&edge) {
            return c;
        }
        let c = cbool_to_formula(p).map(|f| match self.cond_ids.get(&f) {
            Some(&c) => c,
            None => {
                let c = self.conds.len() as u32;
                self.conds.push(f.clone());
                self.cond_ids.insert(f, c);
                c
            }
        });
        self.edge_conds.insert(edge, c);
        c
    }

    /// Does `state ∧ cond ⟹ target` hold (positive) or
    /// `state ∧ cond ⟹ ¬target` (negative)? Unsat-based, cached.
    /// `state` is the state formula of `id`, built on first need.
    fn entails(
        &mut self,
        id: ValId,
        cond: u32,
        target_idx: usize,
        positive: bool,
        state: &mut Option<Formula>,
    ) -> bool {
        let key = (id, cond, target_idx as u32, positive);
        if let Some(&r) = self.entail_cache.get(&key) {
            return r;
        }
        let target = if positive {
            Formula::not(self.formulas[target_idx].clone())
        } else {
            self.formulas[target_idx].clone()
        };
        let s = state.get_or_insert_with(|| self.state_formula(id)).clone();
        let q = Formula::and(Formula::and(s, self.conds[cond as usize].clone()), target);
        let r = self.solver.check(&q).is_unsat();
        self.entail_cache.insert(key, r);
        r
    }

    /// Abstract post across assume edge `edge`, whose condition is `p`:
    /// `None` if the branch is inconsistent with the known predicates
    /// (pruned), otherwise the strengthened valuation. The pool caches
    /// the condition's translation by `edge`, so `p` must be that edge's
    /// condition.
    pub fn post_assume(&mut self, edge: EdgeId, vals: &Valuation, p: &CBool) -> Option<Valuation> {
        let id = self.intern(vals);
        self.post_assume_id(edge, id, p).map(|r| self.valuation(r))
    }

    /// [`PredicatePool::post_assume`] on an interned valuation.
    pub(crate) fn post_assume_id(&mut self, edge: EdgeId, id: ValId, p: &CBool) -> Option<ValId> {
        let Some(cond) = self.cond_id(edge, p) else {
            // Unexpressible condition: no pruning, no strengthening.
            return Some(id);
        };
        let mut state = None;
        let consistent = match self.consistent_cache.get(&(id, cond)) {
            Some(&c) => c,
            None => {
                let s = state.get_or_insert_with(|| self.state_formula(id)).clone();
                let q = Formula::and(s, self.conds[cond as usize].clone());
                let c = match self.solver.check(&q) {
                    SatResult::Unsat => false,
                    SatResult::Sat(_) | SatResult::Unknown => true,
                };
                self.consistent_cache.insert((id, cond), c);
                c
            }
        };
        if !consistent {
            return None;
        }
        let mut out: Option<Valuation> = None;
        for i in 0..self.preds.len() {
            if self.vals[id as usize].get(i).is_some_and(|&v| v != 0) {
                continue;
            }
            let v = if self.entails(id, cond, i, true, &mut state) {
                1
            } else if self.entails(id, cond, i, false, &mut state) {
                -1
            } else {
                continue;
            };
            out.get_or_insert_with(|| self.valuation(id))[i] = v;
        }
        Some(match out {
            Some(out) => self.intern(&out),
            None => id,
        })
    }

    /// Abstract post across an assignment/havoc/call/return operation.
    pub fn post_op(&mut self, analyses: &Analyses<'_>, vals: &Valuation, op: &Op) -> Valuation {
        let id = self.intern(vals);
        let r = self.post_op_id(analyses, id, op);
        self.valuation(r)
    }

    /// [`PredicatePool::post_op`] on an interned valuation.
    pub(crate) fn post_op_id(&mut self, analyses: &Analyses<'_>, id: ValId, op: &Op) -> ValId {
        assert!(!op.is_assume(), "assumes go through post_assume");
        // Which cells may this op write? (None for calls and returns.)
        let Some(lv) = op.write() else {
            return id;
        };
        let written = analyses.alias().may_write_cells(lv);
        while self.read_cells.len() < self.preds.len() {
            let mut reads = Vec::new();
            self.preds[self.read_cells.len()].collect_reads(&mut reads);
            self.read_cells.push(analyses.cells_of(reads.iter()));
        }
        // Fast path: no predicate reads a written cell → unchanged.
        if !self.read_cells.iter().any(|c| c.intersects(&written)) {
            return id;
        }
        let state = self.state_formula(id);
        let mut out = self.valuation(id);
        for (i, slot) in out.iter_mut().enumerate() {
            if !self.read_cells[i].intersects(&written) {
                continue;
            }
            *slot = match wp_bool(&self.preds[i], op).and_then(|wpp| cbool_to_formula(&wpp)) {
                None => 0,
                Some(wpf) => {
                    // state ⟹ wp(p) → p' true; state ⟹ ¬wp(p) → p' false.
                    let q_true = Formula::and(state.clone(), Formula::not(wpf.clone()));
                    let q_false = Formula::and(state.clone(), wpf);
                    if self.solver.check(&q_true).is_unsat() {
                        1
                    } else if self.solver.check(&q_false).is_unsat() {
                        -1
                    } else {
                        0
                    }
                }
            };
        }
        self.intern(&out)
    }
}

impl Default for PredicatePool {
    fn default() -> Self {
        Self::new()
    }
}

/// Collects the atomic comparisons of a condition as candidate
/// predicates.
pub fn atoms_of(p: &CBool, out: &mut Vec<CBool>) {
    match p {
        CBool::True | CBool::False => {}
        CBool::Cmp(..) => out.push(p.clone()),
        CBool::Not(i) => atoms_of(i, out),
        CBool::And(a, b) | CBool::Or(a, b) => {
            atoms_of(a, out);
            atoms_of(b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfa::{CExpr, CLval};
    use imp::ast::CmpOp;

    fn prog(src: &str) -> Program {
        cfa::lower(&imp::parse(src).unwrap()).unwrap()
    }

    /// An edge id of `main`: posts cache conditions by edge, so tests
    /// give each distinct condition its own.
    fn edge(p: &Program, idx: u32) -> EdgeId {
        EdgeId {
            func: p.main(),
            idx,
        }
    }

    fn cmp(op: CmpOp, v: cfa::VarId, k: i64) -> CBool {
        CBool::Cmp(op, CExpr::Lval(CLval::Var(v)), CExpr::Int(k))
    }

    #[test]
    fn assume_prunes_contradictions() {
        let p = prog("global x; fn main() { assume(x > 0); }");
        let x = p.vars().lookup("x").unwrap();
        let mut pool = PredicatePool::new();
        assert!(pool.add(cmp(CmpOp::Gt, x, 0)));
        let mut vals = pool.top();
        vals[0] = -1; // x > 0 known false
        let r = pool.post_assume(edge(&p, 0), &vals, &cmp(CmpOp::Gt, x, 0));
        assert!(r.is_none(), "assume(x>0) under ¬(x>0) is pruned");
        // And consistent assumes strengthen unknowns.
        let r2 = pool
            .post_assume(edge(&p, 1), &pool.top(), &cmp(CmpOp::Gt, x, 5))
            .unwrap();
        assert_eq!(r2[0], 1, "x > 5 implies x > 0");
    }

    #[test]
    fn assignment_post_updates_predicate() {
        let p = prog("global x; fn main() { x = 1; }");
        let x = p.vars().lookup("x").unwrap();
        let an = Analyses::build(&p);
        let mut pool = PredicatePool::new();
        pool.add(cmp(CmpOp::Eq, x, 1));
        pool.add(cmp(CmpOp::Eq, x, 0));
        let op = &p.cfa(p.main()).edges()[0].op; // x := 1
        let out = pool.post_op(&an, &pool.top(), op);
        assert_eq!(out, vec![1, -1], "x := 1 makes x==1 true and x==0 false");
    }

    #[test]
    fn unrelated_assignment_preserves_values() {
        let p = prog("global x, y; fn main() { y = 3; }");
        let x = p.vars().lookup("x").unwrap();
        let an = Analyses::build(&p);
        let mut pool = PredicatePool::new();
        pool.add(cmp(CmpOp::Gt, x, 0));
        let mut vals = pool.top();
        vals[0] = 1;
        let op = &p.cfa(p.main()).edges()[0].op; // y := 3
        let out = pool.post_op(&an, &vals, op);
        assert_eq!(out, vec![1], "y := 3 does not disturb x > 0");
    }

    #[test]
    fn havoc_resets_dependent_predicates() {
        let p = prog("global x; fn main() { x = nondet(); }");
        let x = p.vars().lookup("x").unwrap();
        let an = Analyses::build(&p);
        let mut pool = PredicatePool::new();
        pool.add(cmp(CmpOp::Gt, x, 0));
        let mut vals = pool.top();
        vals[0] = 1;
        let op = &p.cfa(p.main()).edges()[0].op;
        let out = pool.post_op(&an, &vals, op);
        assert_eq!(out, vec![0], "x := nondet() forgets x > 0");
    }

    #[test]
    fn increment_shifts_known_facts() {
        let p = prog("global x; fn main() { x = x + 1; }");
        let x = p.vars().lookup("x").unwrap();
        let an = Analyses::build(&p);
        let mut pool = PredicatePool::new();
        pool.add(cmp(CmpOp::Gt, x, 0)); // x > 0
        pool.add(cmp(CmpOp::Ge, x, 0)); // x >= 0
        let mut vals = pool.top();
        vals[1] = 1; // x >= 0
        let op = &p.cfa(p.main()).edges()[0].op; // x := x + 1
        let out = pool.post_op(&an, &vals, op);
        assert_eq!(out[0], 1, "x >= 0 implies x + 1 > 0");
        assert_eq!(out[1], 1, "x >= 0 implies x + 1 >= 0");
    }

    /// Predicates are only appended and the query caches survive `add`:
    /// a grown pool answers for the old predicates exactly as before,
    /// and exactly as a pool that never cached anything.
    #[test]
    fn growing_the_pool_keeps_earlier_answers() {
        let p = prog("global x, y; fn main() { assume(x > 5); x = x + 1; y = x; }");
        let x = p.vars().lookup("x").unwrap();
        let y = p.vars().lookup("y").unwrap();
        let an = Analyses::build(&p);
        let edges = p.cfa(p.main()).edges();
        let Op::Assume(cond) = &edges[0].op else {
            panic!()
        };
        let answers = |pool: &mut PredicatePool, vals: &Valuation| {
            (
                pool.post_assume(edge(&p, 0), vals, cond),
                [&edges[1].op, &edges[2].op].map(|op| pool.post_op(&an, vals, op)),
            )
        };
        let (old, new) = (cmp(CmpOp::Gt, x, 0), cmp(CmpOp::Gt, y, 3));
        let mut pool = PredicatePool::new();
        pool.add(old.clone());
        let before = [-1i8, 0, 1].map(|v| answers(&mut pool, &vec![v]));
        assert_eq!(before[0].0, None, "x > 5 contradicts !(x > 0)");
        assert_eq!(before[1].0, Some(vec![1]), "x > 5 implies x > 0");

        assert!(pool.add(new.clone()));
        let mut cold = PredicatePool::new();
        cold.add(old);
        cold.add(new);
        for (v, (assume, posts)) in [-1i8, 0, 1].into_iter().zip(before) {
            let grown = answers(&mut pool, &vec![v, 0]);
            assert_eq!(grown, answers(&mut cold, &vec![v, 0]), "valuation [{v}, 0]");
            assert_eq!(grown.0.map(|r| r[0]), assume.map(|r| r[0]));
            for (g, b) in grown.1.iter().zip(&posts) {
                assert_eq!(g[0], b[0], "old predicate's post after growth");
            }
        }
    }

    #[test]
    fn pool_rejects_duplicates_and_unexpressible() {
        let p = prog("global x, y; fn main() { assume(x * y > 0); }");
        let x = p.vars().lookup("x").unwrap();
        let mut pool = PredicatePool::new();
        assert!(pool.add(cmp(CmpOp::Gt, x, 0)));
        assert!(!pool.add(cmp(CmpOp::Gt, x, 0)), "duplicate");
        let Op::Assume(nl) = &p.cfa(p.main()).edges()[0].op else {
            panic!()
        };
        assert!(!pool.add(nl.clone()), "non-linear predicate rejected");
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn scoped_predicates_mask_outside_their_function() {
        let p = prog("global g; fn f() { local t; t = g; } fn main() { f(); }");
        let f = p.func_id("f").unwrap();
        let main = p.main();
        let g = p.vars().lookup("g").unwrap();
        let t = p.vars().lookup("f::t").unwrap();
        let mut pool = PredicatePool::new();
        // g > 0 is global-scoped; t > 0 mentions f's local.
        assert!(pool.add_scoped(&p, cmp(CmpOp::Gt, g, 0)));
        assert!(pool.add_scoped(&p, cmp(CmpOp::Gt, t, 0)));
        assert_eq!(pool.scope(0), None);
        assert_eq!(pool.scope(1), Some(f));
        let mut vals = vec![1i8, 1];
        pool.mask_for(&mut vals, main);
        assert_eq!(vals, vec![1, 0], "t's fact forgotten outside f");
        let mut vals2 = vec![1i8, 1];
        pool.mask_for(&mut vals2, f);
        assert_eq!(vals2, vec![1, 1], "kept inside f");
    }

    #[test]
    fn atoms_of_decomposes_conditions() {
        let p = prog("global x, y; fn main() { assume(x > 0 && !(y == 2)); }");
        let Op::Assume(c) = &p.cfa(p.main()).edges()[0].op else {
            panic!()
        };
        let mut atoms = Vec::new();
        atoms_of(c, &mut atoms);
        assert_eq!(atoms.len(), 2);
    }

    mod soundness {
        use super::*;
        use proptest::prelude::*;
        use semantics::State;

        const MENU: &str = "global x, y; fn main() { \
            x = x + 1; x = 0; x = y; y = x * 2; y = y - 3; x = nondet(); \
            x = x + y; y = 7; }";

        fn op_menu(p: &Program) -> Vec<Op> {
            p.cfa(p.main())
                .edges()
                .iter()
                .map(|e| e.op.clone())
                .collect()
        }

        fn pred_menu(p: &Program) -> Vec<CBool> {
            let x = p.vars().lookup("x").unwrap();
            let y = p.vars().lookup("y").unwrap();
            let xv = CExpr::Lval(CLval::Var(x));
            let yv = CExpr::Lval(CLval::Var(y));
            vec![
                CBool::Cmp(CmpOp::Gt, xv.clone(), CExpr::Int(0)),
                CBool::Cmp(CmpOp::Eq, xv.clone(), CExpr::Int(0)),
                CBool::Cmp(CmpOp::Le, yv.clone(), CExpr::Int(3)),
                CBool::Cmp(CmpOp::Eq, xv.clone(), yv.clone()),
                CBool::Cmp(
                    CmpOp::Lt,
                    xv,
                    CExpr::Bin(imp::ast::BinOp::Add, Box::new(yv), Box::new(CExpr::Int(2))),
                ),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Concrete-abstract simulation: start from the *exact*
            /// abstraction of a concrete state; after any operation, the
            /// abstract post's known values must agree with the concrete
            /// successor (over-approximation soundness of post_op).
            #[test]
            fn post_op_simulates_concrete_steps(
                xv in -4i64..=4,
                yv in -4i64..=4,
                op_idx in 0usize..8,
                havoc in -4i64..=4,
            ) {
                let p = prog(MENU);
                let an = Analyses::build(&p);
                let ops = op_menu(&p);
                let Some(op) = ops.get(op_idx) else { return Ok(()) };
                if matches!(op, Op::Return) { return Ok(()); }
                let preds = pred_menu(&p);
                let mut pool = PredicatePool::new();
                for q in &preds {
                    pool.add(q.clone());
                }
                let mut s = State::zeroed(&p);
                s.set(p.vars().lookup("x").unwrap(), xv);
                s.set(p.vars().lookup("y").unwrap(), yv);
                let vals: Valuation = preds
                    .iter()
                    .map(|q| if s.eval_bool(q).unwrap() { 1i8 } else { -1 })
                    .collect();
                let mut s2 = s.clone();
                s2.step(op, || havoc).unwrap();
                let out = pool.post_op(&an, &vals, op);
                for (i, q) in preds.iter().enumerate() {
                    let truth = s2.eval_bool(q).unwrap();
                    match out[i] {
                        1 => prop_assert!(truth, "pred {} wrongly true after {:?}", i, op),
                        -1 => prop_assert!(!truth, "pred {} wrongly false after {:?}", i, op),
                        _ => {}
                    }
                }
            }

            /// post_assume never prunes a concretely-passing branch.
            #[test]
            fn post_assume_simulates_concrete_branches(
                xv in -4i64..=4,
                yv in -4i64..=4,
                cond_idx in 0usize..5,
            ) {
                let p = prog(MENU);
                let preds = pred_menu(&p);
                let cond = preds[cond_idx].clone();
                let mut pool = PredicatePool::new();
                for q in &preds {
                    pool.add(q.clone());
                }
                let mut s = State::zeroed(&p);
                s.set(p.vars().lookup("x").unwrap(), xv);
                s.set(p.vars().lookup("y").unwrap(), yv);
                if !s.eval_bool(&cond).unwrap() {
                    return Ok(());
                }
                let vals: Valuation = preds
                    .iter()
                    .map(|q| if s.eval_bool(q).unwrap() { 1i8 } else { -1 })
                    .collect();
                let out = pool.post_assume(edge(&p, cond_idx as u32), &vals, &cond);
                prop_assert!(out.is_some(), "pruned a concretely-feasible branch");
            }
        }
    }
}
