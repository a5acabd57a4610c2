//! Abstract reachability: breadth-first exploration of
//! `(location, call stack, predicate valuation)` states.
//!
//! BFS (rather than BLAST's depth-first context-free reachability) finds
//! *shortest* abstract counterexamples — the improvement the paper's §5
//! "Limitations" says the authors were investigating; building fresh, we
//! simply adopt it.
//!
//! States are interned: valuations are hash-consed by the
//! [`PredicatePool`], call stacks by a per-run `Stacks` table, and
//! locations are numbered densely program-wide, so a state is a 12-byte
//! `Copy` triple of ids and one `StateTable` holds both the parent
//! links and the dedup index.

use crate::abst::{PredicatePool, ValId, TOP};
use crate::idhash::{IdMap, IdSet};
use cfa::{EdgeId, Loc, Op, Path, Program};
use dataflow::Analyses;
use rt::Budget;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Exploration order for abstract reachability.
///
/// BLAST's context-free reachability was depth-first, which the paper's
/// §5 "Limitations" blames for very long counterexamples; breadth-first
/// finds shortest ones. We support both: BFS is the default, DFS is used
/// by the figure harnesses to reproduce paper-scale trace lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchOrder {
    /// Breadth-first: shortest abstract counterexamples.
    #[default]
    Bfs,
    /// Depth-first: BLAST-style long counterexamples.
    Dfs,
}

/// One abstract state, as ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AbsState {
    /// Program-wide location number ([`LocIndex`]).
    loc: u32,
    /// Call stack id ([`Stacks`]).
    stack: u32,
    vals: ValId,
}

/// Dense program-wide location numbers: function `f`'s location `idx`
/// is `base[f] + idx`.
struct LocIndex {
    base: Vec<u32>,
}

impl LocIndex {
    fn new(program: &Program) -> Self {
        let mut next = 0u32;
        let base = program
            .cfas()
            .iter()
            .map(|c| {
                let b = next;
                next += c.n_locs() as u32;
                b
            })
            .collect();
        LocIndex { base }
    }

    fn id(&self, loc: Loc) -> u32 {
        self.base[loc.func.index()] + loc.idx
    }

    fn loc(&self, id: u32) -> Loc {
        // The last function whose base is ≤ id (empty CFAs share a base
        // with their successor, so take the last match).
        let f = self.base.partition_point(|&b| b <= id) - 1;
        Loc {
            func: cfa::FuncId(f as u32),
            idx: id - self.base[f],
        }
    }
}

/// Hash-consed call stacks: id 0 is the empty stack, and id `s > 0`
/// is `frames[s - 1] = (rest, continuation)`, the continuation pushed
/// onto stack `rest`.
#[derive(Default)]
struct Stacks {
    frames: Vec<(u32, Loc)>,
    ids: IdMap<(u32, Loc), u32>,
}

impl Stacks {
    fn push(&mut self, rest: u32, k: Loc) -> u32 {
        let next = self.frames.len() as u32 + 1;
        let id = *self.ids.entry((rest, k)).or_insert(next);
        if id == next {
            self.frames.push((rest, k));
        }
        id
    }

    /// The stack below the top of stack `s` and the continuation on
    /// top, or `None` for the empty stack.
    fn pop(&self, s: u32) -> Option<(u32, Loc)> {
        s.checked_sub(1).map(|i| self.frames[i as usize])
    }
}

/// Every explored state once, in discovery order, with the edge it was
/// discovered through: the parent tree for counterexample
/// reconstruction and the dedup index in one.
struct StateTable {
    nodes: Vec<(AbsState, Option<(u32, EdgeId)>)>,
    seen: IdSet<AbsState>,
}

impl StateTable {
    fn new(root: AbsState) -> Self {
        let mut seen = IdSet::default();
        seen.insert(root);
        StateTable {
            nodes: vec![(root, None)],
            seen,
        }
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Records `s`, reached from node `parent` over `edge`, and returns
    /// its node index, or `None` if `s` was seen before.
    fn insert(&mut self, s: AbsState, parent: u32, edge: EdgeId) -> Option<u32> {
        if !self.seen.insert(s) {
            return None;
        }
        self.nodes.push((s, Some((parent, edge))));
        Some(self.nodes.len() as u32 - 1)
    }

    /// The edges from the root to node `ni`.
    fn path(&self, program: &Program, mut ni: u32) -> Path {
        let mut edges = Vec::new();
        while let Some((parent, eid)) = self.nodes[ni as usize].1 {
            edges.push(eid);
            ni = parent;
        }
        edges.reverse();
        Path::new_unchecked(program, edges)
    }
}

/// The result of one abstract reachability run.
#[derive(Debug)]
pub enum ReachResult {
    /// No error location is abstractly reachable: the program is safe.
    Safe {
        /// Abstract states explored.
        explored: usize,
    },
    /// An abstract path to an error location.
    ErrorPath {
        /// The counterexample.
        path: Path,
        /// Abstract states explored before finding it.
        explored: usize,
    },
    /// The state or time budget was exhausted.
    BudgetExceeded {
        /// Abstract states explored before giving up.
        explored: usize,
    },
}

impl ReachResult {
    /// Abstract states explored by this run.
    pub fn explored(&self) -> usize {
        match self {
            ReachResult::Safe { explored }
            | ReachResult::ErrorPath { explored, .. }
            | ReachResult::BudgetExceeded { explored } => *explored,
        }
    }
}

/// Runs abstract reachability from `main`'s entry toward `targets`.
///
/// `budget` and `max_states` bound the exploration; the budget's
/// cancellation token (if any) is polled between expansions.
pub fn reachable(
    program: &Program,
    analyses: &Analyses<'_>,
    pool: &mut PredicatePool,
    targets: &[Loc],
    max_states: usize,
    budget: &Budget,
    order: SearchOrder,
) -> ReachResult {
    reachable_with(
        program, analyses, pool, targets, max_states, budget, order, false,
    )
}

/// [`reachable`] with predicate scoping: when `scoped` is set,
/// function-local predicates are forgotten outside their function
/// (lazy-abstraction-style locality; sound, smaller state space).
#[allow(clippy::too_many_arguments)]
pub fn reachable_with(
    program: &Program,
    analyses: &Analyses<'_>,
    pool: &mut PredicatePool,
    targets: &[Loc],
    max_states: usize,
    budget: &Budget,
    order: SearchOrder,
    scoped: bool,
) -> ReachResult {
    let locs = LocIndex::new(program);
    let targets: Vec<u32> = targets.iter().map(|&t| locs.id(t)).collect();
    let mut stacks = Stacks::default();
    let mut table = StateTable::new(AbsState {
        loc: locs.id(program.cfa(program.main()).entry()),
        stack: 0,
        vals: TOP,
    });
    let mut queue: VecDeque<u32> = VecDeque::from([0]);
    // Abstract posts depend only on (edge, valuation) — never on the
    // call stack — so a helper reached from several call sites posts
    // each valuation once. Without shared callees every (edge,
    // valuation) pair is met once and the cache only misses.
    let mut post_cache: IdMap<(EdgeId, ValId), Option<ValId>> = IdMap::default();
    let (mut hits, mut misses) = (0u64, 0u64);

    let result = loop {
        let Some(ni) = (match order {
            SearchOrder::Bfs => queue.pop_front(),
            SearchOrder::Dfs => queue.pop_back(),
        }) else {
            break ReachResult::Safe {
                explored: table.len(),
            };
        };
        if table.len() > max_states || budget.poll().is_err() {
            break ReachResult::BudgetExceeded {
                explored: table.len(),
            };
        }
        let state = table.nodes[ni as usize].0;
        if targets.contains(&state.loc) {
            break ReachResult::ErrorPath {
                path: table.path(program, ni),
                explored: table.len(),
            };
        }
        let loc = locs.loc(state.loc);
        let cfa = program.cfa(loc.func);
        for &ei in cfa.succ_edges(loc) {
            let edge = cfa.edge(ei);
            let eid = EdgeId {
                func: loc.func,
                idx: ei,
            };
            let succ: Option<(Loc, u32, ValId)> = match &edge.op {
                Op::Call(f) => Some((
                    program.cfa(*f).entry(),
                    stacks.push(state.stack, edge.dst),
                    state.vals,
                )),
                Op::Return => stacks
                    .pop(state.stack)
                    .map(|(rest, k)| (k, rest, state.vals)),
                op => {
                    let vals = match post_cache.entry((eid, state.vals)) {
                        Entry::Occupied(e) => {
                            hits += 1;
                            *e.get()
                        }
                        Entry::Vacant(e) => {
                            misses += 1;
                            *e.insert(match op {
                                Op::Assume(p) => pool.post_assume_id(eid, state.vals, p),
                                op => Some(pool.post_op_id(analyses, state.vals, op)),
                            })
                        }
                    };
                    vals.map(|vals| (edge.dst, state.stack, vals))
                }
            };
            if let Some((dst, stack, mut vals)) = succ {
                if scoped {
                    vals = pool.mask_id(vals, dst.func);
                }
                let s = AbsState {
                    loc: locs.id(dst),
                    stack,
                    vals,
                };
                if let Some(i) = table.insert(s, ni, eid) {
                    queue.push_back(i);
                }
            }
        }
    };
    obs::counter!("reach.states").add(table.len() as u64);
    obs::counter!("reach.post_cache_hits").add(hits);
    obs::counter!("reach.post_cache_misses").add(misses);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn setup(src: &str) -> (Program, ()) {
        (cfa::lower(&imp::parse(src).unwrap()).unwrap(), ())
    }

    fn reach_with_empty_pool(src: &str) -> (Program, ReachResult) {
        let (p, _) = setup(src);
        let an = Analyses::build(&p);
        let mut pool = PredicatePool::new();
        let targets: Vec<Loc> = p
            .cfas()
            .iter()
            .flat_map(|c| c.error_locs().iter().copied())
            .collect();
        let r = reachable(
            &p,
            &an,
            &mut pool,
            &targets,
            100_000,
            &Budget::lasting(Duration::from_secs(30)),
            SearchOrder::Bfs,
        );
        (p, r)
    }

    #[test]
    fn structurally_unreachable_error_is_safe() {
        // No error location at all.
        let (_, r) = reach_with_empty_pool("global x; fn main() { x = 1; }");
        assert!(matches!(r, ReachResult::Safe { .. }));
    }

    #[test]
    fn reachable_error_yields_valid_path() {
        let (p, r) = reach_with_empty_pool("global a; fn main() { if (a > 0) { error(); } }");
        let ReachResult::ErrorPath { path, .. } = r else {
            panic!("expected path")
        };
        Path::new(&p, path.edges().to_vec()).unwrap();
        let target = path.target(&p).unwrap();
        assert!(p.cfa(p.main()).error_locs().contains(&target));
    }

    #[test]
    fn interprocedural_error_path_balances_calls() {
        let (p, r) = reach_with_empty_pool(
            "global a; fn f() { if (a > 0) { error(); } } fn main() { f(); f(); }",
        );
        let ReachResult::ErrorPath { path, .. } = r else {
            panic!("expected path")
        };
        Path::new(&p, path.edges().to_vec()).unwrap();
        // BFS finds the error through the FIRST call.
        let calls = path
            .edges()
            .iter()
            .filter(|e| matches!(p.edge(**e).op, Op::Call(_)))
            .count();
        assert_eq!(calls, 1);
    }

    #[test]
    fn predicates_prune_infeasible_branches() {
        let src = "global x; fn main() { x = 1; if (x == 2) { error(); } }";
        let (p, _) = setup(src);
        let an = Analyses::build(&p);
        let x = p.vars().lookup("x").unwrap();
        let mut pool = PredicatePool::new();
        // With the predicate x == 2 the abstraction refutes the branch.
        pool.add(CBool::Cmp(
            imp::ast::CmpOp::Eq,
            cfa::CExpr::var(x),
            cfa::CExpr::Int(2),
        ));
        let targets = p.cfa(p.main()).error_locs().to_vec();
        let r = reachable(
            &p,
            &an,
            &mut pool,
            &targets,
            100_000,
            &Budget::lasting(Duration::from_secs(30)),
            SearchOrder::Bfs,
        );
        assert!(
            matches!(r, ReachResult::Safe { .. }),
            "x==2 predicate proves safety"
        );
    }

    #[test]
    fn without_predicates_the_same_program_has_an_abstract_path() {
        let (_, r) =
            reach_with_empty_pool("global x; fn main() { x = 1; if (x == 2) { error(); } }");
        assert!(
            matches!(r, ReachResult::ErrorPath { .. }),
            "empty abstraction is coarse"
        );
    }

    #[test]
    fn budget_exhaustion_reports() {
        let (p, _) = setup(
            "global a; fn main() { local i; while (i < a) { i = i + 1; } if (a < 0) { error(); } }",
        );
        let an = Analyses::build(&p);
        let mut pool = PredicatePool::new();
        let targets = p.cfa(p.main()).error_locs().to_vec();
        let r = reachable(
            &p,
            &an,
            &mut pool,
            &targets,
            2,
            &Budget::lasting(Duration::from_secs(30)),
            SearchOrder::Bfs,
        );
        assert!(matches!(r, ReachResult::BudgetExceeded { .. }));
    }

    /// A helper with three call sites: every call context is a distinct
    /// stack, so the post cache hits and stack interning is exercised.
    const SHARED_HELPER: &str = "global g, a; \
        fn helper() { local w; w = g; if (w > 0) { a = a + 1; } else { a = a - 1; } } \
        fn main() { local t; g = t; helper(); helper(); helper(); \
            if (a > 2) { if (g > 0) { error(); } } }";

    /// Explored-state count and counterexample edges of one run over
    /// `SHARED_HELPER`, with a global and a helper-local predicate.
    fn shared_helper_run(order: SearchOrder, scoped: bool) -> (usize, Vec<(u32, u32)>) {
        let (p, _) = setup(SHARED_HELPER);
        let an = Analyses::build(&p);
        let g = p.vars().lookup("g").unwrap();
        let w = p.vars().lookup("helper::w").unwrap();
        let mut pool = PredicatePool::new();
        for (v, k) in [(g, 0), (w, 0)] {
            pool.add_scoped(
                &p,
                CBool::Cmp(imp::ast::CmpOp::Gt, cfa::CExpr::var(v), cfa::CExpr::Int(k)),
            );
        }
        let targets = p.cfa(p.main()).error_locs().to_vec();
        let r = reachable_with(
            &p,
            &an,
            &mut pool,
            &targets,
            100_000,
            &Budget::lasting(Duration::from_secs(30)),
            order,
            scoped,
        );
        let explored = r.explored();
        let ReachResult::ErrorPath { path, .. } = r else {
            panic!("expected an error path, got {r:?}")
        };
        Path::new(&p, path.edges().to_vec()).unwrap();
        let edges = path.edges().iter().map(|e| (e.func.0, e.idx)).collect();
        (explored, edges)
    }

    /// Pinned values: how states are stored must not change which
    /// states are explored, in what order, or the path returned.
    #[test]
    fn shared_helper_exploration_is_pinned() {
        // helper is function 0 (edges: w = g, the two branches, the two
        // updates of a, return); main is function 1.
        let through = |branch: [u32; 2]| {
            let mut edges = vec![(1, 0), (1, 1)];
            for call in [2, 3, 4] {
                edges.extend([(0, 0), (0, branch[0]), (0, branch[1]), (0, 5)]);
                if call < 4 {
                    edges.push((1, call));
                }
            }
            edges.extend([(1, 4), (1, 6)]);
            edges
        };
        assert_eq!(
            shared_helper_run(SearchOrder::Bfs, false),
            (36, through([1, 3]))
        );
        assert_eq!(
            shared_helper_run(SearchOrder::Dfs, false),
            (24, through([2, 4]))
        );
        assert_eq!(
            shared_helper_run(SearchOrder::Bfs, true),
            (27, through([1, 3]))
        );
    }

    use cfa::CBool;
}
