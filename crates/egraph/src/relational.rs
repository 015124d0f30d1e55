//! Generic-join relational e-matching.
//!
//! Every pattern LHS is a conjunctive query over per-operator
//! relations: one relation per `(operator, arity)` pair holding the
//! canonical `(class, child…)` tuples of every live e-node, derived
//! from the rebuilt class list and cached across searches keyed on
//! the e-graph's mutation [`version`](crate::EGraph::version) (so a
//! merge invalidates the store, and the staleness proptest in
//! `crate::differential` can prove it). All rules share the same
//! relations, which is where this backend wins over the shared trie:
//! the trie amortizes only common instruction *prefixes*, while the
//! relations amortize every overlapping subterm shape regardless of
//! where it sits in the pattern ("Better Together: Unifying Datalog
//! and Equality Saturation").
//!
//! Each query is answered with a worst-case-optimal **generic join**:
//! variables are eliminated one at a time, each chosen greedily by
//! the smallest live candidate set among the atoms that mention it (a
//! cardinality estimate read off the live relation restrictions), and
//! candidate values are intersected across all mentioning atoms via
//! the per-column hash indexes.
//!
//! # Byte-exactness
//!
//! The per-pattern VM truncates deterministically (per-class work
//! budget [`MATCH_WORK_BUDGET`](crate::MATCH_WORK_BUDGET), per-class
//! substitution cap, match-limit masking at class boundaries). A
//! relational enumeration cannot reproduce those truncation points,
//! so the join is used as a **complete existence pre-filter**: for
//! each candidate root class it decides *whether* the pattern matches
//! there at all, and only witness classes are handed to the exact
//! same per-class VM ([`Pattern::run_vm_on_class`]) with a fresh
//! budget. Classes without a witness provably contribute nothing to
//! the VM driver's output or its running match total (the VM emits no
//! substitution where none exists, budget or not), so skipping them
//! preserves the per-pattern output — including truncation — byte
//! for byte.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::backend::{search_rules_slots, BackendSearch, SearchBackend};
use crate::hash::{FxHashMap, FxHashSet};
use crate::machine::{extract_ground_term, ground_map, past, RuleDirective, RunOutcome};
use crate::pattern::ENodeOrVar;
use crate::{Analysis, CancelToken, EGraph, Id, Language, Pattern, RecExpr, SearchMatches, Var};

/// One per-`(operator, arity)` relation: row-major canonical tuples
/// with column 0 the owning class and columns `1..` the children,
/// plus a per-column hash index from value to ascending row ids.
struct Relation {
    width: usize,
    tuples: Vec<Id>,
    index: Vec<FxHashMap<Id, Vec<u32>>>,
}

impl Relation {
    fn n_rows(&self) -> usize {
        self.tuples.len() / self.width
    }

    fn row(&self, r: u32) -> &[Id] {
        &self.tuples[r as usize * self.width..][..self.width]
    }

    fn rows_with(&self, col: usize, value: Id) -> &[u32] {
        self.index[col].get(&value).map_or(&[], |v| v.as_slice())
    }
}

/// All relations for one e-graph state, keyed by `(operator, arity)`.
/// `Language::matches` is exactly discriminant + arity equality, so
/// this key partitions e-nodes the same way the VM's `Bind` does.
struct RelationStore<L: Language> {
    rels: FxHashMap<(L::Discriminant, usize), Relation>,
}

impl<L: Language> RelationStore<L> {
    fn build<N: Analysis<L>>(egraph: &EGraph<L, N>) -> Self {
        let mut rels: FxHashMap<(L::Discriminant, usize), Relation> = FxHashMap::default();
        // Classes iterate in ascending id order and hold canonical
        // nodes after a rebuild, so tuple order is deterministic.
        for class in egraph.classes() {
            for node in class.iter() {
                let arity = node.children().len();
                let rel = rels
                    .entry((node.discriminant(), arity))
                    .or_insert_with(|| Relation {
                        width: arity + 1,
                        tuples: Vec::new(),
                        index: Vec::new(),
                    });
                rel.tuples.push(class.id);
                rel.tuples.extend_from_slice(node.children());
            }
        }
        for rel in rels.values_mut() {
            rel.index = (0..rel.width)
                .map(|col| {
                    let mut index: FxHashMap<Id, Vec<u32>> = FxHashMap::default();
                    for r in 0..rel.n_rows() {
                        index
                            .entry(rel.tuples[r * rel.width + col])
                            .or_default()
                            .push(r as u32);
                    }
                    index
                })
                .collect();
        }
        RelationStore { rels }
    }
}

/// A conjunctive-query term: a join variable or an index into the
/// plan's ground-subterm table (resolved to a class id per search).
#[derive(Clone, Copy, PartialEq, Eq)]
enum CqTerm {
    Var(u32),
    Ground(u32),
}

/// One atom `R_(op,arity)(args…)`: args[0] is the owning class.
struct Atom<D> {
    disc: D,
    arity: usize,
    args: Vec<CqTerm>,
}

/// The compiled join plan for one non-trivial pattern. Variable 0 is
/// always the root class (bound by the candidate driver before the
/// join runs).
struct CqPlan<L: Language> {
    n_vars: usize,
    atoms: Vec<Atom<L::Discriminant>>,
    grounds: Vec<RecExpr<L>>,
    root_disc: L::Discriminant,
}

/// How the relational backend drives one rule.
enum RulePlan<L: Language> {
    /// Bare-variable pattern: every class matches once; no join.
    Scan,
    /// Fully ground pattern: at most one class matches (hash lookup).
    Ground(RecExpr<L>),
    /// The general case: existence join + per-class VM confirm.
    Cq(CqPlan<L>),
}

fn compile_plan<L: Language>(pattern: &Pattern<L>) -> RulePlan<L> {
    let ast = &pattern.ast;
    let root = ast.root();
    let ENodeOrVar::ENode(root_node) = &ast[root] else {
        return RulePlan::Scan;
    };
    let ground = ground_map(ast);
    if ground[root.index()] {
        return RulePlan::Ground(extract_ground_term(ast, root));
    }
    let mut plan = CqPlan {
        n_vars: 1,
        atoms: Vec::new(),
        grounds: Vec::new(),
        root_disc: root_node.discriminant(),
    };
    let mut var_of: FxHashMap<Var, u32> = FxHashMap::default();
    compile_node(ast, &ground, root, 0, &mut plan, &mut var_of);
    RulePlan::Cq(plan)
}

/// Emits the atom for a pattern e-node whose class is `own_var`,
/// recursing into non-ground child e-nodes (each of which gets a
/// fresh join variable for its class).
fn compile_node<L: Language>(
    ast: &RecExpr<ENodeOrVar<L>>,
    ground: &[bool],
    pat: Id,
    own_var: u32,
    plan: &mut CqPlan<L>,
    var_of: &mut FxHashMap<Var, u32>,
) {
    let ENodeOrVar::ENode(node) = &ast[pat] else {
        unreachable!("compile_node is only called on e-node pattern nodes");
    };
    let mut args = Vec::with_capacity(node.children().len() + 1);
    args.push(CqTerm::Var(own_var));
    for &child in node.children() {
        let term = match &ast[child] {
            ENodeOrVar::Var(v) => CqTerm::Var(*var_of.entry(*v).or_insert_with(|| {
                plan.n_vars += 1;
                (plan.n_vars - 1) as u32
            })),
            ENodeOrVar::ENode(_) if ground[child.index()] => {
                plan.grounds.push(extract_ground_term(ast, child));
                CqTerm::Ground((plan.grounds.len() - 1) as u32)
            }
            ENodeOrVar::ENode(_) => {
                let fresh = plan.n_vars as u32;
                plan.n_vars += 1;
                compile_node(ast, ground, child, fresh, plan, var_of);
                CqTerm::Var(fresh)
            }
        };
        args.push(term);
    }
    plan.atoms.push(Atom {
        disc: node.discriminant(),
        arity: node.children().len(),
        args,
    });
}

/// A live row set for one atom: either every row of its relation or
/// an explicit ascending row-id list. Keeping "all rows" symbolic
/// avoids materializing full relations for atoms that have not yet
/// been restricted.
#[derive(Clone)]
enum Live {
    Full,
    Rows(Vec<u32>),
}

impl Live {
    fn len(&self, rel: &Relation) -> usize {
        match self {
            Live::Full => rel.n_rows(),
            Live::Rows(rows) => rows.len(),
        }
    }

    fn is_empty(&self, rel: &Relation) -> bool {
        self.len(rel) == 0
    }

    /// Restricts to rows whose `col` equals `value` (both operands
    /// ascending, so a merge intersection suffices).
    fn restrict(&self, rel: &Relation, col: usize, value: Id) -> Live {
        let hits = rel.rows_with(col, value);
        match self {
            Live::Full => Live::Rows(hits.to_vec()),
            Live::Rows(rows) => Live::Rows(intersect_sorted(rows, hits)),
        }
    }
}

fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Generic-join e-matching behind the [`SearchBackend`] interface.
pub struct RelationalBackend<'a, L: Language> {
    patterns: Vec<&'a Pattern<L>>,
    plans: Vec<RulePlan<L>>,
    /// Tuple store for the last-seen e-graph state, keyed by its
    /// mutation version; any mutation (notably merges) invalidates it.
    store: Option<(u64, RelationStore<L>)>,
}

impl<'a, L: Language> RelationalBackend<'a, L> {
    /// Compiles every pattern into its conjunctive-query plan.
    pub fn new(patterns: Vec<&'a Pattern<L>>) -> Self {
        let plans = patterns.iter().map(|p| compile_plan(p)).collect();
        RelationalBackend {
            patterns,
            plans,
            store: None,
        }
    }
}

impl<L, N> SearchBackend<L, N> for RelationalBackend<'_, L>
where
    L: Language + Sync,
    L::Discriminant: Sync,
    N: Analysis<L> + Sync,
    N::Data: Sync,
{
    fn search(
        &mut self,
        egraph: &EGraph<L, N>,
        directives: &[RuleDirective],
        cancel: &CancelToken,
        deadline: Option<Instant>,
        threads: usize,
    ) -> BackendSearch {
        assert_eq!(directives.len(), self.patterns.len());
        let mut relation_build = Duration::ZERO;
        let any_active = directives.iter().any(|d| !matches!(d, RuleDirective::Skip));
        if any_active && !matches!(&self.store, Some((v, _)) if *v == egraph.version()) {
            let start = Instant::now();
            self.store = Some((egraph.version(), RelationStore::build(egraph)));
            relation_build = start.elapsed();
        }
        let store = self.store.as_ref().map(|(_, s)| s);
        let (patterns, plans) = (&self.patterns, &self.plans);
        let exhausted = AtomicUsize::new(0);
        let slots =
            search_rules_slots(
                patterns.len(),
                threads,
                cancel,
                deadline,
                |i| match directives[i] {
                    RuleDirective::Skip => Some((Vec::new(), Duration::ZERO)),
                    RuleDirective::Limit(limit) => search_rule(
                        patterns[i],
                        &plans[i],
                        store.expect("relations are built whenever a rule is active"),
                        egraph,
                        limit,
                        cancel,
                        deadline,
                        &exhausted,
                    ),
                },
            );
        BackendSearch {
            slots,
            relation_build,
            budget_exhausted: exhausted.into_inner(),
        }
    }
}

/// Searches one rule: join-driven candidate selection plus the exact
/// per-class VM confirm. Returns `None` (slot skipped) when a cancel
/// or the deadline trips mid-rule; counts confirm runs that hit the
/// work budget in `exhausted`.
#[allow(clippy::too_many_arguments)]
fn search_rule<L: Language, N: Analysis<L>>(
    pattern: &Pattern<L>,
    plan: &RulePlan<L>,
    store: &RelationStore<L>,
    egraph: &EGraph<L, N>,
    limit: usize,
    cancel: &CancelToken,
    deadline: Option<Instant>,
    exhausted: &AtomicUsize,
) -> Option<(Vec<SearchMatches>, Duration)> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut total = 0usize;
    let count = |outcome: RunOutcome| {
        if outcome == RunOutcome::BudgetExhausted {
            exhausted.fetch_add(1, Ordering::Relaxed);
        }
    };
    match plan {
        RulePlan::Scan => {
            // Same driver as the VM's Scan path: one subst per class,
            // boundary class kept whole.
            for class in egraph.classes() {
                if cancel.is_cancelled() || past(deadline) {
                    return None;
                }
                out.push(SearchMatches {
                    eclass: class.id,
                    substs: vec![pattern.program().subst_for_class(class.id)],
                });
                total += 1;
                if total > limit {
                    break;
                }
            }
        }
        RulePlan::Ground(expr) => {
            // At most one class can match; confirm through the VM so
            // the emitted (empty) substitution is identical.
            if let Some(id) = egraph.lookup_expr(expr) {
                let id = egraph.find(id);
                if let Some(ground) = pattern.program().resolve_ground_terms(egraph) {
                    let mut regs = Vec::new();
                    let (m, outcome) =
                        pattern.run_vm_on_class(egraph, id, &ground, &mut regs, cancel);
                    count(outcome);
                    if outcome == RunOutcome::Cancelled {
                        return None;
                    }
                    out.extend(m);
                }
            }
        }
        RulePlan::Cq(plan) => {
            // Resolve ground subterms once; a missing one means the
            // rule matches nowhere (same as the VM driver).
            let mut resolved = Vec::with_capacity(plan.grounds.len());
            for term in &plan.grounds {
                match egraph.lookup_expr(term) {
                    Some(id) => resolved.push(egraph.find(id)),
                    None => return Some((out, start.elapsed())),
                }
            }
            // Per-atom relations; a missing (op, arity) relation means
            // no e-node anywhere can satisfy that atom.
            let mut atom_rels: Vec<&Relation> = Vec::with_capacity(plan.atoms.len());
            for atom in &plan.atoms {
                match store.rels.get(&(atom.disc.clone(), atom.arity)) {
                    Some(rel) => atom_rels.push(rel),
                    None => return Some((out, start.elapsed())),
                }
            }
            // Base live sets: restrict each atom by its ground columns.
            let mut base: Vec<Live> = Vec::with_capacity(plan.atoms.len());
            for (atom, rel) in plan.atoms.iter().zip(&atom_rels) {
                let mut live = Live::Full;
                for (col, term) in atom.args.iter().enumerate() {
                    if let CqTerm::Ground(g) = term {
                        live = live.restrict(rel, col, resolved[*g as usize]);
                        if live.is_empty(rel) {
                            return Some((out, start.elapsed()));
                        }
                    }
                }
                base.push(live);
            }
            let vm_ground = match pattern.program().resolve_ground_terms(egraph) {
                Some(g) => g,
                None => return Some((out, start.elapsed())),
            };
            // Same candidate order as the per-pattern driver; the join
            // only *prunes* classes the VM would visit fruitlessly, so
            // output and the running match total stay byte-identical.
            let mut regs = Vec::new();
            let mut assign: Vec<Option<Id>> = vec![None; plan.n_vars];
            for &id in egraph.classes_with_op(&plan.root_disc) {
                if cancel.is_cancelled() || past(deadline) {
                    return None;
                }
                let id = egraph.find(id);
                if !root_has_witness(plan, &atom_rels, &base, &mut assign, id) {
                    continue;
                }
                let (m, outcome) =
                    pattern.run_vm_on_class(egraph, id, &vm_ground, &mut regs, cancel);
                count(outcome);
                if let Some(m) = m {
                    total += m.substs.len();
                    out.push(m);
                }
                if outcome == RunOutcome::Cancelled {
                    return None;
                }
                if total > limit {
                    break;
                }
            }
        }
    }
    Some((out, start.elapsed()))
}

/// Decides whether the query has at least one solution with variable
/// 0 bound to `root_class`.
fn root_has_witness<L: Language>(
    plan: &CqPlan<L>,
    rels: &[&Relation],
    base: &[Live],
    assign: &mut [Option<Id>],
    root_class: Id,
) -> bool {
    assign.fill(None);
    assign[0] = Some(root_class);
    let mut live: Vec<Live> = Vec::with_capacity(plan.atoms.len());
    for (a, atom) in plan.atoms.iter().enumerate() {
        let mut rows = base[a].clone();
        for (col, term) in atom.args.iter().enumerate() {
            if *term == CqTerm::Var(0) {
                rows = rows.restrict(rels[a], col, root_class);
                if rows.is_empty(rels[a]) {
                    return false;
                }
            }
        }
        live.push(rows);
    }
    join_exists(plan, rels, assign, &mut live)
}

/// One generic-join elimination step: picks the cheapest unassigned
/// variable (smallest live candidate source among the atoms that
/// mention it), then tries each candidate value, narrowing every
/// mentioning atom through its column indexes. Early-exits on the
/// first full assignment — only existence matters.
fn join_exists<L: Language>(
    plan: &CqPlan<L>,
    rels: &[&Relation],
    assign: &mut [Option<Id>],
    live: &mut [Live],
) -> bool {
    // Variable order by live-cardinality estimate, recomputed as
    // bindings narrow the relations.
    let mut best: Option<(u32, usize, usize)> = None;
    for (a, atom) in plan.atoms.iter().enumerate() {
        for term in &atom.args {
            if let CqTerm::Var(v) = term {
                if assign[*v as usize].is_none() {
                    let size = live[a].len(rels[a]);
                    if best.is_none_or(|(_, _, s)| size < s) {
                        best = Some((*v, a, size));
                    }
                }
            }
        }
    }
    let Some((var, a_star, _)) = best else {
        return true;
    };
    let cols: Vec<usize> = plan.atoms[a_star]
        .args
        .iter()
        .enumerate()
        .filter(|(_, t)| **t == CqTerm::Var(var))
        .map(|(c, _)| c)
        .collect();
    let candidate_rows: Vec<u32> = match &live[a_star] {
        Live::Full => (0..rels[a_star].n_rows() as u32).collect(),
        Live::Rows(rows) => rows.clone(),
    };
    let mut seen: FxHashSet<Id> = FxHashSet::default();
    for r in candidate_rows {
        let row = rels[a_star].row(r);
        let value = row[cols[0]];
        // A repeated variable within one atom must agree with itself.
        if cols[1..].iter().any(|&c| row[c] != value) {
            continue;
        }
        if !seen.insert(value) {
            continue;
        }
        // Narrow every atom mentioning `var` to rows consistent with
        // this binding, restoring the previous live sets afterwards.
        let mut saved: Vec<(usize, Live)> = Vec::new();
        let mut dead = false;
        for (a, atom) in plan.atoms.iter().enumerate() {
            let mut narrowed: Option<Live> = None;
            for (col, term) in atom.args.iter().enumerate() {
                if *term == CqTerm::Var(var) {
                    let cur = narrowed.as_ref().unwrap_or(&live[a]);
                    let next = cur.restrict(rels[a], col, value);
                    dead = next.is_empty(rels[a]);
                    narrowed = Some(next);
                    if dead {
                        break;
                    }
                }
            }
            if let Some(narrowed) = narrowed {
                saved.push((a, std::mem::replace(&mut live[a], narrowed)));
            }
            if dead {
                break;
            }
        }
        let found = if dead {
            false
        } else {
            assign[var as usize] = Some(value);
            let found = join_exists(plan, rels, assign, live);
            assign[var as usize] = None;
            found
        };
        for (a, old) in saved {
            live[a] = old;
        }
        if found {
            return true;
        }
    }
    false
}
