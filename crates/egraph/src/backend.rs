//! Pluggable search backends: one abstraction over every e-matching
//! strategy the engine knows.
//!
//! A [`SearchBackend`] takes an immutable (clean) e-graph, the
//! per-rule [`RuleDirective`] envelope a scheduler produced, a
//! [`CancelToken`], an optional deadline, and a thread budget, and
//! returns per-rule match sets **in rule-index order** with per-rule
//! timings — exactly the slot shape the [`Runner`](crate::Runner)'s
//! serial merge phase consumes. Four strategies implement it:
//!
//! * [`SearchBackendKind::PerPatternVm`] — one compiled VM
//!   [`Program`](crate::machine::Program) per rule, fanned out over a
//!   work-stealing thread pool (the pre-trie default, kept as the
//!   differential baseline).
//! * [`SearchBackendKind::SharedTrie`] — the whole ruleset compiled
//!   into one [`RuleSetProgram`] trie over canonicalized instruction
//!   prefixes, executed once per root-op bucket.
//! * [`SearchBackendKind::Relational`] — generic-join relational
//!   e-matching (the crate-private `relational` module): per-operator
//!   relations
//!   shared by all rules, each pattern solved as a conjunctive query.
//! * `SearchBackendKind::Oracle` — the legacy recursive matcher
//!   (tests and the `oracle` feature only), driven with the same
//!   limit/class-order discipline.
//!
//! All backends are **match-set-equal**: on an uncancelled search they
//! produce byte-identical slots (proven by `crate::differential` and
//! the full-ruleset suite in the `boole` crate), so the choice is a
//! pure performance knob and is excluded from result-cache
//! fingerprints.

use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::machine::{past, RuleDirective, RuleSetProgram};
use crate::relational::RelationalBackend;
use crate::{Analysis, CancelToken, EGraph, Language, Pattern, SearchMatches};

/// Which strategy executes the per-iteration rule search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchBackendKind {
    /// One compiled VM program per rule (work-stealing fan-out).
    PerPatternVm,
    /// Shared-prefix multi-pattern trie (the default).
    #[default]
    SharedTrie,
    /// Generic-join relational e-matching over per-operator relations.
    Relational,
    /// The legacy recursive matcher, retained purely as a
    /// differential-testing oracle (requires the `oracle` feature).
    #[cfg(any(test, feature = "oracle"))]
    Oracle,
}

impl SearchBackendKind {
    /// Stable lowercase name (CLI flag values, benchmark JSON).
    pub fn name(self) -> &'static str {
        match self {
            SearchBackendKind::PerPatternVm => "per-pattern",
            SearchBackendKind::SharedTrie => "shared-trie",
            SearchBackendKind::Relational => "relational",
            #[cfg(any(test, feature = "oracle"))]
            SearchBackendKind::Oracle => "oracle",
        }
    }

    /// Every backend selectable in this build, in a stable order.
    pub fn all() -> &'static [SearchBackendKind] {
        &[
            SearchBackendKind::PerPatternVm,
            SearchBackendKind::SharedTrie,
            SearchBackendKind::Relational,
            #[cfg(any(test, feature = "oracle"))]
            SearchBackendKind::Oracle,
        ]
    }
}

impl std::fmt::Display for SearchBackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SearchBackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "per-pattern" | "per-pattern-vm" => Ok(SearchBackendKind::PerPatternVm),
            "shared-trie" | "trie" => Ok(SearchBackendKind::SharedTrie),
            "relational" => Ok(SearchBackendKind::Relational),
            #[cfg(any(test, feature = "oracle"))]
            "oracle" => Ok(SearchBackendKind::Oracle),
            other => Err(format!(
                "unknown search backend `{other}` (expected per-pattern, shared-trie, or relational)"
            )),
        }
    }
}

/// The result of one backend search: per-rule slots in rule-index
/// order (`Some((matches, elapsed))` for searched rules — empty for
/// [`RuleDirective::Skip`] — `None` for rules skipped by a mid-search
/// cancel/deadline trip), plus the time this call spent building
/// shared index structures (per-operator relations; zero for backends
/// without a build step) and how many walks ran out of work budget.
pub struct BackendSearch {
    /// Per-rule match sets and timings, in rule-index order.
    pub slots: Vec<Option<(Vec<SearchMatches>, Duration)>>,
    /// Time spent (re)building shared relations/indexes this call.
    pub relation_build: Duration,
    /// `(rule, class)` and `(trie branch, class)` walks that hit
    /// [`MATCH_WORK_BUDGET`](crate::MATCH_WORK_BUDGET). The oracle
    /// backend does not count its own.
    pub budget_exhausted: usize,
}

/// One e-matching strategy driving a whole iteration's rule search.
///
/// `search` may be called repeatedly (once per iteration) against
/// successive e-graph states; implementations may cache compiled or
/// derived structures across calls (`&mut self`) as long as staleness
/// is detected — the relational backend keys its tuple store on
/// [`EGraph::version`].
pub trait SearchBackend<L: Language, N: Analysis<L>> {
    /// Searches every rule against a clean e-graph under the given
    /// directive/cancel/deadline envelope, fanning out across at most
    /// `threads` workers. Slots are byte-identical at any thread count
    /// (short of mid-search cancel/deadline trips, where the *set* of
    /// skipped rules may differ).
    fn search(
        &mut self,
        egraph: &EGraph<L, N>,
        directives: &[RuleDirective],
        cancel: &CancelToken,
        deadline: Option<Instant>,
        threads: usize,
    ) -> BackendSearch;
}

/// Instantiates the backend for `kind` over the given rule LHS
/// patterns (one per rule, in rule-index order). Compilation work —
/// VM programs already live in the patterns; the trie and the
/// relational query plans are built here — happens once per returned
/// backend, not per search.
pub fn make_backend<'a, L, N>(
    kind: SearchBackendKind,
    patterns: Vec<&'a Pattern<L>>,
) -> Box<dyn SearchBackend<L, N> + 'a>
where
    L: Language + Sync,
    L::Discriminant: Sync,
    N: Analysis<L> + Sync,
    N::Data: Sync,
{
    match kind {
        SearchBackendKind::PerPatternVm => Box::new(PerPatternBackend { patterns }),
        SearchBackendKind::SharedTrie => Box::new(SharedTrieBackend {
            program: RuleSetProgram::compile(&patterns),
        }),
        SearchBackendKind::Relational => Box::new(RelationalBackend::new(patterns)),
        #[cfg(any(test, feature = "oracle"))]
        SearchBackendKind::Oracle => Box::new(OracleBackend { patterns }),
    }
}

/// Shared work-stealing driver for backends that search rule-by-rule:
/// claims rule indices from an atomic counter, checks the cancel
/// token and deadline before every claim, and merges results into
/// rule-index slots. `search_one` returns `None` when its rule's
/// search was cut short (the slot stays `None` = skipped, and the
/// worker stops claiming). Panics from workers are re-raised exactly
/// once after *all* workers joined (see the runner's parallel search
/// for why).
pub(crate) fn search_rules_slots<F>(
    n_rules: usize,
    threads: usize,
    cancel: &CancelToken,
    deadline: Option<Instant>,
    search_one: F,
) -> Vec<Option<(Vec<SearchMatches>, Duration)>>
where
    F: Fn(usize) -> Option<(Vec<SearchMatches>, Duration)> + Sync,
{
    let mut slots: Vec<Option<(Vec<SearchMatches>, Duration)>> = Vec::new();
    slots.resize_with(n_rules, || None);
    if threads <= 1 || n_rules <= 1 {
        for (i, slot) in slots.iter_mut().enumerate() {
            if cancel.is_cancelled() || past(deadline) {
                break;
            }
            match search_one(i) {
                Some(result) => *slot = Some(result),
                None => break,
            }
        }
        return slots;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n_rules))
            .map(|_| {
                let (next, search_one) = (&next, &search_one);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_rules {
                            break;
                        }
                        if cancel.is_cancelled() || past(deadline) {
                            break;
                        }
                        match search_one(i) {
                            Some(result) => done.push((i, result)),
                            None => break,
                        }
                    }
                    done
                })
            })
            .collect();
        // Join every worker before reacting to any panic — a second
        // panic during unwind would abort the process.
        let mut panicked = None;
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, result) in done {
                        slots[i] = Some(result);
                    }
                }
                Err(payload) => panicked = panicked.or(Some(payload)),
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    });
    slots
}

/// The pre-trie default: each rule searched by its own compiled VM
/// program, exactly as [`Pattern::search_with_limit_and_token`] does,
/// with rules fanned out over work-stealing threads.
struct PerPatternBackend<'a, L> {
    patterns: Vec<&'a Pattern<L>>,
}

impl<L, N> SearchBackend<L, N> for PerPatternBackend<'_, L>
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
        let patterns = &self.patterns;
        let exhausted = AtomicUsize::new(0);
        let slots =
            search_rules_slots(
                patterns.len(),
                threads,
                cancel,
                deadline,
                |i| match directives[i] {
                    RuleDirective::Skip => Some((Vec::new(), Duration::ZERO)),
                    RuleDirective::Limit(limit) => {
                        let start = Instant::now();
                        let matches = patterns[i].search_counted(egraph, limit, cancel, &exhausted);
                        Some((matches, start.elapsed()))
                    }
                },
            );
        BackendSearch {
            slots,
            relation_build: Duration::ZERO,
            budget_exhausted: exhausted.into_inner(),
        }
    }
}

/// The shared-prefix multi-pattern trie (see [`RuleSetProgram`]).
struct SharedTrieBackend<L: Language> {
    program: RuleSetProgram<L>,
}

impl<L, N> SearchBackend<L, N> for SharedTrieBackend<L>
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
        let exhausted = AtomicUsize::new(0);
        let slots = self
            .program
            .search_counted(egraph, directives, cancel, deadline, threads, &exhausted);
        BackendSearch {
            slots,
            relation_build: Duration::ZERO,
            budget_exhausted: exhausted.into_inner(),
        }
    }
}

/// The legacy recursive matcher driven with the per-pattern limit and
/// class-order discipline (differential-testing only).
#[cfg(any(test, feature = "oracle"))]
struct OracleBackend<'a, L> {
    patterns: Vec<&'a Pattern<L>>,
}

#[cfg(any(test, feature = "oracle"))]
impl<L, N> SearchBackend<L, N> for OracleBackend<'_, L>
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
        let patterns = &self.patterns;
        let slots =
            search_rules_slots(
                patterns.len(),
                threads,
                cancel,
                deadline,
                |i| match directives[i] {
                    RuleDirective::Skip => Some((Vec::new(), Duration::ZERO)),
                    RuleDirective::Limit(limit) => {
                        oracle_search_with_limit(patterns[i], egraph, limit, cancel, deadline)
                    }
                },
            );
        BackendSearch {
            slots,
            relation_build: Duration::ZERO,
            budget_exhausted: 0,
        }
    }
}

/// Whole-e-graph oracle search with the per-pattern driver's limit
/// semantics: classes in `classes_with_op` order, the boundary class
/// kept whole, `None` on a mid-rule cancel/deadline trip.
#[cfg(any(test, feature = "oracle"))]
fn oracle_search_with_limit<L: Language, N: Analysis<L>>(
    pattern: &Pattern<L>,
    egraph: &EGraph<L, N>,
    limit: usize,
    cancel: &CancelToken,
    deadline: Option<Instant>,
) -> Option<(Vec<SearchMatches>, Duration)> {
    use crate::pattern::ENodeOrVar;
    let start = Instant::now();
    let mut out = Vec::new();
    let mut total = 0usize;
    match &pattern.ast[pattern.ast.root()] {
        ENodeOrVar::ENode(root) => {
            for &id in egraph.classes_with_op(&root.discriminant()) {
                if cancel.is_cancelled() || past(deadline) {
                    return None;
                }
                if let Some(m) = pattern.search_eclass_oracle(egraph, id) {
                    total += m.substs.len();
                    out.push(m);
                }
                if total > limit {
                    break;
                }
            }
        }
        ENodeOrVar::Var(_) => {
            for class in egraph.classes() {
                if cancel.is_cancelled() || past(deadline) {
                    return None;
                }
                if let Some(m) = pattern.search_eclass_oracle(egraph, class.id) {
                    out.push(m);
                }
                total += 1;
                if total > limit {
                    break;
                }
            }
        }
    }
    Some((out, start.elapsed()))
}
