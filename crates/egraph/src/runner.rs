//! The saturation driver: [`Runner`], schedulers, and per-iteration
//! statistics.

use std::fmt;
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

use crate::hash::FxHashMap;
use crate::machine::{RuleDirective, RuleSetProgram};
use crate::{Analysis, CancelToken, EGraph, Id, Language, RecExpr, Rewrite, SearchMatches, Symbol};

/// Why a [`Runner`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// No rule produced a change: the e-graph is saturated.
    Saturated,
    /// The iteration limit was reached.
    IterLimit(usize),
    /// The e-graph grew past the node limit.
    NodeLimit(usize),
    /// The time limit was exceeded.
    TimeLimit(Duration),
    /// A [`CancelToken`] requested cooperative cancellation.
    Cancelled,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Saturated => write!(f, "saturated"),
            StopReason::IterLimit(n) => write!(f, "hit iteration limit {n}"),
            StopReason::NodeLimit(n) => write!(f, "hit node limit {n}"),
            StopReason::TimeLimit(d) => write!(f, "hit time limit {d:?}"),
            StopReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Cumulative per-rule accounting over one [`Runner::run`], maintained
/// by the driver for every rule regardless of scheduler: how long the
/// rule's searches took, how many substitutions they yielded (after
/// scheduling caps), and how many applications changed the e-graph.
/// The numbers are the rule-granular view of the aggregate
/// [`Iteration`] statistics, and feed per-rule saturation profiles
/// (`satbench`'s `top_rules`, the telemetry metrics registry).
#[derive(Debug, Clone, Default)]
pub struct RuleProfile {
    /// Wall-clock time spent searching this rule, summed over all
    /// iterations.
    pub search_time: Duration,
    /// Substitutions the searcher yielded (post-scheduling), summed.
    pub matches: usize,
    /// Applications that changed the e-graph, summed.
    pub applications: usize,
}

impl RuleProfile {
    /// Folds another profile (e.g. the same rule's profile from a
    /// later saturation phase) into this one.
    pub fn merge(&mut self, other: &RuleProfile) {
        self.search_time += other.search_time;
        self.matches += other.matches;
        self.applications += other.applications;
    }
}

/// Observer invoked by [`Runner::run`] after each completed iteration
/// with `(iteration_index, &Iteration)` — the hook live progress
/// reporting (telemetry event streams) attaches to.
pub type IterationHook = Box<dyn Fn(usize, &Iteration)>;

/// Statistics for one saturation iteration.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Number of e-nodes after this iteration.
    pub egraph_nodes: usize,
    /// Number of e-classes after this iteration.
    pub egraph_classes: usize,
    /// Applications per rule that changed the e-graph.
    pub applied: FxHashMap<Symbol, usize>,
    /// Total substitutions found across all rules this iteration
    /// (after scheduling caps, before application).
    pub total_matches: usize,
    /// Time spent searching for matches — the search fan-out only.
    /// The serial post-join merge (`RewriteScheduler::finish_rewrite`
    /// accounting plus [`RuleProfile`] bookkeeping) is reported
    /// separately as [`Iteration::merge_time`]; earlier versions
    /// folded it into `search_time`, silently inflating it.
    pub search_time: Duration,
    /// Time spent merging search results serially in rule-index order
    /// (scheduler accounting and per-rule profile updates) after the
    /// search fan-out joined.
    pub merge_time: Duration,
    /// Time spent applying rules.
    pub apply_time: Duration,
    /// Time spent rebuilding.
    pub rebuild_time: Duration,
    /// Unions performed by congruence repair during rebuild.
    pub n_rebuilds: usize,
    /// Rules *not* searched this iteration because the time limit or a
    /// cancel request tripped mid-search. Skipped rules contribute no
    /// matches and leave their [`RuleProfile`]s untouched, so per-rule
    /// accounting only reflects searches that actually ran. A trip
    /// *mid-trie* reports every rule of each not-fully-searched
    /// [`RuleSetProgram`] branch as skipped (partial branch results are
    /// discarded), so the count never under-reports which rules missed
    /// their search.
    pub rules_skipped: usize,
    /// Search walks that hit [`MATCH_WORK_BUDGET`](crate::MATCH_WORK_BUDGET)
    /// and were truncated: one per `(trie branch, class)` walk, plus
    /// one per `(rule, class)` solo re-run that exhausts its own
    /// budget too.
    pub budget_exhausted: usize,
}

/// Limits configuring a [`Runner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerLimits {
    /// Maximum number of iterations (default 30).
    pub iter_limit: usize,
    /// Maximum number of e-nodes (default 10 000).
    pub node_limit: usize,
    /// Wall-clock limit (default 5 s).
    pub time_limit: Duration,
}

impl Default for RunnerLimits {
    fn default() -> Self {
        Self {
            iter_limit: 30,
            node_limit: 10_000,
            time_limit: Duration::from_secs(5),
        }
    }
}

/// Controls how often each rule is searched — the hook that implements
/// backoff scheduling.
///
/// The protocol is split into a read-only directive and a mutable
/// post-merge accounting step: before an iteration's search, every
/// rule's [`RewriteScheduler::search_directive`] says how to search it;
/// after the whole ruleset was searched (by one [`RuleSetProgram`]
/// pass), [`RewriteScheduler::finish_rewrite`] runs serially in
/// rule-index order over the collected results. The split is
/// behavior-preserving because each rule only consults its own stats,
/// and a ban recorded during iteration `i` cannot start before
/// iteration `i + 1`.
pub trait RewriteScheduler<L: Language, N: Analysis<L>> {
    /// How to search `rewrite` during `iteration`: skip it, or search
    /// it with a substitution limit.
    fn search_directive(&self, iteration: usize, rewrite: &Rewrite<L, N>) -> RuleDirective;

    /// Records the outcome of one rule's search and returns the match
    /// set the apply phase should use (possibly discarding it — e.g. a
    /// backoff ban). Called exactly once per searched rule per
    /// iteration, serially, in rule-index order — regardless of how
    /// many threads ran the search — so scheduler state updates stay
    /// deterministic.
    fn finish_rewrite(
        &mut self,
        iteration: usize,
        rewrite: &Rewrite<L, N>,
        matches: Vec<SearchMatches>,
    ) -> Vec<SearchMatches> {
        let _ = (iteration, rewrite);
        matches
    }

    /// Returns `true` if saturation can be trusted (no rule was banned
    /// or truncated this iteration).
    fn can_stop(&mut self, iteration: usize) -> bool {
        let _ = iteration;
        true
    }
}

/// A scheduler that always searches every rule exhaustively.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimpleScheduler;

impl<L: Language, N: Analysis<L>> RewriteScheduler<L, N> for SimpleScheduler {
    fn search_directive(&self, _iteration: usize, _rewrite: &Rewrite<L, N>) -> RuleDirective {
        RuleDirective::Limit(usize::MAX)
    }
}

/// Exponential-backoff scheduler (like `egg`'s `BackoffScheduler`).
///
/// A rule that yields more than `match_limit` total substitutions in one
/// iteration is banned for `ban_length` iterations; each subsequent ban
/// doubles both numbers for that rule. This keeps explosive rules (e.g.
/// associativity) from starving the rest.
#[derive(Debug, Clone)]
pub struct BackoffScheduler {
    default_match_limit: usize,
    default_ban_length: usize,
    stats: FxHashMap<Symbol, RuleStats>,
}

#[derive(Debug, Clone)]
struct RuleStats {
    times_banned: usize,
    banned_until: usize,
    match_limit: usize,
    ban_length: usize,
}

impl BackoffScheduler {
    /// Creates a scheduler with the given initial match limit and ban
    /// length.
    pub fn new(match_limit: usize, ban_length: usize) -> Self {
        Self {
            default_match_limit: match_limit,
            default_ban_length: ban_length,
            stats: FxHashMap::default(),
        }
    }

    fn rule_stats(&mut self, name: Symbol) -> &mut RuleStats {
        self.stats.entry(name).or_insert(RuleStats {
            times_banned: 0,
            banned_until: 0,
            match_limit: self.default_match_limit,
            ban_length: self.default_ban_length,
        })
    }

    /// Read-only view of a rule's current (banned_until, allowed match
    /// budget) — for the search directive, which must not touch the
    /// stats table. Absent entries read as the defaults `rule_stats`
    /// would install.
    fn limits(&self, name: Symbol) -> (usize, usize) {
        match self.stats.get(&name) {
            Some(s) => (s.banned_until, s.match_limit << s.times_banned),
            None => (0, self.default_match_limit),
        }
    }
}

impl Default for BackoffScheduler {
    fn default() -> Self {
        Self::new(1_000, 5)
    }
}

impl<L: Language, N: Analysis<L>> RewriteScheduler<L, N> for BackoffScheduler {
    fn search_directive(&self, iteration: usize, rewrite: &Rewrite<L, N>) -> RuleDirective {
        let (banned_until, allowed) = self.limits(rewrite.name());
        if iteration < banned_until {
            RuleDirective::Skip
        } else {
            // Bounded search: an explosive rule costs at most `allowed`
            // substitutions before `finish_rewrite` bans it.
            RuleDirective::Limit(allowed)
        }
    }

    fn finish_rewrite(
        &mut self,
        iteration: usize,
        rewrite: &Rewrite<L, N>,
        matches: Vec<SearchMatches>,
    ) -> Vec<SearchMatches> {
        let stats = self.rule_stats(rewrite.name());
        if iteration < stats.banned_until {
            // The search phase saw the same ban and returned nothing.
            return vec![];
        }
        let allowed = stats.match_limit << stats.times_banned;
        let total: usize = matches.iter().map(|m| m.substs.len()).sum();
        if total > allowed {
            let ban = stats.ban_length << stats.times_banned;
            stats.times_banned += 1;
            stats.banned_until = iteration + ban;
            return vec![];
        }
        matches
    }

    fn can_stop(&mut self, iteration: usize) -> bool {
        self.stats.values().all(|s| iteration >= s.banned_until)
    }
}

/// Drives equality saturation: repeatedly search all rules, apply the
/// matches, and rebuild, until saturation or a limit is hit.
///
/// ```
/// use egraph::{Runner, Rewrite, SymbolLang, RecExpr};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rules: Vec<Rewrite<SymbolLang, ()>> =
///     vec![Rewrite::parse("comm", "(+ ?a ?b)", "(+ ?b ?a)")?];
/// let expr: RecExpr<SymbolLang> = "(+ x y)".parse()?;
/// let runner = Runner::default().with_expr(&expr).run(&rules);
/// assert!(runner.egraph.lookup_expr(&"(+ y x)".parse()?).is_some());
/// # Ok(())
/// # }
/// ```
pub struct Runner<L: Language, N: Analysis<L> = ()> {
    /// The e-graph being saturated.
    pub egraph: EGraph<L, N>,
    /// Root e-classes registered via [`Runner::with_expr`].
    pub roots: Vec<Id>,
    /// Per-iteration statistics.
    pub iterations: Vec<Iteration>,
    /// Why the run stopped (`None` until [`Runner::run`] is called).
    pub stop_reason: Option<StopReason>,
    /// Cumulative per-rule search/match/application accounting (filled
    /// in by [`Runner::run`]).
    pub rule_profiles: FxHashMap<Symbol, RuleProfile>,
    limits: RunnerLimits,
    scheduler: Box<dyn RewriteScheduler<L, N>>,
    cancel: CancelToken,
    iteration_hook: Option<IterationHook>,
    search_threads: usize,
}

impl<L: Language, N: Analysis<L> + Default> Default for Runner<L, N> {
    fn default() -> Self {
        Self::new(N::default())
    }
}

impl<L: Language, N: Analysis<L>> fmt::Debug for Runner<L, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runner")
            .field("egraph", &self.egraph)
            .field("roots", &self.roots)
            .field("iterations", &self.iterations.len())
            .field("stop_reason", &self.stop_reason)
            .finish()
    }
}

impl<L: Language, N: Analysis<L>> Runner<L, N> {
    /// Creates a runner with the given analysis and a
    /// [`BackoffScheduler`].
    pub fn new(analysis: N) -> Self {
        Self {
            egraph: EGraph::new(analysis),
            roots: vec![],
            iterations: vec![],
            stop_reason: None,
            rule_profiles: FxHashMap::default(),
            limits: RunnerLimits::default(),
            scheduler: Box::new(BackoffScheduler::default()),
            cancel: CancelToken::new(),
            iteration_hook: None,
            search_threads: 1,
        }
    }

    /// Replaces the e-graph (e.g. to continue saturating an existing
    /// graph with a different ruleset — BoolE's two-phase flow).
    pub fn with_egraph(mut self, egraph: EGraph<L, N>) -> Self {
        self.egraph = egraph;
        self
    }

    /// Adds `expr` and registers its root.
    pub fn with_expr(mut self, expr: &RecExpr<L>) -> Self {
        let id = self.egraph.add_expr(expr);
        self.roots.push(id);
        self
    }

    /// Registers an existing e-class as a root.
    pub fn with_root(mut self, root: Id) -> Self {
        self.roots.push(root);
        self
    }

    /// Sets the iteration limit.
    pub fn with_iter_limit(mut self, limit: usize) -> Self {
        self.limits.iter_limit = limit;
        self
    }

    /// Sets the e-node limit.
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.limits.node_limit = limit;
        self
    }

    /// Sets the wall-clock limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.limits.time_limit = limit;
        self
    }

    /// Replaces the scheduler.
    pub fn with_scheduler(mut self, scheduler: impl RewriteScheduler<L, N> + 'static) -> Self {
        self.scheduler = Box::new(scheduler);
        self
    }

    /// Attaches a [`CancelToken`]. When any clone of it is cancelled,
    /// the run stops with [`StopReason::Cancelled`] at the next check
    /// point (iteration boundary, or mid-search between trie branches
    /// and classes).
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Registers an observer invoked after every completed iteration
    /// with the iteration index and its statistics (from the thread
    /// running saturation). Used to stream live progress events.
    pub fn with_iteration_hook(mut self, hook: impl Fn(usize, &Iteration) + 'static) -> Self {
        self.iteration_hook = Some(Box::new(hook));
        self
    }

    /// Sets how many threads the per-iteration rule search fans out
    /// across. `1` (the default) searches serially on the calling
    /// thread — the determinism oracle; `0` means one thread per
    /// available CPU. Any value produces identical results: the search
    /// phase is read-only over the e-graph, and the match sets are
    /// merged (and scheduler state updated) in rule-index order before
    /// the apply phase, so batch output is byte-identical to serial.
    pub fn with_search_threads(mut self, threads: usize) -> Self {
        self.search_threads = threads;
        self
    }

    /// Runs saturation with `rules` until a stop condition; returns
    /// `self` with statistics filled in.
    pub fn run(mut self, rules: &[Rewrite<L, N>]) -> Self
    where
        L: Sync,
        L::Discriminant: Sync,
        N: Sync,
        N::Data: Sync,
    {
        let start = Instant::now();
        self.egraph.rebuild();
        let threads = match self.search_threads {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        };
        let patterns: Vec<_> = rules.iter().map(|r| r.searcher()).collect();
        let program = RuleSetProgram::compile(&patterns);
        let deadline = start.checked_add(self.limits.time_limit);
        for iteration in 0..self.limits.iter_limit {
            if self.cancel.is_cancelled() {
                self.stop_reason = Some(StopReason::Cancelled);
                return self;
            }
            let search_start = Instant::now();
            // Search phase (time limit and cancellation enforced per
            // trie branch and class, not only per iteration, so one
            // explosive rule cannot stall the run or delay a cancel
            // request). The search only reads the e-graph; scheduler
            // state and profiles are updated afterwards, serially, in
            // rule-index order, so the fan-out never changes results.
            let directives: Vec<RuleDirective> = rules
                .iter()
                .map(|r| self.scheduler.search_directive(iteration, r))
                .collect();
            let exhausted = AtomicUsize::new(0);
            let searched = program.search_counted(
                &self.egraph,
                &directives,
                &self.cancel,
                deadline,
                threads,
                &exhausted,
            );
            let search_time = search_start.elapsed();

            // Merge phase: serial, rule-index order, regardless of how
            // the searches fanned out. Timed separately from the
            // search — scheduler accounting is not match finding.
            let merge_start = Instant::now();
            let mut all_matches = Vec::with_capacity(rules.len());
            let mut rules_skipped = 0usize;
            for (rule, slot) in rules.iter().zip(searched) {
                match slot {
                    Some((matches, elapsed)) => {
                        let matches = self.scheduler.finish_rewrite(iteration, rule, matches);
                        let profile = self.rule_profiles.entry(rule.name()).or_default();
                        profile.search_time += elapsed;
                        profile.matches += matches.iter().map(|m| m.substs.len()).sum::<usize>();
                        all_matches.push(matches);
                    }
                    // Skipped by a mid-search time-limit/cancel trip:
                    // no matches, and the rule's profile is untouched.
                    None => {
                        rules_skipped += 1;
                        all_matches.push(vec![]);
                    }
                }
            }
            let total_matches = all_matches.iter().flatten().map(|m| m.substs.len()).sum();
            let merge_time = merge_start.elapsed();

            // Apply phase. The node limit is also enforced *between*
            // rules so a single explosive iteration cannot overshoot by
            // more than one rule's worth of matches.
            let apply_start = Instant::now();
            let mut applied: FxHashMap<Symbol, usize> = FxHashMap::default();
            let mut apply_aborted = false;
            for (rule, matches) in rules.iter().zip(&all_matches) {
                if self.egraph.total_number_of_nodes() > self.limits.node_limit
                    || start.elapsed() > self.limits.time_limit
                    || self.cancel.is_cancelled()
                {
                    apply_aborted = true;
                    break;
                }
                let n = rule.apply(&mut self.egraph, matches);
                if n > 0 {
                    *applied.entry(rule.name()).or_insert(0) += n;
                    self.rule_profiles
                        .entry(rule.name())
                        .or_default()
                        .applications += n;
                }
            }
            let apply_time = apply_start.elapsed();

            // Rebuild phase.
            let rebuild_start = Instant::now();
            let n_rebuilds = self.egraph.rebuild();
            let rebuild_time = rebuild_start.elapsed();

            let saturated =
                applied.is_empty() && !apply_aborted && self.scheduler.can_stop(iteration + 1);
            self.iterations.push(Iteration {
                egraph_nodes: self.egraph.total_number_of_nodes(),
                egraph_classes: self.egraph.num_classes(),
                applied,
                total_matches,
                search_time,
                merge_time,
                apply_time,
                rebuild_time,
                n_rebuilds,
                rules_skipped,
                budget_exhausted: exhausted.into_inner(),
            });
            if let Some(hook) = &self.iteration_hook {
                hook(iteration, self.iterations.last().unwrap());
            }

            if self.cancel.is_cancelled() {
                self.stop_reason = Some(StopReason::Cancelled);
                return self;
            }
            if saturated {
                self.stop_reason = Some(StopReason::Saturated);
                return self;
            }
            if self.egraph.total_number_of_nodes() > self.limits.node_limit {
                self.stop_reason = Some(StopReason::NodeLimit(self.limits.node_limit));
                return self;
            }
            if start.elapsed() > self.limits.time_limit {
                self.stop_reason = Some(StopReason::TimeLimit(self.limits.time_limit));
                return self;
            }
        }
        self.stop_reason = Some(StopReason::IterLimit(self.limits.iter_limit));
        self
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use super::*;
    use crate::{AstSize, Extractor, SymbolLang};

    type RW = Rewrite<SymbolLang, ()>;

    fn math_rules() -> Vec<RW> {
        vec![
            RW::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            RW::parse("comm-mul", "(* ?a ?b)", "(* ?b ?a)").unwrap(),
            RW::parse("assoc-add", "(+ (+ ?a ?b) ?c)", "(+ ?a (+ ?b ?c))").unwrap(),
            RW::parse("add-zero", "(+ ?a 0)", "?a").unwrap(),
            RW::parse("mul-one", "(* ?a 1)", "?a").unwrap(),
            RW::parse("mul-zero", "(* ?a 0)", "0").unwrap(),
            RW::parse("distr", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))").unwrap(),
        ]
    }

    #[test]
    fn saturates_simple_identity() {
        let expr = "(+ 0 (* 1 x))".parse().unwrap();
        let runner = Runner::default().with_expr(&expr).run(&math_rules());
        assert_eq!(runner.stop_reason, Some(StopReason::Saturated));
        let extractor = Extractor::new(&runner.egraph, AstSize);
        let (cost, best) = extractor.find_best(runner.roots[0]);
        assert_eq!(cost, 1);
        assert_eq!(best.to_string(), "x");
    }

    #[test]
    fn node_limit_stops_explosive_rules() {
        let expr = "(+ a (+ b (+ c (+ d (+ e f)))))".parse().unwrap();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_node_limit(50)
            .with_scheduler(SimpleScheduler)
            .run(&math_rules());
        assert!(matches!(runner.stop_reason, Some(StopReason::NodeLimit(_))));
    }

    #[test]
    fn iter_limit_respected() {
        let expr = "(+ a (+ b (+ c d)))".parse().unwrap();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_iter_limit(1)
            .run(&math_rules());
        assert!(matches!(
            runner.stop_reason,
            Some(StopReason::IterLimit(1)) | Some(StopReason::Saturated)
        ));
        assert!(runner.iterations.len() <= 1);
    }

    #[test]
    fn iterations_record_applications() {
        let expr = "(+ x 0)".parse().unwrap();
        let runner = Runner::default().with_expr(&expr).run(&math_rules());
        let total: usize = runner
            .iterations
            .iter()
            .flat_map(|i| i.applied.values())
            .sum();
        assert!(total >= 1);
    }

    #[test]
    fn pre_cancelled_run_stops_before_first_iteration() {
        let token = crate::CancelToken::new();
        token.cancel();
        let expr = "(+ a (+ b (+ c d)))".parse().unwrap();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_cancel_token(token)
            .run(&math_rules());
        assert_eq!(runner.stop_reason, Some(StopReason::Cancelled));
        assert!(runner.iterations.is_empty());
    }

    #[test]
    fn uncancelled_token_does_not_change_behavior() {
        let expr = "(+ 0 (* 1 x))".parse().unwrap();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_cancel_token(crate::CancelToken::new())
            .run(&math_rules());
        assert_eq!(runner.stop_reason, Some(StopReason::Saturated));
    }

    #[test]
    fn two_phase_continuation() {
        // Phase 1: only commutativity. Phase 2: add-zero on the same
        // e-graph, mirroring BoolE's incremental R1/R2 flow.
        let expr = "(+ 0 x)".parse().unwrap();
        let phase1 = vec![RW::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap()];
        let phase2 = vec![RW::parse("add-zero", "(+ ?a 0)", "?a").unwrap()];
        let r1 = Runner::default().with_expr(&expr).run(&phase1);
        let roots = r1.roots.clone();
        let r2 = Runner::new(())
            .with_egraph(r1.egraph)
            .with_root(roots[0])
            .run(&phase2);
        let x = r2.egraph.lookup(&SymbolLang::leaf("x")).unwrap();
        assert_eq!(r2.egraph.find(roots[0]), r2.egraph.find(x));
    }

    #[test]
    fn expired_time_limit_skips_search_and_leaves_profiles_untouched() {
        let expr = "(+ a (+ b (+ c d)))".parse().unwrap();
        let rules = math_rules();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_time_limit(Duration::ZERO)
            .run(&rules);
        assert!(matches!(runner.stop_reason, Some(StopReason::TimeLimit(_))));
        assert_eq!(runner.iterations.len(), 1);
        // The search loop must break out, not scan the remaining rules:
        // every rule counts as skipped and none acquires a profile.
        assert_eq!(runner.iterations[0].rules_skipped, rules.len());
        assert_eq!(runner.iterations[0].total_matches, 0);
        assert!(runner.rule_profiles.is_empty());
    }

    #[test]
    fn parallel_search_is_identical_to_serial() {
        let expr: RecExpr<SymbolLang> = "(* (+ a (+ b (+ c (+ d 0)))) 1)".parse().unwrap();
        // A tight backoff so bans actually fire: the parallel merge
        // must reproduce the serial ban schedule exactly.
        let run_with = |threads: usize| {
            Runner::default()
                .with_expr(&expr)
                .with_scheduler(BackoffScheduler::new(4, 2))
                .with_iter_limit(12)
                .with_node_limit(20_000)
                .with_search_threads(threads)
                .run(&math_rules())
        };
        let serial = run_with(1);
        for threads in [2, 4, 7] {
            let par = run_with(threads);
            assert_eq!(par.stop_reason, serial.stop_reason, "threads={threads}");
            assert_eq!(par.iterations.len(), serial.iterations.len());
            for (p, s) in par.iterations.iter().zip(&serial.iterations) {
                assert_eq!(p.egraph_nodes, s.egraph_nodes);
                assert_eq!(p.egraph_classes, s.egraph_classes);
                assert_eq!(p.applied, s.applied);
                assert_eq!(p.total_matches, s.total_matches);
                assert_eq!(p.rules_skipped, 0);
            }
            assert_eq!(
                par.egraph.total_number_of_nodes(),
                serial.egraph.total_number_of_nodes()
            );
            assert_eq!(par.egraph.num_classes(), serial.egraph.num_classes());
            let (serial_cost, serial_best) =
                Extractor::new(&serial.egraph, AstSize).find_best(serial.roots[0]);
            let (par_cost, par_best) = Extractor::new(&par.egraph, AstSize).find_best(par.roots[0]);
            assert_eq!(par_cost, serial_cost);
            assert_eq!(par_best.to_string(), serial_best.to_string());
        }
    }

    /// Cancels the shared token partway through an iteration's
    /// directive pass (after `after` directives), so the trie search
    /// that follows starts with the token set.
    struct CancelMidSearch {
        token: crate::CancelToken,
        after: usize,
        directives: AtomicUsize,
    }

    impl<L: Language, N: Analysis<L>> RewriteScheduler<L, N> for CancelMidSearch {
        fn search_directive(&self, _iteration: usize, _rewrite: &Rewrite<L, N>) -> RuleDirective {
            if self.directives.fetch_add(1, Ordering::Relaxed) + 1 >= self.after {
                self.token.cancel();
            }
            RuleDirective::Limit(usize::MAX)
        }
    }

    #[test]
    fn parallel_mid_search_cancellation_stops_the_run() {
        let token = crate::CancelToken::new();
        let expr = "(+ a (+ b (+ c (+ d (+ e f)))))".parse().unwrap();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_scheduler(CancelMidSearch {
                token: token.clone(),
                after: 2,
                directives: AtomicUsize::new(0),
            })
            .with_iter_limit(50)
            .with_node_limit(1_000_000)
            .with_cancel_token(token)
            .with_search_threads(4)
            .run(&math_rules());
        assert_eq!(runner.stop_reason, Some(StopReason::Cancelled));
        assert!(runner.iterations.len() <= 1);
        if let Some(iter) = runner.iterations.first() {
            // Workers check the token before every branch they claim,
            // so the rules of unsearched branches count as skipped.
            assert!(iter.rules_skipped > 0, "expected skipped rules");
        }
    }

    /// Per-iteration `(e-nodes, e-classes, applied, total_matches)`.
    type IterationShape = (usize, usize, FxHashMap<Symbol, usize>, usize);

    /// A reference saturation loop that searches every rule on its own
    /// with the per-pattern VM, under the same scheduler protocol as
    /// [`Runner::run`] (no time limit or cancellation). Returns the
    /// per-iteration shapes, the stop reason and the final e-graph.
    fn per_pattern_reference(
        expr: &RecExpr<SymbolLang>,
        mut scheduler: impl RewriteScheduler<SymbolLang, ()>,
        rules: &[RW],
        iter_limit: usize,
        node_limit: usize,
    ) -> (Vec<IterationShape>, StopReason, EGraph<SymbolLang, ()>) {
        let mut egraph = EGraph::<SymbolLang, ()>::default();
        egraph.add_expr(expr);
        egraph.rebuild();
        let mut shapes = Vec::new();
        for iteration in 0..iter_limit {
            let directives: Vec<_> = rules
                .iter()
                .map(|r| scheduler.search_directive(iteration, r))
                .collect();
            let searched: Vec<_> = rules
                .iter()
                .zip(directives)
                .map(|(rule, directive)| match directive {
                    RuleDirective::Skip => vec![],
                    RuleDirective::Limit(limit) => {
                        rule.searcher().search_with_limit(&egraph, limit)
                    }
                })
                .collect();
            let all_matches: Vec<_> = rules
                .iter()
                .zip(searched)
                .map(|(rule, matches)| scheduler.finish_rewrite(iteration, rule, matches))
                .collect();
            let total_matches = all_matches.iter().flatten().map(|m| m.substs.len()).sum();
            let mut applied: FxHashMap<Symbol, usize> = FxHashMap::default();
            let mut apply_aborted = false;
            for (rule, matches) in rules.iter().zip(&all_matches) {
                if egraph.total_number_of_nodes() > node_limit {
                    apply_aborted = true;
                    break;
                }
                let n = rule.apply(&mut egraph, matches);
                if n > 0 {
                    *applied.entry(rule.name()).or_insert(0) += n;
                }
            }
            egraph.rebuild();
            let saturated =
                applied.is_empty() && !apply_aborted && scheduler.can_stop(iteration + 1);
            shapes.push((
                egraph.total_number_of_nodes(),
                egraph.num_classes(),
                applied,
                total_matches,
            ));
            if saturated {
                return (shapes, StopReason::Saturated, egraph);
            }
            if egraph.total_number_of_nodes() > node_limit {
                return (shapes, StopReason::NodeLimit(node_limit), egraph);
            }
        }
        (shapes, StopReason::IterLimit(iter_limit), egraph)
    }

    fn shapes(runner: &Runner<SymbolLang, ()>) -> Vec<IterationShape> {
        runner
            .iterations
            .iter()
            .map(|i| {
                assert_eq!(i.rules_skipped, 0);
                (
                    i.egraph_nodes,
                    i.egraph_classes,
                    i.applied.clone(),
                    i.total_matches,
                )
            })
            .collect()
    }

    #[test]
    fn shared_search_is_identical_to_per_pattern() {
        let expr: RecExpr<SymbolLang> = "(* (+ a (+ b (+ c (+ d 0)))) 1)".parse().unwrap();
        // Tight backoff so bans fire: the trie must reproduce the
        // per-pattern ban schedule (and everything downstream of it)
        // exactly, at every thread count.
        let (expected, stop, reference) = per_pattern_reference(
            &expr,
            BackoffScheduler::new(4, 2),
            &math_rules(),
            12,
            20_000,
        );
        let root = reference.lookup_expr(&expr).unwrap();
        let (b_cost, b_best) = Extractor::new(&reference, AstSize).find_best(root);
        for threads in [1, 2, 4] {
            let candidate = Runner::default()
                .with_expr(&expr)
                .with_scheduler(BackoffScheduler::new(4, 2))
                .with_iter_limit(12)
                .with_node_limit(20_000)
                .with_search_threads(threads)
                .run(&math_rules());
            assert_eq!(
                candidate.stop_reason.as_ref(),
                Some(&stop),
                "threads={threads}"
            );
            assert_eq!(shapes(&candidate), expected, "threads={threads}");
            let (c_cost, c_best) =
                Extractor::new(&candidate.egraph, AstSize).find_best(candidate.roots[0]);
            assert_eq!(c_cost, b_cost);
            assert_eq!(c_best.to_string(), b_best.to_string());
        }
    }

    #[test]
    fn shared_search_matches_simple_scheduler_too() {
        let expr: RecExpr<SymbolLang> = "(+ a (+ b (+ c 0)))".parse().unwrap();
        let (expected, stop, _) =
            per_pattern_reference(&expr, SimpleScheduler, &math_rules(), 4, 50_000);
        let trie = Runner::default()
            .with_expr(&expr)
            .with_scheduler(SimpleScheduler)
            .with_iter_limit(4)
            .with_node_limit(50_000)
            .run(&math_rules());
        assert_eq!(trie.stop_reason, Some(stop));
        assert_eq!(shapes(&trie), expected);
    }

    #[test]
    fn per_rule_search_times_sum_to_at_most_search_phase_time() {
        // The honest-timing regression test: per-rule search slots are
        // disjoint shares of the search fan-out, so their sum can never
        // exceed the reported search phase time (it used to, because
        // `search_time` silently included the post-join merge loop).
        let expr: RecExpr<SymbolLang> = "(* (+ a (+ b (+ c (+ d 0)))) 1)".parse().unwrap();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_iter_limit(8)
            .with_node_limit(20_000)
            .run(&math_rules());
        let phase_total: Duration = runner.iterations.iter().map(|i| i.search_time).sum();
        let rule_total: Duration = runner.rule_profiles.values().map(|p| p.search_time).sum();
        assert!(
            rule_total <= phase_total,
            "per-rule search times ({rule_total:?}) exceed the search phase total ({phase_total:?})"
        );
    }

    #[test]
    fn backoff_bans_explosive_rule_but_allows_progress() {
        let expr = "(+ a (+ b (+ c (+ d 0))))".parse().unwrap();
        let runner = Runner::default()
            .with_expr(&expr)
            .with_scheduler(BackoffScheduler::new(2, 2))
            .with_iter_limit(20)
            .with_node_limit(100_000)
            .run(&math_rules());
        // add-zero must still have fired despite comm/assoc being banned.
        let simplified = runner
            .egraph
            .lookup_expr(&"(+ a (+ b (+ c d)))".parse().unwrap());
        assert!(simplified.is_some());
    }
}
