//! Differential tests: the compiled e-matching VM must find exactly
//! the same match sets as the legacy recursive backtracking matcher
//! (kept as [`Pattern::search_oracle`]) on randomized e-graphs — and
//! the shared-prefix trie ([`RuleSetProgram`]), the search path the
//! runner uses, must agree with both, at any thread count, under
//! scheduler directives and under cancellation.

use proptest::{proptest, ProptestConfig, TestRng};

use crate::machine::BOUND_SCAN_LIMIT;
use std::sync::atomic::AtomicUsize;

use crate::{CancelToken, EGraph, Id, Pattern, RuleDirective, RuleSetProgram, SymbolLang};

type EG = EGraph<SymbolLang, ()>;

/// Builds a random e-graph: leaves from a small alphabet, random
/// operator applications over already-present classes, then a few
/// random unions and a rebuild. Sized so the matcher's deterministic
/// caps cannot bind (equality of truncated sets is not guaranteed
/// between enumeration orders).
fn random_egraph(rng: &mut TestRng) -> EG {
    random_egraph_padded(rng, false)
}

/// [`random_egraph`], optionally padding about a third of the
/// classes (and always the last one built) with fresh distinct leaves,
/// so bound-subterm checks meet classes on both sides of
/// [`BOUND_SCAN_LIMIT`] — scanned below it, resolved through the memo
/// above it. Leaves match no operator pattern, so the match sets stay
/// small.
fn random_egraph_padded(rng: &mut TestRng, pad: bool) -> EG {
    let mut eg = EG::default();
    let mut ids: Vec<Id> = ["a", "b", "c", "x", "y"]
        .iter()
        .map(|s| eg.add(SymbolLang::leaf(*s)))
        .collect();
    let n_nodes = 8 + rng.below(28) as usize;
    for _ in 0..n_nodes {
        let pick = |rng: &mut TestRng, ids: &[Id]| ids[rng.below(ids.len() as u64) as usize];
        let node = match rng.below(6) {
            0 => SymbolLang::new("f", vec![pick(rng, &ids)]),
            1 => SymbolLang::new("g", vec![pick(rng, &ids), pick(rng, &ids)]),
            2 => SymbolLang::new("h", vec![pick(rng, &ids), pick(rng, &ids)]),
            3 => SymbolLang::new("+", vec![pick(rng, &ids), pick(rng, &ids)]),
            4 => SymbolLang::new("m", vec![pick(rng, &ids), pick(rng, &ids), pick(rng, &ids)]),
            _ => SymbolLang::leaf(["a", "b", "c", "x", "y"][rng.below(5) as usize]),
        };
        ids.push(eg.add(node));
    }
    if pad {
        let mut fresh = 0;
        let last = ids.len() - 1;
        for (k, &id) in ids.iter().enumerate() {
            let n = if k == last {
                BOUND_SCAN_LIMIT + 1
            } else if rng.below(3) == 0 {
                rng.below(2 * BOUND_SCAN_LIMIT as u64 + 2) as usize
            } else {
                0
            };
            for _ in 0..n {
                let leaf = eg.add(SymbolLang::leaf(format!("pad{fresh}")));
                fresh += 1;
                eg.union(id, leaf);
            }
        }
    }
    let n_unions = rng.below(6) as usize;
    for _ in 0..n_unions {
        let a = ids[rng.below(ids.len() as u64) as usize];
        let b = ids[rng.below(ids.len() as u64) as usize];
        eg.union(a, b);
    }
    eg.rebuild();
    eg
}

/// The pattern shapes exercised: linear/nonlinear, nested, ground
/// subterms, bare variables, mixed ground/var arguments, repeated
/// subterms (compiled to `Compare`) and fully bound subterms
/// (compiled to `Check`, alone or over an earlier matched subterm).
const PATTERNS: &[&str] = &[
    "(f ?x)",
    "(g ?x ?y)",
    "(g ?x ?x)",
    "(f (g ?x ?y))",
    "(g (f ?x) ?y)",
    "(g (f ?x) (f ?x))",
    "(+ (g ?a ?b) ?a)",
    "(m ?a ?b ?a)",
    "(m ?a ?a ?a)",
    "(g a ?x)",
    "(f (g a b))",
    "(+ ?x (f ?x))",
    "(h (h ?a ?b) (h ?c ?d))",
    "?z",
    "a",
    "(h (g ?a ?b) (g ?a ?b))",
    "(g (f ?x) (h ?y (f ?x)))",
    "(m ?a ?b (g ?a ?b))",
    "(+ ?x (f (f ?x)))",
    "(m (f ?x) ?y (h (f ?x) ?y))",
    "(g ?x (h (f ?x) a))",
];

/// Flattens search results for comparison: both matchers canonicalize,
/// sort, and dedup per-class substitutions, so equal match *sets* mean
/// equal flattened forms.
fn flatten(matches: Vec<crate::SearchMatches>) -> Vec<(Id, Vec<crate::Subst>)> {
    let mut v: Vec<_> = matches.into_iter().map(|m| (m.eclass, m.substs)).collect();
    v.sort_unstable_by_key(|(id, _)| *id);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The VM and the recursive oracle agree on every pattern over
    /// random e-graphs.
    #[test]
    fn prop_vm_matches_oracle(seed in 0u64..u64::MAX) {
        for pad in [false, true] {
            let mut rng = TestRng::seeded(seed);
            let eg = random_egraph_padded(&mut rng, pad);
            for pat in PATTERNS {
                let p: Pattern<SymbolLang> = pat.parse().unwrap();
                let vm = flatten(p.search(&eg));
                let oracle = flatten(p.search_oracle(&eg));
                assert_eq!(vm, oracle, "pattern {pat} diverged (pad {pad}, seed {seed:#x})");
            }
        }
    }

    /// Per-class search agrees too (exercises `search_eclass` and the
    /// ground-term fast path on individual classes).
    #[test]
    fn prop_vm_matches_oracle_per_class(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seeded(seed);
        let eg = random_egraph(&mut rng);
        for pat in ["(g ?x ?y)", "(f (g a b))", "(m ?a ?b ?a)", "?z"] {
            let p: Pattern<SymbolLang> = pat.parse().unwrap();
            for class in eg.classes() {
                let vm = p.search_eclass(&eg, class.id).map(|m| m.substs);
                let oracle = p.search_eclass_oracle(&eg, class.id).map(|m| m.substs);
                // `search_eclass` reports a bare-variable match for
                // every class, as the oracle does.
                assert_eq!(vm, oracle, "pattern {pat} diverged on class {} (seed {seed:#x})", class.id);
            }
        }
    }

    /// The shared multi-pattern trie demultiplexes *the entire pattern
    /// set at once* into exactly the per-rule match sets the
    /// single-pattern VM and the recursive oracle find — at 1, 2, and
    /// N search threads.
    #[test]
    fn prop_trie_matches_vm_and_oracle(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seeded(seed);
        let eg = random_egraph(&mut rng);
        let patterns: Vec<Pattern<SymbolLang>> =
            PATTERNS.iter().map(|s| s.parse().unwrap()).collect();
        let refs: Vec<&Pattern<SymbolLang>> = patterns.iter().collect();
        let prog = RuleSetProgram::compile(&refs);
        let directives = vec![RuleDirective::Limit(usize::MAX); patterns.len()];
        for threads in [1usize, 2, 5] {
            let slots = prog.search(&eg, &directives, &CancelToken::new(), None, threads);
            for ((pat, p), slot) in PATTERNS.iter().zip(&patterns).zip(slots) {
                let (matches, _) = slot.expect("no rule may be skipped without a cancel/deadline");
                let trie = flatten(matches);
                let vm = flatten(p.search(&eg));
                let oracle = flatten(p.search_oracle(&eg));
                assert_eq!(trie, vm, "trie vs VM diverged on {pat} at {threads} threads (seed {seed:#x})");
                assert_eq!(trie, oracle, "trie vs oracle diverged on {pat} (seed {seed:#x})");
            }
        }
    }

    /// Adversarial rule *pairs*: shared Bind prefixes diverging on a
    /// Compare, ground-Lookup-only patterns, var-root Scans mixed with
    /// bound roots, and duplicate LHSs — per-rule equality must hold
    /// for every subset paired with every other subset.
    #[test]
    fn prop_trie_adversarial_pairs(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seeded(seed);
        let eg = random_egraph(&mut rng);
        const ADVERSARIAL: &[(&str, &str)] = &[
            ("(g ?x ?x)", "(g ?x ?y)"),           // prefix diverging on Compare
            ("(g (f ?x) (f ?x))", "(g (f ?x) ?y)"), // deeper shared Bind prefix
            ("(f (g a b))", "a"),                  // ground-Lookup-only pair
            ("?z", "(g ?x ?y)"),                   // Scan mixed with bound root
            ("(g ?x ?y)", "(g ?x ?y)"),            // identical LHS twice
            ("(g a ?x)", "(g ?x ?y)"),             // Lookup vs wildcard under one root
            ("(g ?x (f ?x))", "(g ?x ?y)"),        // Check vs wildcard after a shared Bind
            ("(h (g ?a ?b) (g ?a ?b))", "(h (g ?a ?b) ?c)"), // repeated-subterm Compare
        ];
        for (a, b) in ADVERSARIAL {
            let pa: Pattern<SymbolLang> = a.parse().unwrap();
            let pb: Pattern<SymbolLang> = b.parse().unwrap();
            let prog = RuleSetProgram::compile(&[&pa, &pb]);
            let directives = [RuleDirective::Limit(usize::MAX); 2];
            for threads in [1usize, 2] {
                let slots = prog.search(&eg, &directives, &CancelToken::new(), None, threads);
                for (p, slot) in [&pa, &pb].into_iter().zip(slots) {
                    let (matches, _) = slot.expect("not skipped");
                    assert_eq!(
                        flatten(matches),
                        flatten(p.search(&eg)),
                        "pair ({a}, {b}) diverged on {p} (seed {seed:#x})"
                    );
                }
            }
        }
    }

    /// The trie over the whole pattern set reproduces every rule's
    /// single-pattern VM and recursive-oracle match set — at 1, 2, and
    /// N search threads, on classes on both sides of the bound-check
    /// scan limit — without any walk running out of budget.
    #[test]
    fn prop_all_backends_agree(seed in 0u64..u64::MAX) {
        for pad in [false, true] {
            let mut rng = TestRng::seeded(seed);
            let eg = random_egraph_padded(&mut rng, pad);
            let patterns: Vec<Pattern<SymbolLang>> =
                PATTERNS.iter().map(|s| s.parse().unwrap()).collect();
            let refs: Vec<&Pattern<SymbolLang>> = patterns.iter().collect();
            let prog = RuleSetProgram::compile(&refs);
            let directives = vec![RuleDirective::Limit(usize::MAX); patterns.len()];
            let vm: Vec<_> = patterns.iter().map(|p| flatten(p.search(&eg))).collect();
            let oracle: Vec<_> = patterns.iter().map(|p| flatten(p.search_oracle(&eg))).collect();
            for threads in [1usize, 2, 5] {
                let exhausted = AtomicUsize::new(0);
                let slots = prog.search_counted(
                    &eg, &directives, &CancelToken::new(), None, threads, &exhausted,
                );
                assert_eq!(exhausted.into_inner(), 0, "caps must not bind here");
                for (((pat, vm), oracle), slot) in PATTERNS.iter().zip(&vm).zip(&oracle).zip(slots) {
                    let (matches, _) =
                        slot.expect("no rule may be skipped without a cancel/deadline");
                    let trie = flatten(matches);
                    assert_eq!(
                        &trie, vm,
                        "trie vs VM diverged on {pat} at {threads} threads \
                         (pad {pad}, seed {seed:#x})"
                    );
                    assert_eq!(
                        &trie, oracle,
                        "trie vs oracle diverged on {pat} (pad {pad}, seed {seed:#x})"
                    );
                }
            }
        }
    }

    /// Backoff-style envelopes: the trie masks over-limit rules and
    /// honors `Skip` directives exactly like per-rule
    /// `search_with_limit_and_token` calls (a `Skip` yields no
    /// matches). Limits small enough to bind are exercised because the
    /// truncation points must align (the "finish the class, then mask"
    /// discipline).
    #[test]
    fn prop_all_backends_agree_under_directives(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seeded(seed);
        let eg = random_egraph(&mut rng);
        let patterns: Vec<Pattern<SymbolLang>> =
            PATTERNS.iter().map(|s| s.parse().unwrap()).collect();
        let directives: Vec<RuleDirective> = (0..patterns.len())
            .map(|i| match i % 4 {
                0 => RuleDirective::Skip,
                1 => RuleDirective::Limit(1),
                2 => RuleDirective::Limit(rng.below(8) as usize),
                _ => RuleDirective::Limit(usize::MAX),
            })
            .collect();
        let reference: Vec<_> = patterns
            .iter()
            .zip(&directives)
            .map(|(p, directive)| match *directive {
                RuleDirective::Skip => Vec::new(),
                RuleDirective::Limit(limit) => flatten(
                    p.search_with_limit_and_token(&eg, limit, &CancelToken::new()),
                ),
            })
            .collect();
        let refs: Vec<&Pattern<SymbolLang>> = patterns.iter().collect();
        let prog = RuleSetProgram::compile(&refs);
        for threads in [1usize, 2] {
            let slots = prog.search(&eg, &directives, &CancelToken::new(), None, threads);
            for ((pat, expected), slot) in PATTERNS.iter().zip(&reference).zip(slots) {
                let (matches, _) = slot.expect("not skipped");
                assert_eq!(
                    &flatten(matches), expected,
                    "trie diverged under directives on {pat} at {threads} threads (seed {seed:#x})"
                );
            }
        }
    }

    /// Mid-search cancellation: a pre-set token must make the shared
    /// search report every rule as skipped (no partial match sets leak
    /// out of incomplete branches), at any thread count.
    #[test]
    fn prop_trie_cancellation_skips_all(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seeded(seed);
        let eg = random_egraph(&mut rng);
        let patterns: Vec<Pattern<SymbolLang>> =
            PATTERNS.iter().map(|s| s.parse().unwrap()).collect();
        let refs: Vec<&Pattern<SymbolLang>> = patterns.iter().collect();
        let prog = RuleSetProgram::compile(&refs);
        let directives = vec![RuleDirective::Limit(usize::MAX); patterns.len()];
        let token = CancelToken::new();
        token.cancel();
        for threads in [1usize, 3] {
            let slots = prog.search(&eg, &directives, &token, None, threads);
            assert!(slots.iter().all(Option::is_none), "seed {seed:#x}");
        }
    }
}
