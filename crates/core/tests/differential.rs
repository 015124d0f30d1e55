//! Differential tests of e-matching on BoolE's own workload: for every
//! rule pattern in `R1` and `R2` (197 left-hand sides plus their
//! right-hand sides), the compiled VM must find exactly the same match
//! sets on real netlist e-graphs as the legacy recursive matcher
//! (`Pattern::search_oracle`, enabled via the egraph crate's `oracle`
//! feature), and the shared trie over the whole ruleset must agree with
//! both.

use boole::convert::aig_to_egraph;
use boole::{rules, saturate, BoolLang, SaturateParams};
use egraph::{
    CancelToken, EGraph, Id, Pattern, RuleDirective, RuleSetProgram, SearchMatches, Subst,
};

/// The benchmark netlists the patterns are matched against: a lone
/// full adder, a ripple-carry stage, and a small CSA multiplier —
/// covering the structural shapes the identification rules target.
fn test_egraphs() -> Vec<EGraph<BoolLang>> {
    let mut netlists = Vec::new();
    {
        let mut a = aig::Aig::new();
        let x = a.add_input();
        let y = a.add_input();
        let z = a.add_input();
        let (s, c) = aig::gen::full_adder(&mut a, x, y, z);
        a.add_output("s", s);
        a.add_output("c", c);
        netlists.push(a);
    }
    netlists.push(aig::gen::csa_multiplier(3));

    netlists
        .into_iter()
        .map(|aig| {
            // A short saturation run unions in enough equivalent
            // shapes to make the classes interesting (multiple nodes
            // per class, merged children) without growing past the
            // matcher's deterministic caps — truncated match sets are
            // not comparable across enumeration orders.
            let net = aig_to_egraph::<()>(&aig);
            let params = SaturateParams {
                r1_iters: 3,
                r2_iters: 2,
                node_limit: 4_000,
                prune: false,
                ..SaturateParams::small()
            }
            .without_time_limit();
            let (net, _) = saturate(net, &params);
            net.egraph
        })
        .collect()
}

fn flatten(matches: Vec<SearchMatches>) -> Vec<(Id, Vec<Subst>)> {
    let mut v: Vec<_> = matches.into_iter().map(|m| (m.eclass, m.substs)).collect();
    v.sort_unstable_by_key(|(id, _)| *id);
    v
}

fn all_rule_patterns() -> Vec<(String, String)> {
    let mut specs = rules::r1_table();
    specs.extend(rules::maj_table());
    specs.extend(rules::xor_table());
    // Both sides of every rule are legitimate search patterns (the
    // rhs shapes also occur as lhs of other rules' inverses).
    specs
        .into_iter()
        .flat_map(|(name, lhs, rhs)| [(format!("{name}:lhs"), lhs), (format!("{name}:rhs"), rhs)])
        .collect()
}

#[test]
fn vm_matches_oracle_on_every_boole_rule_pattern() {
    let egraphs = test_egraphs();
    let patterns = all_rule_patterns();
    assert!(patterns.len() >= 2 * 197, "expected all 197 rules");
    for (i, eg) in egraphs.iter().enumerate() {
        for (name, src) in &patterns {
            let p: Pattern<BoolLang> = src
                .parse()
                .unwrap_or_else(|e| panic!("pattern {name} ({src}) must parse: {e}"));
            let vm = flatten(p.search(eg));
            let oracle = flatten(p.search_oracle(eg));
            assert_eq!(
                vm, oracle,
                "match sets diverged for rule pattern {name} ({src}) on e-graph #{i}"
            );
        }
    }
}

#[test]
fn shared_trie_matches_vm_and_oracle_on_full_ruleset() {
    // The three-way differential behind the runner's only search path:
    // compiling *every* BoolE rule LHS into one shared-prefix trie and
    // searching the whole ruleset in a single pass demultiplexes
    // exactly the per-rule match sets the single-pattern VM and the
    // recursive oracle find — serial and threaded alike.
    let egraphs = test_egraphs();
    let rules: Vec<egraph::Rewrite<BoolLang, ()>> = rules::r1_rules()
        .into_iter()
        .chain(rules::r2_rules())
        .collect();
    assert!(rules.len() >= 197, "expected all 197 rules");
    let patterns: Vec<&Pattern<BoolLang>> = rules.iter().map(|r| r.searcher()).collect();
    let program = RuleSetProgram::compile(&patterns);
    let directives = vec![RuleDirective::Limit(usize::MAX); patterns.len()];
    for (i, eg) in egraphs.iter().enumerate() {
        for threads in [1usize, 2, 4] {
            let slots = program.search(eg, &directives, &CancelToken::new(), None, threads);
            assert_eq!(slots.len(), rules.len());
            for (rule, slot) in rules.iter().zip(slots) {
                let (matches, _) = slot.expect("no skip without cancel/deadline");
                let shared = flatten(matches);
                let solo = flatten(rule.searcher().search(eg));
                let oracle = flatten(rule.searcher().search_oracle(eg));
                assert_eq!(
                    shared,
                    solo,
                    "shared trie vs per-pattern VM diverged for rule {} on e-graph #{i} at {threads} threads",
                    rule.name()
                );
                assert_eq!(
                    shared,
                    oracle,
                    "shared trie vs oracle diverged for rule {} on e-graph #{i}",
                    rule.name()
                );
            }
        }
    }
}

#[test]
fn vm_matches_oracle_through_rewrite_search() {
    // The `Rewrite::search` entry point (what the saturation runner
    // uses, modulo scheduling limits) agrees with the oracle as well.
    let egraphs = test_egraphs();
    let rules: Vec<egraph::Rewrite<BoolLang, ()>> = rules::r1_rules();
    for eg in &egraphs {
        for rule in &rules {
            let vm = flatten(rule.search(eg));
            let oracle = flatten(rule.searcher().search_oracle(eg));
            assert_eq!(vm, oracle, "rule {} diverged", rule.name());
        }
    }
}
