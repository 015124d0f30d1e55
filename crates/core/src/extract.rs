//! DAG-based exact extraction (Section IV-B, Algorithm 2).
//!
//! The cost function maximizes the number of *distinct* full adders in
//! the extracted DAG — each shared FA is counted once — with a
//! weighted-depth tie-breaker. Per e-class we maintain a cost set (the
//! set of FA tuple-class ids reachable through the chosen sub-DAG);
//! `fst`, `snd`, and `fa` are selected atomically because the
//! projections' only child is the FA tuple class itself.
//!
//! The selection is one improving worklist fixpoint (Algorithm 2) and
//! is acyclic at all times, so the reconstructor can follow it
//! directly. A class may later switch to a different, strictly better
//! e-node; that switch is refused when the chosen sub-DAG below the
//! new node already reaches the class, since adopting it would close
//! a cycle. Only switches need the check:
//!
//! * a first adoption cannot close a cycle, because choices only point
//!   at classes that already have one;
//! * re-adopting the same e-node with a larger FA set adds no edge.
//!
//! Following the paper's memory optimization, cost sets store FA ids
//! as `u16` when the e-graph has fewer than 65 536 classes and `u32`
//! otherwise.

use egraph::hash::{FxHashMap, FxHashSet};
use egraph::{EGraph, Id, Language};

use crate::BoolLang;

/// A compact sorted set of FA identifiers with adaptive width
/// (the paper's u16/u32 cost-map key optimization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaSet {
    /// 16-bit ids (e-graphs below 65 536 classes).
    Small(Vec<u16>),
    /// 32-bit ids.
    Large(Vec<u32>),
}

impl FaSet {
    fn empty(small: bool) -> FaSet {
        if small {
            FaSet::Small(Vec::new())
        } else {
            FaSet::Large(Vec::new())
        }
    }

    fn singleton(id: usize, small: bool) -> FaSet {
        if small {
            FaSet::Small(vec![id as u16])
        } else {
            FaSet::Large(vec![id as u32])
        }
    }

    /// Number of FAs in the set.
    pub fn len(&self) -> usize {
        match self {
            FaSet::Small(v) => v.len(),
            FaSet::Large(v) => v.len(),
        }
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the ids as `usize`.
    pub fn iter(&self) -> Box<dyn Iterator<Item = usize> + '_> {
        match self {
            FaSet::Small(v) => Box::new(v.iter().map(|&x| x as usize)),
            FaSet::Large(v) => Box::new(v.iter().map(|&x| x as usize)),
        }
    }

    fn merge(&mut self, other: &FaSet) {
        match (self, other) {
            (FaSet::Small(a), FaSet::Small(b)) => merge_sorted(a, b),
            (FaSet::Large(a), FaSet::Large(b)) => merge_sorted(a, b),
            _ => panic!("mixed FaSet widths"),
        }
    }
}

fn merge_sorted<T: Ord + Copy>(a: &mut Vec<T>, b: &[T]) {
    if b.is_empty() {
        return;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    *a = out;
}

/// The chosen e-node and cost for one e-class.
#[derive(Debug, Clone)]
pub struct DagChoice {
    /// The selected e-node (children are canonical class ids).
    pub node: BoolLang,
    /// FA tuple classes reachable through the selection.
    pub fas: FaSet,
    /// Weighted-depth tie-breaker (max-plus over children; cannot
    /// saturate, unlike tree size).
    pub size: u64,
}

/// The result of DAG extraction: one acyclic choice per reachable
/// e-class.
#[derive(Debug)]
pub struct DagExtraction {
    choices: FxHashMap<Id, DagChoice>,
    /// FA-id → e-class mapping used by the cost sets.
    fa_index: Vec<Id>,
}

impl DagExtraction {
    /// The choice for `class`, if it was extractable.
    pub fn choice(&self, class: Id) -> Option<&DagChoice> {
        self.choices.get(&class)
    }

    /// The distinct FA tuple classes claimed by the cost sets of
    /// `roots` (each counted once — the paper's exact-FA count). The
    /// reconstructor reports the realized count, which is smaller only
    /// when a cost set went stale: a parent keeps its set when a child
    /// switches to a larger FA set whose union with its siblings would
    /// be smaller, so the set may name FAs the selection no longer
    /// reaches.
    pub fn selected_fas(&self, egraph: &EGraph<BoolLang>, roots: &[Id]) -> Vec<Id> {
        let mut merged: Vec<usize> = Vec::new();
        for &root in roots {
            if let Some(choice) = self.choices.get(&egraph.find(root)) {
                let ids: Vec<usize> = choice.fas.iter().collect();
                merge_sorted(&mut merged, &ids);
            }
        }
        merged.into_iter().map(|i| self.fa_index[i]).collect()
    }

    /// Number of e-classes with a choice.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Returns `true` if nothing was extractable.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }
}

/// Approximate AIG cost of materializing one operator. Strictly
/// positive for every operator with children so that depth strictly
/// increases along selection edges.
fn node_size(node: &BoolLang) -> u64 {
    match node {
        BoolLang::Const(_) | BoolLang::Var(_) => 0,
        BoolLang::Not(_) | BoolLang::Fst(_) | BoolLang::Snd(_) => 1,
        BoolLang::And(_) | BoolLang::Or(_) => 2,
        BoolLang::Xor(_) => 4,
        BoolLang::Xor3(_) => 7,
        BoolLang::Maj(_) => 6,
        // The FA pair shares its XOR/MAJ structure across both outputs.
        BoolLang::Fa(_) => 9,
    }
}

/// Runs the fixed-point DAG extraction over the whole e-graph
/// (Algorithm 2). Classes unreachable from any leaf remain without a
/// choice.
///
/// # Panics
///
/// Panics if the e-graph is not clean.
pub fn extract_dag(egraph: &EGraph<BoolLang>) -> DagExtraction {
    assert!(egraph.is_clean(), "extraction requires a clean e-graph");
    // Index FA tuple classes for compact cost sets.
    let fa_index: Vec<Id> = crate::pair::fa_classes(egraph);
    let fa_pos: FxHashMap<Id, usize> = fa_index
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, i))
        .collect();
    let small = fa_index.len() < u16::MAX as usize && egraph.num_classes() < u16::MAX as usize;

    // Parent index: which classes reference a class as a child
    // (Algorithm 2's `node.parents()`).
    let mut parents: FxHashMap<Id, Vec<Id>> = FxHashMap::default();
    let mut id_bound = 0;
    for class in egraph.classes() {
        id_bound = id_bound.max(class.id.index() + 1);
        for node in class.iter() {
            for &c in node.children() {
                let entry = parents.entry(egraph.find(c)).or_default();
                if entry.last() != Some(&class.id) {
                    entry.push(class.id);
                }
            }
        }
    }
    let seed: Vec<Id> = egraph
        .classes()
        .filter(|class| class.iter().any(|n| n.is_leaf()))
        .map(|class| class.id)
        .collect();

    let choices = drain(egraph, &parents, &fa_pos, small, id_bound, seed);
    DagExtraction { choices, fa_index }
}

/// The improving-worklist drain of Algorithm 2, starting from the leaf
/// classes in `seed`. The selection stays acyclic throughout: a switch
/// to a different e-node whose chosen sub-DAG reaches the class is
/// skipped.
fn drain(
    egraph: &EGraph<BoolLang>,
    parents: &FxHashMap<Id, Vec<Id>>,
    fa_pos: &FxHashMap<Id, usize>,
    small: bool,
    id_bound: usize,
    seed: Vec<Id>,
) -> FxHashMap<Id, DagChoice> {
    let mut choices: FxHashMap<Id, DagChoice> = FxHashMap::default();
    let mut walk = Walk {
        seen: vec![0; id_bound],
        epoch: 0,
        stack: Vec::new(),
    };
    let mut queue: std::collections::VecDeque<Id> = seed.into();
    let mut queued: FxHashSet<Id> = queue.iter().copied().collect();
    while let Some(class_id) = queue.pop_front() {
        queued.remove(&class_id);
        let class = egraph.eclass(class_id);
        let current = choices.get(&class_id);
        let mut best: Option<DagChoice> = None;
        for node in class.iter() {
            // All children must be selected already.
            let eligible = node.children().iter().all(|&c| {
                let c = egraph.find(c);
                c != class_id && choices.contains_key(&c)
            });
            if !eligible {
                continue;
            }
            let mut fas = FaSet::empty(small);
            let mut size = node_size(node);
            for &c in node.children() {
                let child = &choices[&egraph.find(c)];
                fas.merge(&child.fas);
                size = size.max(node_size(node) + child.size);
            }
            if let BoolLang::Fa(_) = node {
                let pos = fa_pos[&egraph.find(class_id)];
                fas.merge(&FaSet::singleton(pos, small));
            }
            let better = match best.as_ref().or(current) {
                None => true,
                Some(b) => fas.len() > b.fas.len() || (fas.len() == b.fas.len() && size < b.size),
            };
            if !better {
                continue;
            }
            if current.is_some_and(|c| c.node != *node)
                && walk.reaches(egraph, &choices, node, class_id)
            {
                continue;
            }
            best = Some(DagChoice {
                node: node.clone(),
                fas,
                size,
            });
        }
        if let Some(best) = best {
            choices.insert(class_id, best);
            // Cost map update: re-enqueue the parents (Algorithm 2
            // line 16). FA tuple classes go first: they only need
            // their three inputs, and the XOR3/MAJ consumer classes
            // adopt their fst/snd projections once they have a choice.
            if let Some(ps) = parents.get(&class_id) {
                for &p in ps {
                    if queued.insert(p) {
                        if fa_pos.contains_key(&p) {
                            queue.push_front(p);
                        } else {
                            queue.push_back(p);
                        }
                    }
                }
            }
        }
    }
    choices
}

/// Depth-first walk over the chosen sub-DAG with an epoch-stamped
/// visited table indexed by class id.
struct Walk {
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<Id>,
}

impl Walk {
    /// Whether the current selection below `node`'s children reaches
    /// `target`, i.e. whether `target` adopting `node` would close a
    /// cycle.
    fn reaches(
        &mut self,
        egraph: &EGraph<BoolLang>,
        choices: &FxHashMap<Id, DagChoice>,
        node: &BoolLang,
        target: Id,
    ) -> bool {
        self.epoch += 1;
        self.stack.clear();
        self.stack
            .extend(node.children().iter().map(|&c| egraph.find(c)));
        while let Some(class) = self.stack.pop() {
            if class == target {
                return true;
            }
            if std::mem::replace(&mut self.seen[class.index()], self.epoch) == self.epoch {
                continue;
            }
            self.stack.extend(
                choices[&class]
                    .node
                    .children()
                    .iter()
                    .map(|&c| egraph.find(c)),
            );
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::pair_full_adders;
    use egraph::RecExpr;

    #[test]
    fn fa_set_merge_dedups() {
        let mut a = FaSet::Small(vec![1, 3, 5]);
        a.merge(&FaSet::Small(vec![2, 3, 6]));
        assert_eq!(a, FaSet::Small(vec![1, 2, 3, 5, 6]));
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn extraction_prefers_fa_projections() {
        let mut eg: EGraph<BoolLang> = EGraph::default();
        let sum = eg.add_expr(&"(^3 p q r)".parse::<RecExpr<BoolLang>>().unwrap());
        let carry = eg.add_expr(&"(maj p q r)".parse::<RecExpr<BoolLang>>().unwrap());
        eg.rebuild();
        pair_full_adders(&mut eg);
        let ex = extract_dag(&eg);
        let sum_choice = ex.choice(eg.find(sum)).unwrap();
        let carry_choice = ex.choice(eg.find(carry)).unwrap();
        assert!(matches!(sum_choice.node, BoolLang::Snd(_)));
        assert!(matches!(carry_choice.node, BoolLang::Fst(_)));
        let fas = ex.selected_fas(&eg, &[sum, carry]);
        assert_eq!(fas.len(), 1, "shared FA counted once");
    }

    #[test]
    fn selection_is_acyclic_on_a_saturated_multiplier() {
        // At small params the fixpoint on this netlist proposes
        // switches that would close a cycle in the selection.
        let netlist = aig::opt::dch(&aig::gen::csa_multiplier(6));
        let params = crate::SaturateParams::small().without_time_limit();
        let (mut net, _) =
            crate::saturate::saturate(crate::convert::aig_to_egraph(&netlist), &params);
        pair_full_adders(&mut net.egraph);
        let eg = &net.egraph;
        let ex = extract_dag(eg);
        assert!(!ex.is_empty());
        // Depth-first walk of the chosen sub-DAG from every class with
        // a choice; re-entering a class still on the path is a cycle.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            New,
            OnPath,
            Done,
        }
        let mut mark: FxHashMap<Id, Mark> = FxHashMap::default();
        for class in eg.classes() {
            if ex.choice(class.id).is_none() || mark.contains_key(&class.id) {
                continue;
            }
            let mut stack = vec![(class.id, 0)];
            mark.insert(class.id, Mark::OnPath);
            while let Some((id, next)) = stack.pop() {
                let children = ex.choice(id).unwrap().node.children();
                let Some(&child) = children.get(next) else {
                    mark.insert(id, Mark::Done);
                    continue;
                };
                stack.push((id, next + 1));
                let child = eg.find(child);
                match mark.get(&child).copied().unwrap_or(Mark::New) {
                    Mark::OnPath => panic!("selection re-enters e-class {child}"),
                    Mark::Done => {}
                    Mark::New => {
                        mark.insert(child, Mark::OnPath);
                        stack.push((child, 0));
                    }
                }
            }
        }
    }

    #[test]
    fn shared_fa_counted_once_across_roots() {
        let mut eg: EGraph<BoolLang> = EGraph::default();
        let sum = eg.add_expr(&"(^3 p q r)".parse::<RecExpr<BoolLang>>().unwrap());
        let carry = eg.add_expr(&"(maj p q r)".parse::<RecExpr<BoolLang>>().unwrap());
        // Two downstream users of the same FA outputs.
        let u1 = eg.add(BoolLang::And([sum, carry]));
        let u2 = eg.add(BoolLang::Or([sum, carry]));
        eg.rebuild();
        pair_full_adders(&mut eg);
        let ex = extract_dag(&eg);
        assert_eq!(ex.selected_fas(&eg, &[u1, u2]).len(), 1);
    }

    #[test]
    fn unpaired_classes_extract_normally() {
        let mut eg: EGraph<BoolLang> = EGraph::default();
        let root = eg.add_expr(&"(& (| p q) r)".parse::<RecExpr<BoolLang>>().unwrap());
        eg.rebuild();
        let ex = extract_dag(&eg);
        let choice = ex.choice(eg.find(root)).unwrap();
        assert!(choice.fas.is_empty());
        assert!(matches!(choice.node, BoolLang::And(_)));
    }

    #[test]
    fn chained_fas_all_counted() {
        // carry of one FA feeds another FA.
        let mut eg: EGraph<BoolLang> = EGraph::default();
        let c1 = eg.add_expr(&"(maj p q r)".parse::<RecExpr<BoolLang>>().unwrap());
        eg.add_expr(&"(^3 p q r)".parse::<RecExpr<BoolLang>>().unwrap());
        let s = eg.add(BoolLang::var("s"));
        let t = eg.add(BoolLang::var("t"));
        let sum2 = eg.add(BoolLang::Xor3([c1, s, t]));
        let carry2 = eg.add(BoolLang::Maj([c1, s, t]));
        eg.rebuild();
        let stats = pair_full_adders(&mut eg);
        assert_eq!(stats.fa_inserted, 2);
        let ex = extract_dag(&eg);
        assert_eq!(ex.selected_fas(&eg, &[sum2, carry2]).len(), 2);
    }
}
