//! The compiled e-matching virtual machine.
//!
//! Following the abstract-machine design of egg (Willsey et al., POPL
//! 2021), every [`Pattern`] is compiled **once** (at
//! construction) into a linear [`Program`] of instructions executed
//! against a bank of registers holding e-class [`Id`]s:
//!
//! * [`Instruction::Bind`] — iterate the e-nodes of the class in
//!   register `i` that match a pattern operator, writing each node's
//!   children into fresh registers (the only backtracking point);
//! * [`Instruction::Compare`] — require two registers to name the same
//!   e-class: a repeated variable (e.g. `(& ?a ?a)`), or a repeated
//!   e-node subterm, which is compared against the register holding
//!   its first occurrence instead of being matched again;
//! * [`Instruction::Check`] — require the register to be the class of
//!   a [`BoundTerm`]: a subterm whose variables are all bound by the
//!   time the depth-first walk reaches it;
//! * [`Instruction::Lookup`] — require the register to be the class of
//!   a *ground* (variable-free) subterm, resolved once per search via
//!   the e-graph's hash-cons `memo` instead of structural scanning;
//! * [`Instruction::Scan`] — enumerate every e-class (emitted only for
//!   root-variable patterns like `?x`, where the driver loop performs
//!   the enumeration).
//!
//! # Bound and repeated subterms
//!
//! Once every variable of a subterm is bound, the subterm denotes one
//! term, and on a clean e-graph hash-consing and congruence closure
//! leave at most one class — and, level by level, at most one
//! canonical e-node — that represents it. Matching it with
//! `Bind`/`Compare` would re-enumerate whole classes to find that one
//! path, and only that path can continue. `Check` decides it
//! directly: a class of at most [`BOUND_SCAN_LIMIT`] e-nodes is
//! scanned top-down (register children compared before recursing,
//! stopping at the first success); a larger class is answered by
//! resolving the subterm bottom-up through the memo
//! ([`EGraph::lookup`]). A repeated subterm is the special case whose
//! class already sits in a register. Both rewrites only drop paths
//! that could never emit, so emission order and the per-class cap are
//! unchanged, and match sets equal the plain `Bind` compilation's
//! wherever that one did not run out of budget.
//!
//! # Limits
//!
//! Unlike the classic backtracking matcher this replaces, the VM never
//! allocates or clones a substitution while searching: bindings live in
//! the register bank, and a [`Subst`] is materialized only for each
//! *surviving* match. The work budget ([`MATCH_WORK_BUDGET`]) is
//! charged one unit per e-node visited (by `Bind` or a `Check` scan)
//! and per memo probe (by a `Check` resolution); the per-class match
//! cap ([`MAX_SUBSTS_PER_CLASS`]) and a cooperative [`CancelToken`] are
//! enforced *inside* the VM loop too, so cancellation latency is
//! bounded by [`CANCEL_CHECK_QUANTUM`] budget units rather than by a
//! whole rule search.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::hash::FxHashMap;
use crate::pattern::ENodeOrVar;
use crate::{
    Analysis, CancelToken, EGraph, Id, Language, Pattern, RecExpr, SearchMatches, Subst, Var,
    MATCH_WORK_BUDGET, MAX_SUBSTS_PER_CLASS,
};

/// A register index in the VM's register bank.
pub type Reg = u16;

/// One instruction of a compiled pattern program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instruction<L> {
    /// Iterate the e-nodes of class `regs[i]` whose operator and arity
    /// match `node`; for each, write the children into
    /// `regs[out..out + arity]` and continue (backtracking point).
    Bind {
        /// The pattern e-node to match (only its operator and arity
        /// are consulted; its child ids index the pattern AST).
        node: L,
        /// Register holding the class to scan.
        i: Reg,
        /// First output register for the matched node's children.
        out: Reg,
    },
    /// Continue only if `regs[i]` and `regs[j]` are the same class
    /// (a repeated variable or a repeated e-node subterm).
    Compare {
        /// First register.
        i: Reg,
        /// Second register.
        j: Reg,
    },
    /// Continue only if `regs[i]` is the class of the fully bound
    /// subterm `term` (see [`BoundTerm`]).
    Check {
        /// The subterm, over registers bound earlier in the program.
        term: Box<BoundTerm<L>>,
        /// Register holding the class to test.
        i: Reg,
    },
    /// Continue only if `regs[i]` is the class of the ground term
    /// `ground_terms[term]` (resolved through the hash-cons memo once
    /// per search).
    Lookup {
        /// Index into [`Program`]'s ground-term table.
        term: usize,
        /// Register to compare against.
        i: Reg,
    },
    /// Enumerate all e-classes into register `out`. Emitted only as
    /// the first (and sole) instruction of root-variable patterns; the
    /// search driver performs the class enumeration.
    Scan {
        /// Register receiving each class.
        out: Reg,
    },
}

/// How often (in budget units) the VM polls its [`CancelToken`]: a
/// cancellation request stops the search within one such quantum.
pub const CANCEL_CHECK_QUANTUM: usize = 256;

/// The largest class a [`Instruction::Check`] scans; larger classes
/// resolve the bound subterm through the hash-cons memo instead.
pub const BOUND_SCAN_LIMIT: usize = 8;

/// An operand of a [`BoundTerm`] node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// The class in this register: a bound variable, or an e-node
    /// subterm matched earlier in the program.
    Reg(Reg),
    /// Another node of the same term (an index into its nodes).
    Node(u32),
}

/// A non-ground pattern subterm whose variables are all bound when
/// the program reaches it, compiled for [`Instruction::Check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundTerm<L> {
    /// The term's e-nodes in post-order (the root last). Each node's
    /// own child ids are zeroed; its operands say what they are.
    nodes: Vec<(L, Vec<Operand>)>,
}

impl<L: Language> BoundTerm<L> {
    /// Decides whether `class` represents the term under `regs`,
    /// charging `budget` one unit per e-node visited or memo probe.
    fn check<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        class: Id,
        regs: &[Id],
        budget: &mut usize,
        cancel: &CancelToken,
    ) -> Result<bool, RunOutcome> {
        self.represents(egraph, self.nodes.len() - 1, class, regs, budget, cancel)
    }

    /// Whether `class` represents node `n`: a top-down scan of small
    /// classes that stops at the first e-node whose register children
    /// agree and whose node children are represented, or a memo
    /// resolution for classes above [`BOUND_SCAN_LIMIT`].
    fn represents<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        n: usize,
        class: Id,
        regs: &[Id],
        budget: &mut usize,
        cancel: &CancelToken,
    ) -> Result<bool, RunOutcome> {
        let eclass = egraph.eclass(class);
        if eclass.len() > BOUND_SCAN_LIMIT {
            let resolved = self.resolve(egraph, n, regs, budget, cancel)?;
            return Ok(resolved == Some(egraph.find(class)));
        }
        let (pat, operands) = &self.nodes[n];
        'enodes: for enode in eclass.iter() {
            charge(budget, cancel)?;
            if !pat.matches(enode) {
                continue;
            }
            for (op, &child) in operands.iter().zip(enode.children()) {
                if let Operand::Reg(r) = *op {
                    if egraph.find(child) != egraph.find(regs[r as usize]) {
                        continue 'enodes;
                    }
                }
            }
            for (op, &child) in operands.iter().zip(enode.children()) {
                if let Operand::Node(m) = *op {
                    if !self.represents(egraph, m as usize, child, regs, budget, cancel)? {
                        continue 'enodes;
                    }
                }
            }
            return Ok(true);
        }
        Ok(false)
    }

    /// The class of node `n`, found bottom-up through the memo
    /// (`None` if some level of it is absent from the e-graph).
    fn resolve<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        n: usize,
        regs: &[Id],
        budget: &mut usize,
        cancel: &CancelToken,
    ) -> Result<Option<Id>, RunOutcome> {
        let (pat, operands) = &self.nodes[n];
        let mut enode = pat.clone();
        for (child, op) in enode.children_mut().iter_mut().zip(operands) {
            *child = match *op {
                Operand::Reg(r) => regs[r as usize],
                Operand::Node(m) => match self.resolve(egraph, m as usize, regs, budget, cancel)? {
                    Some(id) => id,
                    None => return Ok(None),
                },
            };
        }
        charge(budget, cancel)?;
        Ok(egraph.lookup(&enode))
    }
}

/// Spends one unit of `budget`, polling `cancel` whenever the
/// remaining budget crosses a [`CANCEL_CHECK_QUANTUM`] boundary.
/// `#[inline]`: it runs once per e-node visit, inside VM loops that
/// are instantiated in downstream crates.
#[inline]
fn charge(budget: &mut usize, cancel: &CancelToken) -> Result<(), RunOutcome> {
    if *budget == 0 {
        return Err(RunOutcome::BudgetExhausted);
    }
    *budget -= 1;
    if budget.is_multiple_of(CANCEL_CHECK_QUANTUM) && cancel.is_cancelled() {
        return Err(RunOutcome::Cancelled);
    }
    Ok(())
}

/// Why a program run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The whole match space was enumerated.
    Complete,
    /// The per-class substitution cap was reached.
    SubstLimit,
    /// The work budget was exhausted.
    BudgetExhausted,
    /// The [`CancelToken`] was set; the driver should stop the whole
    /// search, not just this class.
    Cancelled,
}

/// A pattern compiled to VM instructions (see the module docs).
#[derive(Debug, Clone)]
pub struct Program<L> {
    instructions: Vec<Instruction<L>>,
    ground_terms: Vec<RecExpr<L>>,
    /// `(var, register)` pairs in first-occurrence order; materializing
    /// a match reads these registers into a [`Subst`].
    subst_template: Vec<(Var, Reg)>,
    n_regs: usize,
}

impl<L: Language> Program<L> {
    /// Compiles a pattern AST. Instructions follow the pattern's
    /// depth-first preorder (root first, children left to right), which
    /// keeps the VM's match enumeration order aligned with the
    /// classic recursive matcher. Per e-node subterm, in order of
    /// preference: a ground one compiles to `Lookup`, one structurally
    /// equal to a subterm matched earlier to `Compare`, one whose
    /// variables are all bound to `Check`, and any other to `Bind`.
    pub fn compile(ast: &RecExpr<ENodeOrVar<L>>) -> Self {
        let mut compiler = Compiler {
            ast,
            ground: ground_map(ast),
            shape: shape_map(ast),
            matched: Vec::new(),
            prog: Program {
                instructions: Vec::new(),
                ground_terms: Vec::new(),
                subst_template: Vec::new(),
                n_regs: 1,
            },
        };
        let root = ast.root();
        if let ENodeOrVar::Var(v) = &ast[root] {
            compiler
                .prog
                .instructions
                .push(Instruction::Scan { out: 0 });
            compiler.prog.subst_template.push((*v, 0));
            return compiler.prog;
        }
        compiler.compile_node(root, 0);
        compiler.prog
    }

    /// Returns `true` if this program starts with a [`Instruction::Scan`]
    /// (i.e. the pattern is a bare variable and every class matches).
    pub fn is_scan(&self) -> bool {
        matches!(self.instructions.first(), Some(Instruction::Scan { .. }))
    }

    /// Number of registers the VM needs.
    pub fn n_regs(&self) -> usize {
        self.n_regs
    }

    /// The compiled instructions (for inspection and tests).
    pub fn instructions(&self) -> &[Instruction<L>] {
        &self.instructions
    }

    /// Resolves every ground subterm through the e-graph's hash-cons
    /// memo. Returns `None` if some ground subterm does not exist in
    /// the e-graph — the pattern then has no matches at all and the
    /// whole search can stop before scanning a single class.
    pub fn resolve_ground_terms<N: Analysis<L>>(&self, egraph: &EGraph<L, N>) -> Option<Vec<Id>> {
        self.ground_terms
            .iter()
            .map(|t| egraph.lookup_expr(t).map(|id| egraph.find(id)))
            .collect()
    }

    /// Runs the program against one candidate e-class, appending a
    /// [`Subst`] to `substs` for every match found. `ground` must come
    /// from [`Program::resolve_ground_terms`] on the same (clean)
    /// e-graph; `regs` is the reusable register bank (resized here, so
    /// one allocation serves a whole multi-class search). `budget` is
    /// decremented once per e-node visited or memo probe; matching
    /// stops when it reaches zero, when `substs` has grown by
    /// `max_substs`, or within [`CANCEL_CHECK_QUANTUM`] units of
    /// `cancel` being set.
    #[allow(clippy::too_many_arguments)]
    pub fn run<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        eclass: Id,
        ground: &[Id],
        regs: &mut Vec<Id>,
        substs: &mut Vec<Subst>,
        budget: &mut usize,
        max_substs: usize,
        cancel: &CancelToken,
    ) -> RunOutcome {
        debug_assert!(!self.is_scan(), "Scan programs are driven by the caller");
        regs.clear();
        regs.resize(self.n_regs, Id::from_index(0));
        regs[0] = egraph.find(eclass);
        let mut machine = Machine {
            regs,
            found: 0,
            max_substs,
            cancel,
        };
        machine.exec(egraph, self, ground, 0, budget, substs)
    }

    /// Materializes the current register bank into a substitution (used
    /// by the driver for [`Instruction::Scan`] patterns, where the sole
    /// register already holds the class).
    pub(crate) fn subst_for_class(&self, eclass: Id) -> Subst {
        Subst::from_pairs(
            self.subst_template
                .iter()
                .map(|&(v, _)| (v, eclass))
                .collect(),
        )
    }
}

/// Compilation state of one [`Program`].
struct Compiler<'a, L> {
    ast: &'a RecExpr<ENodeOrVar<L>>,
    /// Per AST node: whether its subtree is variable-free.
    ground: Vec<bool>,
    /// Per AST node: its structural class (equal iff the subtrees are
    /// equal).
    shape: Vec<usize>,
    /// `(shape, register)` of every e-node subterm whose class sits in
    /// a register once its instructions have run.
    matched: Vec<(usize, Reg)>,
    prog: Program<L>,
}

impl<L: Language> Compiler<'_, L> {
    fn compile_node(&mut self, pat: Id, reg: Reg) {
        let ast = self.ast;
        match &ast[pat] {
            ENodeOrVar::Var(v) => match self.var_reg(*v) {
                Some(first) => self
                    .prog
                    .instructions
                    .push(Instruction::Compare { i: reg, j: first }),
                None => self.prog.subst_template.push((*v, reg)),
            },
            ENodeOrVar::ENode(_) if self.ground[pat.index()] => {
                let term = self.prog.ground_terms.len();
                self.prog.ground_terms.push(extract_ground_term(ast, pat));
                self.prog
                    .instructions
                    .push(Instruction::Lookup { term, i: reg });
            }
            ENodeOrVar::ENode(node) => {
                if let Some(first) = self.matched_reg(pat) {
                    self.prog
                        .instructions
                        .push(Instruction::Compare { i: reg, j: first });
                    return;
                }
                if self.all_bound(pat) {
                    let mut term = BoundTerm { nodes: Vec::new() };
                    self.bound_operand(&mut term, pat);
                    self.prog.instructions.push(Instruction::Check {
                        term: Box::new(term),
                        i: reg,
                    });
                } else {
                    let arity = node.children().len();
                    // Guard the *last* output register too, not just
                    // the base: `out + arity - 1` must stay within
                    // `Reg`.
                    assert!(
                        self.prog.n_regs + arity <= usize::from(Reg::MAX) + 1,
                        "pattern too large for register file"
                    );
                    let out = self.prog.n_regs as Reg;
                    self.prog.n_regs += arity;
                    self.prog.instructions.push(Instruction::Bind {
                        node: node.clone(),
                        i: reg,
                        out,
                    });
                    for (k, &child) in node.children().iter().enumerate() {
                        self.compile_node(child, out + k as Reg);
                    }
                }
                self.matched.push((self.shape[pat.index()], reg));
            }
        }
    }

    /// The register a variable was first bound to, if any.
    fn var_reg(&self, v: Var) -> Option<Reg> {
        let template = &self.prog.subst_template;
        template.iter().find(|(u, _)| *u == v).map(|&(_, r)| r)
    }

    /// The register of an earlier matched subterm equal to `pat`.
    fn matched_reg(&self, pat: Id) -> Option<Reg> {
        let shape = self.shape[pat.index()];
        self.matched
            .iter()
            .find(|(s, _)| *s == shape)
            .map(|&(_, r)| r)
    }

    /// Whether every variable under `pat` is already bound.
    fn all_bound(&self, pat: Id) -> bool {
        match &self.ast[pat] {
            ENodeOrVar::Var(v) => self.var_reg(*v).is_some(),
            ENodeOrVar::ENode(n) => n.children().iter().all(|&c| self.all_bound(c)),
        }
    }

    /// Appends `pat` to `term` in post-order, referring to registers
    /// for bound variables and for subterms already matched.
    fn bound_operand(&self, term: &mut BoundTerm<L>, pat: Id) -> Operand {
        if let Some(r) = self.matched_reg(pat) {
            return Operand::Reg(r);
        }
        match &self.ast[pat] {
            ENodeOrVar::Var(v) => Operand::Reg(self.var_reg(*v).expect("bound variable")),
            ENodeOrVar::ENode(n) => {
                let operands = n
                    .children()
                    .iter()
                    .map(|&c| self.bound_operand(term, c))
                    .collect();
                term.nodes
                    .push((n.map_children(|_| Id::from_index(0)), operands));
                Operand::Node(term.nodes.len() as u32 - 1)
            }
        }
    }
}

struct Machine<'a> {
    regs: &'a mut Vec<Id>,
    found: usize,
    max_substs: usize,
    cancel: &'a CancelToken,
}

impl Machine<'_> {
    /// Executes instructions from `pc` on, backtracking over
    /// [`Instruction::Bind`] choices; complete register banks are
    /// materialized into `out`.
    fn exec<L: Language, N: Analysis<L>>(
        &mut self,
        egraph: &EGraph<L, N>,
        prog: &Program<L>,
        ground: &[Id],
        pc: usize,
        budget: &mut usize,
        out: &mut Vec<Subst>,
    ) -> RunOutcome {
        let Some(instruction) = prog.instructions.get(pc) else {
            out.push(Subst::from_pairs(
                prog.subst_template
                    .iter()
                    .map(|&(v, r)| (v, self.regs[r as usize]))
                    .collect(),
            ));
            self.found += 1;
            return if self.found >= self.max_substs {
                RunOutcome::SubstLimit
            } else {
                RunOutcome::Complete
            };
        };
        match instruction {
            Instruction::Bind {
                node,
                i,
                out: out_reg,
            } => {
                let class = egraph.eclass(self.regs[*i as usize]);
                for enode in class.iter() {
                    if let Err(stop) = charge(budget, self.cancel) {
                        return stop;
                    }
                    if !node.matches(enode) {
                        continue;
                    }
                    let base = *out_reg as usize;
                    for (k, &child) in enode.children().iter().enumerate() {
                        self.regs[base + k] = child;
                    }
                    match self.exec(egraph, prog, ground, pc + 1, budget, out) {
                        RunOutcome::Complete => {}
                        stop => return stop,
                    }
                }
                RunOutcome::Complete
            }
            Instruction::Compare { i, j } => {
                if egraph.find(self.regs[*i as usize]) == egraph.find(self.regs[*j as usize]) {
                    self.exec(egraph, prog, ground, pc + 1, budget, out)
                } else {
                    RunOutcome::Complete
                }
            }
            Instruction::Check { term, i } => {
                match term.check(
                    egraph,
                    self.regs[*i as usize],
                    self.regs,
                    budget,
                    self.cancel,
                ) {
                    Ok(true) => self.exec(egraph, prog, ground, pc + 1, budget, out),
                    Ok(false) => RunOutcome::Complete,
                    Err(stop) => stop,
                }
            }
            Instruction::Lookup { term, i } => {
                if ground[*term] == egraph.find(self.regs[*i as usize]) {
                    self.exec(egraph, prog, ground, pc + 1, budget, out)
                } else {
                    RunOutcome::Complete
                }
            }
            Instruction::Scan { .. } => unreachable!("Scan only occurs at pc 0 of var patterns"),
        }
    }
}

/// What a scheduler wants done with one rule during a shared
/// multi-pattern search (see [`RuleSetProgram::search`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleDirective {
    /// Do not search the rule at all this iteration (e.g. a backoff
    /// ban). The rule still gets a (empty) match slot, not a skip.
    Skip,
    /// Search the rule; stop visiting further classes for it once its
    /// total substitution count exceeds the limit (the boundary class
    /// is kept whole, exactly like
    /// [`Pattern::search_with_limit`]).
    Limit(usize),
}

/// One rule's match emission point in the trie: when execution reaches
/// the node holding this leaf, the register bank satisfies the rule's
/// whole program.
struct RuleLeaf {
    rule: usize,
    subst_template: Vec<(Var, Reg)>,
}

/// A trie node: one shared instruction, the nodes that continue it,
/// and the rules whose programs end exactly here.
struct TrieNode<L> {
    instruction: Instruction<L>,
    children: Vec<usize>,
    outputs: Vec<RuleLeaf>,
}

/// A top-level execution unit of the trie. `Ops` branches cover every
/// rule whose program starts with a `Bind`/`Lookup` on the same root
/// operator (driven over `classes_with_op`); each var-rooted (`Scan`)
/// pattern is its own branch driven over all classes.
struct Branch<D> {
    kind: BranchKind<D>,
    /// The rules this branch searches, in ascending rule index.
    rules: Vec<usize>,
}

/// One step of a node's precomputed child-execution plan. Sibling
/// `Bind`s that scan the *same* register are merged into one pass over
/// the class's e-nodes — each e-node is dispatched to the (at most
/// one) member whose operator it carries — instead of one full scan
/// per sibling. This is where multi-pattern sharing pays beyond the
/// common prefix: the e-node list is walked once for the whole fan.
///
/// Merging never changes results: distinct members always test
/// distinct (operator, arity) keys (identical ones would have been
/// deduplicated into one trie node), so each e-node continues into
/// exactly the member a solo run would have matched it against, in
/// the same class-order the solo scan uses.
enum ChildGroup<L> {
    /// A child executed on its own: any non-`Bind` child, or a `Bind`
    /// with no same-register sibling (byte-identical to the solo VM,
    /// including the budget counting).
    Single(u32),
    /// Two or more sibling `Bind`s scanning register `i`, in child
    /// (= first-rule) order. Member data is copied out of the trie
    /// nodes into this contiguous array so the per-e-node dispatch
    /// loop walks one cache line instead of chasing trie indices.
    MergedBinds {
        i: Reg,
        members: Vec<MergedMember<L>>,
    },
}

/// One `Bind` participating in a merged sibling scan: the trie node
/// it stands for, plus a copy of that node's pattern e-node and
/// output-register base (the only fields the dispatch loop reads).
struct MergedMember<L> {
    node: u32,
    pat: L,
    out: Reg,
}

enum BranchKind<D> {
    Ops { disc: D, roots: Vec<usize> },
    Scan,
}

/// A whole ruleset's LHS patterns compiled into one shared matcher: a
/// trie over instruction prefixes, executed once per root-op bucket
/// per iteration instead of once per rule.
///
/// The per-pattern compiler already assigns registers canonically
/// (DFS preorder, registers handed out per `Bind` in instruction
/// order), so two programs with structurally identical prefixes emit
/// *identical* instruction prefixes — the trie only has to normalize
/// the parts of an instruction that are incidentally
/// pattern-specific: `Bind` child ids (which index the private
/// pattern AST and are never read by the VM) are zeroed, and `Lookup`
/// term indices are remapped into one shared deduplicated
/// ground-term table. `Check` terms carry no AST ids (the compiler
/// zeroes them), so equal bound subterms compare equal as they are.
///
/// # Exactness
///
/// [`RuleSetProgram::search`] returns, for every rule, exactly the
/// match set [`Pattern::search_with_limit_and_token`] would return —
/// including every truncation cap:
///
/// * **Emission order.** A rule's root-to-leaf path through the trie
///   is its exact solo instruction sequence over the same registers,
///   so the shared executor reaches the rule's emission point in the
///   same order, with the same register banks, as the solo VM.
/// * **Per-class subst cap.** Emission for a rule stops after
///   [`MAX_SUBSTS_PER_CLASS`] substitutions in a class; the solo VM
///   stops after the same prefix of the same emission sequence. The
///   cap also prunes exploration per rule: a capped rule's
///   emission-node-to-root path is deactivated (live-leaf refcounts,
///   restored at the class boundary), so trie nodes serving only
///   capped rules are skipped — the solo VM's `SubstLimit` abort,
///   applied rule by rule while the others keep exploring. Once
///   *every* rule of the branch is capped or masked, the class walk
///   aborts outright (and a match-explosive class can't burn the
///   shared budget and trigger the per-rule fallback).
/// * **Match-limit (backoff) caps.** [`RuleDirective::Limit`] masks a
///   rule at a class boundary once its total exceeds the limit —
///   keeping the boundary class whole, like the per-pattern driver's
///   "finish the class, then break".
/// * **Work budget.** Each `(branch, class)` pair gets one fresh
///   [`MATCH_WORK_BUDGET`], like each `(rule, class)` pair does solo.
///   A live rule's solo visits are a subset of the shared visits (its
///   path is walked with the same register states; a *capped* rule's
///   solo run aborts at the cap, so pruning its path loses no
///   coverage), so if the shared budget *completes*, no solo run
///   could have been truncated and
///   the shared result is exact. If the shared budget *exhausts*, the
///   class's shared results are discarded and every active rule is
///   re-run solo on that class with its own fresh budget — byte-exact
///   per-pattern truncation, so no rule ever observes fewer visits
///   than it got under per-pattern search.
/// * **Cancellation.** The shared budget counter polls the
///   [`CancelToken`] every [`CANCEL_CHECK_QUANTUM`] visits (same
///   check, same counter discipline as the solo VM), so the latency
///   bound holds mid-trie. A cancel or deadline trip makes the whole
///   branch report *skipped* (`None` slots) rather than returning
///   partial match sets — the driver counts those rules in
///   `rules_skipped` so a trip is never silently under-reported.
pub struct RuleSetProgram<L: Language> {
    nodes: Vec<TrieNode<L>>,
    branches: Vec<Branch<L::Discriminant>>,
    ground_terms: Vec<RecExpr<L>>,
    /// Each rule's standalone program (for the budget-exhaustion
    /// fallback and `Scan` substitution templates).
    programs: Vec<Program<L>>,
    /// `rule index -> local slot within its branch` (every rule
    /// belongs to exactly one branch).
    rule_slot: Vec<usize>,
    /// Flat execution tables, built once after compilation. The solo
    /// VM walks one small contiguous instruction vector; to keep the
    /// shared executor's per-step memory behaviour comparable, the hot
    /// per-node data lives in dense arrays indexed by node id (instead
    /// of being read through [`TrieNode`]s and nested `Vec`s):
    /// `instr[n]` is node `n`'s instruction, `plan_range[n]` /
    /// `out_range[n]` are its slices of the shared `plan_pool` /
    /// `leaf_pool`.
    instr: Vec<Instruction<L>>,
    plan_range: Vec<(u32, u32)>,
    out_range: Vec<(u32, u32)>,
    /// Per branch: the root nodes' execution plan, as a `plan_pool`
    /// range (empty for `Scan` branches).
    root_plan_range: Vec<(u32, u32)>,
    plan_pool: Vec<ChildGroup<L>>,
    leaf_pool: Vec<RuleLeaf>,
    /// Per node: its parent node id (`u32::MAX` at branch roots) —
    /// the path walked when a rule's cap/mask event deactivates its
    /// leaf-to-root chain in the live counts.
    parent: Vec<u32>,
    /// Per rule: the trie node its substitutions are emitted at
    /// (`u32::MAX` for `Scan` rules, which never enter the trie).
    rule_node: Vec<u32>,
    /// Per rule: the branch it belongs to.
    rule_branch: Vec<u32>,
    n_regs: usize,
}

impl<L: Language> RuleSetProgram<L> {
    /// Compiles the rules' already-compiled LHS programs into the
    /// shared trie. Rule order is preserved everywhere results are
    /// reported.
    pub fn compile(patterns: &[&Pattern<L>]) -> Self {
        let mut this = RuleSetProgram {
            nodes: Vec::new(),
            branches: Vec::new(),
            ground_terms: Vec::new(),
            programs: Vec::new(),
            rule_slot: Vec::new(),
            instr: Vec::new(),
            plan_range: Vec::new(),
            out_range: Vec::new(),
            root_plan_range: Vec::new(),
            plan_pool: Vec::new(),
            leaf_pool: Vec::new(),
            parent: Vec::new(),
            rule_node: Vec::new(),
            rule_branch: Vec::new(),
            n_regs: 1,
        };
        for (rule, pattern) in patterns.iter().enumerate() {
            let prog = pattern.program().clone();
            this.n_regs = this.n_regs.max(prog.n_regs);
            if prog.is_scan() {
                this.rule_slot.push(0);
                this.rule_node.push(u32::MAX);
                this.branches.push(Branch {
                    kind: BranchKind::Scan,
                    rules: vec![rule],
                });
                this.rule_branch.push(this.branches.len() as u32 - 1);
                this.programs.push(prog);
                continue;
            }
            // Remap the program's private ground-term indices into the
            // shared deduplicated table, so Lookups on *equal* terms
            // collide in the trie and Lookups on different terms that
            // happen to share a local index do not.
            let remap: Vec<usize> = prog
                .ground_terms
                .iter()
                .map(|t| match this.ground_terms.iter().position(|g| g == t) {
                    Some(i) => i,
                    None => {
                        this.ground_terms.push(t.clone());
                        this.ground_terms.len() - 1
                    }
                })
                .collect();
            let disc = match &prog.instructions[0] {
                Instruction::Bind { node, .. } => node.discriminant(),
                Instruction::Lookup { term, .. } => {
                    let t = &prog.ground_terms[*term];
                    t[t.root()].discriminant()
                }
                _ => unreachable!("non-Scan programs start with Bind or Lookup"),
            };
            let branch = match this
                .branches
                .iter()
                .position(|b| matches!(&b.kind, BranchKind::Ops { disc: d, .. } if *d == disc))
            {
                Some(b) => b,
                None => {
                    this.branches.push(Branch {
                        kind: BranchKind::Ops {
                            disc,
                            roots: Vec::new(),
                        },
                        rules: Vec::new(),
                    });
                    this.branches.len() - 1
                }
            };
            // Thread the program's instructions into the trie,
            // creating nodes only where no identical prefix exists.
            // `None` = still at the branch roots.
            let mut cursor: Option<usize> = None;
            for instruction in &prog.instructions {
                let canonical = match instruction {
                    // `Bind` child ids index the pattern's private AST
                    // and are never read by the executor (only the
                    // operator and arity are); zero them so
                    // structurally identical Binds from different
                    // patterns compare equal.
                    Instruction::Bind { node, i, out } => Instruction::Bind {
                        node: node.map_children(|_| Id::from_index(0)),
                        i: *i,
                        out: *out,
                    },
                    Instruction::Lookup { term, i } => Instruction::Lookup {
                        term: remap[*term],
                        i: *i,
                    },
                    other => other.clone(),
                };
                let siblings: &[usize] = match cursor {
                    None => {
                        let BranchKind::Ops { roots, .. } = &this.branches[branch].kind else {
                            unreachable!()
                        };
                        roots
                    }
                    Some(n) => &this.nodes[n].children,
                };
                let next = match siblings
                    .iter()
                    .copied()
                    .find(|&id| this.nodes[id].instruction == canonical)
                {
                    Some(id) => id,
                    None => {
                        this.nodes.push(TrieNode {
                            instruction: canonical,
                            children: Vec::new(),
                            outputs: Vec::new(),
                        });
                        let id = this.nodes.len() - 1;
                        match cursor {
                            None => {
                                this.parent.push(u32::MAX);
                                let BranchKind::Ops { roots, .. } = &mut this.branches[branch].kind
                                else {
                                    unreachable!()
                                };
                                roots.push(id);
                            }
                            Some(n) => {
                                this.parent.push(n as u32);
                                this.nodes[n].children.push(id);
                            }
                        }
                        id
                    }
                };
                cursor = Some(next);
            }
            let last = cursor.expect("non-Scan programs are non-empty");
            this.nodes[last].outputs.push(RuleLeaf {
                rule,
                subst_template: prog.subst_template.clone(),
            });
            this.rule_node.push(last as u32);
            this.rule_branch.push(branch as u32);
            this.rule_slot.push(this.branches[branch].rules.len());
            this.branches[branch].rules.push(rule);
            this.programs.push(prog);
        }
        // Freeze the trie into the flat execution tables (the
        // `TrieNode`s stay around for the per-search active-subtree
        // computation, which is not per-step work).
        for n in &this.nodes {
            let plan_start = this.plan_pool.len() as u32;
            this.plan_pool
                .extend(plan_children(&this.nodes, &n.children));
            this.plan_range
                .push((plan_start, this.plan_pool.len() as u32));
            let leaf_start = this.leaf_pool.len() as u32;
            this.leaf_pool.extend(n.outputs.iter().map(|l| RuleLeaf {
                rule: l.rule,
                subst_template: l.subst_template.clone(),
            }));
            this.out_range
                .push((leaf_start, this.leaf_pool.len() as u32));
            this.instr.push(n.instruction.clone());
        }
        for b in &this.branches {
            let start = this.plan_pool.len() as u32;
            if let BranchKind::Ops { roots, .. } = &b.kind {
                this.plan_pool.extend(plan_children(&this.nodes, roots));
            }
            this.root_plan_range
                .push((start, this.plan_pool.len() as u32));
        }
        this
    }

    /// Number of compiled rules.
    pub fn n_rules(&self) -> usize {
        self.programs.len()
    }

    /// Number of top-level branches (root-op buckets plus one per
    /// var-rooted pattern).
    pub fn n_branches(&self) -> usize {
        self.branches.len()
    }

    /// Number of shared trie nodes — compare against
    /// [`RuleSetProgram::total_rule_instructions`] to see how much
    /// prefix sharing the ruleset exhibits.
    pub fn n_trie_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Sum of the rules' standalone instruction counts (what a
    /// per-pattern search walks).
    pub fn total_rule_instructions(&self) -> usize {
        self.programs.iter().map(|p| p.instructions.len()).sum()
    }

    /// Resolves the shared ground-term table once per search. A term
    /// absent from the e-graph resolves to `None`, which simply
    /// disables the `Lookup` edges that test it (those rules cannot
    /// match anywhere).
    fn resolve_shared_ground<N: Analysis<L>>(&self, egraph: &EGraph<L, N>) -> Vec<Option<Id>> {
        self.ground_terms
            .iter()
            .map(|t| egraph.lookup_expr(t).map(|id| egraph.find(id)))
            .collect()
    }

    /// Computes, for branch `b`, how many of each node's subtree
    /// leaves belong to a currently-unmasked rule. A node with count
    /// zero leads nowhere that can still emit, so the walk skips it —
    /// this is how `Skip` directives, match-limit masking, and (within
    /// one class) the per-rule subst cap all prune the trie. Children
    /// always have larger ids than their parent, so one reverse pass
    /// suffices; nodes of other branches end up at zero, which is
    /// fine — branch `b`'s walk never reaches them.
    fn branch_live_counts(&self, b: usize, masked: &[bool]) -> Vec<u32> {
        let mut live = vec![0u32; self.nodes.len()];
        for i in (0..self.nodes.len()).rev() {
            let n = &self.nodes[i];
            let own: u32 = n
                .outputs
                .iter()
                .filter(|leaf| {
                    self.rule_branch[leaf.rule] == b as u32 && !masked[self.rule_slot[leaf.rule]]
                })
                .count() as u32;
            live[i] = own + n.children.iter().map(|&c| live[c]).sum::<u32>();
        }
        live
    }

    /// Removes one live leaf (rule `rule`, which just got masked for
    /// the rest of the branch) from every node on its
    /// emission-node-to-root path. `O(path length)`.
    fn deactivate_rule_path(parent: &[u32], rule_node: &[u32], rule: usize, node_live: &mut [u32]) {
        let mut n = rule_node[rule];
        while n != u32::MAX {
            node_live[n as usize] -= 1;
            n = parent[n as usize];
        }
    }

    /// Searches the whole e-graph with every rule at once, fanning the
    /// branches out over `threads` scoped workers (`threads <= 1`
    /// searches serially on the calling thread). Returns one slot per
    /// rule, in rule order: `Some((matches, elapsed))` for searched
    /// rules (empty matches for [`RuleDirective::Skip`]), `None` for
    /// rules whose branch was cut short by cancellation or the
    /// deadline (= skipped; see the type-level docs). Per-rule
    /// `elapsed` is the branch wall-clock split evenly over the
    /// branch's searched rules, so the slots always sum to at most the
    /// branches' total wall-clock.
    ///
    /// Branches own disjoint rule sets and the per-branch work does not
    /// depend on the thread count, so the slots are byte-identical at
    /// any thread count (short of a mid-search cancel/deadline trip,
    /// where the *set* of skipped rules may differ).
    ///
    /// # Panics
    ///
    /// Panics if the e-graph is not clean, or if `directives` does not
    /// have one entry per compiled rule.
    pub fn search<N>(
        &self,
        egraph: &EGraph<L, N>,
        directives: &[RuleDirective],
        cancel: &CancelToken,
        deadline: Option<Instant>,
        threads: usize,
    ) -> Vec<Option<(Vec<SearchMatches>, Duration)>>
    where
        L: Sync,
        L::Discriminant: Sync,
        N: Analysis<L> + Sync,
        N::Data: Sync,
    {
        let exhausted = AtomicUsize::new(0);
        self.search_counted(egraph, directives, cancel, deadline, threads, &exhausted)
    }

    /// [`RuleSetProgram::search`], adding to `exhausted` the walks that
    /// hit [`MATCH_WORK_BUDGET`]: one per `(branch, class)` shared walk
    /// and one per `(rule, class)` solo re-run.
    pub(crate) fn search_counted<N>(
        &self,
        egraph: &EGraph<L, N>,
        directives: &[RuleDirective],
        cancel: &CancelToken,
        deadline: Option<Instant>,
        threads: usize,
        exhausted: &AtomicUsize,
    ) -> Vec<Option<(Vec<SearchMatches>, Duration)>>
    where
        L: Sync,
        L::Discriminant: Sync,
        N: Analysis<L> + Sync,
        N::Data: Sync,
    {
        assert!(
            egraph.is_clean(),
            "search requires a clean (rebuilt) e-graph"
        );
        assert_eq!(
            directives.len(),
            self.programs.len(),
            "one directive per compiled rule"
        );
        let ground = self.resolve_shared_ground(egraph);
        let mut slots: Vec<Option<(Vec<SearchMatches>, Duration)>> = Vec::new();
        slots.resize_with(self.programs.len(), || None);
        fan_out(
            self.branches.len(),
            threads,
            || cancel.is_cancelled() || past(deadline),
            |b| self.search_branch(egraph, b, directives, &ground, cancel, deadline, exhausted),
            |(results, elapsed)| fill_slots(&mut slots, directives, results, elapsed),
        );
        slots
    }

    /// Runs one branch to completion. Returns the per-rule match sets
    /// (rule index, matches) plus the branch's wall-clock, or `None`
    /// if a cancel/deadline trip left the branch incomplete.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn search_branch<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        b: usize,
        directives: &[RuleDirective],
        ground: &[Option<Id>],
        cancel: &CancelToken,
        deadline: Option<Instant>,
        exhausted: &AtomicUsize,
    ) -> Option<(Vec<(usize, Vec<SearchMatches>)>, Duration)> {
        let start = Instant::now();
        let branch = &self.branches[b];
        let per_rule = match &branch.kind {
            BranchKind::Ops { .. } => {
                self.search_ops_branch(egraph, b, directives, ground, cancel, deadline, exhausted)?
            }
            BranchKind::Scan => {
                let rule = branch.rules[0];
                match directives[rule] {
                    RuleDirective::Skip => vec![Vec::new()],
                    RuleDirective::Limit(limit) => {
                        vec![self.search_scan_branch(egraph, rule, limit, cancel, deadline)?]
                    }
                }
            }
        };
        Some((
            branch.rules.iter().copied().zip(per_rule).collect(),
            start.elapsed(),
        ))
    }

    /// Drives a root-op branch over `classes_with_op`, walking the
    /// shared trie once per class and demultiplexing surviving
    /// substitutions into per-rule match sets (see the type-level
    /// exactness notes).
    #[allow(clippy::too_many_arguments)]
    fn search_ops_branch<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        b: usize,
        directives: &[RuleDirective],
        ground: &[Option<Id>],
        cancel: &CancelToken,
        deadline: Option<Instant>,
        exhausted: &AtomicUsize,
    ) -> Option<Vec<Vec<SearchMatches>>> {
        let branch = &self.branches[b];
        let root_plan = self.root_plan_range[b];
        let BranchKind::Ops { disc, .. } = &branch.kind else {
            unreachable!()
        };
        let rules = &branch.rules;
        let n_local = rules.len();
        let mut out: Vec<Vec<SearchMatches>> = Vec::new();
        out.resize_with(n_local, Vec::new);
        // A masked rule takes no further classes: banned from the
        // start (Skip), over its match limit, or — within one class —
        // over the per-class subst cap (that one is tracked in
        // `found`, reset per class).
        let mut masked = vec![false; n_local];
        for (slot, &rule) in masked.iter_mut().zip(rules) {
            *slot = directives[rule] == RuleDirective::Skip;
        }
        if masked.iter().all(|&m| m) {
            return Some(out);
        }
        let mut totals = vec![0usize; n_local];
        let mut found = vec![0usize; n_local];
        // Per-node count of live (unmasked, uncapped) subtree leaves:
        // zero means nothing below can emit, so the walk skips the
        // node. Masking decrements a rule's root path for the rest of
        // the branch; a per-class cap decrements it for the rest of
        // the class (undone at the boundary via `cap_undo`).
        let mut node_live = self.branch_live_counts(b, &masked);
        let mut cap_undo: Vec<u32> = Vec::new();
        let mut class_substs: Vec<Vec<Subst>> = Vec::new();
        class_substs.resize_with(n_local, Vec::new);
        let mut regs: Vec<Id> = Vec::new();
        let mut fallback_regs: Vec<Id> = Vec::new();
        // Per-rule resolved ground tables, built lazily if the
        // fallback path ever runs.
        let mut solo_ground: Vec<Option<Option<Vec<Id>>>> = vec![None; n_local];
        for &id in egraph.classes_with_op(disc) {
            if cancel.is_cancelled() || past(deadline) {
                return None;
            }
            if masked.iter().all(|&m| m) {
                break;
            }
            let id = egraph.find(id);
            found.iter_mut().for_each(|f| *f = 0);
            regs.clear();
            regs.resize(self.n_regs, Id::from_index(0));
            regs[0] = id;
            let mut budget = MATCH_WORK_BUDGET;
            let live = masked.iter().filter(|&&m| !m).count();
            let mut machine = MultiMachine {
                instr: &self.instr,
                plan_range: &self.plan_range,
                out_range: &self.out_range,
                plan_pool: &self.plan_pool,
                leaf_pool: &self.leaf_pool,
                parent: &self.parent,
                regs: &mut regs,
                ground,
                node_live: &mut node_live,
                cap_undo: &mut cap_undo,
                rule_slot: &self.rule_slot,
                masked: &masked,
                found: &mut found,
                live,
                out: &mut class_substs,
                cancel,
            };
            let outcome = machine.run_plan(egraph, root_plan, &mut budget);
            // Caps are per class: restore the live counts the emitters
            // decremented before the next class (or before the masking
            // pass below, which applies its own permanent decrements).
            for &n in &cap_undo {
                node_live[n as usize] += 1;
            }
            cap_undo.clear();
            match outcome {
                RunOutcome::Cancelled => return None,
                RunOutcome::BudgetExhausted => {
                    exhausted.fetch_add(1, Ordering::Relaxed);
                    // The shared budget starved this class: discard its
                    // shared results and re-run each active rule alone
                    // with a fresh per-rule budget — reproducing
                    // per-pattern truncation exactly, so sharing never
                    // costs a rule visits.
                    for (local, &rule) in rules.iter().enumerate() {
                        if masked[local] {
                            continue;
                        }
                        class_substs[local].clear();
                        let resolved = solo_ground[local].get_or_insert_with(|| {
                            self.programs[rule].resolve_ground_terms(egraph)
                        });
                        let Some(resolved) = resolved.as_ref() else {
                            continue;
                        };
                        let mut solo_budget = MATCH_WORK_BUDGET;
                        let solo_outcome = self.programs[rule].run(
                            egraph,
                            id,
                            resolved,
                            &mut fallback_regs,
                            &mut class_substs[local],
                            &mut solo_budget,
                            MAX_SUBSTS_PER_CLASS,
                            cancel,
                        );
                        match solo_outcome {
                            RunOutcome::Cancelled => return None,
                            RunOutcome::BudgetExhausted => {
                                exhausted.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
            // Package the class per rule (canonicalize, sort, dedup —
            // identical to the per-pattern path) and apply match-limit
            // masking at the class boundary.
            for local in 0..n_local {
                if masked[local] {
                    continue;
                }
                if !class_substs[local].is_empty() {
                    let mut substs = std::mem::take(&mut class_substs[local]);
                    for s in &mut substs {
                        s.canonicalize(egraph);
                    }
                    substs.sort_unstable();
                    substs.dedup();
                    totals[local] += substs.len();
                    out[local].push(SearchMatches { eclass: id, substs });
                }
                if let RuleDirective::Limit(limit) = directives[rules[local]] {
                    if totals[local] > limit {
                        masked[local] = true;
                        Self::deactivate_rule_path(
                            &self.parent,
                            &self.rule_node,
                            rules[local],
                            &mut node_live,
                        );
                    }
                }
            }
        }
        Some(out)
    }

    /// Drives one var-rooted (`Scan`) pattern over every class — same
    /// enumeration as [`Pattern::search_with_limit_and_token`].
    fn search_scan_branch<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        rule: usize,
        limit: usize,
        cancel: &CancelToken,
        deadline: Option<Instant>,
    ) -> Option<Vec<SearchMatches>> {
        let mut out = Vec::new();
        let mut total = 0usize;
        for class in egraph.classes() {
            if cancel.is_cancelled() || past(deadline) {
                return None;
            }
            out.push(SearchMatches {
                eclass: class.id,
                substs: vec![self.programs[rule].subst_for_class(class.id)],
            });
            total += 1;
            if total > limit {
                break;
            }
        }
        Some(out)
    }
}

fn past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() > d)
}

/// Runs `work` on the items `0..n`, over `threads` scoped workers that
/// claim the next index from a shared counter (work stealing: item
/// costs vary by orders of magnitude), or on the calling thread when
/// `threads <= 1`. A worker stops claiming once `stop()` holds or
/// `work` returns `None` (cut short). Completed results are handed to
/// `done` on the calling thread.
///
/// A worker's panic is re-raised with its original payload, but only
/// after *every* worker was joined and the others' results were
/// handed over: the layer above (the service's per-job
/// `catch_unwind`) turns it into a typed outcome.
fn fan_out<T: Send>(
    n: usize,
    threads: usize,
    stop: impl Fn() -> bool + Sync,
    work: impl Fn(usize) -> Option<T> + Sync,
    mut done: impl FnMut(T),
) {
    if threads <= 1 || n <= 1 {
        for i in 0..n {
            if stop() {
                break;
            }
            let Some(result) = work(i) else { break };
            done(result);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n))
            .map(|_| {
                let (next, stop, work) = (&next, &stop, &work);
                scope.spawn(move || {
                    let mut results = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n || stop() {
                            break;
                        }
                        let Some(result) = work(i) else { break };
                        results.push(result);
                    }
                    results
                })
            })
            .collect();
        let mut panicked = None;
        for handle in handles {
            match handle.join() {
                Ok(results) => results.into_iter().for_each(&mut done),
                Err(payload) => panicked = panicked.or(Some(payload)),
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    });
}

/// Partitions a sibling set into execution groups: non-`Bind` children
/// stay single (in child order), then `Bind` children grouped by the
/// register they scan (groups in first-occurrence order; a group of
/// one collapses back to `Single`). Group order is free — sibling
/// subtrees lead to disjoint rule sets, so no rule's emission sequence
/// spans two groups.
fn plan_children<L: Language>(nodes: &[TrieNode<L>], children: &[usize]) -> Vec<ChildGroup<L>> {
    let mut plan = Vec::new();
    let mut binds: Vec<(Reg, Vec<MergedMember<L>>)> = Vec::new();
    for &c in children {
        match &nodes[c].instruction {
            Instruction::Bind { node, i, out } => {
                let member = MergedMember {
                    node: c as u32,
                    pat: node.clone(),
                    out: *out,
                };
                match binds.iter_mut().find(|(r, _)| *r == *i) {
                    Some((_, members)) => members.push(member),
                    None => binds.push((*i, vec![member])),
                }
            }
            _ => plan.push(ChildGroup::Single(c as u32)),
        }
    }
    for (i, members) in binds {
        plan.push(if members.len() == 1 {
            ChildGroup::Single(members[0].node)
        } else {
            ChildGroup::MergedBinds { i, members }
        });
    }
    plan
}

/// Writes one completed branch's results into the per-rule slots,
/// splitting the branch's wall-clock evenly over its searched
/// (non-`Skip`) rules.
fn fill_slots(
    slots: &mut [Option<(Vec<SearchMatches>, Duration)>],
    directives: &[RuleDirective],
    results: Vec<(usize, Vec<SearchMatches>)>,
    elapsed: Duration,
) {
    let searched = results
        .iter()
        .filter(|(rule, _)| directives[*rule] != RuleDirective::Skip)
        .count();
    let share = if searched > 0 {
        elapsed / searched as u32
    } else {
        Duration::ZERO
    };
    for (rule, matches) in results {
        let elapsed = if directives[rule] == RuleDirective::Skip {
            Duration::ZERO
        } else {
            share
        };
        slots[rule] = Some((matches, elapsed));
    }
}

/// The shared-trie executor: like [`Machine`], but a node's
/// instruction may be continued by several children, and complete
/// register banks are demultiplexed into per-rule output vectors via
/// the leaves.
struct MultiMachine<'a, L: Language> {
    instr: &'a [Instruction<L>],
    plan_range: &'a [(u32, u32)],
    out_range: &'a [(u32, u32)],
    plan_pool: &'a [ChildGroup<L>],
    leaf_pool: &'a [RuleLeaf],
    parent: &'a [u32],
    regs: &'a mut Vec<Id>,
    ground: &'a [Option<Id>],
    /// Per-node live-leaf counts (see `search_ops_branch`): a rule
    /// hitting its per-class cap decrements its root path here, so
    /// subtrees that can no longer emit for anyone are pruned from
    /// the walk — the solo VM's `SubstLimit` abort, per rule.
    node_live: &'a mut [u32],
    /// Node ids decremented by per-class cap events, for the driver
    /// to revert at the class boundary.
    cap_undo: &'a mut Vec<u32>,
    rule_slot: &'a [usize],
    masked: &'a [bool],
    /// Per local rule: substitutions emitted for the current class
    /// (caps emission at [`MAX_SUBSTS_PER_CLASS`]).
    found: &'a mut [usize],
    /// How many rules can still emit for the current class (neither
    /// masked nor at the per-class cap). The solo VM aborts its class
    /// scan the moment *its* rule hits the cap; the shared walk does
    /// the same the moment its *last* live rule does — exploring
    /// further could not emit anything for anyone.
    live: usize,
    out: &'a mut [Vec<Subst>],
    cancel: &'a CancelToken,
}

impl<L: Language> MultiMachine<'_, L> {
    /// Executes the trie node's instruction against the current
    /// registers, emitting at its leaves and descending into its
    /// active children. The budget/cancel discipline is byte-for-byte
    /// the solo [`Machine`]'s: one decrement per e-node visit or memo
    /// probe, token polled every [`CANCEL_CHECK_QUANTUM`] decrements,
    /// and `Check` runs the very same [`BoundTerm`] executor.
    fn exec<N: Analysis<L>>(
        &mut self,
        egraph: &EGraph<L, N>,
        node: usize,
        budget: &mut usize,
    ) -> RunOutcome {
        let instr = self.instr;
        match &instr[node] {
            Instruction::Bind {
                node: pat_node,
                i,
                out: out_reg,
            } => {
                let class = egraph.eclass(self.regs[*i as usize]);
                for enode in class.iter() {
                    if let Err(stop) = charge(budget, self.cancel) {
                        return stop;
                    }
                    if !pat_node.matches(enode) {
                        continue;
                    }
                    let base = *out_reg as usize;
                    for (k, &child) in enode.children().iter().enumerate() {
                        self.regs[base + k] = child;
                    }
                    match self.emit_and_descend(egraph, node, budget) {
                        RunOutcome::Complete => {}
                        stop => return stop,
                    }
                    // A cap event below may have killed this whole
                    // subtree; scanning further e-nodes could not
                    // emit anything.
                    if self.node_live[node] == 0 {
                        break;
                    }
                }
                RunOutcome::Complete
            }
            Instruction::Compare { i, j } => {
                if egraph.find(self.regs[*i as usize]) == egraph.find(self.regs[*j as usize]) {
                    self.emit_and_descend(egraph, node, budget)
                } else {
                    RunOutcome::Complete
                }
            }
            Instruction::Check { term, i } => {
                match term.check(
                    egraph,
                    self.regs[*i as usize],
                    self.regs,
                    budget,
                    self.cancel,
                ) {
                    Ok(true) => self.emit_and_descend(egraph, node, budget),
                    Ok(false) => RunOutcome::Complete,
                    Err(stop) => stop,
                }
            }
            Instruction::Lookup { term, i } => {
                if self.ground[*term] == Some(egraph.find(self.regs[*i as usize])) {
                    self.emit_and_descend(egraph, node, budget)
                } else {
                    RunOutcome::Complete
                }
            }
            Instruction::Scan { .. } => {
                unreachable!("Scan patterns are separate branches, never trie nodes")
            }
        }
    }

    /// After `node`'s instruction succeeded: materialize a
    /// substitution for every rule ending here (unless the rule is
    /// masked or at its per-class cap — the others keep exploring),
    /// then walk the node's child plan.
    fn emit_and_descend<N: Analysis<L>>(
        &mut self,
        egraph: &EGraph<L, N>,
        node: usize,
        budget: &mut usize,
    ) -> RunOutcome {
        let (leaf_start, leaf_end) = self.out_range[node];
        if leaf_start != leaf_end {
            let leaf_pool = self.leaf_pool;
            for leaf in &leaf_pool[leaf_start as usize..leaf_end as usize] {
                let local = self.rule_slot[leaf.rule];
                if self.masked[local] || self.found[local] >= MAX_SUBSTS_PER_CLASS {
                    continue;
                }
                self.out[local].push(Subst::from_pairs(
                    leaf.subst_template
                        .iter()
                        .map(|&(v, r)| (v, self.regs[r as usize]))
                        .collect(),
                ));
                self.found[local] += 1;
                if self.found[local] == MAX_SUBSTS_PER_CLASS {
                    // Prune this rule's path for the rest of the
                    // class — it can't emit again, so nodes serving
                    // only it are dead weight (the solo VM stops its
                    // whole scan here; this is that abort, per rule).
                    // The rule emits exactly here, so the path starts
                    // at the current node.
                    let mut n = node as u32;
                    while n != u32::MAX {
                        self.node_live[n as usize] -= 1;
                        self.cap_undo.push(n);
                        n = self.parent[n as usize];
                    }
                    // Any leaf left in this loop is capped or masked
                    // too once `live` hits zero, so returning here
                    // skips no emission.
                    self.live -= 1;
                    if self.live == 0 {
                        return RunOutcome::SubstLimit;
                    }
                }
            }
        }
        self.run_plan(egraph, self.plan_range[node], budget)
    }

    /// Executes one child plan (a `plan_pool` range): singles run the
    /// solo discipline, merged groups share a single scan of the
    /// class's e-nodes.
    fn run_plan<N: Analysis<L>>(
        &mut self,
        egraph: &EGraph<L, N>,
        range: (u32, u32),
        budget: &mut usize,
    ) -> RunOutcome {
        let plan_pool = self.plan_pool;
        for group in &plan_pool[range.0 as usize..range.1 as usize] {
            let outcome = match group {
                ChildGroup::Single(c) => {
                    let c = *c as usize;
                    if self.node_live[c] == 0 {
                        continue;
                    }
                    self.exec(egraph, c, budget)
                }
                ChildGroup::MergedBinds { i, members } => {
                    self.merged_scan(egraph, *i, members, budget)
                }
            };
            match outcome {
                RunOutcome::Complete => {}
                stop => return stop,
            }
        }
        RunOutcome::Complete
    }

    /// One pass over the class in register `i` serving every active
    /// member `Bind`: each e-node is dispatched to the (at most one —
    /// members carry distinct operator keys) member that matches it.
    ///
    /// The work budget is decremented once per (e-node, active member)
    /// pair — exactly the decrements the members' separate solo scans
    /// would make — so a completed shared search still dominates every
    /// rule's solo visit count and the budget-exactness argument in
    /// the type-level docs is unchanged. The cancel token is polled
    /// every e-node here (merged scans progress the counter in steps,
    /// so the solo path's modulo check could skip a quantum boundary);
    /// that is at least as responsive as the solo discipline.
    fn merged_scan<N: Analysis<L>>(
        &mut self,
        egraph: &EGraph<L, N>,
        i: Reg,
        members: &[MergedMember<L>],
        budget: &mut usize,
    ) -> RunOutcome {
        let mut active = members
            .iter()
            .filter(|m| self.node_live[m.node as usize] > 0)
            .count();
        if active == 0 {
            return RunOutcome::Complete;
        }
        let class = egraph.eclass(self.regs[i as usize]);
        for enode in class.iter() {
            if *budget < active {
                return RunOutcome::BudgetExhausted;
            }
            *budget -= active;
            if self.cancel.is_cancelled() {
                return RunOutcome::Cancelled;
            }
            for member in members {
                if !member.pat.matches(enode) {
                    continue;
                }
                if self.node_live[member.node as usize] > 0 {
                    let base = member.out as usize;
                    for (k, &child) in enode.children().iter().enumerate() {
                        self.regs[base + k] = child;
                    }
                    let caps_before = self.cap_undo.len();
                    match self.emit_and_descend(egraph, member.node as usize, budget) {
                        RunOutcome::Complete => {}
                        stop => return stop,
                    }
                    // A cap event below may have deactivated members;
                    // refresh the per-e-node charge (each live rule's
                    // solo visits stay dominated, and a capped rule's
                    // solo run aborted at its cap, so dropping its
                    // charge loses nothing).
                    if self.cap_undo.len() != caps_before {
                        active = members
                            .iter()
                            .filter(|m| self.node_live[m.node as usize] > 0)
                            .count();
                        if active == 0 {
                            return RunOutcome::Complete;
                        }
                    }
                }
                // An e-node carries one operator: no other member can
                // match it (identical canonical instructions dedupe
                // into one trie node), so the rest of the walk would
                // only fail the `matches` test.
                break;
            }
        }
        RunOutcome::Complete
    }
}

/// Computes, for each pattern node, whether its subtree is ground
/// (contains no variables).
pub(crate) fn ground_map<L: Language>(ast: &RecExpr<ENodeOrVar<L>>) -> Vec<bool> {
    let mut ground = vec![false; ast.len()];
    for (i, node) in ast.iter().enumerate() {
        ground[i] = match node {
            ENodeOrVar::Var(_) => false,
            ENodeOrVar::ENode(n) => n.children().iter().all(|c| ground[c.index()]),
        };
    }
    ground
}

/// Numbers each pattern node's subtree up to structural equality:
/// two nodes get the same number iff their subtrees are equal.
fn shape_map<L: Language>(ast: &RecExpr<ENodeOrVar<L>>) -> Vec<usize> {
    let mut shapes: FxHashMap<ENodeOrVar<L>, usize> = FxHashMap::default();
    let mut shape = Vec::with_capacity(ast.len());
    for node in ast.iter() {
        let key = match node {
            ENodeOrVar::Var(v) => ENodeOrVar::Var(*v),
            ENodeOrVar::ENode(n) => {
                ENodeOrVar::ENode(n.map_children(|c| Id::from_index(shape[c.index()])))
            }
        };
        let next = shapes.len();
        shape.push(*shapes.entry(key).or_insert(next));
    }
    shape
}

/// Copies the ground subtree rooted at `pat` out of the pattern AST
/// into a standalone [`RecExpr`] suitable for
/// [`EGraph::lookup_expr`].
pub(crate) fn extract_ground_term<L: Language>(
    ast: &RecExpr<ENodeOrVar<L>>,
    pat: Id,
) -> RecExpr<L> {
    RecExpr::from_root_and_fn(pat, |id| match &ast[id] {
        ENodeOrVar::ENode(n) => n.clone(),
        ENodeOrVar::Var(_) => unreachable!("ground subterms contain no variables"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pattern, SymbolLang};

    fn pat(s: &str) -> Pattern<SymbolLang> {
        s.parse().unwrap()
    }

    #[test]
    fn compiles_bind_and_compare() {
        let p = pat("(f ?x ?x)");
        let prog = p.program();
        assert_eq!(prog.instructions().len(), 2);
        assert!(matches!(prog.instructions()[0], Instruction::Bind { .. }));
        assert!(matches!(
            prog.instructions()[1],
            Instruction::Compare { .. }
        ));
    }

    #[test]
    fn compiles_ground_subterm_to_lookup() {
        let p = pat("(f ?x (g a b))");
        let prog = p.program();
        assert!(prog
            .instructions()
            .iter()
            .any(|i| matches!(i, Instruction::Lookup { .. })));
        // The variable-free subtree must not emit any Bind beyond the
        // root's.
        let binds = prog
            .instructions()
            .iter()
            .filter(|i| matches!(i, Instruction::Bind { .. }))
            .count();
        assert_eq!(binds, 1);
    }

    #[test]
    fn repeated_subterm_compiles_to_compare() {
        // Bind g -> regs 1, 2; Bind f on reg 1 -> reg 3 (?x); the
        // second `(f ?x)` is the class in reg 1 again, not a new Bind.
        let p = pat("(g (f ?x) (f ?x))");
        let ins = p.program().instructions();
        assert_eq!(ins.len(), 3);
        assert!(matches!(ins[1], Instruction::Bind { i: 1, out: 3, .. }));
        assert_eq!(ins[2], Instruction::Compare { i: 2, j: 1 });
        assert_eq!(p.program().n_regs(), 4);
    }

    #[test]
    fn bound_subterm_compiles_to_check() {
        // `(h (f ?x) ?y)` is fully bound once `(f ?x)` and `?y` are:
        // one Check over their registers, in place of a Bind and two
        // Compares.
        let p = pat("(m (f ?x) ?y (h (f ?x) ?y))");
        let ins = p.program().instructions();
        assert_eq!(ins.len(), 3, "{ins:?}");
        let Instruction::Check { term, i: 3 } = &ins[2] else {
            panic!("expected a Check on reg 3, got {:?}", ins[2]);
        };
        assert_eq!(term.nodes.len(), 1);
        assert_eq!(term.nodes[0].1, [Operand::Reg(1), Operand::Reg(2)]);
        // A nested bound subterm becomes a node of the same term.
        let p = pat("(g ?x (h (f ?x) ?x))");
        let ins = p.program().instructions();
        assert_eq!(ins.len(), 2, "{ins:?}");
        let Instruction::Check { term, i: 2 } = &ins[1] else {
            panic!("expected a Check on reg 2, got {:?}", ins[1]);
        };
        assert_eq!(term.nodes[0].1, [Operand::Reg(1)]);
        assert_eq!(term.nodes[1].1, [Operand::Node(0), Operand::Reg(1)]);
    }

    #[test]
    fn ground_subterms_keep_lookup_even_when_repeated() {
        let p = pat("(m ?x (f a) (f a))");
        let ins = p.program().instructions();
        assert_eq!(ins.len(), 3);
        assert!(matches!(ins[1], Instruction::Lookup { term: 0, i: 2 }));
        assert!(matches!(ins[2], Instruction::Lookup { term: 1, i: 3 }));
    }

    #[test]
    fn root_var_compiles_to_scan() {
        let p = pat("?x");
        assert!(p.program().is_scan());
    }

    #[test]
    fn register_count_covers_children() {
        let p = pat("(f (g ?a ?b) ?c)");
        // root children (2) + g children (2) + root reg.
        assert_eq!(p.program().n_regs(), 5);
    }

    use crate::{CancelToken, EGraph, SearchMatches};

    type EG = EGraph<SymbolLang, ()>;

    /// Builds a workload whose search does lots of *failing*
    /// backtracking (so neither the per-class match cap nor the work
    /// budget stops it early): `n_roots` classes `(g A_i B_i)` where
    /// `A_i` holds `width` f-nodes and `B_i` holds `width` h-nodes,
    /// all over disjoint leaves, and the nonlinear probe
    /// `(g (f ?x) (h ?y ?x))` never closes. Its repeated `?x` sits
    /// under an h-node that also binds `?y`, so the subterm is not
    /// fully bound and must be enumerated node by node.
    fn explosive_workload(n_roots: usize, width: usize) -> (EG, Pattern<SymbolLang>) {
        let mut eg = EG::default();
        for r in 0..n_roots {
            let side = |tag: &str, eg: &mut EG| {
                let nodes: Vec<_> = (0..width)
                    .map(|i| {
                        let leaf = eg.add(SymbolLang::leaf(format!("{tag}{r}_{i}")));
                        if tag == "a" {
                            eg.add(SymbolLang::new("f", vec![leaf]))
                        } else {
                            let other = eg.add(SymbolLang::leaf(format!("c{r}_{i}")));
                            eg.add(SymbolLang::new("h", vec![leaf, other]))
                        }
                    })
                    .collect();
                for w in nodes.windows(2) {
                    eg.union(w[0], w[1]);
                }
                nodes[0]
            };
            let a = side("a", &mut eg);
            let b = side("b", &mut eg);
            eg.add(SymbolLang::new("g", vec![a, b]));
        }
        eg.rebuild();
        (eg, pat("(g (f ?x) (h ?y ?x))"))
    }

    #[test]
    fn cancelled_token_stops_within_one_quantum() {
        let (eg, p) = explosive_workload(1, 400);
        let ground = p.program().resolve_ground_terms(&eg).unwrap();
        let class = *eg
            .classes_with_op(&SymbolLang::leaf("g").discriminant())
            .first()
            .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let mut regs = Vec::new();
        let mut substs = Vec::new();
        let start_budget = 10_000usize;
        let mut budget = start_budget;
        let outcome = p.program().run(
            &eg,
            class,
            &ground,
            &mut regs,
            &mut substs,
            &mut budget,
            usize::MAX,
            &token,
        );
        assert_eq!(outcome, RunOutcome::Cancelled);
        let work_done = start_budget - budget;
        assert!(
            work_done <= CANCEL_CHECK_QUANTUM,
            "a set token must stop the VM within one quantum, did {work_done} visits"
        );
        // Sanity: the same class costs far more than a quantum when
        // the token stays clear.
        let mut budget = start_budget;
        let outcome = p.program().run(
            &eg,
            class,
            &ground,
            &mut regs,
            &mut substs,
            &mut budget,
            usize::MAX,
            &CancelToken::new(),
        );
        assert_eq!(outcome, RunOutcome::BudgetExhausted);
    }

    /// Root `(g x H)` where `H` holds `(h (f x) x)` plus `pad` fresh
    /// leaves, and a decoy root `(g y H)` that must not match
    /// `(g ?x (h (f ?x) ?x))`.
    fn bound_check_workload(pad: usize) -> (EG, Id) {
        let mut eg = EG::default();
        let x = eg.add(SymbolLang::leaf("x"));
        let y = eg.add(SymbolLang::leaf("y"));
        let fx = eg.add(SymbolLang::new("f", vec![x]));
        let h = eg.add(SymbolLang::new("h", vec![fx, x]));
        for k in 0..pad {
            let leaf = eg.add(SymbolLang::leaf(format!("pad{k}")));
            eg.union(h, leaf);
        }
        let root = eg.add(SymbolLang::new("g", vec![x, h]));
        eg.add(SymbolLang::new("g", vec![y, h]));
        eg.rebuild();
        (eg, root)
    }

    #[test]
    fn bound_check_scans_small_classes_and_probes_the_memo_above() {
        let p = pat("(g ?x (h (f ?x) ?x))");
        for pad in [
            0,
            BOUND_SCAN_LIMIT - 1,
            BOUND_SCAN_LIMIT,
            3 * BOUND_SCAN_LIMIT,
        ] {
            let (eg, root) = bound_check_workload(pad);
            let matches = p.search(&eg);
            assert_eq!(matches.len(), 1, "pad {pad}");
            assert_eq!(matches[0].eclass, eg.find(root));
            assert_eq!(flat(&matches), flat(&p.search_oracle(&eg)), "pad {pad}");
        }
    }

    #[test]
    fn budget_and_cancel_stop_inside_a_bound_check() {
        // `(h ?x ?x)` is bound after `Bind g`, which visits one e-node;
        // everything after that is spent inside the Check: a scan of
        // `H` (no h-node with equal children) at or below the limit,
        // one memo probe above it.
        let p = pat("(g ?x (h ?x ?x))");
        for pad in [BOUND_SCAN_LIMIT - 1, BOUND_SCAN_LIMIT + 1] {
            let (eg, root) = bound_check_workload(pad);
            let ground = p.program().resolve_ground_terms(&eg).unwrap();
            let (mut regs, mut substs) = (Vec::new(), Vec::new());
            let mut run = |budget: &mut usize, token: &CancelToken| {
                p.program().run(
                    &eg,
                    root,
                    &ground,
                    &mut regs,
                    &mut substs,
                    budget,
                    usize::MAX,
                    token,
                )
            };
            let mut budget = 1;
            assert_eq!(
                run(&mut budget, &CancelToken::new()),
                RunOutcome::BudgetExhausted,
                "pad {pad}"
            );
            assert_eq!(budget, 0);
            let token = CancelToken::new();
            token.cancel();
            // The second unit crosses a quantum boundary inside the
            // Check, where the set token must stop the run.
            let mut budget = CANCEL_CHECK_QUANTUM + 2;
            assert_eq!(run(&mut budget, &token), RunOutcome::Cancelled, "pad {pad}");
            assert_eq!(budget, CANCEL_CHECK_QUANTUM);
            let mut budget = MATCH_WORK_BUDGET;
            assert_eq!(run(&mut budget, &CancelToken::new()), RunOutcome::Complete);
            assert!(substs.is_empty(), "pad {pad}");
        }
    }

    #[test]
    fn pre_cancelled_search_returns_no_matches() {
        let (eg, p) = explosive_workload(10, 60);
        let token = CancelToken::new();
        token.cancel();
        let matches: Vec<SearchMatches> = p.search_with_limit_and_token(&eg, usize::MAX, &token);
        assert!(matches.is_empty());
    }

    #[test]
    fn cancellation_checked_between_small_classes() {
        // Classes this small (2 visits each) never reach the in-VM
        // budget-quantum poll; the driver loop must still observe the
        // token between classes.
        let mut eg = EG::default();
        for i in 0..500 {
            let a = eg.add(SymbolLang::leaf(format!("p{i}")));
            let b = eg.add(SymbolLang::leaf(format!("q{i}")));
            eg.add(SymbolLang::new("g", vec![a, b]));
        }
        eg.rebuild();
        let p = pat("(g ?x ?y)");
        assert_eq!(p.search(&eg).len(), 500);
        let token = CancelToken::new();
        token.cancel();
        assert!(p
            .search_with_limit_and_token(&eg, usize::MAX, &token)
            .is_empty());
    }

    /// Per-rule `(eclass, substs)` view for equality assertions.
    fn flat(matches: &[SearchMatches]) -> Vec<(crate::Id, Vec<crate::Subst>)> {
        matches
            .iter()
            .map(|m| (m.eclass, m.substs.clone()))
            .collect()
    }

    /// Asserts the shared trie reproduces every pattern's per-pattern
    /// match set exactly, at the given thread counts.
    fn assert_trie_matches_per_pattern(eg: &EG, pats: &[Pattern<SymbolLang>], threads: &[usize]) {
        let refs: Vec<&Pattern<SymbolLang>> = pats.iter().collect();
        let prog = RuleSetProgram::compile(&refs);
        let directives = vec![RuleDirective::Limit(usize::MAX); pats.len()];
        for &t in threads {
            let slots = prog.search(eg, &directives, &CancelToken::new(), None, t);
            for (pattern, slot) in pats.iter().zip(&slots) {
                let (matches, _) = slot
                    .as_ref()
                    .expect("no rule may be skipped without cancel");
                assert_eq!(
                    flat(matches),
                    flat(&pattern.search(eg)),
                    "trie vs per-pattern VM diverged for `{pattern}` at {t} threads"
                );
            }
        }
    }

    #[test]
    fn trie_shares_structurally_common_prefixes() {
        let p1 = pat("(f (g ?a ?b) ?c)");
        let p2 = pat("(f (g ?a ?b) (g ?a ?b))");
        let prog = RuleSetProgram::compile(&[&p1, &p2]);
        assert_eq!(prog.n_branches(), 1);
        // The `(f (g ?a ?b) ...` prefix (Bind f, Bind g) must be
        // stored once, even though the two patterns' ASTs assign
        // different ids to the shared nodes.
        assert!(
            prog.n_trie_nodes() < prog.total_rule_instructions(),
            "expected prefix sharing: {} trie nodes vs {} total instructions",
            prog.n_trie_nodes(),
            prog.total_rule_instructions()
        );
    }

    #[test]
    fn trie_distinguishes_different_ground_terms() {
        // Both Lookups get local term index 0 in their own programs;
        // the shared table must keep them apart.
        let mut eg = EG::default();
        let a = eg.add(SymbolLang::leaf("a"));
        let b = eg.add(SymbolLang::leaf("b"));
        let x = eg.add(SymbolLang::leaf("x"));
        eg.add(SymbolLang::new("f", vec![a, x]));
        eg.add(SymbolLang::new("f", vec![b, x]));
        eg.rebuild();
        let pats = [pat("(f a ?x)"), pat("(f b ?x)"), pat("(f c ?x)")];
        assert_trie_matches_per_pattern(&eg, &pats, &[1, 2]);
    }

    #[test]
    fn trie_handles_compare_divergence_and_scan_mix() {
        let mut eg = EG::default();
        for i in 0..6 {
            let l = eg.add(SymbolLang::leaf(format!("l{i}")));
            let r = eg.add(SymbolLang::leaf(format!("r{}", i / 2)));
            let f = eg.add(SymbolLang::new("f", vec![l, r]));
            if i % 2 == 0 {
                eg.add(SymbolLang::new("f", vec![f, f]));
            }
        }
        eg.rebuild();
        let pats = [
            // Shared Bind prefix, diverging on Compare vs nothing.
            pat("(f ?x ?x)"),
            pat("(f ?x ?y)"),
            // Var-rooted Scan mixed with bound-root patterns.
            pat("?x"),
            // Nested shape sharing the same root op.
            pat("(f (f ?a ?b) ?c)"),
            // Identical LHS registered twice (two rules, same trie leaf).
            pat("(f ?x ?y)"),
        ];
        assert_trie_matches_per_pattern(&eg, &pats, &[1, 2, 5]);
    }

    #[test]
    fn shared_budget_exhaustion_falls_back_to_exact_per_rule_search() {
        // The explosive probe alone blows MATCH_WORK_BUDGET on this
        // class (400×400 backtracking visits), so both the shared walk
        // and the solo run truncate — the fallback must make the
        // shared result byte-identical anyway, and the cheap rule
        // sharing the branch must still see its full match set (no
        // budget starvation from sharing).
        let (eg, explosive) = explosive_workload(1, 400);
        let cheap = pat("(g ?a ?b)");
        let pats = [explosive, cheap];
        assert_trie_matches_per_pattern(&eg, &pats, &[1]);
    }

    #[test]
    fn budget_exhaustions_are_counted_per_walk() {
        let (eg, explosive) = explosive_workload(2, 400);
        let cheap = pat("(g ?a ?b)");
        // One per (rule, class) run of the explosive probe.
        let solo = AtomicUsize::new(0);
        for p in [&explosive, &cheap] {
            p.search_counted(&eg, usize::MAX, &CancelToken::new(), &solo);
        }
        assert_eq!(solo.into_inner(), 2);
        // One per (branch, class) shared walk, plus the probe's solo
        // re-run of each class.
        let prog = RuleSetProgram::compile(&[&explosive, &cheap]);
        let shared = AtomicUsize::new(0);
        let directives = [RuleDirective::Limit(usize::MAX); 2];
        prog.search_counted(&eg, &directives, &CancelToken::new(), None, 1, &shared);
        assert_eq!(shared.into_inner(), 4);
    }

    #[test]
    fn skip_directive_prunes_but_keeps_other_rules_exact() {
        let (eg, explosive) = explosive_workload(2, 40);
        let cheap = pat("(g ?a ?b)");
        let prog = RuleSetProgram::compile(&[&explosive, &cheap]);
        let directives = [RuleDirective::Skip, RuleDirective::Limit(usize::MAX)];
        let slots = prog.search(&eg, &directives, &CancelToken::new(), None, 1);
        let (skipped, skipped_time) = slots[0].as_ref().unwrap();
        assert!(skipped.is_empty(), "a Skip rule yields no matches");
        assert_eq!(*skipped_time, std::time::Duration::ZERO);
        let (matches, _) = slots[1].as_ref().unwrap();
        assert_eq!(flat(matches), flat(&pat("(g ?a ?b)").search(&eg)));
    }

    #[test]
    fn match_limit_directive_masks_at_class_boundary() {
        let mut eg = EG::default();
        for i in 0..10 {
            let a = eg.add(SymbolLang::leaf(format!("a{i}")));
            let b = eg.add(SymbolLang::leaf(format!("b{i}")));
            eg.add(SymbolLang::new("g", vec![a, b]));
        }
        eg.rebuild();
        let p = pat("(g ?x ?y)");
        let prog = RuleSetProgram::compile(&[&p]);
        for limit in [0usize, 3, 9, 100] {
            let slots = prog.search(
                &eg,
                &[RuleDirective::Limit(limit)],
                &CancelToken::new(),
                None,
                1,
            );
            let (matches, _) = slots[0].as_ref().unwrap();
            assert_eq!(
                flat(matches),
                flat(&p.search_with_limit(&eg, limit)),
                "limit={limit}"
            );
        }
    }

    #[test]
    fn cancelled_token_stops_shared_trie_within_one_quantum() {
        let (eg, explosive) = explosive_workload(1, 400);
        let cheap = pat("(g ?a ?b)");
        let prog = RuleSetProgram::compile(&[&explosive, &cheap]);
        let class = *eg
            .classes_with_op(&SymbolLang::leaf("g").discriminant())
            .first()
            .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let ground = prog.resolve_shared_ground(&eg);
        let masked = vec![false, false];
        let mut node_live = prog.branch_live_counts(0, &masked);
        let mut cap_undo = Vec::new();
        let mut regs = vec![Id::from_index(0); prog.n_regs];
        regs[0] = eg.find(class);
        let mut found = vec![0usize; 2];
        let mut outs = vec![Vec::new(), Vec::new()];
        let mut machine = MultiMachine {
            instr: &prog.instr,
            plan_range: &prog.plan_range,
            out_range: &prog.out_range,
            plan_pool: &prog.plan_pool,
            leaf_pool: &prog.leaf_pool,
            parent: &prog.parent,
            regs: &mut regs,
            ground: &ground,
            node_live: &mut node_live,
            cap_undo: &mut cap_undo,
            rule_slot: &prog.rule_slot,
            masked: &masked,
            found: &mut found,
            live: 2,
            out: &mut outs,
            cancel: &token,
        };
        let start_budget = 10_000usize;
        let mut budget = start_budget;
        let outcome = machine.run_plan(&eg, prog.root_plan_range[0], &mut budget);
        assert_eq!(outcome, RunOutcome::Cancelled);
        let work_done = start_budget - budget;
        assert!(
            work_done <= CANCEL_CHECK_QUANTUM,
            "a set token must stop the shared trie within one quantum, did {work_done} visits"
        );
    }

    #[test]
    fn pre_cancelled_shared_search_skips_every_rule() {
        let (eg, explosive) = explosive_workload(4, 40);
        let cheap = pat("(g ?a ?b)");
        let prog = RuleSetProgram::compile(&[&explosive, &cheap]);
        let directives = vec![RuleDirective::Limit(usize::MAX); 2];
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            let slots = prog.search(&eg, &directives, &token, None, threads);
            assert!(
                slots.iter().all(Option::is_none),
                "a pre-set token must report every rule as skipped"
            );
        }
    }

    #[test]
    fn expired_deadline_skips_every_rule() {
        let (eg, explosive) = explosive_workload(4, 40);
        let prog = RuleSetProgram::compile(&[&explosive]);
        // `past` requires strictly-greater, so an already-elapsed
        // instant is an expired deadline by the next check.
        let deadline = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let slots = prog.search(
            &eg,
            &[RuleDirective::Limit(usize::MAX)],
            &CancelToken::new(),
            Some(deadline),
            1,
        );
        assert!(slots.iter().all(Option::is_none));
    }

    #[test]
    fn panicking_search_worker_propagates_its_payload_cleanly() {
        // The fan-out must join *every* worker and hand over the
        // others' results before re-raising one payload, unchanged.
        // Item 0 is every claimant's first item, so all other items
        // complete on the surviving workers; re-raising on the first
        // failed join would drop the results of workers joined later.
        let n = 64;
        for threads in [1, 4] {
            for _ in 0..20 {
                let mut seen = Vec::new();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fan_out(
                        n,
                        threads,
                        || false,
                        |i| {
                            if i == 0 {
                                panic!("branch worker exploded on purpose");
                            }
                            Some(i)
                        },
                        |i| seen.push(i),
                    )
                }));
                let payload = result.expect_err("the worker panic must propagate");
                let message = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .expect("payload should be the original &str");
                assert_eq!(
                    message, "branch worker exploded on purpose",
                    "threads={threads}"
                );
                seen.sort_unstable();
                let expected: Vec<usize> = if threads > 1 {
                    (1..n).collect()
                } else {
                    Vec::new()
                };
                assert_eq!(seen, expected, "threads={threads}");
            }
        }
    }

    #[test]
    fn mid_search_cancellation_stops_promptly() {
        use std::time::{Duration, Instant};
        let (eg, p) = explosive_workload(80, 200);
        let start = Instant::now();
        let full = p.search(&eg);
        let full_time = start.elapsed();
        assert!(full.is_empty(), "the nonlinear probe must never close");

        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                token.cancel();
            })
        };
        let start = Instant::now();
        let cancelled = p.search_with_limit_and_token(&eg, usize::MAX, &token);
        let cancelled_time = start.elapsed();
        canceller.join().unwrap();
        assert!(cancelled.is_empty());
        // Only discriminating when the full search is slow enough for
        // the 5 ms cancel to land mid-flight.
        if full_time > Duration::from_millis(50) {
            assert!(
                cancelled_time < full_time / 2,
                "cancelled search took {cancelled_time:?} vs full {full_time:?}"
            );
        }
    }
}
