//! Classical path expressions and Section 8's simplified construction.
//!
//! A path expression is a regular expression over node conditions read
//! *root-to-node* — the paper's `(section*, figure)` example. As Section 5
//! observes, it is exactly a pointed hedge representation whose elder and
//! younger conditions are all universal; and as Section 8's closing
//! construction shows, in that degenerate case the whole `(Q*/≡) × Σ ×
//! (Q*/≡)` machinery collapses: `≡` has a single class, `Σ` suffices as the
//! alphabet, and the match-identifying automaton shrinks to
//! `(S × Σ) ∪ {⊥}` states.
//!
//! This module provides the path engine [`CompiledPath`] (one top-down DFA,
//! every evaluation mode, index pruning), the embedding into PHRs (for
//! reports that describe the PHR pipeline and for the E8 ablation
//! benchmark), and the simplified match-identifying NHA.
//!
//! Concrete syntax: HRE-style regex over names, e.g. `sec* fig`,
//! `(chap|app) sec fig?`.

use std::collections::{BTreeSet, HashMap};

use hedgex_automata::{CharClass, DenseDfa, Dfa, Nfa, Regex, StateId};
use hedgex_ha::{HState, Leaf, Nha};
use hedgex_hedge::flat::FlatLabel;
use hedgex_hedge::{Alphabet, FlatHedge, NodeId, SubId, SymId, VarId};
use hedgex_obs as obs;

use crate::hre::{Hre, HreParseError};
use crate::phr::{Pbhr, Phr};
use crate::plan::Query;
use crate::two_pass::{EvalMode, EvalOutcome, EvalScratch, PruneInfo};

/// A classical path expression: a regular expression over Σ, read from the
/// root down to the located node (inclusive).
#[derive(Debug, Clone)]
pub struct PathExpr {
    /// The top-down regex.
    pub regex: Regex<SymId>,
}

impl PathExpr {
    /// Locate all matching nodes with a single top-down traversal: a node
    /// is located iff the DFA accepts the label path from its top-level
    /// ancestor down to itself. Compiles a [`CompiledPath`] per call; to
    /// run one query over many documents, compile it once and use
    /// [`Query::eval_into`].
    pub fn locate(&self, h: &FlatHedge) -> Vec<NodeId> {
        let mut scratch = EvalScratch::new();
        CompiledPath::with_columns(self, 0).eval_into(h, &mut scratch, EvalMode::Locate);
        scratch.located
    }

    /// Embed into a pointed hedge representation with universal sibling
    /// conditions (one triplet per Σ symbol, regex mirrored into the
    /// bottom-up decomposition order). `sigma`/`vars` is the document
    /// alphabet the universal expressions must cover; `z` is a scratch
    /// substitution symbol.
    pub fn to_phr(&self, sigma: &[SymId], vars: &[VarId], z: SubId) -> Phr {
        let universal = Hre::universal(sigma, vars, z);
        let triplets: Vec<Pbhr> = sigma
            .iter()
            .map(|&a| Pbhr {
                elder: universal.clone(),
                label: a,
                younger: universal.clone(),
            })
            .collect();
        let idx: HashMap<SymId, u32> = sigma
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, i as u32))
            .collect();
        // Path regexes are top-down; PHR decomposition order is bottom-up.
        let regex = self
            .regex
            .reverse()
            .substitute(&mut |c: &CharClass<SymId>| {
                Regex::any_of(
                    sigma
                        .iter()
                        .filter(|a| c.contains(a))
                        .map(|a| Regex::sym(idx[a])),
                )
            });
        Phr { triplets, regex }
    }

    /// Symbols that appear on *every* root-to-node path the expression
    /// accepts, or `None` when the expression denotes no paths at all.
    /// Purely structural — no automata are built: a starred step requires
    /// nothing, an alternation requires what *both* branches require, a
    /// concatenation requires what either factor requires. Sound for
    /// index pruning: every located node's ancestor chain spells an
    /// accepted word, so a document lacking a required symbol cannot
    /// contain a match.
    pub fn required_syms(&self) -> Option<Vec<SymId>> {
        fn required(r: &Regex<SymId>) -> Option<BTreeSet<SymId>> {
            match r {
                // None = empty language (every symbol vacuously required).
                Regex::Empty => None,
                Regex::Epsilon | Regex::Star(_) => Some(BTreeSet::new()),
                Regex::Sym(CharClass::In(set)) if set.is_empty() => None,
                Regex::Sym(CharClass::In(set)) if set.len() == 1 => Some(set.clone()),
                Regex::Sym(_) => Some(BTreeSet::new()),
                Regex::Concat(a, b) => match (required(a), required(b)) {
                    (Some(x), Some(y)) => Some(x.union(&y).cloned().collect()),
                    _ => None,
                },
                Regex::Alt(a, b) => match (required(a), required(b)) {
                    (Some(x), Some(y)) => Some(x.intersection(&y).cloned().collect()),
                    (Some(x), None) => Some(x),
                    (None, y) => y,
                },
            }
        }
        required(&self.regex).map(|set| set.into_iter().collect())
    }

    /// Section 8's simplified match-identifying automaton for path
    /// expressions: states `(S × Σ) ∪ {⊥}`, no equivalence classes.
    pub fn match_identifying_nha(&self, sigma: &[SymId], vars: &[VarId]) -> PathMarkUp {
        let n: Dfa<SymId> = Nfa::from_regex(&self.regex).to_dfa();
        let ns = n.num_states() as u32;
        let mut sigma = sigma.to_vec();
        sigma.sort();
        sigma.dedup();
        let na = sigma.len() as u32;
        // Id 0 = ⊥; then 1 + s·|Σ| + a.
        let triple = |s: u32, ai: u32| 1 + s * na + ai;
        let num_states = 1 + ns * na;

        let mut iota: HashMap<Leaf, Vec<HState>> = HashMap::new();
        for &x in vars {
            iota.insert(Leaf::Var(x), vec![0]);
        }

        // Allowed children of a node in N-state s: ⊥ or (μ(s, a'), a').
        let allowed = |s: u32| -> Regex<HState> {
            let mut ids: Vec<HState> = vec![0];
            for (ai, &a) in sigma.iter().enumerate() {
                ids.push(triple(n.step(s, &a), ai as u32));
            }
            Regex::class(CharClass::of(ids)).star()
        };

        let mut rules: HashMap<SymId, Vec<(Dfa<HState>, HState)>> = HashMap::new();
        for (ai, &a) in sigma.iter().enumerate() {
            for s in 0..ns {
                let lang = Nfa::from_regex(&allowed(s)).to_dfa();
                rules
                    .entry(a)
                    .or_default()
                    .push((lang, triple(s, ai as u32)));
            }
        }
        let finals = Nfa::from_regex(&allowed(n.start()));
        let marked: Vec<bool> = (0..num_states)
            .map(|id| {
                if id == 0 {
                    false
                } else {
                    n.is_accepting((id - 1) / na)
                }
            })
            .collect();
        PathMarkUp {
            nha: Nha::from_parts(num_states, iota, rules, finals),
            marked,
        }
    }
}

/// A path expression compiled once for evaluation: Section 8's single
/// top-down DFA over Σ, as a dense `state × SymId` table, plus the prune
/// facts the path itself proves. It evaluates in every [`EvalMode`],
/// plain or index-pruned ([`Query`]), and is the only path compiler:
/// [`PathExpr::locate`] and the streaming `PathStream` step the same
/// table.
///
/// A node's state is the DFA run on the labels from its top-level
/// ancestor down to itself; the node matches iff that state accepts. A
/// subtree under a state from which no accepting state is reachable is
/// never visited.
#[derive(Debug, Clone)]
pub struct CompiledPath {
    dense: DenseDfa<SymId>,
    /// Symbols `SymId(0..columns)` have their own table column; any later
    /// symbol takes the co-finite edge.
    columns: usize,
    /// `live[q]`: some accepting state is reachable from `q`.
    live: Vec<bool>,
    /// `None` when the path denotes no paths at all (nothing can match).
    required_syms: Option<Vec<SymId>>,
    match_syms: Option<Vec<SymId>>,
}

impl CompiledPath {
    /// Compile `path` with a table column for every symbol interned in
    /// `ab` so far. Symbols interned later take the DFA's co-finite edge,
    /// which is exactly the transition a name the path never mentions
    /// deserves.
    pub fn compile(path: &PathExpr, ab: &Alphabet) -> CompiledPath {
        CompiledPath::with_columns(path, ab.num_syms())
    }

    /// NFA → DFA → dense table with at least `columns` symbol columns (and
    /// always one for every symbol the path mentions).
    pub(crate) fn with_columns(path: &PathExpr, columns: usize) -> CompiledPath {
        let _span = obs::span("core.path.compile");
        let nfa = Nfa::from_regex(&path.regex);
        let columns = nfa
            .mentioned_symbols()
            .last()
            .map_or(columns, |a| columns.max(a.0 as usize + 1));
        let syms: Vec<SymId> = (0..columns as u32).map(SymId).collect();
        let dense = DenseDfa::compile(&nfa.to_dfa(), &syms);
        let n = dense.num_states();
        // Backward reachability from the accepting states over every
        // column, the co-finite one included.
        let mut live: Vec<bool> = (0..n as StateId).map(|q| dense.is_accepting(q)).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for q in 0..n {
                if !live[q] && (0..=columns).any(|i| live[dense.step_idx(q as StateId, i) as usize])
                {
                    live[q] = true;
                    changed = true;
                }
            }
        }
        // A label can match iff it takes some live state to an accepting
        // one; if the co-finite column can, unnamed symbols can match too
        // and no finite list bounds the matches.
        let accepts_via = |i: usize| {
            (0..n as StateId).any(|q| live[q as usize] && dense.is_accepting(dense.step_idx(q, i)))
        };
        let match_syms = (!accepts_via(columns)).then(|| {
            (0..columns)
                .filter(|&i| accepts_via(i))
                .map(|i| SymId(i as u32))
                .collect()
        });
        CompiledPath {
            dense,
            columns,
            live,
            required_syms: path.required_syms(),
            match_syms,
        }
    }

    /// The state before the top-level nodes.
    pub fn start(&self) -> StateId {
        self.dense.start()
    }

    /// The state of a child labelled `a` under a node in state `q`.
    #[inline]
    pub fn step(&self, q: StateId, a: SymId) -> StateId {
        self.dense.step_idx(q, (a.0 as usize).min(self.columns))
    }

    /// Does a node in state `q` match?
    #[inline]
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.dense.is_accepting(q)
    }

    /// The one traversal behind every mode: a preorder depth-first search
    /// that steps the DFA once per visited `Σ` node and never enters a
    /// subtree whose state is dead. With `prune`, it also skips every
    /// subtree whose preorder range holds no candidate; since visited ids
    /// only grow, one forward cursor over the sorted candidates answers
    /// that test in amortized O(1). Returns the outcome and the number of
    /// subtrees the index pruned.
    fn run(
        &self,
        h: &FlatHedge,
        prune: Option<&PruneInfo<'_>>,
        scratch: &mut EvalScratch,
        mode: EvalMode,
    ) -> (EvalOutcome, u64) {
        let _span = obs::span("core.path.eval");
        let EvalScratch { stack, located, .. } = scratch;
        located.clear();
        if self.required_syms.is_none() {
            return (EvalOutcome::empty(mode), 0);
        }
        stack.clear();
        if let Some(&first) = h.roots().first() {
            stack.push((first, self.start()));
        }
        let (mut count, mut skipped, mut cursor) = (0u64, 0u64, 0usize);
        while let Some((id, from)) = stack.pop() {
            // The younger sibling shares the parent's state; pushing it
            // before the first child keeps the search in preorder.
            if let Some(next) = h.next_sibling(id) {
                stack.push((next, from));
            }
            if let Some(p) = prune {
                let c = p.candidates;
                while cursor < c.len() && c[cursor] < id {
                    cursor += 1;
                }
                if !matches!(c.get(cursor), Some(&n) if n < p.subtree_end[id as usize]) {
                    skipped += 1;
                    continue;
                }
            }
            let FlatLabel::Sym(a) = h.label(id) else {
                continue;
            };
            let s = self.step(from, a);
            if self.is_accepting(s) {
                match mode {
                    EvalMode::Locate => located.push(id),
                    EvalMode::Count => count += 1,
                    EvalMode::Exists => return (EvalOutcome::Exists(true), skipped),
                }
            }
            if self.live[s as usize] {
                if let Some(child) = h.first_child(id) {
                    stack.push((child, s));
                }
            }
        }
        let outcome = match mode {
            EvalMode::Locate => EvalOutcome::Located(located.len()),
            EvalMode::Count => EvalOutcome::Count(count),
            EvalMode::Exists => EvalOutcome::Exists(false),
        };
        (outcome, skipped)
    }
}

impl Query for CompiledPath {
    fn eval_into(&self, h: &FlatHedge, scratch: &mut EvalScratch, mode: EvalMode) -> EvalOutcome {
        self.run(h, None, scratch, mode).0
    }

    fn eval_pruned_into(
        &self,
        h: &FlatHedge,
        prune: &PruneInfo<'_>,
        scratch: &mut EvalScratch,
        mode: EvalMode,
    ) -> (EvalOutcome, u64) {
        debug_assert_eq!(prune.subtree_end.len(), h.num_nodes());
        self.run(h, Some(prune), scratch, mode)
    }

    /// The labels that take some live state to an accepting one.
    fn match_syms(&self) -> Option<Vec<SymId>> {
        self.match_syms.clone()
    }

    /// Checks [`PathExpr::required_syms`]; a path denoting no paths
    /// requires everything.
    fn missing_required_sym(&self, has_sym: impl Fn(SymId) -> bool) -> bool {
        match &self.required_syms {
            Some(req) => req.iter().any(|&a| !has_sym(a)),
            None => true,
        }
    }
}

/// The simplified match-identifying automaton of Section 8's last display.
pub struct PathMarkUp {
    /// The automaton; accepts every hedge over its alphabet, one successful
    /// computation each.
    pub nha: Nha,
    /// Marked states `S_fin × Σ`.
    pub marked: Vec<bool>,
}

impl PathMarkUp {
    /// Locate via constrained acceptance (test/verification path; linear
    /// evaluation is [`PathExpr::locate`]).
    pub fn locate(&self, h: &FlatHedge) -> Vec<NodeId> {
        h.preorder()
            .filter(|&n| {
                matches!(h.label(n), FlatLabel::Sym(_))
                    && self
                        .nha
                        .accepts_flat_filtered(h, &|id, q| id != n || self.marked[q as usize])
            })
            .collect()
    }
}

/// Parse a path expression (HRE-style regex over bare names; `$`, `<`, `%`
/// are not allowed).
pub fn parse_path(src: &str, ab: &mut Alphabet) -> Result<PathExpr, HreParseError> {
    let mut p = PathParser { src, pos: 0, ab };
    let regex = p.alt()?;
    p.skip_ws();
    if p.pos != src.len() {
        return Err(HreParseError {
            pos: p.pos,
            msg: "trailing input".into(),
        });
    }
    Ok(PathExpr { regex })
}

struct PathParser<'a, 'b> {
    src: &'a str,
    pos: usize,
    ab: &'b mut Alphabet,
}

impl PathParser<'_, '_> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }
    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }
    fn err(&self, msg: impl Into<String>) -> HreParseError {
        HreParseError {
            pos: self.pos,
            msg: msg.into(),
        }
    }
    fn alt(&mut self) -> Result<Regex<SymId>, HreParseError> {
        let mut e = self.seq()?;
        loop {
            self.skip_ws();
            if self.peek() == Some('|') {
                self.bump();
                e = e.alt(self.seq()?);
            } else {
                return Ok(e);
            }
        }
    }
    fn seq(&mut self) -> Result<Regex<SymId>, HreParseError> {
        let mut e = self.factor()?;
        loop {
            self.skip_ws();
            match self.peek() {
                None | Some(')') | Some('|') => return Ok(e),
                _ => e = e.concat(self.factor()?),
            }
        }
    }
    fn factor(&mut self) -> Result<Regex<SymId>, HreParseError> {
        let mut e = self.atom()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some('*') => {
                    self.bump();
                    e = e.star();
                }
                Some('+') => {
                    self.bump();
                    e = e.plus();
                }
                Some('?') => {
                    self.bump();
                    e = e.opt();
                }
                _ => return Ok(e),
            }
        }
    }
    fn atom(&mut self) -> Result<Regex<SymId>, HreParseError> {
        self.skip_ws();
        match self.peek() {
            Some('(') => {
                self.bump();
                let e = self.alt()?;
                self.skip_ws();
                if self.bump() != Some(')') {
                    return Err(self.err("expected ')'"));
                }
                Ok(e)
            }
            Some(c) if !"|*+?)".contains(c) => {
                let start = self.pos;
                while matches!(self.peek(), Some(c)
                    if !c.is_whitespace() && !"()|*+?".contains(c))
                {
                    self.bump();
                }
                if self.pos == start {
                    return Err(self.err("expected a name"));
                }
                let name = self.src[start..self.pos].to_string();
                Ok(Regex::sym(self.ab.sym(&name)))
            }
            _ => Err(self.err("expected an atom")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phr_compile::CompiledPhr;
    use crate::two_pass;
    use hedgex_ha::enumerate::enumerate_hedges;
    use hedgex_hedge::{parse_hedge, Hedge, Tree};

    #[test]
    fn paper_intro_example() {
        // (section*, figure): figures at any section depth.
        let mut ab = Alphabet::new();
        let p = parse_path("sec* fig", &mut ab).unwrap();
        let h = parse_hedge("sec<fig sec<fig> par> fig par<fig>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        // Nodes: 0 sec, 1 fig✓, 2 sec, 3 fig✓, 4 par, 5 fig✓(top), 6 par,
        // 7 fig✗ (under par).
        assert_eq!(p.locate(&f), vec![1, 3, 5]);
    }

    #[test]
    fn compiled_path_prune_facts_come_from_the_path() {
        let mut ab = Alphabet::new();
        let p = parse_path("a b* c", &mut ab).unwrap();
        let (a, b, c) = (ab.sym("a"), ab.sym("b"), ab.sym("c"));
        let cp = CompiledPath::compile(&p, &ab);
        assert_eq!(cp.match_syms(), Some(vec![c]), "only a c can match");
        assert!(!cp.missing_required_sym(|s| s == a || s == c));
        assert!(cp.missing_required_sym(|s| s == a || s == b));
        // A path denoting nothing requires everything and matches nowhere.
        let empty = CompiledPath::compile(
            &PathExpr {
                regex: Regex::Empty,
            },
            &ab,
        );
        assert!(empty.missing_required_sym(|_| true));
        let h = parse_hedge("a<c>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        let mut scratch = EvalScratch::new();
        assert_eq!(
            empty.eval_into(&f, &mut scratch, EvalMode::Count),
            EvalOutcome::Count(0)
        );
        assert_eq!(
            cp.eval_into(&f, &mut scratch, EvalMode::Count),
            EvalOutcome::Count(1)
        );
    }

    #[test]
    fn compiled_path_skips_dead_subtrees_and_unnamed_symbols() {
        // `a` at the top only: under a `c` root the state is dead, so the
        // search never descends, and `c` (interned after the compile)
        // takes the co-finite edge.
        let mut ab = Alphabet::new();
        let p = parse_path("a", &mut ab).unwrap();
        let cp = CompiledPath::compile(&p, &ab);
        let c = ab.sym("c");
        let mut h = Hedge::leaf(c);
        for _ in 0..50 {
            h = Hedge::node(c, h);
        }
        h.0.push(Tree::Node(ab.get_sym("a").unwrap(), Hedge::empty()));
        let f = FlatHedge::from_hedge(&h);
        let mut scratch = EvalScratch::new();
        assert_eq!(
            cp.eval_into(&f, &mut scratch, EvalMode::Locate),
            EvalOutcome::Located(1)
        );
        assert_eq!(scratch.located(), &[51]);
        assert_eq!(
            cp.eval_into(&f, &mut scratch, EvalMode::Exists),
            EvalOutcome::Exists(true)
        );
        // Pruned with only the last root as a candidate: the chain is one
        // index skip.
        let end = crate::two_pass::subtree_ends(&f);
        let prune = PruneInfo {
            candidates: &[51],
            subtree_end: &end,
        };
        assert_eq!(
            cp.eval_pruned_into(&f, &prune, &mut scratch, EvalMode::Count),
            (EvalOutcome::Count(1), 1)
        );
    }

    #[test]
    fn path_as_phr_agrees_with_direct() {
        let mut ab = Alphabet::new();
        let p = parse_path("a* b", &mut ab).unwrap();
        ab.sym("c");
        let z = ab.sub("zz");
        let syms: Vec<_> = ab.syms().collect();
        let vars: Vec<_> = ab.vars().collect();
        let phr = p.to_phr(&syms, &vars, z);
        let compiled = CompiledPhr::compile(&phr);
        for h in enumerate_hedges(&syms, &[], 5) {
            let f = FlatHedge::from_hedge(&h);
            assert_eq!(
                two_pass::locate(&compiled, &f),
                p.locate(&f),
                "PHR embedding disagrees on {h:?}"
            );
        }
    }

    #[test]
    fn simplified_mark_up_agrees_with_direct() {
        let mut ab = Alphabet::new();
        let p = parse_path("(a|b)* b", &mut ab).unwrap();
        let syms: Vec<_> = ab.syms().collect();
        let vars: Vec<_> = ab.vars().collect();
        let mu = p.match_identifying_nha(&syms, &vars);
        for h in enumerate_hedges(&syms, &vars, 4) {
            let f = FlatHedge::from_hedge(&h);
            assert!(mu.nha.accepts_flat(&f), "must accept {h:?}");
            assert_eq!(mu.locate(&f), p.locate(&f), "marking disagrees on {h:?}");
        }
    }

    #[test]
    fn xpath_inexpressible_example() {
        // Section 2: `a*` ("all ancestors are a, node is a") is a path
        // expression here even though XPath cannot express it.
        let mut ab = Alphabet::new();
        let p = parse_path("a* a", &mut ab).unwrap();
        let h = parse_hedge("a<a<a> b<a>> b<a>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        assert_eq!(p.locate(&f), vec![0, 1, 2]);
    }

    #[test]
    fn alternation_and_opt() {
        let mut ab = Alphabet::new();
        let p = parse_path("(a|b) c?", &mut ab).unwrap();
        let h = parse_hedge("a<c> b c<c>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        // a(0)✓, c under a(1)✓, b(2)✓, c(3)✗ top-level, c(4)✗ under c.
        assert_eq!(p.locate(&f), vec![0, 1, 2]);
    }

    #[test]
    fn parse_errors() {
        let mut ab = Alphabet::new();
        assert!(parse_path("(a", &mut ab).is_err());
        assert!(parse_path("*", &mut ab).is_err());
        assert!(parse_path("a)", &mut ab).is_err());
    }

    #[test]
    fn required_syms_skip_starred_and_alternated_steps() {
        let mut ab = Alphabet::new();
        let (a, b, c) = (ab.sym("a"), ab.sym("b"), ab.sym("c"));
        let req = |src: &str, ab: &mut Alphabet| parse_path(src, ab).unwrap().required_syms();
        assert_eq!(req("a b* c", &mut ab), Some(vec![a, c]));
        assert_eq!(req("a b c", &mut ab), Some(vec![a, b, c]));
        assert_eq!(req("(a|b) c", &mut ab), Some(vec![c]));
        assert_eq!(req("(a c|c a)", &mut ab), Some(vec![a, c]));
        assert_eq!(req("a?", &mut ab), Some(vec![]));
        assert_eq!(req("b b*", &mut ab), Some(vec![b]));
        assert_eq!(
            PathExpr {
                regex: Regex::Empty
            }
            .required_syms(),
            None,
            "the empty path language requires everything"
        );
    }
}
