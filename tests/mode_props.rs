//! The mode-consistency differential suite (ISSUE 9 tentpole): on every
//! generated (query, document) pair, all three evaluation modes must tell
//! one story — `count` equals `locate().len()` and `exists` equals
//! `!locate().is_empty()` — whichever engine runs them: the materialized
//! two-pass core, the [`Plan`] front door, the push-based [`PhrStream`]
//! finishers, or the [`ParallelEvaluator`] worker pool. The `exists`
//! engine prunes provably barren subtrees and stops early, the `count`
//! engine tallies per state without materializing the match set, so the
//! agreement is a real theorem, not three spellings of one loop.
//!
//! The path engine gets the same treatment on exhaustive input: on every
//! small hedge, [`CompiledPath`] (Section 8's top-down DFA) must agree
//! with the simplified match-identifying automaton `PathMarkUp` and with
//! two-pass over the path's PHR embedding, in every mode, pruned and not.
//!
//! Graded child constraints (`e{>=n}` / `e{<=n}`) are checked against the
//! declarative oracle: the parse-time desugaring must denote exactly the
//! hand-expanded language, on random hedges, through both `Hre::matches`
//! and `locate_naive`.
//!
//! Runs on `hedgex-testkit`'s shrinking `forall` runner and is exercised
//! by CI both with default features and with `--no-default-features`
//! (modes must not depend on instrumentation).

use std::cell::RefCell;

use hedgex::core::phr::Phr;
use hedgex::core::two_pass::{count, exists};
use hedgex::core::{subtree_ends, CompiledPhr, Hre, PruneInfo};
use hedgex::ha::enumerate_hedges;
use hedgex::hedge::flat::FlatLabel;
use hedgex::hedge::{Hedge, NodeId, SymId, Tree, VarId};
use hedgex::prelude::*;
use hedgex_testkit::prop::shrink_vec;
use hedgex_testkit::{forall, prop_assert, prop_assert_eq, zip2, Config, Gen, Rng};

// ---------------------------------------------------------------------------
// Generators (same document distribution as tests/stream_props.rs)
// ---------------------------------------------------------------------------

/// A random document tree over symbols {0, 1} and one variable.
fn gen_tree(rng: &mut Rng, depth: usize) -> Tree {
    if depth == 0 || rng.random_bool(0.4) {
        if rng.random_bool(0.25) {
            Tree::Var(VarId(0))
        } else {
            Tree::Node(SymId(rng.random_range(0..2u32)), Hedge::empty())
        }
    } else {
        Tree::Node(
            SymId(rng.random_range(0..2u32)),
            Hedge(
                (0..rng.random_range(0..4usize))
                    .map(|_| gen_tree(rng, depth - 1))
                    .collect(),
            ),
        )
    }
}

fn shrink_tree(t: &Tree) -> Vec<Tree> {
    match t {
        Tree::Node(a, h) => {
            let mut out: Vec<Tree> = h.0.clone();
            out.extend(
                shrink_vec(&h.0, shrink_tree)
                    .into_iter()
                    .map(|trees| Tree::Node(*a, Hedge(trees))),
            );
            out
        }
        Tree::Var(_) => vec![Tree::Node(SymId(0), Hedge::empty())],
        Tree::Subst(_) => vec![],
    }
}

fn arb_doc() -> Gen<Hedge> {
    Gen::new(|rng| {
        Hedge(
            (0..rng.random_range(0..4usize))
                .map(|_| gen_tree(rng, 3))
                .collect(),
        )
    })
    .with_shrink(|h| {
        shrink_vec(&h.0, shrink_tree)
            .into_iter()
            .map(Hedge)
            .collect()
    })
}

fn pick_query(n: usize) -> Gen<usize> {
    Gen::new(move |rng| rng.random_range(0..n))
}

/// PHR pool over {a, b}: the stream-props shapes plus graded components,
/// so the mode agreement covers desugared `{>=n}`/`{<=n}` too.
fn phr_pool() -> Vec<(Phr, CompiledPhr, Plan)> {
    let mut ab = Alphabet::new();
    let a = ab.sym("a");
    let b = ab.sym("b");
    assert_eq!((a, b), (SymId(0), SymId(1)), "generators assume this order");
    let u = "(a<%z>|b<%z>|$v)*^z";
    [
        "[ε ; a ; ε]".to_string(),
        "[ε ; a ; b]".to_string(),
        "[b ; a ; ε][ε ; b ; ε]".to_string(),
        format!("[{u} ; a ; {u}]"),
        format!("([ε ; a ; ε]|[{u} ; b ; a])"),
        format!("[{u} ; a ; {u}][ε ; b ; ε]*"),
        format!("([{u} ; a ; {u}]|[{u} ; b ; {u}])*"),
        "[a* ; b ; a*]".to_string(),
        "[a<%z>^z ; b ; ε]".to_string(),
        "[a{>=2} ; b ; ε]".to_string(),
        "[(a|b){<=1} ; a ; a{>=1}]".to_string(),
    ]
    .iter()
    .map(|src| {
        // `$v` must intern as VarId(0) the first time it appears.
        let phr = parse_phr(src, &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let plan = Plan::compile(&phr);
        (phr, compiled, plan)
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Mode consistency
// ---------------------------------------------------------------------------

/// The tentpole claim: every engine, every mode, one answer. `locate` is
/// the ground truth (itself checked against `locate_naive` elsewhere);
/// count and exists must agree with it through the core entry points, the
/// plan (with its known-empty and required-symbol gates), the outcome
/// dispatcher, the streaming finishers, and the worker pool.
#[test]
fn count_and_exists_agree_with_locate_everywhere() {
    let pool = phr_pool();
    let scratch = RefCell::new(EvalScratch::new());
    forall(
        "mode_consistency",
        Config::with_cases(300),
        &zip2(pick_query(pool.len()), arb_doc()),
        |(i, doc)| {
            let (_, compiled, plan) = &pool[*i];
            let flat = FlatHedge::from_hedge(doc);
            let located = plan.locate_into(&flat, &mut scratch.borrow_mut()).to_vec();
            let n = located.len() as u64;
            let some = !located.is_empty();

            // Materialized core.
            prop_assert_eq!(count(compiled, &flat), n, "two_pass::count on {:?}", doc);
            prop_assert_eq!(
                exists(compiled, &flat),
                some,
                "two_pass::exists on {:?}",
                doc
            );

            // Plan front door (known-empty / required-symbol gates active).
            prop_assert_eq!(plan.count(&flat), n, "Plan::count on {:?}", doc);
            prop_assert_eq!(plan.exists(&flat), some, "Plan::exists on {:?}", doc);

            // The mode dispatcher ties outcomes to the same answers.
            let s = &mut *scratch.borrow_mut();
            prop_assert_eq!(
                plan.eval_into(&flat, s, EvalMode::Locate),
                EvalOutcome::Located(n as usize)
            );
            prop_assert_eq!(
                plan.eval_into(&flat, s, EvalMode::Count),
                EvalOutcome::Count(n)
            );
            prop_assert_eq!(
                plan.eval_into(&flat, s, EvalMode::Exists),
                EvalOutcome::Exists(some)
            );

            // Streaming finishers (fresh sink per mode; one pass each).
            let mut sink = PhrStream::new(compiled);
            prop_assert!(replay_flat(&flat, &mut sink));
            prop_assert_eq!(sink.finish_count(), n, "finish_count on {:?}", doc);
            let mut sink = PhrStream::new(compiled);
            prop_assert!(replay_flat(&flat, &mut sink));
            prop_assert_eq!(sink.finish_exists(), some, "finish_exists on {:?}", doc);

            // Worker pool (a singleton corpus exercises the dispatch).
            let docs = [flat];
            let ev = ParallelEvaluator::new(2);
            prop_assert_eq!(ev.count_corpus(plan, &docs), vec![n]);
            prop_assert_eq!(ev.count_total(plan, &docs), n);
            prop_assert_eq!(ev.exists_corpus(plan, &docs), vec![some]);
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// The path engine vs Section 8's automaton and the PHR embedding
// ---------------------------------------------------------------------------

/// Every enumerated hedge of up to 4 nodes over {a, b, c, $v}: the
/// [`CompiledPath`] answer in each mode, unpruned and pruned (candidates
/// = the `match_syms` postings, extents from [`subtree_ends`]), equals
/// `PathMarkUp::locate` and `two_pass::locate` over `to_phr`. Each path is
/// compiled against an alphabet holding only its own symbols, so the
/// others are interned after the compile and take the co-finite edge.
#[test]
fn compiled_path_agrees_with_section_8_automaton_and_phr_embedding() {
    for src in ["a", "a b", "b* a", "(a|b)* b", "a (a|b)?", "c", "a+ c?"] {
        let mut ab = Alphabet::new();
        let path = parse_path(src, &mut ab).unwrap();
        let compiled = CompiledPath::compile(&path, &ab);
        for name in ["a", "b", "c"] {
            ab.sym(name);
        }
        let vars = vec![ab.var("v")];
        let syms: Vec<SymId> = ab.syms().collect();
        let markup = path.match_identifying_nha(&syms, &vars);
        let z = ab.sub("z");
        let embedded = CompiledPhr::compile(&path.to_phr(&syms, &vars, z));
        let match_syms = compiled.match_syms();
        let mut s = EvalScratch::new();
        for h in enumerate_hedges(&syms, &vars, 4) {
            let f = FlatHedge::from_hedge(&h);
            let want = markup.locate(&f);
            assert_eq!(two_pass::locate(&embedded, &f), want, "{src}: PHR on {h:?}");
            let n = want.len();
            let end = subtree_ends(&f);
            let candidates: Vec<NodeId> = f
                .preorder()
                .filter(|&v| match (&match_syms, f.label(v)) {
                    (None, _) => true,
                    (Some(ms), FlatLabel::Sym(a)) => ms.contains(&a),
                    (Some(_), _) => false,
                })
                .collect();
            let prune = PruneInfo {
                candidates: &candidates,
                subtree_end: &end,
            };
            for pruned in [false, true] {
                let run = |s: &mut EvalScratch, mode| {
                    if pruned {
                        compiled.eval_pruned_into(&f, &prune, s, mode).0
                    } else {
                        compiled.eval_into(&f, s, mode)
                    }
                };
                let what = if pruned { "pruned" } else { "plain" };
                assert_eq!(run(&mut s, EvalMode::Locate), EvalOutcome::Located(n));
                assert_eq!(s.located(), &want[..], "{src}: {what} locate on {h:?}");
                assert_eq!(
                    run(&mut s, EvalMode::Count),
                    EvalOutcome::Count(n as u64),
                    "{src}: {what} count on {h:?}"
                );
                assert_eq!(
                    run(&mut s, EvalMode::Exists),
                    EvalOutcome::Exists(n > 0),
                    "{src}: {what} exists on {h:?}"
                );
            }
            assert_eq!(path.locate(&f), want, "{src}: PathExpr::locate on {h:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Graded bounds vs the declarative oracle
// ---------------------------------------------------------------------------

/// Graded sources paired with their hand-expanded spellings: both sides of
/// each pair must denote the same language.
const GRADED_PAIRS: &[(&str, &str)] = &[
    ("a{>=0}", "a*"),
    ("a{>=1}", "a a*"),
    ("a{>=3}", "a a a a*"),
    ("a{<=0}", "ε"),
    ("a{<=2}", "a? a?"),
    ("(a|b){>=2}", "(a|b) (a|b) (a|b)*"),
    ("b<a{>=1}>{<=1}", "b<a a*>?"),
    ("a{>=1}{<=1}", "(a a*)?"),
    ("(a b){<=2} b", "(a b)? (a b)? b"),
];

/// Parse-time desugaring is semantics-preserving: on random hedges, a
/// graded HRE matches exactly when its hand expansion does.
#[test]
fn graded_bounds_match_the_naive_oracle() {
    let pairs: Vec<(Hre, Hre)> = {
        let mut ab = Alphabet::new();
        ab.sym("a");
        ab.sym("b");
        GRADED_PAIRS
            .iter()
            .map(|(graded, manual)| {
                (
                    hedgex::core::parse_hre(graded, &mut ab).unwrap(),
                    hedgex::core::parse_hre(manual, &mut ab).unwrap(),
                )
            })
            .collect()
    };
    forall(
        "graded_vs_oracle",
        Config::with_cases(300),
        &zip2(pick_query(pairs.len()), arb_doc()),
        |(i, doc)| {
            let (graded, manual) = &pairs[*i];
            prop_assert_eq!(
                graded.matches(doc),
                manual.matches(doc),
                "{} on {:?}",
                GRADED_PAIRS[*i].0,
                doc
            );
            Ok(())
        },
    );
}

/// The same claim one layer up: a PHR with graded components locates (per
/// `locate_naive`, the declarative evaluator) exactly what the expanded
/// PHR locates — and the fast plan agrees in all three modes.
#[test]
fn graded_phrs_locate_like_their_expansions() {
    let (pairs, _ab) = {
        let mut ab = Alphabet::new();
        ab.sym("a");
        ab.sym("b");
        let srcs = [
            ("[a{>=2} ; b ; ε]", "[a a a* ; b ; ε]"),
            ("[ε ; a ; b{<=1}]", "[ε ; a ; b?]"),
            ("[a{>=1} ; b ; a{<=2}]", "[a a* ; b ; a? a?]"),
        ];
        let pairs: Vec<(Phr, Phr)> = srcs
            .iter()
            .map(|(g, m)| {
                (
                    parse_phr(g, &mut ab).unwrap(),
                    parse_phr(m, &mut ab).unwrap(),
                )
            })
            .collect();
        (pairs, ab)
    };
    let plans: Vec<(Plan, Plan)> = pairs
        .iter()
        .map(|(g, m)| (Plan::compile(g), Plan::compile(m)))
        .collect();
    forall(
        "graded_phr_vs_expansion",
        Config::with_cases(120),
        &zip2(pick_query(pairs.len()), arb_doc()),
        |(i, doc)| {
            let (graded, manual) = &pairs[*i];
            let flat = FlatHedge::from_hedge(doc);
            let expected = manual.locate_naive(&flat);
            prop_assert_eq!(&graded.locate_naive(&flat), &expected, "naive on {:?}", doc);
            let (gp, mp) = &plans[*i];
            prop_assert_eq!(&gp.locate(&flat), &expected, "plan locate on {:?}", doc);
            prop_assert_eq!(gp.count(&flat), mp.count(&flat), "count on {:?}", doc);
            prop_assert_eq!(gp.exists(&flat), mp.exists(&flat), "exists on {:?}", doc);
            Ok(())
        },
    );
}
