//! Property tests tying the static analyzer to the evaluators it speaks
//! for: analysis verdicts are claims about `locate` on *every* document,
//! so we check them against randomly generated documents, and we check
//! that dead-state pruning never changes a match set — sequentially and
//! through the parallel evaluator.
//!
//! Runs on `hedgex-testkit`'s shrinking `forall` runner (seed-reproducible
//! failures) and is exercised by CI both with default features and with
//! `--no-default-features` (analysis must not depend on instrumentation).

use std::collections::BTreeSet;
use std::rc::Rc;

use hedgex::analyze::AnalyzedQuery;
use hedgex::core::phr_compile;
use hedgex::core::Phr;
use hedgex::hedge::{Hedge, SymId, Tree, VarId};
use hedgex::prelude::*;
use hedgex_testkit::prop::shrink_vec;
use hedgex_testkit::{forall, prop_assert, prop_assert_eq, zip2, Config, Gen, Rng};

// ---------------------------------------------------------------------------
// Generators
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

/// The query pool: a mix of satisfiable queries over {a, b} and queries
/// that are provably empty (the elder condition `a<%z>^z` has no finite
/// document unfolding). Analyses are built once and shared by `Rc` — the
/// properties then only evaluate documents.
fn pool() -> Vec<(Phr, Rc<AnalyzedQuery>)> {
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
        "[a<%z>^z ; b ; ε]".to_string(),
        format!("[{u} ; a ; a<%z>^z]"),
    ]
    .iter()
    .map(|src| {
        // `$v` must intern as VarId(0) the first time it appears.
        let phr = parse_phr(src, &mut ab).unwrap();
        let analyzed = Rc::new(AnalyzedQuery::new(&phr, None));
        (phr, analyzed)
    })
    .collect()
}

fn pick_query(n: usize) -> Gen<usize> {
    Gen::new(move |rng| rng.random_range(0..n))
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// Satisfiability is exactly non-emptiness of the match behaviour: an
/// unsatisfiable query locates nothing on any document, and a satisfiable
/// query's witness is a concrete document where it locates something.
#[test]
fn satisfiability_iff_locate_nonempty() {
    let pool = pool();
    // The witness direction is deterministic — once per query.
    for (phr, q) in &pool {
        let sat = q.satisfiable();
        if let Some(w) = &sat.witness {
            let flat = FlatHedge::from_hedge(w);
            assert!(
                !phr.locate_naive(&flat).is_empty(),
                "witness must locate: {w:?}"
            );
        }
    }
    let unsat: Vec<bool> = pool
        .iter()
        .map(|(_, q)| !q.satisfiable().satisfiable)
        .collect();
    assert!(unsat.iter().any(|&u| u), "pool must cover the empty case");
    assert!(
        unsat.iter().any(|&u| !u),
        "pool must cover the inhabited case"
    );
    // The empty direction over random documents.
    forall(
        "unsat_locates_nothing",
        Config::with_cases(100),
        &zip2(pick_query(pool.len()), arb_doc()),
        |(i, doc)| {
            if unsat[*i] {
                let flat = FlatHedge::from_hedge(doc);
                let hits = pool[*i].0.locate_naive(&flat);
                prop_assert!(hits.is_empty(), "unsatisfiable query located {hits:?}");
            }
            Ok(())
        },
    );
}

/// A positive containment verdict means per-document match-set inclusion;
/// a counterexample, when produced, genuinely separates the two queries.
#[test]
fn containment_implies_matchset_inclusion() {
    let pool = pool();
    let verdicts: Vec<Vec<bool>> = pool
        .iter()
        .map(|(_, qa)| {
            pool.iter()
                .map(|(_, qb)| qa.contained_in(qb).contained)
                .collect()
        })
        .collect();
    // Counterexample soundness is deterministic — once per pair.
    for (i, (pa, qa)) in pool.iter().enumerate() {
        for (j, (pb, qb)) in pool.iter().enumerate() {
            let verdict = qa.contained_in(qb);
            assert_eq!(verdict.contained, verdicts[i][j]);
            if let Some(cex) = &verdict.counterexample {
                let flat = FlatHedge::from_hedge(cex);
                let in_a: BTreeSet<u32> = pa.locate_naive(&flat).into_iter().collect();
                let in_b: BTreeSet<u32> = pb.locate_naive(&flat).into_iter().collect();
                assert!(
                    in_a.difference(&in_b).next().is_some(),
                    "counterexample {cex:?} does not separate pair ({i}, {j})"
                );
            }
        }
    }
    forall(
        "containment_inclusion",
        Config::with_cases(100),
        &zip2(
            zip2(pick_query(pool.len()), pick_query(pool.len())),
            arb_doc(),
        ),
        |((i, j), doc)| {
            if !verdicts[*i][*j] {
                return Ok(());
            }
            let flat = FlatHedge::from_hedge(doc);
            let in_a: BTreeSet<u32> = pool[*i].0.locate_naive(&flat).into_iter().collect();
            let in_b: BTreeSet<u32> = pool[*j].0.locate_naive(&flat).into_iter().collect();
            prop_assert!(
                in_a.is_subset(&in_b),
                "contained({i}, {j}) but {in_a:?} ⊄ {in_b:?} on {doc:?}"
            );
            Ok(())
        },
    );
}

/// Dead-state pruning is invisible to evaluation: the pruned and unpruned
/// compilations locate identical match sets, sequentially and through the
/// parallel evaluator at 1 and 2 workers.
#[test]
fn pruning_never_changes_match_sets() {
    let pool = pool();
    let plans: Vec<(Plan, Plan)> = pool
        .iter()
        .map(|(phr, _)| {
            (
                Plan::from_compiled(phr_compile::CompiledPhr::compile_with(phr, true)),
                Plan::from_compiled(phr_compile::CompiledPhr::compile_with(phr, false)),
            )
        })
        .collect();
    forall(
        "pruned_equals_unpruned",
        Config::with_cases(100),
        &zip2(pick_query(pool.len()), arb_doc()),
        |(i, doc)| {
            let (pruned, unpruned) = &plans[*i];
            let flat = FlatHedge::from_hedge(doc);
            let hits_p = pruned.locate(&flat);
            let hits_u = unpruned.locate(&flat);
            prop_assert_eq!(&hits_p, &hits_u);
            for jobs in [1usize, 2] {
                let par = ParallelEvaluator::new(jobs).repeat(pruned, &flat, 2);
                prop_assert_eq!(&par, &hits_u);
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Repeated components
// ---------------------------------------------------------------------------

/// A random PHR over {a, b} whose elder and younger conditions are all
/// drawn from three expressions, so most PHRs repeat a component (two or
/// more triplets always do): the case where compilation shares one
/// automaton between several components.
fn arb_repeated_phr() -> Gen<String> {
    const HRES: [&str; 3] = ["(a<%z>|b<%z>|$v)*^z", "ε", "b<ε>*"];
    Gen::new(|rng| {
        let triplets: Vec<String> = (0..rng.random_range(1..4usize))
            .map(|_| {
                let label = ["a", "b"][rng.random_range(0..2usize)];
                let elder = HRES[rng.random_range(0..HRES.len())];
                let younger = HRES[rng.random_range(0..HRES.len())];
                format!("[{elder} ; {label} ; {younger}]")
            })
            .collect();
        match rng.random_range(0..3u32) {
            0 => format!("({})+", triplets.join("|")),
            1 if triplets.len() > 1 => format!("{}({})*", triplets[0], triplets[1..].concat()),
            _ => triplets.concat(),
        }
    })
}

/// Parse a generated PHR against the fixed {a, b, $v} alphabet.
fn parse_repeated(src: &str) -> Phr {
    let mut ab = Alphabet::new();
    assert_eq!((ab.sym("a"), ab.sym("b")), (SymId(0), SymId(1)));
    parse_phr(src, &mut ab).unwrap()
}

/// Sharing compiled components never changes an answer: with repeated
/// elder/younger conditions, two-pass evaluation (reduced and unreduced)
/// equals the specification, and the analyzer's satisfiability verdict
/// and witness agree with `locate` on the same documents.
#[test]
fn repeated_components_agree_with_the_specification() {
    forall(
        "repeated_components_spec",
        Config::with_cases(40),
        &zip2(arb_repeated_phr(), arb_doc()),
        |(src, doc)| {
            let phr = parse_repeated(src);
            let flat = FlatHedge::from_hedge(doc);
            let expected = phr.locate_naive(&flat);
            for reduce in [true, false] {
                let compiled = phr_compile::CompiledPhr::compile_with(&phr, reduce);
                prop_assert_eq!(
                    &hedgex::core::two_pass::locate(&compiled, &flat),
                    &expected,
                    "reduce={reduce}"
                );
            }
            let sat = AnalyzedQuery::new(&phr, None).satisfiable();
            if !sat.satisfiable {
                prop_assert!(expected.is_empty(), "unsatisfiable query located");
            }
            if let Some(w) = &sat.witness {
                let hits = phr.locate_naive(&FlatHedge::from_hedge(w));
                prop_assert!(!hits.is_empty(), "witness {w:?} locates nothing");
            }
            Ok(())
        },
    );
}

/// Containment verdicts between PHRs with repeated components: a positive
/// verdict means match-set inclusion on every document, and a
/// counterexample separates the two queries.
#[test]
fn repeated_components_containment_is_sound() {
    forall(
        "repeated_components_containment",
        Config::with_cases(20),
        &zip2(zip2(arb_repeated_phr(), arb_repeated_phr()), arb_doc()),
        |((src_a, src_b), doc)| {
            let (pa, pb) = (parse_repeated(src_a), parse_repeated(src_b));
            let verdict =
                AnalyzedQuery::new(&pa, None).contained_in(&AnalyzedQuery::new(&pb, None));
            let hits = |phr: &Phr, d: &Hedge| -> BTreeSet<u32> {
                phr.locate_naive(&FlatHedge::from_hedge(d))
                    .into_iter()
                    .collect()
            };
            if verdict.contained {
                prop_assert!(hits(&pa, doc).is_subset(&hits(&pb, doc)));
            }
            if let Some(cex) = &verdict.counterexample {
                prop_assert!(
                    !hits(&pa, cex).is_subset(&hits(&pb, cex)),
                    "counterexample {cex:?} does not separate the queries"
                );
            }
            Ok(())
        },
    );
}
