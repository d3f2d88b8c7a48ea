//! Seeded inputs for each workload, and the answers a correct `hxq` gives
//! on them.
//!
//! Every expected answer comes from an engine other than the one `hxq`'s
//! route uses, evaluated over the generator's own hedges rather than over
//! the XML files, so a fault in writing, reading or evaluating shows as a
//! wrong answer.

use std::path::{Path, PathBuf};
use std::process::Command;

use hedgex::prelude::*;
use hedgex::store::store::fnv1a_bytes;
use hedgex::xml::{docbook, DocbookConfig};
use hedgex_testkit::SplitMix64;

/// Documents per `doc_*` run; requests cycle through them.
const DOC_FILES: usize = 4;
/// Nodes per `doc_*` document (about 1.8 MB of XML).
const DOC_NODES: usize = 50_000;
/// The `doc_stream` queries are `article section* X` for each `X` here.
const STREAM_TARGETS: [&str; 3] = ["figure", "table", "note"];
/// Documents in the `store_*` corpus.
const STORE_DOCS: usize = 40;
/// Nodes per `store_*` document.
const STORE_DOC_NODES: usize = 2_000;
/// The `store_count` queries: a broad path that matches in nearly every
/// document, and a selective one that matches in 5% of them.
const STORE_QUERIES: [&str; 2] = ["article section* figure", "sidebar"];

/// The workloads; see the benchmark's README for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DocPhr,
    DocStream,
    StoreCount,
    StoreIndex,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DocPhr,
        Workload::DocStream,
        Workload::StoreCount,
        Workload::StoreIndex,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DocPhr => "doc_phr",
            Workload::DocStream => "doc_stream",
            Workload::StoreCount => "store_count",
            Workload::StoreIndex => "store_index",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One `hxq` invocation.
#[derive(Debug, Clone)]
pub enum Call {
    /// `hxq --phr PHR FILE`: locate, one Dewey address per line.
    Phr { file: PathBuf, phr: String },
    /// `hxq --stream --count --path PATH FILE`.
    StreamCount { file: PathBuf, path: String },
    /// `hxq --store STORE --count --path PATH`.
    StoreCount { store: PathBuf, path: String },
    /// `hxq index DIR --out OUT`.
    Index { dir: PathBuf, out: PathBuf },
}

impl Call {
    pub fn argv(&self) -> Vec<String> {
        let s = |p: &Path| p.display().to_string();
        match self {
            Call::Phr { file, phr } => vec!["--phr".into(), phr.clone(), s(file)],
            Call::StreamCount { file, path } => vec![
                "--stream".into(),
                "--count".into(),
                "--path".into(),
                path.clone(),
                s(file),
            ],
            Call::StoreCount { store, path } => vec![
                "--store".into(),
                s(store),
                "--count".into(),
                "--path".into(),
                path.clone(),
            ],
            Call::Index { dir, out } => vec!["index".into(), s(dir), "--out".into(), s(out)],
        }
    }
}

/// A request and what a correct run of it prints.
#[derive(Debug, Clone)]
pub struct Request {
    pub call: Call,
    pub expected_stdout: String,
    /// Document nodes the request covers.
    pub nodes: u64,
    /// For `hxq index`: the document and node totals the written store
    /// must hold.
    pub expected_store: Option<(usize, u64)>,
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The closed loop cycles through these in order.
    pub requests: Vec<Request>,
    /// Generated files, their total size and their FNV-1a 64 hash (over
    /// names and contents, in name order).
    pub files: usize,
    pub bytes: u64,
    pub hash: u64,
    /// Size of the store image built at set-up (`store_count` only).
    pub store_image_bytes: Option<u64>,
}

/// The benchmark's sibling query — figures immediately followed by a
/// table, inside sections — spelled as `figure_before_table_phr` in
/// `hedgex-bench` spells it.
pub fn figure_before_table_phr_src() -> String {
    let u = hedgex_bench::docbook_universal(&mut Alphabet::new());
    format!(
        "[{u} ; figure ; table<{u}> ({u})][{u} ; section ; {u}]([{u} ; section ; {u}]|[{u} ; article ; {u}])*"
    )
}

/// Generate `workload`'s inputs for `seed` into the empty directory `dir`
/// and compute every expected answer. `store_count` also builds its store
/// with `hxq index`, as a user would before querying.
pub fn setup(workload: Workload, seed: u64, dir: &Path, hxq: &Path) -> Result<Inputs, String> {
    let mut files = FileSet::default();
    let mut store_image_bytes = None;
    let requests = match workload {
        Workload::DocPhr | Workload::DocStream => {
            let docs = write_docs(seed, dir, &mut files)?;
            if workload == Workload::DocPhr {
                phr_requests(&docs)?
            } else {
                stream_requests(&docs)?
            }
        }
        Workload::StoreCount | Workload::StoreIndex => {
            let corpus = dir.join("corpus");
            let (ab, docs, rare) = hedgex_bench::sidebar_corpus(STORE_DOCS, STORE_DOC_NODES, seed);
            mkdir(&corpus)?;
            for (name, doc) in &docs {
                files.write(&corpus.join(name), &write_xml(doc, &ab, None))?;
            }
            let nodes: u64 = docs.iter().map(|(_, d)| d.num_nodes() as u64).sum();
            if workload == Workload::StoreCount {
                let store = dir.join("corpus.hxst");
                let status = Command::new(hxq)
                    .arg("index")
                    .arg(&corpus)
                    .arg("--out")
                    .arg(&store)
                    .stdout(std::process::Stdio::null())
                    .status()
                    .map_err(|e| format!("{}: {e}", hxq.display()))?;
                if !status.success() {
                    return Err(format!("hxq index failed at set-up: {status}"));
                }
                store_image_bytes = Some(file_len(&store)?);
                store_count_requests(ab, &docs, rare, nodes, &store)?
            } else {
                let out = dir.join("index.hxst");
                vec![Request {
                    expected_stdout: format!(
                        "indexed {} documents ({nodes} nodes) into {}\n",
                        docs.len(),
                        out.display()
                    ),
                    call: Call::Index { dir: corpus, out },
                    nodes,
                    expected_store: Some((docs.len(), nodes)),
                }]
            }
        }
    };
    Ok(Inputs {
        requests,
        files: files.count,
        bytes: files.bytes,
        hash: fnv1a_bytes(&files.digest),
        store_image_bytes,
    })
}

/// The generated documents of a `doc_*` run: file, alphabet, hedge.
type Docs = Vec<(PathBuf, Alphabet, FlatHedge)>;

fn write_docs(seed: u64, dir: &Path, files: &mut FileSet) -> Result<Docs, String> {
    let mut seeds = SplitMix64::new(seed);
    let cfg = DocbookConfig {
        target_nodes: DOC_NODES,
        ..DocbookConfig::default()
    };
    (0..DOC_FILES)
        .map(|i| {
            let mut ab = Alphabet::new();
            let doc = FlatHedge::from_hedge(&docbook(&cfg, seeds.next_u64(), &mut ab));
            let file = dir.join(format!("doc{i}.xml"));
            files.write(&file, &write_xml(&doc, &ab, None))?;
            Ok((file, ab, doc))
        })
        .collect()
}

/// Expected answers from a `Plan` compiled here and evaluated by two-pass
/// over the generator's hedge; `hxq --phr` compiles its own.
fn phr_requests(docs: &Docs) -> Result<Vec<Request>, String> {
    let src = figure_before_table_phr_src();
    docs.iter()
        .map(|(file, ab, doc)| {
            let phr = parse_phr(&src, &mut ab.clone()).map_err(|e| e.to_string())?;
            let expected_stdout: String = Plan::compile(&phr)
                .locate(doc)
                .into_iter()
                .map(|n| dewey_line(&doc.dewey(n)))
                .collect();
            Ok(Request {
                call: Call::Phr {
                    file: file.clone(),
                    phr: src.clone(),
                },
                expected_stdout,
                nodes: doc.num_nodes() as u64,
                expected_store: None,
            })
        })
        .collect()
}

/// Expected counts from the materialized direct path evaluator;
/// `hxq --stream` runs the streaming DFA.
fn stream_requests(docs: &Docs) -> Result<Vec<Request>, String> {
    // Every (document, target) pair once, in an order that alternates both.
    (0..DOC_FILES * STREAM_TARGETS.len())
        .map(|i| {
            let (file, ab, doc) = &docs[i % DOC_FILES];
            let path = format!(
                "article section* {}",
                STREAM_TARGETS[i % STREAM_TARGETS.len()]
            );
            let count = parse_path(&path, &mut ab.clone())
                .map_err(|e| e.to_string())?
                .locate(doc)
                .len();
            Ok(Request {
                call: Call::StreamCount {
                    file: file.clone(),
                    path,
                },
                expected_stdout: format!("{count}\n"),
                nodes: doc.num_nodes() as u64,
                expected_store: None,
            })
        })
        .collect()
}

/// Expected totals from the direct path evaluator run per document;
/// `hxq --store` embeds the path as a PHR and runs the pruned plan.
fn store_count_requests(
    mut ab: Alphabet,
    docs: &[(String, FlatHedge)],
    rare: usize,
    nodes: u64,
    store: &Path,
) -> Result<Vec<Request>, String> {
    STORE_QUERIES
        .iter()
        .map(|&query| {
            let path = parse_path(query, &mut ab).map_err(|e| e.to_string())?;
            let count: usize = docs.iter().map(|(_, d)| path.locate(d).len()).sum();
            if query == "sidebar" && count != rare {
                return Err(format!(
                    "the generator reports {rare} sidebar documents, the direct path count is {count}"
                ));
            }
            Ok(Request {
                call: Call::StoreCount {
                    store: store.to_path_buf(),
                    path: query.to_string(),
                },
                expected_stdout: format!("{count}\n"),
                nodes,
                expected_store: None,
            })
        })
        .collect()
}

fn dewey_line(dewey: &[u32]) -> String {
    let parts: Vec<String> = dewey.iter().map(u32::to_string).collect();
    format!("/{}\n", parts.join("/"))
}

/// Writes the generated files and folds each one's name and content hash
/// into the run's input hash.
#[derive(Default)]
struct FileSet {
    count: usize,
    bytes: u64,
    digest: Vec<u8>,
}

impl FileSet {
    fn write(&mut self, path: &Path, content: &str) -> Result<(), String> {
        std::fs::write(path, content).map_err(|e| format!("{}: {e}", path.display()))?;
        let name = path.file_name().expect("generated files have names");
        self.digest.extend_from_slice(name.as_encoded_bytes());
        self.digest
            .extend_from_slice(&fnv1a_bytes(content.as_bytes()).to_le_bytes());
        self.count += 1;
        self.bytes += content.len() as u64;
        Ok(())
    }
}

pub fn mkdir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

pub fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phr_source_is_the_bench_crates_query() {
        // Both spellings must denote the same query: same answers on a
        // document where the query has matches.
        let mut w = hedgex_bench::doc_workload(3000, 5);
        let ours = parse_phr(&figure_before_table_phr_src(), &mut w.ab).unwrap();
        let theirs = hedgex_bench::figure_before_table_phr(&mut w.ab);
        let hits = Plan::compile(&ours).locate(&w.doc);
        assert!(!hits.is_empty());
        assert_eq!(hits, Plan::compile(&theirs).locate(&w.doc));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("doc"), None);
    }
}
