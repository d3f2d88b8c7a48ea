//! Materialized ingest: XML text → parser events → [`FlatHedge`], in one
//! pass.
//!
//! [`parse_flat`] is the route every materialized consumer takes (`hxq
//! FILE`, `hxq index`). It drives the event parser through the same
//! [`XmlDriver`] the streaming evaluators use, so the `to_hedge` mapping
//! (interning order, `#text` leaves, `attr:` prefix children) lives in one
//! place, and a `FlatBuilder` sink records one `(label, parent)` pair per
//! event. [`FlatHedge::from_parts`] links the arena. No `XmlNode` tree and
//! no recursive `Hedge` is built, and nothing recurses per nesting level,
//! so arbitrarily deep documents ingest in constant call-stack space.

use hedgex_ha::Leaf;
use hedgex_hedge::flat::{FlatLabel, FromPartsError, NIL};
use hedgex_hedge::{Alphabet, FlatHedge, NodeId, SymId};
use hedgex_xml::{parse_xml_stream, HedgeConfig, XmlError};

use crate::{HedgeSink, XmlDriver};

/// A [`HedgeSink`] that records the event stream as preorder
/// `(label, parent)` records and links them into a [`FlatHedge`] at
/// [`finish`](FlatBuilder::finish). It never stops the parse.
#[derive(Default)]
struct FlatBuilder {
    records: Vec<(FlatLabel, NodeId)>,
    /// The open Σ nodes, innermost last.
    open: Vec<NodeId>,
}

impl FlatBuilder {
    fn push(&mut self, label: FlatLabel) -> NodeId {
        let id = self.records.len() as NodeId;
        let parent = self.open.last().copied().unwrap_or(NIL);
        self.records.push((label, parent));
        id
    }

    /// The flat hedge of the events so far, all of which must be closed.
    /// Fails only when the node count does not fit the `u32` arena.
    fn finish(self) -> Result<FlatHedge, FromPartsError> {
        debug_assert!(self.open.is_empty(), "unbalanced event stream");
        FlatHedge::from_parts(self.records)
    }
}

impl HedgeSink for FlatBuilder {
    fn open(&mut self, a: SymId) -> bool {
        let id = self.push(FlatLabel::Sym(a));
        self.open.push(id);
        true
    }

    fn leaf(&mut self, l: Leaf) -> bool {
        self.push(match l {
            Leaf::Var(x) => FlatLabel::Var(x),
            Leaf::Sub(z) => FlatLabel::Subst(z),
        });
        true
    }

    fn close(&mut self) -> bool {
        self.open.pop();
        true
    }
}

/// Parse `src` into the flat hedge the evaluators walk, interning names
/// into `ab` under the `cfg` mapping. The result, alphabet included, is
/// exactly `FlatHedge::from_hedge(&to_hedge(&parse_xml(src)?, ab, cfg))`,
/// and malformed input fails with the same [`XmlError`] at the same byte
/// position (`tests/xml_stream_fuzz.rs` holds the two routes to that).
pub fn parse_flat(src: &str, ab: &mut Alphabet, cfg: HedgeConfig) -> Result<FlatHedge, XmlError> {
    let _span = hedgex_obs::span("xml.ingest");
    let mut builder = FlatBuilder::default();
    parse_xml_stream(src, &mut XmlDriver::new(ab, cfg, &mut builder))?;
    let flat = builder.finish().map_err(|e| XmlError {
        pos: src.len(),
        msg: e.to_string(),
    })?;
    hedgex_obs::counter_add("xml.ingest.bytes", src.len() as u64);
    hedgex_obs::counter_add("xml.ingest.nodes", flat.num_nodes() as u64);
    Ok(flat)
}
