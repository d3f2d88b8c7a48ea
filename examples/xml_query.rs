//! Querying a real XML document with an extended path expression.
//!
//! ```sh
//! cargo run --example xml_query
//! ```
//!
//! The introduction's motivating example: "locate all <figure> elements
//! whose immediately following siblings are <table> elements" — a query
//! classical path expressions *cannot* express (they see only the ancestor
//! path) but pointed hedge representations can. The result is printed as
//! XML with `hx:match="1"` on the located nodes.

use hedgex::prelude::*;

const DOC: &str = r#"
<article>
  <title>On hedges</title>
  <section>
    <title>Intro</title>
    <para>Some text.</para>
    <figure><caption>A figure, then a table</caption></figure>
    <table/>
    <figure><caption>A figure, then a paragraph</caption></figure>
    <para>More text.</para>
    <section>
      <title>Nested</title>
      <figure><caption>Nested figure, then a table</caption></figure>
      <table/>
    </section>
  </section>
</article>
"#;

fn main() {
    let mut ab = Alphabet::new();
    let flat = parse_flat(DOC, &mut ab, HedgeConfig::default()).expect("well-formed XML");
    println!("document has {} nodes\n", flat.num_nodes());

    // Universal sibling condition over the document's element names + text.
    let universal = {
        let names: Vec<String> = (0..ab.num_syms() as u32)
            .map(|i| format!("{}<%z>", ab.sym_name(hedgex::hedge::SymId(i))))
            .collect();
        format!("({}|$#text)*^z", names.join("|"))
    };

    // PHR: η's parent is figure with a table as the immediately following
    // sibling; above it, any chain of sections under an article.
    let phr_src = format!(
        "[{u} ; figure ; table<{u}> ({u})][{u} ; section ; {u}]([{u} ; section ; {u}])*[{u} ; article ; {u}]",
        u = universal
    );
    let phr = parse_phr(&phr_src, &mut ab).expect("PHR parses");

    let compiled = CompiledPhr::compile(&phr);
    let hits = two_pass::locate(&compiled, &flat);

    println!("figures immediately followed by a table:");
    for &n in &hits {
        println!("  Dewey {:?}", flat.dewey(n));
    }

    let mut marks = vec![false; flat.num_nodes()];
    for &n in &hits {
        marks[n as usize] = true;
    }
    println!("\n{}", write_xml(&flat, &ab, Some(&marks)));

    // Contrast: the ancestor-only path expression finds *all* figures under
    // sections — it cannot see the following sibling.
    let path = parse_path("article section* figure", &mut ab).unwrap();
    let path_hits = path.locate(&flat);
    println!(
        "path expression 'article section* figure' finds {} figures; the \
         sibling-sensitive query narrows that to {}.",
        path_hits.len(),
        hits.len()
    );
    assert!(hits.len() < path_hits.len());
    assert!(hits.iter().all(|h| path_hits.contains(h)));
}
