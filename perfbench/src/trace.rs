//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory and written out at the end as Chrome trace-event JSON — the
//! format `hxq --trace` writes, so one viewer reads both.

use std::collections::BTreeMap;
use std::time::Instant;

use hedgex_testkit::Json;

/// A finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub request: u64,
}

/// Records spans and work counts for a sequence of traced requests.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Spans started from now on belong to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Run `f` inside a span named `name`, a child of the span open now.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Add `n` to the work counter `name` (summed over all requests).
    pub fn count(&mut self, name: &'static str, n: usize) {
        *self.counts.entry(name).or_default() += n as u64;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time — duration minus the time covered by child spans — per
    /// request, summed over the spans of each name.
    pub fn self_times(&self) -> BTreeMap<(u64, &'static str), u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *out.entry((s.request, s.name)).or_default() += ns;
        }
        out
    }

    /// The spans as Chrome trace-event JSON: complete (`"ph": "X"`) events
    /// with microsecond `ts`/`dur`, span and parent ids under `args` as
    /// `hxq --trace` writes them, plus the request id.
    pub fn chrome_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("name", Json::Str(s.name.to_string())),
                        ("ph", Json::Str("X".to_string())),
                        ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                        ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                        ("pid", Json::Num(1.0)),
                        ("tid", Json::Num(1.0)),
                        (
                            "args",
                            Json::obj([
                                ("id", Json::Num(i as f64 + 1.0)),
                                (
                                    "parent",
                                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64 + 1.0)),
                                ),
                                ("request", Json::Num(s.request as f64)),
                            ]),
                        ),
                    ])
                })
                .collect(),
        )
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children_and_sums_per_request() {
        let mut t = Tracer::default();
        for request in 0..2 {
            t.set_request(request);
            t.span("request", |t| {
                t.span("io.read", |_| spin(200_000));
                t.span("io.read", |_| spin(200_000));
                t.span("xml.parse", |_| spin(300_000));
            });
        }
        let own = t.self_times();
        for request in 0..2 {
            let read = own[&(request, "io.read")];
            let parse = own[&(request, "xml.parse")];
            let rest = own[&(request, "request")];
            assert!(read >= 400_000 && parse >= 300_000);
            let total = t
                .spans()
                .iter()
                .find(|s| s.request == request && s.name == "request")
                .map(|s| s.end_ns - s.start_ns)
                .unwrap();
            assert_eq!(read + parse + rest, total);
        }
    }

    #[test]
    fn chrome_json_links_parents_by_id() {
        let mut t = Tracer::default();
        t.set_request(7);
        t.span("request", |t| t.span("core.eval", |_| ()));
        let json = t.chrome_json();
        let events = json.as_arr().unwrap();
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(child.get("name").unwrap().as_str(), Some("core.eval"));
        assert_eq!(child.get("ph").unwrap().as_str(), Some("X"));
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(1));
        assert_eq!(args.get("request").unwrap().as_u64(), Some(7));
        // It reads back as JSON.
        assert_eq!(Json::parse(&json.to_string()).unwrap(), json);
    }
}
