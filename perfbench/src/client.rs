//! The closed loop: one client runs `hxq` as a child process, waits for it
//! to exit, checks its answer, and only then sends the next request. The
//! `spawner` binary starts and reaps the children (see its docs for why).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::time::Instant;

use hedgex::prelude::DocumentStore;

use crate::inputs::{Call, Request};

/// Requests run before timing starts, checked but not timed: the first
/// `exec` of a freshly built binary pays for paging it in.
pub const WARMUP_REQUESTS: usize = 2;

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Spawn to exit, output drained to a file.
    pub latency_ns: u64,
    /// The child's peak resident set (`ru_maxrss`, its `VmHWM` at exit).
    pub peak_rss_kb: u64,
    /// Page faults the child took that needed no I/O (`ru_minflt`).
    pub minor_faults: u64,
    pub nodes: u64,
}

/// Everything the loop measured.
#[derive(Default)]
pub struct LoopResult {
    /// Timed requests only.
    pub samples: Vec<Sample>,
    /// Timed and warm-up requests.
    pub attempted: u64,
    pub failed: u64,
    /// The first failure, for the log.
    pub first_error: Option<String>,
}

/// Checks each answer; remembers the last store image it verified in full
/// so identical images from later `hxq index` runs compare byte for byte.
#[derive(Default)]
struct Checker {
    verified_image: Option<Vec<u8>>,
}

impl Checker {
    fn check(
        &mut self,
        req: &Request,
        status: ExitStatus,
        stdout: &[u8],
        stderr: &[u8],
    ) -> Result<(), String> {
        if !status.success() {
            return Err(format!(
                "exit {status}: {}",
                String::from_utf8_lossy(stderr).trim()
            ));
        }
        if stdout != req.expected_stdout.as_bytes() {
            return Err(format!(
                "stdout differs from the expected answer ({} bytes, expected {})",
                stdout.len(),
                req.expected_stdout.len()
            ));
        }
        if let Some((docs, nodes)) = req.expected_store {
            let Call::Index { out, .. } = &req.call else {
                unreachable!("only index requests expect a store");
            };
            self.check_image(out, docs, nodes)?;
        }
        Ok(())
    }

    fn check_image(&mut self, path: &Path, docs: usize, nodes: u64) -> Result<(), String> {
        let bytes = read(path)?;
        if self.verified_image.as_deref() == Some(&bytes[..]) {
            return Ok(());
        }
        let store =
            DocumentStore::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        if store.len() != docs || store.total_nodes() != nodes {
            return Err(format!(
                "store holds {} documents and {} nodes, expected {docs} and {nodes}",
                store.len(),
                store.total_nodes()
            ));
        }
        self.verified_image = Some(bytes);
        Ok(())
    }
}

/// A closed loop over `requests`, sent round-robin to `program`. It runs
/// in segments so that other work can be timed between them.
pub struct ClosedLoop<'a> {
    spawner: Spawner,
    program: &'a Path,
    requests: &'a [Request],
    /// Receives each child's stdout and stderr.
    scratch: &'a Path,
    checker: Checker,
    sent: usize,
    pub result: LoopResult,
}

impl<'a> ClosedLoop<'a> {
    /// Start the loop with [`WARMUP_REQUESTS`] untimed requests; `spawner`
    /// is the path of the `spawner` binary.
    pub fn start(
        spawner: &Path,
        program: &'a Path,
        requests: &'a [Request],
        scratch: &'a Path,
    ) -> Result<ClosedLoop<'a>, String> {
        let mut lp = ClosedLoop {
            spawner: Spawner::start(spawner)?,
            program,
            requests,
            scratch,
            checker: Checker::default(),
            sent: 0,
            result: LoopResult::default(),
        };
        for _ in 0..WARMUP_REQUESTS {
            lp.send()?;
        }
        Ok(lp)
    }

    /// Send timed requests until `until` has passed and at least
    /// `min_samples` have been timed in all; `after` runs after each one
    /// (outside its timing) with the request just answered.
    pub fn run(
        &mut self,
        until: Instant,
        min_samples: usize,
        after: &mut dyn FnMut(&Request) -> Result<(), String>,
    ) -> Result<(), String> {
        while Instant::now() < until || self.result.samples.len() < min_samples {
            let sample = self.send()?;
            self.result.samples.push(sample);
            after(&self.requests[(self.sent - 1) % self.requests.len()])?;
        }
        Ok(())
    }

    fn send(&mut self) -> Result<Sample, String> {
        let req = &self.requests[self.sent % self.requests.len()];
        self.sent += 1;
        let stdout = self.scratch.join("stdout.txt");
        let stderr = self.scratch.join("stderr.txt");
        let (status, sample) = self.spawner.run(self.program, req, &stdout, &stderr)?;
        let verdict = self
            .checker
            .check(req, status, &read(&stdout)?, &read(&stderr)?);
        self.result.attempted += 1;
        if let Err(e) = verdict {
            self.result.failed += 1;
            self.result.first_error.get_or_insert(e);
        }
        Ok(sample)
    }
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `spawner` process and its request and reply pipes.
struct Spawner {
    child: Child,
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
}

impl Spawner {
    fn start(path: &Path) -> Result<Spawner, String> {
        let mut child = Command::new(path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let requests = child.stdin.take().expect("piped stdin");
        let replies = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Spawner {
            child,
            requests: Some(requests),
            replies,
        })
    }

    /// Run `req` through `program` with its output going to the two files.
    fn run(
        &mut self,
        program: &Path,
        req: &Request,
        stdout: &Path,
        stderr: &Path,
    ) -> Result<(ExitStatus, Sample), String> {
        let mut line = [program, stdout, stderr]
            .map(|p| p.display().to_string())
            .join("\0");
        for arg in req.call.argv() {
            line.push('\0');
            line.push_str(&arg);
        }
        line.push('\n');
        let lost = |e: std::io::Error| format!("spawner: {e}");
        let pipe = self.requests.as_mut().expect("open until drop");
        pipe.write_all(line.as_bytes()).map_err(lost)?;
        let mut reply = String::new();
        self.replies.read_line(&mut reply).map_err(lost)?;
        let fields: Vec<&str> = reply.split_whitespace().collect();
        let number = |i: usize| -> Result<u64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("spawner: bad reply '{}'", reply.trim()))
        };
        match fields.first() {
            Some(&"ok") => {
                let status = i32::try_from(number(1)?).map_err(|e| e.to_string())?;
                let sample = Sample {
                    latency_ns: number(2)?,
                    peak_rss_kb: number(3)?,
                    minor_faults: number(4)?,
                    nodes: req.nodes,
                };
                Ok((ExitStatus::from_raw(status), sample))
            }
            _ => Err(format!("spawner: {}", reply.trim())),
        }
    }
}

impl Drop for Spawner {
    /// Close the request pipe, which ends the spawner, and reap it.
    fn drop(&mut self) {
        drop(self.requests.take());
        let _ = self.child.wait();
    }
}
